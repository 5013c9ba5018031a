from itertools import product
from math import comb

import pytest

from conftest import sorted_with_sign
from karyhom import families
from karyhom.algebra import (
    KaryAlgebra,
    algebra_to_json_dict,
    center,
    check_jacobi,
    lower_central_series,
)
from karyhom.errors import InputError, ResourceCapError
from karyhom.families import (
    FamilySpec,
    _exponents,
    abelian,
    acj,
    current_algebra,
    free_three_step_small,
    free_two_step,
    heisenberg,
)


def test_heisenberg_shapes():
    h = heisenberg(3, 1)
    assert h.dim == 4
    assert h.brackets == {(0, 1, 2): {3: 1}}
    assert heisenberg(2, 1).dim == 3  # the classical [x, y] = z algebra
    assert heisenberg(2, 1).brackets == {(0, 1): {2: 1}}
    assert heisenberg(5, 1).dim == 6
    assert heisenberg(4, 3).dim == 13
    assert len(heisenberg(3, 2).brackets) == 2


def test_acj_shapes():
    a = acj(3, 1)
    assert a.dim == 4
    assert a.brackets == {(0, 1, 2): {3: 1}}
    assert a.labels[0] == "z"
    a2 = acj(3, 2)
    assert a2.dim == 7
    assert len(a2.brackets) == 2
    assert acj(2, 2).brackets == {(0, 1): {3: 1}, (0, 2): {4: 1}}


def test_free_two_step_shapes():
    f = free_two_step(3, 3)
    assert f.dim == 4
    assert f.brackets == {(0, 1, 2): {3: 1}}
    assert free_two_step(2, 4).dim == 4 + 6
    f34 = free_two_step(3, 4)
    assert f34.dim == 8
    assert len(center(f34)) == 4
    # weight grading: generators get unit vectors, w_S the indicator sum
    assert f34.weights[0] == (1, 0, 0, 0)
    assert f34.weights[4] == (1, 1, 1, 0)


def test_free_three_step_shapes():
    f3 = free_three_step_small(3)
    assert f3.dim == 7
    assert f3.labels == ("x1", "x2", "x3", "y", "z1", "z2", "z3")
    assert f3.brackets[(0, 1, 2)] == {3: 1}
    assert f3.brackets[(0, 1, 3)] == {6: 1}  # [x1, x2, y] = z3
    assert f3.brackets[(1, 2, 3)] == {4: 1}  # [x2, x3, y] = z1
    assert free_three_step_small(4).dim == 9
    assert free_three_step_small(5).dim == 11


def test_parameter_validation():
    with pytest.raises(InputError):
        heisenberg(1, 1)
    with pytest.raises(InputError):
        heisenberg(3, 0)
    with pytest.raises(InputError):
        acj(2, 0)
    with pytest.raises(InputError):
        free_two_step(3, 2)
    with pytest.raises(InputError):
        free_three_step_small(2)
    with pytest.raises(InputError):
        current_algebra(heisenberg(2, 1), 0)
    with pytest.raises(InputError):
        abelian(2, 0)


def test_current_algebra():
    h = heisenberg(5, 1)
    cur = current_algebra(h, 2)
    assert cur.dim == 12
    series = lower_central_series(cur)
    assert [len(s) for s in series] == [12, 2, 0]  # 2-step
    assert check_jacobi(cur) == []
    # truncation 1 reproduces the original structure
    assert current_algebra(h, 1).structure_equal(h)
    # abelian stays abelian
    ab = current_algebra(abelian(2, 3), 3)
    assert ab.dim == 9 and not ab.brackets


def _current_by_product_and_filter(alg, j):
    """The current algebra built from all j^k exponent tuples, those with
    sum j or more dropped, each key sorted with the sign of its
    inversion count."""
    n = alg.dim
    brackets = {}
    for args, vec in alg.brackets.items():
        for ps in product(range(j), repeat=alg.arity):
            s = sum(ps)
            if s < j:
                key, sign = sorted_with_sign(p * n + a for p, a in zip(ps, args))
                brackets[key] = {s * n + w: sign * c for w, c in vec.items()}
    labels = [f"{lab}.t{p}" for p in range(j) for lab in alg.labels]
    return KaryAlgebra(alg.arity, j * n, labels, brackets)


@pytest.mark.parametrize(
    "base, j",
    [
        (heisenberg(3, 1), 6),
        (heisenberg(2, 2), 4),
        (acj(2, 2), 5),
        (acj(4, 1), 4),
        (free_three_step_small(3), 3),
        (KaryAlgebra(2, 3, ["x", "y", "z"], {(0, 1): {2: -2}}), 7),
        (heisenberg(2, 1), 1),
    ],
    ids=["heisenberg31", "heisenberg22", "acj22", "acj41", "free3small3", "scaled", "j1"],
)
def test_current_algebra_matches_the_product_and_filter_build(base, j):
    cur, oracle = current_algebra(base, j), _current_by_product_and_filter(base, j)
    assert list(cur.brackets.items()) == list(oracle.brackets.items())  # keys in the same order
    assert algebra_to_json_dict(cur) == algebra_to_json_dict(oracle)
    for k in range(1, 6):
        expected = [ps for ps in product(range(j), repeat=k) if sum(ps) < j]
        assert list(_exponents(k, j)) == [(ps, sum(ps)) for ps in expected]


def test_current_bracket_grading():
    h = heisenberg(2, 1)  # [x, y] = z on indices 0, 1 -> 2
    cur = current_algebra(h, 2)
    # [x t^0, y t^1] lands in z t^1
    assert cur.bracket((0, 4)) == {5: 1}
    # exponent overflow kills the bracket
    assert cur.bracket((3, 4)) == {}


def test_all_constructors_satisfy_jacobi():
    algebras = [
        heisenberg(2, 2),
        heisenberg(4, 1),
        acj(2, 3),
        acj(4, 1),
        free_two_step(2, 3),
        free_two_step(4, 4),
        free_three_step_small(3),
        current_algebra(heisenberg(3, 1), 2),
        current_algebra(acj(2, 1), 3),
    ]
    for alg in algebras:
        assert check_jacobi(alg) == [], alg


def test_two_step_constructors_have_length_three_series():
    for alg in (
        heisenberg(3, 2),
        acj(3, 1),
        free_two_step(2, 3),
        current_algebra(heisenberg(2, 2), 2),
    ):
        assert [len(s) for s in lower_central_series(alg)][-1] == 0
        assert len(lower_central_series(alg)) == 3


def test_family_spec_builds_and_describes():
    spec = FamilySpec(tag="heisenberg", k=3, m=2)
    assert spec.build().dim == 7
    assert spec.describe() == "heisenberg(k=3, m=2)"
    cur = FamilySpec(tag="current", j=2, inner=FamilySpec(tag="heisenberg", k=5, m=1))
    assert cur.build().dim == 12
    assert cur.describe() == "current(heisenberg(k=5, m=1), j=2)"
    with pytest.raises(InputError):
        FamilySpec(tag="nope", k=2).build()
    with pytest.raises(InputError):
        FamilySpec(tag="heisenberg", k=3).build()


def test_builds_over_cap_are_refused_before_allocating():
    # basis elements plus bracket-key entries (free2(2, 4): 4 + 3 * 6, and
    # (4 + 6) * 4 weight entries); for a current algebra, basis elements
    # plus the C(j+k-1, k) products per bracket of the base
    for build, size in (
        (lambda cap: heisenberg(3, 2, cap=cap), 13),
        (lambda cap: acj(3, 2, cap=cap), 13),
        (lambda cap: free_two_step(2, 4, cap=cap), 62),
        (lambda cap: free_three_step_small(3, cap=cap), 19),
        (lambda cap: abelian(2, 5, cap=cap), 5),
        (lambda cap: current_algebra(heisenberg(2, 1), 3, cap=cap), 15),
    ):
        build(size)
        with pytest.raises(ResourceCapError):
            build(size - 1)
    # the base of a current algebra is built under the same cap: current(
    # heisenberg(2, 1), 1) takes 4, its base 5
    spec = FamilySpec(tag="current", j=1, inner=FamilySpec(tag="heisenberg", k=2, m=1))
    assert spec.build(cap=5).dim == 3
    with pytest.raises(ResourceCapError):
        spec.build(cap=4)
    # parameters are checked before the size
    with pytest.raises(InputError):
        free_two_step(1, 10**9)


def test_current_algebra_cap_counts_the_products_it_forms(monkeypatch):
    # 4 * 30 basis elements and C(32, 3) = 4960 products fit a cap of 5080
    # exactly; the 30^3 exponent tuples a product would visit do not
    base = heisenberg(3, 1)
    assert len(current_algebra(base, 30, cap=5080).brackets) == comb(32, 3)
    # 400 + C(102, 3) = 172100 fits the default cap; the products of that
    # build (seconds of work) are stubbed out, so only the cap check runs
    formed = []
    monkeypatch.setattr(families, "_exponents", lambda k, j: formed.append((k, j)) or ())
    assert current_algebra(base, 100).dim == 400
    assert formed == [(3, 100)]
    # one under the count is refused before any product is formed
    with pytest.raises(ResourceCapError, match="building current"):
        current_algebra(base, 30, cap=5079)
    assert formed == [(3, 100)]


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec(tag="heisenberg", k=2, m=1, n=5),
        FamilySpec(tag="free3small", k=3, j=2),
        FamilySpec(tag="acj", k=2, m=1, inner=FamilySpec(tag="heisenberg", k=2, m=1)),
        FamilySpec(tag="current", k=2, j=2, inner=FamilySpec(tag="heisenberg", k=2, m=1)),
    ],
    ids=["heisenberg-n", "free3small-j", "acj-inner", "current-k"],
)
def test_family_spec_rejects_parameters_it_does_not_take(spec):
    with pytest.raises(InputError, match="does not take"):
        spec.build()
