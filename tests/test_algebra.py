import io
import json
import random
from itertools import combinations, permutations
from math import comb

import pytest

from conftest import (
    bracket,
    center_by_brackets,
    dense_rank,
    jacobi_residuals_exhaustive,
    jacobi_residuals_increasing,
    lower_central_series_by_brackets,
    relabelled,
    sorted_with_sign,
)
from karyhom.algebra import (
    KaryAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    center,
    check_jacobi,
    load_algebra,
    lower_central_series,
    refuse_over_cap,
    sort_with_sign,
)
from karyhom.errors import InputError, LoadError, ResourceCapError
from karyhom.families import (
    abelian,
    acj,
    current_algebra,
    free_three_step_small,
    free_two_step,
    heisenberg,
)


def mutate(alg, args, vec):
    brackets = dict(alg.brackets)
    brackets[args] = vec
    return KaryAlgebra(alg.arity, alg.dim, alg.labels, brackets)


# -- the sorting sign -----------------------------------------------------


def test_sort_with_sign_is_the_inversion_parity():
    # the one sign rule of the engine's sorted keys (current algebras,
    # straightening): every permutation of up to six distinct indices
    # against the inversion count of the oracle, and 0 on any repeat
    for n in range(7):
        values = (3, 4, 9, 10, 17, 40)[:n]
        for perm in permutations(values):
            assert sort_with_sign(perm) == sorted_with_sign(perm), perm
            for i, j in combinations(range(n), 2):
                repeated = perm[:j] + (perm[i],) + perm[j + 1 :]
                assert sort_with_sign(repeated) == (tuple(sorted(repeated)), 0), repeated


def _signed_bracket(alg, indices):
    """[e_i1, ..., e_ik] read off the stored keys through the engine's
    `sort_with_sign`, the sign rule the family builders key with."""
    key, sign = sort_with_sign(indices)
    return {i: sign * c for i, c in alg.brackets.get(key, {}).items()} if sign else {}


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_bracket_antisymmetry_exhaustive_small():
    for alg in (heisenberg(2, 2), acj(3, 1), free_two_step(3, 3)):
        k = alg.arity
        # the first basis tuple, and the first stored key so a nonzero
        # bracket is permuted on every algebra
        for base in (tuple(range(k)), min(alg.brackets)):
            ref = _signed_bracket(alg, base)
            for perm in permutations(range(k)):
                tup = tuple(base[p] for p in perm)
                sign = _perm_sign(perm)
                expected = {i: sign * c for i, c in ref.items()}
                assert _signed_bracket(alg, tup) == expected
                assert bracket(alg, tup) == expected


def test_bracket_antisymmetry_randomized():
    rng = random.Random(99)
    alg = free_two_step(3, 5)
    for _ in range(50):
        tup = tuple(rng.sample(range(alg.dim), 3))
        srt = tuple(sorted(tup))
        sign = _perm_sign(tuple(sorted(range(3), key=lambda i: tup[i])))
        expected = {i: sign * c for i, c in _signed_bracket(alg, srt).items()}
        assert _signed_bracket(alg, tup) == expected
        assert bracket(alg, tup) == expected


# -- constructor invariants ----------------------------------------------


def test_storage_invariants_enforced():
    with pytest.raises(InputError):
        KaryAlgebra(3, 4, list("abcd"), {(1, 0, 2): {3: 1}})
    with pytest.raises(InputError):
        KaryAlgebra(3, 4, list("abcd"), {(0, 1, 2): {3: 0}})
    with pytest.raises(InputError):
        KaryAlgebra(3, 4, list("abcd"), {(0, 1, 5): {3: 1}})
    with pytest.raises(InputError):
        KaryAlgebra(3, 4, list("abc"), {})
    # integers are strict: nothing is truncated or coerced
    with pytest.raises(InputError):
        KaryAlgebra(2, 3, list("abc"), {(0.5, 1): {2: 1}})
    with pytest.raises(InputError):
        KaryAlgebra(2, 3, list("abc"), {(0, 1): {2: 1.5}})
    with pytest.raises(InputError):
        KaryAlgebra(2, 3, list("abc"), {(0, 1): {2: 1}}, {0: (0.7,), 1: (0,), 2: (0.7,)})


def test_weight_additivity_enforced():
    good = free_two_step(2, 2)  # e1, e2, w_12
    assert good.weights is not None and good.weight_rank == 2
    assert KaryAlgebra(2, 3, good.labels, good.brackets).weight_rank == 0
    bad_weights = {i: w for i, w in good.weights.items()}
    bad_weights[2] = (5, 5)
    with pytest.raises(InputError):
        KaryAlgebra(2, 3, good.labels, good.brackets, bad_weights)


# -- Jacobi ----------------------------------------------------------------


def test_jacobi_holds_on_families():
    for alg in (
        heisenberg(2, 3),
        heisenberg(3, 2),
        acj(3, 2),
        free_two_step(3, 4),
        free_three_step_small(3),
        free_three_step_small(4),
        abelian(3, 4),
    ):
        assert check_jacobi(alg) == []


def test_jacobi_matches_exhaustive_oracle():
    f3 = free_three_step_small(3)
    assert jacobi_residuals_exhaustive(f3) == []
    assert check_jacobi(f3) == []


def test_jacobi_detects_violation():
    # [x1, x2, z] = x1 breaks the identity; the exhaustive oracle agrees
    mutant = mutate(heisenberg(3, 1), (0, 1, 3), {0: 1})
    violations = check_jacobi(mutant)
    assert violations
    assert jacobi_residuals_exhaustive(mutant)
    assert (0, 1, 2, 1, 3) in violations


def increasing_oracle(alg):
    """The exhaustive oracle restricted to strictly increasing inner and outer parts."""
    k = alg.arity
    return [
        t
        for t in jacobi_residuals_exhaustive(alg)
        if all(a < b for a, b in zip(t[: k - 1], t[1:k]))
        and all(a < b for a, b in zip(t[k : 2 * k - 2], t[k + 1 :]))
    ]


def test_jacobi_matches_exhaustive_oracle_randomized():
    # random bracket tables, mostly upper-triangular: some satisfy the
    # identity, most do not; check_jacobi must report exactly
    # the oracle's violations, in the oracle's order
    rng = random.Random(20261018)
    broken = 0
    for _ in range(40):
        n, k = rng.choice([(5, 2), (6, 2), (5, 3), (6, 3)])
        brackets = {}
        for K in rng.sample(list(combinations(range(n), k)), rng.randint(1, 4)):
            pool = range(K[-1] + 1, n) if rng.random() < 0.8 else range(n)
            if pool:
                outs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
                brackets[K] = {w: rng.choice([-2, -1, 1, 3]) for w in outs}
        alg = KaryAlgebra(k, n, [f"e{i}" for i in range(n)], brackets)
        expected = increasing_oracle(alg)
        assert check_jacobi(alg) == expected, brackets
        broken += bool(expected)
    assert 5 <= broken <= 35


def test_jacobi_finds_violations_whose_inner_tuple_is_not_a_key():
    # [e0,e1,e2] = e3 and [e3,e4,e5] = e6: the pair ((0,4,5), (1,2)) has
    # residual -[[e0,e1,e2],e4,e5] = -e6 although (0,4,5) brackets to zero
    alg = KaryAlgebra(
        3, 7, [f"e{i}" for i in range(7)], {(0, 1, 2): {3: 1}, (3, 4, 5): {6: 1}}
    )
    violations = check_jacobi(alg)
    assert violations == increasing_oracle(alg)
    assert (0, 4, 5, 1, 2) in violations
    assert any(v[:3] not in alg.brackets for v in violations)


def test_jacobi_free3small_6_fits_default_cap():
    assert check_jacobi(free_three_step_small(6)) == []


def test_jacobi_quirk_x3_valued_mutant_is_consistent():
    # adding [x1, x2, z] = x3 to heisenberg(3,1) yields one of the
    # genuine 4-dim ternary algebras, so no violation is reported
    mutant = mutate(heisenberg(3, 1), (0, 1, 3), {2: 1})
    assert check_jacobi(mutant) == []
    assert jacobi_residuals_exhaustive(mutant) == []


# -- series and center --------------------------------------------------------


def _dense(rows, n):
    return [[row.get(i, 0) for i in range(n)] for row in rows]


def _in_span(rows, vec):
    dense = _dense(rows, len(vec))
    return dense_rank(dense + [vec]) == dense_rank(dense)


def test_lower_central_series_dims():
    assert [len(s) for s in lower_central_series(heisenberg(3, 1))] == [4, 1, 0]
    assert [len(s) for s in lower_central_series(free_three_step_small(3))] == [7, 4, 3, 0]
    assert [len(s) for s in lower_central_series(abelian(2, 5))] == [5, 0]
    assert not lower_central_series(acj(3, 2))[-1]  # nilpotent


def test_series_strictly_decreasing_until_zero():
    for alg in (heisenberg(4, 2), acj(2, 3), free_two_step(2, 4), free_three_step_small(4)):
        dims = [len(s) for s in lower_central_series(alg)]
        assert all(a > b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == 0


def test_center_dims():
    assert len(center(heisenberg(3, 2))) == 1
    assert len(center(acj(3, 2))) == 2
    assert len(center(free_two_step(3, 4))) == 4  # C(4,3)
    assert len(center(abelian(2, 3))) == 3


def test_center_contains_expected_vectors():
    a = acj(3, 2)
    z = center(a)
    for i in (5, 6):  # x3_1, x3_2
        vec = [0] * a.dim
        vec[i] = 1
        assert _in_span(z, vec)


def test_two_step_families_commutator_inside_center():
    from karyhom.families import current_algebra

    for alg in (
        heisenberg(3, 2),
        acj(2, 2),
        free_two_step(3, 4),
        current_algebra(heisenberg(2, 2), 2),
    ):
        series = lower_central_series(alg)
        assert len(series) == 3  # [g, C2, 0]
        z = _dense(center(alg), alg.dim)
        assert dense_rank(z + _dense(series[1], alg.dim)) == dense_rank(z)


def test_center_need_not_be_a_coordinate_subspace():
    # Lie brackets [x1, y] = z and [x2, y] = z: the center is span{z, x1 - x2}
    alg = KaryAlgebra(2, 4, ["x1", "x2", "y", "z"], {(0, 2): {3: 1}, (1, 2): {3: 1}})
    z = center(alg)
    assert len(z) == 2
    assert _in_span(z, [1, -1, 0, 0])
    assert _in_span(z, [0, 0, 0, 5])
    assert not _in_span(z, [1, 0, 0, 0])
    assert not _in_span(z, [0, 0, 1, 0])
    assert _same_span(z, [[1, -1, 0, 0], [0, 0, 0, 1]], alg.dim)


# -- JSON interchange --------------------------------------------------------


def test_json_round_trip(tmp_path):
    for alg in (heisenberg(3, 2), free_two_step(2, 3)):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(algebra_to_json_dict(alg)))
        back = load_algebra(path)
        assert (back.arity, back.dim, back.brackets) == (alg.arity, alg.dim, alg.brackets)
        assert back.labels == alg.labels
        assert back.weights == alg.weights


def test_json_rational_coefficients_are_cleared():
    doc = {
        "arity": 2,
        "dim": 3,
        "labels": ["a", "b", "c"],
        "brackets": [{"args": [0, 1], "value": [["1/2", 2]]}],
    }
    alg = algebra_from_json_dict(doc)
    assert alg.brackets == {(0, 1): {2: 1}}

    doc2 = {
        "arity": 2,
        "dim": 4,
        "labels": list("abcd"),
        "brackets": [
            {"args": [0, 1], "value": [["1/2", 2]]},
            {"args": [0, 2], "value": [["1/3", 3], [1, 2]]},
        ],
    }
    alg2 = algebra_from_json_dict(doc2)
    # one global scaling by lcm(2, 3) keeps the bracket map well defined
    assert alg2.brackets == {(0, 1): {2: 3}, (0, 2): {3: 2, 2: 6}}


def test_json_load_errors():
    base = {
        "arity": 2,
        "dim": 3,
        "labels": ["a", "b", "c"],
        "brackets": [{"args": [1, 0], "value": [[1, 2]]}],
    }
    with pytest.raises(LoadError):
        algebra_from_json_dict(base)
    with pytest.raises(LoadError):
        algebra_from_json_dict(
            {**base, "brackets": [{"args": [0, 1], "value": [[0.5, 2]]}]}
        )
    with pytest.raises(LoadError):
        load_algebra(io.StringIO("not json"))


def test_json_dict_is_serializable_and_stable():
    alg = free_two_step(3, 3)
    doc = algebra_to_json_dict(alg)
    text1 = json.dumps(doc, sort_keys=True)
    text2 = json.dumps(algebra_to_json_dict(free_two_step(3, 3)), sort_keys=True)
    assert text1 == text2


def test_jacobi_refuses_more_pairs_than_cap():
    # heisenberg(3, 2): the bound is (3 + 1) * 2 stored keys * 6 table rows
    alg = heisenberg(3, 2)
    with pytest.raises(ResourceCapError):
        check_jacobi(alg, cap=47)
    assert check_jacobi(alg, cap=48) == []


def test_refusal_prints_a_count_only_below_10_18():
    what = "space has {} monomials"
    refuse_over_cap(7, 7, what)
    for count, at_least, shown in (
        (8, False, "8"),
        (8, True, "at least 8"),
        (10**18 - 1, True, f"at least {10**18 - 1}"),
        (10**18, False, "over 10^18"),
        (10**18, True, "over 10^18"),
        (1 << 100_000, False, "over 10^18"),  # 30103 digits, past the str limit
    ):
        with pytest.raises(ResourceCapError) as info:
            refuse_over_cap(count, 7, what, at_least=at_least)
        assert str(info.value) == f"space has {shown} monomials (cap 7)"


# -- the adjoint table -------------------------------------------------------


def test_jacobi_matches_increasing_oracle_at_arity_4_and_5():
    # the sign (-1)^i of moving key entry i to the front reaches i = 3, 4
    # only at these arities; random tables mostly break the identity,
    # relabelled families keep it
    rng = random.Random(411)
    broken = 0
    for _ in range(40):
        k = rng.choice([4, 5])
        n = rng.randint(k + 1, 7)
        brackets = {}
        for K in rng.sample(list(combinations(range(n), k)), rng.randint(1, 4)):
            pool = range(K[-1] + 1, n) if rng.random() < 0.7 else range(n)
            if pool:
                outs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
                brackets[K] = {w: rng.choice([-3, -2, -1, 1, 2, 3]) for w in outs}
        alg = KaryAlgebra(k, n, [f"e{i}" for i in range(n)], brackets)
        expected = jacobi_residuals_increasing(alg)
        assert check_jacobi(alg) == expected, brackets
        broken += bool(expected)
    assert 5 <= broken <= 35
    for alg in (heisenberg(4, 1), acj(4, 1), heisenberg(5, 1), acj(5, 1)):
        for _ in range(3):
            perm = list(range(alg.dim))
            rng.shuffle(perm)
            other = relabelled(alg, perm)
            assert check_jacobi(other) == jacobi_residuals_increasing(other) == []


def test_jacobi_multiplies_through_product_per_adjoint_row(monkeypatch):
    import karyhom.algebra

    original = karyhom.algebra._product
    right = []

    def counting(a, b):
        right.append(b)
        return original(a, b)

    monkeypatch.setattr(karyhom.algebra, "_product", counting)
    alg = free_three_step_small(4)
    rows = list(karyhom.algebra._adjoint(alg).values())
    assert check_jacobi(alg) == []
    # one product over the stored keys and one per table row, for each row
    assert len(rows) == 10
    assert len(right) == len(rows) + len(rows) ** 2 == 110
    assert all(b in rows for b in right)


def _candidate_pairs_by_brackets(alg):
    """Increasing (I, O) with a possibly nonzero Jacobi term, by bracket calls.

    (I, O) qualifies when some [w, O] != 0 for an output w of [I], or when
    some [I_i, O] != 0 and ad_{I - I_i} != 0.
    """
    k, n = alg.arity, alg.dim
    ad_nonzero = {
        rest: any(bracket(alg, (x,) + rest) for x in range(n))
        for rest in combinations(range(n), k - 1)
    }
    return [
        (inner, outer)
        for inner in combinations(range(n), k)
        for outer in combinations(range(n), k - 1)
        if any(bracket(alg, (w,) + outer) for w in bracket(alg, inner))
        or any(
            bracket(alg, (x,) + outer) and ad_nonzero[inner[:i] + inner[i + 1 :]]
            for i, x in enumerate(inner)
        )
    ]


@pytest.mark.parametrize(
    "alg, args, vec",
    [
        (free_three_step_small(4), (0, 1, 2, 5), {3: 1}),
        (heisenberg(3, 2), (0, 2, 5), {1: 1}),
        (current_algebra(heisenberg(3, 1), 2), (0, 3, 4), {1: 1}),
        (free_two_step(2, 4), (0, 4), {1: 1}),
    ],
    ids=["free3small4", "heisenberg32", "current_heisenberg31_2", "free2_2_4"],
)
def test_jacobi_finds_exactly_the_oracle_violations_among_candidates(alg, args, vec):
    # one bracket entry on a new key breaks each algebra
    assert args not in alg.brackets
    broken = mutate(alg, args, vec)
    expected = jacobi_residuals_increasing(broken)
    assert expected
    assert check_jacobi(broken) == expected
    k = alg.arity
    candidates = set(_candidate_pairs_by_brackets(broken))
    assert all((t[:k], t[k:]) in candidates for t in expected)


def test_structural_checkers_read_only_the_table(monkeypatch):
    import karyhom.algebra

    def refuse(*args):
        raise AssertionError("per-call bracket evaluation")

    monkeypatch.setattr(karyhom.algebra, "sort_with_sign", refuse)
    alg = free_three_step_small(4)
    assert check_jacobi(alg) == []
    assert [len(s) for s in lower_central_series(alg)] == [9, 5, 4, 0]
    assert len(center(alg)) == 4


def _random_two_step(rng):
    """Keys inside the first a elements, values in the last b: 2-step nilpotent."""
    k = rng.choice([2, 3])
    a, b = rng.randint(k, 5), rng.randint(1, 3)
    keys = rng.sample(list(combinations(range(a), k)), rng.randint(1, comb(a, k)))
    brackets = {}
    for K in keys:
        outs = rng.sample(range(a, a + b), rng.randint(1, b))
        brackets[K] = {w: rng.choice([-3, -2, -1, 1, 2, 3]) for w in outs}
    return KaryAlgebra(k, a + b, [f"e{i}" for i in range(a + b)], brackets)


def _same_span(sparse_rows, rows, n):
    """Whether independent sparse rows span the same space as the dense rows."""
    dense = _dense(sparse_rows, n)
    assert len(dense) == dense_rank(dense), "returned rows are dependent"
    return len(dense) == dense_rank(rows) == dense_rank(dense + list(rows))


def test_center_and_series_match_bracket_oracle():
    from karyhom.families import current_algebra

    rng = random.Random(1985)
    algebras = [
        free_three_step_small(3),
        free_three_step_small(4),
        free_three_step_small(5),
        acj(3, 2),
        current_algebra(heisenberg(4, 1), 2),
        free_two_step(2, 6),
        current_algebra(acj(2, 2), 2),
    ] + [_random_two_step(rng) for _ in range(12)]
    for alg in algebras:
        assert _same_span(center(alg), center_by_brackets(alg), alg.dim), alg.brackets
        series = lower_central_series(alg)
        expected = lower_central_series_by_brackets(alg)
        assert len(series) == len(expected)
        for term, rows in zip(series, expected):
            assert _same_span(term, rows, alg.dim), alg.brackets


def test_json_refuses_repeated_output_index():
    base = {"arity": 2, "dim": 3, "labels": ["a", "b", "c"]}
    for value in ([[1, 2], [1, 2]], [[1, 1], [1, True]]):
        with pytest.raises(LoadError, match="repeats output index"):
            algebra_from_json_dict({**base, "brackets": [{"args": [0, 1], "value": value}]})
    with pytest.raises(LoadError):  # a lone true still reaches the constructor
        algebra_from_json_dict({**base, "brackets": [{"args": [0, 1], "value": [[1, True]]}]})
