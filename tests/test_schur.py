from fractions import Fraction
from math import comb

import pytest

from karyhom.errors import ConsistencyError, InputError
from karyhom.families import free_two_step, heisenberg
from karyhom.algebra import KaryAlgebra
from karyhom.homology import betti
from karyhom.schur import (
    character_by_weights,
    conjugate_partition,
    decompose_character,
    decomposition_dimension,
    expand_decomposition,
    lower_bound_betti,
    normalize_partition,
    schur_dim,
    schur_weight_multiplicities,
    second_homology_bound,
    second_homology_summands,
    stability_check,
)


# -- dimensions ---------------------------------------------------------


def test_schur_dim_reference_values():
    assert schur_dim((2, 2, 1), 3) == 3
    assert schur_dim((2, 1, 1, 1), 4) == 4
    assert schur_dim((3, 2, 1, 1), 4) == 20
    assert schur_dim((2, 1), 3) == 8
    assert schur_dim((), 5) == 1


def test_schur_dim_exterior_powers():
    for n in range(1, 7):
        for k in range(0, n + 1):
            assert schur_dim((1,) * k, n) == comb(n, k)


def _partitions(size, largest=None):
    if size == 0:
        yield ()
        return
    for first in range(min(size, largest or size), 0, -1):
        for rest in _partitions(size - first, first):
            yield (first,) + rest


def _schur_dim_fraction(lam, n):
    """The hook content formula as a product of Fractions."""
    if len(lam) > n:
        return 0
    conj = conjugate_partition(lam)
    value = Fraction(1)
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            value *= Fraction(n + c - r, (row_len - c) + (conj[c] - r) - 1)
    assert value.denominator == 1
    return int(value)


def test_schur_dim_matches_fraction_hook_content_product():
    lams = [lam for size in range(9) for lam in _partitions(size)]
    assert len(lams) == 1 + 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22
    for lam in lams:
        for n in range(9):
            assert schur_dim(lam, n) == _schur_dim_fraction(lam, n), (lam, n)


def test_schur_dim_vanishes_beyond_row_count():
    assert schur_dim((2, 2, 1), 2) == 0
    assert schur_dim((1, 1, 1, 1), 3) == 0
    assert schur_dim((3, 1), 1) == 0


def test_schur_dim_zero_iff_too_many_rows():
    for lam in ((2, 1), (3, 3, 1), (2, 2, 1, 1), (4,)):
        for n in range(1, 7):
            if len(lam) > n:
                assert schur_dim(lam, n) == 0
            else:
                assert schur_dim(lam, n) > 0


def test_schur_dim_matches_tableau_count():
    for lam in ((2, 1), (2, 2, 1), (3, 2, 1, 1), (2, 1, 1, 1)):
        for n in (3, 4, 5):
            counts = schur_weight_multiplicities(lam, n)
            assert sum(counts.values()) == schur_dim(lam, n)


def test_partition_validation():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    with pytest.raises(InputError):
        schur_dim((1, 2), 3)
    # parts are never truncated: 1.5 is not 1, and '2', 1.9, True are not (2, 1, 1)
    for bad in [(1.5,), ("2", 1.9, True), ("2",), (2, 1.9), (2, 1, True), (0.0, 1)]:
        with pytest.raises(InputError):
            schur_dim(bad, 3)
        with pytest.raises(InputError):
            normalize_partition(bad)


# -- characters ----------------------------------------------------------


def graded_abelian(n):
    weights = {i: tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    return KaryAlgebra(2, n, [f"v{i}" for i in range(n)], {}, weights)


def test_character_of_exterior_square():
    table = character_by_weights(graded_abelian(3), 2)
    assert table == {
        (1, 1, 0): 1,
        (1, 0, 1): 1,
        (0, 1, 1): 1,
    }
    assert decompose_character(table, 3) == [((1, 1), 1)]


def test_character_free2_totals():
    assert sum(character_by_weights(free_two_step(3, 3), 3).values()) == 3
    assert sum(character_by_weights(free_two_step(3, 4), 3).values()) == 44


def test_character_total_equals_betti():
    for k, n, t in ((3, 4, 3), (2, 3, 2), (2, 3, 3), (3, 4, 5)):
        alg = free_two_step(k, n)
        table = character_by_weights(alg, t)
        assert sum(table.values()) == betti(alg, t)


def test_character_requires_grading():
    with pytest.raises(InputError):
        character_by_weights(heisenberg(2, 2), 2)


def test_character_degree_validation():
    f = free_two_step(3, 3)
    with pytest.raises(InputError):
        character_by_weights(f, 2)


def test_character_at_degree_zero_is_trivial():
    # 0 is a layout degree: H^0 is the trivial module
    table = character_by_weights(free_two_step(2, 3), 0)
    assert table == {(0, 0, 0): 1}
    assert decompose_character(table, 3) == [((), 1)]


# -- decomposition ----------------------------------------------------------


def test_decompose_h3_free2():
    f3 = free_two_step(3, 3)
    assert decompose_character(character_by_weights(f3, 3), 3) == [((2, 2, 1), 1)]
    f4 = free_two_step(3, 4)
    dec = decompose_character(character_by_weights(f4, 3), 4)
    assert sorted(dec) == [((2, 1, 1, 1), 1), ((2, 2, 1), 1), ((3, 2, 1, 1), 1)]
    assert decomposition_dimension(dec, 4) == 44


def test_decompose_round_trip():
    for k, n, t in ((3, 4, 3), (2, 3, 2), (2, 4, 3)):
        table = character_by_weights(free_two_step(k, n), t)
        dec = decompose_character(table, n)
        assert expand_decomposition(dec, n) == table
        assert decomposition_dimension(dec, n) == sum(table.values())


def test_decompose_rejects_asymmetric_table():
    with pytest.raises(ConsistencyError):
        decompose_character({(2, 0): 1}, 2)
    with pytest.raises(ConsistencyError):
        decompose_character({(1, 0): 2, (0, 1): 1}, 2)


def test_decompose_refuses_non_integer_multiplicities():
    # truncating 1.5 to 1 would peel to S_(1) and hide the bad input
    with pytest.raises(InputError):
        decompose_character({(1, 0): 1.5, (0, 1): 1.5}, 2)


def test_first_homology_is_the_standard_module():
    for n in (2, 3, 4):
        table = character_by_weights(free_two_step(2, n), 1)
        assert decompose_character(table, n) == [((1,), 1)]


# -- bounds ------------------------------------------------------------------


def test_lower_bound_reference_values():
    assert lower_bound_betti(4, 3, 2) == 20
    assert lower_bound_betti(3, 3, 2) == 0
    assert lower_bound_betti(4, 2, 2) == 20


def test_lower_bound_validation():
    with pytest.raises(InputError):
        lower_bound_betti(4, 3, 1)
    with pytest.raises(InputError):
        lower_bound_betti(2, 3, 2)
    # an arity below 2 has no bound; the formula would give -1 at (5, 0, 2)
    for n, k in ((5, 0), (5, 1), (0, 0)):
        with pytest.raises(InputError):
            lower_bound_betti(n, k, 2)
        with pytest.raises(InputError):
            second_homology_bound(n, k)


def test_second_homology_bound_values():
    assert second_homology_bound(4, 3) == 24
    assert second_homology_bound(3, 3) == 3
    assert second_homology_bound(2, 2) == 2


def test_bounds_hold_against_direct_betti():
    for k, n in ((2, 3), (2, 4), (3, 3), (3, 4)):
        alg = free_two_step(k, n)
        assert betti(alg, k) >= second_homology_bound(n, k)
        i = 2
        t = i * (k - 1) + 1
        if t <= alg.dim:
            assert betti(alg, t) >= lower_bound_betti(n, k, i)


def test_pieri_dimension_identity():
    # x C(x, a) = C(x, a+1) + dim S_{(2,1^{a-1})}(C^x): the dimensions
    # of the tensor split of W (x) wedge^a W, dim W = x
    assert schur_dim((2,), 3) == 6  # 3*3 == 3 + 6
    assert schur_dim((2, 1), 4) == 20  # 4*6 == 4 + 20
    assert schur_dim((2, 1, 1, 1, 1), 5) == 5  # a == x: 5*1 == 0 + 5
    for x in (2, 3, 4, 5, 6):
        for a in range(1, x + 1):
            hook = schur_dim((2,) + (1,) * (a - 1), x)
            assert x * comb(x, a) == comb(x, a + 1) + hook, (x, a)


def test_second_homology_summands_contained():
    # proof-exponent summands S_{2^j 1^{2k-2j-1}} all occur in the
    # degree-k decomposition; the +1 exponent variant does not
    k, n = 3, 4
    dec = dict(decompose_character(character_by_weights(free_two_step(k, n), k), n))
    for lam in second_homology_summands(k):
        assert dec.get(lam, 0) >= 1, lam
    statement = [(2,) * j + (1,) * (2 * k - 2 * j + 1) for j in range(1, k)]
    assert (2, 1, 1, 1, 1, 1) in statement
    assert all(dec.get(lam, 0) == 0 for lam in statement if len(lam) > n)


# -- stability ---------------------------------------------------------------


def test_stability_k3_degree3():
    rec = stability_check(3, 3, [3, 4, 5])
    assert rec["per_n"][3] == [((2, 2, 1), 1)]
    assert sorted(rec["per_n"][4]) == [
        ((2, 1, 1, 1), 1),
        ((2, 2, 1), 1),
        ((3, 2, 1, 1), 1),
    ]
    assert rec["per_n"][5] == rec["per_n"][4]
    assert rec["stable_from"] == 4
    assert rec["stable"]


def test_stability_k2_degree2_self_conjugate():
    rec = stability_check(2, 2, [2, 3, 4])
    for n, dec in rec["per_n"].items():
        for lam, _ in dec:
            assert conjugate_partition(lam) == lam  # self-conjugate throughout
    assert rec["stable_from"] == 2


def test_stability_first_homology():
    rec = stability_check(2, 1, [2, 3, 4])
    assert all(dec == [((1,), 1)] for dec in rec["per_n"].values())
