import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from karyhom.errors import ConsistencyError, InputError
from karyhom.families import free_two_step, heisenberg
from karyhom.algebra import KaryAlgebra, algebra_to_json_dict, load_algebra
from karyhom.chains import ChainLayout
from karyhom.homology import betti, betti_all
from karyhom.schur import (
    character_by_weights,
    conjugate_partition,
    decompose_character,
    decomposition_dimension,
    lower_bound_betti,
    normalize_partition,
    schur_dim,
    second_homology_bound,
    second_homology_summands,
    stability_check,
)
from conftest import (
    characters_by_blocks,
    graded_filiform3,
    schur_weights_by_tableaux,
    sorted_with_sign,
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
            counts = schur_weights_by_tableaux(lam, n)
            assert sum(counts.values()) == schur_dim(lam, n)


def test_partition_validation():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    with pytest.raises(InputError):
        schur_dim((1, 2), 3)
    # parts are never truncated: 1.5 is not 1, and '2', 1.9, True are not
    # (2, 1, 1); (2.0, 1) compares equal to (2, 1) and must still be refused
    for bad in [(1.5,), ("2", 1.9, True), ("2",), (2, 1.9), (2, 1, True), (0.0, 1), (2.0, 1)]:
        with pytest.raises(InputError):
            schur_dim(bad, 3)
        with pytest.raises(InputError):
            normalize_partition(bad)
    # n is an int proper: schur_dim((2, 1), 3.0) must not give 8.0
    for n in (3.0, True):
        with pytest.raises(InputError):
            schur_dim((2, 1), n)
    assert schur_dim((2, 1), -1) == 0


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


FREE2 = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]


def test_character_total_equals_betti():
    for k, n in FREE2:
        alg = free_two_step(k, n)
        for t in ChainLayout(alg).degrees:
            table = character_by_weights(alg, t)
            assert sum(table.values()) == betti(alg, t), (k, n, t)


def _with_weights(alg, weights):
    """alg with the weights {index: vector}, which must keep the brackets
    weight-additive."""
    return KaryAlgebra(alg.arity, alg.dim, alg.labels, alg.brackets, weights)


def _relabelled_document(alg, rng):
    """alg's --input document in a shuffled basis: basis index i becomes
    perm[i], each key re-sorted with the sign of the sort, weights moved
    along with their basis elements."""
    doc = algebra_to_json_dict(alg)
    perm = list(range(alg.dim))
    rng.shuffle(perm)
    brackets = []
    for item in doc["brackets"]:
        args, sign = sorted_with_sign(perm[a] for a in item["args"])
        value = sorted([sign * c, perm[i]] for c, i in item["value"])
        brackets.append({"args": list(args), "value": value})
    weights = [None] * alg.dim
    for i, w in enumerate(doc["weights"]):
        weights[perm[i]] = w
    return {**doc, "brackets": sorted(brackets, key=lambda b: b["args"]), "weights": weights}


def test_character_matches_the_block_oracle_at_every_degree(tmp_path):
    # the layout's records of whole boundaries, upper degrees reflected
    # from lower ones, against ranks of weight blocks cut from
    # differential_matrix, weight by weight
    f24, f34, heis = free_two_step(2, 4), free_two_step(3, 4), heisenberg(3, 2)
    # Z^4 -> Z^2 by a matrix with negative entries: a coarser grading
    negative = _with_weights(f24, {
        i: (w[0] - w[1] + 2 * w[2], w[1] - w[2] - 2 * w[3]) for i, w in f24.weights.items()
    })
    assert any(x < 0 for w in negative.weights.values() for x in w)
    # weight rank 1: heisenberg(3, 2) graded by degree
    centre = {w for vec in heis.brackets.values() for w in vec}
    by_degree = _with_weights(heis, {i: (3,) if i in centre else (1,) for i in range(heis.dim)})
    path = tmp_path / "free2-3-4.json"
    path.write_text(json.dumps(_relabelled_document(f34, random.Random(7))))
    relabelled = load_algebra(path)
    assert relabelled.weights != f34.weights
    algebras = [free_two_step(k, n) for k, n in FREE2]
    # free2(2, 6) has dim 21: its masks reach the codec's third byte table
    f26 = free_two_step(2, 6)
    # [x, y] = y: tr ad(x) = 1, so no degree is read through the mirror
    trace = KaryAlgebra(2, 2, "xy", {(0, 1): {1: 1}}, {0: (0,), 1: (1,)})
    assert ChainLayout(trace).top is None
    for alg in algebras + [graded_filiform3(), negative, by_degree, relabelled, f26, trace]:
        degrees = [t for t in ChainLayout(alg).degrees if alg is not f26 or t <= 3]
        oracle = characters_by_blocks(alg, degrees)
        for t in degrees:
            assert character_by_weights(alg, t) == oracle[t], (alg, t)
    # a relabelled basis moves weights with their basis elements
    for t in ChainLayout(f34).degrees:
        assert character_by_weights(relabelled, t) == character_by_weights(f34, t), t


def test_an_extra_pivot_in_a_record_is_a_negative_multiplicity():
    # one pivot more at a weight whose multiplicity is 0 drives it to -1
    alg = free_two_step(2, 3)
    layout = ChainLayout.of(alg)
    table = character_by_weights(alg, 2)
    record = layout.pivots(2)
    spare = [w for w in record if layout.unpack(w) not in table]
    assert spare
    record[spare[0]] += 1
    message = f"negative multiplicity -1 at weight {layout.unpack(spare[0])}"
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        character_by_weights(alg, 2)


def test_ranks_and_characters_share_one_elimination_per_boundary(monkeypatch):
    # betti_all eliminates each boundary degree from k to top/2 once, and
    # the mirrors give the rest; characters at every layout degree then
    # read the same records, and a second pass eliminates nothing
    import karyhom.matrices

    eliminate = karyhom.matrices._eliminate
    calls = []

    def counting_eliminate(rows):
        calls.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(karyhom.matrices, "_eliminate", counting_eliminate)
    for alg, boundaries in ((free_two_step(2, 4), 4), (free_two_step(3, 5), 6)):
        layout = ChainLayout.of(alg)
        assert boundaries == layout.top // 2 - alg.arity + 1
        calls.clear()
        for _ in range(2):
            report = betti_all(alg)
            for t in layout.degrees:
                assert sum(character_by_weights(alg, t).values()) == report.betti[t], (alg, t)
            assert len(calls) == boundaries, alg


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


def _expand(decomposition, n):
    """The weight table of a decomposition, through the tableau oracle."""
    table = Counter()
    for lam, mult in decomposition:
        for w, c in schur_weights_by_tableaux(lam, n).items():
            table[w] += mult * c
    return {w: m for w, m in table.items() if m}


def test_decompose_round_trip():
    for k, n, t in ((3, 4, 3), (2, 3, 2), (2, 4, 3)):
        table = character_by_weights(free_two_step(k, n), t)
        dec = decompose_character(table, n)
        assert _expand(dec, n) == table
        assert decomposition_dimension(dec, n) == sum(table.values())


def test_straightening_reproduces_every_free2_character():
    # free2(k, n) for k = 2..4, n <= 5, and free2(2, 6), at every layout degree
    cases = [(k, n) for k in (2, 3, 4) for n in range(k, 6)] + [(2, 6)]
    for k, n in cases:
        alg = free_two_step(k, n)
        for t in ChainLayout(alg).degrees:
            table = character_by_weights(alg, t)
            dec = decompose_character(table, n)
            assert _expand(dec, n) == table, (k, n, t)
            assert decomposition_dimension(dec, n) == betti(alg, t), (k, n, t)


def _shapes(n, largest=6):
    """The partitions of at most n rows and size at most largest."""
    return [lam for size in range(largest + 1) for lam in _partitions(size) if len(lam) <= n]


def test_random_sums_of_schur_characters_decompose_to_their_summands():
    rng = random.Random(34)
    for _ in range(80):
        n = rng.randint(0, 5)
        shapes = _shapes(n)
        chosen = rng.sample(shapes, min(len(shapes), rng.randint(1, 4)))
        summands = sorted(((lam, rng.randint(0, 3)) for lam in chosen), reverse=True)
        expected = [(lam, m) for lam, m in summands if m]
        assert decompose_character(_expand(summands, n), n) == expected, (n, summands)


def test_perturbed_schur_tables_are_refused():
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randint(2, 5)
        summands = [((1,), rng.randint(1, 3)), (rng.choice(_shapes(n)[1:]), rng.randint(1, 3))]
        table = _expand(summands, n)
        assert decompose_character(table, n)
        w = rng.choice([u for u in table if list(u) != sorted(u, reverse=True)])
        dropped = {u: m for u, m in table.items() if u != w}
        changed = {**table, w: table[w] + rng.choice((-1, 1))}
        negative = {tuple(x - 1 for x in u): m for u, m in table.items()}  # times det^-1
        for bad in (dropped, changed, negative):
            with pytest.raises(ConsistencyError):
                decompose_character(bad, n)


def test_each_refusal_catches_a_table_the_others_pass():
    # (0, 1) carries more than its sorted form (1, 0), though the orbit is whole
    with pytest.raises(ConsistencyError, match="sorted form"):
        decompose_character({(1, 0): 1, (0, 1): 2}, 2)
    # the orbit of (1, 0) lacks (0, 1); straightening alone would read S_(1)
    with pytest.raises(ConsistencyError, match="orbit"):
        decompose_character({(1, 0): 1}, 2)
    # x^2 + y^2 is symmetric but is s_(2) - s_(1,1)
    with pytest.raises(ConsistencyError, match=re.escape("(1, 1) has multiplicity -1")):
        decompose_character({(2, 0): 1, (0, 2): 1}, 2)
    with pytest.raises(ConsistencyError, match="negative coordinate"):
        decompose_character({(-1, 0): 1, (0, -1): 1}, 2)


def test_decompose_n_is_an_int_proper():
    # len(w) == 3.0 and len(w) == True hold, so only the type check refuses these
    for table, n in (({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 3.0), ({(1,): 1}, True)):
        with pytest.raises(InputError):
            decompose_character(table, n)


def test_decompose_with_no_coordinates():
    assert decompose_character({(): 2}, 0) == [((), 2)]
    assert decompose_character({}, 0) == []


def test_decompose_rejects_asymmetric_table():
    with pytest.raises(ConsistencyError):
        decompose_character({(2, 0): 1}, 2)
    with pytest.raises(ConsistencyError):
        decompose_character({(1, 0): 2, (0, 1): 1}, 2)
    with pytest.raises(ConsistencyError):  # an orbit without its sorted form
        decompose_character({(0, 1): 1}, 2)
    with pytest.raises(ConsistencyError):  # a negative multiplicity, half an orbit
        decompose_character({(1, 0): -1}, 2)
    with pytest.raises(InputError):  # a weight outside Z^2
        decompose_character({(1,): 1}, 2)


def test_decompose_refuses_non_integer_multiplicities():
    # truncating 1.5 to 1 would read S_(1) and hide the bad input
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
    with pytest.raises(InputError):  # n < k
        second_homology_bound(2, 3)


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
    with pytest.raises(InputError):
        stability_check(2, 1, [])
