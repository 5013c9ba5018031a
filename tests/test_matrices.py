import io
import random
from math import gcd

import pytest

from conftest import (
    PRIMES,
    dense_rank,
    kernel_by_fraction_elimination,
    read_matrix_market,
    to_dense,
)
from karyhom.chains import ChainLayout, _boundary_rows, differential_matrix
from karyhom.errors import LoadError
from karyhom.families import acj, free_three_step_small, free_two_step, heisenberg
from karyhom.matrices import (
    SparseIntMatrix,
    _eliminate,
    kernel_basis,
    rank,
    rank_mod_p,
    row_basis,
    write_matrix_market,
)


def from_dense(rows):
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                entries[(r, c)] = v
    return SparseIntMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def test_identity_and_zero():
    eye = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(eye) == 3
    assert eye.cols - rank(eye) == 0
    zero = SparseIntMatrix(4, 5, {})
    assert rank(zero) == 0
    assert zero.cols - rank(zero) == 5


def test_rank_against_dense_oracle_randomized():
    rng = random.Random(20240817)
    for trial in range(40):
        rows = rng.randrange(1, 10)
        cols = rng.randrange(1, 10)
        dense = [
            [rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        m = from_dense(dense)
        expected = dense_rank(dense)
        assert rank(m) == expected, (trial, dense)
        assert expected <= min(rows, cols)
        transpose = SparseIntMatrix(cols, rows, {(c, r): v for (r, c), v in m.entries.items()})
        assert rank(transpose) == expected
        for p in PRIMES:
            assert rank_mod_p(m.row_dicts(), p) == expected


def _dense_rank_mod_p(dense, p):
    """Rank over GF(p) by Gauss-Jordan elimination of the reduced rows."""
    rows = [[v % p for v in row] for row in dense]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_mod_p_at_small_primes():
    # at the large PRIMES no small entry is a multiple of p; here entries
    # vanish mod p, pivots other than 1 need scaling, and the rank drops
    assert rank_mod_p({0: {0: 3}}, 3) == 0
    assert rank_mod_p({0: {0: 2, 1: 6}, 1: {1: 5}}, 2) == 1
    assert rank_mod_p({0: {0: 1, 1: 1}, 1: {0: 1, 1: -1}}, 2) == 1
    assert rank_mod_p({0: {0: 2, 1: 1}, 1: {0: 1, 1: 2}}, 5) == 2
    rng = random.Random(20261021)
    drops = 0
    for trial in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        dense = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        for p in (2, 3, 5, 7):
            expected = _dense_rank_mod_p(dense, p)
            drops += expected < dense_rank(dense)
            assert rank_mod_p(from_dense(dense).row_dicts(), p) == expected, (trial, p)
    assert drops >= 20


def _with_dependent_rows(rng, dense):
    """dense plus repeated, scaled and summed copies of its rows."""
    dense = [list(row) for row in dense]
    for _ in range(rng.randrange(4)):
        a, b = rng.randrange(len(dense)), rng.randrange(len(dense))
        kind = rng.randrange(3)
        if kind == 0:
            new = list(dense[a])
        elif kind == 1:
            new = [rng.choice((-3, 2, 5)) * x for x in dense[a]]
        else:
            new = [x + y for x, y in zip(dense[a], dense[b])]
        dense.insert(rng.randrange(len(dense) + 1), new)
    return dense


def _assert_kernel_vectors(rows, kernel):
    """Each vector is primitive with int entries and solves every row,
    and the least columns are distinct and increasing, which also makes
    the vectors independent."""
    for v in kernel:
        assert all(type(x) is int for x in v.values())
        assert gcd(*v.values()) == 1
        for row in rows.values():
            assert sum(row[c] * x for c, x in v.items() if c in row) == 0
    least = [min(v) for v in kernel]
    assert least == sorted(set(least))


def _assert_bases(m, dense):
    expected = dense_rank(dense)
    as_dense = lambda vecs: [[v.get(c, 0) for c in range(m.cols)] for v in vecs]

    rows = m.row_dicts()
    kernel = kernel_basis(rows, m.cols)
    assert rows == m.row_dicts()
    oracle = kernel_by_fraction_elimination(m)
    assert len(kernel) == len(oracle) == m.cols - expected
    assert dense_rank(as_dense(kernel + oracle)) == len(oracle)  # the same span
    _assert_kernel_vectors(rows, kernel)
    assert dense_rank(as_dense(kernel)) == len(kernel)

    basis = row_basis(m.row_dicts())
    assert len(basis) == expected
    assert dense_rank(as_dense(basis)) == expected
    assert dense_rank(dense + as_dense(basis)) == expected


def test_kernel_and_row_basis_against_dense_oracle_randomized():
    rng = random.Random(20261018)
    for _ in range(300):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 9)
        dense = [
            [rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        dense = _with_dependent_rows(rng, dense)
        _assert_bases(from_dense(dense), dense)


def test_kernel_and_row_basis_edge_shapes():
    no_rows = SparseIntMatrix(0, 4, {})
    _assert_bases(no_rows, [])
    assert sorted(sorted(v.items()) for v in kernel_basis({}, 4)) == [
        [(c, 1)] for c in range(4)
    ]
    full = [[2, 1, 0], [0, 3, 1], [1, 0, 1]]  # determinant 7
    _assert_bases(from_dense(full), full)
    assert kernel_basis(from_dense(full).row_dicts(), 3) == []
    wide = [[1, 2, 0, 4], [0, 0, 3, 6]]
    _assert_bases(from_dense(wide), wide)


def test_kernel_of_whole_indexed_boundaries():
    for alg in (heisenberg(2, 5), acj(3, 3), free_two_step(2, 4)):
        layout = ChainLayout.of(alg)
        for t in range(alg.arity, alg.dim + 1):
            m = differential_matrix(alg, t)
            rows = m.row_dicts()
            kernel = kernel_basis(rows, m.cols)
            assert rows == m.row_dicts()
            assert len(kernel) == m.cols - layout.boundary_rank(t), (alg, t)
            _assert_kernel_vectors(rows, kernel)


def test_rank_invariances_randomized():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randrange(2, 8), rng.randrange(2, 8)
        dense = [
            [rng.choice((0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)
        ]
        m = from_dense(dense)
        r = rank(m)
        perm_r = list(range(rows))
        perm_c = list(range(cols))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)
        shuffled = {
            (perm_r[i], perm_c[j]): (v if rng.random() < 0.5 else -v)
            for (i, j), v in m.entries.items()
        }
        # row/column permutation and row sign flips preserve rank
        flipped = {}
        sign_of_row = {i: rng.choice((1, -1)) for i in range(rows)}
        for (i, j), v in m.entries.items():
            flipped[(perm_r[i], perm_c[j])] = sign_of_row[i] * v
        assert rank(SparseIntMatrix(rows, cols, flipped)) == r


def _dependent_sparse(rng):
    """A sparse matrix whose rows repeat, negate, scale and add base rows.

    Elimination on it fills in (sums of rows) and cancels (dependent
    rows vanish), and every entry shares a random common factor.
    """
    rows, cols = rng.randrange(20, 61), rng.randrange(15, 41)
    density = rng.uniform(0.05, 0.15)
    dense = [
        [rng.choice((1, -1, 1, -1, 2, -2, 3, 6)) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rng.randrange(rows // 3, rows // 2 + 1))
    ]
    while len(dense) < rows:
        a, b = rng.choice(dense), rng.choice(dense)
        kind = rng.randrange(3)
        if kind == 0:
            dense.append([-v for v in a])
        elif kind == 1:
            dense.append([rng.choice((2, 3, 6)) * v for v in a])
        else:
            dense.append([x - y for x, y in zip(a, b)])
    rng.shuffle(dense)
    factor = rng.choice((1, 1, 2, 6))
    return [[factor * v for v in row] for row in dense]


def test_rank_oracle_at_realistic_sizes():
    rng = random.Random(20261018)
    deficient = 0
    for trial in range(60):
        dense = _dependent_sparse(rng)
        m = from_dense(dense)
        expected = dense_rank(dense)
        deficient += expected < min(m.rows, m.cols)
        assert rank(m) == expected, trial
        for p in PRIMES:
            assert rank_mod_p(m.row_dicts(), p) == expected, (trial, p)
    assert deficient >= 50
    # whole mask-keyed boundaries, which rank_mod_p must leave unchanged
    # (heisenberg(3,5) d_7 is the 1350 that bench/README.md quotes)
    for alg, t, expected in (
        (heisenberg(2, 8), 8, 8008),
        (acj(2, 8), 8, 7520),
        (heisenberg(3, 5), 7, 1350),
        (free_two_step(2, 5), 7, 2115),
    ):
        assert ChainLayout.of(alg).boundary_rank(t) == expected
        rows = _boundary_rows(alg, t)
        before = {r: dict(row) for r, row in rows.items()}
        for p in PRIMES:
            assert rank_mod_p(rows, p) == expected, (alg, t, p)
        assert rows == before


def _assert_echelon(m):
    """_eliminate's contract: distinct pivot columns, each pivot row of
    content 1, nonzero at its own pivot, which is the row's least column."""
    seen = []
    for pc, row in _eliminate(m.row_dicts()):
        assert pc not in seen
        assert row[pc]
        assert pc == min(row)
        assert gcd(*row.values()) == 1
        seen.append(pc)
    return len(seen)


def test_eliminate_pivot_rows_form_an_echelon():
    for alg in (heisenberg(2, 4), acj(3, 2), free_two_step(2, 4)):
        for t in ChainLayout.of(alg).degrees:
            if t >= alg.arity:
                _assert_echelon(differential_matrix(alg, t))
    rng = random.Random(20261018)
    for _ in range(30):
        dense = _dependent_sparse(rng)
        assert _assert_echelon(from_dense(dense)) == dense_rank(dense)


def _reinserted(rows, rng):
    """A copy of {row: {col: int}} rows with the rows, and the entries of
    each row, inserted in a random order."""
    keys = list(rows)
    rng.shuffle(keys)
    out = {}
    for r in keys:
        entries = list(rows[r].items())
        rng.shuffle(entries)
        out[r] = dict(entries)
    return out


def test_eliminate_does_not_depend_on_insertion_order():
    rng = random.Random(20261019)
    cases = [
        _boundary_rows(alg, t)
        for alg in (heisenberg(2, 4), acj(3, 2), free_two_step(2, 4))
        for t in ChainLayout.of(alg).degrees
        if t >= alg.arity
    ]
    cases += [from_dense(_dependent_sparse(rng)).row_dicts() for _ in range(30)]
    for rows in cases:
        expected = list(_eliminate({r: dict(row) for r, row in rows.items()}))
        for _ in range(4):
            assert list(_eliminate(_reinserted(rows, rng))) == expected


def test_eliminate_pivot_columns_do_not_depend_on_row_keys():
    # the pivot columns are the least columns of the row space; relabelling
    # the row keys, reversed order included, changes only the tie order
    rng = random.Random(20261020)
    cases = [
        _boundary_rows(alg, t)
        for alg in (heisenberg(2, 4), acj(3, 2), free_two_step(2, 4), free_three_step_small(4))
        for t in ChainLayout.of(alg).degrees
        if t >= alg.arity
    ]
    cases += [from_dense(_dependent_sparse(rng)).row_dicts() for _ in range(30)]
    other_rows = 0  # relabellings that pick different pivot rows
    for rows in cases:
        keys = sorted(rows)
        expected = dict(_eliminate({r: dict(row) for r, row in rows.items()}))
        relabellings = [keys[::-1]] + [rng.sample(keys, len(keys)) for _ in range(3)]
        for new_keys in relabellings:
            pivots = dict(_eliminate({new: dict(rows[old]) for old, new in zip(keys, new_keys)}))
            assert pivots.keys() == expected.keys()
            other_rows += pivots != expected
    assert other_rows > len(cases)


def test_boundary_ranks_heisenberg_3_2():
    h = heisenberg(3, 2)
    m3 = differential_matrix(h, 3)
    m5 = differential_matrix(h, 5)
    assert (m3.rows, m3.cols) == (7, 35)
    assert rank(m3) == 1
    # the image of d_5 is spanned by z ^ (pair from the complementary
    # block), six monomials in all
    assert rank(m5) == 6
    assert rank(m5) == dense_rank(to_dense(m5))
    m = differential_matrix(heisenberg(3, 1), 3)
    assert m.cols - rank(m) == 3


def test_matrix_market_round_trip():
    m = from_dense([[0, 2, 0], [-7, 0, 1]])
    buf = io.StringIO()
    write_matrix_market(m, buf)
    text = buf.getvalue()
    assert text.startswith("%%MatrixMarket matrix coordinate integer general")
    back = read_matrix_market(io.StringIO(text))
    assert back == m
    with pytest.raises(LoadError):
        read_matrix_market(io.StringIO("%%MatrixMarket matrix array real\n1 1\n1\n"))


@pytest.mark.parametrize(
    "text",
    [
        "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 5\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 x 5\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n1 1 -5\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 5\n2 2 3\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 -1\n",
    ],
    ids=[
        "symmetric", "missing-entry", "short-size-line", "bad-index", "repeated-entry",
        "extra-entry", "negative-entry-count",
    ],
)
def test_matrix_market_rejects_malformed(text):
    with pytest.raises(LoadError):
        read_matrix_market(io.StringIO(text))

