import io
import random

import pytest

from conftest import dense_rank, kernel_by_fraction_back_substitution
from karyhom.chains import differential_matrix
from karyhom.errors import InputError, LoadError
from karyhom.families import heisenberg
from karyhom.matrices import (
    SparseIntMatrix,
    _eliminate,
    is_probable_prime,
    kernel_basis,
    kernel_dim,
    multiply,
    random_prime,
    rank,
    rank_mod_p,
    read_matrix_market,
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
    assert kernel_dim(eye) == 0
    zero = SparseIntMatrix(4, 5, {})
    assert rank(zero) == 0
    assert kernel_dim(zero) == 5


def test_entry_validation():
    with pytest.raises(InputError):
        SparseIntMatrix(2, 2, {(2, 0): 1})
    m = SparseIntMatrix(2, 2, {(0, 0): 0, (1, 1): 3})
    assert m.nnz == 1  # zeros are not stored


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
        assert rank(m.transpose()) == expected
        for p in (2**31 - 1, 2147483659, 2305843009213693951):
            assert rank_mod_p(m, p) == expected


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


def _assert_bases(m, dense):
    expected = dense_rank(dense)
    as_dense = lambda vecs: [[v.get(c, 0) for c in range(m.cols)] for v in vecs]

    kernel = kernel_basis(m)
    assert kernel == kernel_by_fraction_back_substitution(m.cols, list(_eliminate(m)))
    assert len(kernel) == m.cols - expected
    for v in kernel:
        assert all(type(x) is int for x in v.values())
        assert all(sum(row[c] * x for c, x in v.items()) == 0 for row in dense)
    assert dense_rank(as_dense(kernel)) == len(kernel)

    basis = row_basis(m)
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
    assert sorted(sorted(v.items()) for v in kernel_basis(no_rows)) == [
        [(c, 1)] for c in range(4)
    ]
    full = [[2, 1, 0], [0, 3, 1], [1, 0, 1]]  # determinant 7
    _assert_bases(from_dense(full), full)
    assert kernel_basis(from_dense(full)) == []
    wide = [[1, 2, 0, 4], [0, 0, 3, 6]]
    _assert_bases(from_dense(wide), wide)


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
        for p in (2**31 - 1, 2147483659, 2305843009213693951):
            assert rank_mod_p(m, p) == expected, (trial, p)
    assert deficient >= 50


def test_boundary_ranks_heisenberg_3_2():
    h = heisenberg(3, 2)
    m3 = differential_matrix(h, 3)
    m5 = differential_matrix(h, 5)
    assert (m3.rows, m3.cols) == (7, 35)
    assert rank(m3) == 1
    # the image of d_5 is spanned by z ^ (pair from the complementary
    # block), six monomials in all
    assert rank(m5) == 6
    assert rank(m5) == dense_rank(m5.to_dense())
    assert kernel_dim(differential_matrix(heisenberg(3, 1), 3)) == 3


def test_multiply_against_dense():
    rng = random.Random(3)
    for _ in range(10):
        a = [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(3)]
        b = [[rng.randrange(-2, 3) for _ in range(5)] for _ in range(4)]
        prod = multiply(from_dense(a), from_dense(b))
        expected = [
            [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(5)]
            for i in range(3)
        ]
        assert prod.to_dense() == expected


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
    ],
    ids=["symmetric", "missing-entry", "short-size-line", "bad-index"],
)
def test_matrix_market_rejects_malformed(text):
    with pytest.raises(LoadError):
        read_matrix_market(io.StringIO(text))


def test_primes():
    assert is_probable_prime(2**31 - 1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(2**30)
    rng = random.Random(11)
    seen = {random_prime(rng) for _ in range(5)}
    assert all(p > 2**30 and is_probable_prime(p) for p in seen)
    assert len(seen) > 1
