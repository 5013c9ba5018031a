"""Wedge bases and the shuffle-sum boundary maps of a k-ary algebra.

The chain spaces are exterior powers of the algebra.  The boundary at
degree t contracts one k-bracket:

    d_t(x_1 ^ ... ^ x_t)
        = sum over (k, t-k)-shuffles s of
          sgn(s) [x_{s(1)},...,x_{s(k)}] ^ x_{s(k+1)} ^ ... ^ x_{s(t)}

Monomials are strictly increasing index tuples, enumerated in
lexicographic order, so matrices are reproducible bit for bit.  The
homology layout uses degrees 0, 1, k, 2k-1, ... (step k-1); the boundary
itself makes sense at every degree t >= k and is exposed that way.

`boundary_image` applies this definition to one monomial.  Matrices are
built the other way round, from the bracket side (`_terms`): only the
monomials that contain a stored bracket key have a nonzero image, so
assembly costs about the number of nonzeros rather than C(dim, t)
monomials times C(t, k) shuffles.  `_split` is the one assembler: the
whole boundary, its weight blocks and the theta maps of
`homology.theta_matrix` are all blocks of d_t it cuts out.
`boundary_image` stays as the definition the tests check the matrices
against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations

from .algebra import DEFAULT_SIZE_CAP, KaryAlgebra
from .errors import InputError, ResourceCapError
from .matrices import SparseIntMatrix, multiply, rank
from .util import comb0, insert_with_sign


def check_cap(alg: KaryAlgebra, degrees, cap) -> None:
    """Refuse chain spaces of more than cap monomials (cap None: no limit)."""
    if cap is None:
        return
    for t in degrees:
        size = comb0(alg.dim, t)
        if size > cap:
            raise ResourceCapError(
                f"chain space at degree {t} has {size} monomials (cap {cap})"
            )


def wedge_basis(alg: KaryAlgebra, t: int):
    """All C(dim, t) strictly increasing t-tuples, lexicographically."""
    if not 0 <= t <= alg.dim:
        raise InputError(f"wedge degree {t} out of range [0, {alg.dim}]")
    return list(combinations(range(alg.dim), t))


def shuffles(t: int, k: int):
    """(positions, sign) for all (k, t-k)-shuffles of t slots.

    positions are the k chosen 0-based slots in increasing order; the
    complement stays in increasing order; sign is the permutation sign.
    """
    base = k * (k - 1) // 2
    for pos in combinations(range(t), k):
        yield pos, (-1 if (sum(pos) - base) % 2 else 1)


def boundary_image(alg: KaryAlgebra, monomial):
    """d of a single wedge monomial as {output_monomial: coefficient}.

    The per-monomial definition; matrices are assembled by `_split`.
    """
    k = alg.arity
    t = len(monomial)
    out = {}
    for pos, sign in shuffles(t, k):
        args = tuple(monomial[p] for p in pos)
        vec = alg.brackets.get(args)
        if not vec:
            continue
        pos_set = set(pos)
        rest = tuple(monomial[p] for p in range(t) if p not in pos_set)
        for w, c in vec.items():
            merged, s2 = insert_with_sign(w, rest)
            if s2:
                coeff = sign * s2 * c
                out[merged] = out.get(merged, 0) + coeff
    return {m: v for m, v in out.items() if v}


def _terms(alg: KaryAlgebra, t: int):
    """d_t from the bracket side, as (row monomial, column monomial, coeff).

    For each stored key K and each (t-k)-subset R of the complement of K,
    the column sort(K u R) receives sgn(K in K u R) [K] ^ R, where the
    sign is that of the shuffle moving K to the front.  Only monomials
    that contain a key are visited and each visit yields one term, so the
    cost is about nnz.  A (row, column) pair may recur; `_split` adds
    its terms, and `SparseIntMatrix` drops the zeros, as `boundary_image`
    does per monomial.
    """
    k = alg.arity
    for key, vec in alg.brackets.items():
        for w, c in vec.items():
            # sgn(K in K u R) * (sign of inserting w into R) is one factor
            # -1 per entry x of R for each key entry above x, and one more
            # if x < w.
            odd = [(sum(i > x for i in key) + (x < w)) % 2 for x in range(alg.dim)]
            pool = [x for x in range(alg.dim) if x != w and x not in key]
            for rest in combinations(pool, t - k):
                p = bisect_left(rest, w)
                yield (
                    rest[:p] + (w,) + rest[p:],
                    tuple(sorted(key + rest)),
                    -c if sum(map(odd.__getitem__, rest)) % 2 else c,
                )


WeightBlock = namedtuple("WeightBlock", "weight column_monomials row_monomials matrix")


def _split(alg: KaryAlgebra, t: int, key):
    """d_t cut into blocks by key(monomial); {key: WeightBlock}, sorted.

    This is the one place where the terms of d_t become matrices.  One
    pass over the terms sends each to the block of its column.  A key of
    None puts a monomial in no block: it is left out of the rows, and
    the terms of its column are dropped.  The image of every kept column
    must lie in the rows of its block.
    """
    k = alg.arity
    if t < k:
        raise InputError(f"boundary needs degree >= {k}, got {t}")
    if t > alg.dim:
        raise InputError(f"degree {t} exceeds dimension {alg.dim}")
    cols, rows = {}, {}
    for groups, degree in ((cols, t), (rows, t - k + 1)):
        for mono in wedge_basis(alg, degree):
            w = key(mono)
            if w is not None:
                groups.setdefault(w, []).append(mono)
    col_at = {mono: (w, j) for w, group in cols.items() for j, mono in enumerate(group)}
    row_at = {mono: i for group in rows.values() for i, mono in enumerate(group)}
    entries = {w: {} for w in cols}
    for out, mono, v in _terms(alg, t):
        place = col_at.get(mono)
        if place is not None:
            w, j = place
            block, at = entries[w], (row_at[out], j)
            block[at] = block.get(at, 0) + v
    blocks = {}
    for w in sorted(cols):
        block_cols, block_rows = tuple(cols[w]), tuple(rows.get(w, ()))
        matrix = SparseIntMatrix(len(block_rows), len(block_cols), entries[w])
        blocks[w] = WeightBlock(w, block_cols, block_rows, matrix)
    return blocks


def differential_matrix(alg: KaryAlgebra, t: int) -> SparseIntMatrix:
    """Matrix of d_t from the degree-t to the degree-(t-k+1) wedge basis.

    This is the single-block case of `weight_blocks`.
    """
    return _split(alg, t, lambda mono: ())[()].matrix


def verify_d_squared(alg: KaryAlgebra, *, cap=DEFAULT_SIZE_CAP):
    """Degrees t where d_{t-k+1} . d_t is not zero (empty = complex).

    Each boundary's chain spaces are checked against cap before it is
    assembled.
    """
    k = alg.arity
    failing = []
    cache = {}

    def mat(t):
        if t not in cache:
            check_cap(alg, (t, t - k + 1), cap)
            cache[t] = differential_matrix(alg, t)
        return cache[t]

    for t in range(2 * k - 1, alg.dim + 1):
        if not multiply(mat(t - k + 1), mat(t)).is_zero():
            failing.append(t)
    return failing


def monomial_weight(alg: KaryAlgebra, monomial):
    """Total torus weight of a wedge monomial (requires a graded algebra)."""
    if alg.weights is None:
        raise InputError("algebra carries no weight grading")
    zero = (0,) * alg.weight_rank
    return tuple(map(sum, zip(zero, *map(alg.weights.__getitem__, monomial))))


def weight_blocks(alg: KaryAlgebra, t: int):
    """Split d_t into its weight-homogeneous blocks.

    Weight-additivity makes d_t block diagonal: each block maps the
    degree-t monomials of one total weight to the degree-(t-k+1)
    monomials of the same weight.  Returns {weight: WeightBlock}, keyed
    in sorted order; the union of blocks reproduces the full matrix.
    """
    if alg.weights is None:
        raise InputError("algebra carries no weight grading")
    return _split(alg, t, lambda mono: monomial_weight(alg, mono))


class ChainLayout:
    """The chain complex of one algebra and the ranks of its boundaries.

    Layout degrees are 0, 1, k, 2k-1, ... up to dim.  Each boundary d_t
    is assembled whole, ranked once and dropped; only {t: rank d_t} is
    kept.  Weights play no part here: Betti numbers need whole ranks
    only, and the weight blocks that characters need are ranked by
    `schur.character_by_weights`.  `ChainLayout.of(alg)` returns the
    layout kept on the algebra, so every caller shares one memo.
    """

    def __init__(self, alg: KaryAlgebra):
        self.algebra = alg
        self.degrees = [0] + list(range(1, alg.dim + 1, alg.arity - 1))
        self._ranks = {}

    @classmethod
    def of(cls, alg: KaryAlgebra) -> "ChainLayout":
        """The layout kept on alg, made on first use."""
        if alg._chain_layout is None:
            alg._chain_layout = cls(alg)
        return alg._chain_layout

    def boundary_rank(self, t: int) -> int:
        """rank d_t (0 below degree k and above dim)."""
        alg = self.algebra
        if t < alg.arity or t > alg.dim:
            return 0
        if t not in self._ranks:
            self._ranks[t] = rank(differential_matrix(alg, t))
        return self._ranks[t]

    def betti(self, t: int) -> int:
        """C(dim, t) - rank d_t - rank d_{t+k-1}: the Betti number at a
        layout degree t (1 at t = 0, where both boundaries are zero)."""
        alg = self.algebra
        kernel = comb0(alg.dim, t) - self.boundary_rank(t)
        return kernel - self.boundary_rank(t + alg.arity - 1)
