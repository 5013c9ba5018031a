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

Matrices are built from the bracket side (`_terms`), not monomial by
monomial: only the monomials that contain a stored bracket key have a
nonzero image, so assembly costs about the number of nonzeros rather
than C(dim, t) monomials times C(t, k) shuffles.  `_split` is the one
assembler: the whole boundary, its weight blocks and the theta maps of
`homology.theta_matrix` are all blocks of d_t it cuts out.

When every ad(y_2, ..., y_k) is traceless, as in every nilpotent
algebra, rank d_t = rank d_{n+k-1-t} (see `ChainLayout`), and each pair
{t, n+k-1-t} gets one rank.  The condition is checked on each algebra's
brackets; a custom algebra that fails it ranks every degree.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import combinations

from .algebra import DEFAULT_SIZE_CAP, KaryAlgebra, _adjoint
from .errors import InputError, ResourceCapError
from .matrices import SparseIntMatrix, multiply, rank
from .util import comb0


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


def _terms(alg: KaryAlgebra, t: int):
    """d_t from the bracket side, as (row monomial, column monomial, coeff).

    For each stored key K and each (t-k)-subset R of the complement of K,
    the column sort(K u R) receives sgn(K in K u R) [K] ^ R, where the
    sign is that of the shuffle moving K to the front.  Only monomials
    that contain a key are visited and each visit yields one term, so the
    cost is about nnz.  A (row, column) pair may recur; `_split` adds
    its terms, and `SparseIntMatrix` drops the zeros.
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

    d^2 = 0 on all of Lambda g iff it is 0 at degrees 2k-1 and 2k, so
    those two products are formed first, and every degree in [2k-1, dim]
    is scanned only when one of them fails.  Each boundary is assembled
    at most once, after its chain spaces are checked against cap.

    Proof.  Put d = sum [K]_w (e_w ^) i_K, i_K the contraction by the
    k-set K, in normal order (wedges left of contractions) by i_x e_w =
    -e_w i_x + delta_{xw}: d^2 = sum c_{A,B} e_A i_B, where |B| = 2k for
    the terms e_{w'} e_w i_{K'} i_K and |B| = 2k-1 for the terms
    e_{w'} i_{K'-{w}} i_K that arise when w lies in K'.  e_A i_B kills
    Lambda^s for s < |B| and sends e_B to +-e_A and every other monomial
    of Lambda^{|B|} to 0.  So on Lambda^{2k-1} the matrix of d^2 is
    +-c_{A,B} at (A, B), |B| = 2k-1, and 0 iff they all are; then on
    Lambda^{2k} it is +-c_{A,B} at (A, B), |B| = 2k.  Jacobi plays no
    part in it.
    """
    k = alg.arity
    cache = {}

    def mat(t):
        if t not in cache:
            check_cap(alg, (t, t - k + 1), cap)
            cache[t] = differential_matrix(alg, t)
        return cache[t]

    def fails(t):
        return not multiply(mat(t - k + 1), mat(t)).is_zero()

    if not any(fails(t) for t in (2 * k - 1, 2 * k) if t <= alg.dim):
        return []
    return [t for t in range(2 * k - 1, alg.dim + 1) if fails(t)]


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

    Duality.  Let n = dim, top = n+k-1, S^c the complement of S in
    {0, ..., n-1}, and e_S ^ e_{S^c} = eps(S) e_0 ^ ... ^ e_{n-1}.  If
    tr ad(Y) = sum_x [x, Y]_x is 0 for every (k-1)-tuple Y, then

        d_{top-t}[S^c, U^c] = sigma_t eps(S) eps(U) d_t[U, S]

    for all monomials U, S, with one sign sigma_t per degree: d_{top-t}
    is d_t transposed and conjugated by the signed permutation e_S ->
    eps(S) e_{S^c} (the Hodge star), so rank d_{top-t} = rank d_t.  This
    is Poincare duality for unimodular algebras (Koszul 1950; Hazewinkel
    1970 for k = 2), in k-ary form.  Jacobi plays no part in it.

    Proof.  Entry (U, S) of d_t collects the terms [K]_w of the k-sets
    K inside S with U = (S - K) + {w}.  A term with w not in K has w
    outside S, so K = S - U and w = U - S are fixed by (U, S); entry
    (S^c, U^c) of d_{top-t} has K' = U^c - S^c = S - U and w' = S^c -
    U^c = U - S, the same term, and the sign of the pair factors
    through eps(S) eps(U).  The other terms have w in K, so U = S - Y
    with Y = K - {w}: entry (S - Y, S) is, up to sign, the partial trace
    of ad(Y) over U, and its mirror, entry (S^c, S^c + Y) of d_{top-t},
    the partial trace of ad(Y) over S^c.  U, S^c and Y partition the
    basis and indices x in Y give [x, Y] = 0, so the two partial traces
    sum to tr ad(Y): d_{top-t} minus the mirrored d_t is +-tr ad(Y) at
    these entries and 0 at all others.  In operators, with d =
    sum [K]_w (e_w ^) i_K for the contraction i_K, moving e_w ^ back
    past i_K after the star leaves (-1)^k d + sum_Y tr ad(Y) i_Y.

    The condition is checked once, on the adjoint table: a Y in no
    stored key has ad(Y) = 0.  When it holds, `boundary_rank(t)` with
    top - t < t returns `boundary_rank(top - t)`, so only degrees up to
    top / 2 are assembled and ranked.  Nilpotent ad maps are traceless;
    an algebra that fails the check (a solvable one, say) ranks every
    degree.
    """

    def __init__(self, alg: KaryAlgebra):
        self.algebra = alg
        self.degrees = [0] + list(range(1, alg.dim + 1, alg.arity - 1))
        self._ranks = {}
        traceless = all(sum(row[x].get(x, 0) for x in row) == 0 for row in _adjoint(alg).values())
        self.top = alg.dim + alg.arity - 1 if traceless else None

    @classmethod
    def of(cls, alg: KaryAlgebra) -> "ChainLayout":
        """The layout kept on alg, made on first use."""
        if alg._chain_layout is None:
            alg._chain_layout = cls(alg)
        return alg._chain_layout

    def boundary_rank(self, t: int) -> int:
        """rank d_t (0 below degree k and above dim); the rank of its
        mirror d_{top-t} when that degree is lower and top is set."""
        alg = self.algebra
        if self.top is not None and self.top - t < t:
            t = self.top - t
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
