"""The shuffle-sum boundary maps of a k-ary algebra, in one row form.

The chain spaces are exterior powers of the algebra.  The boundary at
degree t contracts one k-bracket:

    d_t(x_1 ^ ... ^ x_t)
        = sum over (k, t-k)-shuffles s of
          sgn(s) [x_{s(1)},...,x_{s(k)}] ^ x_{s(k+1)} ^ ... ^ x_{s(t)}

The homology layout uses degrees 0, 1, k, 2k-1, ... (step k-1); the
boundary itself makes sense at every degree t >= k and is exposed that
way.  A monomial x_{i_1} ^ ... ^ x_{i_t} is an int mask, bit i at
1 << (dim-1-i), so lexicographic order of the monomials of one degree
is descending mask order.  No other module reads mask bits; here four
functions do: `_boundary_rows` writes masks, `_lex_index` reads the
lexicographic position of one, `_drop_factor` deletes one basis index
from the masks of a row form, and `_weight_codec` reads the torus
weight of one.

Boundaries are built from the bracket side, not monomial by monomial:
only the monomials that contain a stored bracket key have a nonzero
image, so assembly costs about the number of nonzeros rather than
C(dim, t) monomials times C(t, k) shuffles.  One loop,
`_boundary_rows`, sums the terms into one row form, {row mask:
{column mask: int}}, and every consumer reads it:
`ChainLayout` eliminates it once and keeps its pivots counted by
weight, the one record every rank and `schur.character_by_weights`
read, and `verify_d_squared` composes it (`algebra._product`).  Only
`differential_matrix` (with `--export-mm`) and `homology.theta_matrix`
index it, through `_indexed`, so the indexed matrices are reproducible
bit for bit.  Only elimination and indexing import `matrices`, when
they run, so `verify_d_squared` alone, as `check` runs it, does not
load it.

When every ad(y_2, ..., y_k) is traceless, as in every nilpotent
algebra, the record of d_{n+k-1-t} is that of d_t mirrored in weight
(see `ChainLayout`), and each pair {t, n+k-1-t} is eliminated once.
The condition is checked on each algebra's brackets; a custom algebra
that fails it eliminates every degree.
"""

from collections import Counter
from itertools import combinations
from math import comb

from .algebra import DEFAULT_SIZE_CAP, KaryAlgebra, _product, refuse_over_cap
from .errors import InputError, shown


def comb0(n: int, r: int) -> int:
    """Binomial coefficient, 0 whenever r is outside [0, n]."""
    if n < 0 or r < 0 or r > n:
        return 0
    return comb(n, r)


def check_cap(alg: KaryAlgebra, degrees, cap: int) -> None:
    """Refuse chain spaces of more than cap monomials."""
    for t in degrees:
        refuse_over_cap(comb0(alg.dim, t), cap, f"chain space at degree {t} has {{}} monomials")


def _boundary_rows(alg: KaryAlgebra, t: int) -> dict:
    """d_t as {row mask: {column mask: int}}, for k <= t <= dim, summed
    from the bracket side.

    Monomials are masks (see the module docstring).  For each stored
    key K, each output w of [K] and each (t-k)-subset R of the
    complement of K u {w}, with rest mask r, the column r | mask(K)
    receives sgn [K]_w at the row r | bit(w), where sgn is that of the
    shuffle moving K to the front times that of inserting w into R.
    Only monomials that contain a key are visited, so the cost is about
    nnz.  A (row, column) pair may recur: its terms are added and sums
    that cancel are deleted (a row may be left empty), so no index or
    matrix is built.  This is the one form of d_t that every consumer
    reads.
    """
    k, n = alg.arity, alg.dim
    bit = [1 << (n - 1 - i) for i in range(n)]
    rows = {}
    for key, vec in alg.brackets.items():
        key_mask = sum(map(bit.__getitem__, key))
        for w, c in vec.items():
            # sgn is one factor -1 per entry x of R for each key entry
            # above x, and one more if x < w: the parity of r & odd.  The
            # key entries above x are the key bits below b = bit[x], and
            # x < w iff b > bit[w].
            w_bit, minus = bit[w], -c
            odd = sum(b for b in bit if ((key_mask & (b - 1)).bit_count() + (b > w_bit)) & 1)
            pool = [b for b in bit if not b & (key_mask | w_bit)]
            for r in map(sum, combinations(pool, t - k)):
                col = r | key_mask
                v = minus if (r & odd).bit_count() & 1 else c
                row = rows.get(r | w_bit)
                if row is None:
                    rows[r | w_bit] = {col: v}
                    continue
                v += row.get(col, 0)
                if v:
                    row[col] = v
                else:
                    del row[col]
    return rows


def _lex_index(mask: int, n: int) -> int:
    """Position of a monomial mask of n bits among the monomials of its
    degree in lexicographic (descending mask) order.

    The monomials before it are the larger masks of its degree, and
    complementing reverses order, so they number the masks of the
    complement's degree below the complement.  The combinatorial number
    system counts those as sum_j C(p_j, j), p_1 < p_2 < ... the set bits
    of the complement and j counting from 1.
    """
    free = ((1 << n) - 1) ^ mask
    index = j = 0
    while free:
        low = free & -free
        j += 1
        index += comb(low.bit_length() - 1, j)
        free ^= low
    return index


def _drop_factor(rows: dict, n: int, z: int) -> dict:
    """Mask-keyed rows over n bits as rows over the n-1 indices other than
    z, z's bit deleted from every mask, each column times (-1)^(number of
    its factors before z), the sign of moving z to its front."""
    pos = n - 1 - z  # z is the mask bit 1 << pos, the factors before z lie above it

    def drop(mask):
        return (mask >> (pos + 1)) << pos | mask & ((1 << pos) - 1)

    return {
        drop(r): {drop(c): -v if (c >> (pos + 1)).bit_count() & 1 else v for c, v in row.items()}
        for r, row in rows.items()
    }


def _indexed(rows: dict, n: int, shape):
    """Mask-keyed rows over n bits as a `matrices.SparseIntMatrix` of
    the given shape, each row and column mask at its `_lex_index`; the
    one builder of that type."""
    from .matrices import SparseIntMatrix

    cols, entries = {}, {}
    for r, row in rows.items():
        i = _lex_index(r, n)
        for c, v in row.items():
            j = cols.get(c)
            if j is None:
                j = cols[c] = _lex_index(c, n)
            entries[i, j] = v
    return SparseIntMatrix(*shape, entries)


def _weight_codec(alg: KaryAlgebra):
    """Torus weights as ints: (packed weight of each basis index, unpack,
    packed weight of a monomial mask, one table lookup per byte).
    Coordinate j is a signed field of B bits at bit B*j, with 2^(B-1)
    above the coordinates of any monomial (at most dim factors), so
    packing adds up over monomials, and W - w, W the packed weight of
    all basis elements, is the packed weight of the complement of a
    monomial of weight w.  B is a whole number of bytes, so a weight
    packs and unpacks through one bytes object, in time linear in its
    rank: adding the bias 2^(B-1) to every field makes each field its
    own bytes."""
    n, r = alg.dim, alg.weight_rank
    size = ((n * max((abs(x) for w in alg.weights.values() for x in w), default=0)).bit_length() + 8) // 8
    half = 1 << (8 * size - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * r, "little")  # makes every field nonnegative

    def unpack(x: int) -> tuple:
        fields = (x + bias).to_bytes(size * r, "little")
        if size == 1:  # each byte is a field
            return tuple(b - half for b in fields)
        return tuple(int.from_bytes(fields[j : j + size], "little") - half for j in range(0, size * r, size))

    packed = [
        int.from_bytes(b"".join((x + half).to_bytes(size, "little") for x in alg.weights[i]), "little") - bias
        for i in range(n)
    ]
    tables = []

    def mask_weight(mask: int) -> int:
        if not tables:  # built for the first pivot: a layout without pivots never reads them
            for shift in range(0, n, 8):
                table = [0]
                # bit shift+b of a mask is basis index n-1-shift-b, b = 0..7
                for i in range(n - 1 - shift, max(-1, n - 9 - shift), -1):
                    table += [v + packed[i] for v in table]
                tables.append(table)
        total = 0
        for table in tables:
            total += table[mask & 255]
            mask >>= 8
        return total

    return packed, unpack, mask_weight


def differential_matrix(alg: KaryAlgebra, t: int):
    """`SparseIntMatrix` of d_t from the degree-t to the degree-(t-k+1)
    monomials, both in lexicographic order: `_boundary_rows` indexed by
    `_indexed`."""
    k, n = alg.arity, alg.dim
    if t < k:
        raise InputError(f"boundary needs degree >= {k}, got {t}")
    if t > n:
        raise InputError(f"degree {t} exceeds dimension {n}")
    return _indexed(_boundary_rows(alg, t), n, (comb(n, t - k + 1), comb(n, t)))


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

    def rows(t):
        if t not in cache:
            check_cap(alg, (t, t - k + 1), cap)
            cache[t] = _boundary_rows(alg, t)
        return cache[t]

    def fails(t):
        return bool(_product(rows(t - k + 1), rows(t)))

    if not any(fails(t) for t in (2 * k - 1, 2 * k) if t <= alg.dim):
        return []
    return [t for t in range(2 * k - 1, alg.dim + 1) if fails(t)]


class ChainLayout:
    """The chain complex of one algebra and one record per boundary.

    Layout degrees are 0, 1, k, 2k-1, ... up to dim (`check_degree`).
    Each boundary d_t is assembled whole as mask-keyed rows
    (`_boundary_rows`) and eliminated once, by `matrices._eliminate`.
    Its record, `pivots(t)`, keeps only {packed weight: number of
    pivots}, each pivot counted at the weight of its column
    (`_weight_codec`, which the layout builds once per algebra); an
    ungraded algebra has one bin, 0.  No pivot mask, index or weight
    block is kept.  `boundary_rank` is the record's total, which
    `kernel_dim`, `betti` and `homology` read, and
    `schur.character_by_weights` subtracts the records of d_t and
    d_{t+k-1} from its monomial counts.  `ChainLayout.of(alg)` returns
    the layout kept on the algebra, so every caller shares one memo.

    Weights.  The pivots of weight w in d_t number the rank of its
    weight-w block.  Brackets are weight-additive (the constructor
    checks it), so each term of d_t joins a row and a column of one
    weight: every row is weight-homogeneous.  The echelon combines two
    rows only through a column both hold, so rows stay homogeneous, and
    its run on the rows of weight w is its run on the weight-w block
    alone: the same rows, row order and reductions, and a pivot is the
    least column of its own row.

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

    Reflection.  Let W be the packed weight of all basis elements.  The
    star sends a monomial S of weight w to S^c, of weight W - w, so the
    identity above carries the weight-v block of d_t (rows U and columns
    S of weight v) onto the weight-(W-v) block of d_{top-t} (rows S^c
    and columns U^c of weight W - v): that block is the weight-v block
    of d_t transposed, its rows and columns signed.  The two blocks have
    one rank, so by the weight rule the record of d_{top-t} is the
    record of d_t reflected, w -> W - w.  Ungraded, W = 0 and the one
    bin keeps its count.

    The condition is checked once, on the diagonal bracket terms, with
    no adjoint table (k - 1 entries per key and position): for sorted Y
    the x-coordinate of [x, Y] is nonzero only when Y + {x}, sorted, is
    a key K holding x at some position i, and then it is (-1)^i [K]_x.
    So each term [K]_w with w in K adds its signed value to the trace of
    ad(K - {w}), and every other ad(Y) has trace 0.  When the condition
    holds, `pivots(t)` with top - t < t reflects the record of
    d_{top-t}, so only degrees up to top / 2 are assembled and
    eliminated, and ranks and characters read the upper half through
    that one rule.  Nilpotent ad maps are traceless; an algebra that
    fails the check (a solvable one, say) eliminates every degree.
    """

    def __init__(self, alg: KaryAlgebra):
        self.algebra = alg
        self.degrees = [0] + list(range(1, alg.dim + 1, alg.arity - 1))
        self._pivots = {}
        traces = Counter()
        for key, vec in alg.brackets.items():
            for i, w in enumerate(key):
                if w in vec:
                    traces[key[:i] + key[i + 1 :]] += -vec[w] if i % 2 else vec[w]
        self.top = None if any(traces.values()) else alg.dim + alg.arity - 1
        # packed weight of each basis index, unpack, packed weight of a mask;
        # ungraded, every weight is 0
        codec = _weight_codec(alg) if alg.weights is not None else ([0] * alg.dim, None, lambda mask: 0)
        self.packed, self.unpack, self._weight = codec

    @classmethod
    def of(cls, alg: KaryAlgebra) -> "ChainLayout":
        """The layout kept on alg, made on first use."""
        if alg._chain_layout is None:
            alg._chain_layout = cls(alg)
        return alg._chain_layout

    def check_degree(self, t: int, cap) -> None:
        """Refuse t unless it is a layout degree whose chain spaces t-k+1,
        t and t+k-1 are under cap (`check_cap`).  The refusal names a
        layout of more than six degrees by its first three and its last."""
        if t not in self.degrees:
            d = self.degrees
            named = d if len(d) <= 6 else [*d[:3], "...", d[-1]]
            raise InputError(f"degree {shown(t)} is not in the layout [{', '.join(map(str, named))}]")
        k = self.algebra.arity
        check_cap(self.algebra, (t, t - k + 1, t + k - 1), cap)

    def pivots(self, t: int) -> Counter:
        """The record of d_t, {packed weight: number of pivots}, empty
        unless k <= t <= dim: d_t eliminated once, or, when top is set
        and top - t < t, the record of d_{top-t} reflected.  A caller
        must not change it."""
        if self.top is not None and self.top - t < t:
            whole = sum(self.packed)
            return Counter({whole - w: c for w, c in self.pivots(self.top - t).items()})
        if t not in self._pivots and self.algebra.arity <= t <= self.algebra.dim:
            from .matrices import _eliminate

            columns = (pc for pc, _ in _eliminate(_boundary_rows(self.algebra, t)))
            self._pivots[t] = Counter(map(self._weight, columns))
        return self._pivots.get(t, Counter())

    def boundary_rank(self, t: int) -> int:
        """rank d_t, the total of its record."""
        return self.pivots(t).total()

    def kernel_dim(self, t: int) -> int:
        """dim ker d_t = C(dim, t) - rank d_t."""
        return comb0(self.algebra.dim, t) - self.boundary_rank(t)

    def betti(self, t: int) -> int:
        """dim ker d_t - rank d_{t+k-1}: the Betti number at a layout
        degree t (1 at t = 0, where both boundaries are zero)."""
        return self.kernel_dim(t) - self.boundary_rank(t + self.algebra.arity - 1)
