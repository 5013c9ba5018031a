"""Shared test oracles, deliberately independent of the library internals."""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

from karyhom.algebra import KaryAlgebra
from karyhom.chains import differential_matrix
from karyhom.errors import InputError, LoadError
from karyhom.homology import theta_matrix
from karyhom.matrices import SparseIntMatrix, rank


def wedge_basis(alg: KaryAlgebra, t: int):
    """All C(dim, t) strictly increasing t-tuples, lexicographically: the
    order of the rows and columns of every indexed boundary."""
    return list(combinations(range(alg.dim), t))


def read_matrix_market(f) -> SparseIntMatrix:
    """Read MatrixMarket coordinate format written by write_matrix_market;
    the round-trip oracle of the export.

    Only the "coordinate integer general" layout is accepted: a symmetric
    file stores half its entries, which this reader would silently drop.
    A negative entry count, a body that gives an entry twice, or more
    entries than its size line declares, is refused too.
    """
    header = f.readline()
    fields = header.lower().split()
    if fields != ["%%matrixmarket", "matrix", "coordinate", "integer", "general"]:
        raise LoadError(f"unsupported MatrixMarket header: {header.strip()!r}")
    line = f.readline()
    while line.startswith("%"):
        line = f.readline()
    try:
        rows, cols, nnz = (int(x) for x in line.split())
        entries = {}
        for _ in range(nnz):
            r, c, v = f.readline().split()
            entries[(int(r) - 1, int(c) - 1)] = int(v)
    except ValueError as exc:
        raise LoadError(f"truncated or malformed MatrixMarket body: {exc}") from exc
    if nnz < 0:
        raise LoadError(f"MatrixMarket size line declares {nnz} entries")
    if len(entries) < nnz:
        raise LoadError("MatrixMarket body gives an entry twice")
    if any(line.strip() for line in f):
        raise LoadError(f"MatrixMarket body has more than the {nnz} entries it declares")
    return SparseIntMatrix(rows, cols, entries)


# Fixed primes for the `rank_mod_p` cross-check: 2^31 - 1, the least
# prime above 2^31, and 2^61 - 1.
PRIMES = (2**31 - 1, 2147483659, 2**61 - 1)


def fraction_echelon(dense_rows):
    """Plain Gauss-Jordan elimination over Fraction, by increasing
    column: [(pivot column, reduced row)], each row 1 at its own pivot
    and 0 at every other pivot column."""
    m = [[Fraction(x) for x in row] for row in dense_rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        done = len(pivots)
        piv = next((i for i in range(done, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[done], m[piv] = m[piv], m[done]
        inv = 1 / m[done][c]
        m[done] = [x * inv for x in m[done]]
        for i in range(len(m)):
            if i != done and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[done])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return list(zip(pivots, m))


def dense_rank(dense_rows):
    """The rank oracle: the number of pivots of `fraction_echelon`."""
    return len(fraction_echelon(dense_rows))


def to_dense(matrix):
    """A `SparseIntMatrix` as dense integer rows, for the dense oracles."""
    dense = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        dense[r][c] = v
    return dense


def kernel_by_fraction_elimination(matrix):
    """The kernel oracle: a basis of the rational null space of a
    `SparseIntMatrix` from its own `fraction_echelon`, sharing nothing
    with the library's elimination.

    One vector per non-pivot column f: x_f = 1, the other non-pivot
    coordinates 0, and each pivot coordinate minus the reduced row's
    entry at f, scaled by the lcm of the denominators to an integer
    vector.
    """
    pivots = fraction_echelon(to_dense(matrix))
    basis = []
    for f in sorted(set(range(matrix.cols)).difference(c for c, _ in pivots)):
        x = {f: Fraction(1)}
        for c, row in pivots:
            if row[f]:
                x[c] = -row[f]
        d = lcm(*(v.denominator for v in x.values()))
        basis.append({c: int(v * d) for c, v in x.items()})
    return basis


# ---------------------------------------------------------------------------
# Proved closed forms for Betti numbers.  Betti numbers follow the layout
# convention beta_t = C(dim, t) - rank d_t - rank d_{t+k-1}, with d_t the
# shuffle-sum boundary Lambda^t -> Lambda^{t-k+1} (rank 0 for t < k).


def _coefficient(poly, power, n):
    """[q^n] of poly(q)**power, poly a list of coefficients (stdlib only)."""
    if n < 0:
        return 0
    acc = [1]
    for _ in range(power):
        acc = [
            sum(acc[i] * poly[d - i] for i in range(len(acc)) if 0 <= d - i < len(poly))
            for d in range(len(acc) + len(poly) - 1)
        ]
    return acc[n] if n < len(acc) else 0


def _string_sector_rank(k, m, j, inert, high, low):
    """Rank on degree j of phi = sum_i T_i over m identical blocks.

    Each block is a string {high state, low state} of degrees high, low,
    with T_i sending the high state of block i to +-its low state, plus
    inert monomials (degree counts `inert`) that every T_i kills.  T_i
    is odd iff k is odd, and T_i for different blocks commute for even k
    and anticommute for odd k (graded commutation of contractions and
    wedges on disjoint variables); T_i^2 = 0.

    phi preserves the sectors: a set S of s string blocks and a fixed
    inert monomial in each other block.  In a sector, the basis elements
    with r blocks in the high state have degree high*r + low*(s-r) + n
    (n the inert degree), and phi maps level r to level r-1:
      odd k:  the sector is the tensor product of s copies of the acyclic
              complex (high -> low), hence exact; with C(s,r) elements on
              level r and 1 on level s, rank = C(s-1, r-1);
      even k: renormalise the basis along products of T_i (well defined
              since they commute) to make every sign +1; phi is then the
              down map of the Boolean lattice of S, whose rank from level
              r is min(C(s,r), C(s,r-1)) (Gottlieb-Kantor: the sl_2
              relation DU - UD = (s-2r) I makes U injective below the
              middle, and complementation covers the rest).
    Sum over s >= 1, r >= 1, the C(m,s) choices of S and the inert
    monomials counted by [q^n] inert^(m-s).
    """
    total = 0
    for s in range(1, m + 1):
        for r in range(1, s + 1):
            rho = comb(s - 1, r - 1) if k % 2 else min(comb(s, r), comb(s, r - 1))
            n = j - high * r - low * (s - r)
            total += comb(m, s) * _coefficient(inert, m - s, n) * rho
    return total


def _inert(k, skip):
    """Degree counts of the monomials of Lambda(k-dim block) minus `skip`."""
    counts = [comb(k, d) for d in range(k + 1)]
    for d in skip:
        counts[d] -= 1
    return counts


def heisenberg_betti_closed_form(k, m, t):
    """beta_t of heisenberg(k, m), for every k >= 2, m >= 1, 0 <= t <= km+1.

    Proof.  g = V + Qz with V = V_1 + ... + V_m, V_i spanned by the block
    x^1_i..x^k_i, and vol_i the wedge of block i, the only key ([vol_i] = z).
    z is in no key, so d kills z ^ Lambda V, and for w in Lambda V the
    shuffle signs make d(w) = z ^ phi(w) with phi = sum_i iota(vol_i), the
    contraction removing block i.  z ^ is injective on Lambda V, so
    rank d_t = R_H(t) := rank of phi on Lambda^t V.  Lambda V is the
    tensor product of the Lambda V_i; iota(vol_i) is nonzero only on
    vol_i (-> 1), so each block is the string {vol_i, 1} (degrees k, 0)
    plus inert monomials counted by (1+q)^k - 1 - q^k, and
    _string_sector_rank gives R_H.  Then
    beta_t = C(km+1, t) - R_H(t) - R_H(t+k-1).
    """
    inert = _inert(k, (0, k))
    return (
        comb(k * m + 1, t)
        - _string_sector_rank(k, m, t, inert, k, 0)
        - _string_sector_rank(k, m, t + k - 1, inert, k, 0)
    )


def acj_betti_closed_form(k, m, t):
    """beta_t of acj(k, m), for every k >= 2, m >= 1, 0 <= t <= km+1.

    Proof.  g = Qz + A, A = A_1 + ... + A_m with A_i spanned by the block
    x^1_i..x^k_i; the keys are {z} u P_i, P_i = x^1_i ^ ... ^ x^{k-1}_i,
    with value x^k_i.  Every key holds z, so d kills Lambda A, and for w in
    Lambda A, d(z ^ w) = +-theta(w) with theta = sum_i eps(x^k_i) iota(P_i)
    (wedge after contraction), landing in Lambda A.  Hence
    rank d_t = R_A(t-1) := rank of theta on Lambda^{t-1} A.  In block i
    the operator is nonzero only on P_i (-> +-x^k_i), so each block is the
    string {P_i, x^k_i} (degrees k-1, 1) plus inert monomials counted by
    (1+q)^k - q - q^(k-1); theta_i has degree 2-k, of the parity of k,
    and _string_sector_rank gives R_A.  Then
    beta_t = C(km+1, t) - R_A(t-1) - R_A(t+k-2).
    """
    inert = _inert(k, (1, k - 1))
    return (
        comb(k * m + 1, t)
        - _string_sector_rank(k, m, t - 1, inert, k - 1, 1)
        - _string_sector_rank(k, m, t + k - 2, inert, k - 1, 1)
    )


def free3small_betti_closed_form(k, t):
    """beta_t of free3small(k), for k >= 4 and t in {1, k, 2k-1}.

    Proof.  g has basis x_1..x_k, y, z_1..z_k (dim 2k+1) and k+1 keys:
    K_0 = {x_1..x_k} with [K_0] = y, and K_i = {x_j : j != i} + {y} with
    [K_i] = z_i.  d_t sends a degree-t monomial w to the signed sum of
    [K] ^ (w - K) over the keys K inside w, and a term is nonzero only
    when the output [K] is not in w.  The ranks beta_t needs:
      rank d_1 = 0, since 1 < k;
      rank d_k = k+1: the degree-k monomials holding a key are the keys,
        and their images y, z_1..z_k are distinct basis vectors;
      rank d_{3k-2} = 0, since 3k-2 > 2k+1 for k >= 4;
      rank d_{2k-1} = C(k+1,2) + 1: a degree-(2k-1) monomial is the
        complement of a pair P, and K contributes iff K misses P and
        [K] lies in P.  K_0 does so only for P = {y, z_a}, giving
        +-y ^ (the z other than z_a): k images.  K_i does so only for
        P = {z_i, z_b} or {x_i, z_i}.  P = {z_a, z_b} takes K_a and K_b,
        giving +-(x_a and the z other than z_b) +-(x_b and the z other
        than z_a): C(k,2) images, on pairwise disjoint monomials.
        P = {x_a, z_a} gives +-(z_1 ^ ... ^ z_k), the same image for
        every a: 1.  Every other pair gives 0.  The three kinds of image
        use disjoint monomials (with y; with one x; with neither), so
        the rank is k + C(k,2) + 1.
    Then beta_t = C(2k+1, t) - rank d_t - rank d_{t+k-1}.
    """
    if k < 4:
        raise ValueError(f"the closed form needs k >= 4, got {k}")
    ranks = {1: 0, k: k + 1, 2 * k - 1: comb(k + 1, 2) + 1, 3 * k - 2: 0}
    return comb(2 * k + 1, t) - ranks[t] - ranks[t + k - 1]


def acj_betti_by_theta(alg: KaryAlgebra, t):
    """The paper's theta identity on an ACJ-type algebra, |a| = dim - 1:
    beta_t = C(|a|, t) - C(|a|, t+k-2) + dim ker theta_{t-1}
    + dim ker theta_{t+k-2}, each kernel the columns of `theta_matrix`
    less its `rank`, an elimination on index keys apart from the
    boundary ranks of the chain layout."""

    def kernel(j):
        th = theta_matrix(alg, j)
        return th.cols - rank(th)

    a, k = alg.dim - 1, alg.arity
    return comb(a, t) - comb(a, t + k - 2) + kernel(t - 1) + kernel(t + k - 2)


def euler_ok_by_binomials(dim, betti):
    """sum_i (-1)^i beta_{t_i} == sum_i (-1)^i C(dim, t_i) over the
    degrees t_0 < t_1 < ... of a Betti dict {t: beta_t}."""
    return sum((-1) ** i * (betti[t] - comb(dim, t)) for i, t in enumerate(sorted(betti))) == 0


def refinement_bound_by_binomials(dim_v, dim_z, k):
    """The 2-step toral refinement bound as its binomial sum:
    sum_i |sum_j (-1)^j C(dim_v, kj+i)| * 2^dim_z over i = 0..k-1."""
    total = sum(
        abs(sum((-1) ** j * comb(dim_v, k * j + i) for j in range(dim_v // k + 1)))
        for i in range(k)
    )
    return total * 2**dim_z


def schur_weights_by_tableaux(lam, n):
    """Weight table {weight: count} of S_lambda(C^n), lambda a partition,
    by enumerating the semistandard tableaux of shape lambda with entries
    in 1..n (rows weakly increase, columns strictly increase).  A cell
    with h cells below it in its column holds at most n - h, so when
    lambda has at most n rows no partial filling is a dead end."""
    counts = {}
    below = [[sum(1 for p in lam[r + 1:] if p > c) for c in range(lam[r])] for r in range(len(lam))]

    def fill(row_idx, prev_row):
        if row_idx == len(lam):
            yield ()
            return
        length = lam[row_idx]

        def build(col, row):
            if col == length:
                for rest in fill(row_idx + 1, row):
                    yield (row,) + rest
                return
            lo = row[col - 1] if col else 1
            if prev_row is not None and col < len(prev_row):
                lo = max(lo, prev_row[col] + 1)
            for v in range(lo, n + 1 - below[row_idx][col]):
                yield from build(col + 1, row + (v,))

        yield from build(0, ())

    for tableau in fill(0, None):
        weight = [0] * n
        for row in tableau:
            for v in row:
                weight[v - 1] += 1
        key = tuple(weight)
        counts[key] = counts.get(key, 0) + 1
    return counts


def graded_filiform3():
    """[x0, x1, x_i] = x_{i+1} for i = 2, 3, 4: a 6-dim arity-3 algebra
    that no family builds, graded by hand in Z^3."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return KaryAlgebra(
        3, 6, "abcdef",
        {(0, 1, 2): {3: 1}, (0, 1, 3): {4: 1}, (0, 1, 4): {5: 1}},
        {0: e[0], 1: e[1], 2: e[2], 3: (1, 1, 1), 4: (2, 2, 1), 5: (3, 3, 1)},
    )


WeightBlock = namedtuple("WeightBlock", "weight column_monomials row_monomials matrix")


def monomial_weight(alg: KaryAlgebra, monomial):
    """Total torus weight of a wedge monomial (requires a graded algebra)."""
    if alg.weights is None:
        raise InputError("algebra carries no weight grading")
    zero = (0,) * alg.weight_rank
    return tuple(map(sum, zip(zero, *map(alg.weights.__getitem__, monomial))))


def weight_blocks(alg: KaryAlgebra, t: int):
    """d_t cut into its weight-homogeneous blocks: {weight: WeightBlock},
    in sorted order, one block per weight of a degree-t monomial.

    The block oracle: `differential_matrix` with its columns and rows
    grouped by the weights of their wedge-basis monomials, each group in
    basis order.  Weight-additivity puts every entry inside one block,
    which is asserted; the blocks reassemble the whole matrix.
    """
    if alg.weights is None:
        raise InputError("algebra carries no weight grading")
    full = differential_matrix(alg, t)
    groups, places = {}, []
    for side, degree in enumerate((t, t - alg.arity + 1)):
        place = []
        for mono in wedge_basis(alg, degree):
            w = monomial_weight(alg, mono)
            group = groups.setdefault(w, ([], []))[side]
            place.append((w, len(group)))
            group.append(mono)
        places.append(place)
    entries = {w: {} for w in groups}
    for (r, c), v in full.entries.items():
        (w, j), (row_w, i) = places[0][c], places[1][r]
        assert row_w == w, (t, r, c)
        entries[w][(i, j)] = v
    return {
        w: WeightBlock(w, tuple(cols), tuple(rows), SparseIntMatrix(len(rows), len(cols), entries[w]))
        for w, (cols, rows) in sorted(groups.items())
        if cols
    }


def characters_by_blocks(alg: KaryAlgebra, degrees):
    """{t: GL(V)-character {weight: multiplicity}} of the homology at the
    layout degrees t, from `weight_blocks`: the degree-t monomials of
    weight w minus the ranks of the weight-w blocks of d_t and d_{t+k-1}
    (each boundary cut and ranked once)."""
    k = alg.arity
    ranks = {}
    for d in {s for t in degrees for s in (t, t + k - 1) if k <= s <= alg.dim}:
        ranks[d] = {w: rank(block.matrix) for w, block in weight_blocks(alg, d).items()}
    out = {}
    for t in degrees:
        table = {}
        for mono in wedge_basis(alg, t):
            w = monomial_weight(alg, mono)
            table[w] = table.get(w, 0) + 1
        for d in (t, t + k - 1):
            for w, r in ranks.get(d, {}).items():
                table[w] = table.get(w, 0) - r
        out[t] = {w: m for w, m in table.items() if m}
    return out


def sorted_with_sign(indices):
    """(sorted tuple, sign of the sorting permutation), the sign read off
    the parity of the inversion count; indices must not repeat."""
    indices = tuple(indices)
    inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1 :])
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


def bracket(alg: KaryAlgebra, indices):
    """[e_i1, ..., e_ik] as a sparse vector {index: int}, read off the
    stored keys alone: zero on a repeated index, else the stored vector
    of the sorted tuple times the sign of `sorted_with_sign`.  The one
    bracket evaluator of the definition oracles, sharing no sign code
    with the engine they check."""
    if len(set(indices)) < len(indices):
        return {}
    key, sign = sorted_with_sign(indices)
    return {i: sign * c for i, c in alg.brackets.get(key, {}).items()}


def _jacobi_residual(alg: KaryAlgebra, inner, outer):
    """[[inner], outer] - sum_i [inner_1, ..., [inner_i, outer], ..., inner_k]."""
    residual = {}
    for w, c in bracket(alg, inner).items():
        for j, cj in bracket(alg, (w,) + outer).items():
            residual[j] = residual.get(j, 0) + c * cj
    for i in range(alg.arity):
        for w, c in bracket(alg, (inner[i],) + outer).items():
            replaced = inner[:i] + (w,) + inner[i + 1 :]
            for j, cj in bracket(alg, replaced).items():
                residual[j] = residual.get(j, 0) - c * cj
    return residual


def jacobi_residuals_exhaustive(alg: KaryAlgebra):
    """Evaluate the generalized Jacobi identity on *every* basis tuple,
    repeats included (slow; use only on small algebras)."""
    k = alg.arity
    return [
        inner + outer
        for inner in product(range(alg.dim), repeat=k)
        for outer in product(range(alg.dim), repeat=k - 1)
        if any(_jacobi_residual(alg, inner, outer).values())
    ]


def jacobi_residuals_increasing(alg: KaryAlgebra):
    """The Jacobi identity on strictly increasing inner and outer tuples
    only, in lexicographic order (fast enough for k = 5 on 7 elements)."""
    k = alg.arity
    return [
        inner + outer
        for inner in combinations(range(alg.dim), k)
        for outer in combinations(range(alg.dim), k - 1)
        if any(_jacobi_residual(alg, inner, outer).values())
    ]


def shuffles(t, k):
    """(positions, sign) for every (k, t-k)-shuffle of t slots: the k
    chosen slots, in increasing order, move to the front and the others
    keep their order; sign is the sign of that permutation."""
    for pos in combinations(range(t), k):
        yield pos, -1 if (sum(pos) - k * (k - 1) // 2) % 2 else 1


def boundary_by_definition(alg: KaryAlgebra, chain):
    """d of a chain {increasing index tuple: coefficient} by the shuffle
    sum: sgn(s) [x_s(1), ..., x_s(k)] ^ x_s(k+1) ^ ... ^ x_s(t), read
    through `bracket` alone.  The one per-monomial definition of the
    boundary; the assembled matrices are checked against it."""
    out = {}
    for mono, c in chain.items():
        for pos, sign in shuffles(len(mono), alg.arity):
            rest = [x for i, x in enumerate(mono) if i not in pos]
            for w, cw in bracket(alg, tuple(mono[i] for i in pos)).items():
                if w not in rest:
                    below = sum(x < w for x in rest)
                    merged = tuple(sorted(rest + [w]))
                    out[merged] = out.get(merged, 0) + (-1) ** below * sign * c * cw
    return {mono: v for mono, v in out.items() if v}


def d_squared_failing_degrees_all(alg: KaryAlgebra):
    """Every degree t in [2k-1, dim] where d(d(e_S)) != 0 for some
    t-monomial e_S: the all-degree sweep, from the definition."""
    return [
        t
        for t in range(2 * alg.arity - 1, alg.dim + 1)
        if any(
            boundary_by_definition(alg, boundary_by_definition(alg, {mono: 1}))
            for mono in combinations(range(alg.dim), t)
        )
    ]


def _reduced_rows(rows):
    """{pivot column: row} of a reduced row echelon basis of the span of
    dense rational rows: every row is 1 at its pivot and 0 at the others."""
    pivots = {}
    for row in rows:
        if not any(row):
            continue
        r = [Fraction(x) for x in row]
        for c, p in pivots.items():
            if r[c]:
                f = r[c]
                r = [a - f * b for a, b in zip(r, p)]
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is None:
            continue
        r = [x / r[lead] for x in r]
        for c, p in pivots.items():
            if p[lead]:
                f = p[lead]
                pivots[c] = [a - f * b for a, b in zip(p, r)]
        pivots[lead] = r
    return pivots


def lower_central_series_by_brackets(alg: KaryAlgebra):
    """Bases (dense rows) of g, C^2, C^3, ... from `bracket` on every
    (k-1)-combination, stopping at zero or at the first repeat."""
    n = alg.dim
    rests = list(combinations(range(n), alg.arity - 1))
    series = [[[int(i == j) for j in range(n)] for i in range(n)]]
    while series[-1]:
        images = []
        for v in series[-1]:
            for rest in rests:
                img = [0] * n
                for x, c in enumerate(v):
                    if c:
                        for j, cj in bracket(alg, (x,) + rest).items():
                            img[j] += c * cj
                images.append(img)
        series.append(list(_reduced_rows(images).values()))
        if len(series[-1]) == len(series[-2]):
            break
    return series


def center_by_brackets(alg: KaryAlgebra):
    """A basis (dense rows) of {v : [v, b_R] = 0 for every (k-1)-combination R},
    from `bracket`: the null space of the stacked ad matrices."""
    n = alg.dim
    rows = [
        [bracket(alg, (j,) + rest).get(out, 0) for j in range(n)]
        for rest in combinations(range(n), alg.arity - 1)
        for out in range(n)
    ]
    pivots = _reduced_rows(rows)
    basis = []
    for f in range(n):
        if f not in pivots:
            x = [Fraction(0)] * n
            x[f] = Fraction(1)
            for c, p in pivots.items():
                x[c] = -p[f]
            basis.append(x)
    return basis


def flip_bracket_signs(alg: KaryAlgebra, rng) -> KaryAlgebra:
    """Negate each stored bracket vector independently (a basis change
    for every family here, hence Betti-invariant)."""
    new = {}
    for args, vec in alg.brackets.items():
        if rng.random() < 0.5:
            new[args] = {i: -c for i, c in vec.items()}
        else:
            new[args] = dict(vec)
    return KaryAlgebra(alg.arity, alg.dim, alg.labels, new, alg.weights)


def relabelled(alg: KaryAlgebra, perm) -> KaryAlgebra:
    """alg with basis index i renamed perm[i]: each key re-sorted, its
    vector multiplied by the sign of the sort, and the dict handed to the
    constructor (labels kept, weights dropped)."""
    brackets = {}
    for args, vec in alg.brackets.items():
        key, sign = sorted_with_sign(perm[i] for i in args)
        brackets[key] = {perm[j]: sign * c for j, c in vec.items()}
    return KaryAlgebra(alg.arity, alg.dim, alg.labels, brackets)
