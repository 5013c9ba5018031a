"""Shared test oracles, deliberately independent of the library internals."""

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

from karyhom.algebra import KaryAlgebra


def dense_rank(dense_rows):
    """Plain Gaussian elimination over Fraction; the rank oracle."""
    m = [[Fraction(x) for x in row] for row in dense_rows]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def kernel_by_fraction_back_substitution(cols, pivots):
    """Kernel basis from (pivot_col, pivot_row) pairs in elimination order.

    One vector per non-pivot column f: x_f = 1, the other non-pivot
    coordinates 0, each pivot coordinate solved in Fractions from the
    last pivot row back, then scaled by the lcm of the denominators to
    the primitive integer vector.
    """
    free = sorted(set(range(cols)).difference(pc for pc, _ in pivots))
    basis = []
    for f in free:
        x = {f: Fraction(1)}
        for pc, row in reversed(pivots):
            s = sum(v * x[c] for c, v in row.items() if c in x)
            if s:
                x[pc] = -s / row[pc]
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


def euler_ok_by_binomials(dim, betti):
    """sum_i (-1)^i beta_{t_i} == sum_i (-1)^i C(dim, t_i) over the
    degrees t_0 < t_1 < ... of a Betti dict {t: beta_t}."""
    return sum((-1) ** i * (betti[t] - comb(dim, t)) for i, t in enumerate(sorted(betti))) == 0


def _jacobi_residual(alg: KaryAlgebra, inner, outer):
    """[[inner], outer] - sum_i [inner_1, ..., [inner_i, outer], ..., inner_k]."""
    residual = {}
    for w, c in alg.bracket(inner).items():
        for j, cj in alg.bracket((w,) + outer).items():
            residual[j] = residual.get(j, 0) + c * cj
    for i in range(alg.arity):
        for w, c in alg.bracket((inner[i],) + outer).items():
            replaced = inner[:i] + (w,) + inner[i + 1 :]
            for j, cj in alg.bracket(replaced).items():
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
    through `alg.bracket` alone.  The one per-monomial definition of the
    boundary; the assembled matrices are checked against it."""
    out = {}
    for mono, c in chain.items():
        for pos, sign in shuffles(len(mono), alg.arity):
            rest = [x for i, x in enumerate(mono) if i not in pos]
            for w, cw in alg.bracket(tuple(mono[i] for i in pos)).items():
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
    """Bases (dense rows) of g, C^2, C^3, ... from `alg.bracket` on every
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
                        for j, cj in alg.bracket((x,) + rest).items():
                            img[j] += c * cj
                images.append(img)
        series.append(list(_reduced_rows(images).values()))
        if len(series[-1]) == len(series[-2]):
            break
    return series


def center_by_brackets(alg: KaryAlgebra):
    """A basis (dense rows) of {v : [v, b_R] = 0 for every (k-1)-combination R},
    from `alg.bracket`: the null space of the stacked ad matrices."""
    n = alg.dim
    rows = [
        [alg.bracket((j,) + rest).get(out, 0) for j in range(n)]
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
