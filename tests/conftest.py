"""Shared test oracles, deliberately independent of the library internals."""

from fractions import Fraction
from itertools import product
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


def jacobi_residuals_exhaustive(alg: KaryAlgebra):
    """Evaluate the generalized Jacobi identity on *every* basis tuple,
    repeats included (slow; use only on small algebras)."""
    k = alg.arity
    bad = []
    for inner in product(range(alg.dim), repeat=k):
        inner_vec = alg.bracket(inner)
        for outer in product(range(alg.dim), repeat=k - 1):
            residual = dict(alg.bracket_with_vector(inner_vec, outer))
            for i in range(k):
                moved = alg.bracket((inner[i],) + outer)
                for w, c in moved.items():
                    replaced = inner[:i] + (w,) + inner[i + 1 :]
                    for j, cj in alg.bracket(replaced).items():
                        residual[j] = residual.get(j, 0) - c * cj
            if any(residual.values()):
                bad.append(inner + outer)
    return bad


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
