"""Homology as GL(V)-modules: weight characters, Schur decompositions, bounds.

For a weight-graded algebra the boundary maps preserve every torus
weight, so each homology group carries a polynomial GL(V)-character.
The character is read off the layout's record of each whole boundary,
its pivots counted by torus weight (kernel minus image per weight), and
decomposed into Schur modules by straightening: one pass over the table
reads every multiplicity as a coefficient of the character times the
Vandermonde alternant, s_lambda = a_{lambda+delta} / a_delta, so no
Schur character is ever tabled.  All of it is exact integer
combinatorics; dimensions come from the hook content formula.
"""

from __future__ import annotations

from collections import Counter

from .algebra import KaryAlgebra, sort_with_sign
from .chains import DEFAULT_SIZE_CAP, ChainLayout, comb0
from .errors import ConsistencyError, InputError

# -- partitions and Schur dimensions -------------------------------------


def normalize_partition(parts) -> tuple:
    """Weakly decreasing nonnegative ints (bool, float, str refused), zeros dropped."""
    parts = tuple(parts)
    if not all(type(p) is int and p >= 0 for p in parts):
        raise InputError(f"partition parts must be nonnegative integers: {parts}")
    parts = tuple(p for p in parts if p)
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise InputError(f"parts must be weakly decreasing: {parts}")
    return parts


def conjugate_partition(parts) -> tuple:
    parts = normalize_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))


def schur_dim(partition, n: int) -> int:
    """dim S_lambda(C^n) by the hook content formula; 0 if rows exceed n.

    The product of (n + content) over the cells of lambda, divided by
    the product of their hook lengths; the quotient is exact.
    """
    if type(n) is not int:
        raise InputError(f"n must be an integer, got {n!r}")
    lam = normalize_partition(partition)
    if len(lam) > n:
        return 0
    conj = conjugate_partition(lam)
    contents = hooks = 1
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            contents *= n + c - r
            hooks *= (row_len - c) + (conj[c] - r) - 1
    value, remainder = divmod(contents, hooks)
    assert remainder == 0
    return value


# -- characters from whole boundaries ---------------------------------------


def character_by_weights(alg: KaryAlgebra, t: int, *, cap=DEFAULT_SIZE_CAP) -> dict:
    """GL(V)-character {weight: multiplicity} of the homology at layout
    degree t, zero entries dropped: at w, the degree-t monomials of
    weight w minus the pivots of weight w in the records
    (`ChainLayout.pivots`, mirrored above top / 2) of d_t and d_{t+k-1},
    which count the ranks of their weight-w blocks, after
    `ChainLayout.check_degree` has put them under cap.  The rows of
    d_{t+k-1} are degree-t monomials, so both records bin on degree-t
    weights.  Weights stay the layout's packed ints until the table is
    written: they add over factors.
    """
    if alg.weights is None:
        raise InputError("character requires a weight-graded algebra")
    layout = ChainLayout.of(alg)
    layout.check_degree(t, cap)

    # layers[j]: degree-j monomials of the indices seen, by weight, while t is in reach
    layers = [Counter({0: 1})] + [Counter() for _ in range(t)]
    for i, p in enumerate(layout.packed):
        for j in range(min(i + 1, t), max(0, t - alg.dim + i), -1):
            for w, c in layers[j - 1].items():
                layers[j][w + p] += c
    counts = layers[t]
    for d in (t, t + alg.arity - 1):
        counts.subtract(layout.pivots(d))
    for w, mult in counts.items():
        if mult < 0:
            raise ConsistencyError(f"negative multiplicity {mult} at weight {layout.unpack(w)}")
    return {layout.unpack(w): mult for w, mult in counts.items() if mult}


def decompose_character(table: dict, n: int):
    """Schur multiplicities of a weight table by straightening.

    Returns [(partition, multiplicity), ...], greatest partition first,
    multiplicities positive, so that the table is the sum of the
    multiplicity times the character of S_partition(C^n); a table that
    is no such sum raises ConsistencyError.  Multiplicities and n must
    be ints; anything else is refused, never truncated.

    Proof.  Let delta = (n-1, ..., 1, 0) and a_v the alternant
    sum_pi sgn(pi) x^pi(v).  For a partition lambda of at most n rows,
    s_lambda = a_{lambda+delta} / a_delta (Macdonald, Symmetric Functions
    and Hall Polynomials, I.3).  The table is refused unless it is a
    symmetric polynomial chi: every coordinate >= 0, and every orbit
    under permuting coordinates whole and carrying one multiplicity.
    Then chi a_delta is antisymmetric with exponents >= 0, so it is
    sum_lambda m_lambda a_{lambda+delta}, one term for each strictly
    decreasing exponent lambda+delta, and chi = sum m_lambda s_lambda
    because a_delta is not a zero divisor.  The one strictly decreasing
    exponent of a_{lambda+delta} is lambda+delta, so m_lambda is the
    coefficient of x^{lambda+delta} in chi a_delta, the sum of
    sgn(pi) chi_{lambda+delta-pi(delta)} over pi, which by symmetry is
    the sum of sgn(pi) chi_u over the weights u with
    u + delta = pi(lambda + delta).  So one pass that sorts -(u + delta)
    credits each weight to at most one lambda, with the sign of the
    sort, and a weight whose shifted entries repeat to none.  Schur
    characters are independent, so the table is a sum of them exactly
    when every m_lambda is >= 0.  The result lists lambda in lex order,
    greatest first: the order in which subtracting the character of the
    lex-greatest dominant weight left, in turn, meets them.
    """
    if type(n) is not int:
        raise InputError(f"n must be an integer, got {n!r}")
    if not all(type(m) is int for m in table.values()):
        raise InputError("character multiplicities must be integers")
    work = {tuple(w): m for w, m in table.items() if m}
    orbits = Counter()
    for w, m in work.items():
        if len(w) != n:
            raise InputError(f"weight {w} does not live in Z^{n}")
        if min(w, default=0) < 0:
            raise ConsistencyError(f"weight {w} has a negative coordinate")
        top = tuple(sorted(w, reverse=True))
        if work.get(top) != m:
            got = work.get(top, 0)
            raise ConsistencyError(f"weight {w} has multiplicity {m}, its sorted form {top} {got}")
        orbits[top] += 1
    for top, count in orbits.items():
        size, left = 1, n
        for c in Counter(top).values():
            size *= comb0(left, c)
            left -= c
        if count != size:
            raise ConsistencyError(f"the orbit of {top} has {count} of its {size} weights")

    delta = range(n - 1, -1, -1)
    mults = Counter()
    for w, m in work.items():
        shifted, sign = sort_with_sign([-a - d for a, d in zip(w, delta)])
        if sign:
            mults[tuple(-v - d for v, d in zip(shifted, delta))] += sign * m
    out = []
    for lam, m in sorted(mults.items(), reverse=True):
        if m < 0:
            raise ConsistencyError(f"partition {normalize_partition(lam)} has multiplicity {m}")
        if m:
            out.append((normalize_partition(lam), m))
    return out


def decomposition_dimension(decomposition, n: int) -> int:
    return sum(mult * schur_dim(lam, n) for lam, mult in decomposition)


# -- closed-form lower bounds ---------------------------------------------


def lower_bound_betti(n: int, k: int, i: int) -> int:
    """Lower bound for the Betti number at degree i(k-1)+1, i >= 2.

    Uses x = C(n, k), the dimension of the k-th exterior power of V:

        C(n,k) C(x,a) - C(n,2k) C(x,a-1) - C(x,a+1),  a = (i-1)(k-1).
    """
    if k < 2:
        raise InputError(f"arity must be at least 2, got {k}")
    if i < 2:
        raise InputError(f"the bound applies for i >= 2, got {i}")
    if n < k:
        raise InputError(f"need n >= k, got n={n}, k={k}")
    a = (i - 1) * (k - 1)
    x = comb0(n, k)
    return (
        comb0(n, k) * comb0(x, a)
        - comb0(n, 2 * k) * comb0(x, a - 1)
        - comb0(x, a + 1)
    )


def second_homology_bound(n: int, k: int) -> int:
    """Lower bound for the Betti number at degree k:

        C(n,k) C(n,k-1) - C(n,2k-1).
    """
    if k < 2:
        raise InputError(f"arity must be at least 2, got {k}")
    if n < k:
        raise InputError(f"need n >= k, got n={n}, k={k}")
    return comb0(n, k) * comb0(n, k - 1) - comb0(n, 2 * k - 1)


def second_homology_summands(k: int):
    """Schur modules guaranteed inside the degree-k homology of the free
    2-step algebra: S_{2^j 1^{2k-2j-1}} for j = 1..k-1.

    Read with the exponent 2k-2j+1 in place of 2k-2j-1, the list has
    the wrong total degree and is not contained (see tests).
    """
    return [(2,) * j + (1,) * (2 * k - 2 * j - 1) for j in range(1, k)]


# -- representation stability ----------------------------------------------


def stability_check(k: int, t: int, n_range) -> dict:
    """Decompose the degree-t homology of free 2-step algebras across n.

    The decomposition is reported per n; the verdict says from which n
    on the multiset of partitions stays constant through the end of the
    range (partitions with more rows than n can only appear once n
    admits them).
    """
    from .families import free_two_step

    n_values = sorted(n_range)
    if not n_values:
        raise InputError("empty dimension range")
    per_n = {}
    for n in n_values:
        table = character_by_weights(free_two_step(k, n), t)
        per_n[n] = sorted(decompose_character(table, n))

    last = per_n[n_values[-1]]
    stable_from = min(n for n in n_values if all(per_n[m] == last for m in n_values if m >= n))
    return {
        "k": k,
        "degree": t,
        "per_n": per_n,
        "stable_from": stable_from,
        "stable": stable_from < n_values[-1],
        "tail_partitions": last,
    }
