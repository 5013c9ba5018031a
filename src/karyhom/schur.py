"""Homology as GL(V)-modules: weight characters, Schur decompositions, bounds.

For a weight-graded algebra the boundary maps preserve every torus
weight, so each homology group carries a polynomial GL(V)-character.
The character is read off the layout's record of each whole boundary,
its pivots counted by torus weight (kernel minus image per weight), and
decomposed into Schur modules by highest-weight peeling: repeatedly
subtract the character of the lexicographically greatest dominant weight
present.  All of it is exact integer combinatorics; Schur characters
come from the GL(n) -> GL(n-1) branching rule (Gelfand-Tsetlin) and
dimensions from the hook content formula.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product, repeat

from .algebra import KaryAlgebra
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


def schur_weight_multiplicities(partition, n: int) -> dict:
    """Weight multiplicities of S_lambda(C^n): {weight vector: count}.

    Checked here, outside the cache, where 3.0 and 3 are one key.  The
    table is shared between callers and must not be mutated.
    """
    if type(n) is not int:
        raise InputError(f"n must be an integer, got {n!r}")
    lam = normalize_partition(partition)
    return _branch(lam, n) if len(lam) <= n else {}


@lru_cache(maxsize=None)
def _branch(lam: tuple, n: int) -> dict:
    """Weights of S_lambda(C^n), lambda normalized with at most n rows, by
    the branching rule: restricted to GL(n-1) x GL(1) it is the sum, each
    mu once, of S_mu(C^{n-1}) (x) x_n^{|lambda|-|mu|} over the mu that
    interlace lambda (lambda_1 >= mu_1 >= lambda_2 >= ... >= lambda_n).

    Iterates over the levels, so any n fits the stack: a pass down from
    GL(n) collects the partitions each level reaches from lambda by
    interlacing, and a pass up tables each of them from the level below.
    Below GL(n) a weight is kept sparse, as its (coordinate, nonzero
    entry) pairs, and spelled out once at GL(n): copying dense weights
    level by level costs n^3 / 3 entries for lambda = (1), which at
    n = 1500 is half a minute.
    """

    def interlacing(nu, m):
        nu += (0,) * (m - len(nu))
        for mu in product(*(range(b, a + 1) for a, b in zip(nu, nu[1:]))):
            yield tuple(p for p in mu if p), sum(nu) - sum(mu)

    levels, nus = [], {lam}
    for m in range(n, 0, -1):
        levels.append((m, nus))
        nus = {mu for nu in nus for mu, _ in interlacing(nu, m)}
    tables = {(): {(): 1}}
    for m, nus in reversed(levels):
        below, tables = tables, {}
        for nu in nus:
            table = tables[nu] = {}
            for mu, tail in interlacing(nu, m):
                for w, c in below[mu].items():
                    w += ((m - 1, tail),) if tail else ()
                    table[w] = table.get(w, 0) + c
    # spelled out: coordinate j of w is dict(w).get(j, 0)
    return {tuple(map(dict(w).get, range(n), repeat(0))): c for w, c in tables[lam].items()}


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
    """Highest-weight peeling of a weight table.

    Returns [(partition, multiplicity), ...] in peeling order (dominance
    downward); re-expanding through Schur characters reproduces the
    input exactly, otherwise a ConsistencyError is raised.  Peeling only
    lowers entries and refuses to drive one negative, so a table peels
    to empty exactly when it is a sum of Schur characters.  Multiplicities
    must be ints; anything else is refused, never truncated.
    """
    if not all(type(m) is int for m in table.values()):
        raise InputError("character multiplicities must be integers")
    work = {tuple(w): m for w, m in table.items() if m}
    for w in work:
        if len(w) != n:
            raise InputError(f"weight {w} does not live in Z^{n}")

    out = []
    while work:
        dominant = [w for w in work if all(a >= b for a, b in zip(w, w[1:]))]
        if not dominant:
            raise ConsistencyError("nonzero table without a dominant weight")
        lam_w = max(dominant)
        mult = work[lam_w]
        if mult < 0:
            raise ConsistencyError(f"negative multiplicity at {lam_w}")
        lam = normalize_partition(lam_w)
        for w2, c in schur_weight_multiplicities(lam, n).items():
            nv = work.get(w2, 0) - mult * c
            if nv < 0:
                raise ConsistencyError(f"peeling {lam} drove weight {w2} negative")
            if nv:
                work[w2] = nv
            else:
                work.pop(w2, None)
        out.append((lam, mult))
    return out


def expand_decomposition(decomposition, n: int) -> dict:
    """Inverse of decompose_character (for round-trip checks)."""
    table = {}
    for lam, mult in decomposition:
        for w, c in schur_weight_multiplicities(lam, n).items():
            table[w] = table.get(w, 0) + mult * c
    return {w: m for w, m in table.items() if m}


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
