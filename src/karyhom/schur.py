"""Homology as GL(V)-modules: weight characters, Schur decompositions, bounds.

For a weight-graded algebra the boundary maps preserve every torus
weight, so each homology group carries a polynomial GL(V)-character.
The character is read off block by block (kernel minus image per weight)
and decomposed into Schur modules by highest-weight peeling: repeatedly
subtract the character of the lexicographically greatest dominant weight
present.  All of it is exact integer combinatorics; Schur characters are
generated by semistandard-tableau enumeration and dimensions by the
hook content formula.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .algebra import KaryAlgebra
from .chains import DEFAULT_SIZE_CAP, ChainLayout, check_cap, monomial_weight, wedge_basis, weight_blocks
from .errors import ConsistencyError, InputError
from .matrices import rank
from .util import comb0

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


@lru_cache(maxsize=None)
def schur_weight_multiplicities(partition: tuple, n: int) -> dict:
    """Weight multiplicities of S_lambda(C^n): {weight vector: count}.

    Enumerates semistandard tableaux of shape lambda with entries in
    1..n (rows weakly increase, columns strictly increase).
    """
    lam = normalize_partition(partition)
    if len(lam) > n:
        return {}
    counts = {}

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
            for v in range(lo, n + 1):
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


# -- characters from weight blocks ----------------------------------------


def character_by_weights(alg: KaryAlgebra, t: int, *, cap=DEFAULT_SIZE_CAP) -> dict:
    """GL(V)-character of the homology at layout degree t.

    For each total weight w the multiplicity is the block kernel of d_t
    minus the block rank of d_{t+k-1}; zero entries are dropped.  The
    blocks are assembled and ranked here, once per call: Betti numbers
    come from whole boundaries (`ChainLayout`), which do not remember
    per-weight ranks.  The chain spaces of both boundaries are checked
    against cap first.
    """
    if alg.weights is None:
        raise InputError("character requires a weight-graded algebra")
    k = alg.arity
    degrees = ChainLayout.of(alg).degrees
    if t not in degrees:
        raise InputError(f"{t} is not a chain degree of the layout {degrees}")
    check_cap(alg, (t, t - k + 1, t + k - 1), cap)

    # The blocks of d_t hold every degree-t monomial as a column, so they
    # give the chain-space counts; below degree k d_t is zero.
    cols = Counter()
    if t < k:
        cols.update(monomial_weight(alg, mono) for mono in wedge_basis(alg, t))
    ranks = Counter()
    for d in (t, t + k - 1):
        if k <= d <= alg.dim:
            for w, block in weight_blocks(alg, d).items():
                ranks[w] += rank(block.matrix)
                if d == t:
                    cols[w] = len(block.column_monomials)

    table = {}
    for w in cols:
        mult = cols[w] - ranks[w]
        if mult < 0:
            raise ConsistencyError(f"negative multiplicity {mult} at weight {w}")
        if mult:
            table[w] = mult
    return table


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
                raise ConsistencyError(
                    f"peeling {lam} drove weight {w2} negative"
                )
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
        for w, c in schur_weight_multiplicities(normalize_partition(lam), n).items():
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
    stable_from = None
    for n in reversed(n_values):
        if per_n[n] == last:
            stable_from = n
        else:
            break
    stable = stable_from is not None and stable_from < n_values[-1]
    return {
        "k": k,
        "degree": t,
        "per_n": per_n,
        "stable_from": stable_from,
        "stable": stable,
        "tail_partitions": last,
    }
