"""Small shared helpers: signed sorting of index tuples, safe binomials."""

from __future__ import annotations

from math import comb


def comb0(n: int, r: int) -> int:
    """Binomial coefficient, 0 whenever r is outside [0, n]."""
    if n < 0 or r < 0 or r > n:
        return 0
    return comb(n, r)


def sort_with_sign(indices):
    """Sort a tuple of indices, tracking the permutation parity.

    Returns (sorted_tuple, sign); sign is 0 if an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign
