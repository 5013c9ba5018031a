"""Toral-rank bounds for nilpotent k-ary Lie algebras.

The basic inequality asks total homology >= 2^(dim center).  For 2-step
algebras with center z and complement v there is a sharper bound

    total >= sum_{i=0}^{k-1} | sum_j (-1)^j C(|v|, kj+i) | * 2^|z|

obtained from Euler characteristics of the mod-k graded subcomplexes of
the full exterior algebra.  `toral_table_rows` tabulates the z-free
factor as exact ints; `cli` renders the table and adds its log2 column.
Like every engine module this one uses no floating point.
"""

from __future__ import annotations

import sys
from itertools import islice

from .algebra import DEFAULT_SIZE_CAP, KaryAlgebra, center, lower_central_series
from .errors import InputError, ResourceCapError


def _bounds(k: int, n_max: int):
    """The z-free bounds for |v| = 0, 1, ..., n_max.

    The inner sums are the coefficients of (1+x)^|v| mod (x^k + 1), since
    x^(kj+i) = (-1)^j x^i there; each power is the last one times 1+x,
    with x * x^(k-1) = -1.  For |v| < k the reduction does nothing and
    the bound is 2^|v|, so an arity above n_max + 1 runs as n_max + 1:
    a column costs at most n_max + 1 coefficients, whatever k is.
    """
    if k < 2:
        raise InputError(f"arity must be at least 2, got {k}")
    coeffs = [1] + [0] * min(k - 1, n_max)
    yield 1
    for _ in range(n_max):
        coeffs = [coeffs[0] - coeffs[-1]] + [a + b for a, b in zip(coeffs[1:], coeffs)]
        yield sum(map(abs, coeffs))


def refinement_bound(dim_v: int, dim_z: int, k: int) -> int:
    """The 2-step lower bound for given complement/center dimensions."""
    if dim_v < 0 or dim_z < 0:
        raise InputError("dimensions must be nonnegative")
    return next(islice(_bounds(k, dim_v), dim_v, None)) * 2**dim_z


def toral_table_rows(n_max: int, k_list=(2, 3, 4, 5)):
    """One dict per n, {"n": n, "k<k>": bound, ...} in k_list order.

    Every bound is a sum of |coefficients| of (1+x)^n, so at most 2^n_max.
    A table whose 2^n_max has more digits than the interpreter converts
    to str (`sys.get_int_max_str_digits`, where it exists; 0 means no
    limit) is refused before any bound is computed, since printing it
    could fail.
    """
    if n_max < 1:
        raise InputError(f"the table needs n_max >= 1, got {n_max}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2^n_max has more than limit digits iff 2^n_max >= 10^limit, as it
    # is from n_max = 4 * limit on (16^limit > 10^limit); the clamp keeps
    # a huge n_max from building its power
    if limit and 2 ** min(n_max, 4 * limit) >= 10**limit:
        raise ResourceCapError(f"table bounds up to 2^{n_max} exceed the {limit}-digit str limit")
    if len(set(k_list)) != len(k_list):
        raise InputError(f"arities must be distinct, got {list(k_list)}")
    columns = [(f"k{k}", islice(_bounds(k, n_max), 1, None)) for k in k_list]
    return [{"n": n, **{name: next(bounds) for name, bounds in columns}} for n in range(1, n_max + 1)]


def verify_toral(alg: KaryAlgebra, *, description: str = "", cap=DEFAULT_SIZE_CAP) -> dict:
    """Check total homology against 2^(dim center), and for 2-step
    algebras against the refinement bound.  Both compare the all-degree
    total, which is what the bounds control: for k >= 3 the layout skips
    degrees, and its total can fall below 2^(dim center) (abelian(3, 3):
    5 against 8, with all-degree total 8)."""
    from .homology import betti_all, total_homology_all_degrees

    series = lower_central_series(alg)
    if series[-1]:
        raise InputError("toral bounds apply to nilpotent algebras only")
    z = len(center(alg))
    report = betti_all(alg, description=description, cap=cap)
    total_all = total_homology_all_degrees(alg, cap=cap)
    two_step = len(series) <= 3

    result = {
        "algebra": description or repr(alg),
        "dim": alg.dim,
        "center_dim": z,
        "total": report.total,
        "total_all_degrees": total_all,
        "power_bound": 2**z,
        "holds_power": total_all >= 2**z,
        "two_step": two_step,
    }
    if two_step:
        bound = refinement_bound(alg.dim - z, z, alg.arity)
        result["refinement_bound"] = bound
        result["holds_refinement"] = total_all >= bound
        result["ok"] = result["holds_power"] and result["holds_refinement"]
    else:
        result["ok"] = result["holds_power"]
    return result
