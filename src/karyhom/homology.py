"""Betti numbers of the generalized Chevalley-Eilenberg complex.

The homology at a layout degree t is ker d_t / im d_{t+k-1}; with exact
ranks this is Betti(t) = (C(dim, t) - rank d_t) - rank d_{t+k-1}.  H^0 is
1 (trivial coefficients, zero augmentation) and is included in totals.

Besides per-degree reports, this module carries the closed-form
validators for the Heisenberg, ACJ and free 3-step families, the ACJ
adjoint contraction theta_j, and the current-algebra total-homology
comparison used to probe the tensor-power property.  Reports and
validator records are exact data (ints, dicts and lists); `cli` renders
them.  The validators take every rank from the algebra's `ChainLayout`,
so nothing here eliminates; `theta_matrix` indexes theta_j for demos,
tests and outside checks.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import KaryAlgebra, lower_central_series
from .chains import (
    DEFAULT_SIZE_CAP, ChainLayout, _boundary_rows, _drop_factor, _indexed, check_cap, comb0,
)
from .errors import InputError


def betti(alg: KaryAlgebra, t: int, *, cap=DEFAULT_SIZE_CAP) -> int:
    """Betti number at a layout degree (0, 1, k, 2k-1, ...)."""
    layout = ChainLayout.of(alg)
    layout.check_degree(t, cap)
    return layout.betti(t)


# Per-degree Betti numbers of one algebra, plus totals.  The dicts are
# keyed by layout degree; image_dims holds the rank of the boundary
# leaving each degree.  `cli` renders it.
HomologyReport = namedtuple(
    "HomologyReport",
    "algebra arity dim degrees chain_dims kernel_dims image_dims betti total total_excluding_h0",
)


def betti_all(
    alg: KaryAlgebra,
    *,
    description: str = "",
    cap=DEFAULT_SIZE_CAP,
) -> HomologyReport:
    """Betti numbers at every layout degree, H^0 = 1 included."""
    layout = ChainLayout.of(alg)
    degrees = layout.degrees
    check_cap(alg, degrees, cap)
    chain_dims = {t: comb0(alg.dim, t) for t in degrees}
    image_dims = {t: layout.boundary_rank(t) for t in degrees}
    kernel_dims = {t: layout.kernel_dim(t) for t in degrees}
    bettis = {t: layout.betti(t) for t in degrees}

    total = sum(bettis.values())
    return HomologyReport(
        algebra=description or repr(alg),
        arity=alg.arity,
        dim=alg.dim,
        degrees=degrees,
        chain_dims=chain_dims,
        kernel_dims=kernel_dims,
        image_dims=image_dims,
        betti=bettis,
        total=total,
        total_excluding_h0=total - 1,
    )


def total_homology_all_degrees(alg: KaryAlgebra, *, cap=DEFAULT_SIZE_CAP) -> int:
    """Total homology of the full exterior-algebra complex.

    Sums ker d_t - im d_{t+k-1} over every degree t in [0, dim], not just
    the layout degrees; this is the quantity the 2-step lower-bound
    theorem controls.  Equals 2^dim - 2 * sum of all boundary ranks.
    """
    check_cap(alg, range(alg.dim + 1), cap)
    layout = ChainLayout.of(alg)
    total_rank = sum(layout.boundary_rank(t) for t in range(alg.arity, alg.dim + 1))
    return 2**alg.dim - 2 * total_rank


# -- Heisenberg validator ----------------------------------------------


def heisenberg_betti_formula(k: int, m: int, i: int) -> int:
    return comb0(k * m, i * (k - 1) + 1) - comb0(k * m, (i - 1) * (k - 1))


def heisenberg_image_formula(k: int, m: int, i: int) -> int:
    return comb0(k * m, (i - 1) * (k - 1))


def heisenberg_in_range(k: int, m: int, i: int) -> bool:
    """Degrees up to the middle of the exterior algebra."""
    return i * (k - 1) + 1 <= (k * m + 1) // 2


def verify_heisenberg(alg: KaryAlgebra, *, cap=DEFAULT_SIZE_CAP) -> dict:
    """Compare direct Betti numbers and boundary ranks of heisenberg(k, m)
    with the closed forms; k and m are read off alg.

    Rows inside the validity range are asserted (feed `ok`); outside it
    both values are reported without judgement.
    """
    k = alg.arity
    m = (alg.dim - 1) // k
    report = betti_all(alg, cap=cap)
    rows = []
    for t in report.degrees[2:]:  # degrees k, 2k-1, ...: i = 1, 2, ...
        idx = (t - 1) // (k - 1)
        brow = {
            "i": idx,
            "degree": t,
            "betti": report.betti[t],
            "formula": heisenberg_betti_formula(k, m, idx),
            "image": report.image_dims[t],
            "image_formula": heisenberg_image_formula(k, m, idx),
            "in_range": heisenberg_in_range(k, m, idx),
        }
        brow["betti_match"] = brow["betti"] == brow["formula"]
        brow["image_match"] = brow["image"] == brow["image_formula"]
        rows.append(brow)
    return {
        "family": "heisenberg",
        "k": k,
        "m": m,
        "rows": rows,
        "total": report.total,
        "ok": all(r["betti_match"] and r["image_match"] for r in rows if r["in_range"]),
    }


# -- ACJ: theta maps and closed forms -----------------------------------


def _acj_direction(alg: KaryAlgebra) -> int:
    """The basis index z whose complement a spans a codim-1 abelian ideal.

    z must occur in every bracket's arguments and in no bracket's output;
    the complement then brackets to zero among itself.
    """
    if not alg.brackets:
        raise InputError("algebra has no brackets; no distinguished direction")
    candidates = set(range(alg.dim))
    for args in alg.brackets:
        candidates &= set(args)
    for vec in alg.brackets.values():
        candidates -= set(vec)
    if not candidates:
        raise InputError("no basis direction lies in every bracket argument")
    return min(candidates)


def theta_matrix(alg: KaryAlgebra, j: int):
    """Adjoint contraction theta_j : wedge^j a -> wedge^{j-k+2} a, as a
    `matrices.SparseIntMatrix` in lexicographic order.

    theta_j(x_1 ^ ... ^ x_j) sums ad(z) over all (k-1)-subsets of the
    factors, with shuffle signs: it is d_{j+1} on z ^ omega, read in the
    coordinates of the abelian complement a.  z lies in every stored key
    and in no output, so every column of `_boundary_rows` holds z and no
    row does; `chains._drop_factor` deletes z from each mask, which
    leaves a monomial of a, and multiplies each column by the sign of
    moving z to its front, (-1)^(number of factors before z), which
    makes it z ^ omega.

    So rank theta_j = rank d_{j+1}, and dim ker theta_j = C(|a|, j) -
    rank d_{j+1}: deleting z is one to one on the monomials that
    hold z and on those that do not, so it maps the nonzero rows and
    columns of d_{j+1} one to one onto those of theta_j, entry for entry
    up to one sign per column, and signing columns keeps the rank.
    Outside [k-1, |a|] both ranks are 0.  The paper's
    beta_alpha = C(|a|, alpha) - C(|a|, alpha+k-2) + dim ker theta_{alpha-1}
    + dim ker theta_{alpha+k-2} is then the layout's `betti`.
    """
    z, k, ma = _acj_direction(alg), alg.arity, alg.dim - 1
    rows = _boundary_rows(alg, j + 1) if j >= k - 1 else {}
    return _indexed(_drop_factor(rows, alg.dim, z), ma, (comb0(ma, j - k + 2), comb0(ma, j)))


def acj_second_homology_formula(k: int, m: int) -> int:
    """Closed-form candidate for the Betti number at degree k."""
    return (
        comb0(k * m + 1, k)
        - m * comb0(k * m - k, k - 1)
        - comb0(m + 1, 2)
    )


def acj_classical_betti(m: int, i: int) -> int:
    """The known arity-2 ACJ Betti numbers C(m+1, floor((i+1)/2)) C(m, floor(i/2))."""
    return comb0(m + 1, (i + 1) // 2) * comb0(m, i // 2)


def verify_acj(alg: KaryAlgebra, *, cap=DEFAULT_SIZE_CAP) -> dict:
    """Compare direct Betti numbers of acj(k, m) with the closed forms
    (arity-2 per-degree formula; degree-k candidate); k and m are read
    off alg.  theta_j is d_{j+1} with signed columns, so ranking it
    would only restate the layout's ranks; `theta_matrix` holds it."""
    k = alg.arity
    m = (alg.dim - 1) // k
    report = betti_all(alg, cap=cap)
    hk = {
        "degree": k,
        "betti": report.betti.get(k),
        "closed_form": acj_second_homology_formula(k, m),
    }
    hk["match"] = hk["betti"] == hk["closed_form"]

    classical = None
    if k == 2:
        classical = []
        for t in report.degrees:
            b, f = report.betti[t], acj_classical_betti(m, t)
            classical.append({"degree": t, "betti": b, "formula": f, "match": b == f})
    classical_ok = classical is None or all(row["match"] for row in classical)

    return {
        "family": "acj",
        "k": k,
        "m": m,
        "h_k": hk,
        "classical": classical,
        "classical_ok": classical_ok,
        "total": report.total,
        "ok": hk["match"] and classical_ok,
    }


# -- free 3-step validator ----------------------------------------------


def free3_expected_betti(k: int) -> dict:
    """Closed-form Betti numbers of the dim-(2k+1) free 3-step algebra."""
    expected = {
        1: k,
        k: comb0(2 * k + 1, k) - (3 * k + 2),
        2 * k - 1: (2 * k + 1) * (k - 1),
    }
    if k == 3:
        expected[7] = 1  # top degree survives only when 3k-2 <= 2k+1
    return expected


def verify_free3(alg: KaryAlgebra, *, cap=DEFAULT_SIZE_CAP) -> dict:
    """Compare direct Betti numbers of free3small(k), k = alg.arity, with
    `free3_expected_betti`."""
    k = alg.arity
    report = betti_all(alg, cap=cap)
    rows = [
        {"degree": t, "betti": report.betti.get(t), "formula": f, "match": report.betti.get(t) == f}
        for t, f in sorted(free3_expected_betti(k).items())
    ]
    return {
        "family": "free3small",
        "k": k,
        "rows": rows,
        "total": report.total,
        "total_excluding_h0": report.total_excluding_h0,
        "ok": all(r["match"] for r in rows),
    }


# -- current algebras and the tensor-power property ----------------------


def property_m_check(alg: KaryAlgebra, j: int, *, cap=DEFAULT_SIZE_CAP) -> dict:
    """Does total homology of g (x) C[t]/t^j equal (total of g)^j?

    Reports the layout total of the current algebra next to the j-th
    power of the base total, plus the all-degree total compared with the
    dimension-only 2-step lower bound; the bound alone can already
    refute the tensor-power identity.
    """
    from .families import current_algebra

    cur = current_algebra(alg, j, cap=cap)
    base = betti_all(alg, cap=cap)
    curr = betti_all(cur, cap=cap)
    series = lower_central_series(cur)
    two_step = not series[-1] and len(series) <= 3

    result = {
        "truncation": j,
        "base_total": base.total,
        "power_total": base.total**j,
        "current_dim": cur.dim,
        "current_two_step": two_step,
        "current_total": curr.total,
        "current_total_all_degrees": total_homology_all_degrees(cur, cap=cap),
        "equal": curr.total == base.total**j,
    }
    if two_step:
        from .toral import refinement_bound

        bound = refinement_bound(cur.dim, 0, cur.arity)
        result["refinement_bound_dim_only"] = bound
        result["bound_refutes_power"] = bound > result["power_total"]
    return result
