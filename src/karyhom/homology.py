"""Betti numbers of the generalized Chevalley-Eilenberg complex.

The homology at a layout degree t is ker d_t / im d_{t+k-1}; with exact
ranks this is Betti(t) = (C(dim, t) - rank d_t) - rank d_{t+k-1}.  H^0 is
1 (trivial coefficients, zero augmentation) and is included in totals.

Besides per-degree reports, this module carries the closed-form
validators for the Heisenberg, ACJ and free 3-step families, the theta
(adjoint contraction) route to ACJ homology, and the current-algebra
total-homology comparison used to probe the tensor-power property.  The
validators take every rank from the algebra's `ChainLayout`; the theta
route ranks theta_j itself and serves library callers, demos and tests.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple

from .algebra import KaryAlgebra, lower_central_series
from .chains import DEFAULT_SIZE_CAP, ChainLayout, _split, check_cap
from .errors import InputError
from .families import current_algebra
from .matrices import SparseIntMatrix, kernel_dim
from .util import comb0


def betti(alg: KaryAlgebra, t: int, *, cap=DEFAULT_SIZE_CAP) -> int:
    """Betti number at a layout degree (0, 1, k, 2k-1, ...)."""
    layout = ChainLayout.of(alg)
    if t not in layout.degrees:
        raise InputError(f"degree {t} is not in the layout {layout.degrees}")
    k = alg.arity
    check_cap(alg, (t, t - k + 1, t + k - 1), cap)
    return layout.betti(t)


class HomologyReport(
    namedtuple(
        "HomologyReport",
        "algebra arity dim degrees chain_dims kernel_dims image_dims betti"
        " total total_excluding_h0 euler_ok",
    )
):
    """Per-degree Betti numbers of one algebra, plus totals.

    The dicts are keyed by layout degree; image_dims holds the rank of
    the boundary leaving each degree.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "schema": "karyhom-report/2",
            "algebra": self.algebra,
            "arity": self.arity,
            "dim": self.dim,
            "degrees": list(self.degrees),
            "chain_dims": {str(t): v for t, v in sorted(self.chain_dims.items())},
            "kernel_dims": {str(t): v for t, v in sorted(self.kernel_dims.items())},
            "image_dims": {str(t): v for t, v in sorted(self.image_dims.items())},
            "betti": {str(t): v for t, v in sorted(self.betti.items())},
            "total": self.total,
            "total_excluding_h0": self.total_excluding_h0,
            "euler_ok": self.euler_ok,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["degree", "chain_dim", "kernel", "image", "betti"])
        for t in self.degrees:
            writer.writerow(
                [
                    t,
                    self.chain_dims.get(t, ""),
                    self.kernel_dims.get(t, ""),
                    self.image_dims.get(t, ""),
                    self.betti.get(t, ""),
                ]
            )
        return buf.getvalue()


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
    kernel_dims = {t: chain_dims[t] - image_dims[t] for t in degrees}
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
        euler_ok=_euler_ok(degrees, bettis, chain_dims),
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
    ok = True
    for t in report.degrees[2:]:  # degrees k, 2k-1, ...: i = 1, 2, ...
        idx = (t - 1) // (k - 1)
        in_range = heisenberg_in_range(k, m, idx)
        brow = {
            "i": idx,
            "degree": t,
            "betti": report.betti[t],
            "formula": heisenberg_betti_formula(k, m, idx),
            "image": report.image_dims[t],
            "image_formula": heisenberg_image_formula(k, m, idx),
            "in_range": in_range,
        }
        brow["betti_match"] = brow["betti"] == brow["formula"]
        brow["image_match"] = brow["image"] == brow["image_formula"]
        if in_range:
            ok = ok and brow["betti_match"] and brow["image_match"]
        rows.append(brow)
    return {
        "family": "heisenberg",
        "k": k,
        "m": m,
        "rows": rows,
        "total": report.total,
        "ok": ok,
    }


# -- ACJ: theta maps and closed forms -----------------------------------


def _acj_split(alg: KaryAlgebra):
    """(z, sorted complement) for an algebra with codim-1 abelian ideal.

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
    z = min(candidates)
    a = [i for i in range(alg.dim) if i != z]
    return z, a


def theta_matrix(alg: KaryAlgebra, j: int) -> SparseIntMatrix:
    """Adjoint contraction theta_j : wedge^j a -> wedge^{j-k+2} a.

    theta_j(x_1 ^ ... ^ x_j) sums ad(z) over all (k-1)-subsets of the
    factors, with shuffle signs; equivalently the boundary of z ^ omega
    read in the coordinates of the abelian complement a.

    It is thus one block of d_{j+1}: the columns are the (j+1)-monomials
    that contain z, the rows the (j-k+2)-monomials that do not.  z lies
    in every stored key and in no output, so d_{j+1} is zero on the
    columns without z, and its images land in rows without z.  Dropping z
    from a sorted monomial keeps lexicographic order, so the columns come
    in the order of the j-subsets of a; each is multiplied by the sign of
    moving z to its front, which makes it z ^ omega.
    """
    k = alg.arity
    z, a = _acj_split(alg)
    ma = len(a)
    td = j - k + 2
    rows = comb0(ma, td)
    cols = comb0(ma, j)
    if j < k - 1 or rows == 0 or cols == 0:
        return SparseIntMatrix(rows, cols, {})

    def key(mono):
        return () if (z in mono) == (len(mono) == j + 1) else None

    block = _split(alg, j + 1, key)[()]
    sign = [-1 if mono.index(z) % 2 else 1 for mono in block.column_monomials]
    return SparseIntMatrix(
        rows, cols, {(r, c): sign[c] * v for (r, c), v in block.matrix.entries.items()}
    )


def theta_kernel_dim(alg: KaryAlgebra, j: int) -> int:
    """dim ker theta_j; 0 outside [0, |a|], where theta_j has no columns."""
    return kernel_dim(theta_matrix(alg, j))


def acj_homology_via_theta(alg: KaryAlgebra, alpha: int) -> int:
    """Betti number at degree alpha from theta kernel dimensions:

        C(|a|, alpha) - C(|a|, alpha+k-2)
            + dim ker theta_{alpha-1} + dim ker theta_{alpha+k-2}
    """
    k = alg.arity
    _, a = _acj_split(alg)
    ma = len(a)
    return (
        comb0(ma, alpha)
        - comb0(ma, alpha + k - 2)
        + theta_kernel_dim(alg, alpha - 1)
        + theta_kernel_dim(alg, alpha + k - 2)
    )


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
    off alg.  theta_j is d_{j+1} with signed columns, so the theta route
    would only restate the layout's ranks; it is left to
    `acj_homology_via_theta`."""
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
    expected = free3_expected_betti(k)
    rows = []
    ok = True
    for t in sorted(expected):
        match = report.betti.get(t) == expected[t]
        ok = ok and match
        rows.append(
            {"degree": t, "betti": report.betti.get(t), "formula": expected[t], "match": match}
        )
    return {
        "family": "free3small",
        "k": k,
        "rows": rows,
        "total": report.total,
        "total_excluding_h0": report.total_excluding_h0,
        "ok": ok,
    }


# -- current algebras and the tensor-power property ----------------------


def property_m_check(alg: KaryAlgebra, j: int, *, cap=DEFAULT_SIZE_CAP) -> dict:
    """Does total homology of g (x) C[t]/t^j equal (total of g)^j?

    Reports the layout total of the current algebra next to the j-th
    power of the base total, plus the all-degree total compared with the
    dimension-only 2-step lower bound; the bound alone can already
    refute the tensor-power identity.
    """
    cur = current_algebra(alg, j)
    base = betti_all(alg, cap=cap)
    curr = betti_all(cur, cap=cap)
    series = lower_central_series(cur)
    two_step = series[-1].dim == 0 and len(series) <= 3

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


def _euler_ok(degrees, betti, chain_dims) -> bool:
    """The alternating sums of Betti numbers and chain dimensions agree."""
    lhs = sum((-1) ** i * betti[t] for i, t in enumerate(degrees))
    rhs = sum((-1) ** i * chain_dims[t] for i, t in enumerate(degrees))
    return lhs == rhs
