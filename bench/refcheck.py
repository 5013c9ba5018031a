"""Correctness gate: per-job references of the mathematical content.

A job's output is reduced to the numbers a user relies on (Betti
numbers, image dimensions and total; the Jacobi violation count and the
failing d^2 degrees; the Schur summands; the per-check ok flags) plus
its exit status.  Comparing these instead of stdout bytes lets a
declared schema change pass, while any change to a computed value fails.

When references are recorded they are first checked against formulas
that are known to hold and are written out here, independently of the
program: the arity-2 ACJ Betti numbers, the in-range arity-2 Heisenberg
rows, the Euler characteristic, and Schur dimensions summing to the Betti
number they decompose.
"""

from __future__ import annotations

import json
from math import comb


def content(verb: str, doc: dict):
    if verb == "compute":
        rep = doc["report"]
        return {"betti": rep["betti"], "image_dims": rep["image_dims"], "total": rep["total"]}
    if verb == "check":
        return {
            "jacobi_violations": doc["jacobi_violations"],
            "d_squared_failing_degrees": doc["d_squared_failing_degrees"],
        }
    if verb == "decompose":
        return {"summands": sorted([s["partition"], s["multiplicity"]] for s in doc["summands"])}
    if verb == "verify":
        return {"checks": {c["check"]: c["ok"] for c in doc["checks"]}}
    raise ValueError(f"no reference content for {verb!r}")


def parse(verb: str, rc: int, stdout: str):
    """(observation, parsed document or None) of one finished job."""
    try:
        doc = json.loads(stdout)
        found = content(verb, doc)
    except (ValueError, KeyError, TypeError):
        doc, found = None, None
    return {"exit": rc, "content": found}, doc


def mismatch(reference, observation):
    """None when the observation matches the reference, else a reason."""
    if reference is None:
        return "no reference recorded"
    if observation["exit"] != reference["exit"]:
        return f"exit status {observation['exit']}, reference {reference['exit']}"
    if observation["content"] is None:
        return "output is not a parseable result document"
    if observation["content"] != reference["content"]:
        return "mathematical content differs from the reference"
    return None


# -- independent formulas, applied when references are recorded ----------


def _params(family_args) -> dict:
    return dict(zip(family_args[::2], family_args[1::2]))


def _int(params, name):
    return int(params[f"--{name}"])


def schur_dim(partition, n: int) -> int:
    """dim S_lambda(C^n) by the hook-content formula."""
    conj = [sum(1 for p in partition if p > j) for j in range(partition[0])] if partition else []
    num = den = 1
    for i, row in enumerate(partition):
        for j in range(row):
            num *= n + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def _layout(k: int, dim: int) -> list:
    return [0] + list(range(1, dim + 1, k - 1))


def _heisenberg_rows(k, m, betti, image):
    """Problems on the in-range rows of the classical (arity 2) case,
    b_t = C(2m, t) - C(2m, t-2) and rank d_t = C(2m, t-2) for t <= m.

    For arity 3 and up the same closed forms fail inside their stated
    range (at heisenberg(3,5) degree 7 the exact and mod-p ranks are
    1350, the formula 1365), so they are no reference there.
    """
    if k != 2:
        return []
    out = []
    for t in betti:
        if t < 2 or t > m:
            continue
        want_image = comb(2 * m, t - 2)
        if image[t] != want_image:
            out.append(f"image at degree {t}: {image[t]}, formula {want_image}")
        want_betti = comb(2 * m, t) - want_image
        if betti[t] != want_betti:
            out.append(f"betti at degree {t}: {betti[t]}, formula {want_betti}")
    return out


def _acj2(m, betti):
    return [
        f"betti at degree {t}: {b}, formula {comb(m + 1, (t + 1) // 2) * comb(m, t // 2)}"
        for t, b in betti.items()
        if b != comb(m + 1, (t + 1) // 2) * comb(m, t // 2)
    ]


def _dim(p) -> int:
    tag = p["--family"]
    if tag in ("heisenberg", "acj"):
        return _int(p, "k") * _int(p, "m") + 1
    if tag == "free2":
        return _int(p, "n") + comb(_int(p, "n"), _int(p, "k"))
    if tag == "free3small":
        return 2 * _int(p, "k") + 1
    raise ValueError(f"no dimension formula for {tag}")


def formula_problems(job, doc: dict, betti_at) -> list:
    """Disagreements between one job's output and the independent formulas.

    ``betti_at(job)`` supplies the Betti number a decomposition must sum
    to, computed by the program's rank path.
    """
    p = _params(job.family_args)
    tag = p["--family"]
    if job.verb == "compute":
        rep = doc["report"]
        betti = {int(t): b for t, b in rep["betti"].items()}
        image = {int(t): r for t, r in rep["image_dims"].items()}
        k, dim = rep["arity"], _dim(p)
        out = []
        if sorted(betti) != _layout(k, dim):
            out.append(f"degrees {sorted(betti)} are not the layout of dim {dim}")
        else:
            lhs = sum((-1) ** i * betti[t] for i, t in enumerate(sorted(betti)))
            rhs = sum((-1) ** i * comb(dim, t) for i, t in enumerate(sorted(betti)))
            if lhs != rhs:
                out.append(f"Euler characteristic {lhs}, chain-space value {rhs}")
        if sum(betti.values()) != rep["total"]:
            out.append("total is not the sum of the Betti numbers")
        if tag == "heisenberg":
            out += _heisenberg_rows(k, _int(p, "m"), betti, image)
        if tag == "acj" and k == 2:
            out += _acj2(_int(p, "m"), betti)
        return out
    if job.verb == "verify":
        checks = {c["check"]: c for c in doc["checks"]}
        if tag == "heisenberg":
            rows = checks["heisenberg_formula"]["detail"]["rows"]
            betti = {r["degree"]: r["betti"] for r in rows}
            image = {r["degree"]: r["image"] for r in rows}
            return _heisenberg_rows(_int(p, "k"), _int(p, "m"), betti, image)
        if tag == "acj" and _int(p, "k") == 2:
            rows = checks["acj_formulas"]["detail"]["classical"]
            return _acj2(_int(p, "m"), {r["degree"]: r["betti"] for r in rows})
        return []
    if job.verb == "decompose":
        n = _int(p, "n")
        total = sum(mult * schur_dim(lam, n) for lam, mult in content("decompose", doc)["summands"])
        want = betti_at(job)
        return [] if total == want else [f"Schur dimensions sum to {total}, Betti number {want}"]
    return []
