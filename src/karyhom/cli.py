"""Command-line front end.

Subcommands:
    compute    Betti numbers of a family or custom algebra
    verify     run every validator applicable to the algebra
    table      toral lower-bound table
    decompose  Schur decomposition of one homology group
    check      Jacobi identity and d^2 = 0 only
    dump       emit the algebra in the JSON interchange format

Exit status: 0 success, 1 a validator assertion failed, 2 usage error,
3 size cap exceeded.  JSON output is byte-deterministic.

Only argument parsing and algebra sources are imported with this
module; each verb imports the engine modules it runs when it runs, so a
process pays start-up only for its own verb.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebra import DEFAULT_SIZE_CAP, algebra_to_json_dict, check_jacobi, load_algebra
from .errors import InputError, ResourceCapError
from .families import FAMILY_TAGS, FamilySpec

SCHEMA = "karyhom-cli/1"


def _json_out(payload) -> None:
    doc = {"schema": SCHEMA}
    doc.update(payload)
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _family_spec(args) -> FamilySpec:
    """The spec of --family; for current, --k/--m/--n go to the inner family."""
    inner = FamilySpec(tag=args.inner, k=args.k, m=args.m, n=args.n) if args.inner else None
    if args.family != "current":
        return FamilySpec(tag=args.family, k=args.k, m=args.m, n=args.n, j=args.j, inner=inner)
    if inner is None:
        raise InputError("--family current requires --inner")
    return FamilySpec(tag="current", j=args.j, inner=inner)


def _resolve_algebra(args):
    """(algebra, description, family_spec_or_None) from --family/--input."""
    if getattr(args, "input", None) and getattr(args, "family", None):
        raise InputError("provide exactly one algebra source, not both")
    if getattr(args, "input", None):
        alg = load_algebra(args.input)
        return alg, f"custom({os.path.basename(args.input)})", None
    if getattr(args, "family", None):
        spec = _family_spec(args)
        return spec.build(), spec.describe(), spec
    raise InputError("provide exactly one algebra source: --family or --input")


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILY_TAGS)
    p.add_argument("--input", help="path to an algebra JSON document")
    p.add_argument("--k", type=int, help="bracket arity")
    p.add_argument("--m", type=int, help="number of bracket blocks")
    p.add_argument("--n", type=int, help="dimension of the generating space")
    p.add_argument("--j", type=int, help="current-algebra truncation")
    p.add_argument("--inner", help="inner family for --family current")


def _add_size_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karyhom",
        description="Exact homology of nilpotent k-ary Lie algebras.",
    )
    parser.add_argument("--version", action="version", version=f"karyhom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Betti numbers of one algebra")
    _add_source_args(p)
    _add_size_cap(p)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--degree", type=int, help="restrict the report to one chain degree")
    p.add_argument("--export-mm", metavar="DIR", help="write boundary matrices in MatrixMarket format")

    p = sub.add_parser("verify", help="run all validators applicable to the algebra")
    _add_source_args(p)
    _add_size_cap(p)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("table", help="toral lower-bound table")
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--k", default="2,3,4,5", help="comma-separated arities")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("decompose", help="Schur decomposition of one homology group")
    _add_source_args(p)
    _add_size_cap(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("check", help="Jacobi identity and d^2 = 0 only (JSON)")
    _add_source_args(p)
    _add_size_cap(p)

    p = sub.add_parser("dump", help="emit the algebra JSON document")
    _add_source_args(p)
    return parser


def _cmd_compute(args) -> int:
    from .chains import ChainLayout, check_cap, differential_matrix
    from .homology import betti, betti_all
    from .matrices import write_matrix_market
    from .util import comb0

    if args.degree is not None and args.format != "json":
        raise InputError(f"--degree prints JSON only, not --format {args.format}")
    alg, desc, _ = _resolve_algebra(args)
    layout = ChainLayout.of(alg)
    t = args.degree
    if t is not None and t not in layout.degrees:
        raise InputError(f"degree {t} is not in the layout {layout.degrees}")
    if args.export_mm:
        check_cap(alg, layout.degrees, args.size_cap)
        os.makedirs(args.export_mm, exist_ok=True)
        for d in layout.degrees:
            if d >= alg.arity:
                write_matrix_market(
                    differential_matrix(alg, d),
                    os.path.join(args.export_mm, f"boundary_{d}.mtx"),
                )
    if t is not None:
        h = betti(alg, t, cap=args.size_cap)  # ranks d_t and d_{t+k-1} only
        image = layout.boundary_rank(t)
        kernel = comb0(alg.dim, t) - image
        _json_out({"algebra": desc, "degree": t, "betti": h, "kernel": kernel, "image": image})
        return 0
    report = betti_all(alg, description=desc, cap=args.size_cap)
    if args.format == "json":
        _json_out({"report": report.to_json_dict()})
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(f"algebra: {desc}\n")
        for t in report.degrees:
            sys.stdout.write(f"  H^{t} = {report.betti[t]}\n")
        sys.stdout.write(f"  total = {report.total}\n")
    return 0


def _verify_checks(alg, desc, spec, cap):
    from .chains import verify_d_squared
    from .homology import verify_acj, verify_free3, verify_heisenberg
    from .toral import verify_toral

    checks = []

    jac = check_jacobi(alg, cap=cap)
    checks.append(
        {
            "check": "jacobi",
            "ok": not jac,
            "violations": len(jac),
            "sample": [list(v) for v in jac[:5]],
        }
    )
    d2 = verify_d_squared(alg, cap=cap)
    checks.append({"check": "d_squared", "ok": not d2, "failing_degrees": d2})

    try:
        tor = verify_toral(alg, description=desc, cap=cap)
    except InputError as exc:  # not nilpotent: no toral bound applies
        tor = {"ok": False, "error": str(exc)}
    checks.append({"check": "toral", "ok": tor["ok"], "detail": tor})

    tag = spec.tag if spec is not None else None
    if tag == "heisenberg":
        rec = verify_heisenberg(spec.k, spec.m, cap=cap, alg=alg)
        checks.append({"check": "heisenberg_formula", "ok": rec["ok"], "detail": rec})
    elif tag == "acj":
        rec = verify_acj(spec.k, spec.m, cap=cap, alg=alg)
        checks.append({"check": "acj_formulas", "ok": rec["ok"], "detail": rec})
    elif tag == "free3small":
        rec = verify_free3(spec.k, cap=cap, alg=alg)
        checks.append({"check": "free3_formula", "ok": rec["ok"], "detail": rec})
    return checks


def _cmd_verify(args) -> int:
    alg, desc, spec = _resolve_algebra(args)
    checks = _verify_checks(alg, desc, spec, args.size_cap)
    ok = all(c["ok"] for c in checks)
    if args.format == "json":
        _json_out({"algebra": desc, "checks": checks, "ok": ok})
    else:
        sys.stdout.write(f"algebra: {desc}\n")
        for c in checks:
            sys.stdout.write(f"  {c['check']}: {'PASS' if c['ok'] else 'FAIL'}\n")
    return 0 if ok else 1


def _cmd_table(args) -> int:
    from .toral import toral_table_csv, toral_table_rows, toral_table_text

    try:
        k_list = tuple(int(x) for x in args.k.split(","))
    except ValueError:
        raise InputError(f"--k expects comma-separated integers, got {args.k!r}")
    if args.format == "json":
        _json_out({"table": toral_table_rows(args.nmax, k_list)})
    elif args.format == "csv":
        sys.stdout.write(toral_table_csv(args.nmax, k_list))
    else:
        sys.stdout.write(toral_table_text(args.nmax, k_list))
    return 0


def _cmd_decompose(args) -> int:
    from .schur import character_by_weights, decompose_character, schur_dim

    alg, desc, _ = _resolve_algebra(args)
    table = character_by_weights(alg, args.degree, cap=args.size_cap)
    n = alg.weight_rank
    decomposition = decompose_character(table, n)
    payload = [
        {"partition": list(lam), "multiplicity": mult, "dimension": schur_dim(lam, n)}
        for lam, mult in decomposition
    ]
    if args.format == "json":
        _json_out({"algebra": desc, "degree": args.degree, "summands": payload})
    else:
        for item in payload:
            sys.stdout.write(
                f"S_{tuple(item['partition'])} x{item['multiplicity']}"
                f"  (dim {item['dimension']})\n"
            )
    return 0


def _cmd_check(args) -> int:
    from .chains import verify_d_squared

    alg, desc, _ = _resolve_algebra(args)
    d2 = verify_d_squared(alg, cap=args.size_cap)
    jac = check_jacobi(alg, cap=args.size_cap)
    ok = not jac and not d2
    _json_out(
        {
            "algebra": desc,
            "jacobi_violations": len(jac),
            "jacobi_sample": [list(v) for v in jac[:5]],
            "d_squared_failing_degrees": d2,
            "ok": ok,
        }
    )
    return 0 if ok else 1


def _cmd_dump(args) -> int:
    alg, _, _ = _resolve_algebra(args)
    sys.stdout.write(
        json.dumps(algebra_to_json_dict(alg), sort_keys=True, separators=(",", ":"))
        + "\n"
    )
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "decompose": _cmd_decompose,
    "check": _cmd_check,
    "dump": _cmd_dump,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
