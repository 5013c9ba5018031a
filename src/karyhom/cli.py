"""Command-line front end: ``karyhom VERB --OPTION VALUE ...``.

The verb table `_VERBS` declares the options of each verb; one parser
reads argv and writes ``--help`` from it.  Exit status: 0 success, 1 a
validator assertion failed, 2 usage error (one line on stderr; this
includes a character that is not a sum of Schur characters), 3 size
cap exceeded.  JSON output is byte-deterministic.

Engine modules return exact data (ints, dicts, lists) and this module
renders it: JSON through `_json_out`, CSV through `_csv`, the one CSV
writer, and text.  The log2 column of `table` is added here, and it is
the one use of floating point in the package.

Only the algebra core is imported with this module: `families` loads
only for --family, and each verb imports the engine modules it runs
when it runs, so a process pays start-up only for what it runs.
"""

import gc
import json
import math
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .algebra import DEFAULT_SIZE_CAP, algebra_to_json_dict, check_jacobi, load_algebra
from .errors import ConsistencyError, InputError, ResourceCapError, shown

SCHEMA = "karyhom-cli/1"


def _json_out(payload) -> None:
    doc = {"schema": SCHEMA}
    doc.update(payload)
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _csv(header, rows) -> str:
    """A header line, then one line per row; cells are names and numbers,
    written by str, so none needs quoting."""
    return "".join(",".join(map(str, line)) + "\n" for line in [header, *rows])


def _family_spec(args):
    """The `FamilySpec` of --family; for current, --k/--m/--n go to the
    inner family."""
    from .families import FamilySpec

    inner = FamilySpec(tag=args.inner, k=args.k, m=args.m, n=args.n) if args.inner else None
    if args.family != "current":
        return FamilySpec(tag=args.family, k=args.k, m=args.m, n=args.n, j=args.j, inner=inner)
    if inner is None:
        raise InputError("--family current requires --inner")
    if inner.tag == "current":
        raise InputError("--inner current is not supported: --j sets the outer truncation only")
    return FamilySpec(tag="current", j=args.j, inner=inner)


REQUIRED = object()  # the default of an option that must be given
_SOURCE = {  # the options of every verb that reads an algebra
    "family": (str, None), "input": (str, None), "k": (int, None), "m": (int, None),
    "n": (int, None), "j": (int, None), "inner": (str, None), "size-cap": (int, DEFAULT_SIZE_CAP),
}


def _resolve_algebra(args):
    """(algebra, description, family_spec_or_None) from --family/--input."""
    if args.input and args.family:
        raise InputError("provide exactly one algebra source, not both")
    if args.input:
        for name in ("k", "m", "n", "j", "inner"):
            if getattr(args, name) is not None:
                raise InputError(f"--{name} is a family parameter; --input takes none")
        alg = load_algebra(args.input)
        return alg, f"custom({os.path.basename(args.input)})", None
    if args.family:
        spec = _family_spec(args)
        return spec.build(args.size_cap), spec.describe(), spec
    raise InputError("provide exactly one algebra source: --family or --input")


class _Parser:
    """Reads argv as `_VERBS` declares it: a verb, then ``--name value``
    or ``--name=value`` pairs.  A usage error raises InputError; --help,
    VERB --help and --version parse to command None and the text to print."""

    def __init__(self, verb=None):
        self.verb = verb if verb in _VERBS else None

    def format_help(self) -> str:
        """The options of self.verb, or the list of verbs."""
        if self.verb is None:
            lines = [f"usage: karyhom {{{','.join(_VERBS)}}} [--OPTION VALUE ...]",
                     "       karyhom [VERB] --help | --version", "",
                     "Exact homology of nilpotent k-ary Lie algebras.", "", "verbs:"]
            lines += (f"    {verb:<10} {entry[1]}" for verb, entry in _VERBS.items())
        else:
            _, about, options = _VERBS[self.verb]
            lines = [f"usage: karyhom {self.verb} [--OPTION VALUE ...]", "", about, "", "options:"]
            for name, (kind, default) in options.items():
                shape = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
                note = {None: "", REQUIRED: "  (required)"}.get(default, f"  (default {default})")
                lines.append(f"    --{name} {shape}{note}")
        return "\n".join(lines) + "\n"

    def parse_args(self, argv) -> SimpleNamespace:
        """The verb as command, and one attribute per option of the verb,
        its dashes read as underscores."""
        if not argv:
            raise InputError(f"give a verb: {', '.join(_VERBS)}")
        verb, *words = argv
        if verb in ("-h", "--help", "--version"):
            text = f"karyhom {__version__}\n" if verb == "--version" else self.format_help()
            return SimpleNamespace(command=None, text=text)
        if verb not in _VERBS:
            raise InputError(f"unknown verb {shown(verb)}; the verbs are {', '.join(_VERBS)}")
        options = _VERBS[verb][2]
        values = {name: default for name, (_, default) in options.items()}
        words = iter(words)
        for word in words:
            if word in ("-h", "--help"):
                return SimpleNamespace(command=None, text=_Parser(verb).format_help())
            flag, eq, value = word.partition("=")
            if flag[:2] != "--" or flag[2:] not in options:
                listed = ", ".join(f"--{name}" for name in options)
                raise InputError(f"unknown option {shown(word)} for {verb}; its options are {listed}")
            if not eq:
                value = next(words, None)
                if value is None or value.startswith("--"):
                    raise InputError(f"{flag} expects a value")
            kind = options[flag[2:]][0]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    # a well-formed literal fails only past the interpreter's digit limit
                    if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", value):
                        raise InputError(f"{flag} has too many digits to read as an integer") from None
                    raise InputError(f"{flag} expects an integer, got {shown(value)}") from None
            elif isinstance(kind, tuple) and value not in kind:
                raise InputError(f"{flag} expects one of {', '.join(kind)}, got {shown(value)}")
            values[flag[2:]] = value
        for name, value in values.items():
            if value is REQUIRED:
                raise InputError(f"{verb} requires --{name}")
        return SimpleNamespace(command=verb, **{k.replace("-", "_"): v for k, v in values.items()})


def build_parser(verb=None) -> _Parser:
    """The parser of every verb; its help is verb's when verb names one."""
    return _Parser(verb)


def _cmd_compute(args) -> int:
    from .chains import ChainLayout, check_cap, differential_matrix
    from .homology import betti, betti_all
    from .matrices import write_matrix_market

    if args.degree is not None and args.format != "json":
        raise InputError(f"--degree prints JSON only, not --format {args.format}")
    alg, desc, _ = _resolve_algebra(args)
    layout = ChainLayout.of(alg)
    t = args.degree
    if t is not None:
        h = betti(alg, t, cap=args.size_cap)  # ranks d_t and d_{t+k-1} only
    if args.export_mm:
        check_cap(alg, layout.degrees, args.size_cap)
        try:
            os.makedirs(args.export_mm, exist_ok=True)
            for d in layout.degrees:
                if d >= alg.arity:
                    write_matrix_market(
                        differential_matrix(alg, d),
                        os.path.join(args.export_mm, f"boundary_{d}.mtx"),
                    )
        except OSError as exc:
            raise InputError(f"cannot export to {args.export_mm}: {exc}") from exc
    if t is not None:
        kernel, image = layout.kernel_dim(t), layout.boundary_rank(t)
        _json_out({"algebra": desc, "degree": t, "betti": h, "kernel": kernel, "image": image})
        return 0
    report = betti_all(alg, description=desc, cap=args.size_cap)
    if args.format == "json":
        # degrees become str keys before sort_keys orders them, so "10"
        # precedes "3" as it always has in karyhom-report/3
        fields = {
            name: {str(t): v for t, v in value.items()} if isinstance(value, dict) else value
            for name, value in report._asdict().items()
        }
        _json_out({"report": {"schema": "karyhom-report/3", **fields}})
    elif args.format == "csv":
        columns = (report.chain_dims, report.kernel_dims, report.image_dims, report.betti)
        rows = ([t, *(c[t] for c in columns)] for t in report.degrees)
        sys.stdout.write(_csv(("degree", "chain_dim", "kernel", "image", "betti"), rows))
    else:
        sys.stdout.write(f"algebra: {desc}\n")
        for t in report.degrees:
            sys.stdout.write(f"  H^{t} = {report.betti[t]}\n")
        sys.stdout.write(f"  total = {report.total}\n")
    return 0


def _verify_checks(alg, desc, spec, cap):
    from .chains import verify_d_squared
    from .homology import FAMILY_FORMS, verify_family
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

    if spec is not None and spec.tag in FAMILY_FORMS:
        rec = verify_family(alg, spec.tag, cap=cap)
        checks.append({"check": FAMILY_FORMS[spec.tag][0], "ok": rec["ok"], "detail": rec})
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


def _log2(bound: int) -> str:
    """log2 of a bound to 10 significant digits; one within 1e-12 of an
    integer shown as that integer, 'n.0'."""
    x = math.log2(bound)
    if abs(x - round(x)) < 1e-12:
        return f"{round(x):.1f}"
    return f"{x:.{max(1, 10 - len(str(int(x))))}f}"


def _cmd_table(args) -> int:
    from .toral import toral_table_rows

    try:
        k_list = tuple(int(x) for x in args.k.split(","))
    except ValueError:
        raise InputError(f"--k expects comma-separated integers, got {shown(args.k)}")
    # each bound column k<k> is followed by its log2 column k<k>_log2
    header = ["n", *(key for k in k_list for key in (f"k{k}", f"k{k}_log2"))]
    rows = []
    for n, *bounds in (row.values() for row in toral_table_rows(args.nmax, k_list)):
        rows.append([n, *(cell for b in bounds for cell in (b, _log2(b)))])
    if args.format == "json":
        _json_out({"table": [dict(zip(header, row)) for row in rows]})
    elif args.format == "csv":
        sys.stdout.write(_csv(header, rows))
    else:
        table = [["n", *(key for k in k_list for key in (f"k={k}", "log2"))]]
        table += [list(map(str, row)) for row in rows]
        widths = [max(map(len, column)) for column in zip(*table)]
        sys.stdout.write("".join("  ".join(map(str.rjust, line, widths)) + "\n" for line in table))
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
                f"S_({', '.join(map(str, item['partition']))}) x{item['multiplicity']}"
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


# verb -> (handler, help line, {option: (int, str or a tuple of choices, default)})
_VERBS = {
    "compute": (_cmd_compute, "Betti numbers of one algebra",
                {**_SOURCE, "format": (("json", "csv", "text"), "json"), "degree": (int, None),
                 "export-mm": (str, None)}),
    "verify": (_cmd_verify, "run all validators applicable to the algebra",
               {**_SOURCE, "format": (("json", "text"), "json")}),
    "table": (_cmd_table, "toral lower-bound table",
              {"nmax": (int, 20), "k": (str, "2,3,4,5"), "format": (("json", "csv", "text"), "text")}),
    "decompose": (_cmd_decompose, "Schur decomposition of one homology group",
                  {**_SOURCE, "format": (("json", "text"), "json"), "degree": (int, REQUIRED)}),
    "check": (_cmd_check, "Jacobi identity and d^2 = 0 only (JSON)", _SOURCE),
    "dump": (_cmd_dump, "emit the algebra JSON document", _SOURCE),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.command is None:  # --help or --version
            sys.stdout.write(args.text)
            return 0
        if getattr(args, "size_cap", 0) < 0:
            raise InputError(f"--size-cap must be at least 0, got {shown(args.size_cap)}")
        return _VERBS[args.command][0](args)
    except ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (InputError, ConsistencyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    """The process entry of ``python -m karyhom.cli`` and of the
    ``karyhom`` console script: run `main`, freeze the collector, exit
    with main's status.

    At shutdown the interpreter runs full cyclic collections over every
    tracked object of every loaded module: 6-10 ms of a 50-75 ms run on
    2 cores under Python 3.11.  Freezing the collector once the verb has
    returned leaves them nothing to walk.  Shutdown still clears the
    modules, so reference counting frees everything outside a reference
    cycle as before; only objects in a cycle are left to the operating
    system, and no finalizer of theirs runs.  That loses nothing here:
    karyhom defines no ``__del__``, and `load_algebra` and
    `write_matrix_market` close the files they open with ``with``.
    The exit goes through `sys.exit`, so atexit handlers, the flush of
    stdout and stderr and exit status 120 on a failed flush are
    unchanged.  `main` never freezes: tests and the bench trace mode
    call it in-process and keep a collectable heap.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
