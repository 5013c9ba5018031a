"""Mutation runner: every listed mutant must fail its tests.

Run from the repository root (stdlib only; pytest does not collect this
file):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

A mutant is one textual change (file under src/karyhom, old, new) with
the pytest arguments that must catch it.  For each mutant the runner
copies src/, tests/ and pyproject.toml into a temporary directory,
replaces the one occurrence of old by new there and runs pytest on the
subset.  A test of the subset must fail: a mutant whose subset passes
survived, and the runner exits 1; any other pytest error exits 2.  Each
subset is first run on the unchanged copy, where it must pass, so a
broken subset cannot count as a kill.  A mutant whose subset runs more
than ten times as long as on the unchanged copy, plus 10 s, has hung (a
loop that never ends fails CI's job time limit) and is killed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# pytest arguments per engine primitive
SCHUR = ("tests/test_schur.py", "-k", "decompose or summands or refus or round_trip or n_is")
CHARACTER = ("tests/test_schur.py", "-k", "character and not straightening")
MATRICES = ("tests/test_matrices.py",)
CHAINS = ("tests/test_chains.py",)
PARSER = ("tests/test_cli.py", "-k", "usage or version or name_equals or verb_help")
TORAL = ("tests/test_toral.py", "-k", "table")
SIZE_CAP = ("tests/test_cli.py", "-k", "size_cap")
RENDER = ("tests/test_cli.py", "-k", "csv or table")
CURRENT = ("tests/test_families.py", "tests/test_cli.py", "-k", "current")
ENTRY = ("tests/test_cli.py", "-k", "entry")
VERIFY = ("tests/test_homology.py", "tests/test_cli.py", "-k", "verify or heisenberg_image or acj_classical")
SORT_SIGN = ("tests/test_algebra.py", "-k", "sort_with_sign")
THETA = ("tests/test_homology.py", "-k", "theta")
SHOWN = ("tests/test_algebra.py", "-k", "refusal_prints")

# (name, file, old, new, pytest arguments)
MUTANTS = [
    ("straightening sign flipped", "schur.py",
     "+= sign * m", "-= sign * m", SCHUR),
    ("straightening sign ignored", "schur.py",
     "+= sign * m", "+= m", SCHUR),
    ("delta off by one", "schur.py",
     "delta = range(n - 1, -1, -1)", "delta = range(n - 1, 0, -1)", SCHUR),
    ("orbit-size check removed", "schur.py",
     "if count != size:", "if False:", SCHUR),
    ("sorted-form multiplicity check removed", "schur.py",
     "if work.get(top) != m:", "if False:", SCHUR),
    ("m_lambda guard relaxed", "schur.py",
     "if m < 0:", "if m < -1:", SCHUR),
    ("n type check removed", "schur.py",
     'if type(n) is not int:\n        raise InputError(f"n must be an integer, got {n!r}")\n    if not all',
     "if not all", SCHUR),
    ("unpack without its bias", "chains.py",
     "fields = (x + bias).to_bytes", "fields = x.to_bytes", CHARACTER),
    ("_eliminate without its content strip", "matrices.py",
     "content = gcd(*row.values())", "content = 1", MATRICES),
    ("_lex_index off by one", "chains.py",
     "index += comb(low.bit_length() - 1, j)", "index += comb(low.bit_length(), j)", CHAINS),
    ("choice check dropped", "cli.py",
     "elif isinstance(kind, tuple) and value not in kind:", "elif False:", PARSER),
    ("required-option check dropped", "cli.py",
     "if value is REQUIRED:", "if False:", PARSER),
    ("--name=value split ignored", "cli.py",
     'flag, eq, value = word.partition("=")', 'flag, eq, value = word, "", None', PARSER),
    ("missing-value check dropped", "cli.py",
     'if value is None or value.startswith("--"):', "if False:", PARSER),
    # 2^n never equals 10^limit, so reading the digit limit's >= as > changes
    # nothing; its off-by-one is a digit too many or too few
    ("digit limit one digit late", "toral.py",
     ">= 10**limit:", ">= 10**(limit + 1):", TORAL),
    ("digit limit one digit early", "toral.py",
     ">= 10**limit:", ">= 10**(limit - 1):", TORAL),
    ("trace sign dropped", "chains.py",
     "+= -vec[w] if i % 2 else vec[w]", "+= vec[w]", CHAINS),
    ("size-cap refusal reads > as >=", "algebra.py",
     "if count > cap:", "if count >= cap:", SIZE_CAP),
    ("size-cap refusal never refuses", "algebra.py",
     "if count > cap:", "if False:", SIZE_CAP),
    ("CSV writer drops its header", "cli.py",
     "for line in [header, *rows])", "for line in rows)", RENDER),
    ("current algebra drops the key sign", "families.py",
     "sign * c for w, c", "c for w, c", CURRENT),
    ("boundary sign reads x > w for x < w", "chains.py",
     "(b > w_bit)", "(b < w_bit)", CHAINS),
    ("boundary pool keeps the output", "chains.py",
     "if not b & (key_mask | w_bit)]", "if not b & key_mask]", CHAINS),
    ("entry skips the freeze", "cli.py",
     "gc.freeze()", "pass", ENTRY),
    ("rank_mod_p without its initial reduction", "matrices.py",
     "if (r := v % p)}", "if (r := v)}", MATRICES),
    # a pivot other than 1 never leaves its column, so the reduction loops
    ("rank_mod_p pivot row left unscaled", "matrices.py",
     "row[c] = row[c] * inv % p", "row[c] = row[c] % p", MATRICES),
    ("verify ok read over every row", "homology.py",
     'for row in rows if row["asserted"])', "for row in rows)", VERIFY),
    ("heisenberg image rows dropped", "homology.py",
     'yield t, "image", heisenberg_image_formula(k, m, i), asserted', "pass", VERIFY),
    ("k = 2 classical ACJ rows dropped", "homology.py",
     "if k == 2:", "if False:", VERIFY),
    ("sort_with_sign never flips its sign", "algebra.py",
     "sign = -sign", "sign = sign", SORT_SIGN),
    ("_drop_factor without its sign", "chains.py",
     "-v if (c >> (pos + 1)).bit_count() & 1 else v", "v", THETA),
    ("mirrored record left unreflected", "chains.py",
     "Counter({whole - w: c for w, c in", "Counter({w: c for w, c in", CHARACTER),
    # the 9-dimensional arity-3 example fails only from degree 2k = 6
    ("d squared decided at degree 2k-1 only", "chains.py",
     "for t in (2 * k - 1, 2 * k) if", "for t in (2 * k - 1,) if", CHAINS),
    ("shown bound read as 10^19", "errors.py",
     "PRINTED_BELOW = 10**18", "PRINTED_BELOW = 10**19", SHOWN),
]


def _copy(into: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(tree: Path, args, timeout=None) -> int | None:
    """pytest's exit status: 0 passed, 1 a test failed, other codes an
    error (a collection error, say), which is not a kill; None when the
    run outlasts timeout seconds."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        return subprocess.run(command, cwd=tree, capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in mutants}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        limit = {}  # pytest arguments -> seconds a mutant's run may take
        for args in dict.fromkeys(m[4] for m in mutants):
            start = time.perf_counter()
            if _pytest(clean, args) != 0:
                print(f"subset fails on the unchanged source: {' '.join(args)}")
                return 2
            limit[args] = 10 * (time.perf_counter() - start) + 10
        survivors = []
        for i, (name, file, old, new, args) in enumerate(mutants):
            tree = Path(tmp) / f"mutant{i}"
            _copy(tree)
            path = tree / "src" / "karyhom" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: {old!r} occurs {text.count(old)} times in {file}, not once")
                return 2
            path.write_text(text.replace(old, new))
            status = _pytest(tree, args, limit[args])
            if status not in (0, 1, None):
                print(f"{name}: pytest exited {status}, neither a pass nor a test failure")
                return 2
            killed = status != 0
            print(f"{'killed  ' if killed else 'SURVIVED'}  {name}{' (hung)' if status is None else ''}")
            if not killed:
                survivors.append(name)
            shutil.rmtree(tree)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
