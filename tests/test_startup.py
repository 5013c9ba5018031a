"""The import path: a karyhom process loads only what its verb runs.

The footprint test counts modules in a fresh interpreter, not time, so
it does not depend on the host's speed.  ``python -S`` skips the site
module, so no host ``.pth`` file adds modules of its own.  The source
scans at the end keep floating point out of the computational core,
monomial-mask bit arithmetic inside ``chains``, the elimination of
whole boundaries inside ``chains`` and ``matrices``, every size-cap
refusal inside one function, and the engine's sign code out of the
test oracles.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import karyhom

SRC = str(Path(karyhom.__file__).resolve().parent.parent)

FOOTPRINT = r"""
import io, json, sys

def loaded():
    return sorted(sys.modules)

stages = {}
import karyhom
stages["package"] = loaded()
import karyhom.cli
stages["cli"] = loaded()
out, sys.stdout = sys.stdout, io.StringIO()
codes = [karyhom.cli.main(["dump", "--family", "heisenberg", "--k", "3", "--m", "2"])]
stages["dump"] = loaded()
codes.append(karyhom.cli.main(["check", "--family", "heisenberg", "--k", "3", "--m", "2"]))
stages["check"] = loaded()
codes.append(karyhom.cli.main(["decompose", "--family", "free2", "--k", "2", "--n", "3", "--degree", "2"]))
stages["decompose"] = loaded()
codes.append(karyhom.cli.main(["compute", "--family", "heisenberg", "--k", "3", "--m", "2"]))
stages["compute"] = loaded()
codes.append(karyhom.cli.main(["verify", "--family", "heisenberg", "--k", "2", "--m", "2"]))
stages["verify"] = loaded()
sys.stdout = out
print(json.dumps({"codes": codes, "stages": stages}))
"""

TABLE = r"""
import io, json, sys
import karyhom.cli
out, sys.stdout = sys.stdout, io.StringIO()
code = karyhom.cli.main(["table", "--nmax", "3"])
sys.stdout = out
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

# the same verbs on an --input document, whose path is argv[1]
INPUT_FOOTPRINT = r"""
import io, json, sys
import karyhom.cli
path = sys.argv[1]
stages, codes = {}, []
out, sys.stdout = sys.stdout, io.StringIO()
for argv in (
    ["dump", "--input", path],
    ["check", "--input", path],
    ["decompose", "--input", path, "--degree", "2"],
    ["compute", "--input", path],
    ["verify", "--input", path],
):
    codes.append(karyhom.cli.main(argv))
    stages[argv[0]] = sorted(sys.modules)
sys.stdout = out
print(json.dumps({"codes": codes, "stages": stages}))
"""

# the CLI reads argv from its verb table, and no module imports
# annotations from __future__: each annotation names an object defined
# before it is read
UNLOADED = {"argparse", "gettext", "locale", "__future__"}
HEAVY_STDLIB = {"dataclasses", "inspect", "typing", "fractions", "decimal", "random"}
ENGINE = {f"karyhom.{m}" for m in ("chains", "homology", "schur", "toral")}


def _run_fresh(script, *args) -> dict:
    """Run script with args in a new ``python -S`` and parse the JSON it
    prints."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def footprint():
    doc = _run_fresh(FOOTPRINT)
    assert doc["codes"] == [0, 0, 0, 0, 0]
    return {stage: set(mods) for stage, mods in doc["stages"].items()}


def test_importing_the_package_runs_no_submodule(footprint):
    assert not {m for m in footprint["package"] if m.startswith("karyhom.")}


def test_importing_the_cli_loads_no_engine_and_no_heavy_stdlib(footprint):
    assert not footprint["cli"] & (ENGINE | HEAVY_STDLIB)


def test_dump_and_check_load_only_their_own_modules(footprint):
    assert not footprint["dump"] & ENGINE
    assert not footprint["check"] & (ENGINE - {"karyhom.chains"})


def test_dump_loads_no_matrices(footprint):
    assert "karyhom.matrices" not in footprint["dump"]


def test_decompose_loads_only_the_character_path(footprint):
    # it runs after dump and check, which load no homology or toral
    assert {"karyhom.chains", "karyhom.matrices", "karyhom.schur"} <= footprint["decompose"]
    assert not {"karyhom.homology", "karyhom.toral", "csv"} & footprint["decompose"]


def test_compute_and_verify_load_no_csv(footprint):
    # no module imports csv: the --format csv renderers join numbers with commas
    assert "csv" not in footprint["compute"] | footprint["verify"]


@pytest.fixture(scope="module")
def input_footprint(tmp_path_factory):
    from karyhom.algebra import algebra_to_json_dict
    from karyhom.families import free_two_step

    path = tmp_path_factory.mktemp("input") / "free2_2_3.json"
    path.write_text(json.dumps(algebra_to_json_dict(free_two_step(2, 3))))
    doc = _run_fresh(INPUT_FOOTPRINT, str(path))
    assert doc["codes"] == [0, 0, 0, 0, 0]
    return {stage: set(mods) for stage, mods in doc["stages"].items()}


def test_input_runs_load_no_families(input_footprint):
    # verify runs last, so its stage holds every module the five verbs loaded
    assert "karyhom.families" not in input_footprint["verify"]


def test_dump_and_check_load_no_matrices(input_footprint, footprint):
    assert "karyhom.chains" in input_footprint["check"] and "karyhom.chains" in footprint["check"]
    assert "karyhom.matrices" not in input_footprint["check"] | footprint["check"]


def test_no_run_loads_argparse_gettext_or_locale(footprint, input_footprint):
    for stage, modules in [*footprint.items(), *input_footprint.items()]:
        assert not modules & UNLOADED, stage


def test_parser_of_one_verb_and_of_all(capsys):
    from karyhom.cli import build_parser, main

    verbs = "{compute,verify,table,decompose,check,dump}"
    assert main(["--help"]) == 0
    helps = {"--help": capsys.readouterr().out, "all": build_parser().format_help()}
    for text in helps.values():
        assert verbs in text
        for verb in ("compute", "verify", "table", "decompose", "check", "dump"):
            assert f"\n    {verb} " in text
    # the help of one verb lists its own options and no other verb
    one = build_parser("check").format_help()
    assert one.startswith("usage: karyhom check ") and "\n    --size-cap INT" in one
    assert "\n    compute " not in one and "--format" not in one


def test_table_loads_neither_homology_nor_chains():
    doc = _run_fresh(TABLE)
    assert doc["code"] == 0
    assert "karyhom.toral" in doc["modules"] and not UNLOADED & set(doc["modules"])
    assert not {"karyhom.homology", "karyhom.chains"} & set(doc["modules"])


def test_lazy_namespace_resolves_every_name_from_its_home():
    for name in karyhom.__all__:
        home = importlib.import_module(f"karyhom.{karyhom._HOME[name]}")
        obj = getattr(karyhom, name)
        assert obj is getattr(home, name), name
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name


def test_lazy_namespace_dir_star_and_unknown_names():
    assert set(karyhom.__all__) <= set(dir(karyhom))
    assert "__version__" in dir(karyhom)
    namespace = {}
    exec("from karyhom import *", namespace)
    assert all(namespace[name] is getattr(karyhom, name) for name in karyhom.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        karyhom.no_such_name
    assert not hasattr(karyhom, "no_such_name")


def test_annotations_of_every_exported_function_resolve():
    # Lean imports leave names such as `random` out of the engine
    # modules, so an annotation naming one would raise NameError here.
    import types
    import typing

    for name in karyhom.__all__:
        obj = getattr(karyhom, name)
        if isinstance(obj, types.FunctionType):
            typing.get_type_hints(obj)


# The computational core: every engine module.  Only `cli`, which
# renders the engine's exact data, shows floats (the table's log2 column).
CORE = ("algebra", "chains", "matrices", "homology", "schur", "families", "toral")
MATH_ALLOWED = {"comb", "gcd", "lcm"}


def _float_uses(tree):
    """(line, what) for each float literal, `float` name, true division
    and math import other than comb, gcd and lcm in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            yield node.lineno, "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for a in node.names:
                if a.name not in MATH_ALLOWED:
                    yield node.lineno, f"from math import {a.name}"


def test_computational_core_uses_no_floating_point():
    package = Path(karyhom.__file__).resolve().parent
    assert {p.stem for p in package.glob("*.py")} == set(CORE) | {"cli", "errors", "__init__"}
    found = [
        f"{name}.py:{line}: {what}"
        for name in CORE
        for line, what in _float_uses(ast.parse((package / f"{name}.py").read_text()))
    ]
    assert not found, found
    # the scan does see the CLI's display floats
    assert list(_float_uses(ast.parse((package / "cli.py").read_text())))


# Monomial masks are `chains`' own format: no other module shifts bits or
# counts them, so mask layout changes touch one module.
BIT_METHODS = {"bit_count", "bit_length"}


def _bit_uses(tree):
    """(line, what) for each <<, >> (also augmented) and call of
    .bit_count() or .bit_length() in a module's AST."""
    for node in ast.walk(tree):
        operation = isinstance(node, (ast.BinOp, ast.AugAssign))
        if operation and isinstance(node.op, (ast.LShift, ast.RShift)):
            yield node.lineno, type(node.op).__name__
        elif isinstance(node, ast.Attribute) and node.attr in BIT_METHODS:
            yield node.lineno, f".{node.attr}"


def test_only_chains_reads_mask_bits():
    package = Path(karyhom.__file__).resolve().parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(package.glob("*.py"))
        if path.stem != "chains"
        for line, what in _bit_uses(ast.parse(path.read_text()))
    ]
    assert not found, found
    # the scan does see chains' own bit arithmetic, and every form it looks for
    assert list(_bit_uses(ast.parse((package / "chains.py").read_text())))
    probe = "a << 1\nb >> 1\nc >>= 8\nd <<= 8\ne.bit_count()\nf.bit_length()\n"
    assert sorted(line for line, _ in _bit_uses(ast.parse(probe))) == [1, 2, 3, 4, 5, 6]


# Whole boundaries are eliminated in `chains`, on the rows it assembles,
# and `matrices` owns the echelon: no other module calls it, so every
# rank and character reads one record per boundary.
def _eliminate_uses(tree):
    """(line, what) for each name, attribute, import or string constant
    `_eliminate` in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_eliminate":
            yield node.lineno, "name"
        elif isinstance(node, ast.Attribute) and node.attr == "_eliminate":
            yield node.lineno, "attribute"
        elif isinstance(node, ast.alias) and node.name == "_eliminate":
            yield node.lineno, "import"
        elif isinstance(node, ast.Constant) and node.value == "_eliminate":
            yield node.lineno, "string"


def test_only_matrices_and_chains_name_eliminate():
    package = Path(karyhom.__file__).resolve().parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(package.glob("*.py"))
        if path.stem not in ("matrices", "chains")
        for line, what in _eliminate_uses(ast.parse(path.read_text()))
    ]
    assert not found, found
    # the scan does see chains' import and call, and every form it looks for
    chains = ast.parse((package / "chains.py").read_text())
    assert {what for _, what in _eliminate_uses(chains)} == {"import", "name"}
    probe = "from .matrices import _eliminate as e\n_eliminate(r)\nm._eliminate\ngetattr(m, '_eliminate')\n"
    kinds = [(1, "import"), (2, "name"), (3, "attribute"), (4, "string")]
    assert sorted(_eliminate_uses(ast.parse(probe))) == kinds


# The size cap is an int with one refusal, `algebra.refuse_over_cap`: no
# other code compares a count with it or raises ResourceCapError for it.
def _cap_uses(tree, function="<module>"):
    """(function, what) for each call of ResourceCapError ("construct")
    and each comparison naming `cap` ("compare") in a module's AST, with
    the name of the innermost enclosing function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _cap_uses(node, node.name)
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ResourceCapError":
            yield function, "construct"
        elif isinstance(node, ast.Compare):
            if any(isinstance(x, ast.Name) and x.id == "cap" for x in (node.left, *node.comparators)):
                yield function, "compare"
        yield from _cap_uses(node, function)


def test_one_refusal_compares_counts_with_the_size_cap():
    package = Path(karyhom.__file__).resolve().parent
    found = sorted(
        (path.stem, function, what)
        for path in package.glob("*.py")
        for function, what in _cap_uses(ast.parse(path.read_text()))
    )
    assert found == [
        ("algebra", "refuse_over_cap", "compare"),
        ("algebra", "refuse_over_cap", "construct"),
        ("families", "_subsets", "compare"),  # its loop guard, not a refusal
        ("toral", "toral_table_rows", "construct"),  # the str digit limit, not the cap
    ]
    named = [path.name for path in package.glob("*.py") if re.search(r"cap is (not )?None", path.read_text())]
    assert not named, named
    # the scan sees every form it looks for
    probe = "raise ResourceCapError('x')\ndef f(cap):\n    if n > cap or cap is None:\n        g(cap is not None)\n"
    assert sorted(_cap_uses(ast.parse(probe))) == [
        ("<module>", "construct"), ("f", "compare"), ("f", "compare"), ("f", "compare"),
    ]


# The definition oracles of tests/conftest.py evaluate brackets through
# their own sign rule: none of them reads the engine's sorting sign, its
# adjoint table or its row product, so an error there cannot hide in the
# oracle that checks it.
ENGINE_SIGN_CODE = {"sort_with_sign", "_adjoint", "_product"}


def _engine_sign_uses(tree):
    """(line, name) for each import from karyhom, and each attribute,
    naming `sort_with_sign`, `_adjoint` or `_product` in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "karyhom":
            yield from ((node.lineno, a.name) for a in node.names if a.name in ENGINE_SIGN_CODE)
        elif isinstance(node, ast.Attribute) and node.attr in ENGINE_SIGN_CODE:
            yield node.lineno, node.attr


def test_conftest_oracles_share_no_sign_code_with_the_engine():
    conftest = Path(__file__).resolve().parent / "conftest.py"
    found = list(_engine_sign_uses(ast.parse(conftest.read_text())))
    assert not found, found
    # the scan sees every form it looks for, and no import from elsewhere
    probe = (
        "from karyhom.algebra import sort_with_sign, KaryAlgebra\n"
        "from karyhom import _adjoint\n"
        "import karyhom.algebra\nkaryhom.algebra._product(a, b)\n"
        "from itertools import product as _product\n"
    )
    assert sorted(_engine_sign_uses(ast.parse(probe))) == [
        (1, "sort_with_sign"), (2, "_adjoint"), (4, "_product"),
    ]
