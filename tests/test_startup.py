"""The import path: a karyhom process loads only what its verb runs.

The footprint test counts modules in a fresh interpreter, not time, so
it does not depend on the host's speed.  ``python -S`` skips the site
module, so no host ``.pth`` file adds modules of its own.  The source
scan at the end keeps floating point out of the computational core.
"""

import ast
import importlib
import json
import os
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

HEAVY_STDLIB = {"dataclasses", "inspect", "typing", "fractions", "decimal", "random"}
ENGINE = {f"karyhom.{m}" for m in ("chains", "homology", "schur", "toral")}


def _run_fresh(script) -> dict:
    """Run script in a new ``python -S`` and parse the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
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
    assert doc["codes"] == [0, 0]
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


def test_table_loads_neither_homology_nor_chains():
    doc = _run_fresh(TABLE)
    assert doc["code"] == 0
    assert "karyhom.toral" in doc["modules"]
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


# The computational core.  `toral` is the one module of the engine left
# out: its bound is an exact integer, but its table shows a log2 column.
CORE = ("algebra", "chains", "matrices", "homology", "schur", "families", "util")
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
    assert {p.stem for p in package.glob("*.py")} == set(CORE) | {"toral", "cli", "errors", "__init__"}
    found = [
        f"{name}.py:{line}: {what}"
        for name in CORE
        for line, what in _float_uses(ast.parse((package / f"{name}.py").read_text()))
    ]
    assert not found, found
    # the scan does see toral's display floats
    assert list(_float_uses(ast.parse((package / "toral.py").read_text())))
