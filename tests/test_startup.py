"""The import path: a karyhom process loads only what its verb runs.

The footprint test counts modules in a fresh interpreter, not time, so
it does not depend on the host's speed.  ``python -S`` skips the site
module, so no host ``.pth`` file adds modules of its own.
"""

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

HEAVY_STDLIB = {"dataclasses", "inspect", "typing", "fractions", "decimal", "random"}
ENGINE = {f"karyhom.{m}" for m in ("chains", "homology", "schur", "toral")}


@pytest.fixture(scope="module")
def footprint():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 0]
    return {stage: set(mods) for stage, mods in doc["stages"].items()}


def test_importing_the_package_runs_no_submodule(footprint):
    assert not {m for m in footprint["package"] if m.startswith("karyhom.")}


def test_importing_the_cli_loads_no_engine_and_no_heavy_stdlib(footprint):
    assert not footprint["cli"] & (ENGINE | HEAVY_STDLIB)


def test_dump_and_check_load_only_their_own_modules(footprint):
    assert not footprint["dump"] & ENGINE
    assert not footprint["check"] & (ENGINE - {"karyhom.chains"})


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
