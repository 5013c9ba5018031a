import json
import os
import subprocess
import sys
from collections import Counter

import pytest

# The CLI imports each verb's modules when the verb runs.  The tests that
# count rank calls patch `rank` in every loaded karyhom module, so all of
# them are loaded first: a module first imported under such a patch would
# keep the patched function after the test.
import karyhom.schur  # noqa: F401
import karyhom.toral  # noqa: F401
from karyhom.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


GOLDEN_HEIS31 = (
    '{"report":{"algebra":"heisenberg(k=3, m=1)","arity":3,'
    '"betti":{"0":1,"1":3,"3":3},"chain_dims":{"0":1,"1":4,"3":4},'
    '"degrees":[0,1,3],"dim":4,"euler_ok":true,'
    '"image_dims":{"0":0,"1":0,"3":1},"kernel_dims":{"0":1,"1":4,"3":3},'
    '"schema":"karyhom-report/2","total":7,"total_excluding_h0":6},'
    '"schema":"karyhom-cli/1"}\n'
)


def test_compute_heisenberg_json_golden(capsys):
    code, out = run_cli(capsys, "compute", "--family", "heisenberg", "--k", "3", "--m", "1")
    assert code == 0
    assert out == GOLDEN_HEIS31
    doc = json.loads(out)
    assert doc["schema"] == "karyhom-cli/1"
    assert doc["report"]["betti"] == {"0": 1, "1": 3, "3": 3}
    assert doc["report"]["total"] == 7


def test_compute_single_degree(capsys):
    code, out = run_cli(
        capsys, "compute", "--family", "heisenberg", "--k", "3", "--m", "2", "--degree", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == 28 and doc["degree"] == 3


def test_compute_is_byte_deterministic(capsys):
    args = ("compute", "--family", "free2", "--k", "3", "--n", "4")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_compute_csv_and_text(capsys):
    code, out = run_cli(
        capsys, "compute", "--family", "heisenberg", "--k", "2", "--m", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "degree,chain_dim,kernel,image,betti"
    code, out = run_cli(
        capsys, "compute", "--family", "heisenberg", "--k", "2", "--m", "1", "--format", "text"
    )
    assert "total = 6" in out


def test_verify_heisenberg_ok(capsys):
    code, out = run_cli(capsys, "verify", "--family", "heisenberg", "--k", "2", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    names = {c["check"] for c in doc["checks"]}
    assert {"jacobi", "d_squared", "toral", "heisenberg_formula"} <= names


def test_verify_reports_formula_failures(capsys):
    # the degree-k ACJ closed form overcounts for m >= 2: exit 1, honest record
    code, out = run_cli(capsys, "verify", "--family", "acj", "--k", "3", "--m", "2")
    assert code == 1
    doc = json.loads(out)
    acj_check = next(c for c in doc["checks"] if c["check"] == "acj_formulas")
    assert not acj_check["ok"]
    assert acj_check["detail"]["h_k"] == {
        "degree": 3,
        "betti": 28,
        "closed_form": 26,
        "match": False,
    }
    jac = next(c for c in doc["checks"] if c["check"] == "jacobi")
    assert jac["ok"]


def test_verify_ranks_each_boundary_once(monkeypatch, capsys):
    # the validators share the CLI algebra's memo, so no boundary is
    # ranked a second time on a rebuilt algebra
    import karyhom.matrices

    original = karyhom.matrices.rank
    calls = Counter()

    def counting_rank(matrix):
        calls[matrix] += 1
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if (name == "karyhom" or name.startswith("karyhom.")) and getattr(module, "rank", None) is original:
            monkeypatch.setattr(module, "rank", counting_rank)
    code, out = run_cli(capsys, "verify", "--family", "heisenberg", "--k", "2", "--m", "3")
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls and max(calls.values()) == 1


def _count_rank_calls(monkeypatch):
    """Replace rank in every karyhom module; returns the list of shapes ranked."""
    import karyhom.matrices

    original = karyhom.matrices.rank
    shapes = []

    def counting_rank(matrix):
        shapes.append((matrix.rows, matrix.cols))
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if (name == "karyhom" or name.startswith("karyhom.")) and getattr(module, "rank", None) is original:
            monkeypatch.setattr(module, "rank", counting_rank)
    return shapes


def test_compute_single_degree_ranks_two_boundaries(monkeypatch, capsys):
    shapes = _count_rank_calls(monkeypatch)
    code, out = run_cli(
        capsys, "compute", "--family", "heisenberg", "--k", "3", "--m", "2", "--degree", "3"
    )
    assert code == 0
    assert json.loads(out) == {
        "schema": "karyhom-cli/1",
        "algebra": "heisenberg(k=3, m=2)",
        "degree": 3,
        "betti": 28,
        "kernel": 34,
        "image": 1,
    }
    # d_3: wedge^3 -> wedge^1 and d_5: wedge^5 -> wedge^3 of a 7-dim algebra; not d_7
    assert sorted(shapes) == [(7, 35), (35, 21)]


def test_compute_single_degree_caps_only_its_boundaries(capsys):
    # heisenberg(2, 4) has 84 monomials at degree 3, which --degree 1 never touches
    argv = ("compute", "--family", "heisenberg", "--k", "2", "--m", "4", "--size-cap", "40")
    code, out = run_cli(capsys, *argv, "--degree", "1")
    assert code == 0 and json.loads(out)["betti"] == 8
    code, _ = run_cli(capsys, *argv)
    assert code == 3


def test_compute_degree_outside_layout_ranks_nothing(monkeypatch, capsys):
    shapes = _count_rank_calls(monkeypatch)
    code = main(["compute", "--family", "heisenberg", "--k", "3", "--m", "2", "--degree", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not in the layout" in captured.err
    assert shapes == []


def test_verify_reports_non_nilpotent_algebra(tmp_path, capsys):
    # [x1, x2, z] = x1 on heisenberg(3, 1) breaks the Jacobi identity and
    # nilpotency; verify reports both failures instead of a usage error
    code, out = run_cli(capsys, "dump", "--family", "heisenberg", "--k", "3", "--m", "1")
    doc = json.loads(out)
    doc["brackets"].append({"args": [0, 1, 3], "value": [[1, 0]]})
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--input", str(path))
    assert code == 1
    rec = json.loads(out)
    assert not rec["ok"]
    checks = {c["check"]: c for c in rec["checks"]}
    assert list(checks) == ["jacobi", "d_squared", "toral"]
    assert checks["jacobi"]["violations"] == 3 and not checks["jacobi"]["ok"]
    assert not checks["toral"]["ok"]
    assert "nilpotent" in checks["toral"]["detail"]["error"]


def test_table_text_and_json(capsys):
    code, out = run_cli(capsys, "table", "--nmax", "20")
    assert code == 0
    assert "259808" in out and "2900" in out
    code, out = run_cli(capsys, "table", "--nmax", "3", "--k", "2,5", "--format", "json")
    doc = json.loads(out)
    assert doc["table"][2] == {"n": 3, "k2": 4, "k2_log2": "2.0", "k5": 8, "k5_log2": "3.0"}
    code, out = run_cli(capsys, "table", "--nmax", "2", "--format", "csv")
    assert out.splitlines()[0] == "n,k2,k2_log2,k3,k3_log2,k4,k4_log2,k5,k5_log2"


def test_decompose(capsys):
    code, out = run_cli(
        capsys, "decompose", "--family", "free2", "--k", "3", "--n", "4", "--degree", "3"
    )
    assert code == 0
    doc = json.loads(out)
    partitions = sorted(tuple(s["partition"]) for s in doc["summands"])
    assert partitions == [(2, 1, 1, 1), (2, 2, 1), (3, 2, 1, 1)]
    assert sum(s["dimension"] for s in doc["summands"]) == 44


def test_check_and_dump_round_trip(tmp_path, capsys):
    code, out = run_cli(capsys, "dump", "--family", "heisenberg", "--k", "3", "--m", "1")
    assert code == 0
    path = tmp_path / "alg.json"
    path.write_text(out)
    code, out = run_cli(capsys, "check", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["jacobi_violations"] == 0

    code, out = run_cli(capsys, "compute", "--input", str(path))
    assert code == 0
    assert json.loads(out)["report"]["total"] == 7


def test_check_flags_broken_algebra(tmp_path, capsys):
    code, out = run_cli(capsys, "dump", "--family", "heisenberg", "--k", "3", "--m", "2")
    doc = json.loads(out)
    doc["brackets"].append({"args": [0, 2, 6], "value": [[1, 0]]})
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "check", "--input", str(path))
    assert code == 1
    rec = json.loads(out)
    assert rec["jacobi_violations"] > 0
    assert rec["d_squared_failing_degrees"] == [5, 6, 7]


def test_usage_errors(capsys):
    code, _ = run_cli(capsys, "compute", "--family", "heisenberg", "--k", "3")
    assert code == 2  # missing --m
    code, _ = run_cli(capsys, "compute")
    assert code == 2  # no algebra source
    assert main(["compute", "--family", "nosuch"]) == 2  # argparse rejects choice


HEIS21 = {"arity": 2, "dim": 3, "labels": ["x", "y", "z"]}


@pytest.mark.parametrize(
    "doc",
    [
        {**HEIS21, "brackets": [{"args": [0, 1]}]},  # no "value"
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [[1]]}]},  # half a pair
        {**HEIS21, "arity": "x", "brackets": []},
        None,  # no such file
    ],
    ids=["no-value", "short-pair", "arity-not-int", "missing-file"],
)
def test_malformed_input_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "alg.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    code = main(["check", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_size_cap_exit_code(capsys):
    code, _ = run_cli(
        capsys, "compute", "--family", "heisenberg", "--k", "3", "--m", "2",
        "--size-cap", "5",
    )
    assert code == 3
    code, _ = run_cli(
        capsys, "check", "--family", "heisenberg", "--k", "3", "--m", "4",
        "--size-cap", "10",
    )
    assert code == 3
    code, _ = run_cli(
        capsys, "decompose", "--family", "free2", "--k", "2", "--n", "4",
        "--degree", "3", "--size-cap", "2",
    )
    assert code == 3


def test_export_matrix_market(tmp_path, capsys):
    out_dir = tmp_path / "mm"
    code, _ = run_cli(
        capsys, "compute", "--family", "heisenberg", "--k", "3", "--m", "1",
        "--export-mm", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "boundary_3.mtx").exists()
    text = (out_dir / "boundary_3.mtx").read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate integer general")


def test_module_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "karyhom.cli", "table", "--nmax", "1", "--format", "csv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "1,2,1.0,2,1.0,2,1.0,2,1.0"


def test_jacobi_check_obeys_size_cap(capsys):
    # up to 132 (inner, outer) pairs; the largest chain space has 35 monomials
    for verb in ("check", "verify"):
        code, _ = run_cli(
            capsys, verb, "--family", "heisenberg", "--k", "3", "--m", "2",
            "--size-cap", "100",
        )
        assert code == 3, verb


@pytest.mark.parametrize(
    "verb, extra, fmt",
    [
        ("verify", (), "csv"),
        ("decompose", ("--degree", "3"), "csv"),
        ("check", (), "json"),
        ("check", (), "csv"),
        ("check", (), "text"),
    ],
)
def test_format_outside_verb_choices_exits_2(capsys, verb, extra, fmt):
    code, _ = run_cli(
        capsys, verb, "--family", "free2", "--k", "2", "--n", "3", *extra, "--format", fmt
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--family", "heisenberg", "--k", "2", "--m", "1", "--n", "5"),
        ("compute", "--family", "free2", "--k", "2", "--n", "3", "--m", "1"),
        ("verify", "--family", "acj", "--k", "2", "--m", "1", "--j", "2"),
        ("compute", "--family", "abelian", "--k", "2", "--n", "3", "--inner", "heisenberg"),
        ("compute", "--family", "current", "--inner", "heisenberg", "--k", "2", "--m", "1",
         "--n", "3", "--j", "2"),
        ("compute", "--family", "heisenberg", "--k", "2", "--m", "1", "--degree", "2",
         "--format", "csv"),
        ("compute", "--family", "heisenberg", "--k", "2", "--m", "1", "--degree", "2",
         "--format", "text"),
    ],
    ids=[
        "heisenberg-n", "free2-m", "acj-j", "abelian-inner", "current-inner-n",
        "degree-csv", "degree-text",
    ],
)
def test_unused_parameters_and_degree_formats_exit_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
