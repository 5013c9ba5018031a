import io
import json
import os
import subprocess
import sys
from collections import Counter
from math import comb

import pytest

# The CLI imports each verb's modules when the verb runs.  The tests that
# count rank calls patch `rank`, `chains._boundary_rows`, which builds
# each whole boundary, and `_eliminate`, which ranks it, in every loaded
# karyhom module, so all of them are loaded first: a module first
# imported under such a patch would keep the patched function after the
# test.
import karyhom.schur  # noqa: F401
import karyhom.toral  # noqa: F401
from conftest import read_matrix_market
from karyhom import families
from karyhom.chains import differential_matrix
from karyhom.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


GOLDEN_HEIS31 = (
    '{"report":{"algebra":"heisenberg(k=3, m=1)","arity":3,'
    '"betti":{"0":1,"1":3,"3":3},"chain_dims":{"0":1,"1":4,"3":4},'
    '"degrees":[0,1,3],"dim":4,'
    '"image_dims":{"0":0,"1":0,"3":1},"kernel_dims":{"0":1,"1":4,"3":3},'
    '"schema":"karyhom-report/3","total":7,"total_excluding_h0":6},'
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


def test_compute_csv_and_text_golden(capsys):
    acj32 = ("compute", "--family", "acj", "--k", "3", "--m", "2", "--format")
    assert run_cli(capsys, *acj32, "csv") == (0, (
        "degree,chain_dim,kernel,image,betti\n"
        "0,1,1,0,1\n1,7,7,0,5\n3,35,33,2,28\n5,21,16,5,16\n7,1,1,0,1\n"
    ))
    assert run_cli(capsys, *acj32, "text") == (0, (
        "algebra: acj(k=3, m=2)\n"
        "  H^0 = 1\n  H^1 = 5\n  H^3 = 28\n  H^5 = 16\n  H^7 = 1\n  total = 51\n"
    ))


def test_compute_json_sorts_degrees_as_strings(capsys):
    # karyhom-report/3 keys its per-degree dicts by str(degree): "10" before "2"
    code, out = run_cli(capsys, "compute", "--family", "free2", "--k", "2", "--n", "4")
    assert code == 0
    assert '"betti":{"0":1,"1":4,"10":1,"2":20,"3":56,"4":84,"5":90,"6":84,"7":56,"8":20,"9":4}' in out


def test_compute_never_builds_the_adjoint_table(capsys, monkeypatch):
    # the layout reads traces off the diagonal bracket terms; the table
    # {R: {x: [x, R]}} would hold k - 1 entries per key and position
    import karyhom.algebra

    def refuse(alg):
        raise AssertionError("the adjoint table was built")

    monkeypatch.setattr(karyhom.algebra, "_adjoint", refuse)
    for fmt in ("json", "csv", "text"):
        code, out = run_cli(capsys, "compute", "--family", "heisenberg", "--k", "3", "--m", "2",
                            "--format", fmt)
        assert code == 0 and out
    code, out = run_cli(capsys, "compute", "--family", "heisenberg", "--k", "400", "--m", "1")
    assert code == 0
    assert json.loads(out)["report"]["betti"] == {"0": 1, "1": 400, "400": 400}


def test_jacobi_cap_refuses_a_huge_arity_before_the_adjoint_table(capsys, monkeypatch):
    # heisenberg(10^4, 1) has one key: the Jacobi check visits at least
    # (k+1) * k row pairs, 10^8 > 10^6, known from k and the key count
    import karyhom.algebra

    def refuse(alg):
        raise AssertionError("the adjoint table was built")

    monkeypatch.setattr(karyhom.algebra, "_adjoint", refuse)
    for verb in ("check", "verify"):
        code = main([verb, "--family", "heisenberg", "--k", "10000", "--m", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", verb
        assert captured.err == "error: Jacobi check visits at least 100010000 (inner, outer) pairs (cap 1000000)\n"


def test_verify_heisenberg_ok(capsys):
    code, out = run_cli(capsys, "verify", "--family", "heisenberg", "--k", "2", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    names = {c["check"] for c in doc["checks"]}
    assert {"jacobi", "d_squared", "toral", "heisenberg_formula"} <= names


@pytest.mark.parametrize("k, n", [(3, 3), (3, 4), (2, 4)])
def test_verify_abelian_passes_the_toral_power_bound(capsys, k, n):
    # the power bound reads the all-degree total, not the layout's
    code, out = run_cli(capsys, "verify", "--family", "abelian", "--k", str(k), "--n", str(n))
    assert code == 0
    toral = next(c for c in json.loads(out)["checks"] if c["check"] == "toral")
    assert toral["ok"] and toral["detail"]["holds_power"]
    assert toral["detail"]["total_all_degrees"] == toral["detail"]["power_bound"] == 2**n


def test_verify_text_format(capsys):
    # one PASS/FAIL line per check; the ACJ closed forms fail at m = 2
    code, out = run_cli(
        capsys, "verify", "--family", "acj", "--k", "2", "--m", "2", "--format", "text"
    )
    assert code == 1
    assert out == (
        "algebra: acj(k=2, m=2)\n"
        "  jacobi: PASS\n"
        "  d_squared: PASS\n"
        "  toral: PASS\n"
        "  acj_formulas: FAIL\n"
    )


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
    ranked = _count_rank_calls(monkeypatch)
    code, out = run_cli(capsys, "verify", "--family", "heisenberg", "--k", "2", "--m", "3")
    assert code == 0 and json.loads(out)["ok"] is True
    assert ranked and max(Counter(ranked).values()) == 1


def _count_rank_calls(monkeypatch, degrees=None):
    """Count the ranks taken in every karyhom module: `rank` calls, and
    the whole boundaries `_eliminate` reduces as `chains._boundary_rows`
    built them; returns the list of (rows, cols) shapes ranked.  The
    degree of every whole boundary built, ranked or not, is appended to
    degrees when it is given."""
    import karyhom.chains
    import karyhom.matrices

    original = karyhom.matrices.rank
    boundary_rows = karyhom.chains._boundary_rows
    eliminate = karyhom.matrices._eliminate
    shapes = []
    built = []  # (rows, shape) of each boundary built, kept so ids stay distinct

    def counting_rank(matrix):
        shapes.append((matrix.rows, matrix.cols))
        return original(matrix)

    def counting_boundary_rows(alg, t):
        rows = boundary_rows(alg, t)
        built.append((rows, (comb(alg.dim, t - alg.arity + 1), comb(alg.dim, t))))
        if degrees is not None:
            degrees.append(t)
        return rows

    def counting_eliminate(rows):
        shapes.extend(shape for whole, shape in built if whole is rows)
        return eliminate(rows)

    patches = {
        "rank": (original, counting_rank),
        "_boundary_rows": (boundary_rows, counting_boundary_rows),
        "_eliminate": (eliminate, counting_eliminate),
    }
    # chains imports _eliminate from matrices when it ranks, so the
    # counting one stays in matrices too; it counts only whole boundaries,
    # never the fresh rows of a counted rank call
    for name, module in list(sys.modules.items()):
        if name == "karyhom" or name.startswith("karyhom."):
            for attr, (function, counting) in patches.items():
                if getattr(module, attr, None) is function:
                    monkeypatch.setattr(module, attr, counting)
    return shapes


@pytest.mark.parametrize(
    "family, k, m, built",
    [
        ("heisenberg", 2, 5, [2, 2, 3, 3, 4, 4, 5, 6]),
        ("acj", 2, 5, [2, 2, 3, 3, 4, 4, 5, 6]),
        ("acj", 3, 3, [3, 3, 4, 4, 5, 5, 6, 6]),
    ],
)
def test_verify_builds_only_the_boundaries_its_verdict_needs(
    monkeypatch, capsys, family, k, m, built
):
    # the layout ranks d_k..d_6 (the rest are mirrors, top = dim + k - 1);
    # d^2 needs d_k, d_{2k-1} and d_{k+1}, d_{2k} only; no theta map is built
    degrees = []
    shapes = _count_rank_calls(monkeypatch, degrees)
    code, out = run_cli(capsys, "verify", "--family", family, "--k", str(k), "--m", str(m))
    assert code in (0, 1) and json.loads(out)["checks"]
    assert sorted(degrees) == built
    assert len(shapes) == len(set(built))


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
    # d_3: wedge^3 -> wedge^1, and d_4: wedge^4 -> wedge^2 in place of its
    # mirror d_5 (top = 7 + 3 - 1 = 9) of a 7-dim algebra; not d_7
    assert sorted(shapes) == [(7, 35), (21, 35)]


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


def test_compute_and_decompose_refuse_a_degree_with_one_message(capsys):
    # both verbs ask the layout whether t is a homology degree
    errors = []
    for verb in ("compute", "decompose"):
        code = main([verb, "--family", "free2", "--k", "3", "--n", "4", "--degree", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", verb
        errors.append(captured.err)
    assert errors[0] == errors[1] == "error: degree 2 is not in the layout [0, 1, 3, 5, 7]\n"


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


GOLDEN_TABLE_5_2_9 = {
    "json": '{"schema":"karyhom-cli/1","table":['
            '{"k2":2,"k2_log2":"1.0","k9":2,"k9_log2":"1.0","n":1},'
            '{"k2":2,"k2_log2":"1.0","k9":4,"k9_log2":"2.0","n":2},'
            '{"k2":4,"k2_log2":"2.0","k9":8,"k9_log2":"3.0","n":3},'
            '{"k2":4,"k2_log2":"2.0","k9":16,"k9_log2":"4.0","n":4},'
            '{"k2":8,"k2_log2":"3.0","k9":32,"k9_log2":"5.0","n":5}]}\n',
    "csv": "n,k2,k2_log2,k9,k9_log2\n"
           "1,2,1.0,2,1.0\n2,2,1.0,4,2.0\n3,4,2.0,8,3.0\n4,4,2.0,16,4.0\n5,8,3.0,32,5.0\n",
    "text": "n  k=2  log2  k=9  log2\n"
            "1    2   1.0    2   1.0\n"
            "2    2   1.0    4   2.0\n"
            "3    4   2.0    8   3.0\n"
            "4    4   2.0   16   4.0\n"
            "5    8   3.0   32   5.0\n",
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_table_golden(capsys, fmt):
    assert run_cli(capsys, "table", "--nmax", "5", "--k", "2,9", "--format", fmt) == (0, GOLDEN_TABLE_5_2_9[fmt])


def test_table_log2_column():
    from karyhom.cli import _log2

    assert _log2(2) == "1.0" and _log2(2**40) == "40.0"
    assert _log2(6) == "2.584962501"  # 10 significant digits
    assert _log2(1120) == "10.12928302"
    assert _log2(30) == "4.906890596"
    assert _log2(3**700) == "1109.473751"  # past the float range, 2**1024


def test_table_of_a_huge_arity_costs_its_rows_only(capsys):
    # for n < k every bound is 2^n; a column holds n_max + 1 coefficients, not k
    code, out = run_cli(capsys, "table", "--nmax", "3", "--k", "100000000", "--format", "csv")
    assert code == 0
    assert out == "n,k100000000,k100000000_log2\n1,2,1.0\n2,4,2.0\n3,8,3.0\n"


def test_decompose(capsys):
    code, out = run_cli(
        capsys, "decompose", "--family", "free2", "--k", "3", "--n", "4", "--degree", "3"
    )
    assert code == 0
    doc = json.loads(out)
    partitions = sorted(tuple(s["partition"]) for s in doc["summands"])
    assert partitions == [(2, 1, 1, 1), (2, 2, 1), (3, 2, 1, 1)]
    assert sum(s["dimension"] for s in doc["summands"]) == 44


def test_table_past_the_int_str_digit_limit_exits_3(capsys, monkeypatch):
    # each bound is at most 2^nmax, and 2^16000 and 2^30000 have more than
    # the 4300 digits int-to-str gives by default; refused from nmax alone
    def refuse(k, n_max):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(karyhom.toral, "_bounds", refuse)
    for argv in (("--nmax", "16000"), ("--nmax", "30000", "--k", "2")):
        for fmt in ("json", "csv", "text"):
            code = main(["table", *argv, "--format", fmt])
            captured = capsys.readouterr()
            assert code == 3, (argv, fmt)
            assert captured.out == ""
            assert captured.err == f"error: table bounds up to 2^{argv[1]} exceed the 4300-digit str limit\n"


def test_decompose_weights_wider_than_the_recursion_limit(tmp_path, capsys):
    # abelian on 1200 elements with weights e_i: H_1 is the standard module,
    # and the largest chain space checked, C(1200, 2) = 719400, fits the cap
    n = 1200
    doc = {
        "arity": 2,
        "dim": n,
        "labels": [f"a{i}" for i in range(n)],
        "brackets": [],
        "weights": [[int(i == j) for j in range(n)] for i in range(n)],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "decompose", "--input", str(path), "--degree", "1", "--format", "text")
    assert code == 0
    assert out == "S_(1) x1  (dim 1200)\n"


def test_decompose_text_partitions(capsys):
    # a one-part partition prints as S_(1), not as the 1-tuple S_(1,)
    expected = {1: "S_(1) x1  (dim 3)\n", 2: "S_(2, 1) x1  (dim 8)\n"}
    for degree, line in expected.items():
        code, out = run_cli(
            capsys, "decompose", "--family", "free2", "--k", "2", "--n", "3",
            "--degree", str(degree), "--format", "text",
        )
        assert code == 0
        assert out == line


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


def test_dump_current_algebra_golden(capsys):
    # acj(2, 1) is [z, x1] = x2; in g (x) C[t]/t^2 the product
    # [z.t1, x1.t0] has key (3, 1), sorted to [1, 3] by one transposition,
    # so its value carries the sign -1
    argv = ("dump", "--family", "current", "--inner", "acj", "--k", "2", "--m", "1", "--j", "2")
    assert run_cli(capsys, *argv) == (0, (
        '{"arity":2,"brackets":[{"args":[0,1],"value":[[1,2]]},'
        '{"args":[0,4],"value":[[1,5]]},{"args":[1,3],"value":[[-1,5]]}],"dim":6,'
        '"labels":["z.t0","x1_1.t0","x2_1.t0","z.t1","x1_1.t1","x2_1.t1"]}\n'
    ))


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


def test_check_decides_d_squared_without_the_middle_chain_spaces(capsys):
    # heisenberg(2, 12) has 25 dimensions and C(25, 8) > 10^6 monomials at
    # degree 8, but d^2 is decided by d_2, d_3 and d_4
    code, out = run_cli(capsys, "check", "--family", "heisenberg", "--k", "2", "--m", "12")
    assert code == 0
    assert json.loads(out)["d_squared_failing_degrees"] == []


def test_usage_errors(capsys):
    code, _ = run_cli(capsys, "compute", "--family", "heisenberg", "--k", "3")
    assert code == 2  # missing --m
    code, _ = run_cli(capsys, "compute")
    assert code == 2  # no algebra source
    assert main(["compute", "--family", "nosuch"]) == 2  # FamilySpec.build refuses the tag
    err = capsys.readouterr().err
    assert err.startswith("error: unknown family 'nosuch'") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "give a verb: compute, verify, table, decompose, check, dump"),
        (("homology", "--family", "heisenberg", "--k", "2", "--m", "1"),
         "unknown verb 'homology'; the verbs are compute, verify, table, decompose, check, dump"),
        (("check", "--family", "heisenberg", "--k", "2", "--m", "1", "--bogus", "1"),
         "unknown option '--bogus' for check; its options are "
         "--family, --input, --k, --m, --n, --j, --inner, --size-cap"),
        # argparse took a unique prefix silently
        (("decompose", "--family", "free2", "--k", "2", "--n", "3", "--deg", "2"),
         "unknown option '--deg' for decompose; its options are "
         "--family, --input, --k, --m, --n, --j, --inner, --size-cap, --format, --degree"),
        (("compute", "--family", "heisenberg", "--k", "2", "--m"), "--m expects a value"),
        (("check", "--input", "--family", "heisenberg", "--k", "2", "--m", "1"),
         "--input expects a value"),
        (("compute", "--family", "heisenberg", "--k", "x", "--m", "1"),
         "--k expects an integer, got 'x'"),
        (("verify", "--family", "heisenberg", "--k", "2", "--m", "1", "--format", "yaml"),
         "--format expects one of json, text, got 'yaml'"),
        (("decompose", "--family", "free2", "--k", "2", "--n", "3"), "decompose requires --degree"),
    ],
    ids=[
        "no-verb", "unknown-verb", "unknown-option", "abbreviation", "no-value",
        "option-as-value", "k-not-int", "format-yaml", "decompose-without-degree",
    ],
)
def test_usage_error_is_one_line_and_exit_2(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_version(capsys):
    assert run_cli(capsys, "--version") == (0, "karyhom 0.1.0\n")


def test_name_equals_value_form(capsys):
    spaced = run_cli(capsys, "compute", "--family", "heisenberg", "--k", "3", "--m", "1")
    joined = run_cli(capsys, "compute", "--family=heisenberg", "--k=3", "--m=1", "--format=json")
    assert spaced == joined == (0, GOLDEN_HEIS31)


def test_verb_help_lists_its_options(capsys):
    assert main(["decompose", "--family", "free2", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == build_parser("decompose").format_help()
    assert captured.out.startswith("usage: karyhom decompose ")
    for option in ("--family STR", "--size-cap INT  (default 1000000)",
                   "--format {json,text}  (default json)", "--degree INT  (required)"):
        assert f"\n    {option}\n" in captured.out, option


@pytest.mark.parametrize(
    "params",
    [("--k", "7", "--m", "9", "--j", "2"), ("--m", "2"), ("--n", "3"), ("--j", "2"),
     ("--inner", "acj")],
    ids=["k-m-j", "m", "n", "j", "inner"],
)
def test_family_parameters_with_input_exit_2(tmp_path, capsys, params):
    # an --input document takes no family parameter; the first one given is named
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({**HEIS21, "brackets": [{"args": [0, 1], "value": [[2, 1]]}]}))
    code = main(["check", "--input", str(path), *params])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {params[0]} is a family parameter; --input takes none\n"


HEIS21 = {"arity": 2, "dim": 3, "labels": ["x", "y", "z"]}


@pytest.mark.parametrize(
    "doc",
    [
        {**HEIS21, "brackets": [{"args": [0, 1]}]},  # no "value"
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [[1]]}]},  # half a pair
        {**HEIS21, "arity": "x", "brackets": []},
        None,  # no such file
        {**HEIS21, "arity": 2.9, "brackets": [{"args": [0.2, 1.7], "value": [[1, 2.6]]}]},
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [[True, 2]]}]},
        {**HEIS21, "dim": "3", "brackets": [{"args": [0, 1], "value": [[1, 2]]}]},
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [[1, 1], [1, True]]}]},
        {**HEIS21, "labels": "xyz", "brackets": []},
        {**HEIS21, "labels": [1, 2, 3], "brackets": []},
        # coefficient strings that Fraction reads but are not 'p/q'
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [["0.5", 2]]}]},
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [["1e9", 2]]}]},
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [[" 1/2", 2]]}]},
        # raw text that json.dumps cannot produce
        "[" * 100_000,
        '{"arity": 2, "dim": 1' + "0" * 5000 + ', "labels": [], "brackets": []}',
        {"arity": 2, "labels": ["x", "y", "z"], "brackets": []},
        {**HEIS21, "arity": 1, "brackets": []},
        {"arity": 2, "dim": 0, "labels": [], "brackets": []},
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [[1, 3]]}]},
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [[1, 2]]}] * 2},
        {**HEIS21, "brackets": [{"args": [0, 1], "value": [["1/0", 2]]}]},
        {**HEIS21, "brackets": [], "weights": [[1], [1]]},
        {**HEIS21, "brackets": [], "weights": [[1], [1], [2, 0]]},
    ],
    ids=[
        "no-value", "short-pair", "arity-not-int", "missing-file",
        "floats", "bool-coefficient", "dim-string", "repeated-output-index",
        "labels-string", "labels-not-strings", "decimal-coefficient",
        "exponent-coefficient", "spaced-coefficient", "deep-array", "long-dim",
        "no-dim", "arity-1", "dim-0", "output-out-of-range", "duplicate-args",
        "zero-denominator", "weights-missing-index", "weights-two-lengths",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "alg.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main(["check", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "values, message",
    [
        ([[[1, 2]], [[1, 2]]], "duplicate bracket args [0, 1]"),
        ([[[1, 2], [3, 2]]], "bracket [0, 1] repeats output index 2"),
        ([[["1/0", 2]]], "bad coefficient '1/0'"),
        ([[["0.5", 2]]], "coefficients must be integers or 'p/q' strings, got '0.5'"),
    ],
    ids=["duplicate-args", "repeated-output-index", "zero-denominator", "decimal-coefficient"],
)
def test_bracket_faults_are_reported_unwrapped(tmp_path, capsys, values, message):
    # a loader fault inside a bracket item is named once, without the item
    items = [{"args": [0, 1], "value": value} for value in values]
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({**HEIS21, "brackets": items}))
    code = main(["check", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def _assert_one_line_error(capsys, code):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_decompose_non_schur_character_exits_2(tmp_path, capsys):
    # weights (1,0) and (0,0) on an abelian algebra: H^1 has the weights
    # of no sum of Schur characters, since the orbit of (1,0) lacks (0,1)
    doc = {"arity": 2, "dim": 2, "labels": ["a", "b"], "brackets": [],
           "weights": [[1, 0], [0, 0]]}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code = main(["decompose", "--input", str(path), "--degree", "1"])
    _assert_one_line_error(capsys, code)


def test_export_to_unwritable_place_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([
        "compute", "--family", "heisenberg", "--k", "2", "--m", "1",
        "--export-mm", str(blocker / "x"),
    ])
    _assert_one_line_error(capsys, code)


def test_compute_degree_outside_layout_exports_nothing(tmp_path, capsys):
    out_dir = tmp_path / "mm"
    code = main([
        "compute", "--family", "heisenberg", "--k", "3", "--m", "1",
        "--degree", "2", "--export-mm", str(out_dir),
    ])
    _assert_one_line_error(capsys, code)
    assert not out_dir.exists()


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


def test_dump_takes_the_size_cap(capsys):
    # free3small(999) counts 1000999 basis elements and bracket terms
    argv = ["dump", "--family", "free3small", "--k", "999"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: building free_three_step_small(999) exceeds")
    code, out = run_cli(capsys, *argv, "--size-cap", "1001000")
    assert code == 0 and json.loads(out)["dim"] == 1999


def test_size_cap_admits_a_chain_space_of_exactly_cap_monomials(capsys):
    # the largest chain space is C(5, 2) = 10 for compute heisenberg(2, 2),
    # and C(10, 5) = 252, at degree t+k-1 = 5, for decompose free2(2, 4) at
    # 4 (its build counts 62)
    for argv, size, degree in (
        (("compute", "--family", "heisenberg", "--k", "2", "--m", "2"), 10, 2),
        (("decompose", "--family", "free2", "--k", "2", "--n", "4", "--degree", "4"), 252, 5),
    ):
        assert main([*argv, "--size-cap", str(size)]) == 0, argv
        assert capsys.readouterr().err == ""
        assert main([*argv, "--size-cap", str(size - 1)]) == 3, argv
        message = f"error: chain space at degree {degree} has {size} monomials (cap {size - 1})\n"
        assert capsys.readouterr().err == message


def test_family_builds_obey_size_cap(capsys):
    # refused before allocating: C(26, 12) = 9657700 subsets, C(402, 3) =
    # 10746800 products for the one bracket of heisenberg(3, 1),
    # C(10^6, 5 * 10^5) subsets under dump's default cap, a number the
    # check never forms, and the n + C(n, k) weight vectors of n entries
    # each of free2(2, 400) (32 million) and free2(10^5, 10^5) (10^10),
    # whose bracket counts alone fit the default cap
    for argv in (
        ("compute", "--family", "free2", "--k", "12", "--n", "26", "--size-cap", "1000"),
        ("compute", "--family", "current", "--inner", "heisenberg", "--k", "3", "--m", "1", "--j", "400"),
        ("dump", "--family", "free2", "--k", "500000", "--n", "1000000"),
        ("compute", "--family", "free2", "--k", "2", "--n", "400"),
        ("compute", "--family", "free2", "--k", "100000", "--n", "100000"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3, argv
        assert captured.out == ""
        assert captured.err.startswith("error: building ") and captured.err.count("\n") == 1


def test_size_cap_reaches_chain_space_and_jacobi_checks(capsys):
    # the builds fit (13, 25, 62 and 13 basis elements, bracket entries and
    # weight entries); the chain spaces (35, 1287, 120 monomials) and the
    # Jacobi bound of 48 do not
    for argv, check in (
        (("compute", "--family", "heisenberg", "--k", "3", "--m", "2", "--size-cap", "20"), "chain space"),
        (("check", "--family", "heisenberg", "--k", "3", "--m", "4", "--size-cap", "30"), "chain space"),
        (
            ("decompose", "--family", "free2", "--k", "2", "--n", "4", "--degree", "3", "--size-cap", "100"),
            "chain space",
        ),
        (("check", "--family", "heisenberg", "--k", "3", "--m", "2", "--size-cap", "40"), "Jacobi"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3, argv
        assert captured.err.startswith(f"error: {check}"), argv


_MM_HEADER = "%%MatrixMarket matrix coordinate integer general\n"

# every exported boundary, byte for byte: rows and columns in the
# lexicographic order of the wedge monomials
GOLDEN_EXPORTS = {
    ("heisenberg", "3", "1"): {
        "boundary_3.mtx": _MM_HEADER + "4 4 1\n4 1 1\n",
    },
    ("acj", "2", "2"): {
        "boundary_2.mtx": _MM_HEADER + "5 10 2\n4 1 1\n5 2 1\n",
        "boundary_3.mtx": _MM_HEADER + "10 10 4\n7 1 1\n8 1 -1\n10 3 1\n10 4 -1\n",
        "boundary_4.mtx": _MM_HEADER + "10 5 2\n9 1 -1\n10 2 -1\n",
        "boundary_5.mtx": _MM_HEADER + "5 1 0\n",
    },
}


def test_export_matrix_market(tmp_path, capsys):
    for family, k, m in sorted(GOLDEN_EXPORTS):
        out_dir = tmp_path / f"mm_{family}_{k}_{m}"
        code, _ = run_cli(
            capsys, "compute", "--family", family, "--k", k, "--m", m,
            "--export-mm", str(out_dir),
        )
        assert code == 0, family
        exported = {path.name: path.read_bytes().decode("ascii") for path in out_dir.iterdir()}
        assert exported == GOLDEN_EXPORTS[family, k, m], family
        alg = getattr(families, family)(int(k), int(m))
        for name, text in exported.items():
            t = int(name[len("boundary_") : -len(".mtx")])
            assert read_matrix_market(io.StringIO(text)) == differential_matrix(alg, t)


def test_module_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "karyhom.cli",
         "table", "--nmax", "1", "--format", "csv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "1,2,1.0,2,1.0,2,1.0,2,1.0"


def test_jacobi_check_obeys_size_cap(capsys):
    # the Jacobi bound is 48 row visits; the largest chain space has 35 monomials
    for verb in ("check", "verify"):
        code, _ = run_cli(
            capsys, verb, "--family", "heisenberg", "--k", "3", "--m", "2",
            "--size-cap", "40",
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
        ("compute", "--family", "heisenberg", "--k", "2", "--m", "1", "--size-cap", "-1"),
        ("verify", "--family", "heisenberg", "--k", "2", "--m", "1", "--size-cap", "-1"),
        ("decompose", "--family", "free2", "--k", "2", "--n", "3", "--degree", "2",
         "--size-cap", "-1"),
        ("check", "--family", "heisenberg", "--k", "2", "--m", "1", "--size-cap", "-1"),
        ("table", "--nmax", "-3"),
        ("table", "--nmax", "0"),
        ("table", "--k", "2,2"),
        ("compute", "--family", "current", "--k", "2", "--m", "1", "--j", "2"),
        ("compute", "--family", "current", "--inner", "current", "--j", "2"),
        ("check", "--input", "x", "--family", "heisenberg"),
        ("table", "--k", "2,x"),
    ],
    ids=[
        "heisenberg-n", "free2-m", "acj-j", "abelian-inner", "current-inner-n",
        "degree-csv", "degree-text", "compute-negative-cap", "verify-negative-cap",
        "decompose-negative-cap", "check-negative-cap", "table-negative-nmax", "table-zero-nmax",
        "table-repeated-arity", "current-without-inner", "current-inner-current",
        "input-and-family", "table-bad-arity",
    ],
)
def test_unused_parameters_and_degree_formats_exit_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_inner_current_is_refused_by_name(capsys):
    # --j is given: the error names --inner current, not a missing --j
    assert main(["compute", "--family", "current", "--inner", "current", "--j", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: --inner current is not supported")
