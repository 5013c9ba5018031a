"""Every demo runs to completion as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import karyhom

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(karyhom.__file__).resolve().parent.parent)


# the printed consumers of `theta_matrix` (02), of `differential_matrix`
# and its MatrixMarket export (03), and of the CLI's table renderer and
# `verify_toral` (05), pinned whole
GOLDEN_STDOUT = {
    "02_acj_adjoint_contraction": (
        "acj(k=2, m=2)\n"
        "  H^1: direct 3, via theta kernels 3 [ok]\n"
        "  H^2: direct 6, via theta kernels 6 [ok]\n"
        "  H^3: direct 6, via theta kernels 6 [ok]\n"
        "  H^4: direct 3, via theta kernels 3 [ok]\n"
        "  H^5: direct 1, via theta kernels 1 [ok]\n"
        "acj(k=3, m=1)\n"
        "  H^1: direct 3, via theta kernels 3 [ok]\n"
        "  H^3: direct 3, via theta kernels 3 [ok]\n"
        "acj(k=3, m=2)\n"
        "  H^1: direct 5, via theta kernels 5 [ok]\n"
        "  H^3: direct 28, via theta kernels 28 [ok]\n"
        "  H^5: direct 16, via theta kernels 16 [ok]\n"
        "  H^7: direct 1, via theta kernels 1 [ok]\n"
        "acj(k=4, m=1)\n"
        "  H^1: direct 4, via theta kernels 4 [ok]\n"
        "  H^4: direct 4, via theta kernels 4 [ok]\n"
        "\n"
        "theta ranks for acj(3, 1):\n"
        "  theta_0: 0x1, rank 0\n"
        "  theta_1: 1x3, rank 0\n"
        "  theta_2: 3x3, rank 1\n"
        "  theta_3: 3x1, rank 0\n"
        "\n"
        "Arity 2 recovers the classical per-degree product formula:\n"
        "  {0: (1, 1), 1: (4, 4), 2: (12, 12), 3: (18, 18), 4: (18, 18), 5: (12, 12), 6: (4, 4), 7: (1, 1)}\n"
        "\n"
        "The degree-k closed-form candidate works only for m = 1; for m >= 2\n"
        "it double-counts image elements shared between bracket blocks:\n"
        "  acj(3,1): direct H^3 = 3, candidate = 3\n"
        "  acj(3,2): direct H^3 = 28, candidate = 26\n"
    ),
    "03_free_nilpotent": (
        "free 3-step, k=3: basis x1, x2, x3, y, z1, z2, z3\n"
        "  Jacobi violations: 0  d^2 failures: []\n"
        "  Betti: {0: 1, 1: 3, 3: 24, 5: 14, 7: 1}  total: 43\n"
        "  boundary at degree 3: 7x35, nnz 4, rank 4\n"
        "  boundary at degree 5: 35x21, nnz 12, rank 7\n"
        "  boundary at degree 7: 21x1, nnz 0, rank 0\n"
        "\n"
        "MatrixMarket export of the degree-5 boundary (first lines):\n"
        "%%MatrixMarket matrix coordinate integer general\n"
        "35 21 12\n"
        "13 2 1\n"
        "14 3 1\n"
        "23 1 1\n"
        "25 3 -1\n"
        "\n"
        "free3(k=4): Betti {0: 1, 1: 4, 4: 110, 7: 25}, total 140\n"
        "free3(k=5): Betti {0: 1, 1: 5, 5: 440, 9: 39}, total 485\n"
        "\n"
        "free2(k=2, n=4) (dim 10): total homology 420\n"
        "   Betti: {0: 1, 1: 4, 2: 20, 3: 56, 4: 84, 5: 90, 6: 84, 7: 56, 8: 20, 9: 4, 10: 1}\n"
        "free2(k=3, n=4) (dim 8): total homology 97\n"
        "   Betti: {0: 1, 1: 4, 3: 44, 5: 44, 7: 4}\n"
        "free2(k=3, n=5) (dim 15): total homology 10619\n"
        "   Betti: {0: 1, 1: 5, 3: 274, 5: 1935, 7: 4228, 9: 3250, 11: 870, 13: 55, 15: 1}\n"
    ),
    "05_toral_bounds": (
        " n  k=2  log2  k=3         log2   k=4         log2   k=5         log2\n"
        " 1    2   1.0    2          1.0     2          1.0     2          1.0\n"
        " 2    2   1.0    4          2.0     4          2.0     4          2.0\n"
        " 3    4   2.0    6  2.584962501     8          3.0     8          3.0\n"
        " 4    4   2.0   12  3.584962501    14  3.807354922    16          4.0\n"
        " 5    8   3.0   18  4.169925001    28  4.807354922    30  4.906890596\n"
        " 6    8   3.0   36  5.169925001    48  5.584962501    60  5.906890596\n"
        " 7   16   4.0   54  5.754887502    96  6.584962501   110  6.781359714\n"
        " 8   16   4.0  108  6.754887502   164  7.357552005   220  7.781359714\n"
        " 9   32   5.0  162  7.339850003   328  8.357552005   400  8.643856190\n"
        "10   32   5.0  324  8.339850003   560  9.129283017   800  9.643856190\n"
        "11   64   6.0  486  8.924812504  1120  10.12928302  1450  10.50183718\n"
        "12   64   6.0  972  9.924812504  1912  10.90086681  2900  11.50183718\n"
        "\n"
        "full bound with a center of dimension z just scales by 2^z:\n"
        "  refinement_bound(10, 2, 5) = 3200 = 800 * 4\n"
        "\n"
        "heisenberg(3,1): total 7 >= 2^1 = 2 [ok], refined bound 12 vs all-degree total 14\n"
        "heisenberg(2,3): total 70 >= 2^1 = 2 [ok], refined bound 16 vs all-degree total 70\n"
        "acj(3,2): total 51 >= 2^2 = 4 [ok], refined bound 72 vs all-degree total 100\n"
        "free2(3,4): total 97 >= 2^4 = 16 [ok], refined bound 192 vs all-degree total 196\n"
        "free3(4): total 140 >= 2^4 = 16 [ok]\n"
    ),
}


def test_all_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        # under the warnings gate the test run itself has in CI
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr
    assert proc.stdout == GOLDEN_STDOUT.get(demo.stem, proc.stdout)
