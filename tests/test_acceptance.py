"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear.  All integer comparisons are exact; there are no tolerances
anywhere except the log2 display columns of the bound table, which are
compared to the reference digits within 2 units of their last place
(the digits themselves carry 10-digit floating-point noise).

C2 asserts a closed-form candidate that the engine disproves; it is kept
as stated and fails honestly, and its printed line carries the computed
values.  The closed forms behind C3 and C5 are the proved oracles in
`conftest.py`, which import nothing from the engine.
"""

import math
import random
from math import comb

import pytest

from conftest import (
    acj_betti_closed_form,
    euler_ok_by_binomials,
    flip_bracket_signs,
    heisenberg_betti_closed_form,
)
from karyhom.algebra import center, check_jacobi
from karyhom.chains import differential_matrix, verify_d_squared, weight_blocks
from karyhom.families import (
    abelian,
    acj,
    current_algebra,
    free_three_step_small,
    free_two_step,
    heisenberg,
)
from karyhom.homology import (
    acj_classical_betti,
    acj_homology_via_theta,
    betti_all,
    heisenberg_image_formula,
    heisenberg_in_range,
    property_m_check,
)
from karyhom.matrices import rank, rank_mod_p, random_prime
from karyhom.schur import (
    character_by_weights,
    decompose_character,
    decomposition_dimension,
    lower_bound_betti,
    second_homology_bound,
)
from karyhom.toral import refinement_bound

# ---------------------------------------------------------------------------
# shared instances and cached reports (criteria 10 and 11 sweep these)

_STORE = {}


def _instances():
    if "instances" not in _STORE:
        items = []
        for k in (3, 4, 5):
            items.append((f"free3small({k})", free_three_step_small(k)))
        for k in (2, 3, 4):
            for m in (1, 2, 3):
                items.append((f"heisenberg({k},{m})", heisenberg(k, m)))
        items.append(("heisenberg(5,1)", heisenberg(5, 1)))
        for m in (1, 2, 3):
            items.append((f"acj(2,{m})", acj(2, m)))
        for m in (1, 2):
            items.append((f"acj(3,{m})", acj(3, m)))
        items.append(
            ("current(heisenberg(5,1),2)", current_algebra(heisenberg(5, 1), 2))
        )
        for k, n in ((3, 3), (3, 4), (3, 5), (2, 3), (2, 4)):
            items.append((f"free_two_step({k},{n})", free_two_step(k, n)))
        _STORE["instances"] = items
    return _STORE["instances"]


def _report(name):
    key = ("report", name)
    if key not in _STORE:
        alg = dict(_instances())[name]
        _STORE[key] = betti_all(alg, description=name)
    return _STORE[key]


# ---------------------------------------------------------------------------


def test_c1_free3_k3_betti():
    rep = _report("free3small(3)")
    got = tuple(rep.betti[t] for t in (1, 3, 5, 7))
    ok = got == (3, 24, 14, 1)
    print(f"C1 free 3-step k=3 Betti (H1,H3,H5,H7) = {got}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c2_free3_k4_k5_closed_forms():
    failures = []
    for k in (4, 5):
        rep = _report(f"free3small({k})")
        got = tuple(rep.betti[t] for t in (1, k, 2 * k - 1))
        stated = (k, comb(2 * k + 1, k) - (3 * k + 2), (2 * k + 1) * (k - 1))
        ok = got == stated
        print(f"C2 free 3-step k={k}: direct {got} vs stated closed form {stated}: "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append((k, got, stated))
    if failures:
        pytest.fail(
            "stated closed forms are unattainable: the image of the top "
            f"boundary is k + C(k,2) + 1, not 2k+1; direct values {failures}"
        )


def test_c3_heisenberg_grid():
    failures = []
    for k in (2, 3, 4):
        for m in (1, 2, 3):
            rep = _report(f"heisenberg({k},{m})")
            for t in rep.degrees:
                if t < 1:
                    continue
                i = (t - 1) // (k - 1)  # index >= 1 means degrees k, 2k-1, ...
                if i < 1 or not heisenberg_in_range(k, m, i):
                    continue
                closed = heisenberg_betti_closed_form(k, m, t)
                b_ok = rep.betti[t] == closed
                r_ok = rep.image_dims[t] == heisenberg_image_formula(k, m, i)
                if not (b_ok and r_ok):
                    failures.append((k, m, i, rep.betti[t], closed))
    ok = not failures
    print(f"C3 Heisenberg grid (k,m) in {{2,3,4}}x{{1,2,3}}, in-range degrees: "
          f"{'PASS' if ok else 'FAIL ' + str(failures)}")
    # sanity anchor inside the criterion: the classical dim-5 case
    assert _report("heisenberg(2,2)").betti[2] == 5
    if failures:
        pytest.fail(
            "direct Betti numbers or image ranks differ from the proved "
            f"Heisenberg closed form or the in-range image form: {failures}"
        )


def test_c4_heisenberg_5_1_total():
    rep = _report("heisenberg(5,1)")
    ok = rep.total == 11 and rep.betti == {0: 1, 1: 5, 5: 5}
    print(f"C4 5-ary Heisenberg m=1 total homology = {rep.total} (1+5+5): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_c5_acj_formulas():
    failures = []
    # arity 2: the classical per-degree closed form
    for m in (1, 2, 3):
        rep = _report(f"acj(2,{m})")
        for t in rep.degrees:
            if rep.betti[t] != acj_classical_betti(m, t):
                failures.append(("classical", m, t, rep.betti[t]))
    # arity 3 and 4: every layout degree against the proved closed form
    for k, m in ((3, 1), (3, 2), (3, 3), (4, 2)):
        rep = betti_all(acj(k, m))
        for t in rep.degrees:
            closed = acj_betti_closed_form(k, m, t)
            if rep.betti[t] != closed:
                failures.append(("closed_form", k, m, t, rep.betti[t], closed))
    # arity 3: the theta-route identity
    for m in (1, 2):
        alg = dict(_instances())[f"acj(3,{m})"]
        rep = _report(f"acj(3,{m})")
        for t in rep.degrees:
            if t == 0:
                continue
            if acj_homology_via_theta(alg, t) != rep.betti[t]:
                failures.append(("theta", 3, m, t))
    ok = not failures
    print(f"C5 ACJ validations: {'PASS' if ok else 'FAIL ' + str(failures)}")
    if failures:
        pytest.fail(
            "direct Betti numbers differ from the proved ACJ closed form, "
            f"the theta route or the classical k=2 form: {failures}"
        )


def test_c6_toral_table():
    from test_toral import GOLDEN, log_matches_display

    bad = []
    for k, column in GOLDEN.items():
        for n, (bound, logstr) in enumerate(column, start=1):
            if refinement_bound(n, 0, k) != bound:
                bad.append((n, k, "bound"))
            if not log_matches_display(math.log2(bound), logstr):
                bad.append((n, k, "log"))
    ok = not bad
    print(f"C6 toral table, 80 exact bounds + log2 digits: {'PASS' if ok else 'FAIL ' + str(bad)}")
    assert ok


def test_c7_property_m_counterexample():
    rec = property_m_check(heisenberg(5, 1), 2)
    checks = (
        rec["current_dim"] == 12,
        rec["current_two_step"],
        rec["refinement_bound_dim_only"] == 2900,
        rec["current_total_all_degrees"] >= 2900,
        2900 > 11**2 == rec["power_total"],
    )
    ok = all(checks)
    print(f"C7 tensor-power property fails for the 5-ary Heisenberg current algebra "
          f"(total {rec['current_total_all_degrees']} >= 2900 > 121): "
          f"{'PASS' if ok else 'FAIL ' + str(checks)}")
    assert ok


def test_c8_schur_decompositions():
    expected_tail = [((2, 1, 1, 1), 1), ((2, 2, 1), 1), ((3, 2, 1, 1), 1)]
    results = {}
    for n in (3, 4, 5):
        alg = dict(_instances())[f"free_two_step(3,{n})"]
        table = character_by_weights(alg, 3)
        results[n] = sorted(decompose_character(table, n))
    ok = (
        results[3] == [((2, 2, 1), 1)]
        and results[4] == expected_tail
        and results[5] == expected_tail
        and decomposition_dimension(results[3], 3) == 3
        and decomposition_dimension(results[4], 4) == 44
    )
    print(f"C8 H^3 Schur decomposition across n=3,4,5 (dims 3 and 44): "
          f"{'PASS' if ok else 'FAIL ' + str(results)}")
    assert ok


def test_c9_lower_bounds():
    failures = []
    for k, n in ((2, 3), (2, 4), (3, 3), (3, 4)):
        rep = _report(f"free_two_step({k},{n})")
        if rep.betti[k] < second_homology_bound(n, k):
            failures.append(("H_k", k, n))
        for t in rep.degrees:
            if t < 2:
                continue
            i = (t - 1) // (k - 1)
            if i >= 2:
                if rep.betti[t] < lower_bound_betti(n, k, i):
                    failures.append(("general", k, n, i))
    tight = _report("free_two_step(3,3)").betti[3] == 3 == second_homology_bound(3, 3)
    ok = not failures and tight
    print(f"C9 Schur-theoretic lower bounds (tight at k=3, n=3): "
          f"{'PASS' if ok else 'FAIL ' + str(failures)}")
    assert ok


def test_c10_property_suites():
    rng = random.Random(1234567)

    # (a) Jacobi and d^2 = 0 on randomized family draws (20 draws)
    pool = []
    for k in (2, 3, 4, 5):
        for m in (1, 2, 3):
            if k * m + 1 <= 12:
                pool.append(lambda k=k, m=m: heisenberg(k, m))
                pool.append(lambda k=k, m=m: acj(k, m))
    for k, n in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)):
        pool.append(lambda k=k, n=n: free_two_step(k, n))
    for k in (3, 4, 5):
        pool.append(lambda k=k: free_three_step_small(k))
    for k, j in ((2, 2), (2, 3), (3, 2), (4, 2), (5, 2)):
        pool.append(lambda k=k, j=j: current_algebra(heisenberg(k, 1), j))
    pool.append(lambda: abelian(3, 6))
    draws_ok = True
    for _ in range(20):
        alg = rng.choice(pool)()
        if check_jacobi(alg) != [] or verify_d_squared(alg) != []:
            draws_ok = False

    # (b) Euler characteristic on every computed report
    reports = [_report(name) for name, _ in _instances()]
    euler_ok = all(r.euler_ok and euler_ok_by_binomials(r.dim, r.betti) for r in reports)

    # (c) modular-rank oracle at 3 random primes on every boundary map
    # used by criteria 1-9 (per weight block for graded algebras)
    primes = [random_prime(rng) for _ in range(3)]
    while len(set(primes)) < 3:
        primes.append(random_prime(rng))
    primes = sorted(set(primes))[:3]
    modular_ok = True
    for name, alg in _instances():
        k = alg.arity
        degrees = [t for t in _report(name).degrees if t >= k]
        if name.startswith("current("):
            degrees = list(range(k, alg.dim + 1))  # all-degree totals used
        for t in degrees:
            if alg.weights is not None:
                blocks = [b.matrix for b in weight_blocks(alg, t).values()]
                q = sum(rank(b) for b in blocks)
                for p in primes:
                    if sum(rank_mod_p(b, p) for b in blocks) != q:
                        modular_ok = False
            else:
                m = differential_matrix(alg, t)
                q = rank(m)
                for p in primes:
                    if rank_mod_p(m, p) != q:
                        modular_ok = False

    # (d) bracket sign conventions do not move any Betti number (5 draws)
    sign_ok = True
    sign_instances = [
        heisenberg(3, 2),
        free_two_step(3, 4),
        free_three_step_small(3),
        acj(2, 2),
        current_algebra(heisenberg(2, 1), 2),
    ]
    for alg in sign_instances:
        baseline = betti_all(alg).betti
        if betti_all(flip_bracket_signs(alg, rng)).betti != baseline:
            sign_ok = False

    ok = draws_ok and euler_ok and modular_ok and sign_ok
    print(f"C10 property suites (jacobi/d2 x20, Euler, modular ranks x3 primes, "
          f"sign flips x5): {'PASS' if ok else 'FAIL'}")
    assert draws_ok and euler_ok and modular_ok and sign_ok


def test_c11_toral_inequality_everywhere():
    failures = []
    for name, alg in _instances():
        total = _report(name).total
        z = center(alg).dim
        if total < 2**z:
            failures.append((name, total, z))
    ok = not failures
    print(f"C11 total homology >= 2^(dim center) on all {len(_instances())} instances: "
          f"{'PASS' if ok else 'FAIL ' + str(failures)}")
    assert ok
