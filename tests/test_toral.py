import math
import random
import sys

import pytest

from conftest import refinement_bound_by_binomials
from karyhom.errors import InputError
from karyhom.families import (
    abelian,
    acj,
    current_algebra,
    free_three_step_small,
    free_two_step,
    heisenberg,
)
from karyhom import homology
from karyhom.algebra import KaryAlgebra
from karyhom.toral import refinement_bound, toral_table_rows, verify_toral

# Golden table: lower-bound factor (center split off) for n = 1..20 and
# each arity, with reference log2 digits alongside (these digits were
# produced by 10-digit floating arithmetic, see log_matches_display).
GOLDEN = {
    2: [(2, "1.0"), (2, "1.0"), (4, "2.0"), (4, "2.0"), (8, "3.0"), (8, "3.0"),
        (16, "4.0"), (16, "4.0"), (32, "5.0"), (32, "5.0"), (64, "6.0"), (64, "6.0"),
        (128, "7.0"), (128, "7.0"), (256, "8.0"), (256, "8.0"), (512, "9.0"),
        (512, "9.0"), (1024, "10.0"), (1024, "10.0")],
    3: [(2, "1.0"), (4, "2.0"), (6, "2.584962500"), (12, "3.584962501"),
        (18, "4.169925001"), (36, "5.169925000"), (54, "5.754887502"),
        (108, "6.754887502"), (162, "7.339850002"), (324, "8.339850002"),
        (486, "8.924812503"), (972, "9.924812502"), (1458, "10.50977500"),
        (2916, "11.50977500"), (4374, "12.09473750"), (8748, "13.09473750"),
        (13122, "13.67970001"), (26244, "14.67970000"), (39366, "15.26466251"),
        (78732, "16.26466251")],
    4: [(2, "1.0"), (4, "2.0"), (8, "3.0"), (14, "3.807354922"),
        (28, "4.807354922"), (48, "5.584962501"), (96, "6.584962500"),
        (164, "7.357552004"), (328, "8.357552004"), (560, "9.129283017"),
        (1120, "10.12928302"), (1912, "10.90086681"), (3824, "11.90086681"),
        (6528, "12.67242534"), (13056, "13.67242534"), (22288, "14.44397955"),
        (44576, "15.44397955"), (76096, "16.21553300"), (152192, "17.21553300"),
        (259808, "17.98708633")],
    5: [(2, "1.0"), (4, "2.0"), (8, "3.0"), (16, "4.0"), (30, "4.906890596"),
        (60, "5.906890595"), (110, "6.781359713"), (220, "7.781359713"),
        (400, "8.643856190"), (800, "9.643856190"), (1450, "10.50183718"),
        (2900, "11.50183718"), (5250, "12.35810171"), (10500, "13.35810171"),
        (19000, "14.21371180"), (38000, "15.21371180"), (68750, "16.06907210"),
        (137500, "17.06907210"), (248750, "17.92433701"), (497500, "18.92433701")],
}


def log_matches_display(value: float, shown: str, ulps: float = 2.0) -> bool:
    """The reference digits carry up to ~1.6 ulp of 10-digit-arithmetic
    noise; compare with a 2-ulp allowance."""
    frac = len(shown.split(".")[1])
    return abs(value - float(shown)) <= ulps * 10.0**-frac


def test_refinement_bound_reference_values():
    assert refinement_bound(4, 0, 3) == 12
    assert refinement_bound(12, 0, 5) == 2900
    assert refinement_bound(3, 0, 2) == 4
    assert refinement_bound(20, 0, 4) == 259808


def test_refinement_bound_center_factorization():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(0, 15)
        z = rng.randrange(0, 6)
        k = rng.randrange(2, 6)
        assert refinement_bound(n, z, k) == refinement_bound(n, 0, k) * 2**z


def test_refinement_bound_validation():
    with pytest.raises(InputError):
        refinement_bound(-1, 0, 2)
    with pytest.raises(InputError):
        refinement_bound(3, 0, 1)
    with pytest.raises(InputError):
        refinement_bound(0, 0, 1)
    assert refinement_bound(0, 3, 2) == 8


def test_refinement_bound_of_a_huge_arity_is_a_power_of_two():
    # (1+x)^n is already reduced mod x^k + 1 for n < k, so the bound is
    # 2^n, computed from n + 1 coefficients rather than k
    assert refinement_bound(5, 0, 10**9) == 32
    assert refinement_bound(5, 2, 6) == refinement_bound(5, 2, 10**12) == 128
    assert refinement_bound(6, 0, 6) == 62 < 2**6


def test_golden_table_all_entries():
    for k, column in GOLDEN.items():
        for n, (bound, logstr) in enumerate(column, start=1):
            assert refinement_bound(n, 0, k) == bound, (n, k)
            assert log_matches_display(math.log2(bound), logstr), (n, k)


def test_k2_column_is_powers_of_two():
    for n in range(1, 21):
        assert refinement_bound(n, 0, 2) == 2 ** ((n + 1) // 2)


def test_refinement_bound_matches_the_binomial_sum():
    for dim_v in range(60):
        for k in range(2, 7):
            for dim_z in range(3):
                expected = refinement_bound_by_binomials(dim_v, dim_z, k)
                assert refinement_bound(dim_v, dim_z, k) == expected, (dim_v, dim_z, k)


def test_k2_closed_form_up_to_n_2000():
    # (1+x)^n mod (x^2 + 1) is (1+i)^n, whose |Re| + |Im| is 2^ceil(n/2)
    for n in [*range(1, 2000, 97), 1999, 2000]:
        assert refinement_bound(n, 0, 2) == 2 ** ((n + 1) // 2), n


def test_bound_factor_at_least_two():
    for n in range(1, 21):
        for k in (2, 3, 4, 5):
            assert refinement_bound(n, 0, k) >= 2


def test_table_rows_are_exact():
    rows = toral_table_rows(2)
    assert rows == [{"n": 1, "k2": 2, "k3": 2, "k4": 2, "k5": 2},
                    {"n": 2, "k2": 2, "k3": 4, "k4": 4, "k5": 4}]
    # the columns follow k_list; a repeated arity and an empty table are refused
    assert list(toral_table_rows(1, (9, 2))[0]) == ["n", "k9", "k2"]
    with pytest.raises(InputError):
        toral_table_rows(3, (2, 3, 2))
    with pytest.raises(InputError):
        toral_table_rows(0)
    with pytest.raises(InputError):
        toral_table_rows(3, (2, 1))
    # the table steps one power per arity; refinement_bound starts afresh
    for row in toral_table_rows(300, (2, 3, 4, 5, 6, 299, 301, 10**9)):
        for k in (2, 3, 4, 5, 6, 299, 301, 10**9):
            assert row[f"k{k}"] == refinement_bound(row["n"], 0, k), row["n"]


def test_table_digit_limit_is_exact(monkeypatch):
    # 2^14284 has 4300 digits and 2^14285 has 4301: the last table under
    # the default limit ends at n = 14284.  The limit is read through
    # sys, so it applies also where the interpreter has none.
    from karyhom.errors import ResourceCapError

    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    assert 10**4299 < 2**14284 < 10**4300 < 2**14285
    assert toral_table_rows(14284, (2,))[-1] == {"n": 14284, "k2": 2**7142}
    for n_max in (14285, 17200, 10**15):
        with pytest.raises(ResourceCapError):
            toral_table_rows(n_max, (2,))
    # at the smallest limit the interpreter allows, 640 digits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
    assert 10**639 < 2**2126 < 10**640 < 2**2127
    assert len(toral_table_rows(2126, (3,))) == 2126
    with pytest.raises(ResourceCapError):
        toral_table_rows(2127, (3,))


def test_verify_toral_heisenberg():
    rec = verify_toral(heisenberg(3, 1), description="heis(3,1)")
    assert rec["total"] == 7
    assert rec["center_dim"] == 1
    assert rec["holds_power"] and rec["ok"]
    assert rec["two_step"]
    assert rec["refinement_bound"] == refinement_bound(3, 1, 3)
    assert rec["total_all_degrees"] >= rec["refinement_bound"]


def test_verify_toral_free3():
    rec = verify_toral(free_three_step_small(4))
    assert rec["center_dim"] == 4
    assert rec["total"] == 1 + 4 + 110 + 25
    assert rec["holds_power"]
    assert not rec["two_step"]


def test_verify_toral_rejects_non_nilpotent():
    # [a, b] = b is not nilpotent
    alg = KaryAlgebra(2, 2, ["a", "b"], {(0, 1): {1: 1}})
    with pytest.raises(InputError):
        verify_toral(alg)


def test_verify_toral_two_step_instances():
    for alg in (heisenberg(2, 2), acj(3, 1), free_two_step(3, 3),
                current_algebra(heisenberg(2, 1), 2)):
        rec = verify_toral(alg)
        assert rec["ok"], rec
        assert rec["holds_refinement"]
        # the 2-step bound strictly beats the plain power of two
        assert rec["refinement_bound"] >= rec["power_bound"] + 1


@pytest.mark.parametrize("k, n", [(3, 3), (3, 4), (2, 4)])
def test_verify_toral_power_bound_reads_all_degrees(k, n):
    # the homology of abelian(k, n) is all of Lambda, 2^n = 2^(dim center);
    # for k = 3 the layout skips degrees and totals only 5 and 9
    rec = verify_toral(abelian(k, n))
    assert rec["center_dim"] == n and rec["power_bound"] == 2**n
    assert rec["total_all_degrees"] == 2**n
    assert rec["total"] == (2**n if k == 2 else {3: 5, 4: 9}[n])
    assert rec["holds_power"] and rec["ok"]


def test_verify_toral_cap_none_means_no_limit(monkeypatch):
    monkeypatch.setattr(homology, "DEFAULT_SIZE_CAP", 10)
    assert verify_toral(heisenberg(3, 2), cap=None)["ok"]
