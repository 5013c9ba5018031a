import random
from collections import namedtuple
from itertools import combinations
from math import comb

import pytest

from conftest import (
    acj_betti_by_theta,
    acj_betti_closed_form,
    boundary_by_definition,
    dense_rank,
    euler_ok_by_binomials,
    flip_bracket_signs,
    heisenberg_betti_closed_form,
    relabelled,
    to_dense,
)
from karyhom.algebra import sort_with_sign
from karyhom.chains import ChainLayout, differential_matrix
from karyhom.errors import InputError, ResourceCapError
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
    acj_second_homology_formula,
    betti,
    betti_all,
    free3_expected_betti,
    heisenberg_betti_formula,
    property_m_check,
    theta_matrix,
    total_homology_all_degrees,
    verify_acj,
    verify_free3,
    verify_heisenberg,
)
from karyhom.matrices import SparseIntMatrix, rank


# -- direct Betti numbers ---------------------------------------------------


def test_betti_free3_step_three():
    f3 = free_three_step_small(3)
    assert betti(f3, 1) == 3
    assert betti(f3, 3) == 24
    assert betti(f3, 5) == 14
    assert betti(f3, 7) == 1


def test_betti_heisenberg_small():
    assert betti(heisenberg(2, 2), 2) == 5
    # in-range closed form matches at (2,2), i=1
    assert heisenberg_betti_formula(2, 2, 1) == 5


def test_betti_heisenberg_3_2_true_value():
    # The degree-3 Betti number is 28: ker d_3 has dim 34 and the image
    # of d_5 is spanned by the six monomials z ^ (pair of the block not
    # bracketing), checked against dense elimination in test_matrices.
    assert betti(heisenberg(3, 2), 3) == 28


def test_betti_layout_validation():
    h = heisenberg(3, 2)
    with pytest.raises(InputError):
        betti(h, 2)
    with pytest.raises(InputError):
        betti(h, 9)
    assert betti(h, 0) == 1


def test_betti_all_heisenberg_5_1():
    rep = betti_all(heisenberg(5, 1))
    assert rep.betti == {0: 1, 1: 5, 5: 5}
    assert rep.total == 11
    assert euler_ok_by_binomials(rep.dim, rep.betti)


def test_betti_all_abelian_is_binomial():
    rep = betti_all(abelian(2, 4))
    assert rep.betti == {t: comb(4, t) for t in range(5)}
    rep3 = betti_all(abelian(3, 5))
    assert rep3.betti == {0: 1, 1: 5, 3: 10, 5: 1}


def test_report_consistency_fields():
    rep = betti_all(heisenberg(3, 2), description="heis32")
    assert rep.algebra == "heis32"
    assert rep.total == sum(rep.betti.values())
    assert rep.total_excluding_h0 == rep.total - 1
    assert euler_ok_by_binomials(rep.dim, rep.betti)
    for t in rep.degrees:
        assert rep.chain_dims[t] == rep.kernel_dims[t] + rep.image_dims[t]
    # exact data only: a plain namedtuple, no renderer of its own (cli renders it)
    plain = namedtuple("HomologyReport", rep._fields)
    assert type(rep).__bases__ == (tuple,) and set(vars(type(rep))) == set(vars(plain))
    assert all(type(v) in (str, int, list, dict) for v in rep)


def test_size_cap_enforced():
    with pytest.raises(ResourceCapError):
        betti_all(heisenberg(3, 2), cap=10)
    with pytest.raises(ResourceCapError):
        betti(heisenberg(3, 2), 3, cap=10)


def test_block_and_monolithic_ranks_agree():
    f = free_two_step(3, 4)
    graded = betti_all(f)
    ungraded = betti_all(
        type(f)(f.arity, f.dim, f.labels, f.brackets, None)
    )
    assert graded.betti == ungraded.betti


# -- Heisenberg validator ----------------------------------------------------


def test_verify_heisenberg_in_range_cases():
    rec = verify_heisenberg(heisenberg(2, 2))
    assert rec["ok"]
    row = next(r for r in rec["rows"] if r["i"] == 1)
    assert row["betti"] == 5 and row["in_range"]

    rec31 = verify_heisenberg(heisenberg(3, 1))
    assert rec31["ok"]  # nothing is asserted: no index is in range
    assert not any(r["in_range"] for r in rec31["rows"])
    row = next(r for r in rec31["rows"] if r["i"] == 1)
    assert row["betti"] == 3 and row["formula"] == 0  # reported, not asserted


def test_verify_heisenberg_flags_formula_gap():
    # the closed form undercounts when a complementary monomial set can
    # meet every bracketing block; smallest case (3, 2)
    rec = verify_heisenberg(heisenberg(3, 2))
    assert not rec["ok"]
    row = next(r for r in rec["rows"] if r["i"] == 1)
    assert row["in_range"] and row["betti"] == 28 and row["formula"] == 19
    assert row["image_match"]  # the in-range image rank itself is fine


def test_heisenberg_image_ranks_in_range():
    for k, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        rec = verify_heisenberg(heisenberg(k, m))
        for row in rec["rows"]:
            if row["in_range"]:
                assert row["image_match"], (k, m, row)


# -- theta maps and ACJ -------------------------------------------------------


def test_theta_matrix_ranks():
    a31 = acj(3, 1)
    th2 = theta_matrix(a31, 2)
    assert (th2.rows, th2.cols) == (3, 3)
    assert rank(th2) == 1
    # below k-1 arguments the contraction has nothing to act on
    assert not theta_matrix(a31, 0).entries
    a22 = acj(2, 2)
    th1 = theta_matrix(a22, 1)
    assert (th1.rows, th1.cols) == (4, 4)
    assert rank(th1) == 2  # x1_i -> x2_i


def test_theta_matrix_is_empty_outside_the_exterior_algebra():
    a31 = acj(3, 1)  # |a| = 3
    for j in (-1, 4):
        th = theta_matrix(a31, j)
        assert th.cols == 0 and not th.entries, j


def test_layout_rank_matches_dense_rank_of_theta_matrix():
    # rank theta_j = rank d_{j+1} (the `theta_matrix` docstring), with the
    # Fraction oracle ranking theta_j, one degree past each end of the
    # exterior algebra of a
    for k in (2, 3, 4):
        for m in (1, 2, 3):
            alg = acj(k, m)
            layout = ChainLayout.of(alg)
            for j in range(-1, k * m + 2):
                th = theta_matrix(alg, j)
                assert layout.boundary_rank(j + 1) == dense_rank(to_dense(th)), (k, m, j)


def test_theta_requires_acj_shape():
    with pytest.raises(InputError):
        theta_matrix(heisenberg(3, 2), 2)
    with pytest.raises(InputError):
        theta_matrix(abelian(2, 3), 1)


def test_theta_matrix_matches_definition_oracle():
    # column omega of theta_j is d(z ^ omega) = sgn * d(sort(z, omega)),
    # read in the z-free rows; acj puts z at index 0, the copies elsewhere
    rng = random.Random(5)
    cases = []
    for base in (acj(2, 3), acj(3, 2)):
        cases.append((base, 0))
        for _ in range(3):
            perm = list(range(base.dim))
            rng.shuffle(perm)
            if perm[0] != 0:
                cases.append((relabelled(base, perm), perm[0]))
    assert sum(z != 0 for _, z in cases) >= 4
    for alg, z in cases:
        k = alg.arity
        a = [i for i in range(alg.dim) if i != z]
        for j in range(k - 1, len(a) + 1):
            rows = {mono: r for r, mono in enumerate(combinations(a, j - k + 2))}
            entries = {}
            for c, combo in enumerate(combinations(a, j)):
                mono, sign = sort_with_sign((z,) + combo)
                for out, v in boundary_by_definition(alg, {mono: 1}).items():
                    entries[(rows[out], c)] = sign * v
            expected = SparseIntMatrix(len(rows), comb(len(a), j), entries)
            assert theta_matrix(alg, j) == expected, (alg, z, j)


def test_theta_reproduces_betti_everywhere():
    for k, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        alg = acj(k, m)
        rep = betti_all(alg)
        for t in rep.degrees:
            if t == 0:
                continue
            assert acj_betti_by_theta(alg, t) == rep.betti[t], (k, m, t)


def test_theta_first_homology_value():
    # H^1 = g / [g, g]: theta_{k-1} maps wedge^{k-1} a onto the span of
    # the m outputs x^k_i
    for k, m in ((2, 2), (3, 2), (4, 1)):
        alg = acj(k, m)
        th = theta_matrix(alg, k - 1)
        assert (th.rows, th.cols) == (k * m, comb(k * m, k - 1))
        assert rank(th) == m
        assert betti(alg, 1) == alg.dim - rank(th) == k * m + 1 - m


def test_acj_second_homology_formula_values():
    assert acj_second_homology_formula(3, 1) == 3
    assert acj_second_homology_formula(3, 2) == 26
    assert acj_second_homology_formula(2, 1) == 2


def test_acj_closed_form_matches_only_for_m_1():
    # direct (theta-confirmed) degree-k Betti numbers; the closed-form
    # candidate counts dependent image elements twice for m >= 2
    assert betti(acj(3, 1), 3) == 3 == acj_second_homology_formula(3, 1)
    assert betti(acj(3, 2), 3) == 28 != acj_second_homology_formula(3, 2)
    assert betti(acj(2, 2), 2) == 6 != acj_second_homology_formula(2, 2)


def test_acj_classical_formula_k2():
    for m in (1, 2, 3):
        rec = verify_acj(acj(2, m))
        assert rec["classical_ok"], rec
        rep = betti_all(acj(2, m))
        for t in rep.degrees:
            assert rep.betti[t] == acj_classical_betti(m, t)


def test_verify_acj_structure():
    rec = verify_acj(acj(3, 1))
    assert rec["ok"] and rec["h_k"]["match"]
    rec32 = verify_acj(acj(3, 2))
    assert not rec32["ok"] and not rec32["h_k"]["match"]
    assert rec32["h_k"]["betti"] == 28 and rec32["h_k"]["closed_form"] == 26


# -- free 3-step validator -----------------------------------------------------


def test_free3_expected_values():
    assert free3_expected_betti(3) == {1: 3, 3: 24, 5: 14, 7: 1}
    assert free3_expected_betti(4) == {1: 4, 4: 112, 7: 27}


def test_verify_free3_k3_matches():
    rec = verify_free3(free_three_step_small(3))
    assert rec["ok"]
    assert rec["total"] == 43 and rec["total_excluding_h0"] == 42


def test_verify_free3_k4_reports_overcount():
    # the top boundary image is k + C(k,2) + 1, which exceeds 2k+1 for
    # k >= 4, so the stated closed forms overshoot: direct values below
    rec = verify_free3(free_three_step_small(4))
    assert not rec["ok"]
    direct = {r["degree"]: r["betti"] for r in rec["rows"]}
    assert direct == {1: 4, 4: 110, 7: 25}


def test_free3_direct_values_k5():
    rep = betti_all(free_three_step_small(5))
    assert rep.betti == {0: 1, 1: 5, 5: 440, 9: 39}


# -- totals, property M --------------------------------------------------------


def test_total_homology_all_degrees_abelian():
    assert total_homology_all_degrees(abelian(2, 3)) == 8
    assert total_homology_all_degrees(abelian(4, 3)) == 8


def test_total_all_degrees_heisenberg_5_1():
    # layout total is 11; the other residue classes contribute the rest
    alg = heisenberg(5, 1)
    assert betti_all(alg).total == 11
    assert total_homology_all_degrees(alg) == 62


def test_boundary_ranks_are_computed_once(monkeypatch):
    # betti_all and total_homology_all_degrees share the algebra's memo:
    # a boundary degree is ranked at most once, and not again
    import karyhom.chains

    boundary_rows = karyhom.chains._boundary_rows
    shapes = []

    def counting_rows(alg, t):
        shapes.append((comb(alg.dim, t - alg.arity + 1), comb(alg.dim, t)))
        return boundary_rows(alg, t)

    monkeypatch.setattr(karyhom.chains, "_boundary_rows", counting_rows)
    alg = heisenberg(3, 2)
    assert betti_all(alg).total == 51
    assert total_homology_all_degrees(alg) == 100
    assert len(shapes) <= alg.dim - alg.arity + 1
    assert len(set(shapes)) == len(shapes)
    calls = len(shapes)
    betti_all(alg)
    total_homology_all_degrees(alg)
    assert len(shapes) == calls


def test_graded_betti_ranks_whole_boundaries_once(monkeypatch):
    # weights do not split the boundaries Betti numbers are read from:
    # one rank call per boundary degree up to (dim+k-1)/2, whose mirrors
    # give the rest, and none on a second pass
    import karyhom.chains

    boundary_rows = karyhom.chains._boundary_rows
    calls = []

    def counting_rows(alg, t):
        calls.append(t)
        return boundary_rows(alg, t)

    monkeypatch.setattr(karyhom.chains, "_boundary_rows", counting_rows)
    for alg, boundaries in ((free_two_step(3, 4), 2), (free_two_step(2, 4), 4)):
        calls.clear()
        betti_all(alg)
        assert len(calls) == boundaries
        betti_all(alg)
        assert len(calls) == boundaries


def test_large_instances_match_proved_closed_forms():
    # every layout degree, on boundaries of up to a few thousand columns
    # (heisenberg(3, 6): up to 92,378)
    for family, closed_form, k, m in (
        (heisenberg, heisenberg_betti_closed_form, 2, 7),
        (acj, acj_betti_closed_form, 2, 7),
        (heisenberg, heisenberg_betti_closed_form, 3, 6),
    ):
        report = betti_all(family(k, m))
        for t in report.degrees:
            assert report.betti[t] == closed_form(k, m, t), (family, k, m, t)
    # exact and mod-p elimination agree on 1350 here; the candidate formula says 1365
    assert ChainLayout.of(heisenberg(3, 5)).boundary_rank(7) == 1350


def test_property_m_trivial_cases():
    rec = property_m_check(abelian(2, 1), 2)
    assert rec["equal"] and rec["power_total"] == 4 == rec["current_total"]
    rec1 = property_m_check(heisenberg(2, 1), 1)
    assert rec1["equal"]


def test_property_m_builds_the_current_algebra_under_its_cap():
    # 9 basis elements and C(4, 2) = 6 products: the build, not a chain
    # space, is the first thing over a cap of 12
    with pytest.raises(ResourceCapError, match="building current"):
        property_m_check(heisenberg(2, 1), 3, cap=12)


def test_property_m_counterexample():
    rec = property_m_check(heisenberg(5, 1), 2)
    assert rec["current_dim"] == 12
    assert rec["current_two_step"]
    assert rec["power_total"] == 121
    assert rec["refinement_bound_dim_only"] == 2900
    assert rec["current_total_all_degrees"] >= 2900
    assert rec["bound_refutes_power"]
    assert not rec["equal"]


# -- sign-convention invariance --------------------------------------------------


def test_sign_randomization_preserves_betti():
    rng = random.Random(2718)
    for alg in (
        heisenberg(3, 2),
        free_two_step(3, 4),
        free_three_step_small(3),
        acj(2, 2),
    ):
        baseline = betti_all(alg).betti
        for _ in range(3):
            flipped = flip_bracket_signs(alg, rng)
            assert betti_all(flipped).betti == baseline


def test_rank_oracle_for_acj_3_2_degree_5():
    # independent confirmation of the value behind betti(acj(3,2), 3) = 28
    m5 = differential_matrix(acj(3, 2), 5)
    assert rank(m5) == dense_rank(to_dense(m5)) == 5


def test_betti_nonnegative_and_image_inside_kernel():
    for alg in (
        heisenberg(3, 2),
        heisenberg(4, 2),
        acj(2, 3),
        free_two_step(3, 4),
        free_three_step_small(4),
        current_algebra(heisenberg(3, 1), 2),
    ):
        rep = betti_all(alg)
        assert all(b >= 0 for b in rep.betti.values())
        # d^2 = 0 forces rank of the incoming boundary <= kernel of the outgoing
        for i, t in enumerate(rep.degrees[:-1]):
            nxt = rep.degrees[i + 1]
            assert rep.image_dims[nxt] <= rep.kernel_dims[t]
