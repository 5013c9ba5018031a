import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from conftest import (
    boundary_by_definition,
    d_squared_failing_degrees_all,
    dense_rank,
    flip_bracket_signs,
    shuffles,
)
from karyhom.algebra import KaryAlgebra, check_jacobi
from karyhom.chains import (
    ChainLayout,
    differential_matrix,
    monomial_weight,
    verify_d_squared,
    wedge_basis,
    weight_blocks,
)
from karyhom.errors import InputError
from karyhom.families import (
    abelian,
    acj,
    current_algebra,
    free_three_step_small,
    free_two_step,
    heisenberg,
)
from karyhom.matrices import SparseIntMatrix, multiply, rank


def test_wedge_basis_counts_and_order():
    h = heisenberg(3, 1)
    basis = wedge_basis(h, 3)
    assert len(basis) == 4
    assert basis == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert wedge_basis(h, 0) == [()]
    assert len(wedge_basis(heisenberg(3, 2), 5)) == 21
    with pytest.raises(InputError):
        wedge_basis(h, 5)


def test_shuffle_set_size_and_signs():
    for t, k in ((5, 3), (4, 2), (6, 4)):
        items = list(shuffles(t, k))
        assert len(items) == comb(t, k)
        # the identity shuffle is positive
        assert items[0] == (tuple(range(k)), 1)
        # each sign is that of the permutation pos + rest, by inversions
        for pos, sign in items:
            perm = list(pos) + [i for i in range(t) if i not in pos]
            inversions = sum(a > b for a, b in combinations(perm, 2))
            assert sign == (-1) ** inversions, (t, k, pos)
    # a single transposition of adjacent groups flips the sign
    assert ((0, 2), -1) in list(shuffles(3, 2))


def test_differential_heisenberg_3_1():
    h = heisenberg(3, 1)
    m = differential_matrix(h, 3)
    assert (m.rows, m.cols) == (4, 4)
    # only x1^x2^x3 (column 0) maps anywhere, namely to z (row 3)
    assert m.entries == {(3, 0): 1}
    assert rank(m) == 1


def test_differential_abelian_is_zero():
    ab = abelian(3, 5)
    for t in (3, 4, 5):
        assert differential_matrix(ab, t).is_zero()


def test_differential_free3_rank():
    f3 = free_three_step_small(3)
    assert rank(differential_matrix(f3, 3)) == 4
    assert rank(differential_matrix(f3, 5)) == 7


def test_differential_degree_validation():
    h = heisenberg(3, 1)
    with pytest.raises(InputError):
        differential_matrix(h, 2)
    with pytest.raises(InputError):
        differential_matrix(h, 5)


def test_differential_shape_and_entry_range():
    for alg in (heisenberg(2, 3), acj(3, 2), free_two_step(3, 4)):
        k = alg.arity
        for t in range(k, alg.dim + 1):
            m = differential_matrix(alg, t)
            assert m.cols == comb(alg.dim, t)
            assert m.rows == comb(alg.dim, t - k + 1)
            assert all(v in (-1, 1) for v in m.entries.values())


def test_d_squared_zero_on_families():
    for alg in (
        heisenberg(2, 3),
        heisenberg(3, 2),
        acj(2, 2),
        acj(3, 2),
        free_two_step(2, 4),
        free_two_step(3, 4),
        free_three_step_small(3),
        current_algebra(heisenberg(2, 1), 3),
        abelian(2, 4),
    ):
        assert verify_d_squared(alg) == [] == d_squared_failing_degrees_all(alg), alg


def test_d_squared_detects_broken_structure():
    # dim-7 mutant with a genuinely non-Jacobi bracket: d^2 != 0
    h = heisenberg(3, 2)
    brackets = dict(h.brackets)
    brackets[(0, 2, 6)] = {0: 1}  # [x1_1, x2_1, z] = x1_1
    mutant = KaryAlgebra(3, 7, h.labels, brackets)
    failing = verify_d_squared(mutant)
    assert failing == [5, 6, 7] == d_squared_failing_degrees_all(mutant)
    m5 = differential_matrix(mutant, 5)
    m3 = differential_matrix(mutant, 3)
    assert not multiply(m3, m5).is_zero()


def test_d_squared_at_two_degrees_matches_the_all_degree_sweep():
    # random bracket tables, mostly not Filippov and half of the rest
    # upper-triangular.  Every fifth draw is 2-step of arity 3 (outputs
    # outside every key), where two disjoint keys with distinct outputs
    # make d^2 fail first at degree 2k.  The verdict from degrees 2k-1
    # and 2k, and the failing list when it fails, must be the sweep's.
    rng = random.Random(20261019)
    shapes = [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (7, 3), (7, 4), (8, 4)]
    broken, first_at_2k, not_filippov = Counter(), 0, 0
    for draw in range(240):
        two_step = draw % 5 == 0
        n, k = (8, 3) if two_step else rng.choice(shapes)
        keys = list(combinations(range(n - 2 if two_step else n), k))
        brackets = {}
        for K in rng.sample(keys, min(rng.randint(1, k + 5), len(keys))):
            if two_step:
                pool = range(n - 2, n)
            else:
                pool = range(K[-1] + 1, n) if rng.random() < 0.5 else range(n)
            if pool:
                outs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
                brackets[K] = {w: rng.choice([-2, -1, 1, 2]) for w in outs}
        alg = KaryAlgebra(k, n, [f"e{i}" for i in range(n)], brackets)
        expected = d_squared_failing_degrees_all(alg)
        assert verify_d_squared(alg) == expected, (k, n, brackets)
        broken[k] += bool(expected)
        first_at_2k += expected[:1] == [2 * k]
        not_filippov += bool(check_jacobi(alg))
    assert 80 <= sum(broken.values()) <= 160 and min(broken[k] for k in (2, 3, 4)) >= 5
    assert first_at_2k >= 10 and not_filippov > 120


def test_weight_blocks_structure():
    f = free_two_step(3, 3)
    blocks = weight_blocks(f, 3)
    b = blocks[(1, 1, 1)]
    assert b.column_monomials == ((0, 1, 2),)
    assert b.row_monomials == ((3,),)
    assert b.matrix.entries == {(0, 0): 1}
    # blocks partition the columns
    assert sum(len(blk.column_monomials) for blk in blocks.values()) == comb(4, 3)


def test_weight_blocks_reassemble_full_matrix():
    f = free_two_step(3, 4)
    t = 5
    full = differential_matrix(f, t)
    cols = wedge_basis(f, t)
    rows = wedge_basis(f, t - 2)
    col_idx = {m: i for i, m in enumerate(cols)}
    row_idx = {m: i for i, m in enumerate(rows)}
    seen = {}
    total_cols = 0
    for blk in weight_blocks(f, t).values():
        total_cols += len(blk.column_monomials)
        for (r, c), v in blk.matrix.entries.items():
            gr = row_idx[blk.row_monomials[r]]
            gc = col_idx[blk.column_monomials[c]]
            seen[(gr, gc)] = v
    assert total_cols == len(cols)
    assert seen == full.entries
    # and the rank splits over blocks
    assert sum(rank(b.matrix) for b in weight_blocks(f, t).values()) == rank(full)


def test_weight_blocks_respect_weights():
    f = free_two_step(2, 3)
    for t in (2, 3):
        for w, blk in weight_blocks(f, t).items():
            for mono in blk.column_monomials:
                assert monomial_weight(f, mono) == w
            for mono in blk.row_monomials:
                assert monomial_weight(f, mono) == w


def test_weight_blocks_require_grading():
    with pytest.raises(InputError):
        weight_blocks(heisenberg(2, 2), 2)
    with pytest.raises(InputError):
        monomial_weight(heisenberg(2, 2), (0, 1))


def test_chain_layout_degrees():
    assert ChainLayout(heisenberg(3, 2)).degrees == [0, 1, 3, 5, 7]
    assert ChainLayout(heisenberg(2, 2)).degrees == [0, 1, 2, 3, 4, 5]
    assert ChainLayout(heisenberg(5, 1)).degrees == [0, 1, 5]


def test_rank_oracle_on_differentials():
    # spot-check the sparse rank against dense elimination
    for alg, t in ((acj(3, 2), 5), (free_two_step(2, 4), 4), (heisenberg(4, 2), 7)):
        m = differential_matrix(alg, t)
        assert rank(m) == dense_rank(m.to_dense())


def _matrix_from_images(alg, columns, rows):
    """The matrix of d built column by column from the definition."""
    row_index = {mono: i for i, mono in enumerate(rows)}
    entries = {}
    for j, mono in enumerate(columns):
        for out, v in boundary_by_definition(alg, {mono: 1}).items():
            entries[(row_index[out], j)] = v
    return SparseIntMatrix(len(rows), len(columns), entries)


def _random_bracket_table(rng, arity, dim):
    """Brackets with outputs inside their own keys, so that terms from
    different keys land on one entry, add up and sometimes cancel."""
    brackets = {}
    for key in combinations(range(dim), arity):
        if rng.random() < 0.6:
            outs = rng.sample(range(dim), rng.randrange(1, 3))
            brackets[key] = {w: rng.choice((1, -1, 2)) for w in outs}
    return KaryAlgebra(arity, dim, [f"e{i}" for i in range(dim)], brackets)


def test_assembly_matches_definition_oracle():
    rng = random.Random(41)
    algebras = [
        heisenberg(3, 2),
        acj(3, 2),
        free_three_step_small(3),
        free_three_step_small(4),
        current_algebra(heisenberg(2, 1), 2),
        flip_bracket_signs(acj(2, 3), rng),
        _random_bracket_table(rng, 2, 6),
        _random_bracket_table(rng, 3, 7),
    ]
    for alg in algebras:
        k = alg.arity
        for t in range(k, alg.dim + 1):
            expected = _matrix_from_images(alg, wedge_basis(alg, t), wedge_basis(alg, t - k + 1))
            assert differential_matrix(alg, t) == expected, (alg, t)

    f = free_two_step(2, 4)
    for t in range(2, f.dim + 1):
        cols, rows = wedge_basis(f, t), wedge_basis(f, t - 1)
        col_idx = {m: i for i, m in enumerate(cols)}
        row_idx = {m: i for i, m in enumerate(rows)}
        whole = {}
        for blk in weight_blocks(f, t).values():
            assert blk.matrix == _matrix_from_images(f, blk.column_monomials, blk.row_monomials)
            for (r, c), v in blk.matrix.entries.items():
                whole[(row_idx[blk.row_monomials[r]], col_idx[blk.column_monomials[c]])] = v
        expected = _matrix_from_images(f, cols, rows)
        assert SparseIntMatrix(len(rows), len(cols), whole) == expected == differential_matrix(f, t)


def _direct_ranks(alg):
    """{t: rank d_t} for every t in [0, dim+k-1], each matrix assembled
    and ranked on its own, without the layout."""
    return {
        t: rank(differential_matrix(alg, t)) if alg.arity <= t <= alg.dim else 0
        for t in range(alg.dim + alg.arity)
    }


def test_boundary_ranks_are_dual():
    # rank d_t = rank d_{dim+k-1-t} for nilpotent algebras (traceless ad),
    # on directly ranked matrices; the layout, which mirrors, must agree
    algebras = [
        family(k, m)
        for family in (heisenberg, acj)
        for k in (2, 3, 4)
        for m in range(1, 5)
        if k * m + 1 <= 10
    ]
    algebras += [
        free_two_step(2, 4),
        free_two_step(3, 4),
        free_three_step_small(3),
        free_three_step_small(4),
        current_algebra(heisenberg(2, 1), 2),
        current_algebra(heisenberg(3, 1), 2),
        abelian(3, 5),
    ]
    assert len(algebras) >= 25
    for alg in algebras:
        direct, top = _direct_ranks(alg), alg.dim + alg.arity - 1
        layout = ChainLayout.of(alg)
        assert layout.top == top, alg
        for t in range(top + 1):
            assert direct[t] == direct[top - t], (alg, t)
            assert layout.boundary_rank(t) == direct[t], (alg, t)


@pytest.mark.parametrize(
    "alg, ranks",
    [
        # solvable, [x, y] = y: tr ad(x) = -1; rank d_2 is 1, its mirror d_1 is 0
        (KaryAlgebra(2, 2, "xy", {(0, 1): {1: 1}}), {2: 1}),
        # [a, b, c] = c: tr ad(a, b) = 1; d_3, d_4 have rank 1, 1, mirrors 1, 0
        (KaryAlgebra(3, 4, "abcd", {(0, 1, 2): {2: 1}}), {3: 1, 4: 1}),
    ],
    ids=["solvable-2d", "arity-3-trace"],
)
def test_layout_ranks_every_degree_when_an_ad_has_trace(alg, ranks):
    direct, top = _direct_ranks(alg), alg.dim + alg.arity - 1
    assert {t: direct[t] for t in ranks} == ranks
    assert any(direct[top - t] != r for t, r in ranks.items())  # not dual
    layout = ChainLayout.of(alg)
    assert layout.top is None
    assert {t: layout.boundary_rank(t) for t in direct} == direct


def test_traceless_algebra_mirrors_without_being_nilpotent(monkeypatch):
    # sl2 = [sl2, sl2], so every ad is a commutator and traceless, but sl2
    # is not nilpotent; duality needs only the trace, so d_3 is never ranked
    import karyhom.chains

    sl2 = KaryAlgebra(2, 3, "hef", {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    calls = []

    def counting_rank(matrix):
        calls.append((matrix.rows, matrix.cols))
        return rank(matrix)

    monkeypatch.setattr(karyhom.chains, "rank", counting_rank)
    layout = ChainLayout.of(sl2)
    assert layout.top == 4
    assert [layout.betti(t) for t in layout.degrees] == [1, 0, 0, 1]
    assert calls == [(3, 3)]  # d_2 only
    assert {t: layout.boundary_rank(t) for t in range(5)} == _direct_ranks(sl2)


def test_weight_block_ranks_sum_to_whole_rank():
    # Betti numbers come from whole boundaries and characters from weight
    # blocks; the two must agree at every boundary degree
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    filiform3 = KaryAlgebra(  # [x0, x1, x_i] = x_{i+1}, graded by hand
        3, 6, "abcdef",
        {(0, 1, 2): {3: 1}, (0, 1, 3): {4: 1}, (0, 1, 4): {5: 1}},
        {0: e[0], 1: e[1], 2: e[2], 3: (1, 1, 1), 4: (2, 2, 1), 5: (3, 3, 1)},
    )
    for alg in (free_two_step(2, 4), free_two_step(3, 4), filiform3):
        for t in range(alg.arity, alg.dim + 1):
            blocks = weight_blocks(alg, t).values()
            whole = rank(differential_matrix(alg, t))
            assert sum(rank(b.matrix) for b in blocks) == whole, (alg, t)
