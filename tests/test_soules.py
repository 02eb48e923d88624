"""Soules vectors, trees, projectors, synthesis, and the greedy basis search."""

import numpy as np
import pytest
from helpers import random_complete_tree, random_tree

from specbary import sbm
from specbary import soules as so


def test_split_validation():
    so.SoulesSplit(i0=1, i1=4, istar=2, level=1)
    with pytest.raises(ValueError):
        so.SoulesSplit(i0=1, i1=4, istar=4, level=1)  # istar must stay below i1
    with pytest.raises(ValueError):
        so.SoulesSplit(i0=3, i1=2, istar=3, level=1)
    with pytest.raises(ValueError):
        so.SoulesSplit(i0=1, i1=4, istar=2, level=0)


def test_tree_replay_rejects_non_leaf_split():
    with pytest.raises(ValueError):
        so.SoulesTree(n=4, splits=(so.SoulesSplit(i0=2, i1=4, istar=3, level=1),))


def test_tree_leaves_by_depth():
    tree = so.SoulesTree(
        n=6,
        splits=(
            so.SoulesSplit(i0=1, i1=6, istar=2, level=1),
            so.SoulesSplit(i0=3, i1=6, istar=4, level=2),
        ),
    )
    assert tree.leaves(depth=1) == [(1, 6)]
    assert tree.leaves(depth=2) == [(1, 2), (3, 6)]
    assert tree.leaves() == [(1, 2), (3, 4), (5, 6)]
    with pytest.raises(ValueError):
        tree.leaves(depth=4)


def test_build_vector_symmetric_split():
    v = so.build_vector(4, so.SoulesSplit(i0=1, i1=4, istar=2, level=1))
    assert np.allclose(v, [0.5, 0.5, -0.5, -0.5], atol=1e-15)


def test_build_vector_uneven_split():
    v = so.build_vector(3, so.SoulesSplit(i0=1, i1=3, istar=1, level=1))
    assert np.allclose(v, [0.816496580927726, -0.408248290463863, -0.408248290463863], atol=1e-14)


def test_build_vector_sub_interval():
    v = so.build_vector(5, so.SoulesSplit(i0=3, i1=5, istar=4, level=1))
    expected = [0.0, 0.0, 0.408248290463863, 0.408248290463863, -0.816496580927726]
    assert np.allclose(v, expected, atol=1e-14)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_build_vector_rejects_oversized_split():
    with pytest.raises(ValueError):
        so.build_vector(3, so.SoulesSplit(i0=1, i1=4, istar=2, level=1))


def test_rank_one_projection_symmetric_split():
    proj = so.rank_one_projection(4, so.SoulesSplit(i0=1, i1=4, istar=2, level=1))
    expected = np.full((4, 4), -0.25)
    expected[:2, :2] = 0.25
    expected[2:, 2:] = 0.25
    assert np.allclose(proj, expected, atol=1e-15)


def test_rank_one_projection_uneven_case():
    proj = so.rank_one_projection(3, so.SoulesSplit(i0=1, i1=3, istar=1, level=1))
    assert proj[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert np.trace(proj) == pytest.approx(1.0, abs=1e-14)


def test_rank_one_projection_matches_outer_product():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        tree = random_tree(rng, n, n_splits=max(1, int(rng.integers(1, n))))
        for split in tree.splits:
            v = so.build_vector(n, split)
            assert np.abs(so.rank_one_projection(n, split) - np.outer(v, v)).max() < 1e-15


def test_cumulative_projector_first_is_mean_projector():
    rng = np.random.default_rng(4)
    basis = so.materialize(random_complete_tree(rng, 6))
    assert np.allclose(so.cumulative_projector(basis, 1), np.full((6, 6), 1 / 6), atol=1e-15)


def test_cumulative_projector_complete_is_identity():
    rng = np.random.default_rng(5)
    basis = so.materialize(random_complete_tree(rng, 9))
    assert np.abs(so.cumulative_projector(basis, 9) - np.eye(9)).max() < 1e-12


def test_cumulative_projector_two_blocks():
    tree = so.SoulesTree(n=4, splits=(so.SoulesSplit(i0=1, i1=4, istar=2, level=1),))
    basis = so.materialize(tree)
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5
    expected[2:, 2:] = 0.5
    assert np.allclose(so.cumulative_projector(basis, 2), expected, atol=1e-15)


def test_cumulative_projector_equals_leaf_block_form():
    # E_M is 1/|J| on each depth-M leaf block J, whatever the split order
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 50))
        tree = random_complete_tree(rng, n)
        basis = so.materialize(tree)
        M = int(rng.integers(1, n + 1))
        expected = np.zeros((n, n))
        for a, b in tree.leaves(depth=M):
            expected[a - 1 : b, a - 1 : b] = 1.0 / (b - a + 1)
        assert np.abs(so.cumulative_projector(basis, M) - expected).max() < 1e-12


def test_cumulative_projector_range_check():
    rng = np.random.default_rng(7)
    basis = so.materialize(random_complete_tree(rng, 5))
    with pytest.raises(ValueError):
        so.cumulative_projector(basis, 0)
    with pytest.raises(ValueError):
        so.cumulative_projector(basis, 6)


def test_materialize_orthonormal_columns():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        basis = so.materialize(random_tree(rng, n))
        gram = basis.vectors.T @ basis.vectors
        assert np.abs(gram - np.eye(basis.K)).max() < 1e-12


def test_materialize_partial_depth():
    rng = np.random.default_rng(9)
    tree = random_complete_tree(rng, 8)
    basis = so.materialize(tree, depth=3)
    assert basis.K == 3
    assert not basis.is_complete
    assert len(basis.tree.splits) == 2


def test_synthesize_constant_spectrum_gives_identity():
    rng = np.random.default_rng(10)
    basis = so.materialize(random_complete_tree(rng, 7))
    assert np.abs(so.synthesize_symmetric(basis, np.full(7, 2.5)) - 2.5 * np.eye(7)).max() < 1e-12


def test_synthesize_nonnegative_for_any_three_node_basis():
    trees = [
        so.SoulesTree(n=3, splits=(so.SoulesSplit(1, 3, 1, 1), so.SoulesSplit(2, 3, 2, 2))),
        so.SoulesTree(n=3, splits=(so.SoulesSplit(1, 3, 2, 1), so.SoulesSplit(1, 2, 1, 2))),
    ]
    for tree in trees:
        out = so.synthesize_symmetric(so.materialize(tree), np.array([1.0, 0.5, 0.0]))
        assert out.min() >= -1e-15


def test_synthesize_laplacian_signs_from_ascending_spectrum():
    rng = np.random.default_rng(11)
    basis = so.materialize(random_complete_tree(rng, 12))
    lam = np.sort(rng.uniform(0.0, 2.0, 12))
    lam[0] = 0.0
    lap = -so.synthesize_symmetric(basis, -lam)
    off = lap[~np.eye(12, dtype=bool)]
    assert off.max() <= 1e-12
    assert np.abs(lap @ np.ones(12)).max() < 1e-9


def test_synthesize_input_validation():
    rng = np.random.default_rng(12)
    complete = so.materialize(random_complete_tree(rng, 5))
    with pytest.raises(ValueError):
        so.synthesize_symmetric(complete, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))  # increasing
    partial = so.materialize(random_complete_tree(rng, 5), depth=2)
    with pytest.raises(ValueError):
        so.synthesize_symmetric(partial, np.ones(5))


def test_inner_product_score_identity_and_ones():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        tree = random_tree(rng, n, n_splits=1)
        split = tree.splits[0]
        assert so.inner_product_score(np.eye(n), split) == pytest.approx(1.0, abs=1e-12)
        assert so.inner_product_score(np.ones((n, n)), split) == pytest.approx(0.0, abs=1e-20)


def test_inner_product_score_two_block_closed_form():
    spec = sbm.SbmSpec(block_sizes=(2, 2), p=(0.9, 0.9), q=0.1)
    split = so.SoulesSplit(i0=1, i1=4, istar=2, level=1)
    score = so.inner_product_score(sbm.population_mean(spec), split)
    # (r0 r1 / L)^2 (p0 + p1 - 2q)^2 with r0 = r1 = 2, L = 4
    assert score == pytest.approx(2.56, abs=1e-12)


def test_inner_product_score_matches_definition():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        s = rng.standard_normal((n, n))
        s = (s + s.T) / 2
        tree = random_tree(rng, n, n_splits=max(1, int(rng.integers(1, n))))
        for split in tree.splits:
            v = so.build_vector(n, split)
            direct = float(np.outer(v, v).ravel() @ s.ravel()) ** 2
            assert so.inner_product_score(s, split) == pytest.approx(direct, abs=1e-10)


def test_best_basis_two_block_boundary():
    spec = sbm.SbmSpec(block_sizes=(2, 2), p=(0.9, 0.9), q=0.1)
    basis = so.best_soules_basis(sbm.population_mean(spec), depth=2)
    assert basis.tree.splits[0].istar == 2


def test_best_basis_tie_break_on_constant_matrix():
    basis = so.best_soules_basis(np.full((4, 4), 0.7), depth=3)
    first, second = basis.tree.splits
    assert (first.i0, first.i1, first.istar) == (1, 4, 1)
    assert (second.i0, second.i1, second.istar) == (2, 4, 2)


def test_best_basis_four_block_reference_boundaries():
    # uneven four-community model: split positions sit at the block edges
    n = 512
    logn = np.log(n)
    spec = sbm.SbmSpec(
        block_sizes=(63, 147, 105, 197),
        p=tuple(c * logn**2 / n for c in (1.0, 2.0, 3.0, 4.0)),
        q=2 * logn / n,
    )
    basis = so.best_soules_basis(sbm.population_mean(spec), depth=4)
    assert sorted(s.istar for s in basis.tree.splits) == [63, 210, 315]


def test_best_basis_input_validation():
    with pytest.raises(ValueError):
        so.best_soules_basis(np.zeros((3, 4)), depth=2)
    with pytest.raises(ValueError):
        so.best_soules_basis(np.array([[0.0, 1.0], [0.5, 0.0]]), depth=2)
    with pytest.raises(ValueError):
        so.best_soules_basis(np.eye(4), depth=5)


def test_complete_basis_extends_and_preserves_prefix():
    spec = sbm.SbmSpec(block_sizes=(3, 5), p=(0.8, 0.6), q=0.1)
    partial = so.best_soules_basis(sbm.population_mean(spec), depth=2)
    full = so.complete_basis(partial)
    assert full.is_complete
    assert full.tree.splits[: len(partial.tree.splits)] == partial.tree.splits
    assert np.abs(full.vectors.T @ full.vectors - np.eye(8)).max() < 1e-12
    assert so.complete_basis(full) is full
