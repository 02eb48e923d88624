"""Soules vectors, trees, projectors, synthesis, and the greedy basis search."""

import io
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from helpers import paper_scaled, random_complete_tree, random_tree, reference_best_soules_basis
from hypothesis import given, settings
from hypothesis import strategies as st

from specbary import barycentre, graph_core, ingest, sbm
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
    for perm in ([0, 1, 2], [0, 1, 2, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="not a permutation"):
            so.best_soules_basis(np.eye(4), 2, np.array(perm))


def _splits(s: np.ndarray, depth: int, perm: np.ndarray | None = None) -> tuple:
    """The splits the search gives on s relabelled by perm (node i moves to
    perm[i]), which it reads as the entries of s in their own order."""
    return so.best_soules_basis(s, depth, perm).tree.splits


def _reference_splits(s: np.ndarray, depth: int) -> tuple:
    return reference_best_soules_basis(s, depth).tree.splits


def _exact_value(s: np.ndarray, split: so.SoulesSplit) -> Fraction:
    """The split projector's inner product with s (the square root of its
    score, up to sign) in exact rational arithmetic on the entries of s."""
    def total(rows, cols):
        return sum(map(Fraction, s[rows, cols].ravel().tolist()), Fraction(0))

    lo = slice(split.i0 - 1, split.istar)
    hi = slice(split.istar, split.i1)
    L = split.i1 - split.i0 + 1
    r0 = split.istar - split.i0 + 1
    r1 = split.i1 - split.istar
    return (Fraction(r1, L * r0) * total(lo, lo) + Fraction(r0, L * r1) * total(hi, hi)
            - Fraction(2, L) * total(lo, hi))


@st.composite
def _eighths_matrix(draw):
    """Small symmetric matrices on a 1/8 grid: free entries, or planted ties
    (constant blocks, duplicated rows, the zero matrix, structureless c J + (d - c) I)."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["free", "constant_blocks", "duplicated_rows", "zero",
                                 "structureless"]))
    entry = st.integers(-16, 16)
    if kind == "zero":
        s = np.zeros((n, n))
    elif kind == "structureless":
        # c off the diagonal and d on it: every cut of every leaf ties at (d - c)^2
        s = np.full((n, n), draw(entry) / 8.0)
        np.fill_diagonal(s, draw(entry) / 8.0)
    else:
        k = draw(st.integers(1, n)) if kind != "free" else n
        base = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k)), float).reshape(k, k) / 8
        base = np.triu(base) + np.triu(base, 1).T
        if kind == "constant_blocks":
            index = np.sort(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        elif kind == "duplicated_rows":
            index = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        else:
            index = np.arange(n)
        s = base[np.ix_(index, index)]
    return s, draw(st.integers(1, n))


@settings(max_examples=400)
@given(case=_eighths_matrix(), seed=st.integers(0, 2**32 - 1))
def test_split_search_matches_table_reference_on_eighths(case, seed):
    # entries on a 1/8 grid make every block sum exact in both searches, so
    # scores agree bit for bit and planted ties are broken the same way under
    # any relabelling of the nodes, which hands the search its entries out of
    # row order
    s, depth = case
    perm = np.random.default_rng(seed).permutation(len(s))
    assert _splits(s, depth) == _reference_splits(s, depth)
    permuted = graph_core.permute(s, perm)
    assert _splits(s, depth, perm) == _splits(permuted, depth) == _reference_splits(permuted, depth)


def test_split_search_matches_table_reference_on_criterion_04_inputs():
    # the first split of every two-block configuration criterion 04 checks.
    # Its entries are not dyadic, so the two searches round differently; they
    # may pick different cuts only where the exact values lie within the
    # search's noise scale, 64 eps times the absolute mass
    grid = np.linspace(0.1, 0.9, 5)
    combos = [(p0, p1, q) for p0, p1, q in product(grid, grid, grid) if p0 + p1 > 2 * q]
    flipped = 0
    for length in range(2, 22):
        for offset in (0, 3):
            i0, i1 = 1 + offset, length + offset
            n = i1 + 2
            for j in range(i0, i1):
                for p0, p1, q in combos:
                    s = np.full((n, n), q)
                    s[i0 - 1 : j, i0 - 1 : j] = p0
                    s[j:i1, j:i1] = p1
                    (new,), (ref,) = _splits(s, 2), _reference_splits(s, 2)
                    if new != ref:
                        gap = abs(abs(_exact_value(s, new)) - abs(_exact_value(s, ref)))
                        assert gap <= 64 * np.finfo(float).eps * np.abs(s).sum(), (s, new, ref)
                        flipped += 1
    assert flipped < 300  # 232 near-ties flip out of 23,520 inputs


def test_split_search_matches_table_reference_on_criterion_05_inputs():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(411)))
    for _ in range(50):
        M = int(rng.integers(2, 9))
        n = int(rng.integers(4 * M, 257))
        extra = n - 2 * M
        cuts = np.sort(rng.integers(0, extra + 1, size=M - 1))
        sizes = tuple(int(2 + e) for e in np.diff(np.concatenate([[0], cuts, [extra]])))
        p = tuple(rng.uniform(0.3, 0.9, size=M).tolist())
        while len(set(p)) < M:
            p = tuple(rng.uniform(0.3, 0.9, size=M).tolist())
        spec = sbm.SbmSpec(block_sizes=sizes, p=p, q=float(rng.uniform(0.05, 0.25)))
        population = sbm.population_mean(spec)
        assert _splits(population, M) == _reference_splits(population, M)


@pytest.mark.parametrize("M,T", [(8, 1), (32, 1), (4, 8)])
def test_split_search_matches_table_reference_on_sbm_2048(M, T):
    spec = paper_scaled(2048, M)
    mean = barycentre.sample_mean_adjacency([sbm.sample(spec, (71, t)) for t in range(T)])
    assert _splits(mean, M) == _reference_splits(mean, M)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("M", [10, None])
def test_split_search_matches_table_reference_on_school_mornings(seed, M):
    table = ingest.parse_contacts(io.StringIO(ingest.synthetic_school_day(seed)))
    graphs = ingest.window_graphs(table, ingest.MORNING_START, ingest.MORNING_END,
                                  ingest.MORNING_WIDTH).graphs
    result = barycentre.compute_barycentre(graphs, M=M)
    mean_perm = graph_core.permute(barycentre.sample_mean_adjacency(graphs), result.permutation)
    depth = result.spectrum.M
    assert _splits(mean_perm, depth) == _reference_splits(mean_perm, depth)


def test_split_search_needs_no_n_by_n_scratch():
    n = 2048
    e = graph_core.adjacency_entries(sbm.sample(paper_scaled(n, 32), (72, 0)))
    perm = np.random.default_rng(72).permutation(n)
    tracemalloc.start()
    try:
        so.best_soules_basis(e, 32, perm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


def test_complete_basis_extends_and_preserves_prefix():
    spec = sbm.SbmSpec(block_sizes=(3, 5), p=(0.8, 0.6), q=0.1)
    partial = so.best_soules_basis(sbm.population_mean(spec), depth=2)
    full = so.complete_basis(partial)
    assert full.is_complete
    assert full.tree.splits[: len(partial.tree.splits)] == partial.tree.splits
    assert np.abs(full.vectors.T @ full.vectors - np.eye(8)).max() < 1e-12
    assert so.complete_basis(full) is full
