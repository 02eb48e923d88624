"""Mean spectra, regularization, truncated Laplacians, degree estimates,
reconstruction, and the end-to-end pipeline."""

import hashlib
import io
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import (PARTIAL_PATH_CASES, expand_blocks, four_block_spec, paper_scaled,
                     permuted_run_mse, reference_barycentre, reference_degrees, reference_mse,
                     reference_pipeline_heads)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specbary import alignment, eigen, graph_core, ingest, sbm, soules
from specbary import barycentre as bc


def test_sample_mean_of_copies():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(bc.sample_mean_adjacency([a, a, a]), a)


def test_sample_mean_zero_and_complete():
    zero = np.zeros((3, 3))
    complete = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(bc.sample_mean_adjacency([zero, complete]), complete / 2)


def test_sample_mean_concentration():
    spec = sbm.balanced(32, 2, 0.5, 0.1)
    mean = bc.sample_mean_adjacency([sbm.sample(spec, (21, t)) for t in range(100)])
    off = ~np.eye(32, dtype=bool)
    assert np.abs(mean - sbm.population_mean(spec))[off].max() < 0.2


def test_sample_mean_validation():
    with pytest.raises(ValueError):
        bc.sample_mean_adjacency([])
    with pytest.raises(ValueError):
        bc.sample_mean_adjacency([np.zeros((2, 2)), np.zeros((3, 3))])


def test_mean_eigenvalues():
    assert np.array_equal(
        bc.sample_mean_eigenvalues([np.array([0.0, 1.0]), np.array([0.0, 3.0])]), [0.0, 2.0]
    )
    spectra = [np.array([0.5, 1.5])] * 4
    assert np.array_equal(bc.sample_mean_eigenvalues(spectra), [0.5, 1.5])
    with pytest.raises(ValueError):
        bc.sample_mean_eigenvalues([np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0])])


def test_mean_second_eigenvalue_concentrates_on_limit():
    spec = sbm.balanced(1000, 2, 0.2, 0.05)
    lam2 = []
    for t in range(50):
        a = sbm.sample(spec, (31, t))
        lam2.append(eigen.sym_eig_values(graph_core.normalized_laplacian(a))[1])
    assert abs(np.mean(lam2) - sbm.limit_eigenvalues(spec)[1]) < 0.05


def test_regularize_keeps_head_and_sets_bulk_to_one():
    got = bc.regularize_eigenvalues(np.array([0.0, 0.3, 0.9, 1.1]), 2)
    assert np.array_equal(got.regularized, [0.0, 0.3, 1.0, 1.0])
    assert got.M == 2
    assert np.array_equal(got.sample_mean, [0.0, 0.3, 0.9, 1.1])


def test_regularize_full_depth_is_identity_map():
    mean = np.array([0.0, 0.4, 0.9, 1.3])
    assert np.array_equal(bc.regularize_eigenvalues(mean, 4).regularized, mean)


def test_regularize_fixes_limit_spectrum():
    spec = sbm.balanced(64, 4, 0.5, 0.1)
    limits = sbm.limit_eigenvalues(spec)
    assert np.array_equal(bc.regularize_eigenvalues(limits, 4).regularized, limits)


def test_regularize_rejects_unsorted_input():
    with pytest.raises(ValueError):
        bc.regularize_eigenvalues(np.array([0.0, 0.5, 0.3]), 2)


def test_regularize_warns_when_head_crosses_bulk(caplog):
    with caplog.at_level(logging.WARNING, logger="specbary.barycentre"):
        got = bc.regularize_eigenvalues(np.array([0.0, 1.05, 1.2]), 2)
    assert got.regularized[1] == pytest.approx(1.05)
    assert any("non-ascending" in record.getMessage() for record in caplog.records)


def _laplacian(spectrum: bc.MeanSpectrum, basis: soules.SoulesBasis) -> np.ndarray:
    # L_hat = I + Z B Z^T from the block matrix B of truncated_laplacian
    blocks = basis.tree.leaves(depth=spectrum.M)
    return np.eye(basis.n) + expand_blocks(bc.truncated_laplacian(spectrum, basis), blocks)


def test_truncated_laplacian_all_ones_spectrum():
    basis = soules.complete_basis(soules.best_soules_basis(np.eye(6), depth=1))
    spectrum = bc.MeanSpectrum(sample_mean=np.ones(6), M=1, regularized=np.ones(6))
    assert bc.truncated_laplacian(spectrum, basis).shape == (1, 1)
    assert np.abs(_laplacian(spectrum, basis) - np.eye(6)).max() < 1e-12


def test_truncated_laplacian_reproduces_expected_laplacian():
    spec = sbm.balanced(32, 4, 0.7, 0.1)
    P = sbm.population_mean(spec)
    basis = soules.complete_basis(soules.best_soules_basis(P, depth=4))
    spectrum = bc.regularize_eigenvalues(sbm.limit_eigenvalues(spec), 4)
    lap = _laplacian(spectrum, basis)
    assert np.abs(lap - sbm.expected_laplacian(spec)).max() < 1e-9


def test_truncated_laplacian_annihilates_ones_when_lambda1_zero():
    rng = np.random.default_rng(6)
    s = rng.random((10, 10))
    s = (s + s.T) / 2
    basis = soules.complete_basis(soules.best_soules_basis(s, depth=3))
    mean = np.sort(rng.uniform(0.0, 1.0, 10))
    mean[0] = 0.0
    spectrum = bc.regularize_eigenvalues(mean, 3)
    lap = _laplacian(spectrum, basis)
    assert np.linalg.norm(lap @ np.ones(10)) <= 1e-9 * np.sqrt(10)


def test_truncated_laplacian_rejects_basis_shorter_than_M():
    basis = soules.best_soules_basis(np.eye(6), depth=2)
    spectrum = bc.MeanSpectrum(sample_mean=np.ones(6), M=3, regularized=np.ones(6))
    with pytest.raises(ValueError):
        bc.truncated_laplacian(spectrum, basis)
    # M columns suffice: the partial basis gives the same matrix as a complete one
    spectrum = bc.MeanSpectrum(sample_mean=np.ones(3), M=2, regularized=np.array([0.0, 0.5, 1, 1, 1, 1]))
    full = bc.truncated_laplacian(spectrum, soules.complete_basis(basis))
    assert np.array_equal(bc.truncated_laplacian(spectrum, basis), full)


def test_estimate_block_degrees_constant_block():
    blocks = ((1, 4), (5, 6))
    a = np.zeros((6, 6))
    a[:4, :4] = 0.5
    got = bc.estimate_block_degrees(a, blocks)
    assert np.allclose(got.values, [4 * 0.5, 0.0])
    assert got.blocks == blocks


def test_estimate_block_degrees_zero_matrix():
    got = bc.estimate_block_degrees(np.zeros((5, 5)), ((1, 2), (3, 5)))
    assert np.array_equal(got.values, [0.0, 0.0])


def test_estimate_block_degrees_hoeffding_band():
    # many samples: the within-block estimate lands near s * p well inside
    # the deviation band at level 0.01
    spec = sbm.balanced(64, 2, 0.6, 0.1)
    T = 200
    mean = bc.sample_mean_adjacency([sbm.sample(spec, (9, t)) for t in range(T)])
    got = bc.estimate_block_degrees(mean, ((1, 32), (33, 64)))
    s = 32
    delta = np.sqrt(s * (s - 1) * np.log(100.0) / (4 * T))
    assert np.abs(got.values - s * 0.6).max() < delta


def test_estimate_block_degrees_partition_checks():
    with pytest.raises(ValueError):
        bc.estimate_block_degrees(np.zeros((4, 4)), ((1, 2),))
    with pytest.raises(ValueError):
        bc.estimate_block_degrees(np.zeros((4, 4)), ((1, 2), (2, 4)))


def test_average_node_degrees_match_population():
    spec = sbm.SbmSpec(block_sizes=(3, 5), p=(0.8, 0.6), q=0.2)
    got = bc.average_node_degrees(reference_degrees(sbm.population_mean(spec)), ((1, 3), (4, 8)))
    dbar = sbm.expected_degrees(spec)
    assert np.allclose(got.values, [dbar[0], dbar[-1]])


def test_reconstruct_identity_laplacian_gives_zero():
    # L_hat = I is the zero block matrix
    degrees = bc.BlockDegrees(values=np.array([2.0]), blocks=((1, 4),))
    mu_blocks = bc.reconstruct_barycentre(np.zeros((1, 1)), degrees)
    assert np.array_equal(expand_blocks(mu_blocks, degrees.blocks), np.zeros((4, 4)))


def test_reconstruct_population_round_trip():
    spec = sbm.balanced(24, 3, 0.75, 0.15)
    P = sbm.population_mean(spec)
    blocks = ((1, 8), (9, 16), (17, 24))
    # L - I read at one node per block
    first = [a - 1 for a, _ in blocks]
    lap_blocks = (sbm.expected_laplacian(spec) - np.eye(24))[np.ix_(first, first)]
    degrees = bc.average_node_degrees(reference_degrees(P), blocks)
    mu_blocks = bc.reconstruct_barycentre(lap_blocks, degrees)
    assert np.abs(expand_blocks(mu_blocks, blocks) - P).max() < 1e-8


def test_reconstruct_rejects_negative_degree():
    degrees = bc.BlockDegrees(values=np.array([-1.0]), blocks=((1, 3),))
    with pytest.raises(ValueError, match="nonnegative"):
        bc.reconstruct_barycentre(np.zeros((1, 1)), degrees)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,), (1, 1)])
def test_reconstruct_rejects_block_matrix_not_matching_degree_blocks(shape):
    degrees = bc.BlockDegrees(values=np.array([1.0, 2.0]), blocks=((1, 3), (4, 6)))
    with pytest.raises(ValueError, match="does not match 2 degree blocks"):
        bc.reconstruct_barycentre(np.zeros(shape), degrees)


def test_mse_basics():
    a = np.ones((3, 3))
    assert bc.mse(a, a) == 0.0
    assert bc.mse(a, a + 0.5) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        bc.mse(a, np.ones((2, 2)))


def test_mse_permutation_invariant():
    rng = np.random.default_rng(12)
    a, b = rng.random((6, 6)), rng.random((6, 6))
    perm = rng.permutation(6)
    assert bc.mse(a, b) == bc.mse(graph_core.permute(a, perm), graph_core.permute(b, perm))


def _same_bits(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes() or (np.isnan(x) and np.isnan(y))


# zeros of both signs, subnormals, the edges of the normal range and mixed
# 1e+-150 magnitudes, whose squares span most of the float range; entries
# near 1e-160 have subnormal squares
_MSE_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-320, 2.2250738585072014e-308, 1.0, -1.0]),
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10),
              st.sampled_from([-160, -155, -150, -75, 0, 75, 150])),
)


@settings(max_examples=500)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6), strip=st.integers(1, 12))
def test_mse_matches_fsum_reference_bit_for_bit(data, rows, cols, strip):
    # a few distinct values, reused, so repeated squares share exponent bins
    pool = data.draw(st.lists(_MSE_ENTRY, min_size=1, max_size=6), label="pool")
    pick = st.lists(st.integers(0, len(pool) - 1), min_size=rows * cols, max_size=rows * cols)
    a = np.array(pool)[data.draw(pick, label="a")].reshape(rows, cols)
    b = np.array(pool)[data.draw(pick, label="b")].reshape(rows, cols)
    for value in data.draw(st.lists(st.sampled_from([np.nan, np.inf]), max_size=2), label="plant"):
        a.flat[data.draw(st.integers(0, a.size - 1))] = value
    # a block form of k x k pool values and one label per row, against a
    # square b; its strips are built as mse reads them
    k = data.draw(st.integers(1, 3), label="k")
    values = np.array(pool)[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=k * k,
                                               max_size=k * k), label="values")].reshape(k, k)
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=rows, max_size=rows),
                                label="labels"))
    if data.draw(st.booleans(), label="plant_block"):
        values.flat[data.draw(st.integers(0, k * k - 1))] = data.draw(st.sampled_from([np.nan, np.inf]))
    blocks = graph_core.BlockMatrix(values, labels)
    square = np.array(pool)[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * rows,
                                               max_size=rows * rows), label="square")].reshape(rows, rows)
    # small strips put row boundaries inside these small inputs
    with mock.patch.object(bc, "_MSE_STRIP", strip):
        assert _same_bits(bc.mse(a, b), reference_mse(a, b))
        assert _same_bits(bc.mse(blocks, square), reference_mse(np.asarray(blocks), square))


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(1, 40), strip=st.integers(1, 40))
def test_mse_of_two_block_forms_matches_dense_bit_for_bit(data, n, strip):
    # a few distinct values, reused, so cells share exponent bins; values
    # from the block-sweep scale (1e-3 to 1) are non-dyadic
    pool = data.draw(st.lists(_MSE_ENTRY | st.floats(1e-3, 1.0), min_size=1, max_size=6), label="pool")

    def block_form(name):
        k = data.draw(st.integers(1, 4), label=f"{name}_k")
        values = np.array(pool)[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=k * k,
                                                   max_size=k * k), label=f"{name}_values")]
        for value in data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2),
                               label=f"{name}_plant"):
            values[data.draw(st.integers(0, k * k - 1))] = value
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label=f"{name}_labels")
        return graph_core.BlockMatrix(values.reshape(k, k), np.array(labels))

    a, b = block_form("a"), block_form("b")
    # small strips split the row cells, and the dense rows, into several
    # strips; inf - inf is nan on every path
    with mock.patch.object(bc, "_MSE_STRIP", strip), np.errstate(invalid="ignore"):
        value = bc.mse(a, b)
        assert _same_bits(value, bc.mse(np.asarray(a), np.asarray(b)))
        assert _same_bits(value, bc.mse(np.asarray(a), b))
        assert _same_bits(value, reference_mse(a, b))


def test_mse_matches_fsum_reference_across_strips():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((700, 300)) * 10.0 ** rng.choice([-150, -3, 0, 150], (700, 300))
    b = (rng.random((700, 300)) < 0.1).astype(float)
    assert _same_bits(bc.mse(a, b), reference_mse(a, b))
    assert _same_bits(bc.mse(a.ravel(), b.ravel()), reference_mse(a, b))
    tiny = rng.standard_normal((700, 300)) * 1e-160  # subnormal squares
    assert _same_bits(bc.mse(tiny, 0 * tiny), reference_mse(tiny, 0 * tiny))
    # a block form whose 700-row strips end inside blocks, against the same
    # kinds of values
    blocks = graph_core.BlockMatrix(rng.standard_normal((5, 5)) * 10.0 ** rng.choice([-150, 0, 150], (5, 5)),
                                    rng.integers(0, 5, 700))
    square = rng.standard_normal((700, 700)) * 10.0 ** rng.choice([-160, -3, 0, 150], (700, 700))
    assert _same_bits(bc.mse(blocks, square), reference_mse(np.asarray(blocks), square))
    with pytest.raises(ValueError, match="shape mismatch"):
        bc.mse(blocks, a)


def test_mse_non_finite_and_overflowing_sums_follow_fsum():
    # each row of these is a strip of its own
    zeros = np.zeros((3, 200_000))
    nan_late, nan_early, inf_only = zeros.copy(), zeros.copy(), zeros.copy()
    nan_late[0, 5], nan_late[2, -1] = np.inf, np.nan
    nan_early[0, 5], nan_early[2, -1] = np.nan, np.inf
    inf_only[1, 7] = -np.inf
    for a, expected in ((nan_late, np.nan), (nan_early, np.nan), (inf_only, np.inf)):
        assert _same_bits(bc.mse(a, zeros), expected)
        assert _same_bits(reference_mse(a, zeros), expected)
    # each square is finite, their sum is past the float range
    big = np.full((2, 2), 1.3e154)
    with pytest.raises(OverflowError):
        reference_mse(big, np.zeros((2, 2)))
    with pytest.raises(OverflowError):
        bc.mse(big, np.zeros((2, 2)))
    # the same rules when both arguments are block forms
    zero = graph_core.BlockMatrix(np.zeros((1, 1)), np.zeros(3, dtype=int))
    labels = np.array([0, 1, 1])
    with pytest.raises(OverflowError):
        bc.mse(graph_core.BlockMatrix(np.full((2, 2), 1.3e154), labels), zero)
    for value, expected in ((np.nan, np.nan), (np.inf, np.inf), (-np.inf, np.inf)):
        # the finite squares alone would overflow; nan, then inf, decide
        # first, as on the dense strips (fsum raises here)
        planted = graph_core.BlockMatrix(np.array([[1.3e154, value], [1.3e154, 1.3e154]]), labels)
        assert _same_bits(bc.mse(planted, zero), expected)
        assert _same_bits(bc.mse(np.asarray(planted), np.asarray(zero)), expected)


def test_mse_needs_no_n_by_n_scratch():
    n = 2048
    population = sbm.population_mean(paper_scaled(n, 32))
    sample = sbm.sample(paper_scaled(n, 32), (73, 0))
    tracemalloc.start()
    try:
        value = bc.mse(population, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n
    assert value == reference_mse(population, sample)
    # in block form, P is never held whole either
    blocks = sbm.population_blocks(paper_scaled(n, 32))
    tracemalloc.start()
    try:
        value = bc.mse(blocks, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n
    assert value == reference_mse(population, sample)
    # with both in block form (32 labels each, so up to 1024 joint cells)
    # only strips of cell pairs are made, so the peak does not grow with n^2
    labels = np.random.default_rng(74).integers(0, 32, n)
    values = np.random.default_rng(75).random((32, 32))
    peaks = []
    for size in (n, 4 * n):
        mu = graph_core.BlockMatrix(values, np.tile(labels, size // n))
        blocks = sbm.population_blocks(paper_scaled(size, 32))
        tracemalloc.start()
        try:
            value = bc.mse(blocks, mu)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if size == n:
            assert value == reference_mse(population, mu)
    assert peaks[0] < 0.15 * 8 * n * n
    assert peaks[1] < peaks[0] + 64 * 3 * n


def test_pipeline_fixed_point_on_population_copies():
    spec = sbm.balanced(48, 4, 0.8, 0.2)
    P = sbm.population_mean(spec)
    result = bc.compute_barycentre([P, P], M=4, seed=0)
    assert np.abs(result.mu_hat - P).max() <= 1e-6
    assert result.degrees.blocks == ((1, 12), (13, 24), (25, 36), (37, 48))


def test_pipeline_eigenvector_condition_on_balanced_population():
    spec = sbm.balanced(64, 4, 0.6, 0.1)
    basis = soules.best_soules_basis(sbm.population_mean(spec), depth=4)
    E = soules.cumulative_projector(basis, 4)
    expected = np.zeros((64, 64))
    for a, b in basis.tree.leaves(depth=4):
        expected[a - 1 : b, a - 1 : b] = 4 / 64
    assert np.abs(E - expected).max() < 1e-10


def test_pipeline_mse_median_decreases_with_sample_count():
    logn = np.log(256)
    spec = sbm.balanced(256, 4, 3 * logn**2 / 256, 2 * logn / 256)
    P = sbm.population_mean(spec)

    def run(T: int, seed_tag: int) -> float:
        graphs = [sbm.sample(spec, (41, seed_tag, t)) for t in range(T)]
        result = bc.compute_barycentre(graphs, M=4, seed=(41, seed_tag))
        return bc.mse(P, result.mu_hat)

    small = np.median([run(1, s) for s in range(20)])
    large = np.median([run(64, s) for s in range(20)])
    assert large < small


def test_pipeline_auto_m_on_sparse_model():
    logn = np.log(512)
    spec = sbm.balanced(512, 4, 3 * logn**2 / 512, 2 * logn / 512)
    graphs = [sbm.sample(spec, (55, t)) for t in range(4)]
    result = bc.compute_barycentre(graphs, M=None, seed=0)
    assert result.spectrum.M == 4


def test_pipeline_single_permuted_sample_reconstructs_population():
    logn = np.log(512)
    spec = sbm.SbmSpec(
        block_sizes=(63, 147, 105, 197),
        p=tuple(c * logn**2 / 512 for c in (1.0, 2.0, 3.0, 4.0)),
        q=2 * logn / 512,
    )
    assert permuted_run_mse(spec, (77, 0)) < 1e-3


def _volumes(spec: sbm.SbmSpec) -> np.ndarray:
    """Each block's share of the population mean's degree sum."""
    sizes, p = np.array(spec.block_sizes), np.array(spec.p)
    return sizes * (sizes * p + (spec.n - sizes) * spec.q)


@st.composite
def _small_specs(draw) -> sbm.SbmSpec:
    # n <= 128: balanced models, whose blocks are all alike, and unbalanced
    # ones whose block volumes differ. Alike blocks in a model with other
    # blocks break the property; see the test after the next
    M = draw(st.integers(1, 4))
    q = draw(st.floats(0.0, 0.2))
    if draw(st.booleans()):
        return sbm.balanced(M * draw(st.integers(4, 128 // M)), M, draw(st.floats(q + 0.1, 1.0)), q)
    sizes = draw(st.lists(st.integers(4, 128 // M), min_size=M, max_size=M))
    p = draw(st.lists(st.floats(q + 0.1, 1.0), min_size=M, max_size=M))
    spec = sbm.SbmSpec(block_sizes=tuple(sizes), p=tuple(p), q=q)
    volumes = np.sort(_volumes(spec))
    assume((np.diff(volumes) > 1e-9 * volumes[1:]).all())
    return spec


def _relabelling_gap(spec: sbm.SbmSpec, perm: np.ndarray) -> tuple[float, float]:
    """The largest entry of mu_hat(permute(P)) - permute(mu_hat(P)), and the
    gap between the MSEs of the two against their populations."""
    P = sbm.population_mean(spec)
    plain = bc.compute_barycentre([P], M=spec.M, seed=0)
    relabelled = bc.compute_barycentre([graph_core.permute(P, perm)], M=spec.M, seed=0)
    entry = np.abs(relabelled.mu_hat - graph_core.permute(plain.mu_hat, perm)).max()
    mse = bc.mse(graph_core.permute(P, perm), relabelled.mu_hat) - bc.mse(P, plain.mu_hat)
    return float(entry), abs(mse)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=_small_specs())
def test_pipeline_commutes_with_relabelling_the_population(data, spec):
    # fed the population mean under a relabelling, the pipeline gives the
    # relabelled mu_hat, so the MSE against the relabelled population agrees
    perm = np.array(data.draw(st.permutations(range(spec.n))))
    entry, mse = _relabelling_gap(spec, perm)
    assert entry <= 1e-12
    assert mse <= 1e-12


@pytest.mark.xfail(strict=True, reason="canonical_permutation orders blocks of equal volume by "
                   "their smallest node, and the Soules layout treats two alike blocks unlike")
def test_pipeline_commutes_with_relabelling_two_alike_blocks():
    # blocks 1 and 2 are alike, and the dyadic entries make their volumes
    # equal bit for bit. Swapping nodes 0 and 10 puts node 0 in block 2, so
    # it is laid out first, and mu_hat moves by 0.0417 while the MSE agrees
    spec = sbm.SbmSpec(block_sizes=(10, 10, 10), p=(0.75, 0.75, 0.5), q=0.125)
    perm = np.arange(30)
    perm[[0, 10]] = perm[[10, 0]]
    assert _relabelling_gap(spec, perm)[0] <= 1e-12


def test_pipeline_rejects_empty_input():
    with pytest.raises(ValueError):
        bc.compute_barycentre([], M=2)



@pytest.mark.parametrize("M", [1, None])
def test_pipeline_rejects_empty_matrix_by_shape(M):
    with pytest.raises(ValueError, match=r"expected a non-empty square matrix, got shape \(0, 0\)"):
        bc.compute_barycentre([np.zeros((0, 0))], M=M)


# name -> graphs: Lanczos reads the first; the second is dense and weighted,
# and the contact windows hold isolated nodes
ONE_BLOCK_CASES = {
    "sbm_2048_T3": lambda: [sbm.sample(paper_scaled(2048, 4), (43, t)) for t in range(3)],
    "dense_60": lambda: [sbm.population_mean(sbm.balanced(60, 3, 0.8, 0.1))],
    "contact_morning": lambda: _contact_morning(),
}


@pytest.mark.parametrize("case", ONE_BLOCK_CASES)
def test_pipeline_with_one_block_gives_the_mean_density(case):
    # M = 1 keeps the constant Soules vector and the eigenvalue 0, so mu_hat
    # is the mean degree over n: the sum of the mean adjacency over n^2
    graphs = ONE_BLOCK_CASES[case]()
    n = len(graphs[0])
    result = bc.compute_barycentre(graphs, M=1, seed=0)
    assert result.degrees.blocks == ((1, n),)
    density = bc.sample_mean_adjacency(graphs).sum() / n**2
    assert abs(result.mu_blocks[0, 0] - density) <= 1e-12 * density


@st.composite
def _sizes(draw):
    """(n, M, T) with M in 1..n."""
    n = draw(st.integers(1, 80))
    return n, draw(st.integers(1, n)), draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(size=_sizes(), as_entries=st.booleans())
@example(size=(1, 1, 1), as_entries=False)
@example(size=(7, 7, 1), as_entries=False)
@example(size=(60, 2, 1), as_entries=False)
@example(size=(60, 5, 3), as_entries=True)
@example(size=(600, 4, 2), as_entries=False)
def test_pipeline_on_graphs_with_no_edges_gives_zero_blocks(size, as_entries):
    n, M, T = size
    graphs = [graph_core.edge_entries(n, [], []) if as_entries else np.zeros((n, n)) for _ in range(T)]
    result = bc.compute_barycentre(graphs, M=M, seed=0)
    assert result.mu_blocks.shape == (M, M) and (result.mu_blocks == 0).all()
    # every cut scores 0, so each split cuts the first node off the first
    # leaf of two or more: the leaves say nothing about the graphs
    assert result.degrees.blocks == (*((k, k) for k in range(1, M)), (M, n))


@pytest.mark.parametrize("M", [4, None])
def test_pipeline_checks_each_input_graph_once(monkeypatch, M):
    checked = []
    # the one scan of a dense matrix, behind symmetric_entries
    real = graph_core._nonzero_entries

    def spy(s):
        checked.append(s)
        return real(s)

    monkeypatch.setattr(graph_core, "_nonzero_entries", spy)
    # n = 512 runs the Lanczos path for M = 4 and the dense one for M = None
    graphs = [sbm.sample(four_block_spec(), (31, t)) for t in range(3)]
    bc.compute_barycentre(graphs, M=M, seed=0)
    assert len(checked) == len(graphs)
    assert all(c is g for c, g in zip(checked, graphs))


def test_pipeline_rejects_slightly_asymmetric_graph_at_entry():
    a = sbm.sample(sbm.balanced(64, 2, 0.5, 0.1), (3, 0))
    a[0, 1] += 1e-10
    with pytest.raises(ValueError, match="not symmetric") as failure:
        bc.compute_barycentre([a], M=2)
    assert "adjacency_entries" in [entry.name for entry in failure.traceback]


def test_write_result_exports_all_files(tmp_path):
    spec = sbm.balanced(16, 2, 0.9, 0.1)
    P = sbm.population_mean(spec)
    result = bc.compute_barycentre([P], M=2, seed=0)
    bc.write_result(result, tmp_path, extra_diagnostics={"note": 1})

    mu = graph_core.load_matrix(tmp_path / "mu_hat.csv")
    assert np.abs(mu - result.mu_hat).max() == 0.0
    lap = graph_core.load_matrix(tmp_path / "laplacian_hat.csv")
    assert np.abs(lap - result.laplacian_hat).max() == 0.0

    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert spectrum["M"] == 2
    assert len(spectrum["sample_mean"]) == 2
    assert len(spectrum["regularized"]) == 16

    degrees = json.loads((tmp_path / "degrees.json").read_text())
    assert degrees["blocks"] == [[1, 8], [9, 16]]

    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diagnostics["n"] == 16
    assert diagnostics["note"] == 1
    assert not diagnostics["regularization_warning"]

    perm_lines = (tmp_path / "permutation.csv").read_text().strip().splitlines()
    assert perm_lines[0] == "node_id,position"
    assert len(perm_lines) == 17


def _run_python(code: str) -> str:
    src = Path(bc.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=300)
    return done.stdout.strip()


_RUN_2048 = """
import hashlib, math
from specbary import barycentre, sbm
logn = math.log(2048)
spec = sbm.balanced(2048, 4, 3 * logn**2 / 2048, 2 * logn / 2048)
graphs = [sbm.sample(spec, (89, t)) for t in range(2)]
result = barycentre.compute_barycentre(graphs, M=4, seed=3)
"""


def test_pipeline_repeats_bit_for_bit_across_processes():
    # the Lanczos path runs here (n = 2048, k = 5); its start vector and
    # restart vectors come from fixed Philox streams
    scope = {}
    exec(_RUN_2048, scope)
    digest = hashlib.sha256(scope["result"].mu_hat.tobytes()).hexdigest()
    assert _run_python(_RUN_2048 + "print(hashlib.sha256(result.mu_hat.tobytes()).hexdigest())") == digest


def test_small_graphs_never_load_scipy():
    code = """
import sys
from specbary import barycentre, sbm
graphs = [sbm.sample(sbm.balanced(232, 4, 0.3, 0.05), (5, t)) for t in range(3)]
barycentre.compute_barycentre(graphs, M=None, seed=0)
barycentre.compute_barycentre(graphs, M=4, seed=0)
print("scipy" in sys.modules)
"""
    assert _run_python(code) == "False"


# name -> (graphs builder, M); every case but small_dense, disconnected and
# isolated_nodes runs Lanczos, and those three the dense path
HEAD_CASES = {
    "sbm_2048_T2": (lambda: [sbm.sample(paper_scaled(2048, 4), (89, t)) for t in range(2)], 4),
    "four_block_T3": (lambda: [sbm.sample(four_block_spec(), (31, t)) for t in range(3)], 4),
    "small_dense": (lambda: [sbm.sample(paper_scaled(256, 4), (31, t)) for t in range(2)], 4),
    **{name: (lambda build=build: [build()], M) for name, (build, M, _) in PARTIAL_PATH_CASES.items()},
}


def _embedding_spy(monkeypatch) -> list[np.ndarray]:
    seen = []
    real = alignment.cluster_nodes

    def spy(embedding, *args, **kwargs):
        seen.append(embedding)
        return real(embedding, *args, **kwargs)

    monkeypatch.setattr(alignment, "cluster_nodes", spy)
    return seen


@pytest.mark.parametrize("case", sorted(HEAD_CASES))
def test_pipeline_heads_match_dense_built_path_bit_for_bit(monkeypatch, case):
    build, M = HEAD_CASES[case]
    graphs = build()
    head, embedding = reference_pipeline_heads(graphs, M)
    seen = _embedding_spy(monkeypatch)
    result = bc.compute_barycentre(graphs, M=M, seed=0)
    assert np.array_equal(result.spectrum.sample_mean, head)
    assert len(seen) == 1 and np.array_equal(seen[0], embedding)


def test_pipeline_heads_match_dense_built_path_without_convergence(monkeypatch):
    from scipy.sparse import linalg as splinalg

    def no_convergence(*args, **kwargs):
        raise splinalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    graphs = [sbm.sample(paper_scaled(1024, 4), (89, t)) for t in range(2)]
    monkeypatch.setattr(splinalg, "eigsh", no_convergence)
    head, embedding = reference_pipeline_heads(graphs, 4)
    seen = _embedding_spy(monkeypatch)
    assert np.array_equal(bc.compute_barycentre(graphs, M=4, seed=0).spectrum.sample_mean, head)
    assert np.array_equal(seen[0], embedding)


def test_pipeline_lanczos_reads_csr_built_from_nonzeros(monkeypatch, eigsh_calls):
    from scipy import sparse

    normalized, converted = [], []
    real_normalized, real_csr = graph_core.normalized_adjacency, sparse.csr_matrix

    def spy_normalized(*args, **kwargs):
        normalized.append(args)
        return real_normalized(*args, **kwargs)

    def spy_csr(arg, *args, **kwargs):
        converted.append(type(arg))
        return real_csr(arg, *args, **kwargs)

    monkeypatch.setattr(graph_core, "normalized_adjacency", spy_normalized)
    monkeypatch.setattr(sparse, "csr_matrix", spy_csr)
    graphs = [sbm.sample(paper_scaled(2048, 4), (89, t)) for t in range(2)]
    bc.compute_barycentre(graphs, M=4, seed=3)
    assert eigsh_calls == [4, 4, 4]
    assert normalized == []
    assert converted == [tuple] * 3


def test_spectrum_head_matches_full_spectrum():
    logn = np.log(1024)
    spec = sbm.balanced(1024, 4, 3 * logn**2 / 1024, 2 * logn / 1024)
    graphs = [sbm.sample(spec, (23, t)) for t in range(2)]
    full = bc.sample_mean_eigenvalues(
        [eigen.sym_eig_values(graph_core.normalized_laplacian(g)) for g in graphs])
    # a given M reads the M smallest values (by Lanczos here, n = 1024)
    head = bc.compute_barycentre(graphs, M=4, seed=0).spectrum.sample_mean
    assert len(head) == 4 and np.abs(head - full[:4]).max() < 1e-10
    # an estimated M reads the whole spectrum
    auto = bc.compute_barycentre(graphs, M=None, seed=0).spectrum
    assert auto.M == 4 and np.array_equal(auto.sample_mean, full)


# every PARTIAL_PATH_CASES input alone, and an n = 2048, M = 4, T = 8 sample
SPECTRUM_HEAD_CASES = {
    **{name: HEAD_CASES[name] for name in PARTIAL_PATH_CASES},
    "sbm_2048_T8": (lambda: [sbm.sample(paper_scaled(2048, 4), (97, t)) for t in range(8)], 4),
}


@pytest.mark.parametrize("case", sorted(SPECTRUM_HEAD_CASES))
def test_spectrum_head_matches_dense_spectrum_and_longer_head(case):
    build, M = SPECTRUM_HEAD_CASES[case]
    graphs = build()
    head = bc.compute_barycentre(graphs, M=M, seed=0).spectrum.sample_mean
    dense = bc.sample_mean_eigenvalues(
        [np.linalg.eigvalsh(graph_core.normalized_laplacian(g)) for g in graphs])[:M]
    # the first M of a head of M + 1 values, which a different Krylov
    # sequence gives
    longer = bc.sample_mean_eigenvalues(
        [1.0 - eigen.top_eigenvalues(graph_core.normalized_entries(graph_core.adjacency_entries(g)),
                                     M + 1)[:M]
         for g in graphs])
    assert len(head) == M
    assert np.abs(head - dense).max() < 1e-12
    assert np.abs(head - longer).max() < 1e-13


def _contact_morning() -> list[np.ndarray]:
    table = ingest.parse_contacts(io.StringIO(ingest.synthetic_school_day(seed=0)))
    return ingest.window_graphs(table, ingest.MORNING_START, ingest.MORNING_END,
                                ingest.MORNING_WIDTH).graphs


# name -> (graphs builder, M); None estimates M
BLOCK_FORM_CASES = {
    "n2048_M4_T8": (lambda: [sbm.sample(paper_scaled(2048, 4), (97, t)) for t in range(8)], 4),
    "n2048_M32": (lambda: [sbm.sample(paper_scaled(2048, 32), (97, 8))], 32),
    "four_block": (lambda: [sbm.sample(four_block_spec(), (97, 9 + t)) for t in range(3)], 4),
    "contact_day_auto_M": (_contact_morning, None),
    "M_equals_n": (lambda: [sbm.sample(paper_scaled(32, 32), (97, 12 + t)) for t in range(2)], 32),
    "empty": (lambda: [np.zeros((60, 60))] * 2, 2),
}


@pytest.mark.parametrize("case", BLOCK_FORM_CASES)
def test_pipeline_matches_dense_reconstruction(case):
    build, M = BLOCK_FORM_CASES[case]
    graphs = build()
    result = bc.compute_barycentre(graphs, M=M, seed=0)
    mu, lap = reference_barycentre(graphs, result)
    assert np.abs(result.mu_hat - mu).max() <= 1e-13
    assert np.abs(result.laplacian_hat - lap).max() <= 1e-13


@pytest.mark.parametrize("case", ["contact_day_auto_M", "four_block", "empty"])
def test_write_result_writes_the_dense_matrices_bytes(tmp_path, case):
    build, M = BLOCK_FORM_CASES[case]
    result = bc.compute_barycentre(build(), M=M, seed=0)
    if case == "empty":
        # mu_hat holds -0.0, which %.17g writes as "-0"; laplacian_hat - I
        # holds 0.0, so laplacian_hat is a 0/1 matrix
        assert np.signbit(result.mu_blocks).all() and not np.signbit(result.lap_blocks).any()
    bc.write_result(result, tmp_path / "out")
    for name in ("mu_hat", "laplacian_hat"):
        expected = tmp_path / f"{name}.csv"
        graph_core.save_matrix(getattr(result, name), expected)
        assert (tmp_path / "out" / f"{name}.csv").read_bytes() == expected.read_bytes()


def test_mu_hat_is_exactly_constant_on_leaf_blocks():
    graphs = [sbm.sample(paper_scaled(230, 10), (101, t)) for t in range(2)]
    result = bc.compute_barycentre(graphs, M=10, seed=0)
    ends = [b for _, b in result.degrees.blocks]
    leaf = np.searchsorted(ends, result.permutation + 1)
    for j in range(len(ends)):
        for k in range(len(ends)):
            block = result.mu_hat[np.ix_(leaf == j, leaf == k)]
            assert (block == block.flat[0]).all(), (j, k)


def test_result_expands_its_blocks_once_on_first_read():
    graphs = [sbm.sample(four_block_spec(), (103, t)) for t in range(2)]
    result = bc.compute_barycentre(graphs, M=4, seed=0)
    n = len(result.permutation)
    # no n x n array until a dense field is read
    assert all(np.size(v) < n * n for v in vars(result).values())
    ends = [b for _, b in result.degrees.blocks]
    assert np.array_equal(result.leaf, np.searchsorted(ends, result.permutation + 1))
    assert result.mu_blocks.shape == result.lap_blocks.shape == (4, 4)
    expand = np.ix_(result.leaf, result.leaf)
    assert np.array_equal(result.mu_hat, result.mu_blocks[expand])
    assert np.array_equal(result.laplacian_hat, result.lap_blocks[expand] + np.eye(n))
    for name in ("mu_hat", "laplacian_hat"):
        dense = getattr(result, name)
        assert getattr(result, name) is dense
        before = dense.copy()
        np.add(dense, 0.05, out=dense)
        assert np.array_equal(getattr(result, name), before + 0.05)


@pytest.mark.parametrize("M", [4, None])
def test_pipeline_builds_no_dense_mean_and_permutes_nothing(monkeypatch, M):
    called = []

    def spy(name, real):
        def wrapper(*args):
            called.append(name)
            return real(*args)
        return wrapper

    # n = 512, so Lanczos reads every eigenproblem of a given M; sbm.sample
    # densifies entries, so it runs before the spies
    graphs = [sbm.sample(four_block_spec(), (31, t)) for t in range(2)]
    monkeypatch.setattr(graph_core, "permute", spy("permute", graph_core.permute))
    monkeypatch.setattr(bc, "sample_mean_adjacency", spy("mean", bc.sample_mean_adjacency))
    monkeypatch.setattr(graph_core.Entries, "dense", spy("dense", graph_core.Entries.dense))
    bc.compute_barycentre(graphs, M=M, seed=0)
    # an estimated M scans the full spectrum of each graph: the normalized
    # Laplacian built in the one n x n array of its densified normalized entries
    assert called == ([] if M else ["dense"] * len(graphs))


@pytest.mark.parametrize(("T", "bound"), [(2, 0.75), (1, 0.5)])
def test_pipeline_peak_memory_holds_no_n_by_n_array(T, bound):
    n = 2048
    graphs = [sbm.sample(paper_scaled(n, 4), (37, t)) for t in range(T)]
    # the reference run also loads the solver modules before the measurement
    expected = bc.compute_barycentre(graphs, M=4, seed=0)
    tracemalloc.start()
    try:
        result = bc.compute_barycentre(graphs, M=4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the entries of the inputs and of their mean, merge temporaries and O(n)
    # arrays, in units of one n x n float64 array; an aligned dense mean
    # beside them would pass the bound
    assert peak < bound * 8 * n * n
    assert np.array_equal(result.mu_blocks, expected.mu_blocks)


@pytest.mark.parametrize("M", [2, None])
def test_pipeline_rejects_graphs_of_different_sizes_before_any_eigensolve(monkeypatch, M):
    def fail(*args, **kwargs):
        raise AssertionError("eigensolve before the size check")

    for module, name in ((eigen, "top_eigenvalues"), (eigen, "top_eigenpairs"),
                         (np.linalg, "eigvalsh"), (np.linalg, "eigh")):
        monkeypatch.setattr(module, name, fail)
    graphs = [sbm.sample(sbm.balanced(40, 2, 0.8, 0.1), (3, 0)),
              sbm.sample(sbm.balanced(44, 2, 0.8, 0.1), (3, 1))]
    with pytest.raises(ValueError, match=r"graph sizes differ: \(44, 44\) vs \(40, 40\)"):
        bc.compute_barycentre(graphs, M=M)


# the dense path at n = 60 and Lanczos at n = 1024, each with M given and
# estimated
@pytest.mark.parametrize("M", ["given", None])
@pytest.mark.parametrize(("spec", "given_M", "T"), [
    (sbm.SbmSpec(block_sizes=(15, 20, 25), p=(0.7, 0.6, 0.5), q=0.08), 3, 3),
    (paper_scaled(1024, 4), 4, 1),
    (paper_scaled(1024, 4), 4, 2),
], ids=["three_block_60", "sbm_1024_T1", "sbm_1024_T2"])
def test_pipeline_scales_with_the_weights(spec, given_M, T, M):
    # the normalized Laplacian does not see a common factor, and a factor of
    # 4.0 is exact in every product and square root that cancels it
    M = given_M if M == "given" else None
    graphs = [sbm.sample(spec, (97, t)) for t in range(T)]
    plain, scaled = (bc.compute_barycentre(gs, M=M, seed=0)
                     for gs in (graphs, [4.0 * g for g in graphs]))
    assert np.array_equal(scaled.mu_blocks, 4.0 * plain.mu_blocks)
    assert np.array_equal(scaled.degrees.values, 4.0 * plain.degrees.values)
    for name in ("lap_blocks", "leaf", "permutation"):
        assert np.array_equal(getattr(scaled, name), getattr(plain, name))
    assert np.array_equal(scaled.spectrum.sample_mean, plain.spectrum.sample_mean)
    assert scaled.spectrum.M == plain.spectrum.M


def _weighted_graphs(n: int, T: int, key: int) -> list[np.ndarray]:
    # non-dyadic weights in [0, 4), whose sums depend on the order of the
    # additions, with patterns of varying density; every odd graph holds
    # -0.0 in place of 0.0
    rng = np.random.default_rng(key)
    graphs = []
    for t in range(T):
        w = np.where(rng.random((n, n)) < 0.05 * (t % 20 + 1), rng.uniform(0.0, 4.0, (n, n)), 0.0)
        g = np.triu(w) + np.triu(w, 1).T
        graphs.append(np.where(g == 0, -0.0, g) if t % 2 else g)
    return graphs


@pytest.mark.parametrize("n", [1, 5, 300, 700])
@pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 35])
def test_sample_mean_entries_match_the_dense_mean_and_its_degrees(n, T):
    graphs = _weighted_graphs(n, T, 1000 * n + T)
    mean = bc._sample_mean_entries([graph_core.adjacency_entries(g) for g in graphs])
    dense = bc.sample_mean_adjacency(graphs)
    assert np.array_equal(mean.dense(), dense)
    assert np.array_equal(mean.values, dense[dense != 0])
    assert np.array_equal(mean.degrees, reference_degrees(dense))


# Lanczos at n = 512 and the dense solver at n = 64; an estimated M reads
# the full spectra of the inputs' entries
@pytest.mark.parametrize(("spec", "M"), [(four_block_spec(), 4), (sbm.balanced(64, 2, 0.5, 0.1), 2),
                                         (four_block_spec(), None), (sbm.balanced(64, 2, 0.5, 0.1), None)])
def test_pipeline_reads_negative_zeros_as_zeros(spec, M):
    graphs = [sbm.sample(spec, (83, t)) for t in range(2)]
    signed = [np.where(g == 0, -0.0, g) for g in graphs]
    expected, result = (bc.compute_barycentre(gs, M=M, seed=0) for gs in (graphs, signed))
    for name in ("mu_blocks", "lap_blocks", "leaf", "permutation"):
        assert np.array_equal(getattr(result, name), getattr(expected, name))
        assert np.signbit(getattr(result, name)).tobytes() == np.signbit(getattr(expected, name)).tobytes()
    assert np.array_equal(result.spectrum.sample_mean, expected.spectrum.sample_mean)
    assert np.array_equal(result.degrees.values, expected.degrees.values)


def _drop_every(every: int):
    # drop every edge of each every-th node, leaving it isolated
    def drop(rows, cols):
        keep = (rows % every != 0) & (cols % every != 0)
        return rows[keep], cols[keep]
    return drop


# name -> (spec, M, T, edge filter, whether Lanczos solves for the heads or
# the embedding); a disconnected pattern, isolated nodes included, and
# n < 512 take the dense solvers
EDGE_ENTRY_CASES = {
    "lanczos_T1": (paper_scaled(1024, 4), 4, 1, None, True),
    "lanczos_T3": (paper_scaled(1024, 4), 4, 3, None, True),
    "dense_T1": (sbm.SbmSpec(block_sizes=(15, 20, 25), p=(0.7, 0.6, 0.5), q=0.08), 3, 1, None, False),
    "dense_T3": (sbm.SbmSpec(block_sizes=(15, 20, 25), p=(0.7, 0.6, 0.5), q=0.08), 3, 3, None, False),
    "disconnected_T3": (sbm.SbmSpec(block_sizes=(256, 256), p=(0.1, 0.1), q=0.0), 2, 3, None, False),
    "isolated_nodes_T3": (paper_scaled(1024, 4), 4, 3, _drop_every(100), False),
}


@pytest.mark.parametrize("M", ["given", None])
@pytest.mark.parametrize("case", sorted(EDGE_ENTRY_CASES))
def test_pipeline_reads_edge_entries_as_their_dense_graphs(monkeypatch, case, M):
    spec, given_M, T, drop, lanczos = EDGE_ENTRY_CASES[case]
    M = given_M if M == "given" else None
    edges = [sbm.sample_edges(spec, (89, t)) for t in range(T)]
    if drop is not None:
        edges = [drop(rows, cols) for rows, cols in edges]
    entries = [graph_core.edge_entries(spec.n, rows, cols) for rows, cols in edges]
    expected = bc.compute_barycentre([e.dense() for e in entries], M=M, seed=0)

    checked, solved = [], []
    real_scan, real_lanczos = graph_core._nonzero_entries, eigen._lanczos_top
    monkeypatch.setattr(graph_core, "_nonzero_entries", lambda s: checked.append(s) or real_scan(s))
    monkeypatch.setattr(eigen, "_lanczos_top",
                        lambda e, k: solved.append(out := real_lanczos(e, k)) or out)
    result = bc.compute_barycentre(entries, M=M, seed=0)
    # an Entries is the checked form, and is not scanned again
    assert checked == []
    assert any(out is not None for out in solved) == lanczos
    for name in ("mu_blocks", "lap_blocks", "leaf", "permutation"):
        assert getattr(result, name).tobytes() == getattr(expected, name).tobytes()
    for name in ("sample_mean", "regularized"):
        assert getattr(result.spectrum, name).tobytes() == getattr(expected.spectrum, name).tobytes()
    assert result.spectrum.M == expected.spectrum.M
    assert result.degrees.values.tobytes() == expected.degrees.values.tobytes()
    assert result.degrees.blocks == expected.degrees.blocks
