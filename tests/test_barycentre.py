"""Mean spectra, regularization, truncated Laplacians, degree estimates,
reconstruction, and the end-to-end pipeline."""

import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import permuted_run_mse

from specbary import eigen, graph_core, sbm, soules
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
    mean = bc.sample_mean_adjacency(sbm.sample_ensemble(spec, 100, seed=21))
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


def test_truncated_laplacian_all_ones_spectrum():
    basis = soules.complete_basis(soules.best_soules_basis(np.eye(6), depth=1))
    spectrum = bc.MeanSpectrum(sample_mean=np.ones(6), M=1, regularized=np.ones(6))
    assert np.abs(bc.truncated_laplacian(spectrum, basis) - np.eye(6)).max() < 1e-12


def test_truncated_laplacian_reproduces_expected_laplacian():
    spec = sbm.balanced(32, 4, 0.7, 0.1)
    P = sbm.population_mean(spec)
    basis = soules.complete_basis(soules.best_soules_basis(P, depth=4))
    spectrum = bc.regularize_eigenvalues(sbm.limit_eigenvalues(spec), 4)
    lap = bc.truncated_laplacian(spectrum, basis)
    assert np.abs(lap - sbm.expected_laplacian(spec)).max() < 1e-9


def test_truncated_laplacian_annihilates_ones_when_lambda1_zero():
    rng = np.random.default_rng(6)
    s = rng.random((10, 10))
    s = (s + s.T) / 2
    basis = soules.complete_basis(soules.best_soules_basis(s, depth=3))
    mean = np.sort(rng.uniform(0.0, 1.0, 10))
    mean[0] = 0.0
    spectrum = bc.regularize_eigenvalues(mean, 3)
    lap = bc.truncated_laplacian(spectrum, basis)
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
    mean = bc.sample_mean_adjacency(sbm.sample_ensemble(spec, T, seed=9))
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
    got = bc.average_node_degrees(sbm.population_mean(spec), ((1, 3), (4, 8)))
    dbar = sbm.expected_degrees(spec)
    assert np.allclose(got.values, [dbar[0], dbar[-1]])


def test_reconstruct_identity_laplacian_gives_zero():
    degrees = bc.BlockDegrees(values=np.array([2.0]), blocks=((1, 4),))
    assert np.array_equal(bc.reconstruct_barycentre(np.eye(4), degrees), np.zeros((4, 4)))


def test_reconstruct_population_round_trip():
    spec = sbm.balanced(24, 3, 0.75, 0.15)
    P = sbm.population_mean(spec)
    lap = sbm.expected_laplacian(spec)
    blocks = ((1, 8), (9, 16), (17, 24))
    degrees = bc.average_node_degrees(P, blocks)
    assert np.abs(bc.reconstruct_barycentre(lap, degrees) - P).max() < 1e-8


def test_reconstruct_rejects_negative_degree():
    degrees = bc.BlockDegrees(values=np.array([-1.0]), blocks=((1, 3),))
    with pytest.raises(ValueError):
        bc.reconstruct_barycentre(np.eye(3), degrees)


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
    graphs = sbm.sample_ensemble(spec, 4, seed=55)
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


def test_pipeline_rejects_empty_input():
    with pytest.raises(ValueError):
        bc.compute_barycentre([], M=2)


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


def test_spectrum_head_matches_full_spectrum():
    logn = np.log(1024)
    spec = sbm.balanced(1024, 4, 3 * logn**2 / 1024, 2 * logn / 1024)
    graphs = [sbm.sample(spec, (23, t)) for t in range(2)]
    full = bc.sample_mean_eigenvalues(
        [eigen.sym_eig_values(graph_core.normalized_laplacian(g)) for g in graphs])
    # a given M reads the M + 1 smallest values (by Lanczos here, n = 1024)
    head = bc.compute_barycentre(graphs, M=4, seed=0).spectrum.sample_mean
    assert len(head) == 5 and np.abs(head - full[:5]).max() < 1e-10
    # an estimated M reads the whole spectrum
    auto = bc.compute_barycentre(graphs, M=None, seed=0).spectrum
    assert auto.M == 4 and np.array_equal(auto.sample_mean, full)
