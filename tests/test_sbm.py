"""Block-model specs, population quantities, limit spectra, and sampling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import (four_block_spec, paper_scaled, reference_population_mean, reference_sample,
                     reference_sample_edges)
from hypothesis import given, settings
from hypothesis import strategies as st

from specbary import graph_core, sbm


def test_spec_validation():
    with pytest.raises(ValueError):
        sbm.SbmSpec(block_sizes=(2, 2), p=(0.5,), q=0.1)
    with pytest.raises(ValueError):
        sbm.SbmSpec(block_sizes=(2, 2), p=(0.5, 0.3), q=0.4)  # q above a p_m
    with pytest.raises(ValueError):
        sbm.SbmSpec(block_sizes=(2, 2), p=(0.5, 1.3), q=0.1)
    with pytest.raises(ValueError):
        sbm.SbmSpec(block_sizes=(2, 0), p=(0.5, 0.5), q=0.1)
    with pytest.raises(ValueError):
        sbm.SbmSpec(block_sizes=(2, 2), p=(0.5, 0.5), q=-0.1)


def test_spec_properties():
    spec = sbm.SbmSpec(block_sizes=(2, 3), p=(0.9, 0.8), q=0.1)
    assert spec.n == 5
    assert spec.M == 2
    assert not spec.is_balanced
    assert spec.block_slices() == [slice(0, 2), slice(2, 5)]
    assert sbm.balanced(6, 3, 0.5, 0.1).is_balanced


def test_balanced_requires_divisible_n():
    with pytest.raises(ValueError):
        sbm.balanced(7, 2, 0.5, 0.1)


def test_spec_io_round_trip(tmp_path):
    spec = sbm.SbmSpec(block_sizes=(63, 147, 105, 197), p=(0.2, 0.3, 0.4, 0.5), q=0.02)
    path = tmp_path / "spec.json"
    sbm.save_spec(spec, path)
    assert sbm.load_spec(path) == spec


def test_population_mean_single_block():
    spec = sbm.SbmSpec(block_sizes=(3,), p=(0.3,), q=0.0)
    assert np.array_equal(sbm.population_mean(spec), np.full((3, 3), 0.3))


def test_population_mean_two_blocks():
    spec = sbm.SbmSpec(block_sizes=(2, 2), p=(0.9, 0.9), q=0.1)
    expected = np.full((4, 4), 0.1)
    expected[:2, :2] = 0.9
    expected[2:, 2:] = 0.9
    assert np.array_equal(sbm.population_mean(spec), expected)


@pytest.mark.parametrize("spec", [
    sbm.SbmSpec(block_sizes=(1,), p=(0.0,), q=0.0),
    sbm.SbmSpec(block_sizes=(1, 1), p=(1.0, 0.5), q=0.5),
    sbm.SbmSpec(block_sizes=(63, 147, 105, 197), p=(0.2, 0.3, 0.4, 0.5), q=0.02),
    sbm.balanced(96, 8, 0.3, 0.05),
], ids=["one_node", "two_nodes", "four_unequal", "balanced_eight"])
def test_population_mean_matches_block_fill(spec):
    assert np.array_equal(sbm.population_mean(spec), reference_population_mean(spec))


def test_expected_degrees_balanced():
    spec = sbm.balanced(4, 2, 0.8, 0.2)
    # 2 * 0.8 + 2 * 0.2 per node
    assert np.allclose(sbm.expected_degrees(spec), 2.0)


def test_expected_degrees_are_population_row_sums():
    spec = sbm.SbmSpec(block_sizes=(3, 5, 4), p=(0.7, 0.5, 0.9), q=0.2)
    assert np.allclose(sbm.expected_degrees(spec), sbm.population_mean(spec).sum(axis=1))


def test_expected_laplacian_two_block_values():
    lap = sbm.expected_laplacian(sbm.balanced(4, 2, 0.8, 0.2))
    assert np.allclose(np.diag(lap), 0.6)
    assert np.allclose(lap[0, 1], -0.4)
    assert np.allclose(lap[0, 2], -0.1)


def test_expected_laplacian_single_block_off_diagonal():
    n = 5
    lap = sbm.expected_laplacian(sbm.SbmSpec(block_sizes=(n,), p=(0.3,), q=0.0))
    assert np.allclose(np.diag(lap), 1.0 - 1.0 / n)
    assert np.allclose(lap - np.diag(np.diag(lap)), -1.0 / n * (np.ones((n, n)) - np.eye(n)))


def test_expected_laplacian_rejects_zero_degree():
    with pytest.raises(ValueError):
        sbm.expected_laplacian(sbm.SbmSpec(block_sizes=(3, 3), p=(0.0, 0.0), q=0.0))


def test_expected_laplacian_eigenvalues_hit_limits():
    for n, M in ((128, 2), (128, 4), (512, 8)):
        spec = sbm.balanced(n, M, 0.5, 0.1)
        vals = np.linalg.eigvalsh(sbm.expected_laplacian(spec))
        assert np.abs(vals - sbm.limit_eigenvalues(spec)).max() < 1e-12


def test_limit_eigenvalues_structure():
    spec = sbm.balanced(4, 2, 0.5, 0.1)
    limits = sbm.limit_eigenvalues(spec)
    assert limits[0] == 0.0
    assert limits[1] == pytest.approx(0.2 / 0.6, abs=1e-15)
    assert np.array_equal(limits[2:], [1.0, 1.0])


def test_limit_eigenvalues_erdos_renyi_collapse():
    limits = sbm.limit_eigenvalues(sbm.balanced(6, 3, 0.4, 0.4))
    assert limits[0] == 0.0
    assert np.array_equal(limits[1:], np.ones(5))


def test_limit_eigenvalues_degenerate_denominator():
    with pytest.raises(ValueError):
        sbm.limit_eigenvalues(sbm.balanced(4, 2, 0.0, 0.0))


def test_limit_eigenvalues_requires_balanced():
    with pytest.raises(ValueError):
        sbm.limit_eigenvalues(sbm.SbmSpec(block_sizes=(2, 3), p=(0.5, 0.5), q=0.1))


def test_sample_sure_edges():
    spec = sbm.SbmSpec(block_sizes=(4,), p=(1.0,), q=0.0)
    assert np.array_equal(sbm.sample(spec, 0), np.ones((4, 4)) - np.eye(4))


def test_sample_no_edges():
    spec = sbm.SbmSpec(block_sizes=(4,), p=(0.0,), q=0.0)
    assert np.array_equal(sbm.sample(spec, 0), np.zeros((4, 4)))


def test_sample_is_simple_graph():
    spec = sbm.SbmSpec(block_sizes=(10, 20), p=(0.7, 0.4), q=0.1)
    a = sbm.sample(spec, 42)
    assert np.array_equal(a, a.T)
    assert np.array_equal(np.diag(a), np.zeros(30))
    assert set(np.unique(a)) <= {0.0, 1.0}


def test_sample_determinism_and_stream_separation():
    spec = sbm.balanced(20, 2, 0.5, 0.1)
    assert np.array_equal(sbm.sample(spec, 9), sbm.sample(spec, 9))
    assert not np.array_equal(sbm.sample(spec, 9), sbm.sample(spec, 10))


def test_sample_mean_concentrates_on_population():
    spec = sbm.balanced(32, 2, 0.5, 0.1)
    graphs = [sbm.sample(spec, (12, t)) for t in range(100)]
    mean = np.mean(graphs, axis=0)
    off = ~np.eye(32, dtype=bool)
    assert np.abs(mean - sbm.population_mean(spec))[off].max() < 0.2


@pytest.mark.parametrize("spec", [
    sbm.SbmSpec(block_sizes=(1,), p=(0.5,), q=0.5),
    sbm.SbmSpec(block_sizes=(3, 5), p=(1.0, 0.5), q=0.0),
    sbm.balanced(300, 3, 0.3, 0.1),
    four_block_spec(),
    paper_scaled(2048, 4),
    sbm.balanced(2100, 7, 0.05, 0.01),  # the last row strip is partial
], ids=["one_node", "sure_and_no_edges", "n300", "four_block", "n2048", "n2100"])
def test_sample_matches_one_draw_reference_bit_for_bit(spec):
    for t in range(2):
        assert np.array_equal(sbm.sample(spec, (7, t)), reference_sample(spec, (7, t)))


@pytest.mark.parametrize("spec", [
    sbm.SbmSpec(block_sizes=(1,), p=(0.5,), q=0.5),
    sbm.SbmSpec(block_sizes=(3, 5), p=(1.0, 0.5), q=0.0),
    sbm.SbmSpec(block_sizes=(7,), p=(1.0,), q=0.0),
    four_block_spec(),
    sbm.balanced(2100, 7, 0.05, 0.01),  # the last row strip is partial
], ids=["one_node", "sure_and_no_edges", "complete", "four_block", "n2100"])
def test_relabelled_edges_scatter_to_the_permuted_sample(spec):
    for t in range(2):
        rows, cols = sbm.sample_edges(spec, (7, t))
        flat = rows * spec.n + cols
        assert (rows < cols).all() and (np.diff(flat) > 0).all()
        perm = graph_core.philox((7, t, 1)).permutation(spec.n)
        got = graph_core.edge_entries(spec.n, perm[rows], perm[cols]).dense()
        want = graph_core.permute(sbm.sample(spec, (7, t)), perm)
        assert got.tobytes() == want.tobytes()


@st.composite
def _specs(draw):
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    q = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    p = draw(st.lists(st.sampled_from([q, 1.0]) | st.floats(q, 1.0),
                      min_size=len(sizes), max_size=len(sizes)))
    return sbm.SbmSpec(block_sizes=tuple(sizes), p=tuple(p), q=q)


@settings(max_examples=200)
@given(spec=_specs(), strip=st.integers(1, 400), seed=st.integers(0, 2**32 - 1) | st.tuples(st.integers(0, 9)))
def test_sample_edges_match_fresh_strip_reference(spec, strip, seed):
    # small strips split blocks across strips and leave a partial last strip
    # whenever n is not a multiple of the strip's rows
    with mock.patch.object(sbm, "_SAMPLE_STRIP", strip):
        got = sbm.sample_edges(spec, seed)
        want = reference_sample_edges(spec, seed)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_sample_makes_no_n_by_n_float_scratch():
    spec = paper_scaled(2048, 4)
    tracemalloc.start()
    try:
        sbm.sample(spec, (7, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 result and n x n bools; the one-draw sampler held two more
    # n x n float64 arrays (P and the uniforms)
    assert peak < 1.5 * spec.n**2 * 8
