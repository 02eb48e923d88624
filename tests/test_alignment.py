"""Spectral embedding, clustering, canonical node order, community count."""

import logging
import threading
import tracemalloc

import numpy as np
import pytest
from helpers import (PARTIAL_PATH_CASES, partial_path_case, reference_canonical_permutation, reference_degrees,
                     reference_kmeans_once)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specbary import alignment as al
from specbary import eigen
from specbary import graph_core as gc
from specbary import sbm


def _two_block_embedding(n: int = 100, p: float = 0.8, q: float = 0.1) -> np.ndarray:
    spec = sbm.balanced(n, 2, p, q)
    return al.spectral_embed(gc.normalized_adjacency(sbm.population_mean(spec)), 2)


def test_embed_rows_constant_within_community():
    emb = _two_block_embedding()
    assert emb.shape == (100, 2)
    assert np.abs(emb[:50] - emb[0]).max() < 1e-8
    assert np.abs(emb[50:] - emb[50]).max() < 1e-8
    assert np.abs(emb[0] - emb[50]).max() > 1e-3


def test_embed_single_column_is_perron_vector():
    spec = sbm.balanced(40, 2, 0.7, 0.2)
    emb = al.spectral_embed(gc.normalized_adjacency(sbm.population_mean(spec)), 1)
    assert emb.shape == (40, 1)
    assert (emb > 0).all() or (emb < 0).all()


def test_embed_accepts_degenerate_identity():
    emb = al.spectral_embed(np.eye(5), 2)
    assert emb.shape == (5, 2)


@pytest.mark.parametrize("case", sorted(PARTIAL_PATH_CASES))
def test_embed_subspace_matches_dense_path(case, eigsh_calls):
    a_hat, M, lanczos = partial_path_case(case)
    emb = al.spectral_embed(a_hat, M)
    assert eigsh_calls == ([M] if lanczos else [])
    dense = np.linalg.eigh(a_hat)[1][:, ::-1][:, :M]
    assert np.abs(emb.T @ emb - np.eye(M)).max() < 1e-10
    assert np.abs(emb @ emb.T - dense @ dense.T).max() < 1e-10


def test_cluster_separated_clouds():
    rng = np.random.default_rng(0)
    points = np.vstack([
        rng.normal(0.0, 0.05, (30, 2)) + [0.0, 1.0],
        rng.normal(0.0, 0.05, (20, 2)) + [1.0, 0.0],
    ])
    got = al.cluster_nodes(points, 2, seed=1)
    assert set(got.labels) == {1, 2}
    assert len(set(got.labels[:30])) == 1
    assert len(set(got.labels[30:])) == 1
    assert got.labels[0] != got.labels[-1]


def test_cluster_identical_rows_single_cluster():
    got = al.cluster_nodes(np.ones((8, 3)), 1, seed=0)
    assert np.array_equal(got.labels, np.ones(8, dtype=int))
    assert got.M == 1


def test_cluster_recovers_noisy_two_block_labels():
    # population embedding with 5% of rows swapped to the other community
    emb = _two_block_embedding()
    rng = np.random.default_rng(3)
    flipped = rng.choice(50, size=5, replace=False)
    noisy = emb.copy()
    noisy[flipped] = emb[50]
    got = al.cluster_nodes(noisy, 2, seed=2)
    truth = np.array([1] * 50 + [2] * 50)
    agreement = max(
        (got.labels == truth).mean(),
        (3 - got.labels == truth).mean(),  # label swap
    )
    assert agreement >= 0.95


def test_cluster_determinism_and_bad_m():
    rng = np.random.default_rng(4)
    points = rng.random((12, 2))
    a = al.cluster_nodes(points, 3, seed=5)
    b = al.cluster_nodes(points, 3, seed=5)
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(ValueError):
        al.cluster_nodes(np.ones((3, 2)), 5, seed=0)


def test_cluster_error_when_points_cannot_fill_clusters():
    # one distinct row but two clusters requested: every restart loses one
    with pytest.raises(al.ClusteringError):
        al.cluster_nodes(np.ones((4, 2)), 2, seed=0)


def test_cluster_volumes_use_degrees_when_given():
    points = np.vstack([np.zeros((2, 1)), np.ones((3, 1))])
    degs = np.array([1.0, 2.0, 10.0, 10.0, 10.0])
    got = al.cluster_nodes(points, 2, seed=0, degrees=degs)
    by_label = {int(lab): float(got.volumes[lab - 1]) for lab in set(got.labels)}
    assert sorted(by_label.values()) == [3.0, 30.0]


def _sbm_points(n: int = 512, M: int = 16) -> np.ndarray:
    logn = np.log(n)
    a = sbm.sample(sbm.balanced(n, M, 3 * logn**2 / n, 2 * logn / n), (71, 0))
    return al._normalize_rows(al.spectral_embed(gc.normalized_adjacency(a), M))


def _lattice_points(normalize: bool) -> np.ndarray:
    # the 7 x 7 integer grid twice over plus the origin five times: exact
    # ties between centres are common
    axis = np.arange(-3.0, 4.0)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    points = np.vstack([grid, grid, np.zeros((5, 2))])
    return al._normalize_rows(points) if normalize else points


def _kmeans_once(points: np.ndarray, k: int, first: int):
    # one restart as cluster_nodes runs it: seeding, then Lloyd's iterations
    scratch = np.empty(len(points) * max(k, points.shape[1]))
    return al._lloyd(points, points[al._seed_rows(points, k, first, scratch)], scratch)


def _assert_restarts_match_reference(points: np.ndarray, k: int, key) -> None:
    fast_rng, ref_rng = gc.philox(key), gc.philox(key)
    for _ in range(al.KMEANS_RESTARTS):
        got = _kmeans_once(points, k, int(fast_rng.integers(len(points))))
        want = reference_kmeans_once(points, k, ref_rng)
        assert (got.labels is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.labels, want[0])
            assert got.inertia == want[1]


@pytest.mark.parametrize("max_iter", [al.KMEANS_MAX_ITER, 2])
def test_kmeans_matches_broadcast_reference_on_sbm_embedding(monkeypatch, max_iter):
    monkeypatch.setattr(al, "KMEANS_MAX_ITER", max_iter)
    _assert_restarts_match_reference(_sbm_points(), 16, 7)


def test_kmeans_matches_broadcast_reference_on_wide_sbm_embedding():
    # k = d = 32, the widest block-sweep case of the benchmark, at n = 512
    _assert_restarts_match_reference(_sbm_points(512, 32), 32, 11)


def test_cluster_nodes_peak_memory_at_wide_k():
    # the block sweep's n = 2048, M = 32: the restarts share one n x M scratch
    # array; an n x k x d broadcast in any restart would take M times that
    n, M = 2048, 32
    logn = np.log(n)
    a = sbm.sample(sbm.balanced(n, M, 3 * logn**2 / n, 2 * logn / n), (71, 1))
    embedding = al.spectral_embed(gc.normalized_adjacency(a), M)
    degrees = reference_degrees(a)
    tracemalloc.start()
    try:
        al.cluster_nodes(embedding, M, seed=0, degrees=degrees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * M * 8


def _threaded_cluster_nodes(monkeypatch, caplog, points, M, workers, max_workers=eigen._MAX_WORKERS):
    """cluster_nodes as on a host with the given CPU count: the assignment,
    the INFO line, and whether each _run_restarts call ran in the main
    thread."""
    monkeypatch.setattr(eigen, "_cpu_count", lambda: workers)
    monkeypatch.setattr(eigen, "_MAX_WORKERS", max_workers)
    calls = []
    real = al._run_restarts

    def spy(points, restarts, scratch):
        calls.append(threading.current_thread() is threading.main_thread())
        return real(points, restarts, scratch)

    monkeypatch.setattr(al, "_run_restarts", spy)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="specbary.alignment"):
        got = al.cluster_nodes(points, M, seed=4, degrees=np.arange(len(points)) % 7 + 1.0)
    (record,) = [r for r in caplog.records if r.name == "specbary.alignment"]
    return got, record.getMessage(), calls


@pytest.mark.parametrize(("n", "M"), [(2048, 32), (1024, 64)])
def test_cluster_nodes_threads_match_the_serial_loop(monkeypatch, caplog, n, M):
    # n * M >= 2^16: two workers run the restarts, one runs the serial loop
    points = _sbm_points(n, M)
    serial, serial_line, serial_calls = _threaded_cluster_nodes(monkeypatch, caplog, points, M, 1)
    assert serial_calls == [True]
    threaded, threaded_line, calls = _threaded_cluster_nodes(monkeypatch, caplog, points, M, 2)
    assert calls == [False] * 2
    assert np.array_equal(threaded.labels, serial.labels)
    assert np.array_equal(threaded.volumes, serial.volumes)
    assert threaded_line == serial_line


def test_cluster_nodes_threads_below_the_size_threshold_run_serially(monkeypatch, caplog):
    # n * M = 2^16 - 1024: the pool saves no time below 2^16
    _, _, calls = _threaded_cluster_nodes(monkeypatch, caplog, _sbm_points(2016, 32), 32, 2)
    assert calls == [True]


def test_cluster_nodes_more_workers_than_cpus_share_the_restarts(monkeypatch, caplog):
    # four workers, five restarts each: a restart run twice or left out
    # changes the iteration count in the INFO line or the winner
    points = _sbm_points(2048, 32)
    serial, serial_line, _ = _threaded_cluster_nodes(monkeypatch, caplog, points, 32, 1)
    threaded, line, calls = _threaded_cluster_nodes(monkeypatch, caplog, points, 32, 4, 4)
    assert len(calls) == 4
    assert line == serial_line
    assert np.array_equal(threaded.labels, serial.labels)


def test_threaded_restarts_match_broadcast_reference(monkeypatch):
    # every restart of a threaded run, matched to its seed rows, against the
    # reference restart that drew the same first row; the winner is the
    # reference's least inertia, the first restart on ties
    n, M, seed = 2048, 32, 12
    points = _sbm_points(n, M)
    monkeypatch.setattr(eigen, "_cpu_count", lambda: 2)
    seeds, runs, threads = [], {}, set()
    real_seed, real_lloyd = al._seed_rows, al._lloyd

    def seed_spy(*args):
        seeds.append(real_seed(*args))
        return seeds[-1]

    def lloyd_spy(points, centers, *rest):
        threads.add(threading.current_thread() is threading.main_thread())
        key = centers.tobytes()
        runs[key] = real_lloyd(points, centers, *rest)
        return runs[key]

    monkeypatch.setattr(al, "_seed_rows", seed_spy)
    monkeypatch.setattr(al, "_lloyd", lloyd_spy)
    got = al.cluster_nodes(points, M, seed=seed)
    assert threads == {False}
    assert len(seeds) == al.KMEANS_RESTARTS

    inner = al._normalize_rows(points)
    ref_rng = gc.philox(seed)
    kept = []
    for rows in seeds:
        run = runs[inner[rows].tobytes()]
        want = reference_kmeans_once(inner, M, ref_rng)
        assert (run.labels is None) == (want is None)
        if want is not None:
            assert np.array_equal(run.labels, want[0])
            assert run.inertia == want[1]
            kept.append(want)
    best = min(range(len(kept)), key=lambda i: (kept[i][1], i))
    assert np.array_equal(got.labels, kept[best][0] + 1)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("max_iter", [al.KMEANS_MAX_ITER, 2])
def test_kmeans_matches_broadcast_reference_on_lattice(monkeypatch, max_iter, normalize):
    monkeypatch.setattr(al, "KMEANS_MAX_ITER", max_iter)
    fallback_rows = []
    real = al._broadcast_argmin

    def spy(points, centers):
        fallback_rows.append(len(points))
        return real(points, centers)

    monkeypatch.setattr(al, "_broadcast_argmin", spy)
    points = _lattice_points(normalize)
    for k in range(2, 6):
        _assert_restarts_match_reference(points, k, (3, k))
    assert max(fallback_rows) > 0  # the tie-break ran, not only the product


def test_kmeans_seeding_rechecks_every_row_tied_at_the_farthest_distance(monkeypatch):
    # three directions held by four rows each: after any first centre at
    # least four rows tie at the largest distance, and seeding must take the
    # first of them. Then one row against eight equal ones: once both are
    # centres all nine rows tie at 0, and the recheck reads them in chunks
    calls = []
    real = al._farthest

    def spy(points, rows, centers):
        calls.append((len(rows), len(points) // len(centers)))
        return real(points, rows, centers)

    monkeypatch.setattr(al, "_farthest", spy)
    spread = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]]), 4, axis=0)
    for k in (2, 3):
        _assert_restarts_match_reference(spread, k, (5, k))
    assert min(rows for rows, _ in calls) >= 4
    calls.clear()
    lopsided = np.vstack([[0.0, 1.0], np.repeat([[1.0, 0.0]], 8, axis=0)])
    _assert_restarts_match_reference(lopsided, 3, 6)
    assert any(rows > step for rows, step in calls)


@st.composite
def _one_decimal_points(draw) -> np.ndarray:
    # coordinates on a 0.1 grid make equidistant centres and tied rows common
    rows, dim = draw(st.integers(1, 24)), draw(st.integers(1, 4))
    tenths = draw(st.lists(st.integers(-10, 10), min_size=rows * dim, max_size=rows * dim))
    return np.array(tenths, dtype=float).reshape(rows, dim) / 10


# d = 1 rows whose cluster means differ between numpy's pairwise sum of a
# column and a sum in row order: a row-order centroid fails on this input
_PAIRWISE_COLUMN = np.array(
    [9, 6, -8, -10, 8, -2, -9, 0, -3, -1, -1, -4, 0, 0, 10, 4, 6, -10, -4], dtype=float)[:, None] / 10


@settings(max_examples=200)
@given(points=_one_decimal_points(), k=st.integers(1, 5), key=st.integers(0, 2**32 - 1))
@example(points=_PAIRWISE_COLUMN, k=2, key=98)
def test_kmeans_matches_broadcast_reference_on_one_decimal_inputs(points, k, key):
    _assert_restarts_match_reference(points, min(k, len(points)), key)


def _kmeans_log_message(monkeypatch, caplog) -> str:
    # two distinct rows, three copies each, split exactly by every restart in
    # two assignment steps; every fourth restart is made to lose a cluster
    points = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0]]), 3, axis=0)
    calls = []
    real = al._lloyd

    def every_fourth_lost(*args):
        calls.append(args[1])
        result = real(*args)
        return result._replace(labels=None) if len(calls) % 4 == 0 else result

    monkeypatch.setattr(al, "_lloyd", every_fourth_lost)
    with caplog.at_level(logging.INFO, logger="specbary.alignment"):
        al.cluster_nodes(points, 2, seed=0)
    (record,) = [r for r in caplog.records if r.name == "specbary.alignment"]
    return record.getMessage()


def test_cluster_logs_restarts_kept_lost_and_best_inertia(monkeypatch, caplog):
    lost = al.KMEANS_RESTARTS // 4
    assert _kmeans_log_message(monkeypatch, caplog) == (
        f"k-means M=2: {al.KMEANS_RESTARTS - lost} of {al.KMEANS_RESTARTS} restarts kept, "
        f"{lost} lost a cluster, best inertia 0, {2 * al.KMEANS_RESTARTS} Lloyd iterations "
        f"in all, 0 restarts stopped at the {al.KMEANS_MAX_ITER}-iteration cap"
    )


def test_cluster_logs_restarts_stopped_at_the_iteration_cap(monkeypatch, caplog):
    # one step per restart: each stops at the cap, on labels that are already
    # the split
    monkeypatch.setattr(al, "KMEANS_MAX_ITER", 1)
    lost = al.KMEANS_RESTARTS // 4
    assert _kmeans_log_message(monkeypatch, caplog) == (
        f"k-means M=2: {al.KMEANS_RESTARTS - lost} of {al.KMEANS_RESTARTS} restarts kept, "
        f"{lost} lost a cluster, best inertia 0, {al.KMEANS_RESTARTS} Lloyd iterations "
        f"in all, {al.KMEANS_RESTARTS} restarts stopped at the 1-iteration cap"
    )


def test_canonical_permutation_single_cluster_is_identity():
    assignment = al.ClusterAssignment(labels=np.ones(4, dtype=int), volumes=np.array([4.0]))
    assert np.array_equal(al.canonical_permutation(assignment), np.arange(4))


def test_canonical_permutation_orders_by_volume():
    assignment = al.ClusterAssignment(
        labels=np.array([1, 1, 2, 2, 2]), volumes=np.array([10.0, 20.0])
    )
    # cluster 2 has the larger volume, so its nodes take the first positions
    assert np.array_equal(al.canonical_permutation(assignment), [3, 4, 0, 1, 2])


def test_canonical_permutation_restores_block_structure():
    spec = sbm.SbmSpec(block_sizes=(20, 44), p=(0.9, 0.6), q=0.05)
    P = sbm.population_mean(spec)
    rng = np.random.default_rng(8)
    shuffle = rng.permutation(64)
    shuffled = gc.permute(P, shuffle)

    emb = al.spectral_embed(gc.normalized_adjacency(shuffled), 2)
    got = al.cluster_nodes(emb, 2, seed=0, degrees=reference_degrees(shuffled))
    perm = al.canonical_permutation(got)
    restored = gc.permute(shuffled, perm)

    # blocks are contiguous again, larger volume first: the 44-block leads
    assert np.allclose(restored[:44, :44], 0.6)
    assert np.allclose(restored[44:, 44:], 0.9)
    assert np.allclose(restored[:44, 44:], 0.05)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_canonical_permutation_matches_cluster_scan_reference(data):
    M = data.draw(st.integers(1, 8))
    sizes = data.draw(st.lists(st.integers(0, 6), min_size=M, max_size=M).filter(any))
    labels = data.draw(st.permutations(np.repeat(np.arange(1, M + 1), sizes).tolist()))
    # few distinct volumes, so that ties are common and the first member decides them
    volumes = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]), min_size=M, max_size=M))
    assignment = al.ClusterAssignment(labels=np.array(labels), volumes=np.array(volumes))
    assert np.array_equal(al.canonical_permutation(assignment), reference_canonical_permutation(assignment))


def test_estimate_m_gap_rule():
    values = np.concatenate([[0.0], np.full(3, 0.4), np.ones(12)])
    assert al.estimate_M(values) == 4


def test_estimate_m_all_ones_falls_back_to_one():
    assert al.estimate_M(np.ones(10)) == 1


def test_estimate_m_ignores_gaps_past_the_bulk_edge():
    # the only large gap starts from a value already near 1, so it is not
    # a community signature
    values = np.concatenate([np.full(6, 0.95), [1.9, 2.0]])
    assert al.estimate_M(values) == 1
