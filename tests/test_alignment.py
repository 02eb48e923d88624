"""Spectral embedding, clustering, canonical node order, community count."""

import numpy as np
import pytest
from helpers import PARTIAL_PATH_CASES, partial_path_case

from specbary import alignment as al
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
    got = al.cluster_nodes(emb, 2, seed=0, degrees=gc.degrees(shuffled))
    perm = al.canonical_permutation(got)
    restored = gc.permute(shuffled, perm)

    # blocks are contiguous again, larger volume first: the 44-block leads
    assert np.allclose(restored[:44, :44], 0.6)
    assert np.allclose(restored[44:, 44:], 0.9)
    assert np.allclose(restored[:44, 44:], 0.05)


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


def test_save_assignment(tmp_path):
    assignment = al.ClusterAssignment(labels=np.array([2, 1, 2]), volumes=np.array([1.0, 2.0]))
    path = tmp_path / "clusters.csv"
    al.save_assignment(assignment, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_id,cluster_id"
    assert lines[1:] == ["0,2", "1,1", "2,2"]
