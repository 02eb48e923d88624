"""Node alignment: spectral embedding, k-means clustering, the canonical
block ordering, and community-count estimation from a mean spectrum.

The barycentre construction needs node blocks to be contiguous. Nodes are
embedded with the dominant eigenvectors of the normalized mean adjacency,
clustered, and then reordered so clusters become contiguous intervals sorted
by descending volume.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import eigen

KMEANS_RESTARTS = 20
KMEANS_MAX_ITER = 300
ZERO_ROW_EPS = 1e-12
_BULK_DELTA = 0.1
_MIN_GAP = 0.05


class ClusteringError(RuntimeError):
    """Raised when no k-means restart produces M non-empty clusters."""


@dataclass(frozen=True)
class ClusterAssignment:
    """labels[i] in 1..M gives node i's cluster; volumes has one entry per cluster."""

    labels: np.ndarray
    volumes: np.ndarray

    @property
    def M(self) -> int:
        return len(self.volumes)


def spectral_embed(a_hat: np.ndarray, M: int) -> np.ndarray:
    """Rows are node coordinates in the span of the M dominant eigenvectors
    of the normalized mean adjacency, dominant eigenvector first."""
    a_hat = np.asarray(a_hat, dtype=float)
    n = a_hat.shape[0]
    if not 1 <= M <= n:
        raise ValueError(f"M={M} outside 1..{n}")
    return eigen.top_eigenpairs(a_hat, M).vectors


def _normalize_rows(points: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(points, axis=1)
    out = points.copy()
    keep = norms > ZERO_ROW_EPS
    out[keep] = points[keep] / norms[keep, None]
    out[~keep] = 0.0
    return out


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    dist2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        # farthest-point seeding; argmax takes the smallest index on ties
        centers[c] = points[int(np.argmax(dist2))]
        dist2 = np.minimum(dist2, ((points - centers[c]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            return None  # restart is invalid
        if (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def cluster_nodes(
    embedding: np.ndarray,
    M: int,
    seed: int,
    degrees: np.ndarray | None = None,
) -> ClusterAssignment:
    """k-means partition of the embedded nodes into M clusters.

    Rows are normalized to unit length first (near-zero rows stay at the
    origin). The best of KMEANS_RESTARTS seeded restarts by inertia wins;
    restarts that lose a cluster are discarded, and ClusteringError is raised
    if every restart does.

    Args:
      embedding: (n, d) matrix of node coordinates.
      M: number of clusters.
      seed: base seed for the restart sequence.
      degrees: node degrees from the mean adjacency; cluster volumes are their
        per-cluster sums. Defaults to unit weights (volumes = cluster sizes).

    Returns:
      ClusterAssignment with labels in 1..M.
    """
    points = np.asarray(embedding, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"embedding must be 2-d, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("embedding has non-finite entries")
    n = points.shape[0]
    if not 1 <= M <= n:
        raise ValueError(f"M={M} outside 1..{n}")
    points = _normalize_rows(points)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    best = None
    for _ in range(KMEANS_RESTARTS):
        result = _kmeans_once(points, M, rng)
        if result is None:
            continue
        if best is None or result[1] < best[1]:
            best = result
    if best is None:
        raise ClusteringError(f"k-means lost a cluster in all {KMEANS_RESTARTS} restarts")

    labels = best[0] + 1
    weights = np.ones(n) if degrees is None else np.asarray(degrees, dtype=float)
    volumes = np.array([weights[labels == c].sum() for c in range(1, M + 1)])
    return ClusterAssignment(labels=labels, volumes=volumes)


def canonical_permutation(assignment: ClusterAssignment) -> np.ndarray:
    """Node relabelling that makes clusters contiguous.

    Clusters are ordered by descending volume, ties broken by the smallest
    member index; nodes keep their original order inside each cluster. The
    result perm satisfies: node i moves to row perm[i].
    """
    labels = assignment.labels
    n = len(labels)
    first_member = {c: int(np.argmax(labels == c)) for c in range(1, assignment.M + 1)}
    order_of_clusters = sorted(
        range(1, assignment.M + 1),
        key=lambda c: (-assignment.volumes[c - 1], first_member[c]),
    )
    order = np.concatenate([np.flatnonzero(labels == c) for c in order_of_clusters])
    perm = np.empty(n, dtype=int)
    perm[order] = np.arange(n)
    return perm


def estimate_M(values: np.ndarray) -> int:
    """Community count from an ascending spectrum, by the largest gap below
    the bulk.

    Scans k = 1..n/2 while the k-th eigenvalue stays below 1 - 0.1 and takes
    the k with the largest gap values[k] - values[k-1] (0-based); returns 1
    when no gap exceeds 0.05.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        return 1
    best_k, best_gap = 1, 0.0
    for k in range(1, n // 2 + 1):
        if values[k - 1] >= 1.0 - _BULK_DELTA:
            break
        gap = values[k] - values[k - 1]
        if gap > best_gap:
            best_gap, best_k = gap, k
    return best_k if best_gap > _MIN_GAP else 1


def save_assignment(assignment: ClusterAssignment, path: str | Path) -> None:
    """CSV rows (node_id, cluster_id), node ids being 0-based row indices."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "cluster_id"])
        for i, c in enumerate(assignment.labels):
            writer.writerow([i, int(c)])
