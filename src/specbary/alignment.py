"""Node alignment: spectral embedding, k-means clustering, the canonical
block ordering, and community-count estimation from a mean spectrum.

The barycentre construction needs node blocks to be contiguous. Nodes are
embedded with the dominant eigenvectors of the normalized mean adjacency,
clustered, and then reordered so clusters become contiguous intervals sorted
by descending volume.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import eigen, graph_core

log = logging.getLogger(__name__)

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


# Rows are unit-norm or zero and centres are means of rows, so |x - c|^2 <= 4,
# and both |x - c|^2 summed over d terms and |c|^2 - 2 x.c from a matrix
# product (plus |x|^2) lie within about 4 d eps of the exact distance. A centre
# that beats every other by more than 16 d eps under the product beats them
# under the sum too. 1e-9 covers d up to 2.8e5, and d = M <= n, where a dense
# n x n graph would take 630 GB. Rows at or under the margin are recomputed
# with the sum.
_TIE_MARGIN = 1e-9


def _broadcast_argmin(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centre by |x - c|^2 summed over an
    n x k x d broadcast; argmin takes the smallest index on ties."""
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The labels of _broadcast_argmin, from one n x k matrix product.

    Only rows whose two nearest centres lie within _TIE_MARGIN of each other
    go through _broadcast_argmin.
    """
    # |x - c|^2 less the per-row constant |x|^2, which moves no argmin or gap
    shifted = (centers**2).sum(axis=1) - 2.0 * (points @ centers.T)
    labels = np.argmin(shifted, axis=1)
    if centers.shape[0] > 1:
        two = np.partition(shifted, 1, axis=1)
        near = np.flatnonzero(two[:, 1] - two[:, 0] <= _TIE_MARGIN)
        labels[near] = _broadcast_argmin(points[near], centers)
    return labels


def _centroids(points: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each cluster's rows, summed in row order like
    points[labels == c].mean(axis=0); every cluster must be non-empty."""
    rows = points[np.argsort(labels, kind="stable")]
    return np.array([block.mean(axis=0) for block in np.split(rows, np.cumsum(counts)[:-1])])


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
        new_labels = _assign(points, centers)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            return None  # restart is invalid
        if (new_labels == labels).all():
            break
        labels, assigned = new_labels, centers
        centers = _centroids(points, labels, counts)
    else:
        # out of iterations: the labels came from the centres before the update
        centers = assigned
    inertia = float(((points - centers[labels]) ** 2).sum(axis=1).sum())
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
    if every restart does. The counts of kept and lost restarts and the best
    inertia are logged at INFO.

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

    rng = graph_core.philox(seed)
    best, lost = None, 0
    for _ in range(KMEANS_RESTARTS):
        result = _kmeans_once(points, M, rng)
        if result is None:
            lost += 1
            continue
        if best is None or result[1] < best[1]:
            best = result
    if best is None:
        raise ClusteringError(f"k-means lost a cluster in all {KMEANS_RESTARTS} restarts")
    log.info(
        "k-means M=%d: %d of %d restarts kept, %d lost a cluster, best inertia %.6g",
        M, KMEANS_RESTARTS - lost, KMEANS_RESTARTS, lost, best[1],
    )

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
