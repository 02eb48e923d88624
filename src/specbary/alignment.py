"""Node alignment: spectral embedding, k-means clustering, the canonical
block ordering, and community-count estimation from a mean spectrum.

The barycentre construction needs node blocks to be contiguous. Nodes are
embedded with the dominant eigenvectors of the normalized mean adjacency,
clustered, and then reordered so clusters become contiguous intervals sorted
by descending volume.
"""

import logging
from dataclasses import dataclass
from typing import NamedTuple

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
    keep = norms > ZERO_ROW_EPS
    out = np.zeros_like(points)
    np.divide(points, norms[:, None], out=out, where=keep[:, None])
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


def _assign(points: np.ndarray, centers: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The labels of _broadcast_argmin, from one n x k matrix product written
    into the n x k scratch dist, which is left overwritten.

    Only rows whose two nearest centres lie within _TIE_MARGIN of each other
    go through _broadcast_argmin.
    """
    # |x - c|^2 less the per-row constant |x|^2, which moves no argmin or gap
    np.matmul(points, centers.T, out=dist)
    dist *= 2.0
    np.subtract((centers**2).sum(axis=1), dist, out=dist)
    labels = np.argmin(dist, axis=1)
    if centers.shape[0] > 1:
        # the two smallest values of each row: the argmin's, then the least
        # once that entry is masked (equal to it when the minimum repeats);
        # argmin and a gather take that least faster than a min reduction
        rows = np.arange(len(labels))
        first = dist[rows, labels]
        dist[rows, labels] = np.inf
        second = dist[rows, np.argmin(dist, axis=1)]
        near = np.flatnonzero(second - first <= _TIE_MARGIN)
        labels[near] = _broadcast_argmin(points[near], centers)
    return labels


def _centroids(points: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each cluster's rows with the bits of
    points[labels == c].mean(axis=0); every cluster must be non-empty."""
    k, d = len(counts), points.shape[1]
    if d == 1:
        # numpy sums a contiguous column pairwise, not in row order
        return np.array([points[labels == c].mean(axis=0) for c in range(k)])
    # for d >= 2 numpy adds the rows in order, as one bincount over the
    # (label, column) bins of the flattened rows does
    bins = (labels * d)[:, None] + np.arange(d)
    sums = np.bincount(bins.ravel(), weights=points.ravel(), minlength=k * d)
    return sums.reshape(k, d) / counts[:, None]


def _sq_dist(points: np.ndarray, centers: np.ndarray, out: np.ndarray) -> np.ndarray:
    # ((points - centers) ** 2).sum(axis=1), with the n x d difference in out
    np.subtract(points, centers, out=out)
    np.multiply(out, out, out=out)
    return out.sum(axis=1)


class _Restart(NamedTuple):
    labels: np.ndarray | None  # None when the restart lost a cluster
    inertia: float
    iterations: int  # assignment steps taken
    capped: bool  # stopped at KMEANS_MAX_ITER without converging


def _kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator,
                 scratch: np.ndarray | None = None) -> _Restart:
    """One seeded restart. scratch, when given, is a float array of at least
    n * max(k, d) entries that is overwritten; restarts can share one."""
    n, d = points.shape
    if scratch is None:
        scratch = np.empty(n * max(k, d))
    dist = scratch[: n * k].reshape(n, k)
    diff = scratch[: n * d].reshape(n, d)

    centers = np.empty((k, d))
    centers[0] = points[int(rng.integers(n))]
    dist2 = _sq_dist(points, centers[0], diff)
    for c in range(1, k):
        # farthest-point seeding; argmax takes the smallest index on ties
        centers[c] = points[int(np.argmax(dist2))]
        np.minimum(dist2, _sq_dist(points, centers[c], diff), out=dist2)

    labels = np.full(n, -1)
    capped = False
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        new_labels = _assign(points, centers, dist)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            return _Restart(None, np.inf, iterations, False)
        if (new_labels == labels).all():
            break
        labels, assigned = new_labels, centers
        centers = _centroids(points, labels, counts)
    else:
        # out of iterations: the labels came from the centres before the update
        centers, capped = assigned, True
    # labels are in range; mode="raise" would gather through a buffer first
    np.take(centers, labels, axis=0, out=diff, mode="clip")
    inertia = float(_sq_dist(points, diff, diff).sum())
    return _Restart(labels, inertia, iterations, capped)


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
    if every restart does. The counts of kept and lost restarts, the best
    inertia, the Lloyd iterations of all restarts together and the number of
    restarts stopped at KMEANS_MAX_ITER are logged at INFO.

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
    scratch = np.empty(n * max(M, points.shape[1]))
    best, lost, iterations, capped = None, 0, 0, 0
    for _ in range(KMEANS_RESTARTS):
        run = _kmeans_once(points, M, rng, scratch)
        iterations += run.iterations
        capped += run.capped
        if run.labels is None:
            lost += 1
        elif best is None or run.inertia < best.inertia:
            best = run
    if best is None:
        raise ClusteringError(f"k-means lost a cluster in all {KMEANS_RESTARTS} restarts")
    log.info(
        "k-means M=%d: %d of %d restarts kept, %d lost a cluster, best inertia %.6g, "
        "%d Lloyd iterations in all, %d restarts stopped at the %d-iteration cap",
        M, KMEANS_RESTARTS - lost, KMEANS_RESTARTS, lost, best.inertia,
        iterations, capped, KMEANS_MAX_ITER,
    )

    labels = best.labels + 1
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
