"""Node alignment: spectral embedding, k-means clustering, the canonical
block ordering, and community-count estimation from a mean spectrum.

The barycentre construction needs node blocks to be contiguous. Nodes are
embedded with the dominant eigenvectors of the normalized mean adjacency,
clustered, and then reordered so clusters become contiguous intervals sorted
by descending volume.
"""

import logging
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import eigen, graph_core

log = logging.getLogger(__name__)

KMEANS_RESTARTS = 20
KMEANS_MAX_ITER = 300
ZERO_ROW_EPS = 1e-12
_BULK_DELTA = 0.1
_MIN_GAP = 0.05
# n * M from which cluster_nodes runs its restarts on threads
_THREADED_MIN_SIZE = 2**16


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


def _broadcast_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """|x - c|^2 of every row and centre, summed over an n x k x d broadcast
    that is squared in place."""
    d2 = points[:, None, :] - centers[None, :, :]
    np.square(d2, out=d2)
    return d2.sum(axis=2)


def _broadcast_argmin(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centre by |x - c|^2 summed over an
    n x k x d broadcast; argmin takes the smallest index on ties."""
    return np.argmin(_broadcast_sq_dist(points, centers), axis=1)


def _assign(points: np.ndarray, centers: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The labels of _broadcast_argmin, from one n x k matrix product written
    into the n x k scratch dist, which is left overwritten.

    Only rows with another centre within _TIE_MARGIN of their nearest go
    through _broadcast_argmin.
    """
    # |x - c|^2 less the per-row constant |x|^2, which moves no argmin or
    # gap; 2 c is exact, so x.(2c) is 2 x.c
    np.matmul(points, 2.0 * centers.T, out=dist)
    np.subtract((centers**2).sum(axis=1), dist, out=dist)
    labels = np.argmin(dist, axis=1)
    if centers.shape[0] > 1:
        # every row's minimum is within the margin of itself, so more than n
        # such entries means some row has a second one. The margin is moved
        # into dist in place, as x - y <= 0 exactly when x <= y, so that the
        # broadcast and the n x k mask are not alive at once
        dist -= (dist[np.arange(len(labels)), labels] + _TIE_MARGIN)[:, None]
        near = dist <= 0.0
        if np.count_nonzero(near) > len(labels):
            tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
            labels[tied] = _broadcast_argmin(points[tied], centers)
    return labels


def _centroids(points: np.ndarray, labels: np.ndarray, counts: np.ndarray,
               bins: np.ndarray) -> np.ndarray:
    """Mean of each cluster's rows with the bits of
    points[labels == c].mean(axis=0); every cluster must be non-empty. bins
    is an n x d intp scratch that is overwritten."""
    k, d = len(counts), points.shape[1]
    if d == 1:
        # numpy sums a contiguous column pairwise, not in row order
        return np.array([points[labels == c].mean(axis=0) for c in range(k)])
    # for d >= 2 numpy adds the rows in order, as one bincount over the
    # (label, column) bins of the flattened rows does
    bins[...] = (labels * d)[:, None]
    bins += np.arange(d)
    sums = np.bincount(bins.ravel(), weights=points.ravel(), minlength=k * d)
    return sums.reshape(k, d) / counts[:, None]


def _sq_dist(points: np.ndarray, centers: np.ndarray, out: np.ndarray) -> np.ndarray:
    # ((points - centers) ** 2).sum(axis=1), with the n x d difference in out
    np.subtract(points, centers, out=out)
    np.multiply(out, out, out=out)
    return out.sum(axis=1)


def _farthest(points: np.ndarray, rows: np.ndarray, centers: np.ndarray) -> int:
    """The one of the ascending rows farthest from its nearest centre, the
    first on ties, by ((x - c) ** 2).sum with the bits of _sq_dist.

    The rows are read in chunks, so the n_rows x k x d broadcast of each
    holds at most n x d entries."""
    step = max(1, len(points) // len(centers))
    best, best_row = -np.inf, -1
    for i in range(0, len(rows), step):
        chunk = rows[i : i + step]
        d2 = _broadcast_sq_dist(points[chunk], centers).min(axis=1)
        j = int(np.argmax(d2))
        if d2[j] > best:
            best, best_row = d2[j], int(chunk[j])
    return best_row


class _Restart(NamedTuple):
    labels: np.ndarray | None  # None when the restart lost a cluster
    inertia: float
    iterations: int  # assignment steps taken
    capped: bool  # stopped at KMEANS_MAX_ITER without converging


def _seed_rows(points: np.ndarray, k: int, first: int, scratch: np.ndarray) -> np.ndarray:
    """The rows of k farthest-point seeds, the first being row first: each
    next seed is the row farthest from its nearest seed, the first on ties.
    scratch is a float array of at least n * d entries that is overwritten."""
    n, d = points.shape
    seeds = np.empty(k, dtype=np.intp)
    seeds[0] = first
    # The running minimum of the product form |x|^2 + |c|^2 - 2 x.c lies
    # within _TIE_MARGIN / 2 of the exact distance, so the farthest rows and
    # all their ties lie within _TIE_MARGIN of its maximum; only the rows
    # within 2 * _TIE_MARGIN are measured exactly
    sq_norms = np.multiply(points, points, out=scratch[: n * d].reshape(n, d)).sum(axis=1)
    nearest = np.full(n, np.inf)
    form = np.empty(n)
    for c in range(1, k):
        prev = points[seeds[c - 1]]
        # sq_norms + (prev @ prev - 2.0 * (points @ prev)), in place
        np.matmul(points, prev, out=form)
        form *= 2.0
        np.subtract(prev @ prev, form, out=form)
        form += sq_norms
        np.minimum(nearest, form, out=nearest)
        near_max = np.flatnonzero(nearest >= nearest.max() - 2 * _TIE_MARGIN)
        seeds[c] = _farthest(points, near_max, points[seeds[:c]])
    return seeds


def _lloyd(points: np.ndarray, centers: np.ndarray, scratch: np.ndarray) -> _Restart:
    """Lloyd's iterations from the given k centres. scratch is a float
    array of at least n * max(k, d) entries that is overwritten; restarts in
    one thread can share one."""
    n, d = points.shape
    k = len(centers)
    dist = scratch[: n * k].reshape(n, k)
    diff = scratch[: n * d].reshape(n, d)
    bins = scratch.view(np.intp)[: n * d].reshape(n, d)
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
        centers = _centroids(points, labels, counts, bins)
    else:
        # out of iterations: the labels came from the centres before the update
        centers, capped = assigned, True
    # labels are in range; mode="raise" would gather through a buffer first
    np.take(centers, labels, axis=0, out=diff, mode="clip")
    inertia = float(_sq_dist(points, diff, diff).sum())
    return _Restart(labels, inertia, iterations, capped)


class _Tally(NamedTuple):
    best: _Restart | None  # None when every restart lost a cluster
    best_index: int
    lost: int
    iterations: int
    capped: int


def _run_restarts(points: np.ndarray, restarts: Iterable[tuple[int, np.ndarray]],
                  scratch: np.ndarray) -> _Tally:
    """Run the (restart index, seed rows) restarts on one scratch array and
    keep the best by (inertia, restart index), as the serial loop does."""
    best, best_index, lost, iterations, capped = None, -1, 0, 0, 0
    for index, seeds in restarts:
        run = _lloyd(points, points[seeds], scratch)
        iterations += run.iterations
        capped += run.capped
        if run.labels is None:
            lost += 1
        elif best is None or (run.inertia, index) < (best.inertia, best_index):
            best, best_index = run, index
    return _Tally(best, best_index, lost, iterations, capped)


def cluster_nodes(
    embedding: np.ndarray,
    M: int,
    seed: int,
    degrees: np.ndarray | None = None,
) -> ClusterAssignment:
    """k-means partition of the embedded nodes into M clusters.

    Rows are normalized to unit length first (near-zero rows stay at the
    origin). The best of KMEANS_RESTARTS seeded restarts by inertia wins,
    the first on ties; restarts that lose a cluster are discarded, and
    ClusteringError is raised if every restart does. The counts of kept and
    lost restarts, the best inertia, the Lloyd iterations of all restarts
    together and the number of restarts stopped at KMEANS_MAX_ITER are
    logged at INFO.

    Restart r seeds from the r-th draw of the seed's Philox stream. Every
    restart is seeded first, in the calling thread: seeding is many small
    products, and run on two threads at once they fight for the GIL (a
    seeding took 2 ms alone and 11 ms per pair side by side at n = 2048,
    M = 32). The whole call holds eigen.one_blas_thread. When n * M >= 2^16
    and the pin yields more than one worker (two CPUs, and every loaded
    OpenBLAS held at one thread), the Lloyd iterations then run on
    eigen.pinned_map's threads; worker w takes restarts w, w + workers, ...
    Below 2^16 the pool saves nothing, and the restarts run in the calling
    thread. Each worker owns one n * max(M, d) float scratch array, which
    also holds the centroid bins, and keeps its own tallies and its best
    restart by (inertia, restart index); the fold returns the serial loop's
    winner, volumes and INFO line bit for bit. The scratch is why the pool
    stops at two workers: each one adds n * max(M, d) floats to the peak,
    which two keep within 4 n * M floats at n = 2048, M = d = 32. With the
    pin, each worker's whole n x M product runs on its own CPU: at n = 2048,
    M = 32 a call took 207-233 ms (quartiles of 9 calls, two processes)
    against 229-244 ms when unpinned workers cut their products into row
    blocks small enough for OpenBLAS to keep on one thread.
    The labels do not depend on how a product rounds (see _assign).

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
    n, d = points.shape
    if not 1 <= M <= n:
        raise ValueError(f"M={M} outside 1..{n}")
    points = _normalize_rows(points)

    with eigen.one_blas_thread() as workers:
        rng = graph_core.philox(seed)
        scratch = np.empty(n * max(M, d))
        # restart r seeds from the r-th draw, as when each restart drew its own
        seeds = [_seed_rows(points, M, int(rng.integers(n)), scratch)
                 for _ in range(KMEANS_RESTARTS)]
        if n * M < _THREADED_MIN_SIZE:
            workers = 1
        scratches = [scratch] + [np.empty_like(scratch) for _ in range(workers - 1)]
        # worker w runs restarts w, w + workers, ...; the fold below does not
        # depend on which worker ran a restart
        tallies = eigen.pinned_map(
            lambda w: _run_restarts(points, islice(enumerate(seeds), w, None, workers), scratches[w]),
            range(workers), workers)
    kept = [t for t in tallies if t.best is not None]
    if not kept:
        raise ClusteringError(f"k-means lost a cluster in all {KMEANS_RESTARTS} restarts")
    best = min(kept, key=lambda t: (t.best.inertia, t.best_index)).best
    lost = sum(t.lost for t in tallies)
    log.info(
        "k-means M=%d: %d of %d restarts kept, %d lost a cluster, best inertia %.6g, "
        "%d Lloyd iterations in all, %d restarts stopped at the %d-iteration cap",
        M, KMEANS_RESTARTS - lost, KMEANS_RESTARTS, lost, best.inertia,
        sum(t.iterations for t in tallies), sum(t.capped for t in tallies), KMEANS_MAX_ITER,
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
