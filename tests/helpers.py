"""Shared test utilities: random Soules trees, pipeline run helpers, the
inputs on which the Lanczos and dense eigensolver paths are compared, the
broadcast k-means restart that alignment._kmeans_once must reproduce, and the
per-line contact parser that ingest.parse_contacts must reproduce."""

import numpy as np

from specbary import alignment, barycentre, graph_core, ingest, sbm
from specbary.soules import SoulesSplit, SoulesTree


def random_tree(rng: np.random.Generator, n: int, n_splits: int | None = None) -> SoulesTree:
    """A SoulesTree built by splitting uniformly random leaves at random cuts."""
    if n_splits is None:
        n_splits = int(rng.integers(0, n))
    splits = []
    leaves = [(1, n)]
    for level in range(1, n_splits + 1):
        wide = [(a, b) for a, b in leaves if b > a]
        if not wide:
            break
        a, b = wide[rng.integers(len(wide))]
        istar = int(rng.integers(a, b))
        splits.append(SoulesSplit(i0=a, i1=b, istar=istar, level=level))
        leaves.remove((a, b))
        leaves += [(a, istar), (istar + 1, b)]
    return SoulesTree(n=n, splits=tuple(splits))


def random_complete_tree(rng: np.random.Generator, n: int) -> SoulesTree:
    return random_tree(rng, n, n_splits=n - 1)


def permuted_run_mse(spec: sbm.SbmSpec, key: tuple) -> float:
    """One survey run: sample, relabel randomly, reconstruct, score against P.

    The sample and the permutation get independent streams derived from key;
    the clustering seed is a third stream so runs are fully reproducible.
    """
    a = sbm.sample(spec, key)
    perm = graph_core.philox((*key, 1)).permutation(spec.n)
    shuffled = graph_core.permute(a, perm)
    result = barycentre.compute_barycentre([shuffled], M=spec.M, seed=(*key, 2))
    mu = graph_core.permute(result.mu_hat, graph_core.invert_permutation(perm))
    return barycentre.mse(sbm.population_mean(spec), mu)


def four_block_spec(c: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)) -> sbm.SbmSpec:
    """The four-community reference model: n=512, uneven blocks, sparse scaling."""
    n = 512
    logn = np.log(n)
    p = tuple(ci * logn**2 / n for ci in c)
    return sbm.SbmSpec(block_sizes=(63, 147, 105, 197), p=p, q=2 * logn / n)


def _paper_scaled(n: int, M: int) -> sbm.SbmSpec:
    logn = np.log(n)
    return sbm.balanced(n, M, 3 * logn**2 / n, 2 * logn / n)


def _cycle(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def _weighted(a: np.ndarray, key) -> np.ndarray:
    w = graph_core.philox(key).uniform(0.5, 2.0, a.shape)
    w = np.triu(w) + np.triu(w, 1).T
    return a * w


def _isolate(a: np.ndarray, every: int) -> np.ndarray:
    # drop every edge of each every-th node
    keep = np.arange(a.shape[0]) % every != 0
    return a * np.outer(keep, keep)


# name -> (adjacency builder, M, whether the Lanczos path applies to it)
PARTIAL_PATH_CASES = {
    "sbm_1024": (lambda: sbm.sample(_paper_scaled(1024, 4), (61, 0)), 4, True),
    "sbm_2048": (lambda: sbm.sample(_paper_scaled(2048, 4), (61, 1)), 4, True),
    "four_block": (lambda: sbm.sample(four_block_spec(), (61, 2)), 4, True),
    # eigenvalue (p - q) / (p + 3q) of multiplicity M - 1 = 3, exactly
    "balanced_population": (lambda: sbm.population_mean(sbm.balanced(1024, 4, 0.5, 0.1)), 4, True),
    # every eigenvalue but the top one doubled; M = 5 ends after a full pair
    "cycle": (lambda: _cycle(512), 5, True),
    "disconnected": (lambda: np.kron(np.eye(2), sbm.sample(_paper_scaled(512, 2), (61, 3))), 4, False),
    "isolated_nodes": (lambda: _isolate(sbm.sample(_paper_scaled(1024, 4), (61, 4)), 100), 4, False),
    "weighted": (lambda: _weighted(sbm.sample(_paper_scaled(1024, 4), (61, 5)), (61, 6)), 4, True),
}


def partial_path_case(name: str) -> tuple[np.ndarray, int, bool]:
    """The normalized adjacency of a named case, its M, and whether Lanczos applies."""
    build, M, lanczos = PARTIAL_PATH_CASES[name]
    return graph_core.normalized_adjacency(build()), M, lanczos


def reference_kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator):
    """One k-means restart with distances from an n x k x d broadcast: the
    reference whose labels and inertia alignment._kmeans_once gives bit for
    bit. Reads alignment.KMEANS_MAX_ITER at call time."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    dist2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        centers[c] = points[int(np.argmax(dist2))]
        dist2 = np.minimum(dist2, ((points - centers[c]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    for _ in range(alignment.KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            return None
        if (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def reference_parse_contacts(stream) -> list[tuple]:
    """The per-line contact parser ingest.parse_contacts replaced, with the
    checks of the event record it built inlined: (t, i, j, class_i, class_j)
    rows in input order, or the same ParseError for the first bad line."""
    rows = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (3, 5):
            raise ingest.ParseError(f"line {lineno}: expected 3 or 5 fields, got {len(fields)}")
        try:
            t, i, j = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise ingest.ParseError(f"line {lineno}: non-integer t/i/j in {line!r}") from None
        ci, cj = (fields[3], fields[4]) if len(fields) == 5 else (None, None)
        if i == j:
            raise ingest.ParseError(f"line {lineno}: self-contact at t={t} for node {i}")
        if t < 0:
            raise ingest.ParseError(f"line {lineno}: negative timestamp {t}")
        rows.append((t, i, j, ci, cj))
    return rows


def reference_window_graphs(rows: list[tuple], start: int, end: int,
                            width: int) -> list[np.ndarray]:
    """The per-event windowing loop ingest.window_graphs replaced, on
    (t, i, j, ...) rows: one n x n graph per window over the sorted node ids
    seen in [start, end)."""
    in_range = [r for r in rows if start <= r[0] < end]
    node_ids = sorted({r[1] for r in in_range} | {r[2] for r in in_range})
    index = {v: k for k, v in enumerate(node_ids)}
    n = len(node_ids)
    graphs = [np.zeros((n, n)) for _ in range(-(-(end - start) // width))]
    for t, i, j, *_ in in_range:
        w = (t - start) // width
        graphs[w][index[i], index[j]] = 1.0
        graphs[w][index[j], index[i]] = 1.0
    return graphs
