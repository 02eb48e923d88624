"""Shared test utilities: random Soules trees, pipeline run helpers, the
n x n truncated Laplacian and reconstruction that the block-form pipeline
must reproduce, the summed-area-table split search and the fsum mean squared
difference that soules._best_soules_basis and barycentre.mse must reproduce,
the inputs on which the Lanczos and dense eigensolver paths are compared, the
dense-built normalized adjacencies whose spectrum heads and embedding the
pipeline must reproduce, the whole-matrix symmetry decision and the full-draw
SBM sampler that graph_core.check_symmetric and sbm.sample must reproduce,
the broadcast k-means restart that alignment._kmeans_once must reproduce, and
the per-line contact parser that ingest.parse_contacts must reproduce."""

import math

import numpy as np

from specbary import alignment, barycentre, cli, eigen, graph_core, ingest, sbm, soules
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
    """One survey run as block-sweep scores it: sample from key, relabel
    from (*key, 1), reconstruct with clustering seed (*key, 2), score
    against P."""
    return cli._one_mse_run(spec, spec.M, key, (*key, 2))


def expand_blocks(blocks_matrix: np.ndarray, blocks) -> np.ndarray:
    """Z B Z^T for the n x M indicator Z of the 1-based inclusive leaf blocks.

    Each entry is one B entry times 1 plus zeros, so the expansion is exact.
    """
    Z = np.zeros((blocks[-1][1], len(blocks)))
    for k, (a, b) in enumerate(blocks):
        Z[a - 1 : b, k] = 1.0
    return Z @ blocks_matrix @ Z.T


def reference_truncated_laplacian(spectrum: barycentre.MeanSpectrum,
                                  basis: soules.SoulesBasis) -> np.ndarray:
    """The n x n truncated Laplacian, I minus the rank-M correction
    sum_{k<=M} (1 - lambda_k) psi_k psi_k^T, from the first M basis columns."""
    V = basis.vectors[:, : spectrum.M]
    lap = -(V * (1.0 - spectrum.regularized[: spectrum.M])) @ V.T
    lap[np.diag_indices_from(lap)] += 1.0
    return lap


def reference_reconstruct_barycentre(lap: np.ndarray, degrees: barycentre.BlockDegrees) -> np.ndarray:
    """The n x n degree-rescaled adjacency Dhat^{1/2} (I - lap) Dhat^{1/2},
    with node degrees constant on each block."""
    node_deg = np.empty(lap.shape[0])
    for (a, b), d in zip(degrees.blocks, degrees.values):
        node_deg[a - 1 : b] = d
    eye_minus = -lap.copy()
    eye_minus[np.diag_indices_from(eye_minus)] += 1.0
    return np.sqrt(np.outer(node_deg, node_deg)) * eye_minus


def reference_barycentre(graphs: list[np.ndarray],
                         result: barycentre.BarycentreResult) -> tuple[np.ndarray, np.ndarray]:
    """mu_hat and laplacian_hat from the n x n reference bodies, built on the
    alignment, spectrum and degrees of a pipeline result and un-permuted to
    the input node order."""
    mean_perm = graph_core.permute(barycentre.sample_mean_adjacency(graphs), result.permutation)
    basis = soules.best_soules_basis(mean_perm, depth=result.spectrum.M)
    assert tuple(basis.tree.leaves(depth=result.spectrum.M)) == result.degrees.blocks
    lap = reference_truncated_laplacian(result.spectrum, basis)
    mu = reference_reconstruct_barycentre(lap, result.degrees)
    back = np.ix_(result.permutation, result.permutation)
    return mu[back], lap[back]


def reference_best_soules_basis(s: np.ndarray, depth: int) -> soules.SoulesBasis:
    """The summed-area-table split search soules._best_soules_basis replaced,
    on a matrix that graph_core.check_symmetric passed: the reference whose
    splits the table-free search gives."""
    n = s.shape[0]
    if not 1 <= depth <= n:
        raise ValueError(f"depth {depth} outside 1..{n}")

    # sat[i, j] = sum of s[:i, :j]; 1-based block sums become 4-point lookups
    sat = np.zeros((n + 1, n + 1))
    np.cumsum(np.cumsum(s, axis=0), axis=1, out=sat[1:, 1:])

    # scores below the rounding noise of the table are treated as exact zeros,
    # otherwise accumulated-sum jitter would decide ties on structureless input
    mass = max(1.0, float(np.abs(s).sum()))
    noise_floor = (64.0 * np.finfo(float).eps * mass) ** 2

    def leaf_scores(a: int, b: int) -> np.ndarray:
        # scores for istar = a..b-1, vectorized over the whole leaf
        t = np.arange(a, b)
        L = b - a + 1
        r0 = t - a + 1.0
        r1 = b - t + 0.0
        s00 = sat[t, t] - sat[a - 1, t] - sat[t, a - 1] + sat[a - 1, a - 1]
        s0b = sat[t, b] - sat[a - 1, b] - sat[t, a - 1] + sat[a - 1, a - 1]
        stot = sat[b, b] - sat[a - 1, b] - sat[b, a - 1] + sat[a - 1, a - 1]
        s01 = s0b - s00
        s11 = stot - s00 - 2.0 * s01
        val = (r1 / (L * r0)) * s00 + (r0 / (L * r1)) * s11 - (2.0 / L) * s01
        scores = val * val
        scores[scores <= noise_floor] = 0.0
        return scores

    leaves = [(1, n)]
    splits: list[SoulesSplit] = []
    for level in range(1, depth):
        best_score = -1.0
        best = None
        for a, b in leaves:
            if b == a:
                continue
            scores = leaf_scores(a, b)
            k = int(np.argmax(scores))
            # strict comparison keeps the earliest (i0, istar) on ties
            if scores[k] > best_score:
                best_score = float(scores[k])
                best = (a, b, a + k)
        if best is None:
            raise ValueError(f"no splittable leaf left at depth {level + 1}")
        a, b, istar = best
        splits.append(SoulesSplit(i0=a, i1=b, istar=istar, level=level))
        ix = leaves.index((a, b))
        leaves[ix : ix + 1] = [(a, istar), (istar + 1, b)]

    return soules.materialize(SoulesTree(n=n, splits=tuple(splits)))


def reference_mse(a: np.ndarray, b: np.ndarray) -> float:
    """The n^2-temporary mean squared difference barycentre.mse replaced,
    summed with math.fsum: the reference whose bits barycentre.mse gives."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = (a - b).ravel()
    return math.fsum(diff * diff) / diff.size


def four_block_spec(c: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)) -> sbm.SbmSpec:
    """The four-community reference model: n=512, uneven blocks, sparse scaling."""
    n = 512
    logn = np.log(n)
    p = tuple(ci * logn**2 / n for ci in c)
    return sbm.SbmSpec(block_sizes=(63, 147, 105, 197), p=p, q=2 * logn / n)


def paper_scaled(n: int, M: int) -> sbm.SbmSpec:
    """Balanced model with p = 3(log n)^2/n (at most 1) and q = 2 log n/n."""
    logn = np.log(n)
    return sbm.balanced(n, M, min(1.0, 3 * logn**2 / n), 2 * logn / n)


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


def _underflow(a: np.ndarray) -> np.ndarray:
    # the smallest subnormal weight on one edge: its normalized entry, that
    # weight times 1 / sqrt(d_i d_j) < 1, rounds to 0
    i, j = np.argwhere(np.triu(a, 1))[0]
    a[i, j] = a[j, i] = 5e-324
    return a


# name -> (adjacency builder, M, whether the Lanczos path applies to it)
PARTIAL_PATH_CASES = {
    "sbm_1024": (lambda: sbm.sample(paper_scaled(1024, 4), (61, 0)), 4, True),
    "sbm_2048": (lambda: sbm.sample(paper_scaled(2048, 4), (61, 1)), 4, True),
    "four_block": (lambda: sbm.sample(four_block_spec(), (61, 2)), 4, True),
    # eigenvalue (p - q) / (p + 3q) of multiplicity M - 1 = 3, exactly
    "balanced_population": (lambda: sbm.population_mean(sbm.balanced(1024, 4, 0.5, 0.1)), 4, True),
    # every eigenvalue but the top one doubled; M = 5 ends after a full pair
    "cycle": (lambda: _cycle(512), 5, True),
    "disconnected": (lambda: np.kron(np.eye(2), sbm.sample(paper_scaled(512, 2), (61, 3))), 4, False),
    "isolated_nodes": (lambda: _isolate(sbm.sample(paper_scaled(1024, 4), (61, 4)), 100), 4, False),
    "weighted": (lambda: _weighted(sbm.sample(paper_scaled(1024, 4), (61, 5)), (61, 6)), 4, True),
    "weighted_underflow": (
        lambda: _underflow(_weighted(sbm.sample(paper_scaled(1024, 4), (61, 7)), (61, 8))), 4, True),
}


def partial_path_case(name: str) -> tuple[np.ndarray, int, bool]:
    """The normalized adjacency of a named case, its M, and whether Lanczos applies."""
    build, M, lanczos = PARTIAL_PATH_CASES[name]
    return graph_core.normalized_adjacency(build()), M, lanczos


def reference_pipeline_heads(graphs: list[np.ndarray], M: int) -> tuple[np.ndarray, np.ndarray]:
    """The mean spectrum head and the embedding of compute_barycentre for a
    given M, from dense normalized adjacencies that Lanczos reads through
    scipy's dense to CSR conversion: the reference whose bits the pipeline's
    CSR built from each graph's nonzeros gives. One graph is its own mean, so
    its head comes from the embedding's eigensolve, as in the pipeline."""
    mean_adj = barycentre.sample_mean_adjacency(graphs)
    top = eigen._top_eigenpairs(graph_core.normalized_adjacency(mean_adj), M)
    heads = [top.values] if len(graphs) == 1 else [
        eigen._top_eigenvalues(graph_core.normalized_adjacency(g), M) for g in graphs]
    head = barycentre.sample_mean_eigenvalues([1.0 - h for h in heads])
    return head, top.vectors


def reference_is_symmetric(s: np.ndarray) -> bool:
    """The whole-matrix decision graph_core.check_symmetric takes tile by
    tile, on a finite square matrix."""
    tol = graph_core.SYMMETRY_RTOL * max(1.0, float(s.max()), -float(s.min()))
    return not np.abs(s - s.T).max() > tol


def reference_population_mean(spec: sbm.SbmSpec) -> np.ndarray:
    """The n x n population mean filled block by block over
    spec.block_slices(), the reference of sbm.population_mean."""
    P = np.full((spec.n, spec.n), spec.q)
    for pm, blk in zip(spec.p, spec.block_slices()):
        P[blk, blk] = pm
    return P


def reference_sample(spec: sbm.SbmSpec, seed) -> np.ndarray:
    """The one-draw SBM sampler sbm.sample replaced: n x n uniforms compared
    with the n x n population mean, the reference whose bits it gives."""
    u = graph_core.philox(seed).random((spec.n, spec.n))
    upper = np.triu(u < reference_population_mean(spec), k=1)
    return (upper | upper.T).astype(float)


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
