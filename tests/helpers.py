"""Shared test utilities: random Soules trees, pipeline run helpers, the
n x n truncated Laplacian and reconstruction that the block-form pipeline
must reproduce, the summed-area-table split search and the fsum mean squared
difference that soules.best_soules_basis and barycentre.mse must reproduce,
the leftmost-first midpoint completion and the per-cluster-scan block order
that soules.complete_basis and alignment.canonical_permutation must
reproduce, the inputs on which the Lanczos and dense eigensolver paths are
compared, the whole-matrix degree scan and the dense normalized adjacency
a * outer(r, r) that Entries.degrees and graph_core.normalized_entries must
reproduce, and
the spectrum heads and embedding the pipeline must reproduce from them, the
whole-matrix symmetry decision, the full-draw SBM sampler and the
fresh-strip edge sampler that graph_core.symmetric_entries, sbm.sample and
sbm.sample_edges must reproduce, the broadcast k-means restart that
alignment._seed_rows and alignment._lloyd must reproduce, the per-line
contact parser that ingest.parse_contacts must reproduce, and the per-hit
school-day generator that ingest.synthetic_school_day must reproduce."""

import math
import re

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
    """The summed-area-table split search soules.best_soules_basis replaced,
    on a matrix that graph_core.symmetric_entries passed: the reference whose
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


def reference_complete_basis(basis: soules.SoulesBasis) -> soules.SoulesBasis:
    """The midpoint completion that rescans the leaves left to right for the
    first splittable one before each split: the reference whose splits
    soules.complete_basis gives."""
    if basis.is_complete:
        return basis
    splits = list(basis.tree.splits)
    leaves = basis.tree.leaves()
    level = len(splits) + 1
    while True:
        target = next(((a, b) for a, b in leaves if b > a), None)
        if target is None:
            break
        a, b = target
        istar = (a + b - 1) // 2
        splits.append(SoulesSplit(i0=a, i1=b, istar=istar, level=level))
        level += 1
        ix = leaves.index((a, b))
        leaves[ix : ix + 1] = [(a, istar), (istar + 1, b)]
    return soules.materialize(SoulesTree(n=basis.n, splits=tuple(splits)))


def reference_canonical_permutation(assignment: alignment.ClusterAssignment) -> np.ndarray:
    """The block order by a sort key over the clusters and one label scan per
    cluster: the reference whose permutation
    alignment.canonical_permutation gives."""
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
    """The reference normalized adjacency of a named case, its M, and whether
    Lanczos applies."""
    build, M, lanczos = PARTIAL_PATH_CASES[name]
    return reference_normalized_adjacency(build()), M, lanczos


def reference_pipeline_heads(graphs: list[np.ndarray], M: int) -> tuple[np.ndarray, np.ndarray]:
    """The mean spectrum head and the embedding of compute_barycentre for a
    given M, from the public top_eigen functions on reference normalized
    adjacencies of the inputs and of their dense mean: the reference whose
    bits the pipeline, which normalizes each graph's entries alone, gives.
    One graph is its own mean, so its head comes from the embedding's
    eigensolve, as in the pipeline. The solves run under the pipeline's
    eigen.one_blas_thread, whose dense eigensolves give the bits of one BLAS
    thread."""
    mean_adj = barycentre.sample_mean_adjacency(graphs)
    with eigen.one_blas_thread():
        top = eigen.top_eigenpairs(reference_normalized_adjacency(mean_adj), M)
        heads = [top.values] if len(graphs) == 1 else [
            eigen.top_eigenvalues(reference_normalized_adjacency(g), M) for g in graphs]
    head = barycentre.sample_mean_eigenvalues([1.0 - h for h in heads])
    return head, top.vectors


def reference_is_symmetric(s: np.ndarray) -> bool:
    """The whole-matrix decision graph_core.symmetric_entries takes from the
    stored entries alone, on a finite square matrix."""
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


def reference_sample_edges(spec: sbm.SbmSpec, seed) -> tuple[np.ndarray, np.ndarray]:
    """The strip sampler sbm.sample_edges replaced: each strip's uniforms in
    a fresh array, compared with a fresh strip of P and cut to its upper
    triangle by np.triu, the reference whose edges it gives. Reads
    sbm._SAMPLE_STRIP at call time."""
    n = spec.n
    P = sbm.population_blocks(spec)
    rng = graph_core.philox(seed)
    rows = max(1, sbm._SAMPLE_STRIP // n)
    flat = []
    for i in range(0, n, rows):
        strip = rng.random((min(rows, n - i), n)) < P[i : i + rows]
        flat.append(np.flatnonzero(np.triu(strip, k=i + 1)) + i * n)
    return np.divmod(np.concatenate(flat), n)


def reference_kmeans_once(points: np.ndarray, k: int, rng: np.random.Generator):
    """One k-means restart with distances from an n x k x d broadcast: the
    reference whose labels and inertia alignment._seed_rows followed by
    alignment._lloyd give bit for bit. Reads alignment.KMEANS_MAX_ITER at call time."""
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


def reference_degrees(a: np.ndarray) -> np.ndarray:
    """The row sums of a by one bincount over its row-major nonzeros, so
    each row's nonzeros are added in column order from 0.0: the degrees
    whose bits Entries.degrees gives."""
    a = np.asarray(a, dtype=float)
    flat = np.flatnonzero(a)
    return np.bincount(flat // a.shape[1], weights=a.take(flat), minlength=a.shape[0])


def reference_normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """The dense normalized adjacency a * outer(r, r), with r_i the inverse
    square root of reference_degrees(a)_i and 0 for zero-degree nodes: the
    matrix whose nonzeros graph_core.normalized_entries gives bit for bit."""
    a = np.asarray(a, dtype=float)
    d = reference_degrees(a)
    r = np.zeros_like(d)
    r[d > 0] = 1.0 / np.sqrt(d[d > 0])
    return a * np.outer(r, r)


# the ASCII whitespace that separates contact fields, and a t/i/j field
_FIELD_SPACE = re.compile("[\t\n\x0b\x0c\r\x1c-\x1f ]")
_FIELD_INT = re.compile("[+-]?[0-9]{1,19}")


def reference_parse_contacts(stream) -> list[tuple]:
    """A per-line contact parser: (t, i, j) rows in input order, or a
    ParseError for the first bad line. Fields are split at ASCII whitespace;
    a contact line has 3 or 5 fields, t/i/j of an optional sign and 1 to 19
    ASCII digits inside int64, i != j and t >= 0. The class names of a
    5-field line are checked for presence and not kept. A bad line gets the
    message of the str.split() and int() parser ingest.parse_contacts
    replaced, or the format message where that parser read the line."""
    rows = []
    for lineno, raw in enumerate(stream, start=1):
        fields = [f for f in _FIELD_SPACE.split(raw) if f]
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) in (3, 5) and all(_FIELD_INT.fullmatch(f) for f in fields[:3]):
            t, i, j = map(int, fields[:3])
            if i != j and t >= 0 and all(-(2**63) <= v < 2**63 for v in (t, i, j)):
                rows.append((t, i, j))
                continue
        _raise_split_int_error(lineno, raw)
        line = raw.rstrip("\r\n")
        raise ingest.ParseError(f"line {lineno}: not 't i j [ci cj]' with ASCII whitespace and "
                                f"t/i/j of 1 to 19 ASCII digits in {line!r}")
    return rows


def _raise_split_int_error(lineno: int, raw: str) -> None:
    # the checks of the str.split() and int() parser on one line
    line = raw.strip()
    if not line or line.startswith("#"):
        return
    fields = line.split()
    if len(fields) not in (3, 5):
        raise ingest.ParseError(f"line {lineno}: expected 3 or 5 fields, got {len(fields)}")
    try:
        t, i, j = int(fields[0]), int(fields[1]), int(fields[2])
    except ValueError:
        raise ingest.ParseError(f"line {lineno}: non-integer t/i/j in {line!r}") from None
    if i == j:
        raise ingest.ParseError(f"line {lineno}: self-contact at t={t} for node {i}")
    if t < 0:
        raise ingest.ParseError(f"line {lineno}: negative timestamp {t}")
    if not all(-(2**63) <= v < 2**63 for v in (t, i, j)):
        raise ingest.ParseError(f"line {lineno}: t/i/j outside int64 in {line!r}")


def reference_window_graphs(rows: list[tuple], start: int, end: int,
                            width: int) -> list[np.ndarray]:
    """The per-event windowing loop ingest.window_graphs replaced, on
    (t, i, j) rows: one n x n graph per window over the sorted node ids
    seen in [start, end)."""
    in_range = [r for r in rows if start <= r[0] < end]
    node_ids = sorted({r[1] for r in in_range} | {r[2] for r in in_range})
    index = {v: k for k, v in enumerate(node_ids)}
    n = len(node_ids)
    graphs = [np.zeros((n, n)) for _ in range(-(-(end - start) // width))]
    for t, i, j in in_range:
        w = (t - start) // width
        graphs[w][index[i], index[j]] = 1.0
        graphs[w][index[j], index[i]] = 1.0
    return graphs


def reference_synthetic_school_day(seed: int = 0) -> str:
    """The per-hit f-string generator ingest.synthetic_school_day replaced,
    frozen: the reference whose text it gives byte for byte."""
    rng = graph_core.philox(seed)
    sizes, names = ingest._CLASS_SIZES, ingest._CLASS_NAMES
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    ids = rng.permutation(np.arange(1000, 1000 + n))

    pair_i, pair_j = np.triu_indices(n, k=1)
    same_class = labels[pair_i] == labels[pair_j]
    base = np.where(same_class, ingest._WITHIN_TICK, ingest._CROSS_TICK)
    recess = np.where(same_class, ingest._WITHIN_TICK, ingest._RECESS_CROSS_TICK)
    recess_ranges = list(ingest._RECESS.values())

    lines = ["# synthetic school-day surrogate: t i j ci cj"]
    periods = ((ingest.MORNING_START, ingest.MORNING_END),
               (ingest.AFTERNOON_START, ingest.AFTERNOON_END))
    for period_start, period_end in periods:
        for t in range(period_start, period_end, ingest.TICK_SECONDS):
            in_recess = any(a <= t < b for a, b in recess_ranges)
            prob = recess if in_recess else base
            hit = np.flatnonzero(rng.random(len(prob)) < prob)
            for k in hit:
                a, b = pair_i[k], pair_j[k]
                lines.append(f"{t} {ids[a]} {ids[b]} {names[labels[a]]} {names[labels[b]]}")
    lines.append("")
    return "\n".join(lines)
