"""The spectral barycentre pipeline.

Given T graphs on a shared node set, the barycentre is reconstructed from
two permutation-invariant summaries: the componentwise mean of the ascending
normalized-Laplacian spectra, and the sample mean adjacency matrix. The mean
spectrum fixes the eigenvalues; a Soules basis fitted to the (aligned) mean
adjacency fixes the eigenvectors; block-averaged degrees undo the degree
normalization. Only the M smallest mean eigenvalues and the first M basis
vectors enter the result, so for a given M only a head of each spectrum is
computed.

Stages of compute_barycentre:
  1. graph_core.adjacency_entries of each input graph, the one scan of a
     dense graph, which checks it and finds its nonzero entries (a
     graph_core.Entries, such as the edge_entries of a sampled edge list,
     is that checked form already). Every later step reads only those
     Entries, through public eigen, graph_core and soules functions that
     take Entries as checked, and each normalization is
     graph_core.normalized_entries of them. The mean Laplacian spectrum
     (eigen.laplacian_eigenvalues of each graph: the head of M values for
     a given M, where a single graph's head comes from the eigensolve of
     the embedding in stage 2, and all n values to estimate M), and the
     sample mean adjacency as entries, merged with no n x n array,
  2. alignment: spectral embedding, k-means, canonical block ordering,
  3. greedy Soules basis on the aligned mean adjacency, read as the mean's
     entries with their rows and columns relabelled, first M columns; the
     block degrees average the mean's Entries.degrees over its leaves. So
     for a given M on inputs that Lanczos reads, no n x n array is built
     after the inputs (an estimated M, like the dense eigensolver
     fallback, builds each matrix it solves from the entries),
  4. eigenvalue regularization (bulk entries pinned to 1),
  5. truncated Laplacian and degree-rescaled adjacency as M x M matrices
     over the depth-M leaf blocks,
  6. the leaf of each input node; the result keeps the block matrices, and
     expands each to n x n in the input node order, by a gather of the leaf
     rows and then of the leaf columns, only when a caller first reads it.

Threads and bits. compute_barycentre holds eigen.one_blas_thread from start
to end, so every BLAS and LAPACK call it makes runs on one OpenBLAS thread,
and its result has the bits of OPENBLAS_NUM_THREADS=1 at any thread count,
wherever that pin reaches every loaded OpenBLAS. The CPU this frees runs
stage 1 on graphs of _POOL_MIN_N nodes or more on eigen.pinned_map's two
threads (each graph's check, then each graph's spectrum beside the merge
of the mean), and the k-means restarts of large embeddings (see
alignment.cluster_nodes). Neither pool changes a bit of the result.
"""

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import alignment, eigen, graph_core, soules

log = logging.getLogger(__name__)

REGULARIZE_TOL = 1e-9

# elements per strip of mse (512 KB of float64 per strip array)
_MSE_STRIP = 1 << 16
# nodes from which compute_barycentre runs the per-graph stage on a pool
_POOL_MIN_N = 768


@dataclass(frozen=True)
class MeanSpectrum:
    """Sample mean eigenvalues, the community count, and the regularized
    spectrum (first M entries kept, the bulk replaced by 1).

    sample_mean holds the smallest eigenvalues that were computed: M of them
    for a given M, all n when M was estimated; regularized always has n
    entries.
    """

    sample_mean: np.ndarray
    M: int
    regularized: np.ndarray


@dataclass(frozen=True)
class BlockDegrees:
    """Per-block degree estimates over a contiguous interval partition.

    blocks holds (i0, i1) pairs, 1-based inclusive, in row order of the
    matrix the estimate was taken from.
    """

    values: np.ndarray
    blocks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BarycentreResult:
    """Pipeline output in block form.

    mu_blocks and lap_blocks are the M x M matrices of mu_hat and of
    laplacian_hat - I over the leaf blocks, and leaf[i] is the 0-based leaf of
    input node i. permutation is the alignment that was used internally (node
    i was moved to row permutation[i]); degrees.blocks refers to that aligned
    order.

    mu_hat and laplacian_hat are the n x n matrices in the input node order,
    built on first read by gathering the leaf rows (an n x M array) and then
    the leaf columns, and kept: every read returns the same array, so an
    in-place edit is seen by later reads.
    """

    mu_blocks: np.ndarray
    lap_blocks: np.ndarray
    leaf: np.ndarray
    spectrum: MeanSpectrum
    degrees: BlockDegrees
    permutation: np.ndarray

    @cached_property
    def mu_hat(self) -> np.ndarray:
        return graph_core.BlockMatrix(self.mu_blocks, self.leaf)[:]

    @cached_property
    def laplacian_hat(self) -> np.ndarray:
        lap = graph_core.BlockMatrix(self.lap_blocks, self.leaf)[:]
        lap[np.diag_indices(len(self.leaf))] += 1.0
        return lap


def sample_mean_adjacency(graphs: list[np.ndarray]) -> np.ndarray:
    """Entrywise mean of the adjacency matrices."""
    if not graphs:
        raise ValueError("no graphs given")
    first = np.asarray(graphs[0], dtype=float)
    if first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise ValueError(f"adjacency matrices must be square, got shape {first.shape}")
    acc = first.copy()
    for g in graphs[1:]:
        g = np.asarray(g, dtype=float)
        if g.shape != first.shape:
            raise ValueError(f"graph sizes differ: {g.shape} vs {first.shape}")
        acc += g
    acc /= len(graphs)
    return acc


def _sample_mean_entries(entries: list[graph_core.Entries]) -> graph_core.Entries:
    """The entries of the entrywise mean of T >= 1 same-size matrices, given
    by their entries, without an n x n array.

    The entries of all T matrices are merged by one stable sort of their
    flat positions, so each position's values stay in matrix order; one
    np.bincount adds them in that order from 0.0, and the sums are divided
    by T. These are the additions sample_mean_adjacency makes, so the mean
    has its bits (up to the sign of zeros). A pairwise sum (np.add.reduceat)
    or an unstable sort would add in another order. One matrix is its own
    mean (x / 1 == x) and is returned as it is.
    """
    if len(entries) == 1:
        return entries[0]
    n = entries[0].n
    flat = np.concatenate([e.rows * n + e.cols for e in entries])
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    values = np.concatenate([e.values for e in entries])[order]
    del order
    first = np.diff(flat, prepend=-1) != 0
    sums = np.bincount(np.cumsum(first) - 1, weights=values) / len(entries)
    flat = flat[first]
    kept = sums != 0
    return graph_core.entries_at(n, flat[kept], sums[kept])


def sample_mean_eigenvalues(spectra: list[np.ndarray]) -> np.ndarray:
    """Componentwise mean of ascending spectra; ascending again by construction."""
    if not spectra:
        raise ValueError("no spectra given")
    arr = np.asarray(spectra, dtype=float)
    if arr.ndim != 2:
        raise ValueError("spectra have different lengths")
    return arr.mean(axis=0)


def regularize_eigenvalues(mean: np.ndarray, M: int, n: int | None = None) -> MeanSpectrum:
    """Keep the M smallest mean eigenvalues, replace the bulk with 1.

    mean is the ascending head of a mean spectrum of n eigenvalues (n
    defaults to the head's length); it needs at least M entries. Logs a
    warning (and proceeds) when the kept part exceeds 1, which makes the
    regularized spectrum non-ascending; reconstruction becomes unstable in
    that regime.
    """
    mean = np.asarray(mean, dtype=float)
    n = len(mean) if n is None else n
    if len(mean) > n:
        raise ValueError(f"spectrum head of {len(mean)} values is longer than n={n}")
    if not 1 <= M <= len(mean):
        raise ValueError(f"M={M} outside 1..{len(mean)}")
    if np.any(np.diff(mean) < -REGULARIZE_TOL):
        raise ValueError("mean spectrum is not ascending")
    regularized = np.ones(n)
    regularized[:M] = mean[:M]
    if mean[M - 1] > 1.0 + REGULARIZE_TOL:
        log.warning(
            "regularized spectrum is non-ascending (eigenvalue %d of the mean is %.6f > 1)",
            M, mean[M - 1],
        )
    return MeanSpectrum(sample_mean=mean.copy(), M=M, regularized=regularized)


def truncated_laplacian(spectrum: MeanSpectrum, basis: soules.SoulesBasis) -> np.ndarray:
    """The M x M matrix B over the depth-M leaves with L_hat = I + Z B Z^T,
    where Z is the n x M leaf indicator and L_hat is I minus the rank-M
    correction sum_{k<=M} (1 - lambda_k) psi_k psi_k^T.

    The first M basis vectors are constant on each depth-M leaf, so one row
    per leaf holds all of them. Only those columns are read, so the basis
    needs K >= M; the bulk contributes nothing because its regularized
    eigenvalues are exactly 1.
    """
    if basis.K < spectrum.M:
        raise ValueError(f"basis has {basis.K} columns, fewer than M={spectrum.M}")
    lam = spectrum.regularized
    if lam.shape != (basis.n,):
        raise ValueError(f"spectrum length {lam.shape} does not match n={basis.n}")
    W = basis.vectors[[a - 1 for a, _ in basis.tree.leaves(depth=spectrum.M)], : spectrum.M]
    return -(W * (1.0 - lam[: spectrum.M])) @ W.T


def _check_partition(blocks, n: int) -> tuple[tuple[int, int], ...]:
    blocks = tuple((int(a), int(b)) for a, b in blocks)
    expected_start = 1
    for a, b in blocks:
        if a != expected_start or b < a:
            raise ValueError(f"blocks are not a contiguous ordered partition of 1..{n}")
        expected_start = b + 1
    if expected_start != n + 1:
        raise ValueError(f"blocks do not cover 1..{n}")
    return blocks


def estimate_block_degrees(mean_adj: np.ndarray, blocks) -> BlockDegrees:
    """Within-block degree estimate: the sum of mean adjacency entries over
    B_m x B_m divided by |B_m|.

    Ignores cross-block mass, so it estimates the within-block expected
    degree; see average_node_degrees for the full-degree variant the
    reconstruction uses.
    """
    mean_adj = np.asarray(mean_adj, dtype=float)
    blocks = _check_partition(blocks, mean_adj.shape[0])
    values = np.array([mean_adj[a - 1 : b, a - 1 : b].sum() / (b - a + 1) for a, b in blocks])
    return BlockDegrees(values=values, blocks=blocks)


def average_node_degrees(node_degrees: np.ndarray, blocks) -> BlockDegrees:
    """Average full degree of the nodes in each block, given the degree (the
    whole row sum of the mean adjacency) of each node in block order."""
    node_degrees = np.asarray(node_degrees, dtype=float)
    blocks = _check_partition(blocks, len(node_degrees))
    values = np.array([node_degrees[a - 1 : b].sum() / (b - a + 1) for a, b in blocks])
    return BlockDegrees(values=values, blocks=blocks)


def reconstruct_barycentre(lap_blocks: np.ndarray, degrees: BlockDegrees) -> np.ndarray:
    """Degree-rescaled adjacency Dhat^{1/2} (I - L_hat) Dhat^{1/2} on the
    leaf blocks: -sqrt(d_j d_k) B_jk for the block matrix B of
    truncated_laplacian and the block degrees d."""
    lap_blocks = np.asarray(lap_blocks, dtype=float)
    m = len(degrees.blocks)
    if lap_blocks.shape != (m, m):
        raise ValueError(f"block matrix of shape {lap_blocks.shape} does not match {m} degree blocks")
    if np.any(degrees.values < 0):
        raise ValueError("block degrees must be nonnegative")
    return -np.sqrt(np.outer(degrees.values, degrees.values)) * lap_blocks


def mse(a: np.ndarray | graph_core.BlockMatrix, b: np.ndarray | graph_core.BlockMatrix) -> float:
    """Mean squared entrywise difference, 1/n^2 sum |a_ij - b_ij|^2.

    The sum of squares is exact and rounded once, so the value has the bits
    of math.fsum over the squares and is exactly invariant under simultaneous
    permutation of both arguments. Either argument may be a
    graph_core.BlockMatrix; the value has the bits that np.asarray of it
    gives, and it is never held as an n x n array.

    Dense inputs are read in row strips, with a block form's strips built as
    they are read; no full-size difference array is made. When both are
    block forms, nodes are grouped into joint cells (label of a, label of
    b): a - b is constant on each pair of cells, so each cell pair's square
    (the float a strip would hold) is counted once, weighted by the product
    of the two cell sizes, over strips of row cells. Block forms of more
    than 2^26 nodes raise ValueError.

    Each square is sig * 2^(e - 1075) for the integer significand sig and
    exponent field e of its bit pattern (e = 1 for subnormals). Per strip,
    np.bincount adds the (weighted) significands per exponent in pieces
    narrow enough that every float64 partial sum is an exact integer below
    2^53; the bins are joined in one Python integer. As with fsum, the
    result is nan if any square is nan, else inf if any is inf, and an
    exact sum past the float range raises OverflowError.
    """
    a, b = (x if isinstance(x, graph_core.BlockMatrix) else np.atleast_1d(np.asarray(x, dtype=float))
            for x in (a, b))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    size = math.prod(a.shape)
    counts = None
    if isinstance(a, graph_core.BlockMatrix) and isinstance(b, graph_core.BlockMatrix):
        ka, kb = len(a.values), len(b.values)
        counts = np.bincount(np.ravel_multi_index((a.labels, b.labels), (ka, kb)), minlength=ka * kb)
        cells = np.flatnonzero(counts)
        counts = counts[cells].astype(float)
        # the matrices over cells: cell (ka_i, kb_i) holds label ka_i of a and kb_i of b
        a, b = (graph_core.BlockMatrix(x.values, labels) for x, labels in zip((a, b), np.divmod(cells, kb)))
    row_size = math.prod(b.shape[1:])
    rows = max(1, _MSE_STRIP // max(1, row_size))
    # a strip adds significand pieces of k bits with total weight at most
    # n^2 in block form (the cell sizes multiply), or its size otherwise
    weight = rows * row_size if counts is None else size
    k = 53 - (weight - 1).bit_length()
    if k < 1:
        raise ValueError(f"{size} entries are too many to sum exactly")
    total = 0  # the exact sum of squares in units of 2^-1075
    special = 0.0  # the sum of the nan and inf squares
    for i in range(0, b.shape[0], rows):
        sq = (a[i : i + rows] - b[i : i + rows]).reshape(-1)
        np.multiply(sq, sq, out=sq)
        bits = sq.view(np.uint64)
        exp = (bits >> np.uint64(52)).astype(np.intp)
        if exp.max() >= 2047:
            special += float(sq[exp >= 2047].sum())
        if special:
            continue
        sig = (bits & np.uint64(2**52 - 1)) | ((exp > 0).astype(np.uint64) << np.uint64(52))
        np.maximum(exp, 1, out=exp)
        w = None if counts is None else np.multiply.outer(counts[i : i + rows], counts).reshape(-1)
        for shift in range(0, 53, k):
            piece = (sig >> np.uint64(shift)) & np.uint64((1 << k) - 1)
            bins = np.bincount(exp, weights=piece if w is None else piece * w, minlength=2047)
            for e in np.flatnonzero(bins):
                total += int(bins[e]) << int(e + shift)
    # int / int rounds correctly and raises OverflowError past the float range
    return (special if special else total / (1 << 1075)) / size


def compute_barycentre(graphs: list[np.ndarray | graph_core.Entries], M: int | None = None,
                        seed: int = 0) -> BarycentreResult:
    """Run the whole pipeline on a list of same-size adjacency matrices.

    Args:
      graphs: adjacency matrices sharing one node set and order, each a
        dense array or its graph_core.Entries (as adjacency_entries or
        graph_core.edge_entries give them), read by
        graph_core.adjacency_entries: a dense array is checked, and Entries
        are the checked form and are not scanned again. The two forms of
        one matrix give the same bits.
      M: community count; estimated from the mean spectrum when None.
      seed: seed for the clustering restarts.

    Returns:
      BarycentreResult in block form; its mu_hat is in the input node order.

    Raises ValueError for no graphs, a graph that fails
    graph_core.adjacency_entries, graphs of different sizes (before any
    eigensolve) or M outside 1..n. The graphs are read as their nonzero
    entries, so -0.0 counts as 0.0: an input holding -0.0 gives the bits
    the same input with 0.0 gives. M = 1 gives one leaf, and mu_hat the sum
    of the mean adjacency over n^2, to within rounding. Weighted input is
    read as it is: scaling every graph by c > 0 scales mu_blocks and
    degrees.values by c and leaves lap_blocks, leaf, permutation and the
    spectrum as they are, bit for bit when c is a power of four. Graphs
    with no edges give mu_blocks that compare equal to 0 everywhere, and
    leaves that carry no information: every cut scores 0, so each split
    cuts the first node off the first leaf that has two, as in (1, 1),
    (2, 60). Nodes with no edge in any graph are counted in a WARNING; each
    takes a leaf that no edge chose, with degree 0 in that leaf's block degree.
    """
    if not graphs:
        raise ValueError("no graphs given")
    with eigen.one_blas_thread() as workers:
        return _barycentre(graphs, M, seed, workers)


def _barycentre(graphs: list[np.ndarray | graph_core.Entries], M: int | None, seed: int,
                workers: int) -> BarycentreResult:
    # compute_barycentre's body, under its BLAS pin, which allows a pool of
    # that many workers. The per-graph stage (the checks, then the spectra)
    # runs on the pool when the first graph has _POOL_MIN_N nodes or more.
    # Under the pin on 2 CPUs, it took 86-97 ms on two threads against
    # 144-150 ms in series on the 8 ensemble graphs (n = 2048, M = 4),
    # 16-20 against 18-21 ms on 4 graphs of n = 768, and 11-12 against
    # 10 ms on 3 graphs of n = 512; with the mean's merge beside the
    # ensemble heads, heads and merge took 61-66 ms against 89-98 ms one
    # after the other. With M estimated, the whole call took 0.30-0.35 s
    # on the pool against 0.44-0.45 s in series on 3 graphs of n = 1024;
    # each thread then holds the n x n arrays of its dense solve.
    first = graphs[0]
    if (first.n if isinstance(first, graph_core.Entries) else (np.shape(first) or (0,))[0]) < _POOL_MIN_N:
        workers = 1
    # the one check of each graph; everything after, degrees included, is
    # built from these Entries, which no later function scans again
    entries = eigen.pinned_map(graph_core.adjacency_entries, graphs, workers)
    n = entries[0].n
    for e in entries:
        if e.n != n:
            raise ValueError(f"graph sizes differ: ({e.n}, {e.n}) vs ({n}, {n})")
    if M is not None and not 1 <= M <= n:
        raise ValueError(f"M={M} outside 1..{n}")
    # the merge of the mean reads only the entries, so it runs beside the
    # spectra, first (the longest task for a given M); M=None reads all n
    tasks = [lambda: _sample_mean_entries(entries)]
    if M is None or len(entries) > 1:
        k = n if M is None else M
        tasks += [lambda e=e: eigen.laplacian_eigenvalues(e, k) for e in entries]
    mean, *heads = eigen.pinned_map(lambda task: task(), tasks, workers)
    del entries, tasks
    mean_vals = sample_mean_eigenvalues(heads) if heads else None
    if M is None:
        M = alignment.estimate_M(mean_vals)
        log.info("estimated M=%d from the mean spectrum", M)
    mean_deg = mean.degrees
    if isolated := int(np.count_nonzero(mean_deg == 0)):
        log.warning("%d of %d nodes have no edge in any graph, so no edge chose their leaves", isolated, n)
    # alignment.spectral_embed of the normalized mean, read as its Entries
    top = eigen.top_eigenpairs(graph_core.normalized_entries(mean), M)
    if mean_vals is None:
        # one graph is its own mean, so the embedding's eigensolve gives its head
        mean_vals = sample_mean_eigenvalues([1.0 - top.values])
    assignment = alignment.cluster_nodes(top.vectors, M, seed, degrees=mean_deg)
    perm = alignment.canonical_permutation(assignment)

    # the aligned mean: node i moves to perm[i]
    basis = soules.best_soules_basis(mean, M, perm)
    del mean
    spectrum = regularize_eigenvalues(mean_vals, M, n)
    lap_blocks = truncated_laplacian(spectrum, basis)
    blocks = basis.tree.leaves(depth=M)
    aligned_deg = np.empty(n)
    aligned_deg[perm] = mean_deg
    block_deg = average_node_degrees(aligned_deg, blocks)

    # input node i sits at aligned row perm[i], inside the first leaf ending
    # at or after it
    return BarycentreResult(
        mu_blocks=reconstruct_barycentre(lap_blocks, block_deg),
        lap_blocks=lap_blocks,
        leaf=np.searchsorted([b for _, b in blocks], perm + 1),
        spectrum=spectrum,
        degrees=block_deg,
        permutation=perm,
    )


def write_result(result: BarycentreResult, out_dir: str | Path, extra_diagnostics: dict | None = None) -> None:
    """Export a result directory: mu_hat.csv, laplacian_hat.csv, spectrum.json,
    degrees.json, permutation.csv, diagnostics.json.

    The two CSVs hold the bytes np.savetxt(fmt="%.17g", delimiter=",") gives
    for mu_hat and laplacian_hat; they are written from the block form,
    without the n x n arrays.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _save_leaf_blocks(result.mu_blocks, result.leaf, out / "mu_hat.csv")
    _save_leaf_blocks(result.lap_blocks, result.leaf, out / "laplacian_hat.csv",
                      diagonal=np.diagonal(result.lap_blocks) + 1.0)
    spectrum = {
        "sample_mean": result.spectrum.sample_mean.tolist(),
        "M": int(result.spectrum.M),
        "regularized": result.spectrum.regularized.tolist(),
    }
    (out / "spectrum.json").write_text(json.dumps(spectrum))
    degrees = {
        "values": result.degrees.values.tolist(),
        "blocks": [[a, b] for a, b in result.degrees.blocks],
    }
    (out / "degrees.json").write_text(json.dumps(degrees, indent=1))
    graph_core.save_permutation(result.permutation, out / "permutation.csv")
    diagnostics = {
        "n": len(result.permutation),
        "M": int(result.spectrum.M),
        "leaf_blocks": [[a, b] for a, b in result.degrees.blocks],
        "regularization_warning": bool(
            result.spectrum.sample_mean[result.spectrum.M - 1] > 1.0 + REGULARIZE_TOL
        ),
    }
    if extra_diagnostics:
        diagnostics.update(extra_diagnostics)
    (out / "diagnostics.json").write_text(json.dumps(diagnostics, indent=1))


def _save_leaf_blocks(blocks: np.ndarray, leaf: np.ndarray, path: Path,
                      diagonal: np.ndarray | None = None) -> None:
    # Writes blocks[np.ix_(leaf, leaf)], with diagonal[leaf[i]] in place of
    # entry (i, i) when given, in the bytes of np.savetxt(fmt="%.17g",
    # delimiter=","). Each block value is formatted once and each leaf's row
    # joined once; nodes of one leaf share that row, and a diagonal entry is
    # spliced in at its column's character offset.
    cells = [["%.17g" % v for v in row] for row in blocks.tolist()]
    leaf_list = leaf.tolist()
    rows = [",".join([c[k] for k in leaf_list]) + "\n" for c in cells]
    with open(path, "w") as fh:
        if diagonal is None:
            fh.writelines(rows[k] for k in leaf_list)
            return
        diag = ["%.17g" % v for v in diagonal.tolist()]
        widths = np.array([[len(x) for x in c] for c in cells])
        # ends[k, i]: the offset just past column i's comma in leaf k's row
        ends = np.cumsum(widths[:, leaf] + 1, axis=1)
        for i, k in enumerate(leaf_list):
            end = int(ends[k, i]) - 1
            start = end - int(widths[k, k])
            fh.write(rows[k][:start] + diag[k] + rows[k][end:])
