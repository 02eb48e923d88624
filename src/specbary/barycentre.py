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
  1. sample mean adjacency and mean Laplacian spectrum (its head of M values
     when M is given; a single graph's head comes from the eigensolve of the
     embedding in stage 2),
  2. alignment: spectral embedding, k-means, canonical block ordering,
  3. greedy Soules basis on the aligned mean adjacency, first M columns,
  4. eigenvalue regularization (bulk entries pinned to 1),
  5. truncated Laplacian and degree-rescaled adjacency as M x M matrices
     over the depth-M leaf blocks,
  6. the leaf of each input node; the result keeps the block matrices, and
     expands each to n x n in the input node order, by a gather of the leaf
     rows and then of the leaf columns, only when a caller first reads it.
"""

import json
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import alignment, eigen, graph_core, soules

log = logging.getLogger(__name__)

REGULARIZE_TOL = 1e-9

# elements per strip of mse (512 KB of float64 per strip array)
_MSE_STRIP = 1 << 16


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
        return self.mu_blocks.take(self.leaf, 0).take(self.leaf, 1)

    @cached_property
    def laplacian_hat(self) -> np.ndarray:
        lap = self.lap_blocks.take(self.leaf, 0).take(self.leaf, 1)
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


def average_node_degrees(mean_adj: np.ndarray, blocks) -> BlockDegrees:
    """Average full degree (whole row sum) of the nodes in each block."""
    mean_adj = np.asarray(mean_adj, dtype=float)
    blocks = _check_partition(blocks, mean_adj.shape[0])
    values = np.array([mean_adj[a - 1 : b, :].sum() / (b - a + 1) for a, b in blocks])
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


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared entrywise difference, 1/n^2 sum |a_ij - b_ij|^2.

    The sum of squares is exact and rounded once, so the value has the bits
    of math.fsum over the squares and is exactly invariant under simultaneous
    permutation of both arguments. The inputs are read in strips; no
    full-size difference array is made.

    Each square is sig * 2^(e - 1075) for the integer significand sig and
    exponent field e of its bit pattern (e = 1 for subnormals). Per strip,
    np.bincount adds the significands per exponent in two halves of at most
    27 bits, so every float64 partial sum is an exact integer; the bins are
    joined in one Python integer. As with fsum, the result is nan if any
    square is nan, else inf if any is inf, and an exact sum past the float
    range raises OverflowError.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    rows = max(1, _MSE_STRIP // max(1, a[0].size)) if len(a) else 1
    total = 0  # the exact sum of squares in units of 2^-1075
    special = 0.0  # the sum of the nan and inf squares
    for i in range(0, len(a), rows):
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
        hi = np.bincount(exp, weights=sig >> np.uint64(26), minlength=2047)
        lo = np.bincount(exp, weights=sig & np.uint64(2**26 - 1), minlength=2047)
        for e in np.flatnonzero(hi + lo):
            total += ((int(hi[e]) << 26) + int(lo[e])) << int(e)
    # int / int rounds correctly and raises OverflowError past the float range
    return (special if special else total / (1 << 1075)) / a.size


def compute_barycentre(graphs: list[np.ndarray], M: int | None = None, seed: int = 0) -> BarycentreResult:
    """Run the whole pipeline on a list of same-size adjacency matrices.

    Args:
      graphs: adjacency matrices sharing one node set and order.
      M: community count; estimated from the mean spectrum when None.
      seed: seed for the clustering restarts.

    Returns:
      BarycentreResult in block form; its mu_hat is in the input node order.
    """
    # Each input graph is validated here, once. Every later matrix is derived
    # from checked graphs, so the eigen and soules bodies below run unchecked.
    graphs = [graph_core.check_adjacency(g) for g in graphs]
    # the mean of one graph is that graph, bit for bit (x / 1 == x)
    mean_adj = graphs[0] if len(graphs) == 1 else sample_mean_adjacency(graphs)
    n = mean_adj.shape[0]
    mean_vals = None
    if M is None:
        spectra = [np.linalg.eigvalsh(graph_core.normalized_laplacian(g)) for g in graphs]
        mean_vals = sample_mean_eigenvalues(spectra)
        M = alignment.estimate_M(mean_vals)
        log.info("estimated M=%d from the mean spectrum", M)
    elif not 1 <= M <= n:
        raise ValueError(f"M={M} outside 1..{n}")
    elif len(graphs) > 1:
        # the smallest normalized-Laplacian eigenvalues are one minus the
        # largest of the normalized adjacency
        mean_vals = sample_mean_eigenvalues(
            [1.0 - eigen._top_eigenvalues(g, M, graph_core.degrees(g)) for g in graphs])

    # alignment.spectral_embed of the normalized mean, without re-checking it
    mean_deg = graph_core.degrees(mean_adj)
    top = eigen._top_eigenpairs(mean_adj, M, mean_deg)
    if mean_vals is None:
        # one graph is its own mean, so the embedding's eigensolve gives its head
        mean_vals = sample_mean_eigenvalues([1.0 - top.values])
    assignment = alignment.cluster_nodes(top.vectors, M, seed, degrees=mean_deg)
    perm = alignment.canonical_permutation(assignment)
    # each n x n intermediate is dropped once it is dead
    mean_perm = graph_core.permute(mean_adj, perm)
    del mean_adj

    basis = soules._best_soules_basis(mean_perm, depth=M)
    spectrum = regularize_eigenvalues(mean_vals, M, n)
    lap_blocks = truncated_laplacian(spectrum, basis)
    blocks = basis.tree.leaves(depth=M)
    block_deg = average_node_degrees(mean_perm, blocks)
    del mean_perm

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
