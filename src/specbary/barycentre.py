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
  1. sample mean adjacency and mean Laplacian spectrum (its head of M + 1
     values when M is given),
  2. alignment: spectral embedding, k-means, canonical block ordering,
  3. greedy Soules basis on the aligned mean adjacency, first M columns,
  4. eigenvalue regularization (bulk entries pinned to 1),
  5. truncated Laplacian and degree-rescaled adjacency reconstruction,
  6. un-permutation back to the input node order.
"""

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import alignment, eigen, graph_core, soules

log = logging.getLogger(__name__)

REGULARIZE_TOL = 1e-9


@dataclass(frozen=True)
class MeanSpectrum:
    """Sample mean eigenvalues, the community count, and the regularized
    spectrum (first M entries kept, the bulk replaced by 1).

    sample_mean holds the smallest eigenvalues that were computed: M + 1 of
    them (at most n) for a given M, all n when M was estimated; regularized
    always has n entries.
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
    """Pipeline output.

    mu_hat and laplacian_hat are in the input node order. permutation is the
    alignment that was used internally (node i was moved to row
    permutation[i]); degrees.blocks refers to that aligned order.
    """

    mu_hat: np.ndarray
    laplacian_hat: np.ndarray
    spectrum: MeanSpectrum
    degrees: BlockDegrees
    permutation: np.ndarray


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
    return acc / len(graphs)


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
    """I minus the rank-M correction sum_{k<=M} (1 - lambda_k) psi_k psi_k^T.

    Only the first M basis columns are read, so the basis needs K >= M; the
    bulk contributes nothing because its regularized eigenvalues are exactly 1.
    """
    if basis.K < spectrum.M:
        raise ValueError(f"basis has {basis.K} columns, fewer than M={spectrum.M}")
    lam = spectrum.regularized
    if lam.shape != (basis.n,):
        raise ValueError(f"spectrum length {lam.shape} does not match n={basis.n}")
    V = basis.vectors[:, : spectrum.M]
    lap = -(V * (1.0 - lam[: spectrum.M])) @ V.T
    lap[np.diag_indices_from(lap)] += 1.0
    return lap


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


def reconstruct_barycentre(lap: np.ndarray, degrees: BlockDegrees) -> np.ndarray:
    """Degree-rescaled adjacency: Dhat^{1/2} (I - lap) Dhat^{1/2}, with node
    degrees constant on each block."""
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    _check_partition(degrees.blocks, n)
    if np.any(degrees.values < 0):
        raise ValueError("block degrees must be nonnegative")
    node_deg = np.empty(n)
    for (a, b), d in zip(degrees.blocks, degrees.values):
        node_deg[a - 1 : b] = d
    eye_minus = -lap.copy()
    eye_minus[np.diag_indices_from(eye_minus)] += 1.0
    return np.sqrt(np.outer(node_deg, node_deg)) * eye_minus


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared entrywise difference, 1/n^2 sum |a_ij - b_ij|^2.

    Summed with math.fsum, which is correctly rounded whatever the entry
    order, so the value is exactly invariant under simultaneous permutation
    of both arguments.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = (a - b).ravel()
    return math.fsum(diff * diff) / diff.size


def compute_barycentre(graphs: list[np.ndarray], M: int | None = None, seed: int = 0) -> BarycentreResult:
    """Run the whole pipeline on a list of same-size adjacency matrices.

    Args:
      graphs: adjacency matrices sharing one node set and order.
      M: community count; estimated from the mean spectrum when None.
      seed: seed for the clustering restarts.

    Returns:
      BarycentreResult with mu_hat in the input node order.
    """
    graphs = [graph_core.check_adjacency(g) for g in graphs]
    mean_adj = sample_mean_adjacency(graphs)
    n = mean_adj.shape[0]
    if M is None:
        spectra = [eigen.sym_eig_values(graph_core.normalized_laplacian(g)) for g in graphs]
        mean_vals = sample_mean_eigenvalues(spectra)
        M = alignment.estimate_M(mean_vals)
        log.info("estimated M=%d from the mean spectrum", M)
    elif not 1 <= M <= n:
        raise ValueError(f"M={M} outside 1..{n}")
    else:
        # the smallest normalized-Laplacian eigenvalues are one minus the
        # largest of the normalized adjacency
        k = min(M + 1, n)
        mean_vals = sample_mean_eigenvalues(
            [1.0 - eigen.top_eigenvalues(graph_core.normalized_adjacency(g), k) for g in graphs])

    a_hat = graph_core.normalized_adjacency(mean_adj)
    embedding = alignment.spectral_embed(a_hat, M)
    assignment = alignment.cluster_nodes(embedding, M, seed, degrees=graph_core.degrees(mean_adj))
    perm = alignment.canonical_permutation(assignment)
    mean_perm = graph_core.permute(mean_adj, perm)

    basis = soules.best_soules_basis(mean_perm, depth=M)
    spectrum = regularize_eigenvalues(mean_vals, M, n)
    lap_hat = truncated_laplacian(spectrum, basis)
    blocks = basis.tree.leaves(depth=M)
    block_deg = average_node_degrees(mean_perm, blocks)
    mu_perm = reconstruct_barycentre(lap_hat, block_deg)

    inv = graph_core.invert_permutation(perm)
    return BarycentreResult(
        mu_hat=graph_core.permute(mu_perm, inv),
        laplacian_hat=graph_core.permute(lap_hat, inv),
        spectrum=spectrum,
        degrees=block_deg,
        permutation=perm,
    )


def write_result(result: BarycentreResult, out_dir: str | Path, extra_diagnostics: dict | None = None) -> None:
    """Export a result directory: mu_hat.csv, laplacian_hat.csv, spectrum.json,
    degrees.json, permutation.csv, diagnostics.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph_core.save_matrix(result.mu_hat, out / "mu_hat.csv")
    graph_core.save_matrix(result.laplacian_hat, out / "laplacian_hat.csv")
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
    with open(out / "permutation.csv", "w") as fh:
        fh.write("node_id,position\n")
        for i, p in enumerate(result.permutation):
            fh.write(f"{i},{int(p)}\n")
    diagnostics = {
        "n": int(result.mu_hat.shape[0]),
        "M": int(result.spectrum.M),
        "leaf_blocks": [[a, b] for a, b in result.degrees.blocks],
        "regularization_warning": bool(
            result.spectrum.sample_mean[result.spectrum.M - 1] > 1.0 + REGULARIZE_TOL
        ),
    }
    if extra_diagnostics:
        diagnostics.update(extra_diagnostics)
    (out / "diagnostics.json").write_text(json.dumps(diagnostics, indent=1))
