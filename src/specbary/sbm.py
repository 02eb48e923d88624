"""Stochastic block models with contiguous blocks: population quantities,
limit spectra, and seeded sampling.

A model is M contiguous node blocks B_1..B_M, within-block edge probability
p_m for block m, and a single cross-block probability q with q <= p_m.
"""

import json
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import graph_core

# uniforms per row strip of sample (1 MB of float64)
_SAMPLE_STRIP = 1 << 17


def _numbers(values, kind, cast) -> tuple:
    # 6.7 is not read as 6, nor "0.5" as 0.5; bool is an int subclass, but
    # True is no block size or probability
    values = tuple(values) if isinstance(values, Iterable) else None
    if values is None or not all(isinstance(v, kind) and not isinstance(v, bool) for v in values):
        raise ValueError("need block_sizes integers, and p and q real numbers")
    return tuple(cast(v) for v in values)


@dataclass(frozen=True)
class SbmSpec:
    """Block sizes, within-block probabilities, and the cross probability."""

    block_sizes: tuple[int, ...]
    p: tuple[float, ...]
    q: float

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", _numbers(self.block_sizes, numbers.Integral, int))
        object.__setattr__(self, "p", _numbers(self.p, numbers.Real, float))
        object.__setattr__(self, "q", _numbers((self.q,), numbers.Real, float)[0])
        if not self.block_sizes:
            raise ValueError("spec needs at least one block")
        if any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive")
        if len(self.p) != len(self.block_sizes):
            raise ValueError("one within-block probability per block is required")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q={self.q} outside [0, 1]")
        for m, pm in enumerate(self.p):
            if not self.q <= pm <= 1.0:
                raise ValueError(f"p[{m}]={pm} violates q <= p_m <= 1")

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    @property
    def M(self) -> int:
        return len(self.block_sizes)

    @property
    def is_balanced(self) -> bool:
        return len(set(self.block_sizes)) == 1 and len(set(self.p)) == 1

    def block_slices(self) -> list[slice]:
        """Row ranges of the blocks, in block order."""
        edges = np.concatenate([[0], np.cumsum(self.block_sizes)])
        return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def balanced(n: int, M: int, p: float, q: float) -> SbmSpec:
    """Balanced model: M equal blocks, one within probability."""
    if n % M != 0:
        raise ValueError(f"n={n} is not divisible by M={M}")
    return SbmSpec(block_sizes=(n // M,) * M, p=(p,) * M, q=q)


def save_spec(spec: SbmSpec, path: str | Path) -> None:
    payload = {"n": spec.n, "block_sizes": list(spec.block_sizes), "p": list(spec.p), "q": spec.q}
    Path(path).write_text(json.dumps(payload, indent=1))


def spec_from_payload(payload, source) -> SbmSpec:
    """The SbmSpec of a decoded JSON object with keys block_sizes, p and q, and
    n, if given, an integer equal to the sum of the block sizes. Anything
    else, or a spec SbmSpec refuses, raises a ValueError naming source."""
    n = payload.get("n", 0) if isinstance(payload, dict) else None
    if not (isinstance(payload, dict) and {"block_sizes", "p", "q"} <= payload.keys()
            and isinstance(n, int) and not isinstance(n, bool)):
        raise ValueError(f"spec in {source}: need an object with block_sizes, p, q and "
                         "n, if given, an integer")
    try:
        spec = SbmSpec(block_sizes=payload["block_sizes"], p=payload["p"], q=payload["q"])
    except ValueError as exc:
        raise ValueError(f"spec in {source}: {exc}") from None
    if payload.get("n", spec.n) != spec.n:
        raise ValueError(f"spec in {source}: n={payload['n']} does not match block sizes")
    return spec


def load_spec(path: str | Path) -> SbmSpec:
    return spec_from_payload(json.loads(Path(path).read_text()), path)


def population_blocks(spec: SbmSpec) -> graph_core.BlockMatrix:
    """The population mean P in block form: the block label of each node and
    the M x M edge probabilities between blocks, p_m on the diagonal and q
    elsewhere, so that P_ij = values[labels[i], labels[j]]."""
    labels = np.repeat(np.arange(spec.M), spec.block_sizes)
    block_p = np.full((spec.M, spec.M), spec.q)
    np.fill_diagonal(block_p, spec.p)
    return graph_core.BlockMatrix(block_p, labels)


def population_mean(spec: SbmSpec) -> np.ndarray:
    """Entrywise expectation P: p_m on B_m x B_m (diagonal included), q elsewhere."""
    return population_blocks(spec)[:]


def expected_degrees(spec: SbmSpec) -> np.ndarray:
    """Expected degree per node: |B_m| p_m + (n - |B_m|) q, constant on blocks."""
    n = spec.n
    out = np.empty(n)
    for s, pm, blk in zip(spec.block_sizes, spec.p, spec.block_slices()):
        out[blk] = s * pm + (n - s) * spec.q
    return out


def expected_laplacian(spec: SbmSpec) -> np.ndarray:
    """Normalized Laplacian of the population mean.

    Computed as I - Dbar^{-1/2} P Dbar^{-1/2} with Dbar the expected degrees,
    so within-block off-diagonals are -p_m/dbar_m, cross entries are
    -q/sqrt(dbar_m dbar_m'), and the diagonal is 1 - p_m/dbar_m. For a
    balanced spec its eigenvalues equal limit_eigenvalues exactly.
    """
    d = expected_degrees(spec)
    if np.any(d <= 0):
        raise ValueError("expected degree is zero; normalized Laplacian undefined")
    P = population_mean(spec)
    lap = -P / np.sqrt(np.outer(d, d))
    lap[np.diag_indices_from(lap)] += 1.0
    return lap


def limit_eigenvalues(spec: SbmSpec) -> np.ndarray:
    """Large-n limit spectrum of a balanced model, ascending.

    One zero, M-1 copies of Mq/(p + (M-1)q), and n-M ones.
    """
    if not spec.is_balanced:
        raise ValueError("limit eigenvalues require a balanced spec")
    n, M = spec.n, spec.M
    p = spec.p[0]
    out = np.ones(n)
    out[0] = 0.0
    if M > 1:
        denom = p + (M - 1) * spec.q
        if denom == 0.0:
            raise ValueError("limit eigenvalues undefined for p = q = 0")
        out[1:M] = M * spec.q / denom
    return out


def sample_edges(spec: SbmSpec, seed) -> tuple[np.ndarray, np.ndarray]:
    """The edges of one sample, as the rows and columns (i < j) of its upper
    triangle in row-major order.

    Node pair (i, j) is an edge when the (i, j) uniform of one row-major
    n x n draw lies below P_ij. The draw is taken in row strips into one
    reused buffer, which consumes the stream in the same order. The rows of
    each block in a strip are compared with that block's row of P, gathered
    once per block, and the hits on or below the diagonal are dropped, so
    no n x n array is made.
    """
    n = spec.n
    P = population_blocks(spec)
    rng = graph_core.philox(seed)
    rows = max(1, _SAMPLE_STRIP // n)
    draw = np.empty((rows, n))
    hit = np.empty((rows, n), dtype=bool)
    ends = np.cumsum(spec.block_sizes)
    m, p_row = 0, P.values[0].take(P.labels)
    edge_rows, edge_cols = [], []
    for i in range(0, n, rows):
        stop = min(i + rows, n)
        rng.random(out=draw[: stop - i])
        s = i
        while s < stop:
            if s == ends[m]:
                m += 1
                p_row = P.values[m].take(P.labels)
            e = min(ends[m], stop)
            np.less(draw[s - i : e - i], p_row, out=hit[s - i : e - i])
            s = e
        r, c = np.divmod(np.flatnonzero(hit[: stop - i]), n)
        r += i
        upper = c > r
        edge_rows.append(r[upper])
        edge_cols.append(c[upper])
    return np.concatenate(edge_rows), np.concatenate(edge_cols)


def sample(spec: SbmSpec, seed) -> np.ndarray:
    """One adjacency matrix: upper-triangle Bernoulli draws from P, symmetrized,
    zero diagonal; the dense form of the edge_entries of sample_edges."""
    return graph_core.edge_entries(spec.n, *sample_edges(spec, seed)).dense()
