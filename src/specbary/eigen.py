"""Symmetric eigendecomposition with a deterministic sign convention.

Wraps LAPACK (via numpy) rather than reimplementing dense solvers; the added
value is the fixed eigenvector orientation, which makes every downstream
result reproducible bit for bit for identical inputs.

top_eigenvalues and top_eigenpairs return only the largest few eigenpairs.
On large connected inputs they run Lanczos (scipy's ARPACK) from a fixed
Philox start vector; everywhere else, and whenever Lanczos does not
converge, they fall back to the dense solvers.

Each public function checks its argument with graph_core's one symmetry
check. top_eigenvalues and top_eigenpairs hand the entries the check finds
(a graph_core.Entries) to their private bodies, which read a matrix only
as its Entries; compute_barycentre calls those bodies directly with
graph_core.normalized_entries of the input graphs it has checked and of
their mean. Lanczos reads the entries' CSR arrays; only the dense solver
builds an n x n matrix, from the entries, which hold +0.0 where an input
held -0.0. For a full spectrum of a checked graph compute_barycentre and
the spectrum command call np.linalg.eigvalsh.
"""

from dataclasses import dataclass

import numpy as np

from . import graph_core

SIGN_EPS = 1e-12
# Lanczos beat the dense solvers from about n = 300 on a 2-CPU machine with
# OpenBLAS; it is used from 512 nodes on. Its cost grows with k when the
# wanted eigenvalues sit in the spectral bulk (many communities, sparse
# graphs). On balanced SBMs in the paper's scaling, n = 1024..2560, Lanczos
# for the k = M largest eigenvalues of the normalized adjacency (the M
# community outliers, as compute_barycentre asks for) took 0.14-0.56 of the
# time of a full eigvalsh for k / n up to 1/32, 0.59-0.66 at 0.04-0.05 and
# 1.0-1.3 at 1/16; so it is used only while k <= n / 32.
_PARTIAL_MIN_N = 512
_PARTIAL_MAX_SHARE = 32
_LANCZOS_KEY = (0x5EC7, 1)  # Philox key of the Lanczos start vector


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues and matching eigenvector columns: ascending from sym_eig,
    largest first from top_eigenpairs."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Orient each column so its first component above noise level is positive.
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.flatnonzero(np.abs(col) > SIGN_EPS)
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


def sym_eig(s: np.ndarray) -> SpectralSummary:
    """Full eigendecomposition of a symmetric matrix.

    Values ascend; each eigenvector column is oriented so that its first
    nonzero component is positive. Raises ValueError when the input fails
    graph_core.check_symmetric.
    """
    values, vectors = np.linalg.eigh(graph_core.check_symmetric(s))
    return SpectralSummary(values=values, vectors=_fix_signs(vectors))


def sym_eig_values(s: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues only; cheaper when vectors are not needed."""
    return np.linalg.eigvalsh(graph_core.check_symmetric(s))


def _lanczos_top(e: graph_core.Entries, k: int):
    """The k largest eigenpairs by Lanczos, largest first, or None when the
    dense path must be used instead.

    They are the eigenpairs of the matrix with entries e, read as its CSR
    arrays (e.values, e.cols, e.indptr).

    Lanczos runs only when n >= 512, k <= n / 32 and the nonzero pattern is
    connected. A disconnected pattern (isolated nodes included) gives the
    top eigenvalue of a normalized adjacency one copy per component, which
    one Krylov sequence may miss. The stored pattern is read as a directed
    graph, whose strong components are those of the undirected graph when
    the pattern is symmetric, and never fewer; so scipy makes no transpose,
    and a pattern that is asymmetric within the check's tolerance can only
    take the dense path.
    """
    n = e.n
    if n < _PARTIAL_MIN_N or _PARTIAL_MAX_SHARE * k > n:
        return None
    # imported here so that small inputs never pay for loading scipy
    from scipy import sparse
    from scipy.sparse import csgraph
    from scipy.sparse import linalg as splinalg

    a = sparse.csr_matrix((e.values, e.cols, e.indptr), shape=(n, n))
    if csgraph.connected_components(a, directed=True, connection="strong", return_labels=False) > 1:
        return None
    # one fixed stream for the start vector and for any restart vector ARPACK
    # asks for on breakdown, so equal inputs give equal bits
    rng = graph_core.philox(_LANCZOS_KEY)
    try:
        values, vectors = splinalg.eigsh(a, k=k, which="LA", tol=0,
                                         v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    except splinalg.ArpackNoConvergence:
        return None
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


def _check_k(s: np.ndarray, k: int) -> graph_core.Entries:
    e = graph_core._check_symmetric(s)[1]
    if not 1 <= k <= e.n:
        raise ValueError(f"k={k} outside 1..{e.n}")
    return e


def top_eigenvalues(s: np.ndarray, k: int) -> np.ndarray:
    """The k largest eigenvalues of a symmetric matrix, largest first.

    The Lanczos and dense paths agree to about 1e-14 on normalized
    adjacencies.
    """
    return _top_eigenvalues(_check_k(s, k), k)


def _top_eigenvalues(e: graph_core.Entries, k: int) -> np.ndarray:
    # of the matrix with entries e
    top = _lanczos_top(e, k)
    if top is None:
        return np.linalg.eigvalsh(e.dense())[::-1][:k].copy()
    return top[0]


def top_eigenpairs(s: np.ndarray, k: int) -> SpectralSummary:
    """The k largest eigenpairs of a symmetric matrix, largest first, with
    the sign convention of sym_eig.

    Within an eigenvalue of multiplicity above one the columns may differ
    between the Lanczos and dense paths; the subspace they span does not.
    """
    return _top_eigenpairs(_check_k(s, k), k)


def _top_eigenpairs(e: graph_core.Entries, k: int) -> SpectralSummary:
    # of the matrix with entries e
    top = _lanczos_top(e, k)
    if top is None:
        values, vectors = np.linalg.eigh(e.dense())
        return SpectralSummary(values=values[::-1][:k].copy(),
                               vectors=_fix_signs(vectors[:, ::-1][:, :k]))
    values, vectors = top
    return SpectralSummary(values=values, vectors=_fix_signs(vectors))
