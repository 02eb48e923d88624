"""Symmetric eigendecomposition with a deterministic sign convention.

Wraps LAPACK (via numpy) rather than reimplementing dense solvers; the added
value is the fixed eigenvector orientation, which makes every downstream
result reproducible bit for bit for identical inputs.

top_eigenvalues and top_eigenpairs return only the largest few eigenpairs.
On large connected inputs they run Lanczos (scipy's ARPACK) from a fixed
Philox start vector; everywhere else, and whenever Lanczos does not
converge, they fall back to the dense solvers.

Each function reads its argument through graph_core.symmetric_entries, the
one symmetry check. top_eigenvalues and top_eigenpairs also take the
graph_core.Entries of a matrix, so Entries checked once, such as the
normalized_entries of a checked graph, are not scanned again. Lanczos reads
the entries' CSR arrays; the dense fallback builds its matrix from the
entries, which hold +0.0 where an input held -0.0. laplacian_eigenvalues
is the one path to a checked graph's normalized-Laplacian spectrum, a head
of k values or, with k = n, all of them.

Threads. one_blas_thread holds every loaded OpenBLAS at one thread through
the openblas_set_num_threads_local call that OpenBLAS exports from 0.3.27
on; the libraries are found by name in /proc/self/maps. In the pthreads
builds that the numpy and scipy wheels bundle, that call sets the count of
the whole process and returns the one before, so the pin is counted over
all threads: the first entry sets each library to one thread, later
entries only count (and cost nothing), and the last exit restores each
library's count. scipy's library loads with the first Lanczos solve, and a
pin held then is extended to it. pinned_map runs calls on up to two
threads for a caller that holds the pin, when the pin reaches every loaded
OpenBLAS and the process may use two CPUs; otherwise in the calling thread.
A LAPACK or BLAS result depends on the BLAS thread count in its last bits,
so while the pin holds the results are those of OPENBLAS_NUM_THREADS=1,
whatever the environment sets; Lanczos's results do not depend on it.
"""

import ctypes
import os
import sys
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
# the most threads pinned_map starts
_MAX_WORKERS = 2


class _Pin:
    """The process's BLAS pin, one per process as the OpenBLAS counts it
    sets are: its holders in all threads, the (setter, count before) of
    each library it set to one thread, by path, and whether those were every
    loaded OpenBLAS when it last looked."""

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.pinned: dict[bytes, tuple] = {}
        self.complete = False


_pin = _Pin()


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues and matching eigenvector columns: ascending from sym_eig,
    largest first from top_eigenpairs."""

    values: np.ndarray
    vectors: np.ndarray


def _openblas_libraries() -> set[bytes]:
    """The paths of the loaded shared libraries whose file name holds
    "openblas"; empty where /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps", "rb") as fh:
            maps = fh.read()
    except OSError:
        return set()
    # the path is the sixth field, and the rest of the line, so it may hold spaces
    fields = (line.split(maxsplit=5) for line in maps.splitlines() if b"openblas" in line)
    return {f[5] for f in fields if len(f) == 6 and b"openblas" in f[5].rpartition(b"/")[2]}


def _pin_loaded() -> None:
    # sets every loaded OpenBLAS not yet pinned to one thread; under _pin.lock
    paths = _openblas_libraries()
    for path in sorted(paths - _pin.pinned.keys()):
        try:
            setter = ctypes.CDLL(os.fsdecode(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        _pin.pinned[path] = (setter, setter(1))
    _pin.complete = bool(paths) and paths <= _pin.pinned.keys()


def _extend_pin() -> None:
    """Pins the OpenBLAS libraries loaded since the held pin looked."""
    with _pin.lock:
        if _pin.depth:
            _pin_loaded()


@contextmanager
def one_blas_thread():
    """Holds every loaded OpenBLAS at one thread while the block runs.

    Yields the number of threads pinned_map may use: one per CPU this
    process may run on (os.sched_getaffinity) up to _MAX_WORKERS, when the
    pin reaches every loaded OpenBLAS, else 1 (threads whose BLAS starts
    threads of its own contend for the CPUs). Nested and concurrent use
    work: the pin counts its holders in every thread, and the last to leave
    restores each library's thread count, on an exception too. Where no
    OpenBLAS with the call is found, it changes nothing and yields 1.
    """
    with _pin.lock:
        if not _pin.depth:
            _pin_loaded()
        _pin.depth += 1
        complete = _pin.complete
    try:
        yield min(_cpu_count(), _MAX_WORKERS) if complete else 1
    finally:
        with _pin.lock:
            _pin.depth -= 1
            if not _pin.depth:
                for setter, previous in reversed(_pin.pinned.values()):
                    setter(previous)
                _pin.pinned.clear()


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pinned_map(fn: Callable, items: Iterable, workers: int) -> list:
    """[fn(x) for x in items], on a pool of that many threads when
    workers > 1, else in the calling thread.

    Callers hold one_blas_thread, which pins every thread, and pass the
    count it yielded. The results keep the order of items, and a failure is
    raised for the first failing item in that order, once the calls already
    started have finished.
    """
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


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
    graph_core.symmetric_entries.
    """
    s = np.asarray(s, dtype=float)
    graph_core.symmetric_entries(s)
    values, vectors = np.linalg.eigh(s)
    return SpectralSummary(values=values, vectors=_fix_signs(vectors))


def sym_eig_values(s: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues only; cheaper when vectors are not needed."""
    s = np.asarray(s, dtype=float)
    graph_core.symmetric_entries(s)
    return np.linalg.eigvalsh(s)


def _lanczos_top(e: graph_core.Entries, k: int):
    """The k largest eigenpairs by Lanczos, largest first, or None when the
    dense path must be used instead; ValueError unless 1 <= k <= n.

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
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    if n < _PARTIAL_MIN_N or _PARTIAL_MAX_SHARE * k > n:
        return None
    # imported here so that small inputs never pay for loading scipy; its
    # OpenBLAS loads with it, and a pin held then is extended to it
    first = "scipy.sparse.linalg" not in sys.modules
    from scipy import sparse
    from scipy.sparse import csgraph
    from scipy.sparse import linalg as splinalg
    if first:
        _extend_pin()

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


def top_eigenvalues(s: np.ndarray | graph_core.Entries, k: int) -> np.ndarray:
    """The k largest eigenvalues of a symmetric matrix, given dense or as its
    Entries, largest first.

    The Lanczos and dense paths agree to about 1e-14 on normalized
    adjacencies.
    """
    e = graph_core.symmetric_entries(s)
    top = _lanczos_top(e, k)
    if top is None:
        return np.linalg.eigvalsh(e.dense())[::-1][:k].copy()
    return top[0]


def top_eigenpairs(s: np.ndarray | graph_core.Entries, k: int) -> SpectralSummary:
    """The k largest eigenpairs of a symmetric matrix, given dense or as its
    Entries, largest first, with the sign convention of sym_eig.

    Within an eigenvalue of multiplicity above one the columns may differ
    between the Lanczos and dense paths; the subspace they span does not.
    """
    e = graph_core.symmetric_entries(s)
    top = _lanczos_top(e, k)
    if top is None:
        values, vectors = np.linalg.eigh(e.dense())
        return SpectralSummary(values=values[::-1][:k].copy(),
                               vectors=_fix_signs(vectors[:, ::-1][:, :k]))
    values, vectors = top
    return SpectralSummary(values=values, vectors=_fix_signs(vectors))


def laplacian_eigenvalues(e: graph_core.Entries, k: int) -> np.ndarray:
    """The k smallest normalized-Laplacian eigenvalues, ascending, of the
    graph with checked entries e; k = n, the full spectrum, takes the dense
    path."""
    return 1.0 - top_eigenvalues(graph_core.normalized_entries(e), k)
