"""Core graph matrix operations: input validation, the normalized
adjacency and Laplacian, spectral pseudo-distance, permutations, seeded
random streams, and plain-text matrix and permutation I/O. 0/1 matrices are
written and read as a byte table, every other matrix through np.savetxt and
np.loadtxt.

Matrices come in as dense numpy arrays of float64, nodes indexed by row
0..n-1. The one symmetry check reads a matrix once, as its nonzero entries,
and decides from them alone; adjacency_entries hands those entries on (an
Entries). A graph given as an edge list is made into its Entries by
edge_entries, which checks the list and builds no n x n array; those are
the entries the check would find in its dense adjacency. Degrees are
Entries.degrees, one np.bincount of each row's nonzeros in column order,
and the one normalization is normalized_entries, from entries to entries;
normalized_adjacency and normalized_laplacian are its dense forms. The
eigen bodies and the Soules split search read a checked matrix only as its
Entries. A BlockMatrix holds a block-constant matrix, such as an SBM
population mean, as its block values and node labels.
"""

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Entries:
    """The nonzero entries of an n x n matrix, in row-major order.

    Entry k sits at (rows[k], cols[k]) and holds values[k]; the entries of
    row i are those from indptr[i] to indptr[i + 1]. Zeros, -0.0 included,
    are not stored, so dense() holds +0.0 wherever the matrix held -0.0.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    indptr: np.ndarray

    def dense(self) -> np.ndarray:
        """The n x n matrix."""
        out = np.zeros((self.n, self.n))
        np.put(out, self.rows * self.n + self.cols, self.values)
        return out

    @cached_property
    def degrees(self) -> np.ndarray:
        """The row sums, each row's entries added in column order."""
        return np.bincount(self.rows, weights=self.values, minlength=self.n)


@dataclass(frozen=True)
class BlockMatrix:
    """The n x n matrix whose (i, j) entry is values[labels[i], labels[j]],
    held as its k x k values and one label per node.

    A row slice, bm[i:j], is that strip of rows as a dense array, and
    np.asarray(bm) is the whole matrix.
    """

    values: np.ndarray
    labels: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.labels), len(self.labels))

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.values.take(self.labels[rows], 0).take(self.labels, 1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)


def edge_entries(n: int, rows: np.ndarray, cols: np.ndarray) -> Entries:
    """The Entries of the n x n 0/1 adjacency of the undirected graph with
    edges (rows[k], cols[k]): entries (rows[k], cols[k]) and (cols[k],
    rows[k]) hold 1.0 for every k, and no n x n array is made.

    These are the entries the input check finds in that adjacency, so they
    are its checked form. Raises ValueError for n < 1, an index outside
    0..n-1, a self-loop, or a pair given twice (in either direction).
    """
    if n < 1:
        raise ValueError(f"expected at least one node, got n={n}")
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError(f"expected two index vectors of one length, got shapes {rows.shape}, {cols.shape}")
    if len(rows) and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise ValueError(f"edge endpoint outside 0..{n - 1}")
    if (rows == cols).any():
        raise ValueError("edge list has a self-loop")
    flat = np.sort(np.concatenate([rows * n + cols, cols * n + rows]))
    if (np.diff(flat) == 0).any():
        raise ValueError("edge list gives a node pair more than once")
    return entries_at(n, flat, np.ones(len(flat)))


def entries_at(n: int, flat: np.ndarray, values: np.ndarray) -> Entries:
    """The Entries of an n x n matrix from the ascending flat (row-major)
    indices of its nonzeros and their values."""
    rows, cols = np.divmod(flat, n)
    return Entries(n, rows, cols, values, _indptr(rows, n))


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def check_symmetric(s: np.ndarray) -> np.ndarray:
    """Validate a symmetric matrix: square, non-empty, finite, and |s - s^T|
    at most SYMMETRY_RTOL * max(1, largest |entry|).

    Returns the input as a float64 array. This is the package's one symmetry
    check; the pipeline runs it once per input graph and never on matrices it
    derives from checked ones.
    """
    return _check_symmetric(s)[0]


def _check_symmetric(s: np.ndarray) -> tuple[np.ndarray, Entries, float]:
    # check_symmetric, also returning the entries and the smallest entry
    s = np.asarray(s, dtype=float)
    if not s.size:
        raise ValueError(f"expected a non-empty square matrix, got shape {s.shape}")
    entries = _nonzero_entries(s)
    n = entries.n
    # every entry not stored is a zero; a nan propagates through max and
    # min, and an infinity is one of them, so both are finite exactly when
    # every entry is
    hi, lo = float(entries.values.max(initial=0.0)), float(entries.values.min(initial=0.0))
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("matrix has non-finite entries")
    tol = SYMMETRY_RTOL * max(1.0, hi, -lo)
    # a pair of zeros never fails, so each pair with a nonzero is decided at
    # a stored entry, against its transposed partner
    mirror = s.take(entries.cols * n + entries.rows)
    if np.abs(entries.values - mirror).max(initial=0.0) > tol:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_RTOL:g} relative tolerance")
    return s, entries, lo


def _nonzero_entries(s: np.ndarray) -> Entries:
    # the Entries of a float64 array, unchecked but for its shape; flatnonzero
    # of a bool array is several times faster than nonzero of a float64 one,
    # and nan and the infinities compare unequal to 0, so they are among the
    # entries
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    flat = np.flatnonzero(s != 0)
    return entries_at(s.shape[0], flat, s.take(flat))


def check_adjacency(a: np.ndarray) -> np.ndarray:
    """Validate an adjacency matrix: check_symmetric plus nonnegative entries.

    Returns the input as a float64 array. Weighted entries and nonzero
    diagonals are allowed.
    """
    return adjacency_entries(a)[0]


def adjacency_entries(a: np.ndarray) -> tuple[np.ndarray, Entries]:
    """check_adjacency, also returning the nonzero entries of the matrix,
    found by the same single scan."""
    a, entries, lo = _check_symmetric(a)
    if lo < 0:
        raise ValueError("adjacency matrix has negative entries")
    return a, entries


def _inverse_sqrt(d: np.ndarray) -> np.ndarray:
    # 1 / sqrt(d_i), and 0 for zero-degree nodes
    r = np.zeros_like(d)
    pos = d > 0
    r[pos] = 1.0 / np.sqrt(d[pos])
    return r


def normalized_entries(e: Entries) -> Entries:
    """The entries of the normalized adjacency of the matrix with entries e.

    Each is a_ij * (r_i * r_j), with r_i = 1 / sqrt(d_i) for the degrees
    d = e.degrees and r_i = 0 for zero-degree nodes; entries that round to 0
    are dropped. Builds no n x n array.
    """
    r = _inverse_sqrt(e.degrees)
    data = e.values * (r[e.rows] * r[e.cols])
    kept = data != 0
    if kept.all():
        return Entries(e.n, e.rows, e.cols, data, e.indptr)
    rows = e.rows[kept]
    return Entries(e.n, rows, e.cols[kept], data[kept], _indptr(rows, e.n))


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """a_ij / sqrt(d_i d_j), with rows and columns of zero-degree nodes left
    0: normalized_entries of a's nonzero entries, as a dense matrix.

    a is not checked for symmetry. Raises ValueError unless it is square.
    """
    return normalized_entries(_nonzero_entries(np.asarray(a, dtype=float))).dense()


def normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """I minus the normalized adjacency; eigenvalues lie in [0, 2]."""
    return _dense_laplacian(_nonzero_entries(np.asarray(a, dtype=float)))


def _dense_laplacian(e: Entries) -> np.ndarray:
    # the normalized Laplacian of the matrix with entries e, built in the one
    # n x n array its normalized entries are densified into
    lap = normalized_entries(e).dense()
    np.negative(lap, out=lap)
    lap[np.diag_indices_from(lap)] += 1.0
    return lap


def spectral_distance(la: np.ndarray, lb: np.ndarray) -> float:
    """L2 distance between two ascending eigenvalue vectors of equal length.

    This is a pseudo-distance: cospectral non-isomorphic graphs are at
    distance zero.
    """
    la = np.asarray(la, dtype=float)
    lb = np.asarray(lb, dtype=float)
    if la.shape != lb.shape:
        raise ValueError(f"spectra have different lengths: {la.shape} vs {lb.shape}")
    return float(np.linalg.norm(la - lb))


def permute(a: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Relabel nodes so node i moves to position perm[i].

    result[perm[i], perm[j]] == a[i, j], so the gather
    result[np.ix_(perm, perm)] gives a back.
    """
    a = np.asarray(a)
    perm = np.asarray(perm)
    n = a.shape[0]
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm is not a permutation of 0..n-1")
    out = np.empty_like(a)
    out[np.ix_(perm, perm)] = a
    return out


def philox(key) -> np.random.Generator:
    """Counter-based Philox stream keyed by an int or a tuple of ints.

    Equal keys give equal streams, and keys such as (seed, t) give an
    independent stream for each t.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def save_matrix(a: np.ndarray, path: str | Path) -> None:
    """Write a matrix as plain-text CSV, one row per line.

    Values are written as np.savetxt(fmt="%.17g") writes them. A matrix whose
    entries are all 0.0 or 1.0 (no -0.0), such as an unweighted graph, is
    written as a byte table of digits, commas and newlines, which gives the
    same bytes without formatting each entry.
    """
    a = np.asarray(a, dtype=float)
    ones = a == 1.0
    # np.savetxt also gzips a path ending in .gz, which load_matrix reads back
    if (a.ndim != 2 or not a.size or str(path).endswith(".gz") or np.signbit(a).any()
            or not (ones | (a == 0.0)).all()):
        np.savetxt(path, a, delimiter=",", fmt="%.17g")
        return
    table = np.full((a.shape[0], 2 * a.shape[1]), ord(","), dtype=np.uint8)
    table[:, 0::2] = ones + ord("0")
    table[:, -1] = ord("\n")
    Path(path).write_bytes(table.tobytes())


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by save_matrix.

    A file that is exactly save_matrix's byte table of 0/1 digits is read
    as bytes; every other file (gzipped, CRLF line ends, no final newline,
    ragged rows, other tokens) goes through np.loadtxt.
    """
    if not str(path).endswith(".gz"):
        with open(path, "rb") as fh:
            # only a file whose first line is a row of the table is read whole
            # here, so any other file is read once, by np.loadtxt
            table = _zero_one_table(fh.readline())
            if table is not None:
                fh.seek(0)
                table = _zero_one_table(fh.read())
        if table is not None:
            return (table[:, 0::2] == ord("1")).astype(float)
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return np.asarray(m, dtype=float)


def _zero_one_table(raw: bytes) -> np.ndarray | None:
    # rows of equal width: a 0/1 digit at even offsets, a comma at odd ones,
    # and a newline last
    width = raw.find(b"\n") + 1
    if not width or width % 2 or len(raw) % width:
        return None
    table = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
    digits = table[:, 0::2]
    if ((table[:, 1:-1:2] == ord(",")).all() and (table[:, -1] == ord("\n")).all()
            and ((digits == ord("0")) | (digits == ord("1"))).all()):
        return table
    return None


def save_permutation(perm: np.ndarray, path: str | Path) -> None:
    """Write a permutation as a node_id,position CSV table."""
    with open(path, "w") as fh:
        fh.write("node_id,position\n")
        for i, p in enumerate(perm):
            fh.write(f"{i},{int(p)}\n")


def load_permutation(path: str | Path) -> np.ndarray:
    """Read a permutation written by save_permutation.

    Raises ValueError unless the node ids and the positions each cover
    0..n-1 exactly once.
    """
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=int, ndmin=2)
    n = len(rows)
    if rows.shape[1] != 2 or any(not np.array_equal(np.sort(col), np.arange(n)) for col in rows.T):
        raise ValueError(f"{path}: node ids and positions must each cover 0..{n - 1} once")
    perm = np.empty(n, dtype=int)
    perm[rows[:, 0]] = rows[:, 1]
    return perm
