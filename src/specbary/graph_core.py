"""Core graph matrix operations: input validation, degrees, normalized
adjacency and Laplacian, spectral pseudo-distance, permutations, seeded
random streams, and plain-text matrix and permutation I/O. 0/1 matrices are
written and read as a byte table, every other matrix through np.savetxt and
np.loadtxt.

All matrices are dense numpy arrays of float64, nodes indexed by row 0..n-1;
only normalized_adjacency_csr returns the CSR arrays of one.
"""

from pathlib import Path

import numpy as np

SYMMETRY_RTOL = 1e-12
# side of the square tiles of the symmetry comparison; a 128 x 128 tile and
# its transposed partner take 256 KB, so both stay in cache
_SYMMETRY_TILE = 128


def check_symmetric(s: np.ndarray) -> np.ndarray:
    """Validate a symmetric matrix: square, non-empty, finite, and |s - s^T|
    at most SYMMETRY_RTOL * max(1, largest |entry|).

    Returns the input as a float64 array. This is the package's one symmetry
    check; the pipeline runs it once per input graph and never on matrices it
    derives from checked ones.
    """
    return _check_symmetric(s)[0]


def _check_symmetric(s: np.ndarray) -> tuple[np.ndarray, float]:
    # check_symmetric, also returning the smallest entry for check_adjacency
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or not s.size:
        raise ValueError(f"expected a non-empty square matrix, got shape {s.shape}")
    # a nan propagates through max and min, and an infinity is one of them,
    # so both are finite exactly when every entry is
    hi, lo = float(s.max()), float(s.min())
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("matrix has non-finite entries")
    tol = SYMMETRY_RTOL * max(1.0, hi, -lo)
    # |s_ij - s_ji| is symmetric in (i, j), so the tiles on and above the
    # diagonal decide; tile (I, J) is compared with the transpose of (J, I)
    n, t = s.shape[0], _SYMMETRY_TILE
    for i in range(0, n, t):
        for j in range(i, n, t):
            if np.abs(s[i : i + t, j : j + t] - s[j : j + t, i : i + t].T).max() > tol:
                raise ValueError(f"matrix is not symmetric within {SYMMETRY_RTOL:g} relative tolerance")
    return s, lo


def check_adjacency(a: np.ndarray) -> np.ndarray:
    """Validate an adjacency matrix: check_symmetric plus nonnegative entries.

    Returns the input as a float64 array. Weighted entries and nonzero
    diagonals are allowed.
    """
    a, lo = _check_symmetric(a)
    if lo < 0:
        raise ValueError("adjacency matrix has negative entries")
    return a


def degrees(a: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency matrix (the diagonal of the degree matrix)."""
    return np.asarray(a, dtype=float).sum(axis=1)


def _inverse_sqrt(d: np.ndarray) -> np.ndarray:
    # 1 / sqrt(d_i), and 0 for zero-degree nodes
    r = np.zeros_like(d)
    pos = d > 0
    r[pos] = 1.0 / np.sqrt(d[pos])
    return r


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """a_ij / sqrt(d_i d_j), with rows and columns of zero-degree nodes left 0."""
    a = np.asarray(a, dtype=float)
    r = _inverse_sqrt(degrees(a))
    return a * np.outer(r, r)


def normalized_adjacency_csr(a: np.ndarray, d: np.ndarray):
    """The normalized adjacency of a, with degrees d, as CSR arrays
    (data, indices, indptr).

    With d = degrees(a) they are the arrays of scipy's
    csr_matrix(normalized_adjacency(a)), bit for bit, built from the nonzeros
    of a without an n x n float64 temporary: each kept entry is
    a_ij * (r_i * r_j) with r_i = 1 / sqrt(d_i), the product the dense matrix
    holds, and entries that round to 0 are dropped as the dense to sparse
    conversion drops them. Uses numpy only.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    r = _inverse_sqrt(d)
    # flatnonzero of a bool array is several times faster than nonzero of a
    # float64 one; divmod splits the flat indices into rows and columns
    flat = np.flatnonzero(a != 0)
    rows, cols = np.divmod(flat, n)
    data = a.take(flat) * (r[rows] * r[cols])
    kept = data != 0
    if not kept.all():
        rows, cols, data = rows[kept], cols[kept], data[kept]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return data, cols, indptr


def normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """I minus the normalized adjacency; eigenvalues lie in [0, 2]."""
    ahat = normalized_adjacency(a)
    lap = -ahat
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
