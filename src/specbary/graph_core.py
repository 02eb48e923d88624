"""Core graph matrix operations: input validation, degrees, normalized
adjacency and Laplacian, spectral pseudo-distance, permutations, seeded
random streams, and plain-text matrix and permutation I/O. 0/1 matrices are
written as a byte table, every other matrix through np.savetxt.

All matrices are dense numpy arrays of float64, nodes indexed by row 0..n-1.
"""

from pathlib import Path

import numpy as np

SYMMETRY_RTOL = 1e-12
# rows per strip of the symmetry comparison; a 64-row strip of a 2048-node
# graph is 1 MB, so the strip and its transposed partner stay in cache
_SYMMETRY_STRIP = 64


def check_symmetric(s: np.ndarray) -> np.ndarray:
    """Validate a symmetric matrix: square, finite, and |s - s^T| at most
    SYMMETRY_RTOL * max(1, largest |entry|).

    Returns the input as a float64 array. This is the package's one symmetry
    check; the pipeline runs it once per input graph and never on matrices it
    derives from checked ones.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("matrix has non-finite entries")
    tol = SYMMETRY_RTOL * max(1.0, float(s.max()), -float(s.min()))
    # |s_ij - s_ji| is symmetric in (i, j), so the upper triangle decides;
    # each strip of rows is compared with the matching strip of columns
    n = s.shape[0]
    for i in range(0, n, _SYMMETRY_STRIP):
        j = i + _SYMMETRY_STRIP
        if np.abs(s[i:j, i:] - s[i:, i:j].T).max() > tol:
            raise ValueError(f"matrix is not symmetric within {SYMMETRY_RTOL:g} relative tolerance")
    return s


def check_adjacency(a: np.ndarray) -> np.ndarray:
    """Validate an adjacency matrix: check_symmetric plus nonnegative entries.

    Returns the input as a float64 array. Weighted entries and nonzero
    diagonals are allowed.
    """
    a = check_symmetric(a)
    if a.min() < 0:
        raise ValueError("adjacency matrix has negative entries")
    return a


def degrees(a: np.ndarray) -> np.ndarray:
    """Row sums of the adjacency matrix (the diagonal of the degree matrix)."""
    return np.asarray(a, dtype=float).sum(axis=1)


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """a_ij / sqrt(d_i d_j), with rows and columns of zero-degree nodes left 0."""
    a = np.asarray(a, dtype=float)
    d = degrees(a)
    inv_sqrt = np.zeros_like(d)
    pos = d > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(d[pos])
    return a * np.outer(inv_sqrt, inv_sqrt)


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

    result[perm[i], perm[j]] == a[i, j].
    """
    a = np.asarray(a)
    perm = np.asarray(perm)
    n = a.shape[0]
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm is not a permutation of 0..n-1")
    out = np.empty_like(a)
    out[np.ix_(perm, perm)] = a
    return out


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse permutation: invert_permutation(perm)[perm[i]] == i."""
    return np.argsort(np.asarray(perm))


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
    """Read a matrix written by save_matrix."""
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return np.asarray(m, dtype=float)


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
