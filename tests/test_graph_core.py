"""Adjacency checks, normalization, spectral distance, permutations, and IO."""

import functools
import gzip
import io
import operator
import warnings

import numpy as np
import pytest
from helpers import (PARTIAL_PATH_CASES, reference_degrees, reference_is_symmetric,
                     reference_normalized_adjacency)
from hypothesis import given, settings
from hypothesis import strategies as st

from specbary import alignment, eigen, ingest, soules
from specbary import graph_core as gc


def _degrees(a):
    return gc.adjacency_entries(a)[1].degrees


def test_degrees_single_edge():
    assert np.array_equal(_degrees(np.array([[0.0, 1.0], [1.0, 0.0]])), [1.0, 1.0])


def test_degrees_empty_graph():
    assert np.array_equal(_degrees(np.zeros((3, 3))), [0.0, 0.0, 0.0])


def test_degrees_weighted():
    assert np.array_equal(_degrees(np.array([[0.0, 2.0], [2.0, 0.0]])), [2.0, 2.0])


@pytest.mark.parametrize("n", [1, 7, 300])
def test_degrees_add_each_rows_nonzeros_in_column_order(n):
    # non-dyadic weights, whose sums depend on the order of the additions,
    # and zeros of both signs
    rng = np.random.default_rng(n)
    w = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.0, 4.0, (n, n)), 0.0)
    a = np.triu(w) + np.triu(w, 1).T
    a[(a == 0) & (rng.random((n, n)) < 0.25)] = -0.0
    # built-in sum compensates its additions from Python 3.12 on
    expected = [functools.reduce(operator.add, row[row != 0].tolist(), 0.0) for row in a]
    assert np.array_equal(_degrees(a), expected)


@pytest.mark.parametrize("strip", [1, 7, 1 << 16])
@pytest.mark.parametrize("kind", ["binary", "weighted", "signed_zeros", "nonfinite"])
def test_degrees_row_strips_match_whole_matrix_scan(strip, kind):
    # Entries.degrees, and the degrees of each strip of `strip` rows summed
    # from the entries that indptr delimits, against the whole-matrix scan
    rng = np.random.default_rng(5)
    a = (rng.random((40, 40)) < 0.3).astype(float)
    if kind != "binary":
        a *= rng.uniform(0.0, 4.0, a.shape)
    if kind == "signed_zeros":
        a[(a == 0) & (rng.random(a.shape) < 0.5)] = -0.0
    if kind == "nonfinite":
        a[3, 5], a[7, 0], a[7, 9] = np.nan, np.inf, -np.inf
    for matrix in (a, np.asfortranarray(a), a[:, ::-1]):
        e = gc._nonzero_entries(matrix)
        strips = []
        for i in range(0, e.n, strip):
            stop = min(i + strip, e.n)
            lo, hi = e.indptr[i], e.indptr[stop]
            strips.append(np.bincount(e.rows[lo:hi] - i, weights=e.values[lo:hi],
                                      minlength=stop - i))
        expected = reference_degrees(matrix).view(np.int64)
        # bit for bit, nan included
        assert np.array_equal(e.degrees.view(np.int64), expected)
        assert np.array_equal(np.concatenate(strips).view(np.int64), expected)


def test_check_adjacency_rejects_bad_input():
    with pytest.raises(ValueError):
        gc.check_adjacency(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        gc.check_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        gc.check_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        gc.check_adjacency(np.array([[0.0, np.nan], [np.nan, 0.0]]))



def test_check_adjacency_rejects_empty_matrix_by_shape():
    with pytest.raises(ValueError, match=r"expected a non-empty square matrix, got shape \(0, 0\)"):
        gc.check_adjacency(np.zeros((0, 0)))

def _symmetric(n: int, low: float, high: float, key: int) -> np.ndarray:
    a = np.random.default_rng(key).uniform(low, high, (n, n))
    return np.triu(a) + np.triu(a, 1).T


def test_check_symmetric_rejects_asymmetry_in_last_strip():
    a = _symmetric(600, 0.0, 1.0, 23)
    gc.check_symmetric(a)
    # the pair (590, 599) sits in the last rows and columns
    a[599, 590] += 1e-9
    assert not reference_is_symmetric(a)
    with pytest.raises(ValueError, match="not symmetric"):
        gc.check_symmetric(a)


# side of the square tiles of the grid a pair is planted on
_TILE = 128


@st.composite
def _planted_pair(draw):
    """n in 1..300 and one entry (i, j): in a diagonal tile, an off-diagonal
    tile or the last row or column of a grid of 128 x 128 tiles."""
    place = draw(st.sampled_from(["diagonal_tile", "off_diagonal_tile", "last_row", "last_column"]))
    n = draw(st.integers(_TILE + 1 if place == "off_diagonal_tile" else 1, 300))
    index = st.integers(0, n - 1)
    if place == "diagonal_tile":
        start = draw(st.integers(0, (n - 1) // _TILE)) * _TILE
        i, j = (draw(st.integers(start, min(n, start + _TILE) - 1)) for _ in range(2))
    elif place == "off_diagonal_tile":
        i = draw(st.integers(0, (n - 1) // _TILE * _TILE - 1))
        j = draw(st.integers((i // _TILE + 1) * _TILE, n - 1))
    else:
        i, j = n - 1, draw(index)
        if place == "last_column":
            i, j = j, i
    return n, i, j


@settings(max_examples=300)
@given(pair=_planted_pair(), scale=st.sampled_from([1.0, 4.0]), above=st.booleans(),
       flip=st.booleans(), key=st.integers(0, 2**32 - 1))
def test_check_symmetric_tiles_decide_like_the_whole_matrix(pair, scale, above, flip, key):
    n, i, j = pair
    if flip:
        i, j = j, i
    # entries on a grid of 1/8 in [-scale, scale]
    s = np.round(_symmetric(n, -scale, scale, key) * 8) / 8
    s[i, j] = s[j, i] = 0.0
    tol = gc.SYMMETRY_RTOL * max(1.0, float(s.max()), -float(s.min()))
    # |s_ij - s_ji| is exactly tol, or the next float above it
    s[i, j] = np.nextafter(tol, np.inf) if above else tol
    symmetric = reference_is_symmetric(s)
    assert symmetric == (not above or i == j)
    if symmetric:
        assert gc.check_symmetric(s) is s
    else:
        with pytest.raises(ValueError, match="not symmetric"):
            gc.check_symmetric(s)


@pytest.mark.parametrize("above", [False, True])
def test_check_symmetric_widens_its_tolerance_by_a_far_tile_minimum(above):
    s = np.round(_symmetric(300, 0.0, 1.0, 31) * 8) / 8
    # the minimum, in the last rows, sets the tolerance; the pair (0, 1) in
    # the first rows exceeds the tolerance the largest entry gives
    s[299, 298] = s[298, 299] = -1e6
    tol = gc.SYMMETRY_RTOL * 1e6
    s[1, 0] = 0.0
    s[0, 1] = np.nextafter(tol, np.inf) if above else tol
    assert np.abs(s - s.T).max() > gc.SYMMETRY_RTOL * max(1.0, float(s.max()))
    assert reference_is_symmetric(s) == (not above)
    if above:
        with pytest.raises(ValueError, match="not symmetric"):
            gc.check_symmetric(s)
    else:
        assert gc.check_symmetric(s) is s


def test_check_symmetric_rejects_one_off_diagonal_nan():
    a = _symmetric(600, 0.0, 1.0, 29)
    a[5, 400] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        gc.check_symmetric(a)


@pytest.mark.parametrize("check", [gc.check_symmetric, gc.check_adjacency])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checks_reject_non_finite_before_symmetry_and_sign(check, value):
    a = _symmetric(600, 0.0, 1.0, 37)
    # the first rows are asymmetric and a far entry negative, so a symmetry
    # or sign test run first would raise its own message; filterwarnings =
    # error turns any RuntimeWarning from the scans into a failure
    a[0, 1] += 1.0
    a[598, 599] = -1.0
    a[400, 5] = value
    with pytest.raises(ValueError, match="non-finite"):
        check(a)


def test_check_symmetric_scales_tolerance_by_most_negative_entry():
    a = _symmetric(6, -4.0, 0.0, 31)
    near = a.copy()
    near[0, 1] += 2e-12  # within 1e-12 * 4, outside 1e-12 * 1
    gc.check_symmetric(near)
    off = a.copy()
    off[0, 1] += 4e-10
    with pytest.raises(ValueError, match="not symmetric"):
        gc.check_symmetric(off)


def _sparse_symmetric(n: int, density: float, key: int) -> np.ndarray:
    # weights on a grid of 1/8 in (0, 4] on a random symmetric pattern
    rng = np.random.default_rng(key)
    a = np.where(rng.random((n, n)) < density, np.ceil(rng.uniform(0.0, 32.0, (n, n))) / 8, 0.0)
    return np.triu(a) + np.triu(a, 1).T


@settings(max_examples=200)
@given(n=st.integers(2, 300), density=st.sampled_from([0.0, 0.02, 0.3]), above=st.booleans(),
       negative_zeros=st.booleans(), key=st.integers(0, 2**32 - 1))
def test_check_symmetric_decides_one_sided_entries_like_the_whole_matrix(n, density, above,
                                                                        negative_zeros, key):
    s = _sparse_symmetric(n, density, key)
    if negative_zeros:
        s[s == 0] = -0.0
    rng = np.random.default_rng(key + 1)
    i, j = rng.choice(n, 2, replace=False)
    # one side of the pair holds a zero, the other exactly the tolerance or
    # the next float above it, so only the stored side can decide
    s[i, j] = s[j, i] = 0.0
    tol = gc.SYMMETRY_RTOL * max(1.0, float(s.max()))
    s[i, j] = np.nextafter(tol, np.inf) if above else tol
    assert reference_is_symmetric(s) == (not above)
    if above:
        with pytest.raises(ValueError, match="not symmetric"):
            gc.check_adjacency(s)
    else:
        assert gc.check_adjacency(s) is s


@pytest.mark.parametrize("check", [gc.check_symmetric, gc.check_adjacency])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checks_reject_non_finite_entry_facing_a_zero(check, value):
    a = _sparse_symmetric(300, 0.02, 41)
    a[7, 250] = a[250, 7] = 0.0
    # only the transposed partner, a zero, is there to compare it with
    a[7, 250] = value
    with pytest.raises(ValueError, match="non-finite"):
        check(a)


def test_negative_zeros_are_zeros_to_the_checks_and_the_entries():
    a = _sparse_symmetric(50, 0.1, 43)
    signed = np.where(a == 0, -0.0, a)
    signed[3, 4] = 0.0
    signed[4, 3] = -0.0
    assert gc.check_adjacency(signed) is signed
    _, entries = gc.adjacency_entries(signed)
    _, expected = gc.adjacency_entries(a)
    for name in ("rows", "cols", "values", "indptr"):
        assert np.array_equal(getattr(entries, name), getattr(expected, name))
    # the entries keep no zeros, so the matrix they give back has +0.0
    # where the input held -0.0
    dense = entries.dense()
    assert np.array_equal(dense, signed) and not np.signbit(dense).any()


def test_all_zero_matrix_passes_with_no_entries():
    a = np.zeros((5, 5))
    assert gc.check_adjacency(a) is a
    _, entries = gc.adjacency_entries(a)
    assert entries.values.size == 0 and np.array_equal(entries.indptr, np.zeros(6))
    assert np.array_equal(entries.dense(), a)


@pytest.mark.parametrize("above", [False, True])
def test_check_symmetric_reads_every_entry_of_a_dense_weighted_matrix(above):
    s = np.round(_symmetric(200, 0.5, 4.0, 47) * 8) / 8
    _, entries, _ = gc._check_symmetric(s)
    assert entries.values.size == s.size
    # half or twice the tolerance, which rounding of the sum cannot undo
    tol = gc.SYMMETRY_RTOL * float(s.max())
    s[150, 20] = s[20, 150] + (2.0 * tol if above else 0.5 * tol)
    assert reference_is_symmetric(s) == (not above)
    if above:
        with pytest.raises(ValueError, match="not symmetric"):
            gc.check_symmetric(s)
    else:
        assert gc.check_symmetric(s) is s


def test_adjacency_entries_are_the_row_major_nonzeros():
    a = _sparse_symmetric(40, 0.2, 53)
    _, entries = gc.adjacency_entries(a)
    rows, cols = np.nonzero(a)
    assert np.array_equal(entries.rows, rows) and np.array_equal(entries.cols, cols)
    assert np.array_equal(entries.values, a[rows, cols])
    assert np.array_equal(entries.indptr, np.concatenate([[0], np.cumsum((a != 0).sum(axis=1))]))


def _scattered(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n))
    a[rows, cols] = a[cols, rows] = 1.0
    return a


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), key=st.integers(0, 2**32 - 1))
def test_edge_entries_are_the_checked_entries_of_the_adjacency(n, density, key):
    # any edge order, either direction of each pair
    rng = np.random.default_rng(key)
    rows, cols = np.triu_indices(n, 1)
    pick = rng.permutation(np.flatnonzero(rng.random(len(rows)) < density))
    flip = rng.random(len(pick)) < 0.5
    rows, cols = np.where(flip, cols[pick], rows[pick]), np.where(flip, rows[pick], cols[pick])
    got = gc.edge_entries(n, rows, cols)
    a, want = gc.adjacency_entries(_scattered(n, rows, cols))
    assert got.n == want.n == n
    for field in ("rows", "cols", "values", "indptr"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert got.dense().tobytes() == a.tobytes()


@pytest.mark.parametrize(("n", "rows", "cols", "match"), [
    (0, [], [], "at least one node"),
    (-3, [], [], "at least one node"),
    (4, [0, -1], [1, 2], "outside 0..3"),
    (4, [0, 1], [1, 4], "outside 0..3"),
    (4, [0, 2], [1, 2], "self-loop"),
    (4, [0, 1, 0], [1, 2, 1], "more than once"),
    (4, [0, 1, 2], [1, 2, 1], "more than once"),
    (4, [0, 1], [1], "one length"),
], ids=["no_nodes", "negative_n", "negative_index", "index_n", "self_loop", "repeated",
        "reversed_repeat", "lengths"])
def test_edge_entries_reject_bad_edge_lists(n, rows, cols, match):
    with pytest.raises(ValueError, match=match):
        gc.edge_entries(n, np.array(rows, dtype=int), np.array(cols, dtype=int))


def test_edge_entries_of_no_edges_are_empty():
    e = gc.edge_entries(3, np.array([], dtype=int), np.array([], dtype=int))
    assert len(e.values) == 0 and np.array_equal(e.indptr, [0, 0, 0, 0])
    assert np.array_equal(e.dense(), np.zeros((3, 3)))


# every public function that takes a symmetric matrix from a caller
CHECKED_ENTRY_POINTS = {
    "check_adjacency": gc.check_adjacency,
    "sym_eig": eigen.sym_eig,
    "sym_eig_values": eigen.sym_eig_values,
    "top_eigenvalues": lambda s: eigen.top_eigenvalues(s, 2),
    "top_eigenpairs": lambda s: eigen.top_eigenpairs(s, 2),
    "spectral_embed": lambda s: alignment.spectral_embed(s, 2),
    "best_soules_basis": lambda s: soules.best_soules_basis(s, 2),
}


@pytest.mark.parametrize("name", sorted(CHECKED_ENTRY_POINTS))
def test_entry_points_share_one_symmetry_tolerance(name):
    check = CHECKED_ENTRY_POINTS[name]
    # weights up to 4, so the tolerance is taken relative to the largest entry
    a = np.random.default_rng(19).uniform(0.0, 4.0, (6, 6))
    a = np.triu(a) + np.triu(a, 1).T
    scale = np.abs(a).max()
    near = a.copy()
    near[0, 1] += 1e-13 * scale
    check(near)
    off = a.copy()
    off[0, 1] += 1e-10 * scale
    with pytest.raises(ValueError, match="not symmetric"):
        check(off)


def test_normalized_adjacency_single_edge():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(gc.normalized_adjacency(a), a)


def test_normalized_adjacency_isolated_node_row_stays_zero():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    ahat = gc.normalized_adjacency(a)
    assert np.array_equal(ahat[2], [0.0, 0.0, 0.0])
    assert np.array_equal(ahat[:, 2], [0.0, 0.0, 0.0])


def test_normalized_adjacency_triangle():
    a = np.ones((3, 3)) - np.eye(3)
    ahat = gc.normalized_adjacency(a)
    assert np.allclose(ahat, (np.ones((3, 3)) - np.eye(3)) / 2.0)


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 1), (2, 2, 2)])
def test_normalized_adjacency_rejects_a_matrix_that_is_not_square(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        gc.normalized_adjacency(np.ones(shape))


@pytest.mark.parametrize("case", sorted(PARTIAL_PATH_CASES))
def test_normalized_adjacency_csr_matches_dense_conversion(case):
    from scipy import sparse

    # normalized_entries, read as CSR arrays, against scipy's conversion of
    # the dense reference a * outer(r, r)
    a = PARTIAL_PATH_CASES[case][0]()
    expected = sparse.csr_matrix(reference_normalized_adjacency(a))
    e = gc.normalized_entries(gc.adjacency_entries(a)[1])
    assert np.array_equal(e.values, expected.data)
    assert np.array_equal(e.cols, expected.indices)
    assert np.array_equal(e.indptr, expected.indptr)
    assert np.array_equal(e.rows, np.repeat(np.arange(e.n), np.diff(e.indptr)))
    if case == "weighted_underflow":
        # one nonzero of a has a normalized entry that rounds to 0
        assert np.count_nonzero(a) == len(e.values) + 2


def test_normalized_laplacian_single_edge():
    lap = gc.normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(np.linalg.eigvalsh(lap), [0.0, 2.0])


def test_normalized_laplacian_empty_graph_is_identity():
    lap = gc.normalized_laplacian(np.zeros((2, 2)))
    assert np.array_equal(lap, np.eye(2))
    assert np.allclose(np.linalg.eigvalsh(lap), [1.0, 1.0])


def test_normalized_laplacian_triangle():
    lap = gc.normalized_laplacian(np.ones((3, 3)) - np.eye(3))
    assert np.allclose(np.diag(lap), 1.0)
    assert np.allclose(lap - np.diag(np.diag(lap)), -(np.ones((3, 3)) - np.eye(3)) / 2)
    assert np.allclose(np.linalg.eigvalsh(lap), [0.0, 1.5, 1.5])


def test_laplacian_eigenvalues_stay_in_range():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        a = (rng.random((n, n)) < 0.3).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        vals = np.linalg.eigvalsh(gc.normalized_laplacian(a))
        assert vals.min() >= -1e-10
        assert vals.max() <= 2.0 + 1e-10


def test_spectral_distance_identical_is_zero():
    assert gc.spectral_distance(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])) == 0.0


def test_spectral_distance_direct_arithmetic():
    d = gc.spectral_distance(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 2.0]))
    assert d == pytest.approx(1.4142135623730951, abs=1e-15)


def test_spectral_distance_edge_versus_empty():
    la = np.linalg.eigvalsh(gc.normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]])))
    lb = np.linalg.eigvalsh(gc.normalized_laplacian(np.zeros((2, 2))))
    assert gc.spectral_distance(la, lb) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_spectral_distance_length_mismatch():
    with pytest.raises(ValueError):
        gc.spectral_distance(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))


def test_permute_identity():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(gc.permute(a, np.array([0, 1])), a)


def test_permute_symmetric_edge_is_fixed_by_swap():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(gc.permute(a, np.array([1, 0, 2])), a)


def test_permute_moves_path_edge():
    # edge between the first two nodes; swapping node 0 with node 2 moves it
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = gc.permute(a, np.array([2, 1, 0]))
    expected = np.zeros((3, 3))
    expected[2, 1] = expected[1, 2] = 1.0
    assert np.array_equal(out, expected)


def test_permute_rejects_invalid_permutation():
    a = np.zeros((3, 3))
    with pytest.raises(ValueError):
        gc.permute(a, np.array([0, 1]))
    with pytest.raises(ValueError):
        gc.permute(a, np.array([0, 0, 2]))
    with pytest.raises(ValueError):
        gc.permute(a, np.array([0, 1, 3]))


def test_permute_round_trip_and_spectrum_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        a = (rng.random((n, n)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        perm = rng.permutation(n)
        shuffled = gc.permute(a, perm)
        assert np.array_equal(shuffled[np.ix_(perm, perm)], a)
        va = np.linalg.eigvalsh(gc.normalized_laplacian(a))
        vb = np.linalg.eigvalsh(gc.normalized_laplacian(shuffled))
        assert np.abs(va - vb).max() < 1e-10


def test_matrix_io_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    a = rng.random((5, 5))
    a = (a + a.T) / 2
    path = tmp_path / "m.csv"
    gc.save_matrix(a, path)
    assert np.array_equal(gc.load_matrix(path), a)


_ZERO_ONE = (np.random.default_rng(17).random((3, 5)) < 0.5).astype(float)


def _with_entry(value: float) -> np.ndarray:
    a = np.eye(3)
    a[0, 2] = value
    return a


@pytest.mark.parametrize("a,byte_table", [
    (np.zeros((1, 1)), True),
    (np.eye(3), True),
    (_ZERO_ONE.T, True),
    (_ZERO_ONE[::-1], True),
    (_with_entry(-0.0), False),
    (_with_entry(2.0), False),
    (np.array([[0.0, 0.5], [0.5, 1.0 / 3.0]]), False),
], ids=["zeros_1x1", "eye_3", "transposed", "reversed_rows", "negative_zero", "two",
        "non_integer"])
def test_save_matrix_writes_savetxt_bytes(tmp_path, monkeypatch, a, byte_table):
    expected = tmp_path / "savetxt.csv"
    np.savetxt(expected, a, delimiter=",", fmt="%.17g")
    formatted = []
    real_savetxt = np.savetxt
    monkeypatch.setattr(np, "savetxt",
                        lambda *args, **kw: formatted.append(real_savetxt(*args, **kw)))
    path = tmp_path / "m.csv"
    gc.save_matrix(a, path)
    assert path.read_bytes() == expected.read_bytes()
    assert bool(formatted) != byte_table
    loaded = gc.load_matrix(path)
    assert np.array_equal(loaded, a) and np.array_equal(np.signbit(loaded), np.signbit(a))


def test_save_matrix_gzips_a_gz_path(tmp_path):
    path = tmp_path / "m.csv.gz"
    gc.save_matrix(np.eye(3), path)
    assert gzip.decompress(path.read_bytes()) == b"1,0,0\n0,1,0\n0,0,1\n"
    assert np.array_equal(gc.load_matrix(path), np.eye(3))


def test_save_matrix_writes_savetxt_bytes_for_contact_snapshots(tmp_path):
    table = ingest.parse_contacts(io.StringIO(ingest.synthetic_school_day(seed=0)))
    series = ingest.window_graphs(table, ingest.MORNING_START, ingest.MORNING_END,
                                  ingest.MORNING_WIDTH)
    assert len(series.graphs) == 35
    for k, g in enumerate(series.graphs):
        path, expected = tmp_path / f"snapshot_{k}.csv", tmp_path / f"savetxt_{k}.csv"
        gc.save_matrix(g, path)
        np.savetxt(expected, g, delimiter=",", fmt="%.17g")
        assert path.read_bytes() == expected.read_bytes()
        assert np.array_equal(gc.load_matrix(path), g)


def _outcome(read, path):
    # the matrix or the ValueError type, and the warning types on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = read(path)
        except ValueError as exc:
            out = type(exc)
    return out, [w.category for w in caught]


def _assert_reads_as_loadtxt(path):
    (got, got_warned), (expected, warned) = _outcome(gc.load_matrix, path), _outcome(
        lambda p: np.asarray(np.loadtxt(p, delimiter=",", ndmin=2), dtype=float), path)
    assert got_warned == warned
    if isinstance(expected, type):
        assert got is expected
    else:
        assert got.shape == expected.shape and np.array_equal(got, expected)
        assert got.flags.writeable and got.dtype == np.float64


@pytest.mark.parametrize("raw,byte_table", [
    (b"1\n", True),
    (b"0,1\n1,0\n", True),
    (b"1,1,0\n", True),
    (b"0\n1\n1\n", True),
    (b"0,1\r\n1,0\r\n", False),
    (b"0,1\n1,0", False),
    (b"0,1\n1\n", False),
    (b"0,1,\n1,0,\n", False),
    (b"0,2\n1,0\n", False),
    (b"0.0,1\n1,0\n", False),
    (b" 0,1\n1,0\n", False),
    (b"#c\n0,1\n1,0\n", False),
    (b"01\n10\n", False),
    (b"0;1\n1;0\n", False),
    (b"0,1\n\n", False),
    (b"", False),
    (b"\n", False),
], ids=["one_entry", "two_by_two", "one_row", "one_column", "crlf", "no_final_newline",
        "ragged", "trailing_comma", "digit_two", "decimal_point", "leading_space", "comment",
        "no_commas", "semicolons", "blank_last_line", "empty", "newline_only"])
def test_load_matrix_reads_byte_tables_as_loadtxt_does(tmp_path, raw, byte_table):
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    assert (gc._zero_one_table(raw) is not None) == byte_table
    _assert_reads_as_loadtxt(path)


def test_load_matrix_reads_only_the_first_line_of_other_files(tmp_path, monkeypatch):
    # a weighted matrix fails the byte-table check on its first line, so
    # np.loadtxt is the only reader of the whole file
    path = tmp_path / "m.csv"
    gc.save_matrix(np.full((4, 4), 0.5), path)
    seen, real = [], gc._zero_one_table
    monkeypatch.setattr(gc, "_zero_one_table", lambda raw: seen.append(raw) or real(raw))
    assert np.array_equal(gc.load_matrix(path), np.full((4, 4), 0.5))
    assert seen == [path.read_bytes().splitlines(keepends=True)[0]]


_MUTATIONS = ("none", "crlf", "drop_final_newline", "drop_byte", "digit_two", "gzip")


@settings(max_examples=120)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9), key=st.integers(0, 2**32 - 1),
       mutation=st.sampled_from(_MUTATIONS), at=st.integers(0, 10**6))
def test_load_matrix_matches_loadtxt_on_saved_tables(tmp_path_factory, rows, cols, key,
                                                     mutation, at):
    a = (np.random.default_rng(key).random((rows, cols)) < 0.5).astype(float)
    path = tmp_path_factory.mktemp("m") / ("m.csv.gz" if mutation == "gzip" else "m.csv")
    gc.save_matrix(a, path)
    raw = path.read_bytes()
    if mutation == "crlf":
        raw = raw.replace(b"\n", b"\r\n")
    elif mutation == "drop_final_newline":
        raw = raw[:-1]
    elif mutation == "drop_byte":
        k = at % len(raw)
        raw = raw[:k] + raw[k + 1 :]
    elif mutation == "digit_two":
        k = at % len(raw) // 2 * 2
        raw = raw[:k] + b"2" + raw[k + 1 :]
    if mutation != "gzip":
        path.write_bytes(raw)
    if mutation in ("none", "gzip"):
        assert np.array_equal(gc.load_matrix(path), a)
    _assert_reads_as_loadtxt(path)


def test_permutation_io_round_trip(tmp_path):
    perm = np.random.default_rng(13).permutation(9)
    path = tmp_path / "permutation.csv"
    gc.save_permutation(perm, path)
    assert np.array_equal(gc.load_permutation(path), perm)


@pytest.mark.parametrize("rows", [
    [(0, 1), (0, 0), (2, 2), (3, 3)],  # node id 0 twice, node 1 missing
    [(0, 1), (1, 1), (2, 2), (3, 3)],  # position 1 twice, position 0 missing
    [(0, 1), (1, 4), (2, 2), (3, 3)],  # position 4 outside 0..3
    [(0, 1), (1, 0), (2, 2), (-1, 3)],  # node id -1 outside 0..3
])
def test_load_permutation_rejects_non_permutation(tmp_path, rows):
    path = tmp_path / "permutation.csv"
    path.write_text("node_id,position\n" + "".join(f"{i},{p}\n" for i, p in rows))
    with pytest.raises(ValueError, match="permutation.csv"):
        gc.load_permutation(path)
