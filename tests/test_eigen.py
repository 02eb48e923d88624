"""Symmetric eigendecomposition wrapper: ordering, signs, reconstruction,
and the Lanczos path for the largest eigenvalues against the dense one."""

import sys
import threading

import numpy as np
import pytest
from helpers import PARTIAL_PATH_CASES, paper_scaled, partial_path_case

from specbary import eigen, sbm


def test_identity_spectrum():
    summary = eigen.sym_eig(np.eye(3))
    assert np.array_equal(summary.values, [1.0, 1.0, 1.0])


def test_two_by_two_hand_case():
    summary = eigen.sym_eig(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(summary.values, [0.0, 2.0], atol=1e-15)
    r = 0.7071067811865475
    assert np.allclose(summary.vectors[:, 0], [r, r], atol=1e-12)
    assert np.allclose(summary.vectors[:, 1], [r, -r], atol=1e-12)


def test_diagonal_matrix_gives_permuted_canonical_basis():
    summary = eigen.sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(summary.values, [1.0, 2.0, 3.0])
    expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(summary.vectors, expected)


def test_rejects_non_symmetric():
    with pytest.raises(ValueError):
        eigen.sym_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_values_agree_with_full_decomposition():
    # the values-only path may use a different LAPACK driver, so compare
    # to the last few bits rather than exactly
    rng = np.random.default_rng(5)
    s = rng.standard_normal((8, 8))
    s = (s + s.T) / 2
    assert np.abs(eigen.sym_eig_values(s) - eigen.sym_eig(s).values).max() < 1e-13


def test_decomposition_properties():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        s = rng.standard_normal((n, n))
        s = (s + s.T) / 2
        summary = eigen.sym_eig(s)
        v, w = summary.vectors, summary.values
        assert np.all(np.diff(w) >= -1e-12)
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-12
        assert np.abs((v * w) @ v.T - s).max() < 1e-10
        # sign convention: the first nonzero component of each column is positive
        for k in range(n):
            lead = v[np.abs(v[:, k]) > 1e-12, k][0]
            assert lead > 0


@pytest.mark.parametrize("case", sorted(PARTIAL_PATH_CASES))
def test_top_eigenvalues_match_dense_path(case, eigsh_calls):
    a_hat, M, lanczos = partial_path_case(case)
    k = M + 1
    got = eigen.top_eigenvalues(a_hat, k)
    assert eigsh_calls == ([k] if lanczos else [])
    assert np.abs(got - np.linalg.eigvalsh(a_hat)[::-1][:k]).max() < 1e-10


def test_top_eigen_fall_back_to_dense_without_convergence(monkeypatch):
    from scipy.sparse import linalg as splinalg

    def no_convergence(*args, **kwargs):
        raise splinalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    a_hat, M, _ = partial_path_case("sbm_1024")
    monkeypatch.setattr(splinalg, "eigsh", no_convergence)
    assert np.array_equal(eigen.top_eigenvalues(a_hat, M), eigen.sym_eig_values(a_hat)[::-1][:M])
    full = eigen.sym_eig(a_hat)
    got = eigen.top_eigenpairs(a_hat, M)
    assert np.array_equal(got.values, full.values[::-1][:M])
    assert np.array_equal(got.vectors, full.vectors[:, ::-1][:, :M])


def test_top_eigen_pattern_connected_one_way_only_falls_back_to_dense(eigsh_calls):
    # two components joined by one entry, far inside the symmetry tolerance,
    # that has no mirror: connected as an undirected pattern, but not
    # strongly, so the dense path reads it
    from scipy import sparse
    from scipy.sparse import csgraph

    a = np.kron(np.eye(2), sbm.sample(paper_scaled(512, 2), (61, 3)))
    a[0, -1] = 1e-14
    assert csgraph.connected_components(sparse.csr_matrix(a), directed=False, return_labels=False) == 1
    assert np.array_equal(eigen.top_eigenvalues(a, 4), eigen.sym_eig_values(a)[::-1][:4])
    got = eigen.top_eigenpairs(a, 4)
    full = eigen.sym_eig(a)
    assert np.array_equal(got.vectors, full.vectors[:, ::-1][:, :4])
    assert eigsh_calls == []


def test_top_eigenpairs_small_input_is_dense_reversed():
    rng = np.random.default_rng(9)
    s = rng.standard_normal((7, 7))
    s = (s + s.T) / 2
    full = eigen.sym_eig(s)
    got = eigen.top_eigenpairs(s, 3)
    assert np.array_equal(got.values, full.values[::-1][:3])
    assert np.array_equal(got.vectors, full.vectors[:, ::-1][:, :3])
    assert np.array_equal(eigen.top_eigenvalues(s, 3), eigen.sym_eig_values(s)[::-1][:3])
    with pytest.raises(ValueError):
        eigen.top_eigenvalues(s, 0)
    with pytest.raises(ValueError):
        eigen.top_eigenpairs(s, 8)


def _pin_setters() -> list:
    """The thread-count setter of each loaded OpenBLAS the pin can set."""
    setters = [eigen._setter(path) for path in sorted(eigen._openblas_libraries())]
    setters = [s for s in setters if s is not None]
    if not setters:
        pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
    return setters


def _counts(setters) -> list[int]:
    # the call returns the count it replaces, so setting it back reads it
    counts = [s(1) for s in setters]
    for s, c in zip(setters, counts):
        s(c)
    return counts


@pytest.fixture
def three_blas_threads():
    """Every settable OpenBLAS at 3 threads, a count no default gives here;
    the counts before are restored afterwards."""
    setters = _pin_setters()
    before = [s(3) for s in setters]
    yield setters
    for s, c in zip(setters, before):
        s(c)


def test_one_blas_thread_restores_the_counts_on_exit_and_on_an_exception(three_blas_threads):
    with eigen.one_blas_thread():
        assert _counts(three_blas_threads) == [1] * len(three_blas_threads)
    assert _counts(three_blas_threads) == [3] * len(three_blas_threads)
    with pytest.raises(RuntimeError, match="inside"):
        with eigen.one_blas_thread():
            assert _counts(three_blas_threads) == [1] * len(three_blas_threads)
            raise RuntimeError("inside")
    assert _counts(three_blas_threads) == [3] * len(three_blas_threads)


def test_one_blas_thread_nested_and_in_two_threads(three_blas_threads):
    ones, threes = [1] * len(three_blas_threads), [3] * len(three_blas_threads)

    def pin(_):
        with eigen.one_blas_thread():
            pass

    with eigen.one_blas_thread():
        with eigen.one_blas_thread():
            assert _counts(three_blas_threads) == ones
        assert _counts(three_blas_threads) == ones
        # the pin reaches the pool's threads, which take none of their own
        assert eigen.pinned_map(lambda _: _counts(three_blas_threads), range(2), 2) == [ones] * 2
        # a pin taken and left in two other threads while this one holds
        eigen.pinned_map(pin, range(2), 2)
        assert _counts(three_blas_threads) == ones
    assert _counts(three_blas_threads) == threes


def test_one_blas_thread_yields_the_pool_size(monkeypatch, three_blas_threads):
    monkeypatch.setattr(eigen, "_cpu_count", lambda: 4)
    with eigen.one_blas_thread() as workers:
        assert workers == eigen._MAX_WORKERS == 2
    monkeypatch.setattr(eigen, "_cpu_count", lambda: 1)
    with eigen.one_blas_thread() as workers:
        assert workers == 1


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch, three_blas_threads):
    monkeypatch.setattr(eigen, "_openblas_libraries", set)
    monkeypatch.setattr(eigen, "_cpu_count", lambda: 2)
    with eigen.one_blas_thread() as workers:
        assert workers == 1
        assert _counts(three_blas_threads) == [3] * len(three_blas_threads)


def test_pinned_map_keeps_the_order_and_raises_the_first_failure():
    def fail_odd(x):
        if x % 2:
            raise ValueError(f"item {x}")
        return threading.current_thread() is threading.main_thread()

    with eigen.one_blas_thread():
        assert eigen.pinned_map(lambda x: x * x, range(7), 2) == [x * x for x in range(7)]
        assert eigen.pinned_map(fail_odd, [0, 2], 1) == [True, True]
        assert eigen.pinned_map(fail_odd, [0, 2], 2) == [False, False]
        with pytest.raises(ValueError, match="item 3"):
            eigen.pinned_map(fail_odd, [0, 3, 5], 2)


def test_one_blas_thread_under_many_threads_restores_the_counts(three_blas_threads):
    # more threads than CPUs taking and leaving the pin with a short switch
    # interval: a lost update of its holder count would leave a library at
    # one thread or restore it while a holder is inside
    inside_counts = []

    def hold():
        for _ in range(200):
            with eigen.one_blas_thread():
                inside_counts.append(_counts(three_blas_threads[:1])[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert inside_counts == [1] * (8 * 200)
    assert eigen._pin.depth == 0
    assert _counts(three_blas_threads) == [3] * len(three_blas_threads)
