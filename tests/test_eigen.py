"""Symmetric eigendecomposition wrapper: ordering, signs, reconstruction,
and the Lanczos path for the largest eigenvalues against the dense one."""

import numpy as np
import pytest
from helpers import PARTIAL_PATH_CASES, partial_path_case

from specbary import eigen


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
