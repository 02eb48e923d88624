"""Shared test utilities: random Soules trees, pipeline run helpers, and the
inputs on which the Lanczos and dense eigensolver paths are compared."""

import numpy as np

from specbary import barycentre, graph_core, sbm
from specbary.soules import SoulesSplit, SoulesTree


def random_tree(rng: np.random.Generator, n: int, n_splits: int | None = None) -> SoulesTree:
    """A SoulesTree built by splitting uniformly random leaves at random cuts."""
    if n_splits is None:
        n_splits = int(rng.integers(0, n))
    splits = []
    leaves = [(1, n)]
    for level in range(1, n_splits + 1):
        wide = [(a, b) for a, b in leaves if b > a]
        if not wide:
            break
        a, b = wide[rng.integers(len(wide))]
        istar = int(rng.integers(a, b))
        splits.append(SoulesSplit(i0=a, i1=b, istar=istar, level=level))
        leaves.remove((a, b))
        leaves += [(a, istar), (istar + 1, b)]
    return SoulesTree(n=n, splits=tuple(splits))


def random_complete_tree(rng: np.random.Generator, n: int) -> SoulesTree:
    return random_tree(rng, n, n_splits=n - 1)


def permuted_run_mse(spec: sbm.SbmSpec, key: tuple) -> float:
    """One survey run: sample, relabel randomly, reconstruct, score against P.

    The sample and the permutation get independent streams derived from key;
    the clustering seed is a third stream so runs are fully reproducible.
    """
    a = sbm.sample(spec, key)
    perm_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((*key, 1))))
    perm = perm_rng.permutation(spec.n)
    shuffled = graph_core.permute(a, perm)
    result = barycentre.compute_barycentre([shuffled], M=spec.M, seed=(*key, 2))
    mu = graph_core.permute(result.mu_hat, graph_core.invert_permutation(perm))
    return barycentre.mse(sbm.population_mean(spec), mu)


def four_block_spec(c: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)) -> sbm.SbmSpec:
    """The four-community reference model: n=512, uneven blocks, sparse scaling."""
    n = 512
    logn = np.log(n)
    p = tuple(ci * logn**2 / n for ci in c)
    return sbm.SbmSpec(block_sizes=(63, 147, 105, 197), p=p, q=2 * logn / n)


def _paper_scaled(n: int, M: int) -> sbm.SbmSpec:
    logn = np.log(n)
    return sbm.balanced(n, M, 3 * logn**2 / n, 2 * logn / n)


def _cycle(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def _weighted(a: np.ndarray, key) -> np.ndarray:
    w = np.random.Generator(np.random.Philox(np.random.SeedSequence(key))).uniform(0.5, 2.0, a.shape)
    w = np.triu(w) + np.triu(w, 1).T
    return a * w


def _isolate(a: np.ndarray, every: int) -> np.ndarray:
    # drop every edge of each every-th node
    keep = np.arange(a.shape[0]) % every != 0
    return a * np.outer(keep, keep)


# name -> (adjacency builder, M, whether the Lanczos path applies to it)
PARTIAL_PATH_CASES = {
    "sbm_1024": (lambda: sbm.sample(_paper_scaled(1024, 4), (61, 0)), 4, True),
    "sbm_2048": (lambda: sbm.sample(_paper_scaled(2048, 4), (61, 1)), 4, True),
    "four_block": (lambda: sbm.sample(four_block_spec(), (61, 2)), 4, True),
    # eigenvalue (p - q) / (p + 3q) of multiplicity M - 1 = 3, exactly
    "balanced_population": (lambda: sbm.population_mean(sbm.balanced(1024, 4, 0.5, 0.1)), 4, True),
    # every eigenvalue but the top one doubled; M = 5 ends after a full pair
    "cycle": (lambda: _cycle(512), 5, True),
    "disconnected": (lambda: np.kron(np.eye(2), sbm.sample(_paper_scaled(512, 2), (61, 3))), 4, False),
    "isolated_nodes": (lambda: _isolate(sbm.sample(_paper_scaled(1024, 4), (61, 4)), 100), 4, False),
    "weighted": (lambda: _weighted(sbm.sample(_paper_scaled(1024, 4), (61, 5)), (61, 6)), 4, True),
}


def partial_path_case(name: str) -> tuple[np.ndarray, int, bool]:
    """The normalized adjacency of a named case, its M, and whether Lanczos applies."""
    build, M, lanczos = PARTIAL_PATH_CASES[name]
    return graph_core.normalized_adjacency(build()), M, lanczos
