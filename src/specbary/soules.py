"""Soules bases: orthonormal bases built by recursive interval splitting.

The first vector is the constant unit vector. Every later vector comes from
splitting an interval [i0, i1] at position istar (indices are 1-based and
inclusive throughout this module): the vector is a positive constant on
[i0, istar], a negative constant on [istar+1, i1], and zero elsewhere, scaled
to unit norm and orthogonal to every earlier vector. The splits form a binary
tree over [1, n]; the leaves after M-1 splits are the recovered node blocks.

Partial sums of the rank-one projectors of such a basis are entrywise
nonnegative, which is what makes the basis usable for synthesizing symmetric
nonnegative matrices with a prescribed spectrum.
"""

from dataclasses import dataclass, field

import numpy as np

from . import graph_core


@dataclass(frozen=True)
class SoulesSplit:
    """One interval split: [i0, i1] divides into [i0, istar] and [istar+1, i1].

    level is the creation index; the split at level l defines basis vector
    l + 1 (the constant vector is vector 1 and has no split).
    """

    i0: int
    i1: int
    istar: int
    level: int

    def __post_init__(self):
        if not 1 <= self.i0 <= self.istar < self.i1:
            raise ValueError(f"invalid split ({self.i0}, {self.i1}) at {self.istar}")
        if self.level < 1:
            raise ValueError(f"split level must be >= 1, got {self.level}")


def _replay(n: int, splits: tuple[SoulesSplit, ...]) -> set[tuple[int, int]]:
    """The leaves of [1, n] after the splits in order; raises ValueError when
    a split does not divide a current leaf."""
    leaves = {(1, n)}
    for s in splits:
        if (s.i0, s.i1) not in leaves:
            raise ValueError(f"split ({s.i0}, {s.i1}) does not match a current leaf")
        leaves.remove((s.i0, s.i1))
        leaves.add((s.i0, s.istar))
        leaves.add((s.istar + 1, s.i1))
    return leaves


@dataclass(frozen=True)
class SoulesTree:
    """An ordered sequence of splits of [1, n]."""

    n: int
    splits: tuple[SoulesSplit, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "splits", tuple(self.splits))
        if self.n < 1:
            raise ValueError("tree needs n >= 1")
        _replay(self.n, self.splits)

    def leaves(self, depth: int | None = None) -> list[tuple[int, int]]:
        """Interval partition of [1, n] after the first depth-1 splits.

        depth counts basis vectors (the constant vector included); the default
        applies every split. Leaves are returned sorted by left endpoint.
        """
        k = len(self.splits) if depth is None else depth - 1
        if not 0 <= k <= len(self.splits):
            raise ValueError(f"depth {depth} outside 1..{len(self.splits) + 1}")
        return sorted(_replay(self.n, self.splits[:k]))


@dataclass(frozen=True)
class SoulesBasis:
    """A tree together with the matrix of its basis vectors.

    vectors has shape (n, K); column 0 is the constant vector and column k is
    built from splits[k-1]. K = n means the basis is complete.
    """

    tree: SoulesTree
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def K(self) -> int:
        return self.vectors.shape[1]

    @property
    def is_complete(self) -> bool:
        return self.K == self.n


def build_vector(n: int, split: SoulesSplit) -> np.ndarray:
    """The unit vector for one split: positive on [i0, istar], negative after."""
    if split.i1 > n:
        raise ValueError(f"split endpoint {split.i1} exceeds n={n}")
    L = split.i1 - split.i0 + 1
    r0 = split.istar - split.i0 + 1
    r1 = split.i1 - split.istar
    v = np.zeros(n)
    v[split.i0 - 1 : split.istar] = np.sqrt(r1 / r0) / np.sqrt(L)
    v[split.istar : split.i1] = -np.sqrt(r0 / r1) / np.sqrt(L)
    return v


def rank_one_projection(n: int, split: SoulesSplit) -> np.ndarray:
    """The outer product of the split vector with itself, in closed form.

    Inside [i0, i1] the matrix is constant on the four blocks induced by the
    split: r1/(L r0) on the top-left square, r0/(L r1) on the bottom-right,
    -1/L on the two cross blocks, and zero outside. Its trace is 1.
    """
    if split.i1 > n:
        raise ValueError(f"split endpoint {split.i1} exceeds n={n}")
    L = split.i1 - split.i0 + 1
    r0 = split.istar - split.i0 + 1
    r1 = split.i1 - split.istar
    lo = slice(split.i0 - 1, split.istar)
    hi = slice(split.istar, split.i1)
    out = np.zeros((n, n))
    out[lo, lo] = r1 / (L * r0)
    out[hi, hi] = r0 / (L * r1)
    out[lo, hi] = -1.0 / L
    out[hi, lo] = -1.0 / L
    return out


def materialize(tree: SoulesTree, depth: int | None = None) -> SoulesBasis:
    """Basis vectors for the first depth vectors of a tree (all by default)."""
    k = len(tree.splits) + 1 if depth is None else depth
    if not 1 <= k <= len(tree.splits) + 1:
        raise ValueError(f"depth {depth} outside 1..{len(tree.splits) + 1}")
    vecs = np.empty((tree.n, k))
    vecs[:, 0] = 1.0 / np.sqrt(tree.n)
    for j, split in enumerate(tree.splits[: k - 1]):
        vecs[:, j + 1] = build_vector(tree.n, split)
    sub = SoulesTree(n=tree.n, splits=tree.splits[: k - 1])
    return SoulesBasis(tree=sub, vectors=vecs)


def cumulative_projector(basis: SoulesBasis, M: int) -> np.ndarray:
    """E_M, the sum of the first M rank-one projectors.

    Equals 1/|J| on each depth-M leaf block J and zero off those blocks; for a
    complete basis E_n is the identity.
    """
    if not 1 <= M <= basis.K:
        raise ValueError(f"M={M} outside 1..{basis.K}")
    V = basis.vectors[:, :M]
    return V @ V.T


def synthesize_symmetric(basis: SoulesBasis, values: np.ndarray) -> np.ndarray:
    """Psi diag(values) Psi^T for a complete basis and non-increasing values.

    With values non-increasing the off-diagonal entries are nonnegative; with
    values[n-1] >= 0 the whole matrix is. To synthesize a Laplacian-signed
    matrix from an ascending spectrum, pass the negated spectrum and negate
    the result.
    """
    values = np.asarray(values, dtype=float)
    if not basis.is_complete:
        raise ValueError(f"basis has {basis.K} of {basis.n} columns; completion required")
    if values.shape != (basis.n,):
        raise ValueError(f"expected {basis.n} eigenvalues, got shape {values.shape}")
    if np.any(np.diff(values) > 1e-12):
        raise ValueError("eigenvalues must be non-increasing")
    return (basis.vectors * values) @ basis.vectors.T


def inner_product_score(s: np.ndarray, split: SoulesSplit) -> float:
    """Squared Frobenius inner product of the split's projector with s.

    Uses the piecewise-constant structure: only the three distinct block sums
    of s over the split are formed, never the vector or the projector.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if split.i1 > n:
        raise ValueError(f"split endpoint {split.i1} exceeds n={n}")
    lo = slice(split.i0 - 1, split.istar)
    hi = slice(split.istar, split.i1)
    L = split.i1 - split.i0 + 1
    r0 = split.istar - split.i0 + 1
    r1 = split.i1 - split.istar
    s00 = float(s[lo, lo].sum())
    s11 = float(s[hi, hi].sum())
    s01 = float(s[lo, hi].sum())
    val = (r1 / (L * r0)) * s00 + (r0 / (L * r1)) * s11 - (2.0 / L) * s01
    return val * val


def _leaf_best(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, a: int, b: int,
               noise_floor: float) -> tuple[float, int]:
    """The best (score, istar) over the cuts istar = a..b-1 of leaf [a, b],
    from the leaf's own entries (0-based rows and cols in a-1..b-1, any order).

    With t the 0-based offset in the leaf, s00(t) sums the entries whose
    larger offset is at most t and s0b(t) those whose row offset is, so
    both are cumulative sums of one bincount each.
    """
    L = b - a + 1
    s00 = np.cumsum(np.bincount(np.maximum(rows, cols) - (a - 1), weights=values, minlength=L))[:-1]
    s0b = np.cumsum(np.bincount(rows - (a - 1), weights=values, minlength=L))
    stot = s0b[-1]
    s0b = s0b[:-1]
    r0 = np.arange(1.0, L)
    r1 = L - r0
    s01 = s0b - s00
    s11 = stot - s00 - 2.0 * s01
    val = (r1 / (L * r0)) * s00 + (r0 / (L * r1)) * s11 - (2.0 / L) * s01
    scores = val * val
    scores[scores <= noise_floor] = 0.0
    k = int(np.argmax(scores))
    return float(scores[k]), a + k


def best_soules_basis(s: np.ndarray | graph_core.Entries, depth: int,
                      perm: np.ndarray | None = None) -> SoulesBasis:
    """Greedy tree search for the basis best aligned with a symmetric matrix.

    At each level every current leaf [i0, i1] and every cut position
    istar in [i0, i1-1] is scored by the squared inner product of the would-be
    projector with s; the best split wins and its vector joins the basis.
    Ties go to the smallest i0, then the smallest istar. The search stops once
    depth vectors exist (the constant vector counts as the first).

    The search reads s as its graph_core.symmetric_entries, in their order.
    A leaf's block sums are cumulative sums over its own entries, so scoring
    a leaf costs O(L + its entries) and needs no n x n scratch. Each leaf is
    scored once; a split hands each child the entries inside it.

    Args:
      s: square symmetric matrix, typically a sample mean adjacency, dense
        or as its Entries.
      depth: number of basis vectors to select, between 1 and n.
      perm: the search runs on s with node i moved to row perm[i], as
        graph_core.permute(s, perm) would place it, and with no permuted
        copy; the identity by default.

    Returns:
      A SoulesBasis with depth columns and depth-1 recorded splits.
    """
    e = graph_core.symmetric_entries(s)
    n, rows, cols, values = e.n, e.rows, e.cols, e.values
    if perm is not None:
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("perm is not a permutation of 0..n-1")
        rows, cols = perm[rows], perm[cols]
    if not 1 <= depth <= n:
        raise ValueError(f"depth {depth} outside 1..{n}")

    # scores at the rounding noise of the block sums count as exact zeros,
    # otherwise summation-order jitter would decide ties on structureless input
    mass = max(1.0, float(np.abs(values).sum()))
    noise_floor = (64.0 * np.finfo(float).eps * mass) ** 2

    # one table of candidate leaves, (i0, i1) -> (score, istar, rows, cols,
    # values): a leaf of two or more nodes is scored at the level after its
    # split and keeps its entries; entries across a cut lie in no later leaf
    table: dict[tuple[int, int], tuple] = {}
    new = [(1, n, rows, cols, values)]
    splits: list[SoulesSplit] = []
    for level in range(1, depth):
        for a, b, *entries in new:
            if b > a:
                table[(a, b)] = (*_leaf_best(*entries, a, b, noise_floor), *entries)
        if not table:
            raise ValueError(f"no splittable leaf left at depth {level + 1}")
        # the highest score wins, then the leftmost leaf
        a, b = max(table, key=lambda leaf: (table[leaf][0], -leaf[0]))
        _, istar, r, c, v = table.pop((a, b))
        splits.append(SoulesSplit(i0=a, i1=b, istar=istar, level=level))
        # 0-based, the left child holds rows and columns below istar
        left, right = (r < istar) & (c < istar), (r >= istar) & (c >= istar)
        new = [(a, istar, r[left], c[left], v[left]), (istar + 1, b, r[right], c[right], v[right])]

    return materialize(SoulesTree(n=n, splits=tuple(splits)))


def complete_basis(basis: SoulesBasis) -> SoulesBasis:
    """Extend a basis to n columns by splitting leaves left to right at their
    midpoints. Scores play no role past the greedy depth."""
    if basis.is_complete:
        return basis
    splits = list(basis.tree.splits)
    # pre-order: the leftmost splittable leaf is always the next one split
    stack = basis.tree.leaves()[::-1]
    while stack:
        a, b = stack.pop()
        if b > a:
            istar = (a + b - 1) // 2
            splits.append(SoulesSplit(i0=a, i1=b, istar=istar, level=len(splits) + 1))
            stack += [(istar + 1, b), (a, istar)]
    return materialize(SoulesTree(n=basis.n, splits=tuple(splits)))
