"""Whole-system acceptance checks.

One test per guarantee the package is sold on, each with a fixed tolerance
and, where meaningful, a wall-clock budget. Every test prints a single
``ACCEPTANCE <name>: PASS (<detail>)`` line on success, so a verbose run
reads as a checklist. Tolerances are asserted, never loosened to fit; if a
check fails here the library is wrong, not the test.
"""

import io
import json
import time
from itertools import product

import numpy as np

from specbary import barycentre, cli, eigen, graph_core, ingest, sbm
from specbary import soules as so
from helpers import four_block_spec, permuted_run_mse, random_complete_tree, random_tree


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_soules_orthonormality():
    """Complete bases are orthonormal and resolve the identity, any tree shape."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(101)))
    worst_gram = 0.0
    worst_resolution = 0.0
    for n in (8, 64, 256):
        for _ in range(200):
            basis = so.materialize(random_complete_tree(rng, n))
            psi = basis.vectors
            worst_gram = max(worst_gram, np.abs(psi.T @ psi - np.eye(n)).max())
            e_n = so.cumulative_projector(basis, n)
            worst_resolution = max(worst_resolution, np.abs(e_n - np.eye(n)).max())
    elapsed = time.perf_counter() - start
    assert worst_gram <= 1e-10
    assert worst_resolution <= 1e-10
    assert elapsed < 30.0
    _report("soules-orthonormality",
            f"600 trees, max Gram dev {worst_gram:.2e}, max resolution dev "
            f"{worst_resolution:.2e}, {elapsed:.1f}s")


def test_criterion_02_projector_closed_forms():
    """Rank-one and cumulative projectors match their explicit counterparts."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(102)))
    worst_rank_one = 0.0
    worst_cumulative = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 129))
        tree = random_tree(rng, n)
        basis = so.materialize(tree)
        for split in tree.splits:
            psi = so.build_vector(n, split)
            dev = np.abs(so.rank_one_projection(n, split) - np.outer(psi, psi)).max()
            worst_rank_one = max(worst_rank_one, dev)
        for M in (1, basis.K):
            leaf_form = np.zeros((n, n))
            for a, b in tree.leaves(depth=M):
                leaf_form[a - 1 : b, a - 1 : b] = 1.0 / (b - a + 1)
            dev = np.abs(so.cumulative_projector(basis, M) - leaf_form).max()
            worst_cumulative = max(worst_cumulative, dev)
    elapsed = time.perf_counter() - start
    assert worst_rank_one <= 1e-12
    assert worst_cumulative <= 1e-12
    assert elapsed < 10.0
    _report("closed-form-projectors",
            f"100 trees, rank-one dev {worst_rank_one:.2e}, leaf-form dev "
            f"{worst_cumulative:.2e}, {elapsed:.1f}s")


def test_criterion_03_nonnegative_synthesis():
    """Descending nonnegative spectra give entrywise nonnegative matrices;
    ascending Laplacian spectra give nonpositive off-diagonals and zero row
    sums once the constant vector carries the zero eigenvalue."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(103)))
    min_entry = np.inf
    max_off_diagonal = -np.inf
    worst_row_sum = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 129))
        basis = so.materialize(random_complete_tree(rng, n))

        descending = np.sort(rng.uniform(0.0, 3.0, size=n))[::-1]
        synth = so.synthesize_symmetric(basis, descending)
        min_entry = min(min_entry, synth.min())

        ascending = np.sort(rng.uniform(0.0, 2.0, size=n))
        ascending[0] = 0.0
        lap = -so.synthesize_symmetric(basis, -ascending)
        off = lap[~np.eye(n, dtype=bool)]
        if off.size:
            max_off_diagonal = max(max_off_diagonal, off.max())
        worst_row_sum = max(worst_row_sum, np.abs(lap.sum(axis=1)).max())
    assert min_entry >= -1e-12
    assert max_off_diagonal <= 1e-12
    assert worst_row_sum <= 1e-9
    _report("nonnegative-synthesis",
            f"100 pairs, min entry {min_entry:.2e}, max off-diag "
            f"{max_off_diagonal:.2e}, max |row sum| {worst_row_sum:.2e}")


def test_criterion_04_split_scores_peak_at_boundary():
    """On any two-block interval with p0 + p1 > 2q the split score is strictly
    maximized at the block boundary; checked exhaustively up to length 21."""
    start = time.perf_counter()
    grid = np.linspace(0.1, 0.9, 5)
    combos = [(p0, p1, q) for p0, p1, q in product(grid, grid, grid) if p0 + p1 > 2 * q]
    checked = 0
    for length in range(2, 22):
        for offset in (0, 3):
            i0, i1 = 1 + offset, length + offset
            n = i1 + 2
            lo, hi = i0 - 1, i1  # 0-based slice bounds of the interval
            for j in range(i0, i1):
                for p0, p1, q in combos:
                    s = np.full((n, n), q)
                    s[lo:j, lo:j] = p0
                    s[j:hi, j:hi] = p1
                    scores = np.array([
                        so.inner_product_score(s, so.SoulesSplit(i0=i0, i1=i1, istar=k, level=1))
                        for k in range(i0, i1)
                    ])
                    best = j - i0
                    others = np.delete(scores, best)
                    assert others.size == 0 or scores[best] > others.max(), (
                        f"boundary {j} not optimal on [{i0},{i1}] with "
                        f"p0={p0}, p1={p1}, q={q}: scores {scores}"
                    )
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("split-optimality", f"{checked} configurations, {elapsed:.1f}s")


def test_criterion_05_population_block_recovery():
    """Greedy basis search on the population mean finds the exact blocks."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(411)))
    for _ in range(50):
        M = int(rng.integers(2, 9))
        n = int(rng.integers(4 * M, 257))
        extra = n - 2 * M
        cuts = np.sort(rng.integers(0, extra + 1, size=M - 1))
        sizes = tuple(int(2 + e) for e in np.diff(np.concatenate([[0], cuts, [extra]])))
        p = tuple(rng.uniform(0.3, 0.9, size=M).tolist())
        while len(set(p)) < M:
            p = tuple(rng.uniform(0.3, 0.9, size=M).tolist())
        spec = sbm.SbmSpec(block_sizes=sizes, p=p, q=float(rng.uniform(0.05, 0.25)))

        basis = so.best_soules_basis(sbm.population_mean(spec), depth=M)
        bounds = np.cumsum((0,) + sizes)
        expected = sorted((int(bounds[k] + 1), int(bounds[k + 1])) for k in range(M))
        assert basis.tree.leaves(depth=M) == expected, f"missed blocks of {spec}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("block-recovery", f"50 random specs recovered exactly, {elapsed:.1f}s")


def test_criterion_06_population_fixed_point():
    """Fed its own population mean, the pipeline returns it (up to rounding)."""
    worst = 0.0
    for M in (2, 4, 8):
        for n in (128, 512):
            spec = sbm.balanced(n, M, 0.5, 0.1)
            population = sbm.population_mean(spec)
            result = barycentre.compute_barycentre([population], M=M, seed=0)
            worst = max(worst, np.abs(result.mu_hat - population).max())
    assert worst <= 1e-6
    _report("population-fixed-point", f"6 balanced models, max dev {worst:.2e}")


def test_criterion_07_eigenvalue_concentration():
    """Leading sample eigenvalues sit within 3 sqrt(log n / n) of their
    limits in at least 95 of 100 seeds at n = 2000."""
    start = time.perf_counter()
    spec = sbm.balanced(2000, 4, 0.3, 0.05)
    limits = sbm.limit_eigenvalues(spec)[:4]
    tolerance = 3.0 * np.sqrt(np.log(spec.n) / spec.n)
    hits = 0
    worst = 0.0
    for s in range(100):
        a = sbm.sample(spec, (701, s))
        lam = 1.0 - eigen.top_eigenvalues(graph_core.normalized_adjacency(a), 4)
        dev = np.abs(lam - limits).max()
        worst = max(worst, dev)
        hits += dev <= tolerance
    elapsed = time.perf_counter() - start
    assert hits >= 95
    assert elapsed < 300.0
    _report("eigenvalue-concentration",
            f"{hits}/100 seeds within {tolerance:.4f} (worst dev {worst:.4f}), "
            f"{elapsed:.0f}s")


def test_criterion_08_single_sample_reconstruction_error():
    """Median MSE of one-sample reconstructions of the four-block reference
    model stays below 1e-4, with fresh scaling factors each run."""
    start = time.perf_counter()
    c_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(97)))
    errors = [
        permuted_run_mse(four_block_spec(tuple(c_rng.uniform(1.0, 4.0, size=4).tolist())), (97, r))
        for r in range(20)
    ]
    median = float(np.median(errors))
    elapsed = time.perf_counter() - start
    assert median <= 1e-4
    assert elapsed < 180.0
    _report("single-sample-mse",
            f"median {median:.3e} over 20 runs (max {max(errors):.3e}), {elapsed:.0f}s")


def test_criterion_09_error_decay_with_size(tmp_path):
    """The size sweep's fitted log-log slope shows the expected decay rate."""
    start = time.perf_counter()
    spec_path = tmp_path / "base.json"
    sbm.save_spec(four_block_spec(), spec_path)
    out = tmp_path / "sweep"
    code = cli.main(["size-sweep", "--spec", str(spec_path),
                     "--n-list", "128,256,512,1024", "--seeds", "10",
                     "--seed", "29", "--out", str(out)])
    assert code == 0
    slope = json.loads((out / "manifest.json").read_text())["slope"]
    elapsed = time.perf_counter() - start
    assert -2.3 <= slope <= -1.3
    assert elapsed < 900.0
    _report("size-sweep-slope", f"slope {slope:.3f} over n=128..1024, {elapsed:.0f}s")


def test_criterion_10_error_growth_with_blocks(tmp_path):
    """More blocks at fixed size means strictly worse reconstruction."""
    out = tmp_path / "sweep"
    code = cli.main(["block-sweep", "--n", "1024", "--m-list", "4,32",
                     "--seeds", "10", "--seed", "43", "--out", str(out)])
    assert code == 0
    rows = (out / "medians.csv").read_text().strip().splitlines()[1:]
    medians = {int(m): float(v) for m, v in (r.split(",") for r in rows)}
    assert medians[32] > medians[4]
    _report("block-sweep-monotonicity",
            f"median MSE M=32 {medians[32]:.3e} > M=4 {medians[4]:.3e}")


def test_criterion_11_degree_estimator_tail_bound():
    """Within-block degree estimates respect their concentration band: the
    empirical tail stays below the nominal 0.05 level the band is set at."""
    spec = sbm.balanced(48, 2, 0.5, 0.1)
    s = 24
    blocks = ((1, 24), (25, 48))
    target = (s - 1) * 0.5
    trials = 500
    for T in (1, 10, 100):
        delta = np.sqrt(s * (s - 1) * np.log(20.0) / (4.0 * T))
        exceedances = np.zeros(2)
        for trial in range(trials):
            mean = np.mean([sbm.sample(spec, (811, T, trial, t)) for t in range(T)], axis=0)
            estimate = barycentre.estimate_block_degrees(mean, blocks).values
            exceedances += np.abs(estimate - target) >= delta
        rates = exceedances / trials
        assert rates.max() < 0.05, f"T={T}: tail rates {rates} at delta {delta:.3f}"
        _report("degree-tail-bound",
                f"T={T}: max tail rate {rates.max():.3f} at delta {delta:.2f}")


def test_criterion_12_contact_day_pipeline(tmp_path):
    """A full school day of contacts windows into 35 morning snapshots whose
    spectra expose ten communities, and the barycentre reports all ten."""
    events = ingest.parse_contacts(io.StringIO(ingest.synthetic_school_day(seed=0)))
    series = ingest.window_graphs(
        events, ingest.MORNING_START, ingest.MORNING_END, ingest.MORNING_WIDTH
    )
    assert len(series.graphs) == 35

    below = [
        int((eigen.sym_eig_values(graph_core.normalized_laplacian(g)) < 0.9).sum())
        for g in series.graphs
    ]
    assert min(below) >= 10

    result = barycentre.compute_barycentre(list(series.graphs), M=None, seed=0)
    assert result.spectrum.M == 10
    barycentre.write_result(result, tmp_path)
    diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
    assert len(diagnostics["leaf_blocks"]) == 10
    _report("school-pipeline",
            f"35 snapshots, min {min(below)} eigenvalues below 0.9, "
            f"10 leaf blocks recovered")
