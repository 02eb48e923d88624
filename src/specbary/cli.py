"""Command-line front end: sampling, barycentre runs, parameter sweeps,
pooled spectra, and contact-data ingestion.

Every command is deterministic given its --seed and writes a manifest.json
recording the parameters it ran with. Figures are emitted as CSV data; the
--gnuplot flag adds a plot script next to the data.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import alignment, barycentre, graph_core, ingest, sbm

log = logging.getLogger("specbary")


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _write_manifest(out_dir: Path, payload: dict) -> None:
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=1))


def _load_graph_dir(in_dir: Path):
    """Graphs plus optional ground truth from a manifest, or a bare CSV glob."""
    manifest_path = in_dir / "manifest.json"
    population = None
    perm_paths = []
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        graph_paths = [in_dir / p for p in manifest["graphs"]]
        if manifest.get("population"):
            population = graph_core.load_matrix(in_dir / manifest["population"])
        perm_paths = [in_dir / p for p in manifest.get("permutations") or ()]
    else:
        graph_paths = sorted(in_dir.glob("*.csv"))
    if not graph_paths:
        raise ValueError(f"no graph CSVs found in {in_dir}")
    graphs = [graph_core.load_matrix(p) for p in graph_paths]
    permutations = [graph_core.load_permutation(p) for p in perm_paths]
    # cmd_barycentre un-permutes by a gather, which checks no length; the
    # barycentre needs one node order shared by every sample
    n = len(graphs[0])
    for path, perm in zip(perm_paths, permutations):
        if len(perm) != n:
            raise ValueError(f"{path}: permutation of {len(perm)} nodes, graphs have {n}")
        if (perm != permutations[0]).any():
            raise ValueError(f"{path}: relabelling differs from {perm_paths[0]}")
    return graphs, population, permutations


def cmd_sample(args) -> None:
    """Sample T graphs from an SBM spec, all under one random relabelling.

    Sample t is drawn from the stream keyed (seed, t) and the relabelling
    from (seed, 0, 1); every sample gets a copy of the permutation file.
    """
    _check_positive("--T", [args.T])
    spec = sbm.load_spec(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # (seed, 1) would be the stream of sample 1 itself, and (seed,) that of
    # sample 0: SeedSequence pads short keys with zeros
    perm = graph_core.philox((args.seed, 0, 1)).permutation(spec.n)
    graph_files, perm_files = [], []
    for t in range(args.T):
        rows, cols = sbm.sample_edges(spec, (args.seed, t))
        graph_core.save_matrix(graph_core.edge_entries(spec.n, perm[rows], perm[cols]).dense(),
                               out / f"sample_{t:03d}.csv")
        graph_core.save_permutation(perm, out / f"permutation_{t:03d}.csv")
        graph_files.append(f"sample_{t:03d}.csv")
        perm_files.append(f"permutation_{t:03d}.csv")
    graph_core.save_matrix(sbm.population_mean(spec), out / "population.csv")

    _write_manifest(out, {
        "command": "sample",
        "spec": {"block_sizes": list(spec.block_sizes), "p": list(spec.p), "q": spec.q},
        "n": spec.n,
        "T": args.T,
        "seed": args.seed,
        "graphs": graph_files,
        "permutations": perm_files,
        "population": "population.csv",
    })
    log.info("wrote %d samples of n=%d to %s", args.T, spec.n, out)


def cmd_barycentre(args) -> None:
    """Run the pipeline on a directory of graphs and export the result."""
    if (args.M is None) == (not args.auto_M):
        raise UsageError("exactly one of --M and --auto-M is required")
    if args.M is not None:
        # M above n is a data error, found once the graphs are loaded
        _check_positive("--M", [args.M])
    in_dir = Path(args.in_dir)
    graphs, population, permutations = _load_graph_dir(in_dir)
    result = barycentre.compute_barycentre(graphs, M=args.M, seed=args.seed)

    extra = {"command": "barycentre", "T": len(graphs), "seed": args.seed, "auto_M": bool(args.auto_M)}
    if population is not None:
        # node i of the population is input node permutations[0][i]
        leaf = result.leaf[permutations[0]] if permutations else result.leaf
        extra["mse"] = barycentre.mse(population, graph_core.BlockMatrix(result.mu_blocks, leaf))
        log.info("mse against population: %.6e", extra["mse"])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    barycentre.write_result(result, out, extra_diagnostics=extra)
    _write_manifest(out, {"command": "barycentre", "in": str(in_dir), "M": result.spectrum.M,
                          "auto_M": bool(args.auto_M), "seed": args.seed, "T": len(graphs)})


def _scaled_spec(base: sbm.SbmSpec, n: int) -> sbm.SbmSpec:
    # rescale a reference model: same block fractions, p ~ (log n)^2/n, q ~ log n/n
    n0 = base.n
    log0 = math.log(n0)
    c = [p * n0 / log0**2 for p in base.p]
    cq = base.q * n0 / log0
    fractions = [s / n0 for s in base.block_sizes]
    sizes = [max(1, round(f * n)) for f in fractions[:-1]]
    sizes.append(n - sum(sizes))
    if sizes[-1] < 1:
        raise ValueError(f"n={n} too small for the base block fractions")
    logn = math.log(n)
    p = [min(1.0, ci * logn**2 / n) for ci in c]
    q = min(min(p), cq * logn / n)
    return sbm.SbmSpec(block_sizes=tuple(sizes), p=tuple(p), q=q)


def _check_positive(flag: str, values: list[int]) -> None:
    # a flag or sweep list with no value, or with a value below 1, is a usage error
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    for v in values:
        if v < 1:
            raise UsageError(f"{flag} must be >= 1, got {v}")


def _one_mse_run(spec: sbm.SbmSpec, M: int, sample_key: tuple, cluster_key: tuple) -> float:
    """Sample one permuted realization, reconstruct, and score against P."""
    rows, cols = sbm.sample_edges(spec, sample_key)
    perm = graph_core.philox((*sample_key, 1)).permutation(spec.n)
    # node i of the sample is input node perm[i], so the relabelled edges
    # are the shuffled input, handed on as its entries: no n x n array is made
    result = barycentre.compute_barycentre([graph_core.edge_entries(spec.n, perm[rows], perm[cols])],
                                           M=M, seed=cluster_key)
    # mu in the sample's labelling, and P, are both scored in block form
    return barycentre.mse(sbm.population_blocks(spec),
                          graph_core.BlockMatrix(result.mu_blocks, result.leaf[perm]))


def _write_rows(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


_SWEEP_PLOT = """set datafile separator ","
set logscale xy
set xlabel "{xlabel}"
set ylabel "median MSE"
plot "medians.csv" skip 1 using 1:2 with linespoints title "median MSE"
"""


def _run_sweep(out: Path, x_name: str, points: list[tuple[int, sbm.SbmSpec, tuple]], seeds: int,
               gnuplot: bool) -> dict[int, float]:
    """Score seeds single-sample reconstructions at each (x, spec, key) point.

    Run s at a point samples from the stream keyed (*key, s) and clusters with
    (*key, s, 2). Writes sweep.csv, medians.csv and, with gnuplot, plot.gp;
    returns the median MSE keyed by x.
    """
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    medians = {}
    for x, spec, key in points:
        errors = [_one_mse_run(spec, spec.M, (*key, s), (*key, s, 2)) for s in range(seeds)]
        rows += [(x, s, value) for s, value in enumerate(errors)]
        medians[x] = float(np.median(errors))
        log.info("%s=%d median mse %.6e", x_name, x, medians[x])

    _write_rows(out / "sweep.csv", [x_name, "seed", "mse"], rows)
    _write_rows(out / "medians.csv", [x_name, "median_mse"], sorted(medians.items()))
    if gnuplot:
        (out / "plot.gp").write_text(_SWEEP_PLOT.format(xlabel=x_name))
    return medians


def cmd_size_sweep(args) -> None:
    """MSE of single-sample reconstructions as the graph grows; log-log slope."""
    _check_positive("--n-list", args.n_list)
    _check_positive("--seeds", [args.seeds])
    base = sbm.load_spec(args.spec)
    out = Path(args.out)
    points = [(n, _scaled_spec(base, n), (args.seed, n)) for n in args.n_list]
    medians = _run_sweep(out, "n", points, args.seeds, args.gnuplot)

    slope = None
    if len(medians) >= 2:
        xs = np.log(np.array(sorted(medians)))
        ys = np.log(np.array([medians[n] for n in sorted(medians)]))
        slope = float(np.polyfit(xs, ys, 1)[0])
        log.info("fitted log-log slope: %.3f", slope)

    _write_manifest(out, {
        "command": "size-sweep",
        "base_spec": {"block_sizes": list(base.block_sizes), "p": list(base.p), "q": base.q},
        "n_list": list(args.n_list), "seeds": args.seeds, "seed": args.seed, "slope": slope,
    })


def cmd_block_sweep(args) -> None:
    """MSE of balanced-model reconstructions as the block count grows."""
    _check_positive("--n", [args.n])
    _check_positive("--m-list", args.m_list)
    _check_positive("--seeds", [args.seeds])
    n = args.n
    for M in args.m_list:
        if n % M:
            raise UsageError(f"--m-list value {M} does not divide --n {n}")
    p = min(1.0, 3 * math.log(n) ** 2 / n)
    q = min(p, 2 * math.log(n) / n)
    out = Path(args.out)
    points = [(M, sbm.balanced(n, M, p, q), (args.seed, n, M)) for M in args.m_list]
    _run_sweep(out, "M", points, args.seeds, args.gnuplot)
    _write_manifest(out, {
        "command": "block-sweep", "n": n, "p": p, "q": q,
        "m_list": list(args.m_list), "seeds": args.seeds, "seed": args.seed,
    })


_SPECTRUM_PLOT = """set datafile separator ","
set style fill solid 0.6
set xlabel "eigenvalue"
set ylabel "count"
plot "spectrum.csv" skip 1 using (($1+$2)/2):3 with boxes title "pooled spectrum"
"""


def cmd_spectrum(args) -> None:
    """Pooled normalized-Laplacian eigenvalue histogram over [0, 2]."""
    _check_positive("--bins", [args.bins])
    graphs, _, _ = _load_graph_dir(Path(args.in_dir))
    # one scan per graph checks it and finds its entries, as in compute_barycentre
    pooled = np.concatenate([
        np.linalg.eigvalsh(graph_core.normalized_laplacian(graph_core.adjacency_entries(g)))
        for g in graphs
    ])
    counts, edges = np.histogram(np.clip(pooled, 0.0, 2.0), bins=args.bins, range=(0.0, 2.0))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "spectrum.csv", ["bin_left", "bin_right", "count"],
                [(edges[k], edges[k + 1], int(counts[k])) for k in range(len(counts))])
    if args.gnuplot:
        (out / "plot.gp").write_text(_SPECTRUM_PLOT)
    _write_manifest(out, {"command": "spectrum", "in": str(args.in_dir), "bins": args.bins,
                          "graphs": len(graphs), "eigenvalues": int(counts.sum())})


def cmd_ingest(args) -> None:
    """Parse a contact file and write windowed snapshot graphs."""
    _check_positive("--width", [args.width])
    contacts = ingest.load_contacts(args.contacts)
    series = ingest.window_graphs(contacts, args.start, args.end, args.width)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    graph_files = []
    for k, g in enumerate(series.graphs):
        name = f"snapshot_{k:03d}.csv"
        graph_core.save_matrix(g, out / name)
        graph_files.append(name)
    _write_manifest(out, {
        "command": "ingest", "source": str(args.contacts),
        "start": args.start, "end": args.end, "width": args.width,
        "n": len(series.node_ids), "node_ids": list(series.node_ids),
        "window_bounds": [list(b) for b in series.window_bounds],
        "graphs": graph_files,
    })
    log.info("wrote %d snapshots on %d nodes to %s", len(graph_files), len(series.node_ids), out)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="specbary",
                                     description="Spectral barycentres of graph ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample SBM graphs to CSV files")
    p.add_argument("--spec", required=True, help="SbmSpec JSON file")
    p.add_argument("--T", type=int, default=1, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("barycentre", help="compute the barycentre of a graph directory")
    p.add_argument("--in", dest="in_dir", required=True, help="directory of graph CSVs")
    p.add_argument("--M", type=int, default=None, help="community count")
    p.add_argument("--auto-M", dest="auto_M", action="store_true",
                   help="estimate the community count from the mean spectrum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_barycentre)

    p = sub.add_parser("size-sweep", help="reconstruction error versus graph size")
    p.add_argument("--spec", required=True, help="base SbmSpec JSON file to rescale")
    p.add_argument("--n-list", dest="n_list", type=_int_list, required=True)
    p.add_argument("--seeds", type=int, default=10, help="runs per size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--gnuplot", action="store_true", help="also write a plot script")
    p.set_defaults(func=cmd_size_sweep)

    p = sub.add_parser("block-sweep", help="reconstruction error versus block count")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--m-list", dest="m_list", type=_int_list, default=[2, 4, 8, 16, 32, 64])
    p.add_argument("--seeds", type=int, default=10, help="runs per block count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--gnuplot", action="store_true", help="also write a plot script")
    p.set_defaults(func=cmd_block_sweep)

    p = sub.add_parser("spectrum", help="pooled eigenvalue histogram of a graph directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--out", required=True)
    p.add_argument("--gnuplot", action="store_true", help="also write a plot script")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ingest", help="window a contact file into snapshot graphs")
    p.add_argument("--contacts", required=True, help="contact edge list (.gz accepted)")
    p.add_argument("--start", type=int, default=ingest.MORNING_START,
                   help="window range start in seconds (default: school morning)")
    p.add_argument("--end", type=int, default=ingest.MORNING_END)
    p.add_argument("--width", type=int, default=ingest.MORNING_WIDTH,
                   help="window width in seconds (347 splits the school afternoon into 26)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (alignment.ClusteringError, np.linalg.LinAlgError, FloatingPointError) as exc:
        log.error("numerical failure: %s", exc)
        return 4
    except (ingest.ParseError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        log.error("%s", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
