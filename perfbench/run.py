"""Benchmark entry point.

  python3 perfbench/run.py --workload ensemble --seed 0 --seconds 20 --trace 0

runs one workload in this process and prints its metrics, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
--trace 1 gives the per-layer metrics instead of the end-to-end ones.

Without --workload, every workload runs in a fresh process of its own, so
that each peak_rss_mb is that workload's alone, and a table of all metrics
follows. See NOTES.md for the workloads and the metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import environment  # noqa: E402

WORKLOAD_NAMES = ("ensemble", "blocks", "contacts")


def _default_seconds() -> int:
    try:
        return int(json.loads((environment.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 20


def run_one(args) -> int:
    if not (environment.SRC / "specbary" / "__init__.py").is_file():
        print(f"error: no specbary sources under {environment.SRC}", file=sys.stderr)
        return 2
    environment.pin_blas_threads()
    sys.path.insert(0, str(environment.SRC))
    import harness
    import specbary
    from workloads import WORKLOADS

    if Path(specbary.__file__).resolve().parent != environment.SRC / "specbary":
        print(f"error: specbary imported from {specbary.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    run = harness.measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                          bool(args.trace), import_s)
    print(json.dumps(harness.report(run)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; then one table of every metric."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, "failed_ratio", result["failed"] / result["attempted"], "ratio"))
        rows += [(name, metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
    print()
    for name, metric, value, unit in rows:
        print(f"{name:<10} {metric:<40} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload here (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _default_seconds()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
