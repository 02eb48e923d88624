"""One benchmark run of one workload: set-up, warm-up, the timed jobs, the
output checks, and the metrics.

Set-up makes the inputs SETUP_REPEATS times and keeps the median, then runs
one warm-up job, so first-call costs land in setup_s and not in wall_s. Jobs
then run back to back (a closed loop, one client) until the run has measured
for the given number of seconds. With tracing on, untraced and traced jobs
alternate: end-to-end times come from the untraced jobs, per-layer metrics
from the traced ones.
"""

import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import environment
import tracing

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
NEST_TOL_S = 1e-6

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "mse": "1",
                    "block_purity": "ratio"}


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    import_s: float
    prepare_s: list = field(default_factory=list)
    warmup_s: float = 0.0
    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    qualities: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def metrics(self) -> dict:
        """The end-to-end metrics, or with tracing on the per-layer ones."""
        if self.trace:
            units = tracing.layer_metric_units()
            jobs = self.layers or [dict.fromkeys(units, 0.0)]  # every traced job raised
            values = {name: statistics.median(job[name] for job in jobs) for name in units}
            values["trace_overhead_s"] = (statistics.median(self.traced_walls)
                                          - statistics.median(self.walls))
            units["trace_overhead_s"] = "s"
        else:
            units = END_TO_END_UNITS
            values = {
                "wall_s": statistics.median(self.walls),
                "setup_s": self.import_s + statistics.median(self.prepare_s) + self.warmup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            for name in ("mse", "block_purity"):
                seen = [q[name] for q in self.qualities if name in q]
                values[name] = statistics.median(seen) if seen else 0.0
        return {name: {"value": values[name], "unit": units[name]} for name in units}


def _job(workload, run: Run, corrupt=None, tracer=None, job_id=None) -> float:
    """Run and check one job; returns its wall seconds."""
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run()
        else:
            with tracer, tracer.job(job_id):
                output = workload.run()
    except Exception:
        wall = time.perf_counter() - start
        _record(run, {}, [traceback.format_exc()])
        return wall
    wall = time.perf_counter() - start
    try:
        if corrupt is not None:
            corrupt(output)
        quality, problems = workload.check(output)
    except Exception:
        quality, problems = {}, [traceback.format_exc()]
    finally:
        workload.cleanup(output)
    if tracer is not None:
        layer = tracing.job_metrics(tracer.job_spans(job_id))
        self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        if abs(self_total - layer["job.s"]) > NEST_TOL_S or layer["job.s"] > wall:
            problems.append(f"span self times sum to {self_total:.6f} s, job span "
                            f"{layer['job.s']:.6f} s, traced wall {wall:.6f} s")
        run.layers.append(layer)
    _record(run, quality, problems)
    return wall


def _record(run: Run, quality: dict, problems: list) -> None:
    run.attempted += 1
    run.qualities.append(quality)
    if problems:
        run.failed += 1
        run.problems.extend(problems)
        for problem in problems:
            print(f"{run.workload} job {run.attempted}: {problem}", file=sys.stderr)


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
            corrupt=None) -> Run:
    """One run: set-up, warm-up, then jobs for `seconds` seconds.

    corrupt, when given, alters each job's output before its check; the
    harness self-test uses it to show that a wrong output counts as failed.
    """
    run = Run(workload=workload.name, seed=seed, trace=trace, import_s=import_s)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare(seed, workdir)
            run.prepare_s.append(time.perf_counter() - start)
        run.warmup_s = _job(workload, run, corrupt)

        tracer = tracing.Tracer() if trace else None
        start = time.perf_counter()
        job_id = 0
        while (time.perf_counter() - start < seconds or not run.walls
               or (trace and not run.traced_walls)):
            gc.collect()
            if trace and job_id % 2:
                run.traced_walls.append(_job(workload, run, corrupt, tracer, job_id))
            else:
                run.walls.append(_job(workload, run, corrupt))
            job_id += 1
        if tracer is not None:
            run.spans = [asdict(s) for s in tracer.spans]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def report(run: Run) -> dict:
    """Print the summary, write the result file, and return the result line."""
    metrics = run.metrics()
    env = environment.record()
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  "
          f"timed jobs {len(run.walls)}  traced jobs {len(run.traced_walls)}  "
          f"failed {run.failed}/{run.attempted} (failed_ratio {run.failed / run.attempted:.3g}, "
          f"warm-up job included)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if not run.trace:
        print(f"  wall_s is the median of {len(run.walls)} jobs")
    print("environment " + json.dumps(env))

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    path.write_text(json.dumps({"environment": env, "metrics": metrics, **asdict(run)}))
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}
