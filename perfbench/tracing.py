"""Spans around the public functions of each specbary module.

A Tracer replaces every function named in TRACED by a wrapper, through
setattr on the module that defines it, and puts the originals back on exit.
Because Python looks module globals up at call time, the wrappers see calls
made through a module attribute (``eigen.sym_eig_values(...)`` inside
``barycentre``) as well as calls inside the defining module (``materialize``
inside ``best_soules_basis``). The names re-exported by ``specbary/__init__``
keep pointing at the unwrapped functions, so the benchmark calls through the
modules.

Spans are recorded only inside ``Tracer.job``; each holds its name, start,
end, parent span and job id, and stays in memory until the run writes it out.
"""

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

TRACED = {
    "graph_core": ("check_adjacency", "normalized_laplacian", "normalized_adjacency", "permute",
                   "save_matrix", "load_matrix"),
    "eigen": ("sym_eig_values", "sym_eig"),
    "sbm": ("sample",),
    "soules": ("best_soules_basis", "complete_basis", "materialize"),
    "alignment": ("spectral_embed", "cluster_nodes", "canonical_permutation", "estimate_M"),
    "barycentre": ("compute_barycentre", "sample_mean_adjacency", "truncated_laplacian",
                   "average_node_degrees", "reconstruct_barycentre", "write_result"),
    "ingest": ("load_contacts", "window_graphs"),
    # one span per subcommand, named after it
    "cli": ("cmd_ingest", "cmd_barycentre", "cmd_block_sweep"),
}
CLI_SPAN_NAMES = {"cmd_ingest": "cli.ingest", "cmd_barycentre": "cli.barycentre",
                  "cmd_block_sweep": "cli.block-sweep"}
JOB_SPAN = "job"


def span_name(module: str, function: str) -> str:
    return CLI_SPAN_NAMES.get(function, f"{module}.{function}")


SPAN_NAMES = tuple(span_name(m, f) for m, fs in TRACED.items() for f in fs)

# counts taken at the layer boundary, after the span has closed
_COUNTERS = {
    "eigen.sym_eig_values": lambda args, out: {"n": args[0].shape[0]},
    "eigen.sym_eig": lambda args, out: {"n": args[0].shape[0]},
    "soules.materialize": lambda args, out: {"columns": out.K},
    "barycentre.compute_barycentre": lambda args, out: {"M": out.spectrum.M},
    "graph_core.save_matrix": lambda args, out: {"bytes": os.path.getsize(args[1])},
    "graph_core.load_matrix": lambda args, out: {"bytes": os.path.getsize(args[0])},
    "ingest.load_contacts": lambda args, out: {"events": len(out)},
}

# per-layer metrics beyond the .s / .self_s / .calls of every span name
EXTRA_METRICS = {
    "graph_core.save_matrix.bytes": "B",
    "graph_core.load_matrix.bytes": "B",
    "eigen.values_computed": "count",
    "eigen.useful_ratio": "ratio",
    "soules.columns_built": "count",
    "soules.useful_ratio": "ratio",
    "ingest.events_per_s": "1/s",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced job yields, with its unit."""
    units = {}
    for name in (JOB_SPAN,) + SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name != JOB_SPAN:
            units[f"{name}.calls"] = "count"
    units.update(EXTRA_METRICS)
    return units


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"specbary.{module_name}")
            for function in functions:
                original = getattr(module, function)
                self._saved.append((module, function, original))
                setattr(module, function, self._wrap(span_name(module_name, function), original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, function, original = self._saved.pop()
            setattr(module, function, original)
        return False

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, job=self._job, parent=parent, start=time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index].counts = counter(args, out)
            return out

        return wrapper

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; library spans inside it nest under it."""
        self._job = job_id
        index = self._open(JOB_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._job = None

    def job_spans(self, job_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.job == job_id]


def job_metrics(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Per-layer metrics of one job from its (index, span) pairs.

    A span's self time is its duration minus its children's durations, so the
    self times of a job's spans add up to the duration of its root span.
    """
    by_index = dict(spans)
    child_time = defaultdict(float)
    for _, s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    out = {}
    for name in (JOB_SPAN,) + SPAN_NAMES:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        if name != JOB_SPAN:
            out[f"{name}.calls"] = 0
    for i, s in spans:
        out[f"{s.name}.s"] += s.end - s.start
        out[f"{s.name}.self_s"] += s.end - s.start - child_time[i]
        if s.name != JOB_SPAN:
            out[f"{s.name}.calls"] += 1

    def enclosing_M(s: Span) -> int:
        while s.parent is not None:
            s = by_index[s.parent]
            if s.name == "barycentre.compute_barycentre":
                return s.counts.get("M", 0)
        return 0

    totals = defaultdict(float)
    for _, s in spans:
        if s.name.startswith("eigen."):
            totals["eigen_computed"] += s.counts.get("n", 0)
            totals["eigen_read"] += enclosing_M(s)
        elif s.name == "soules.materialize":
            totals["columns"] += s.counts.get("columns", 0)
        elif s.name == "barycentre.compute_barycentre":
            totals["M"] += s.counts.get("M", 0)
        elif s.name in ("graph_core.save_matrix", "graph_core.load_matrix"):
            out[f"{s.name}.bytes"] = out.get(f"{s.name}.bytes", 0) + s.counts.get("bytes", 0)
        elif s.name == "ingest.load_contacts":
            totals["events"] += s.counts.get("events", 0)

    out.setdefault("graph_core.save_matrix.bytes", 0)
    out.setdefault("graph_core.load_matrix.bytes", 0)
    out["eigen.values_computed"] = totals["eigen_computed"]
    out["eigen.useful_ratio"] = _ratio(totals["eigen_read"], totals["eigen_computed"])
    out["soules.columns_built"] = totals["columns"]
    out["soules.useful_ratio"] = _ratio(totals["M"], totals["columns"])
    out["ingest.events_per_s"] = _ratio(totals["events"], out["ingest.load_contacts.s"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
