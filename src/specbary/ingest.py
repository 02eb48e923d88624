"""Timestamped contact data: parsing, windowed snapshot graphs, and a
synthetic school-day surrogate.

Input lines follow the RFID face-to-face format: "t i j [class_i class_j]",
whitespace separated, '#' starting a comment line. Timestamps are seconds;
contacts are recorded on a 20 s tick.
"""

import gzip
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import graph_core

# school-day windows (seconds from midnight): 8:30-12:00 and 2:00-4:30 PM.
# 360 s windows split the morning into 35 snapshots; 347 s windows split the
# afternoon into 26, matching intervals of roughly six minutes.
MORNING_START, MORNING_END, MORNING_WIDTH = 30600, 43200, 360
AFTERNOON_START, AFTERNOON_END, AFTERNOON_WIDTH = 50400, 59400, 347

TICK_SECONDS = 20
_RECESS = {"morning": (37800, 39600), "afternoon": (55800, 57600)}

# surrogate contact rates per pair per tick
_WITHIN_TICK = 0.04
_CROSS_TICK = 0.0002
_RECESS_CROSS_TICK = 0.003

_CLASS_NAMES = ("1A", "1B", "2A", "2B", "3A", "3B", "4A", "4B", "5A", "5B")
_CLASS_SIZES = (23, 23, 23, 23, 23, 23, 23, 23, 24, 24)


class ParseError(ValueError):
    """Malformed contact line; the message carries the line number."""


@dataclass(frozen=True)
class ContactEvent:
    t: int
    i: int
    j: int
    class_i: str | None = None
    class_j: str | None = None

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError(f"self-contact at t={self.t} for node {self.i}")
        if self.t < 0:
            raise ValueError(f"negative timestamp {self.t}")


@dataclass(frozen=True)
class SnapshotSeries:
    """Fixed node set, one unweighted graph per time window."""

    node_ids: tuple[int, ...]
    graphs: list[np.ndarray]
    window_bounds: tuple[tuple[int, int], ...]

    @property
    def node_index(self) -> dict[int, int]:
        return {v: k for k, v in enumerate(self.node_ids)}


def parse_contacts(stream) -> list[ContactEvent]:
    """Parse an iterable of text lines into contact events, in input order."""
    events = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (3, 5):
            raise ParseError(f"line {lineno}: expected 3 or 5 fields, got {len(fields)}")
        try:
            t, i, j = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer t/i/j in {line!r}") from None
        ci, cj = (fields[3], fields[4]) if len(fields) == 5 else (None, None)
        try:
            events.append(ContactEvent(t=t, i=i, j=j, class_i=ci, class_j=cj))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return events


def load_contacts(path: str | Path) -> list[ContactEvent]:
    """Read a contact file; .gz suffix means gzip-compressed text."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        return parse_contacts(fh)


def window_graphs(events: list[ContactEvent], start: int, end: int, width: int) -> SnapshotSeries:
    """Aggregate events in [start, end) into ceil((end-start)/width) unweighted
    graphs over the union of node ids seen in the range.

    Windows are half-open; the final window may be shorter. Repeated contacts
    within a window collapse to a single edge, and nodes silent in a window
    stay as isolated nodes so spectra remain comparable across the series.
    """
    if width <= 0:
        raise ValueError(f"window width must be positive, got {width}")
    if not start < end:
        raise ValueError(f"empty time range [{start}, {end})")
    in_range = [e for e in events if start <= e.t < end]
    node_ids = tuple(sorted({e.i for e in in_range} | {e.j for e in in_range}))
    index = {v: k for k, v in enumerate(node_ids)}
    n = len(node_ids)
    count = math.ceil((end - start) / width)
    graphs = [np.zeros((n, n)) for _ in range(count)]
    for e in in_range:
        w = (e.t - start) // width
        a, b = index[e.i], index[e.j]
        graphs[w][a, b] = 1.0
        graphs[w][b, a] = 1.0
    bounds = tuple((start + k * width, min(start + (k + 1) * width, end)) for k in range(count))
    return SnapshotSeries(node_ids=node_ids, graphs=graphs, window_bounds=bounds)


def synthetic_school_day(seed: int = 0) -> str:
    """Deterministic surrogate contact file for one school day.

    232 students in the ten classes 1A..5B keep mostly to their class, with
    light cross-class contact that rises during the two recesses. Raw ids are
    shuffled so classes are not contiguous in sorted-id order. Returns the
    file content as text in the same format parse_contacts reads.
    """
    rng = graph_core.philox(seed)
    n = sum(_CLASS_SIZES)
    labels = np.repeat(np.arange(len(_CLASS_SIZES)), _CLASS_SIZES)
    ids = rng.permutation(np.arange(1000, 1000 + n))

    pair_i, pair_j = np.triu_indices(n, k=1)
    same_class = labels[pair_i] == labels[pair_j]
    base = np.where(same_class, _WITHIN_TICK, _CROSS_TICK)
    recess = np.where(same_class, _WITHIN_TICK, _RECESS_CROSS_TICK)
    recess_ranges = list(_RECESS.values())

    lines = ["# synthetic school-day surrogate: t i j class_i class_j"]
    periods = ((MORNING_START, MORNING_END), (AFTERNOON_START, AFTERNOON_END))
    for period_start, period_end in periods:
        for t in range(period_start, period_end, TICK_SECONDS):
            in_recess = any(a <= t < b for a, b in recess_ranges)
            prob = recess if in_recess else base
            hit = np.flatnonzero(rng.random(len(prob)) < prob)
            for k in hit:
                a, b = pair_i[k], pair_j[k]
                lines.append(
                    f"{t} {ids[a]} {ids[b]} {_CLASS_NAMES[labels[a]]} {_CLASS_NAMES[labels[b]]}"
                )
    lines.append("")
    return "\n".join(lines)
