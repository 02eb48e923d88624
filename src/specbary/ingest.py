"""Timestamped contact data: parsing, windowed snapshot graphs, and a
synthetic school-day surrogate.

Input lines follow the RFID face-to-face format: "t i j [class_i class_j]",
whitespace separated, '#' starting a comment line. Timestamps are seconds;
contacts are recorded on a 20 s tick.

parse_contacts reads the lines into one columnar ContactTable (int64 arrays
t, i, j plus the two class columns), and window_graphs fills one
(windows, n, n) array of 0/1 snapshots with array operations and returns its
n x n slices as a list. Every snapshot has only 0/1 entries, so graph_core.save_matrix writes it as a byte
table rather than through np.savetxt.
"""

import gzip
from array import array
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


@dataclass(frozen=True, eq=False)
class ContactTable:
    """Contact events as columns, one row per contact line in input order.

    t, i and j are int64 arrays; class_i and class_j hold the class names of
    5-field lines and None for 3-field lines.
    """

    t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    class_i: list[str | None]
    class_j: list[str | None]

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class SnapshotSeries:
    """Fixed node set, one unweighted graph per time window.

    graphs[k] is the n x n graph of window k; the list items are views of one
    (windows, n, n) array.
    """

    node_ids: tuple[int, ...]
    graphs: list[np.ndarray]
    window_bounds: tuple[tuple[int, int], ...]


def parse_contacts(stream) -> ContactTable:
    """Parse an iterable of text lines into a contact table, in input order.

    Each field goes through int(); a line is blank or a comment when its
    first whitespace-separated field is missing or starts with '#'. The first
    bad line in file order raises ParseError: a field count other than 3 or
    5, a non-integer t/i/j, a self-contact, a negative timestamp, or a value
    outside the int64 range.
    """
    # array("q") stores each value as a C int64 as it is appended, so an
    # out-of-range value fails on its own line and the columns need no copy
    t, i, j = array("q"), array("q"), array("q")
    class_i, class_j = [], []
    for lineno, raw in enumerate(stream, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) == 5:
            t_text, i_text, j_text, ci, cj = fields
        elif len(fields) == 3:
            t_text, i_text, j_text = fields
            ci = cj = None
        else:
            raise ParseError(f"line {lineno}: expected 3 or 5 fields, got {len(fields)}")
        try:
            tv, iv, jv = int(t_text), int(i_text), int(j_text)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer t/i/j in {raw.strip()!r}") from None
        if iv == jv:
            raise ParseError(f"line {lineno}: self-contact at t={tv} for node {iv}")
        if tv < 0:
            raise ParseError(f"line {lineno}: negative timestamp {tv}")
        try:
            t.append(tv)
            i.append(iv)
            j.append(jv)
        except OverflowError:
            raise ParseError(f"line {lineno}: t/i/j outside int64 in {raw.strip()!r}") from None
        class_i.append(ci)
        class_j.append(cj)
    t, i, j = (np.frombuffer(c, dtype=np.int64) for c in (t, i, j))
    return ContactTable(t=t, i=i, j=j, class_i=class_i, class_j=class_j)


def load_contacts(path: str | Path) -> ContactTable:
    """Read a contact file; .gz suffix means gzip-compressed text."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        return parse_contacts(fh)


def window_graphs(contacts: ContactTable, start: int, end: int, width: int) -> SnapshotSeries:
    """Aggregate contacts in [start, end) into ceil((end-start)/width) unweighted
    graphs over the union of node ids seen in the range.

    Windows are half-open; the final window may be shorter. Repeated contacts
    within a window collapse to a single edge, and nodes silent in a window
    stay as isolated nodes so spectra remain comparable across the series.
    Raises ValueError when [start, end) holds no contact.
    """
    if width <= 0:
        raise ValueError(f"window width must be positive, got {width}")
    if not start < end:
        raise ValueError(f"empty time range [{start}, {end})")
    # offsets t - start below end - start then cannot wrap around in int64
    if end - start > np.iinfo(np.int64).max:
        raise ValueError(f"time range [{start}, {end}) is longer than int64 allows")
    in_range = (contacts.t >= start) & (contacts.t < end)
    if not in_range.any():
        raise ValueError(f"no contacts in the time range [{start}, {end})")
    # every offset is below end - start, so a wider divisor changes no window
    # index, and the divisor stays inside int64 however large width is
    window = (contacts.t[in_range] - start) // min(width, end - start)
    ends = np.concatenate([contacts.i[in_range], contacts.j[in_range]])
    node_ids, index = np.unique(ends, return_inverse=True)
    n = len(node_ids)
    count = -(-(end - start) // width)
    graphs = np.zeros((count, n, n))
    # each contact sets both (a, b) and (b, a) of its window
    graphs[np.tile(window, 2), index, np.roll(index, len(window))] = 1.0
    bounds = tuple((start + k * width, min(start + (k + 1) * width, end)) for k in range(count))
    return SnapshotSeries(
        node_ids=tuple(node_ids.tolist()), graphs=list(graphs), window_bounds=bounds
    )


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
