"""Timestamped contact data: parsing, windowed snapshot graphs, and a
synthetic school-day surrogate.

Input lines follow the RFID face-to-face format: "t i j [ci cj]", ci and cj
the classes of nodes i and j, whitespace separated, '#' starting a comment
line. Timestamps are seconds; contacts are recorded on a 20 s tick.

parse_contacts reads the lines into one columnar ContactTable of int64
arrays t, i and j with a numpy byte scan; its docstring gives the format and
the ParseError of the first bad line. Class names are checked for presence
and not kept: nothing downstream reads them.

window_graphs fills one (windows, n, n) array of 0/1 snapshots with array
operations and returns its n x n slices as a list. Every snapshot has only
0/1 entries, so graph_core.save_matrix writes it as a byte table rather than
through np.savetxt.
"""

import gzip
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import graph_core

log = logging.getLogger(__name__)

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


# characters per chunk of the byte scan, which runs on to the end of the line
# the budget ends in; its temporaries stay a fixed multiple of a chunk
_SCAN_CHUNK = 1 << 18

# bytes.translate table marking with 1 the ASCII whitespace between fields,
# the ASCII str.split() splits on (\t \n \x0b \x0c \r \x1c-\x1f and space)
_SPACE = bytes(b in b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f " for b in range(256))

# the value of each ASCII digit byte, and 10 for every other byte
_DIGIT = np.full(256, 10, dtype=np.uint64)
_DIGIT[ord("0") : ord("9") + 1] = np.arange(10)

# the longest t/i/j: every 19-digit magnitude fits in uint64
_MAX_DIGITS = 19


class ParseError(ValueError):
    """Malformed contact line; the message carries the line number."""


@dataclass(frozen=True, eq=False)
class ContactTable:
    """Contact events as int64 columns t, i and j, one row per contact line in
    input order. The class names of 5-field lines are not kept.
    """

    t: np.ndarray
    i: np.ndarray
    j: np.ndarray

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
    """Parse a text stream into a contact table, in input order.

    Fields are separated by ASCII whitespace, and a line is blank or a
    comment when its first field is missing or starts with '#'. A contact
    line has 3 or 5 fields: t, i and j, each an optional sign and 1 to 19
    ASCII digits with a value inside int64, then optionally two class names,
    any non-whitespace text (non-ASCII included), checked for presence only
    and not kept. The first bad line in file order raises ParseError naming
    its line: a field count other than 3 or 5, a non-integer t/i/j, a
    self-contact, a negative timestamp, a value outside int64, or a form
    str.split() and int() read but this format leaves out (non-ASCII
    whitespace or digits, '_' separators, more than 19 digits).

    The stream is read whole and its lines end at '\\n', as a text file
    opened in the default newline mode ends them. The characters U+DC80 to
    U+DCFF, which a file opened with errors="surrogateescape" holds for the
    bytes it could not decode, are read as those bytes. The 'specbary.ingest'
    logger reports the count of contact lines read at INFO.
    """
    table = _scan_text(stream.read())
    log.info("read %d contact lines", len(table))
    return table


def _scan_text(text: str) -> ContactTable:
    # the whole text in whole-line chunks of about _SCAN_CHUNK characters
    parts, start = [], 0
    while not parts or start < len(text):  # an empty text is one empty chunk
        stop = text.find("\n", start + _SCAN_CHUNK - 1) + 1 or len(text)
        parts.append(_scan_chunk(text, start, stop))
        start = stop
    t, i, j = np.concatenate(parts, axis=1)
    return ContactTable(t=t, i=i, j=j)


def _scan_chunk(text: str, start: int, stop: int) -> np.ndarray:
    # the (3, lines) t/i/j values of the contact lines in text[start:stop];
    # raises ParseError at the first bad line
    raw = text[start:stop].encode(errors="surrogateescape")
    buf = np.frombuffer(raw, dtype=np.uint8)
    space = np.frombuffer(raw.translate(_SPACE), dtype=np.int8)
    # -1 where a token starts, +1 just past where it ends
    edge = np.diff(space, prepend=np.int8(1), append=np.int8(1))
    starts, ends = np.flatnonzero(edge == -1), np.flatnonzero(edge == 1)
    # the first token of each line that has one: token 0, and the first
    # token after each newline; blank lines repeat the next line's head
    head = np.concatenate(([0], np.searchsorted(starts, np.flatnonzero(buf == 10))))
    head = head[np.diff(head, append=len(starts)) > 0]
    fields = np.diff(head, append=len(starts))
    keep = buf[starts[head]] != ord("#")
    head, fields = head[keep], fields[keep]
    # t/i/j are read on the lines before the first with a wrong field count
    wrong = (fields != 3) & (fields != 5)
    lines = int(wrong.argmax()) if wrong.any() else len(head)
    tok = head[:lines] + np.arange(3)[:, None]  # the t, i and j tokens
    first, end = buf[starts[tok]], ends[tok]
    negative = first == ord("-")
    digits = end - starts[tok] - (negative | (first == ord("+")))
    bad = (digits < 1) | (digits > _MAX_DIGITS)
    # magnitudes in uint64, so that -(2**63) is read as well as 2**63 - 1
    mag = np.zeros(tok.shape, dtype=np.uint64)
    top = min(int(digits.max(initial=0)), _MAX_DIGITS)
    for w in range(top):
        live = digits > w
        d = _DIGIT[buf[np.where(live, end - 1 - w, 0)]]
        bad |= live & (d > 9)
        mag += np.where(live, d, 0) * 10**w
    if top == _MAX_DIGITS:  # only 19-digit magnitudes reach past int64
        bad |= mag > negative + np.uint64(2**63 - 1)
    np.negative(mag, out=mag, where=negative)
    t, i, j = tij = mag.view(np.int64)
    bad = bad.any(axis=0) | (i == j) | (t < 0)
    if bad.any() or lines < len(head):
        line = head[bad.argmax() if bad.any() else lines]
        offset = start + len(raw[: starts[line]].decode(errors="surrogateescape"))
        raise ParseError(_line_error(text, offset))
    return tij


def _line_error(text: str, offset: int) -> str:
    # the message for the bad line holding text[offset]: the first check of
    # str.split() and int() it fails, or the format where it passes them all
    lineno = text.count("\n", 0, offset) + 1
    stop = text.find("\n", offset) + 1 or len(text)
    line = text[text.rfind("\n", 0, offset) + 1 : stop].rstrip("\r\n")
    fields = line.split()
    if fields and not fields[0].startswith("#"):
        if len(fields) not in (3, 5):
            return f"line {lineno}: expected 3 or 5 fields, got {len(fields)}"
        try:
            tv, iv, jv = map(int, fields[:3])
        except ValueError:
            return f"line {lineno}: non-integer t/i/j in {line.strip()!r}"
        if iv == jv:
            return f"line {lineno}: self-contact at t={tv} for node {iv}"
        if tv < 0:
            return f"line {lineno}: negative timestamp {tv}"
        if not all(-(2**63) <= v < 2**63 for v in (tv, iv, jv)):
            return f"line {lineno}: t/i/j outside int64 in {line.strip()!r}"
    # the line as it stands: strip() would drop its non-ASCII whitespace too
    return (f"line {lineno}: not 't i j [ci cj]' with ASCII whitespace and t/i/j of 1 to 19 "
            f"ASCII digits in {line!r}")


def load_contacts(path: str | Path) -> ContactTable:
    """Read a contact file; .gz suffix means gzip-compressed text.

    Bytes that do not decode in the locale's encoding are kept as they are
    (errors="surrogateescape"): in a class name they are read as any other
    text, and in t, i or j they are a ParseError naming their line.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", errors="surrogateescape") as fh:
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

    # each pair's " i j ci cj" is built once; a hit puts its tick in front
    id_text, class_text = ids.tolist(), [_CLASS_NAMES[c] for c in labels.tolist()]
    tails = [f" {id_text[a]} {id_text[b]} {class_text[a]} {class_text[b]}"
             for a, b in zip(pair_i.tolist(), pair_j.tolist())]
    draws = np.empty(len(tails))
    lines = ["# synthetic school-day surrogate: t i j ci cj"]
    periods = ((MORNING_START, MORNING_END), (AFTERNOON_START, AFTERNOON_END))
    for period_start, period_end in periods:
        for t in range(period_start, period_end, TICK_SECONDS):
            in_recess = any(a <= t < b for a, b in recess_ranges)
            prob = recess if in_recess else base
            tick = str(t)
            rng.random(out=draws)
            lines += [tick + tails[k] for k in np.flatnonzero(draws < prob).tolist()]
    lines.append("")
    return "\n".join(lines)
