"""Timestamped contact data: parsing, windowed snapshot graphs, and a
synthetic school-day surrogate.

Input lines follow the RFID face-to-face format: "t i j [ci cj]", ci and cj
the classes of nodes i and j, whitespace separated, '#' starting a comment
line. Timestamps are seconds; contacts are recorded on a 20 s tick.

parse_contacts reads the lines into one columnar ContactTable of int64
arrays t, i and j. The class names of a 5-field line are checked for presence
(a line has 3 or 5 fields) and not kept: nothing downstream reads them. A
byte scan reads the whole text with numpy in whole-line chunks of _SCAN_CHUNK
bytes: tokens end at the ASCII whitespace str.split() splits on, and t/i/j
are built from their digits. It declines any text it cannot read exactly as
str.split() and int() would: a malformed line (not 3 or 5 fields, a
non-integer, a self-contact, a negative t), non-ASCII text, or a t/i/j that
is not an optional sign and 1 to 18 ASCII digits ('1_000', values of 19 or
more digits). The per-line loop then reads the whole input, so every
ParseError keeps its message and line number.

window_graphs fills one (windows, n, n) array of 0/1 snapshots with array
operations and returns its n x n slices as a list. Every snapshot has only
0/1 entries, so graph_core.save_matrix writes it as a byte table rather than
through np.savetxt.
"""

import gzip
import logging
from array import array
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


# bytes per chunk of the byte scan, which runs on to the end of the line the
# budget ends in; the scan's temporaries stay a fixed multiple of a chunk
_SCAN_CHUNK = 1 << 18

# bytes.translate table marking with 1 the ASCII whitespace str.split()
# splits on (\t \n \x0b \x0c \r \x1c-\x1f and space), every other byte 0
_SPACE = bytes(b in b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f " for b in range(256))

# the value of each ASCII digit byte, and -1 for every other byte
_DIGIT = np.full(256, -1, dtype=np.int64)
_DIGIT[ord("0") : ord("9") + 1] = np.arange(10)

# the longest t/i/j the scan reads: every 18-digit value fits in int64
_MAX_DIGITS = 18


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

    Fields are split as str.split() splits them and t/i/j read as int() reads
    them; a line is blank or a comment when its first field is missing or
    starts with '#'. The two class names of a 5-field line are checked for
    presence only and not kept. The first bad line in file order raises
    ParseError: a field count other than 3 or 5, a non-integer t/i/j, a
    self-contact, a negative timestamp, or a value outside the int64 range.

    The stream is read whole and its lines end at '\\n', as a text file
    opened in the default newline mode ends them. The byte scan reads the
    text unless it holds a line the scan cannot read exactly: a malformed
    line, non-ASCII text, or a t/i/j that is not an optional sign and 1 to 18
    ASCII digits (such as '1_000' or a value of 19 or more digits). Then the
    per-line loop reads the whole input, so its ParseError messages and line
    numbers stand. The 'specbary.ingest' logger says at INFO which reader
    read how many contact lines, and which line sent the input to the loop.
    """
    text = stream.read()
    try:
        table = _scan_text(text)
    except _Declined as exc:
        offset, reason = exc.args
        table = _parse_lines(_lines(text))
        log.info("read %d contact lines with the per-line loop; the byte scan declined "
                 "line %d (%s)", len(table), text.count("\n", 0, offset) + 1, reason)
    else:
        log.info("read %d contact lines with the byte scan", len(table))
    return table


def _lines(text: str):
    # the lines of text, each running to and including a '\n'; a generator
    # rather than io.StringIO, which would hold the text again at 4 bytes a
    # character
    start = 0
    while start < len(text):
        stop = text.find("\n", start) + 1 or len(text)
        yield text[start:stop]
        start = stop


class _Declined(Exception):
    """A line the byte scan cannot read exactly: the text offset of a
    character on it, and why."""


def _scan_text(text: str) -> ContactTable:
    # the whole text in whole-line chunks of about _SCAN_CHUNK bytes; raises
    # _Declined at the first line it cannot read exactly
    if not text.isascii():
        try:
            text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise _Declined(exc.start, "non-ASCII text") from None
    parts, start = [], 0
    while not parts or start < len(text):  # an empty text is one empty chunk
        stop = text.find("\n", start + _SCAN_CHUNK - 1) + 1 or len(text)
        parts.append(_scan_chunk(text[start:stop].encode("ascii"), start))
        start = stop
    t, i, j = np.concatenate(parts, axis=1)
    return ContactTable(t=t, i=i, j=j)


def _scan_chunk(raw: bytes, offset: int) -> np.ndarray:
    # the (3, lines) t/i/j values of the contact lines in raw, which starts
    # at this text offset
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

    def decline(bad: np.ndarray, reason: str):
        raise _Declined(offset + int(starts[head[bad.argmax()]]), reason)

    bad = (fields != 3) & (fields != 5)
    if bad.any():
        decline(bad, "not 3 or 5 fields")

    tok = head + np.arange(3)[:, None]  # the t, i and j tokens
    first, end = buf[starts[tok]], ends[tok]
    negative = first == ord("-")
    digits = end - starts[tok] - (negative | (first == ord("+")))
    bad = (digits < 1) | (digits > _MAX_DIGITS)
    tij = np.zeros(tok.shape, dtype=np.int64)
    for w in range(min(int(digits.max(initial=0)), _MAX_DIGITS)):
        live = digits > w
        d = _DIGIT[buf[np.where(live, end - 1 - w, 0)]]
        bad |= live & (d < 0)
        tij += np.where(live, d, 0) * 10**w
    np.negative(tij, out=tij, where=negative)
    bad_token = bad.any(axis=0)
    t, i, j = tij
    bad = bad_token | (i == j) | (t < 0)
    if bad.any():
        decline(bad, "t/i/j not 1 to 18 ASCII digits" if bad_token[bad.argmax()]
                else "self-contact or negative t")
    return tij


def _parse_lines(stream) -> ContactTable:
    # the per-line loop: str.split() and int() on each line.
    # array("q") stores each value as a C int64 as it is appended, so an
    # out-of-range value fails on its own line and the columns need no copy
    t, i, j = array("q"), array("q"), array("q")
    for lineno, raw in enumerate(stream, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) not in (3, 5):
            raise ParseError(f"line {lineno}: expected 3 or 5 fields, got {len(fields)}")
        try:
            tv, iv, jv = map(int, fields[:3])
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
    t, i, j = (np.frombuffer(c, dtype=np.int64) for c in (t, i, j))
    return ContactTable(t=t, i=i, j=j)


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
