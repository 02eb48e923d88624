"""Contact-list parsing, windowed snapshot construction, surrogate data."""

import gzip
import io
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import (reference_parse_contacts, reference_synthetic_school_day,
                     reference_window_graphs)
from hypothesis import given, settings
from hypothesis import strategies as st

from specbary import barycentre, cli, ingest


def _table(text: str) -> ingest.ContactTable:
    return ingest.parse_contacts(io.StringIO(text))


def _rows(table: ingest.ContactTable) -> list[tuple]:
    return list(zip(table.t.tolist(), table.i.tolist(), table.j.tolist()))


def test_parse_five_field_line():
    table = _table("31220 1558 1567 3B 3B\n")
    assert len(table) == 1
    assert _rows(table) == [(31220, 1558, 1567)]


def test_parse_three_field_line_and_order():
    table = _table("10 1 2\n20 2 3\n")
    assert _rows(table) == [(10, 1, 2), (20, 2, 3)]


def test_parse_columns_are_int64():
    table = _table("10 1 2\n")
    assert all(c.dtype == np.int64 for c in (table.t, table.i, table.j))
    empty = _table("")
    assert all(c.dtype == np.int64 and c.shape == (0,) for c in (empty.t, empty.i, empty.j))


def test_parse_empty_and_comment_only():
    assert len(_table("")) == 0
    assert len(_table("# comment\n\n# another\n")) == 0


def test_parse_reports_line_numbers():
    with pytest.raises(ingest.ParseError, match="line 2"):
        _table("10 1 2\nten 1 2\n")
    with pytest.raises(ingest.ParseError, match="line 1"):
        _table("10 1\n")


def test_parse_rejects_self_contact():
    with pytest.raises(ingest.ParseError):
        _table("10 7 7\n")


def test_parse_rejects_values_outside_int64():
    _table(f"{2**63 - 1} {-(2**63)} 2\n")
    with pytest.raises(ingest.ParseError, match="line 3: t/i/j outside int64"):
        _table(f"10 1 2\n# c\n{2**63} 1 2\n")
    with pytest.raises(ingest.ParseError, match="line 1: t/i/j outside int64"):
        _table(f"10 1 {-(2**63) - 1}\n")


def test_load_contacts_handles_gzip(tmp_path):
    text = "10 1 2\n30 2 3\n"
    plain = tmp_path / "contacts.txt"
    plain.write_text(text)
    zipped = tmp_path / "contacts.txt.gz"
    with gzip.open(zipped, "wt") as fh:
        fh.write(text)
    assert _rows(ingest.load_contacts(plain)) == _rows(ingest.load_contacts(zipped))


# one generator per line kind; every bad kind is planted at most once. Class
# names are any non-whitespace text: NUL, non-ASCII text, NBSP and names of
# any length among them. The loop-only kind holds forms str.split() and int()
# read but the format leaves out (non-ASCII whitespace and digits, '_'
# separators, more than 19 digits): each is a bad line
_ASCII_SPACE = [" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
_CLASS = ["1A", "3B", "x", "#x", "Teachers", "classroom_1A", "1\x00A", "after_school_club_2B",
          "1\u00c5", "\u6559\u5e2b", "1\xa0A"]
_ASCII_INT = [str, "+{}".format, "0{}".format]


@st.composite
def _contact_line(draw, fields: int) -> str:
    t = draw(st.integers(0, 10**6))
    i = draw(st.integers(-3, 40))
    j = draw(st.integers(-3, 40).filter(lambda v: v != i))
    values = [draw(st.sampled_from(_ASCII_INT))(v) if v >= 0 else str(v) for v in (t, i, j)]
    if fields == 5:
        values += [draw(st.sampled_from(_CLASS)), draw(st.sampled_from(_CLASS))]
    return draw(st.sampled_from(_ASCII_SPACE)).join(values)


_GOOD = st.one_of(
    _contact_line(3),
    _contact_line(5),
    st.builds(lambda ws, text: f"{ws}#{text}", st.sampled_from(["", " ", "\t", "  "]),
              st.sampled_from(["", " t i j", "# 1 2 3"])),
    st.sampled_from(["", " ", "\t ", "\x0c"]),
    # 18 and 19 digits, and the int64 limits
    st.sampled_from([f"{10**17} 1 {-(10**18 - 1)}", f"0 {10**18 - 1} -{'0' * 17}1 1A 1B",
                     f"{2**63 - 1} {-(2**63)} 1", f"0 {-(2**63 - 1)} {2**63 - 1} 1A 1B",
                     f"{10**18} 1 2", f"1 +{'0' * 18}2 -{'0' * 18}3"]),
)
_BAD = {
    "field_count": st.sampled_from(["10 1", "10 1 2 3", "1 2 3 4 5 6", "7"]),
    "non_integer": st.sampled_from(["ten 1 2", "1.5 1 2", "10 a 2 1A 1B", "10 1 0x2", "1__0 1 2"]),
    # "-3 6 6" is also a negative timestamp; the self-contact is reported first
    "self_contact": st.sampled_from(["10 4 4", "0 -2 -2 1A 1A", "5 +4 4", "-3 6 6"]),
    "negative_t": st.sampled_from(["-5 1 2", "-1 3 4 1A 1B"]),
    "outside_int64": st.sampled_from([f"{2**63} 1 2", f"1 2 {-(2**63) - 1} 1A 1B"]),
    "loop_only": st.sampled_from([
        "10\xa01 2", "10 1\u20032 1A 1B", "\u3000# c", "\xa0", "1_000 1 2", "10 1 2_0",
        "10 \u0661 2", "\uff11\uff10 1 2 1A 1B", f"10 1 {'0' * 19}2", f"{'0' * 20} 1 2"]),
}


@settings(max_examples=300)
@given(data=st.data(), good=st.lists(_GOOD, max_size=30))
def test_parse_matches_reference_loop(data, good):
    lines = list(good)
    for kind, bad in _BAD.items():
        if data.draw(st.booleans(), label=f"plant {kind}"):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(bad))
    endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                                 max_size=len(lines)))
    if endings and data.draw(st.booleans(), label="no final newline"):
        endings[-1] = ""
    text = "".join(line + end for line, end in zip(lines, endings))
    try:
        expected = reference_parse_contacts(io.StringIO(text))
    except ingest.ParseError as exc:
        with pytest.raises(ingest.ParseError) as caught:
            _table(text)
        assert str(caught.value) == str(exc)
    else:
        assert _rows(_table(text)) == expected


@settings(max_examples=300)
@given(data=st.data(), lines=st.lists(_GOOD, max_size=30),
       chunk=st.sampled_from([1, 7, ingest._SCAN_CHUNK]))
def test_byte_scan_matches_reference_loop(data, lines, chunk):
    endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                                 max_size=len(lines)))
    if endings and data.draw(st.booleans(), label="no final newline"):
        endings[-1] = ""
    text = "".join(line + end for line, end in zip(lines, endings))
    with mock.patch.object(ingest, "_SCAN_CHUNK", chunk):
        assert _rows(ingest._scan_text(text)) == reference_parse_contacts(io.StringIO(text))


@pytest.mark.parametrize("seed", [0, 1, 2, None])
def test_byte_scan_reads_the_contact_files(seed):
    # the synthetic days, and a 3-field file for seed None
    text = "10 1 2\n20 2 3\n# c\n30 -4 +5\n" if seed is None else ingest.synthetic_school_day(seed)
    expected = reference_parse_contacts(io.StringIO(text))
    table = _table(text)
    assert _rows(table) == expected
    assert all(c.dtype == np.int64 for c in (table.t, table.i, table.j))


@pytest.mark.parametrize("chunk", [1, 3, 17, 64])
def test_byte_scan_chunks_cut_anywhere(monkeypatch, chunk):
    # each chunk runs on to the end of the line its budget ends in, so lines,
    # comments and blank lines fall across every budget boundary
    text = ("# head\n\n10 1 2 1A 1B\r\n \n  # 5 6\n20\t3 4\n"
            "30 5 6 Teachers classroom_2B\n\n\n40 7 8 1A 1A\n# tail\n50 9 10")
    day = "".join(ingest.synthetic_school_day(seed=0).splitlines(keepends=True)[:200])
    expected = [reference_parse_contacts(io.StringIO(t)) for t in (text, day)]
    monkeypatch.setattr(ingest, "_SCAN_CHUNK", chunk)
    assert [_rows(_table(t)) for t in (text, day)] == expected


def test_byte_scan_reads_any_class_names(tmp_path, caplog):
    # class names are only counted as fields, so a NUL byte, non-ASCII text
    # or a long name in one is read
    text = "10 1 2 1\x00A 1B\n20 3 4 after_school_club_2B 1\u00c5\n30 5 6\n40 6 7 \u6559\u5e2b 1A\n"
    path = tmp_path / "classes.txt"
    path.write_text(text)
    caplog.set_level(logging.INFO, logger="specbary.ingest")
    assert _rows(ingest.load_contacts(path)) == reference_parse_contacts(io.StringIO(text))
    assert caplog.messages == ["read 4 contact lines"]


@pytest.mark.parametrize("text,line,kind", [
    ("10 1 2\n10\xa01 2\n", 2, "non-ASCII text"),
    ("# c\n10 1 2\n10 1_000 2\n", 3, "t/i/j not 1 to 18 ASCII digits"),
])
@pytest.mark.parametrize("chunk", [1, ingest._SCAN_CHUNK])
def test_byte_scan_declines_what_only_the_loop_reads(monkeypatch, chunk, text, line, kind):
    # str.split() and int() read these lines, and the format leaves them out:
    # the scan raises at their line with the message that names the format;
    # kind labels the form
    monkeypatch.setattr(ingest, "_SCAN_CHUNK", chunk)
    with pytest.raises(ingest.ParseError, match=f"^line {line}: not 't i j \\[ci cj\\]' with "
                                                "ASCII whitespace and t/i/j of 1 to 19 ASCII digits"):
        ingest._scan_text(text)


@pytest.mark.parametrize("text,line", [
    ("10 1 2\n20 2 3\r30 3 4\n", 2),
    ("# 1 2\n10 1 2\n\n10 a 2\n", 4),
    ("10 1 2\n20 2 3 1A\n", 2),
    ("10 1 2\n20 2\x00 3\n", 2),
    ("10 1 2\n20 3 3\n", 2),
    ("10 1 2\n-1 4 5\n", 2),
    # the first bad line of any kind: a wrong field count before or after a
    # bad value
    ("10 1\nten 1 2\n", 1),
    ("ten 1 2\n10 1\n", 1),
    ("10 1 2\n10 1 2\xa01A 1B\n20 3 3\n", 2),
    (f"10 1 2\n20 3 4\n30 5 {2**63}\n40 6\n", 3),
])
@pytest.mark.parametrize("chunk", [1, ingest._SCAN_CHUNK])
def test_byte_scan_declines_malformed_lines(monkeypatch, chunk, text, line):
    monkeypatch.setattr(ingest, "_SCAN_CHUNK", chunk)
    with pytest.raises(ingest.ParseError, match=f"^line {line}: ") as caught:
        ingest._scan_text(text)
    with pytest.raises(ingest.ParseError) as expected:
        reference_parse_contacts(io.StringIO(text))
    assert str(caught.value) == str(expected.value)


def test_ingest_logs_the_reader(tmp_path, caplog):
    # one INFO line gives the count, for ASCII and non-ASCII class names alike
    caplog.set_level(logging.INFO, logger="specbary.ingest")
    day = tmp_path / "day.txt"
    lines = len(ingest.synthetic_school_day(seed=0).splitlines()) - 1
    for k, text in enumerate([ingest.synthetic_school_day(seed=0),
                              ingest.synthetic_school_day(seed=0).replace(" 1A 1A", " 1A 1\u00c5")]):
        day.write_text(text)
        caplog.clear()
        assert cli.main(["ingest", "--contacts", str(day), "--out", str(tmp_path / str(k))]) == 0
        [record] = [r for r in caplog.records if r.name == "specbary.ingest"]
        assert record.levelno == logging.INFO
        assert record.getMessage() == f"read {lines} contact lines"


def test_load_contacts_reads_lone_carriage_returns(tmp_path):
    # text mode turns each lone \r into a line end
    path = tmp_path / "mac.txt"
    path.write_bytes(b"# t i j\r10 1 2\r20 2 3 1A 1B\r")
    assert _rows(ingest.load_contacts(path)) == [(10, 1, 2), (20, 2, 3)]


@pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
def test_load_contacts_reads_undecodable_bytes_in_class_names(tmp_path, suffix):
    # a 0xff byte decodes in no UTF-8 locale; in a class name it is kept
    raw = b"# t i j ci cj\n10 1 2 1A 1\xffB\n20 2 3 \xff \xfe\n"
    path = tmp_path / f"contacts{suffix}"
    path.write_bytes(gzip.compress(raw) if suffix.endswith(".gz") else raw)
    assert _rows(ingest.load_contacts(path)) == [(10, 1, 2), (20, 2, 3)]


@pytest.mark.parametrize("field", ["2\xff0 2 3", "20 \xff 3", "20 2 3\xff"])
def test_load_contacts_names_the_line_of_an_undecodable_byte_in_t_i_j(tmp_path, field):
    # the same byte in a class name on an earlier line shifts no offset
    path = tmp_path / "contacts.txt"
    path.write_bytes(b"10 1 2 1A 1\xffB\n# c\n" + field.encode("latin-1") + b" 1A 1B\n")
    with pytest.raises(ingest.ParseError, match="line 3: non-integer t/i/j in '"):
        ingest.load_contacts(path)
    assert cli.main(["ingest", "--contacts", str(path), "--out", str(tmp_path / "out")]) == 3


def test_load_contacts_peak_memory_within_the_loops(tmp_path):
    # the scan holds the text, the chunks' t/i/j and the columns joined from
    # them (two copies of three int64 columns), and a fixed number of chunk
    # budgets of temporaries
    path = tmp_path / "day.txt"
    text = ingest.synthetic_school_day(seed=0)
    path.write_text(text)
    tracemalloc.start()
    try:
        table = ingest.load_contacts(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) > 100_000
    assert peak <= len(text) + 48 * len(table) + 8 * ingest._SCAN_CHUNK


def test_window_single_event():
    series = ingest.window_graphs(_table("10 5 9\n"), 0, 60, 60)
    assert len(series.graphs) == 1
    assert series.window_bounds == ((0, 60),)
    assert series.node_ids == (5, 9)
    assert np.array_equal(series.graphs[0], [[0.0, 1.0], [1.0, 0.0]])


def test_window_boundary_event_goes_to_second_window():
    series = ingest.window_graphs(_table("60 1 2\n"), 0, 120, 60)
    assert len(series.graphs) == 2
    assert series.graphs[0].sum() == 0.0
    assert series.graphs[1].sum() == 2.0


def test_window_repeated_contacts_collapse_to_one_edge():
    series = ingest.window_graphs(_table("0 1 2\n20 1 2\n40 2 1\n"), 0, 60, 60)
    assert series.graphs[0][0, 1] == 1.0


def test_window_partial_final_window_included():
    series = ingest.window_graphs(_table("95 1 2\n"), 0, 100, 60)
    assert len(series.graphs) == 2
    assert series.window_bounds[1] == (60, 100)
    assert series.graphs[1][0, 1] == 1.0


def test_window_wider_than_range_gives_single_snapshot():
    series = ingest.window_graphs(_table("5 1 2\n"), 0, 100, 500)
    assert len(series.graphs) == 1
    assert series.window_bounds == ((0, 100),)
    # a width past int64 is no divisor numpy can take; the window is the same
    series = ingest.window_graphs(_table("10 1 2\n99 2 3\n"), 0, 100, 2**63)
    assert series.window_bounds == ((0, 100),)
    assert np.array_equal(series.graphs[0], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_window_count_is_exact_for_spans_past_float_precision():
    # (end - start) / width rounds 3 + 1e-16 down to 3.0 and drops the
    # last window
    series = ingest.window_graphs(_table(f"{3 * 10**16} 1 2\n"), 0, 3 * 10**16 + 1, 10**16)
    assert len(series.graphs) == 4
    assert series.window_bounds[-1] == (3 * 10**16, 3 * 10**16 + 1)
    assert series.graphs[-1][0, 1] == 1.0


def test_window_node_set_fixed_across_series():
    text = "0 4 2\n70 9 2\n500 11 12\n"  # the last contact lies outside [0, 120)
    series = ingest.window_graphs(_table(text), 0, 120, 60)
    assert series.node_ids == (2, 4, 9)
    assert all(type(v) is int for v in series.node_ids)
    assert all(g.shape == (3, 3) for g in series.graphs)


def test_window_matrices_are_simple_graphs():
    rng = np.random.default_rng(0)
    rows = zip(rng.integers(0, 300, 50), rng.integers(0, 6, 50), rng.integers(6, 12, 50))
    text = "".join(f"{t} {i} {j}\n" for t, i, j in rows)
    series = ingest.window_graphs(_table(text), 0, 300, 100)
    for g in series.graphs:
        assert np.array_equal(g, g.T)
        assert set(np.unique(g)) <= {0.0, 1.0}
        assert np.array_equal(np.diag(g), np.zeros(len(series.node_ids)))


@pytest.mark.parametrize("start,end,width", [
    (ingest.MORNING_START, ingest.MORNING_END, ingest.MORNING_WIDTH),
    (ingest.AFTERNOON_START, ingest.AFTERNOON_END, ingest.AFTERNOON_WIDTH),
    (ingest.MORNING_START - 1000, ingest.MORNING_START + 5000, 700),
])
def test_window_matches_reference_loop(start, end, width):
    text = ingest.synthetic_school_day(seed=1)
    series = ingest.window_graphs(_table(text), start, end, width)
    rows = reference_parse_contacts(io.StringIO(text))
    expected = reference_window_graphs(rows, start, end, width)
    assert len(series.graphs) == len(expected)
    assert all(np.array_equal(g, e) for g, e in zip(series.graphs, expected))


def test_window_argument_validation():
    # each table holds a contact inside the range, so only the checked argument fails
    with pytest.raises(ValueError, match="window width must be positive, got 0"):
        ingest.window_graphs(_table("10 1 2\n"), 0, 100, 0)
    with pytest.raises(ValueError, match=r"empty time range \[100, 100\)"):
        ingest.window_graphs(_table("100 1 2\n"), 100, 100, 60)
    # t - start would wrap around in int64 and put the contact in window 1, not 2
    with pytest.raises(ValueError, match="longer than int64"):
        ingest.window_graphs(_table(f"{2**62 + 1} 1 2\n"), -(2**62) - 10, 2**62 + 10, 2**62)


def test_snapshot_graphs_feed_sample_mean_adjacency():
    series = ingest.window_graphs(_table("0 1 2\n15 2 3\n"), 0, 20, 10)
    assert isinstance(series.graphs, list)
    mean = barycentre.sample_mean_adjacency(series.graphs)
    assert np.array_equal(mean, [[0, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0]])


def test_window_range_without_contacts_raises():
    with pytest.raises(ValueError, match=r"no contacts in the time range \[0, 100\)"):
        ingest.window_graphs(_table("100 1 2\n# 5 1 2\n"), 0, 100, 10)
    with pytest.raises(ValueError, match=r"\[0, 1000\)"):
        ingest.window_graphs(_table(ingest.synthetic_school_day(seed=0)), 0, 1000, 100)


def test_event_validation():
    with pytest.raises(ingest.ParseError, match="line 1: negative timestamp -1"):
        _table("-1 1 2\n")
    with pytest.raises(ingest.ParseError, match="line 2: self-contact at t=0 for node 3"):
        _table("0 1 2\n0 3 3\n")


def test_surrogate_day_is_deterministic_and_parses():
    text = ingest.synthetic_school_day(seed=3)
    assert text == ingest.synthetic_school_day(seed=3)
    assert text != ingest.synthetic_school_day(seed=4)
    table = _table(text)
    assert len(np.union1d(table.i, table.j)) == 232
    assert (table.t[:200] % ingest.TICK_SECONDS == 0).all()


@pytest.mark.parametrize("seed", range(4))
def test_surrogate_day_matches_the_per_hit_generator(seed):
    assert ingest.synthetic_school_day(seed) == reference_synthetic_school_day(seed)


def test_surrogate_day_window_counts():
    table = _table(ingest.synthetic_school_day(seed=0))
    morning = ingest.window_graphs(
        table, ingest.MORNING_START, ingest.MORNING_END, ingest.MORNING_WIDTH
    )
    afternoon = ingest.window_graphs(
        table, ingest.AFTERNOON_START, ingest.AFTERNOON_END, ingest.AFTERNOON_WIDTH
    )
    assert len(morning.graphs) == 35
    assert len(afternoon.graphs) == 26
