"""Contact-list parsing, windowed snapshot construction, surrogate data."""

import gzip
import io

import numpy as np
import pytest
from helpers import reference_parse_contacts, reference_window_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from specbary import barycentre, ingest


def _table(text: str) -> ingest.ContactTable:
    return ingest.parse_contacts(io.StringIO(text))


def _rows(table: ingest.ContactTable) -> list[tuple]:
    columns = (table.t.tolist(), table.i.tolist(), table.j.tolist(), table.class_i, table.class_j)
    return list(zip(*columns))


def test_parse_five_field_line():
    table = _table("31220 1558 1567 3B 3B\n")
    assert len(table) == 1
    assert (table.t[0], table.i[0], table.j[0]) == (31220, 1558, 1567)
    assert table.class_i[0] == "3B" and table.class_j[0] == "3B"


def test_parse_three_field_line_and_order():
    table = _table("10 1 2\n20 2 3\n")
    assert [row[:3] for row in _rows(table)] == [(10, 1, 2), (20, 2, 3)]
    assert table.class_i[0] is None


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


# one generator per line kind; every bad kind is planted at most once
_SPACE = st.sampled_from([" ", "\t", "  ", " \t "])
_CLASS = st.sampled_from(["1A", "3B", "x"])
_INT_TEXT = st.sampled_from(["{}", "+{}", "0{}"])


@st.composite
def _contact_line(draw, fields: int) -> str:
    t = draw(st.integers(0, 10**6))
    i = draw(st.integers(-3, 40))
    j = draw(st.integers(-3, 40).filter(lambda v: v != i))
    values = [draw(_INT_TEXT).format(v) if v >= 0 else str(v) for v in (t, i, j)]
    if fields == 5:
        values += [draw(_CLASS), draw(_CLASS)]
    return draw(_SPACE).join(values)


_GOOD = st.one_of(
    _contact_line(3),
    _contact_line(5),
    st.builds(lambda ws, text: f"{ws}#{text}", st.sampled_from(["", " ", "\t", "  "]),
              st.sampled_from(["", " t i j", "# 1 2 3"])),
    st.sampled_from(["", " ", "\t "]),
)
_BAD = {
    "field_count": st.sampled_from(["10 1", "10 1 2 3", "1 2 3 4 5 6", "7"]),
    "non_integer": st.sampled_from(["ten 1 2", "1.5 1 2", "10 a 2 1A 1B", "10 1 0x2"]),
    # "-3 6 6" is also a negative timestamp; the self-contact is reported first
    "self_contact": st.sampled_from(["10 4 4", "0 -2 -2 1A 1A", "5 +4 4", "-3 6 6"]),
    "negative_t": st.sampled_from(["-5 1 2", "-1 3 4 1A 1B"]),
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
    text = "".join(line + end for line, end in zip(lines, endings))
    try:
        expected = reference_parse_contacts(io.StringIO(text))
    except ingest.ParseError as exc:
        with pytest.raises(ingest.ParseError) as caught:
            _table(text)
        assert str(caught.value) == str(exc)
    else:
        assert _rows(_table(text)) == expected


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
