"""End-to-end command-line tests, run in process through cli.main."""

import json
import logging

import numpy as np
import pytest

from specbary import alignment, barycentre, cli, graph_core, ingest, sbm


MSE_LIMIT = 0.02  # a shared labelling gives about 0.004 here, mixed ones about 0.2


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture
def spec_file(tmp_path):
    spec = sbm.SbmSpec(block_sizes=(6, 10), p=(0.9, 0.8), q=0.1)
    path = tmp_path / "spec.json"
    sbm.save_spec(spec, path)
    return path


def test_sample_is_deterministic(tmp_path, spec_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("sample", "--spec", spec_file, "--T", 2, "--seed", 7, "--out", a) == 0
    assert run("sample", "--spec", spec_file, "--T", 2, "--seed", 7, "--out", b) == 0
    for name in ("sample_000.csv", "sample_001.csv", "permutation_001.csv", "population.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["T"] == 2 and manifest["n"] == 16


def test_sample_rejects_nonpositive_T(tmp_path, spec_file):
    assert run("sample", "--spec", spec_file, "--T", 0, "--out", tmp_path / "o") == 2


def test_sample_missing_spec_is_data_error(tmp_path):
    assert run("sample", "--spec", tmp_path / "nope.json", "--out", tmp_path / "o") == 3


def test_sample_malformed_spec_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("sample", "--spec", bad, "--out", tmp_path / "o") == 3


def test_barycentre_requires_exactly_one_m_mode(tmp_path, spec_file):
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--out", src) == 0
    assert run("barycentre", "--in", src, "--out", tmp_path / "o1") == 2
    assert run("barycentre", "--in", src, "--M", 2, "--auto-M", "--out", tmp_path / "o2") == 2


def test_barycentre_roundtrip_reports_mse(tmp_path, spec_file):
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--T", 1, "--seed", 3, "--out", src) == 0
    out = tmp_path / "out"
    assert run("barycentre", "--in", src, "--M", 2, "--seed", 0, "--out", out) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["M"] == 2
    assert 0.0 <= diagnostics["mse"] < 0.25
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["M"] == 2 and manifest["T"] == 1


def test_sample_round_trip_of_readme_reports_small_mse(tmp_path, spec_file):
    src, out = tmp_path / "src", tmp_path / "out"
    assert run("sample", "--spec", spec_file, "--T", 4, "--seed", 0, "--out", src) == 0
    perms = [(src / f"permutation_{t:03d}.csv").read_bytes() for t in range(4)]
    assert perms[1:] == perms[:1] * 3
    assert run("barycentre", "--in", src, "--M", 2, "--seed", 0, "--out", out) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert 0.0 <= diagnostics["mse"] < MSE_LIMIT


def test_barycentre_skips_mse_when_relabellings_differ(tmp_path, spec_file, caplog):
    src = tmp_path / "src"
    src.mkdir()
    spec = sbm.load_spec(spec_file)
    shuffles = [np.arange(spec.n), np.arange(spec.n)[::-1]]
    for t, perm in enumerate(shuffles):
        a = sbm.sample(spec, (1, t))
        graph_core.save_matrix(graph_core.permute(a, perm), src / f"sample_{t}.csv")
        graph_core.save_permutation(perm, src / f"permutation_{t}.csv")
    graph_core.save_matrix(sbm.population_mean(spec), src / "population.csv")
    (src / "manifest.json").write_text(json.dumps({
        "graphs": ["sample_0.csv", "sample_1.csv"],
        "permutations": ["permutation_0.csv", "permutation_1.csv"],
        "population": "population.csv",
    }))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="specbary"):
        assert run("barycentre", "--in", src, "--M", 2, "--out", out) == 0
    assert any("different relabellings" in r.getMessage() for r in caplog.records)
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert "mse" not in diagnostics


def test_barycentre_rejects_permutation_file_with_repeated_node(tmp_path, spec_file):
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--T", 1, "--seed", 3, "--out", src) == 0
    perm_file = src / json.loads((src / "manifest.json").read_text())["permutations"][0]
    lines = perm_file.read_text().splitlines()
    lines[2] = "0," + lines[2].split(",")[1]  # node id 0 again, node 1 gone
    perm_file.write_text("\n".join(lines) + "\n")
    assert run("barycentre", "--in", src, "--M", 2, "--out", tmp_path / "o") == 3


def test_barycentre_mixed_sizes_is_data_error(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    graph_core.save_matrix(np.zeros((4, 4)), src / "g0.csv")
    graph_core.save_matrix(np.zeros((5, 5)), src / "g1.csv")
    assert run("barycentre", "--in", src, "--M", 1, "--out", tmp_path / "o") == 3


def test_barycentre_empty_directory_is_data_error(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    assert run("barycentre", "--in", src, "--M", 1, "--out", tmp_path / "o") == 3


def test_barycentre_numerical_failure_exit_code(tmp_path, monkeypatch):
    src = tmp_path / "src"
    src.mkdir()
    graph_core.save_matrix(np.eye(4)[::-1].copy(), src / "g0.csv")

    def explode(*args, **kwargs):
        raise alignment.ClusteringError("no stable clustering found")

    monkeypatch.setattr(barycentre, "compute_barycentre", explode)
    assert run("barycentre", "--in", src, "--M", 2, "--out", tmp_path / "o") == 4


def test_barycentre_of_empty_graph_is_zero(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    graph_core.save_matrix(np.zeros((8, 8)), src / "g0.csv")
    out = tmp_path / "out"
    assert run("barycentre", "--in", src, "--M", 1, "--out", out) == 0
    mu = graph_core.load_matrix(out / "mu_hat.csv")
    assert np.array_equal(mu, np.zeros((8, 8)))


def test_size_sweep_single_size_has_no_slope(tmp_path, spec_file):
    out = tmp_path / "sweep"
    assert run("size-sweep", "--spec", spec_file, "--n-list", "64",
               "--seeds", 2, "--seed", 5, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["slope"] is None
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "n,seed,mse" and len(rows) == 3


def test_size_sweep_two_sizes_fits_slope_and_plots(tmp_path, spec_file):
    out = tmp_path / "sweep"
    assert run("size-sweep", "--spec", spec_file, "--n-list", "48,96",
               "--seeds", 2, "--out", out, "--gnuplot") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["slope"], float)
    assert "logscale" in (out / "plot.gp").read_text()
    medians = (out / "medians.csv").read_text().strip().splitlines()
    assert [row.split(",")[0] for row in medians] == ["n", "48", "96"]


def test_block_sweep_tolerates_single_node_blocks(tmp_path, caplog):
    out = tmp_path / "sweep"
    with caplog.at_level(logging.WARNING, logger="specbary"):
        code = run("block-sweep", "--n", 32, "--m-list", "32", "--seeds", 1,
                   "--seed", 2, "--out", out)
    assert code == 0
    assert any("non-ascending" in r.getMessage() for r in caplog.records)
    medians = (out / "medians.csv").read_text().strip().splitlines()
    assert medians[1].startswith("32,")


def test_spectrum_of_empty_graphs_concentrates_at_one(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for k in range(2):
        graph_core.save_matrix(np.zeros((6, 6)), src / f"g{k}.csv")
    out = tmp_path / "spec"
    assert run("spectrum", "--in", src, "--bins", 4, "--out", out) == 0
    rows = [r.split(",") for r in (out / "spectrum.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == 4
    counts = {float(left): int(count) for left, _, count in rows}
    assert counts[1.0] == 12 and sum(counts.values()) == 12


def test_spectrum_rejects_negative_entries_like_barycentre(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    graph_core.save_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]), src / "g0.csv")
    assert run("spectrum", "--in", src, "--out", tmp_path / "hist") == 3
    assert run("barycentre", "--in", src, "--M", 1, "--out", tmp_path / "bary") == 3



def test_ingest_wide_window_single_snapshot(tmp_path):
    contacts = tmp_path / "contacts.txt"
    contacts.write_text("10 1 2\n30 2 3\n")
    out = tmp_path / "out"
    assert run("ingest", "--contacts", contacts, "--start", 0, "--end", 100,
               "--width", 500, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n"] == 3
    assert manifest["window_bounds"] == [[0, 100]]
    snapshot = graph_core.load_matrix(out / "snapshot_000.csv")
    assert snapshot.sum() == 4.0


def test_ingest_parse_error_is_data_error(tmp_path):
    contacts = tmp_path / "contacts.txt"
    contacts.write_text("one two three\n")
    assert run("ingest", "--contacts", contacts, "--start", 0, "--end", 100,
               "--width", 60, "--out", tmp_path / "o") == 3


def test_ingest_range_without_contacts_is_data_error(tmp_path, caplog):
    contacts = tmp_path / "contacts.txt"
    contacts.write_text(ingest.synthetic_school_day(seed=0))
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="specbary"):
        assert run("ingest", "--contacts", contacts, "--start", 0, "--end", 1000,
                   "--width", 100, "--out", out) == 3
    assert "[0, 1000)" in caplog.text
    assert not out.exists()


def test_unknown_command_and_missing_command(capsys):
    assert run("frobnicate") == 2
    assert run() == 2
    capsys.readouterr()
