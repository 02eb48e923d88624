"""End-to-end command-line tests, run in process through cli.main."""

import gzip
import io
import json
import logging
import tracemalloc

import numpy as np
import pytest
from helpers import paper_scaled

from specbary import alignment, barycentre, cli, eigen, graph_core, ingest, sbm


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
    names = sorted(path.name for path in a.iterdir())
    # the population mean is not written: the manifest's spec fixes it
    assert names == ["manifest.json", "permutation_000.csv", "permutation_001.csv",
                     "sample_000.csv", "sample_001.csv"]
    for name in names:
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


def test_barycentre_mse_is_the_dense_score_against_the_spec(tmp_path, spec_file):
    # scored in block form from the manifest's spec, with the bits of the
    # dense population mean against mu_hat in the sample's labelling
    src, out = tmp_path / "src", tmp_path / "out"
    assert run("sample", "--spec", spec_file, "--T", 2, "--seed", 5, "--out", src) == 0
    assert run("barycentre", "--in", src, "--M", 2, "--seed", 0, "--out", out) == 0
    graphs = [graph_core.load_matrix(src / f"sample_{t:03d}.csv") for t in range(2)]
    perm = graph_core.load_permutation(src / "permutation_000.csv")
    result = barycentre.compute_barycentre(graphs, M=2, seed=0)
    expected = barycentre.mse(sbm.population_mean(sbm.load_spec(spec_file)), result.mu_hat[np.ix_(perm, perm)])
    assert json.loads((out / "diagnostics.json").read_text())["mse"] == expected


def test_barycentre_ignores_the_population_file_of_older_sample_directories(tmp_path, spec_file):
    # sample used to write the population mean to population.csv and name it
    # in the manifest; such a directory is scored from its spec, so a file
    # that disagrees with the spec changes no byte
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--T", 2, "--seed", 5, "--out", src) == 0
    assert run("barycentre", "--in", src, "--M", 2, "--out", tmp_path / "new") == 0
    graph_core.save_matrix(np.ones((16, 16)), src / "population.csv")
    manifest = json.loads((src / "manifest.json").read_text())
    (src / "manifest.json").write_text(json.dumps({**manifest, "population": "population.csv"}))
    assert run("barycentre", "--in", src, "--M", 2, "--out", tmp_path / "old") == 0
    assert ((tmp_path / "old" / "diagnostics.json").read_bytes()
            == (tmp_path / "new" / "diagnostics.json").read_bytes())


_GOOD_SPEC = {"block_sizes": [6, 10], "p": [0.9, 0.8], "q": 0.1}


@pytest.mark.parametrize("command, payload", [
    ("sample", {**_GOOD_SPEC, "q": [0.1]}),
    ("sample", {**_GOOD_SPEC, "block_sizes": 8}),
    ("sample", {**_GOOD_SPEC, "block_sizes": [4, None]}),
    ("sample", [_GOOD_SPEC]),
    ("sample", {**_GOOD_SPEC, "n": 17}),
    ("sample", {**_GOOD_SPEC, "block_sizes": "88"}),
    ("sample", {**_GOOD_SPEC, "block_sizes": [6.7, 10]}),
    ("sample", {**_GOOD_SPEC, "p": [True, 0.8]}),
    ("sample", {"block_sizes": [6, 10], "p": [0.9, 0.8]}),
    ("barycentre", []),
    ("barycentre", {"graphs": 3}),
    ("barycentre", {"graphs": "sample_000.csv"}),
    ("barycentre", {"graphs": ["sample_000.csv"], "permutations": [0]}),
    ("barycentre", {"graphs": ["sample_000.csv"], "spec": {**_GOOD_SPEC, "q": [0.1]}}),
    ("barycentre", {"graphs": ["sample_000.csv"], "spec": {**_GOOD_SPEC, "block_sizes": [6, 9]}}),
], ids=["q-list", "block-sizes-int", "block-size-null", "spec-list", "spec-n", "block-sizes-str",
        "block-size-float", "p-bool", "no-q", "manifest-list", "graphs-int", "graphs-str", "permutation-int",
        "manifest-spec-q-list", "manifest-spec-n"])
def test_malformed_spec_or_manifest_is_data_error_naming_the_file(tmp_path, spec_file, caplog, command,
                                                                   payload):
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--out", src) == 0
    bad = tmp_path / "bad.json" if command == "sample" else src / "manifest.json"
    bad.write_text(json.dumps(payload))
    with caplog.at_level(logging.ERROR, logger="specbary"):
        if command == "sample":
            assert run("sample", "--spec", bad, "--out", tmp_path / "o") == 3
        else:
            assert run("barycentre", "--in", src, "--M", 2, "--out", tmp_path / "o") == 3
    (message,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert str(bad) in message


def test_sample_round_trip_of_readme_reports_small_mse(tmp_path, spec_file):
    src, out = tmp_path / "src", tmp_path / "out"
    assert run("sample", "--spec", spec_file, "--T", 4, "--seed", 0, "--out", src) == 0
    perms = [(src / f"permutation_{t:03d}.csv").read_bytes() for t in range(4)]
    assert perms[1:] == perms[:1] * 3
    assert run("barycentre", "--in", src, "--M", 2, "--seed", 0, "--out", out) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert 0.0 <= diagnostics["mse"] < MSE_LIMIT


def test_barycentre_refuses_mixed_relabellings(tmp_path, spec_file, caplog):
    # the barycentre needs one node order; the first permutation file that
    # differs from the first one is named
    src = tmp_path / "src"
    src.mkdir()
    spec = sbm.load_spec(spec_file)
    shuffles = [np.arange(spec.n), np.arange(spec.n), np.arange(spec.n)[::-1]]
    for t, perm in enumerate(shuffles):
        a = sbm.sample(spec, (1, t))
        graph_core.save_matrix(graph_core.permute(a, perm), src / f"sample_{t}.csv")
        graph_core.save_permutation(perm, src / f"permutation_{t}.csv")
    (src / "manifest.json").write_text(json.dumps({
        "graphs": [f"sample_{t}.csv" for t in range(3)],
        "permutations": [f"permutation_{t}.csv" for t in range(3)],
    }))
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="specbary"):
        assert run("barycentre", "--in", src, "--M", 2, "--out", out) == 3
    [message] = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert message.startswith(f"{src / 'permutation_2.csv'}: relabelling differs from "
                              f"{src / 'permutation_0.csv'}")
    assert not out.exists()


def test_barycentre_rejects_permutation_file_with_repeated_node(tmp_path, spec_file):
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--T", 1, "--seed", 3, "--out", src) == 0
    perm_file = src / json.loads((src / "manifest.json").read_text())["permutations"][0]
    lines = perm_file.read_text().splitlines()
    lines[2] = "0," + lines[2].split(",")[1]  # node id 0 again, node 1 gone
    perm_file.write_text("\n".join(lines) + "\n")
    assert run("barycentre", "--in", src, "--M", 2, "--out", tmp_path / "o") == 3



@pytest.mark.parametrize("extra", [1, -1])
def test_barycentre_rejects_permutation_of_another_size(tmp_path, spec_file, caplog, extra):
    # a valid permutation of n + 1 or n - 1 nodes, for graphs of n = 16
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--T", 2, "--seed", 3, "--out", src) == 0
    perm = graph_core.philox(9).permutation(16 + extra)
    for name in json.loads((src / "manifest.json").read_text())["permutations"]:
        graph_core.save_permutation(perm, src / name)
    with caplog.at_level(logging.ERROR, logger="specbary"):
        assert run("barycentre", "--in", src, "--M", 2, "--out", tmp_path / "o") == 3
    (message,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert "permutation_000.csv" in message and f"permutation of {16 + extra} nodes" in message

def test_barycentre_mixed_sizes_is_data_error(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    graph_core.save_matrix(np.zeros((4, 4)), src / "g0.csv")
    graph_core.save_matrix(np.zeros((5, 5)), src / "g1.csv")
    assert run("barycentre", "--in", src, "--M", 1, "--out", tmp_path / "o") == 3


@pytest.mark.parametrize("mode", [("--M", 2), ("--auto-M",)])
def test_barycentre_names_the_differing_sizes(tmp_path, caplog, mode):
    src = tmp_path / "src"
    src.mkdir()
    graph_core.save_matrix(sbm.sample(sbm.balanced(40, 2, 0.8, 0.1), (3, 0)), src / "g0.csv")
    graph_core.save_matrix(sbm.sample(sbm.balanced(44, 2, 0.8, 0.1), (3, 1)), src / "g1.csv")
    with caplog.at_level(logging.ERROR):
        assert run("barycentre", "--in", src, *mode, "--out", tmp_path / "o") == 3
    (message,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert message == "graph sizes differ: (44, 44) vs (40, 40)"


def test_barycentre_empty_directory_is_data_error(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    assert run("barycentre", "--in", src, "--M", 1, "--out", tmp_path / "o") == 3


@pytest.mark.parametrize("empty", ["sample_001.csv", "permutation_001.csv"])
def test_barycentre_names_an_input_file_with_no_rows(tmp_path, spec_file, caplog, empty):
    # an empty graph file, or a permutation file with its header alone
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--T", 2, "--seed", 3, "--out", src) == 0
    (src / empty).write_text("node_id,position\n" if empty.startswith("permutation") else "")
    with caplog.at_level(logging.ERROR, logger="specbary"):
        assert run("barycentre", "--in", src, "--M", 2, "--out", tmp_path / "o") == 3
    (message,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert message == f"{src / empty}: no rows of data"


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


def test_block_sweep_scores_dense_unshuffled_reconstructions_through_mse(tmp_path, monkeypatch):
    # the blocks benchmark reads each reconstruction from barycentre.mse's
    # second argument, so block-sweep must call it through the module attribute
    calls = []
    real = barycentre.mse

    def spy(a, b):
        value = real(a, b)
        calls.append((np.array(a), np.array(b), value))
        return value

    monkeypatch.setattr(barycentre, "mse", spy)
    out = tmp_path / "sweep"
    assert run("block-sweep", "--n", 256, "--m-list", "2,8", "--seeds", 1, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(calls) == 2  # one per (M, seed)
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    for M, row, (population, mu, value) in zip((2, 8), rows, calls):
        spec = sbm.balanced(256, M, manifest["p"], manifest["q"])
        key = (manifest["seed"], 256, M, 0)
        perm = graph_core.philox((*key, 1)).permutation(256)
        shuffled = graph_core.permute(sbm.sample(spec, key), perm)
        result = barycentre.compute_barycentre([shuffled], M=M, seed=(*key, 2))
        # node i of the sample sits at row perm[i] of the shuffled input
        assert np.array_equal(mu, result.mu_hat[np.ix_(perm, perm)])
        assert np.array_equal(population, sbm.population_mean(spec))
        assert row == f"{M},0,{value}"


def test_block_sweep_run_holds_at_most_two_n_by_n_arrays():
    n, M, key = 2048, 32, (79, 0)
    spec = paper_scaled(n, M)
    perm = graph_core.philox((*key, 1)).permutation(n)
    # the reference run also loads the solver modules before the measurement
    shuffled = graph_core.permute(sbm.sample(spec, key), perm)
    result = barycentre.compute_barycentre([shuffled], M=M, seed=(*key, 2))
    expected = barycentre.mse(sbm.population_mean(spec), result.mu_hat[np.ix_(perm, perm)])
    del shuffled, result
    tracemalloc.start()
    try:
        value = cli._one_mse_run(spec, M, key, (*key, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n * n
    assert value == expected


def test_block_sweep_run_peaks_below_one_and_a_half_n_by_n_arrays():
    # the sample is scattered straight into the shuffled input, and P is
    # scored in block form, so one n x n array is alive at a time
    n, M, key = 2048, 32, (79, 0)
    spec = paper_scaled(n, M)
    cli._one_mse_run(spec, M, key, (*key, 2))  # loads the solver modules
    tracemalloc.start()
    try:
        cli._one_mse_run(spec, M, key, (*key, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_block_sweep_run_holds_no_n_by_n_array():
    # the relabelled edges reach compute_barycentre as their entries, so one
    # run peaks below half of an n x n float64 input, which alone is 32 MB
    n, M, key = 2048, 8, (79, 0)
    spec = paper_scaled(n, M)
    cli._one_mse_run(spec, M, key, (*key, 2))  # loads the solver modules
    tracemalloc.start()
    try:
        cli._one_mse_run(spec, M, key, (*key, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


@pytest.mark.parametrize("argv, flag", [
    (("block-sweep", "--m-list", "0"), "--m-list"),
    (("block-sweep", "--m-list", "8,-2"), "--m-list"),
    (("block-sweep", "--m-list", ","), "--m-list"),
    (("block-sweep", "--seeds", "0"), "--seeds"),
    (("block-sweep", "--seeds", "-3"), "--seeds"),
    (("block-sweep", "--n", "0"), "--n"),
    (("size-sweep", "--n-list", "48,0"), "--n-list"),
    (("size-sweep", "--n-list", ","), "--n-list"),
    (("size-sweep", "--n-list", "48", "--seeds", "0"), "--seeds"),
], ids=["m_zero", "m_negative", "m_empty", "seeds_zero", "seeds_negative", "n_zero",
        "size_n_zero", "size_n_empty", "size_seeds_zero"])
def test_sweeps_reject_bad_counts_as_usage_errors(tmp_path, spec_file, capsys, argv, flag):
    # before the checks: a ZeroDivisionError traceback, nan medians with
    # exit 0, a math domain error with exit 3, or an empty medians.csv
    extra = ("--spec", spec_file) if argv[0] == "size-sweep" else ()
    out = tmp_path / "sweep"
    assert run(*argv, *extra, "--out", out) == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert not out.exists()


def test_block_sweep_m_not_dividing_n_is_usage_error(tmp_path, capsys, monkeypatch):
    # before the check: exit 3 with "n=1000 is not divisible by M=3", naming
    # neither flag, after the M = 8 run had finished
    runs = []
    monkeypatch.setattr(cli, "_one_mse_run", lambda *args: runs.append(args) or 0.0)
    out = tmp_path / "sweep"
    assert run("block-sweep", "--n", 1000, "--m-list", "8,3", "--out", out) == 2
    assert "error: --m-list value 3 does not divide --n 1000" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("spectrum", "--bins", "0"), "--bins"),
    (("ingest", "--width", "0"), "--width"),
    (("barycentre", "--M", "0"), "--M"),
], ids=["bins_zero", "width_zero", "M_zero"])
def test_out_of_range_flags_are_usage_errors(tmp_path, spec_file, capsys, argv, flag):
    # before the checks each exited 3, as a data error
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--out", src) == 0
    contacts = tmp_path / "contacts.txt"
    contacts.write_text("10 1 2\n")
    inputs = ("--contacts", contacts) if argv[0] == "ingest" else ("--in", src)
    out = tmp_path / "o"
    assert run(*argv, *inputs, "--out", out) == 2
    assert f"error: {flag} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_barycentre_M_above_n_is_data_error(tmp_path, spec_file):
    # n is known only once the graphs are loaded
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--out", src) == 0
    assert run("barycentre", "--in", src, "--M", 17, "--out", tmp_path / "o") == 3


@pytest.mark.parametrize("argv", [
    ("block-sweep", "--n", 128, "--m-list", "2,8"),
    ("size-sweep", "--n-list", "32,48"),
], ids=["block_sweep", "size_sweep"])
def test_sweeps_write_identical_bytes_for_one_seed(tmp_path, spec_file, argv):
    extra = ("--spec", spec_file) if argv[0] == "size-sweep" else ()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(*argv, *extra, "--seeds", 2, "--seed", 3, "--gnuplot", "--out", out) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {"sweep.csv", "medians.csv", "manifest.json", "plot.gp"} <= set(names)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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


def test_spectrum_solves_each_graph_under_the_blas_pin(tmp_path, spec_file, monkeypatch):
    # the pin gives each dense solve the bits of one BLAS thread
    src = tmp_path / "src"
    assert run("sample", "--spec", spec_file, "--T", 3, "--seed", 7, "--out", src) == 0
    depths = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: depths.append(eigen._pin.depth) or real(a))
    assert run("spectrum", "--in", src, "--out", tmp_path / "hist") == 0
    assert len(depths) == 3 and min(depths) >= 1


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


def test_ingest_window_count_is_exact_for_long_spans(tmp_path):
    contacts = tmp_path / "contacts.txt"
    contacts.write_text(f"{3 * 10**16} 1 2\n")
    out = tmp_path / "out"
    assert run("ingest", "--contacts", contacts, "--start", 0, "--end", 3 * 10**16 + 1,
               "--width", 10**16, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["window_bounds"][-1] == [3 * 10**16, 3 * 10**16 + 1]
    assert graph_core.load_matrix(out / "snapshot_003.csv")[0, 1] == 1.0


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


def test_ingest_then_auto_M_barycentre_matches_the_library(tmp_path):
    # the contact path end to end: a gzipped school day, its morning windows
    # and the barycentre of their snapshots, against the library calls
    text = ingest.synthetic_school_day(seed=0)
    contacts = tmp_path / "day.txt.gz"
    with gzip.open(contacts, "wt") as fh:
        fh.write(text)
    snapshots, out = tmp_path / "snapshots", tmp_path / "bary"
    assert run("ingest", "--contacts", contacts, "--out", snapshots) == 0
    assert run("barycentre", "--in", snapshots, "--auto-M", "--out", out) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["M"] == 10 and len(diagnostics["leaf_blocks"]) == 10

    series = ingest.window_graphs(ingest.parse_contacts(io.StringIO(text)), ingest.MORNING_START,
                                  ingest.MORNING_END, ingest.MORNING_WIDTH)
    library = tmp_path / "library"
    barycentre.write_result(barycentre.compute_barycentre(series.graphs, M=None, seed=0), library)
    for name in ("mu_hat.csv", "laplacian_hat.csv", "spectrum.json", "degrees.json",
                 "permutation.csv"):
        assert (out / name).read_bytes() == (library / name).read_bytes(), name


def test_unknown_command_and_missing_command(capsys):
    assert run("frobnicate") == 2
    assert run() == 2
    capsys.readouterr()
