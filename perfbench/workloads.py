"""The benchmark's workloads: inputs made from a seed, one job, and the
check of that job's output.

A job is one task a user would run. ``prepare`` makes the inputs (set-up,
never timed as part of a job), ``run`` is the job, and ``check`` returns the
job's quality metrics together with a list of problems; a job whose list is
not empty has failed. Every job is checked. See NOTES.md for why each
workload was chosen.

The library is always called through its modules, as in
``barycentre.compute_barycentre`` and ``cli.main``, never through the names
``specbary`` re-exports, so that the traced run sees every call.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from specbary import barycentre, cli, ingest, sbm

ENSEMBLE_MSE_LIMIT = 1e-4  # acceptance criterion 08's bound for reconstructions
CONTACT_SNAPSHOTS = 35  # 360 s windows over the default school morning
CONTACT_M = 10  # one block per class (acceptance criterion 12)


def balanced_spec(n: int, M: int) -> sbm.SbmSpec:
    """The paper's scaling: p = 3 (log n)^2 / n, q = 2 log n / n."""
    p = min(1.0, 3 * math.log(n) ** 2 / n)
    q = min(p, 2 * math.log(n) / n)
    return sbm.balanced(n, M, p, q)


def leaf_labels(permutation: np.ndarray, blocks) -> np.ndarray:
    """Recovered leaf block of each input node.

    permutation[i] is node i's 0-based row in block order; blocks are 1-based
    inclusive (i0, i1) intervals over those rows.
    """
    ends = np.array([b for _, b in blocks])
    return np.searchsorted(ends, np.asarray(permutation) + 1)


def block_oracle(mean_adjacency: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """The sample mean adjacency averaged over each true block pair.

    It is the best block-constant summary of the data, so the reconstruction's
    distance to it leaves out the sampling noise no method could remove.
    """
    Z = np.eye(truth.max() + 1)[truth]
    sizes = Z.sum(axis=0)
    return Z @ ((Z.T @ mean_adjacency @ Z) / np.outer(sizes, sizes)) @ Z.T


def block_purity(truth: np.ndarray, recovered: np.ndarray) -> float:
    """Share of nodes whose recovered block's majority class is their own."""
    kept = sum(np.bincount(truth[recovered == r]).max() for r in np.unique(recovered))
    return float(kept) / len(truth)


class Ensemble:
    """``barycentre.compute_barycentre`` on T balanced-SBM samples that share
    one labelling, through the library API."""

    name = "ensemble"

    def __init__(self, n: int = 2048, T: int = 8, M: int = 4):
        self.n, self.T, self.M = n, T, M

    def prepare(self, seed: int, workdir: Path) -> None:
        spec = balanced_spec(self.n, self.M)
        # one shared labelling: a CLI `sample --T` round trip relabels each
        # sample on its own (ROADMAP item 5), so inputs come from the library
        self.graphs = [sbm.sample(spec, (seed, t)) for t in range(self.T)]
        self.population = sbm.population_mean(spec)
        self.truth = np.repeat(np.arange(self.M), self.n // self.M)
        self.oracle = block_oracle(barycentre.sample_mean_adjacency(self.graphs), self.truth)
        self.seed = seed

    def run(self):
        return barycentre.compute_barycentre(self.graphs, M=self.M, seed=self.seed)

    def check(self, result) -> tuple[dict, list[str]]:
        size = self.n // self.M
        equal = tuple((k * size + 1, (k + 1) * size) for k in range(self.M))
        quality = {
            "mse": barycentre.mse(self.oracle, result.mu_hat),
            "block_purity": block_purity(
                self.truth, leaf_labels(result.permutation, result.degrees.blocks)),
        }
        problems = []
        if tuple(result.degrees.blocks) != equal:
            problems.append(f"leaf blocks {result.degrees.blocks} are not {self.M} equal intervals")
        population_mse = barycentre.mse(self.population, result.mu_hat)
        if not population_mse < ENSEMBLE_MSE_LIMIT:
            problems.append(f"mse {population_mse:.3e} against P is not below {ENSEMBLE_MSE_LIMIT:g}")
        return quality, problems

    def cleanup(self, result) -> None:
        pass


class _ReconstructionTap:
    """Records a row signature of every reconstruction the CLI scores.

    block-sweep passes each reconstruction, in the input labelling, to
    ``barycentre.mse``. The reconstruction is constant on each leaf x leaf
    block, so rows of one leaf share their product with a fixed random
    vector, which recovers the leaf partition without keeping the n x n
    matrix alive.
    """

    def __init__(self, probe: np.ndarray):
        self.probe = probe
        self.signatures: list[np.ndarray] = []

    def __enter__(self):
        self._mse = barycentre.mse

        def mse(a, b):
            self.signatures.append(np.asarray(b, dtype=float) @ self.probe)
            return self._mse(a, b)

        barycentre.mse = mse
        return self

    def __exit__(self, *exc):
        barycentre.mse = self._mse
        return False


def signature_labels(signature: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    """Group nodes whose signatures agree to rtol of the largest one."""
    order = np.argsort(signature)
    tol = rtol * max(1.0, float(np.abs(signature).max()))
    starts = np.concatenate([[0], np.diff(signature[order]) > tol]).cumsum()
    labels = np.empty(len(signature), dtype=int)
    labels[order] = starts
    return labels


class Blocks:
    """The block-count experiment: ``specbary block-sweep`` run in-process,
    one single-sample reconstruction per block count."""

    name = "blocks"

    def __init__(self, n: int = 2048, m_list: tuple[int, ...] = (8, 32)):
        self.n, self.m_list = n, tuple(m_list)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.probe = np.random.default_rng(0).standard_normal(self.n)

    def run(self):
        out = Path(tempfile.mkdtemp(prefix="blocks-", dir=self.workdir))
        with _ReconstructionTap(self.probe) as tap:
            code = cli.main(["block-sweep", "--n", str(self.n),
                             "--m-list", ",".join(map(str, self.m_list)),
                             "--seeds", "1", "--seed", str(self.seed), "--out", str(out)])
        return {"code": code, "out": out, "signatures": tap.signatures}

    def check(self, output) -> tuple[dict, list[str]]:
        if output["code"] != 0:
            return {}, [f"block-sweep exited with {output['code']}"]
        problems = []
        medians = _read_csv(output["out"] / "medians.csv")
        by_M = {int(r["M"]): float(r["median_mse"]) for r in medians}
        if sorted(by_M) != sorted(self.m_list):
            problems.append(f"medians.csv has M values {sorted(by_M)}, expected {list(self.m_list)}")
        elif not by_M[max(self.m_list)] > by_M[min(self.m_list)]:
            problems.append(f"mse does not grow with M: {by_M}")
        sweep = [float(r["mse"]) for r in _read_csv(output["out"] / "sweep.csv")]
        signatures = output["signatures"]
        if len(signatures) != len(self.m_list):
            problems.append(f"{len(signatures)} reconstructions scored, expected {len(self.m_list)}")
        purities = [
            block_purity(np.arange(self.n) // (self.n // M), signature_labels(sig))
            for M, sig in zip(self.m_list, signatures)
        ]
        quality = {"mse": float(np.mean(sweep)), "block_purity": float(np.mean(purities))}
        return quality, problems

    def cleanup(self, output) -> None:
        shutil.rmtree(output["out"], ignore_errors=True)


class Contacts:
    """The paper's real-data shape: ``specbary ingest`` on a synthetic school
    day, then ``specbary barycentre --auto-M`` on its 35 morning snapshots."""

    name = "contacts"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.contacts = workdir / "contacts.txt"
        text = ingest.synthetic_school_day(seed)
        self.contacts.write_text(text)
        self._reference(text)

    def _reference(self, text: str) -> None:
        # expected snapshots, classes and mean adjacency, read from the file
        # text by the benchmark itself rather than by specbary.ingest
        start, end, width = ingest.MORNING_START, ingest.MORNING_END, ingest.MORNING_WIDTH
        rows = [line.split() for line in text.splitlines() if line and not line.startswith("#")]
        classes = {}
        for _, i, j, ci, cj in rows:
            classes[int(i)], classes[int(j)] = ci, cj
        tij = np.array([[int(r[0]), int(r[1]), int(r[2])] for r in rows])
        tij = tij[(tij[:, 0] >= start) & (tij[:, 0] < end)]
        self.node_ids = np.unique(tij[:, 1:])
        a = np.searchsorted(self.node_ids, tij[:, 1])
        b = np.searchsorted(self.node_ids, tij[:, 2])
        window = (tij[:, 0] - start) // width
        n = len(self.node_ids)
        snapshots = np.zeros((math.ceil((end - start) / width), n, n))
        snapshots[window, a, b] = 1.0
        snapshots[window, b, a] = 1.0
        names = sorted(set(classes.values()))
        self.truth = np.array([names.index(classes[v]) for v in self.node_ids])
        self.oracle = block_oracle(snapshots.mean(axis=0), self.truth)

    def run(self):
        root = Path(tempfile.mkdtemp(prefix="contacts-", dir=self.workdir))
        snaps, bary = root / "snapshots", root / "barycentre"
        codes = [cli.main(["ingest", "--contacts", str(self.contacts), "--out", str(snaps)])]
        if codes[0] == 0:
            codes.append(cli.main(["barycentre", "--in", str(snaps), "--auto-M",
                                   "--seed", str(self.seed), "--out", str(bary)]))
        return {"codes": codes, "root": root, "snapshots": snaps, "barycentre": bary}

    def check(self, output) -> tuple[dict, list[str]]:
        if output["codes"] != [0, 0]:
            return {}, [f"ingest, barycentre exit codes {output['codes']}"]
        problems = []
        manifest = json.loads((output["snapshots"] / "manifest.json").read_text())
        if len(manifest["graphs"]) != CONTACT_SNAPSHOTS:
            problems.append(f"{len(manifest['graphs'])} snapshots, expected {CONTACT_SNAPSHOTS}")
        if manifest["node_ids"] != self.node_ids.tolist():
            return {}, problems + ["ingest node ids differ from the contact file's"]
        diagnostics = json.loads((output["barycentre"] / "diagnostics.json").read_text())
        blocks = diagnostics["leaf_blocks"]
        if diagnostics["M"] != CONTACT_M or len(blocks) != CONTACT_M:
            problems.append(f"M={diagnostics['M']} with {len(blocks)} leaf blocks, expected {CONTACT_M}")
        mu_hat = np.loadtxt(output["barycentre"] / "mu_hat.csv", delimiter=",", ndmin=2)
        rows = np.loadtxt(output["barycentre"] / "permutation.csv", delimiter=",",
                          skiprows=1, dtype=int, ndmin=2)
        permutation = np.empty(len(rows), dtype=int)
        permutation[rows[:, 0]] = rows[:, 1]
        quality = {
            "mse": barycentre.mse(self.oracle, mu_hat),
            "block_purity": block_purity(self.truth, leaf_labels(permutation, blocks)),
        }
        return quality, problems

    def cleanup(self, output) -> None:
        shutil.rmtree(output["root"], ignore_errors=True)


def _read_csv(path: Path) -> list[dict]:
    header, *lines = path.read_text().split()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


WORKLOADS = {w.name: w for w in (Ensemble, Blocks, Contacts)}
