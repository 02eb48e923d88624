"""Fast self-test of the benchmark harness, at tiny sizes.

  python3 perfbench/selftest.py

Runs every workload once untraced and once traced and checks that

- every end-to-end and per-layer metric appears with a unit, and matches
  the names BENCHMARK.json lists;
- a deliberately corrupted output is counted as failed;
- tracing puts back every specbary module attribute it wrapped.

Exits 0 when all hold. Takes well under a minute.
"""

import importlib
import json
import sys

import environment

environment.pin_blas_threads()
sys.path.insert(0, str(environment.SRC))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import Blocks, Contacts, Ensemble  # noqa: E402

TINY = (Ensemble(n=256, T=2, M=4), Blocks(n=256, m_list=(2, 8)), Contacts())


def module_attributes() -> dict:
    return {
        (name, attr): value
        for name in tracing.TRACED
        for attr, value in vars(importlib.import_module(f"specbary.{name}")).items()
    }


def check_metrics(run: harness.Run, expected: set) -> None:
    metrics = run.metrics()
    assert set(metrics) == expected, sorted(set(metrics) ^ expected)
    for name, m in metrics.items():
        assert m["unit"], f"{name} has no unit"
        assert isinstance(m["value"], (int, float)), name


def perturb_mu_hat(result) -> None:
    np.add(result.mu_hat, 0.05, out=result.mu_hat)


def drop_a_block(output) -> None:
    path = output["barycentre"] / "diagnostics.json"
    diagnostics = json.loads(path.read_text())
    diagnostics["leaf_blocks"] = diagnostics["leaf_blocks"][1:]
    path.write_text(json.dumps(diagnostics))


def main() -> int:
    end_to_end = set(harness.END_TO_END_UNITS)
    per_layer = set(tracing.layer_metric_units()) | {"trace_overhead_s"}
    listed = environment.ROOT / "BENCHMARK.json"
    if listed.is_file():
        spec = json.loads(listed.read_text())
        assert {m["name"] for m in spec["end_to_end"]} == end_to_end
        assert {m["name"] for m in spec["per_layer"]} == per_layer
        assert [w["name"] for w in spec["workloads"]] == [w.name for w in TINY]

    before = module_attributes()
    for workload in TINY:
        run = harness.measure(workload, seed=1, seconds=0, trace=False)
        assert run.failed == 0, run.problems
        check_metrics(run, end_to_end)
        run = harness.measure(workload, seed=1, seconds=0, trace=True)
        assert run.failed == 0, run.problems
        assert run.layers and run.spans
        check_metrics(run, per_layer)
        assert module_attributes() == before, "a wrapped attribute was not restored"
        print(f"{workload.name}: metrics complete, tracing restored")

    for workload, corrupt in ((TINY[0], perturb_mu_hat), (TINY[2], drop_a_block)):
        run = harness.measure(workload, seed=1, seconds=0, trace=False, corrupt=corrupt)
        assert run.attempted > 0 and run.failed == run.attempted, (run.failed, run.attempted)
        print(f"{workload.name}: corrupted output counted as failed "
              f"({run.failed}/{run.attempted})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
