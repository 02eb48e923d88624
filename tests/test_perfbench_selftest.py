"""The benchmark harness's own self-test, run as tier-1: a library change
that breaks a workload check, a traced name or a metric fails here before
any benchmark run. The self-test writes only under perfbench/.work/."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    assert "selftest passed" in done.stdout
