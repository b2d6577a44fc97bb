"""The benchmark harness runs on the current sources and its traced pass checks out.

One short traced pass per workload: every record must match its expected
values and no call may fail.  A change that breaks a workload's records or
its per-layer counters fails here rather than only in a benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["transport-study", "reservoir-scan", "geodesic-search"])
def test_traced_pass_is_correct(workload):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0.01", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
