"""Each benchmark workload, one pass at --seconds 0, accepts every output.

A colouring that no longer matches ``perfbench/expected.json``, or a
module the harness times that the package no longer has, fails here, not
only in a benchmark run.  The harness reads peak memory with
``resource``, so these tests skip where that module does not exist.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes(workload, tmp_path):
    pytest.importorskip("resource")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), [
        line for line in proc.stderr.splitlines() if "FAILED" in line]
