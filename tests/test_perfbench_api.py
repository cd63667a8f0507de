"""The benchmark in ``perfbench/`` calls only names in ``vortexscatter.__all__``
and ``vortexscatter.cli.main``; a tiny traced run of each workload guards that
contract, so a deletion that breaks it fails here and not as failed ops."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["survey", "shell_scan", "semiclassical"])
def test_perfbench_tiny_traced_run_fails_no_op(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.3", "--trace", "1", "--tiny"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0 and result["failed"] == 0, result
