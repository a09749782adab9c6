"""The library surface the benchmark calls: one traced tiny round of each
workload of bench/worker.py must run, and every operation must pass its
reference check.  A removed method, stats key or counter that the worker
or its tracer reads fails here rather than only in the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_cold", "identities_warm", "reduce_deep")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_round_passes(workload):
    # --trace, since the untraced tiny round collects too few probe
    # samples for the worker's host-speed scaling
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("NLCA_CACHE_LIMIT", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload",
         workload, "--seed", "1", "--rounds", "1", "--size", "tiny",
         "--trace"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    ops = record["ops"]
    assert ops
    assert [(label, err) for _, label, _, err in ops if err is not None] == []
