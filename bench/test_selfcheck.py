"""Self-check of the benchmark, kept apart from the package's tests.

    python3 -m pytest -q bench/test_selfcheck.py

Runs every workload at the tiny size through a traced run twice, under two
PYTHONHASHSEED values, and requires every operation to pass its reference
check and every count to repeat exactly.  Also pins the independent
references against hand-counted values.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402


def traced(workload, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--trace", "1", "--size", "tiny"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")
            and name not in ("scalars.self_share", "trace.overhead_ratio")}


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_counts_repeat_across_hash_seeds(workload):
    first, second = traced(workload, 1), traced(workload, 2)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
    assert counts(first) == counts(second)
    assert counts(first)["scalars.binop_calls"] > 0


def test_character_references_match_hand_counts():
    vir = worker.character_reference("virasoro", 10)
    assert [vir[str(w)] for w in range(11)] == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8,
                                                12]
    fer = worker.character_reference("free_fermion", 5)
    # 2w = 0..10 into distinct odd parts, e.g. 8 = 1+7 = 3+5
    assert [fer[str(Fraction(k, 2))] for k in range(11)] == [1, 1, 0, 1, 1, 1,
                                                             1, 1, 2, 2, 2]


def test_free_fermion_reference_sign():
    gens = (("phi", True, 1, Fraction(1, 2)),)
    # one transposition of two odd factors flips the sign
    assert worker.sorted_with_sign(gens, ((0, 2), (0, 1))) == (
        ((0, 1), (0, 2)), -1)
    assert worker.sorted_with_sign(gens, ((0, 3), (0, 1), (0, 3)))[1] == 0
    bos = (("a", False, 1, Fraction(1)),)
    assert worker.sorted_with_sign(bos, ((0, 2), (0, 1), (0, 2))) == (
        ((0, 1), (0, 2), (0, 2)), 1)
