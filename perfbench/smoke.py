"""Smoke test of the benchmark itself, at tiny size.

Not collected by the repository's test run (the file name does not
match ``test_*.py``); run it explicitly from the checkout root::

    python3 -m pytest -q perfbench/smoke.py

Takes about two minutes on two CPUs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SIMULATED_COUNTS = ("uarch.core.uops", "uarch.core.sim_cycles",
                    "uarch.cache_replay.accesses")


def bench(workload: str, trace: int, seed: int = 0, cwd: str = ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_outputs_match(workload, trace):
    done = bench(workload, trace)
    result = result_of(done)
    # correct is false on any digest mismatch or failed op.
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    error_rate = [line for line in done.stdout.splitlines()
                  if line.startswith("error_rate")]
    assert error_rate and float(error_rate[0].split()[1]) == 0.0


def test_simulated_counts_repeat_exactly():
    first, second = (result_of(bench("penelope_points", 1, seed=5))
                     for __ in range(2))
    for name in SIMULATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["uarch.core.uops"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
