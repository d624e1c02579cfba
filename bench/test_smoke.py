"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest bench/test_smoke.py -q

Each workload must print every metric BENCHMARK.json names, with its unit,
traced and untraced; and a planted model that returns NaN must be caught by
the output checks and fail the command.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, result = run_bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_nan_model_fails_the_checks(workload):
    code, result = run_bench(workload, 0, "--fault", "nan")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0
