"""Smoke test of the benchmark on a shrunken config.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit and
that the per-layer counts repeat exactly between two traced runs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_PREFIXES = ("backbone.", "expert.windows.", "ewt.fallback_windows", "dataset.train_windows")


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = bench.run(workload, seed=3, seconds=0.0, trace=0, scale=wl.SMOKE)["result"]
    _check_metrics(result, SPEC["end_to_end"])
    for name, m in result["metrics"].items():
        assert m["value"] > 0.0, name


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_layer_counts_repeat(workload):
    first = bench.run(workload, seed=3, seconds=0.0, trace=1, scale=wl.SMOKE)["result"]
    second = bench.run(workload, seed=3, seconds=0.0, trace=1, scale=wl.SMOKE)["result"]
    _check_metrics(first, SPEC["per_layer"])
    counts = [n for n in first["metrics"] if n.startswith(COUNT_PREFIXES)]
    assert len(counts) == 8
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["backbone.step_calls"]["value"] > 0
