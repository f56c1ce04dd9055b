"""BENCHMARK.json names workloads the benchmark runs and metrics it can report."""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import instrument  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_exist():
    assert {w["name"] for w in _spec()["workloads"]} <= set(workloads.RUN)


def test_end_to_end_metrics_match():
    outcomes = [workloads.Outcome("yes", "k", {}, True), workloads.Outcome("no", "k", {}, True)]
    reported = run.end_to_end([0.1, 0.2], outcomes, 0.5)
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert spec == {name: unit for name, (_value, unit) in reported.items()}


def test_per_layer_metrics_name_wrapped_functions():
    wanted = [(m["name"], m["unit"]) for m in _spec()["per_layer"]]
    reported = instrument.per_layer_metrics(spans.Tracer(), 0.0, wanted)
    assert list(reported) == [name for name, _unit in wanted]
