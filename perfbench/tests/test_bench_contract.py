"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from run import COMMAND_METRICS, unit_of  # noqa: E402
from tracing import LAYER_COUNTS, LAYER_TIMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()]


def test_per_layer_metrics_and_units_match():
    printed = [*COMMAND_METRICS.values(), "failed_ops", "outputs_changed",
               "trace.overhead_s", "wall_raw_s", "trace.spans", *LAYER_TIMES, *LAYER_COUNTS]
    assert [m["name"] for m in SPEC["per_layer"]] == printed
    for metric in SPEC["per_layer"] + SPEC["end_to_end"]:
        assert unit_of(metric["name"]) == metric["unit"], metric["name"]
