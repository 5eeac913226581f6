"""Self-time arithmetic and layer attribution of the benchmark's tracer."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from tracing import Span, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("solver.integrate", 1.0, 4.0, 0, 0),
        Span("solver.forces_for", 2.0, 3.0, 1, 0),
        Span("fv.fv_solve", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # spans opened on worker threads overlap under the same parent
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("solver.integrate", 1.0, 5.0, 0, 0),
        Span("solver.integrate", 3.0, 7.0, 0, 0),
        Span("solver.integrate", 6.5, 12.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_time_stops_at_other_modules():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("solver.integrate", 1.0, 6.0, 0, 0),
        Span("solver.forces_for", 2.0, 4.0, 1, 0, {"n": 11}),
        Span("forces.newtonian_forces_fast", 2.5, 3.5, 2, 0),
        Span("variational.edb_series", 6.0, 9.0, 0, 0),
        Span("variational.free_energy", 6.0, 7.0, 4, 0),
        Span("solver.forces_for", 7.0, 8.0, 4, 0, {"n": 11}),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    # integrate's own 3 s plus forces_for's 1 s, the rank-sum excluded
    assert m["solver.integrate_s"] == pytest.approx(4.0)
    assert m["forces.particle_s"] == pytest.approx(1.0)
    # edb_series' own 1 s plus free_energy's 1 s
    assert m["variational.edb_series_s"] == pytest.approx(2.0)
    assert m["solver.velocity_evals"] == 1
    assert m["variational.force_recomputes"] == 1
    assert m["solver.particle_updates_per_s"] == pytest.approx(11 / 5.0)
    assert m["cli.integrations"] == 1


def test_traced_child_reports_every_layer(tmp_path):
    root = BENCH.parent
    out_dirs = [str(tmp_path / "run"), str(tmp_path / "edb")]
    small = ["--override", "discretization.N=20",
             "--override", "discretization.t_end=0.02"]
    spec = {"steps": [["--config", str(root / "configs/attractive.cfg"),
                       *small, cmd] for cmd in ("run", "edb-check")],
            "out_dirs": out_dirs, "trace": str(tmp_path / "spans.jsonl")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(BENCH / "child.py"),
                    str(tmp_path / "spec.json"), str(tmp_path / "out.json")],
                   check=True, capture_output=True, timeout=120,
                   env={"PYTHONPATH": str(root / "src"),
                        "PATH": "/usr/bin:/bin"})
    result = json.loads((tmp_path / "out.json").read_text())
    assert result["codes"] == [0, 0]
    layers = result["layers"]
    assert layers["cli.integrations"] == 3      # run once, edb-check twice
    # 4 RK4 stages per step plus one evaluation per stored time; the
    # edb-check half-step rerun takes 40 steps
    assert layers["solver.velocity_evals"] == 2 * (4 * 20 + 21) + 4 * 40 + 41
    for name in ("quantile.partition_s", "solver.integrate_s",
                 "reconstruct.write_snapshots_s", "variational.edb_series_s",
                 "diagnostics.records_s", "cli.self_s"):
        assert layers[name] > 0, name
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(spans) == result["spans"]
    assert json.loads(spans[0])[0] == "cli.main"
