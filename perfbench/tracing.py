"""In-memory span tracing of partmob's public functions, and the per-layer
metrics derived from the spans.

Callers inside the package bind functions with ``from .x import y`` or
reach them as ``module.y``, so a function is replaced by its traced wrapper
in every partmob module namespace that holds it.  A span records (name,
start, end, parent span, command id) plus a few argument-derived
quantities; nothing is written until ``write_spans`` is called.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# traced layers; ``model`` is left out, its validation costs under 1 ms
MODULES = ("quantile", "forces", "solver", "reconstruct", "variational",
           "diagnostics", "fv", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 for a root
    command: int           # index of the workload step the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_positions(args, kwargs):
    return len(args[0].positions)


def _file_bytes(args, kwargs):
    return os.path.getsize(args[1])


def _points(args, kwargs):
    return np.atleast_1d(args[4] if len(args) > 4 else kwargs["x"]).size


def _pair_matrix_bytes(args, kwargs):
    # computed, not measured: the float64 pair array reconstructed_energy
    # builds, (4N)^2 Gauss-node pairs for a general kernel, N^2 cell
    # midpoints for |x|, none without interaction
    n_cells = len(args[0]) - 1
    kernel = args[2].interaction
    if kernel.is_zero:
        return 0
    side = n_cells if kernel.is_newtonian else 4 * n_cells
    return 8 * side * side


# span attribute -> function of the call's arguments, read after the call
PROBES = {
    "forces.particle_forces": {"n": _n_positions},
    "solver.forces_for": {"n": _n_positions},
    "forces.continuum_force": {"points": _points},
    "reconstruct.write_snapshots_csv": {"bytes": _file_bytes},
    "variational.reconstructed_energy": {"pair_bytes": _pair_matrix_bytes},
    "fv.fv_step": {"cells": lambda a, k: a[0].n},
}


class Tracer:
    """Collects spans of wrapped calls.

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with nothing open there takes the main thread's innermost
    open span as its parent, so a thread pool's work nests under the
    command that started it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.command = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        probes = PROBES.get(name, {})
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else -1)
            span = Span(name, 0.0, 0.0, parent, self.command)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            for key, probe in probes.items():
                span.attrs[key] = probe(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer, package) -> int:
    """Wrap every public function of the traced modules wherever a partmob
    namespace binds it; returns the number of functions wrapped."""
    namespaces = [package] + [getattr(package, m) for m in MODULES]
    wrapped = 0
    for short in MODULES:
        module = getattr(package, short)
        for fname in getattr(module, "__all__", ()):
            fn = getattr(module, fname)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            traced = tracer.wrap(f"{short}.{fname}", fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, traced)
            wrapped += 1
    return wrapped


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


# layer-time metric -> the entry points whose same-module subtree it sums
LAYER_TIMES = {
    "quantile.partition_s": ("quantile.quantile_partition",),
    "forces.particle_s": ("forces.particle_forces",
                          "forces.newtonian_forces_fast"),
    "forces.continuum_s": ("forces.continuum_force",),
    "solver.integrate_s": ("solver.integrate",),
    "reconstruct.write_snapshots_s": ("reconstruct.write_snapshots_csv",),
    "variational.edb_series_s": ("variational.edb_series",),
    "variational.reconstructed_energy_s": ("variational.reconstructed_energy",),
    "variational.edb_residual_s": ("variational.edb_residual",),
    "variational.write_s": ("variational.write_gradient_csv",),
    "diagnostics.records_s": ("diagnostics.diagnostics_records",),
    "diagnostics.write_s": ("diagnostics.write_diagnostics_csv",
                            "diagnostics.write_entropy_csv"),
    "diagnostics.entropy_report_s": ("diagnostics.entropy_report",),
    "fv.solve_s": ("fv.fv_solve",),
    "fv.l1_compare_s": ("fv.l1_compare",),
    "cli.self_s": ("cli.main",),
}

LAYER_COUNTS = ("quantile.calls", "forces.particle_calls", "forces.pair_evals",
                "forces.continuum_points", "solver.velocity_evals",
                "solver.particle_updates_per_s", "reconstruct.snapshot_bytes",
                "variational.force_recomputes",
                "variational.pair_matrix_bytes", "fv.steps",
                "fv.cell_updates_per_s", "cli.integrations")


def _layer_root(spans, i, roots):
    """Nearest entry point at or above span i reached through spans of the
    same module, or None."""
    module = spans[i].module
    while i >= 0 and spans[i].module == module:
        if spans[i].name in roots:
            return spans[i].name
        i = spans[i].parent
    return None


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and work counts for one pass."""
    own = self_times(spans)
    root_metric = {root: metric for metric, names in LAYER_TIMES.items()
                   for root in names}
    out = {metric: 0.0 for metric in LAYER_TIMES}
    out.update({metric: 0 for metric in LAYER_COUNTS})
    for i, span in enumerate(spans):
        root = _layer_root(spans, i, root_metric)
        if root is not None:
            out[root_metric[root]] += own[i]

    def parent_name(span):
        return spans[span.parent].name if span.parent >= 0 else ""

    integrate_s = fv_solve_s = 0.0
    particle_updates = cell_updates = 0
    for span in spans:
        name = span.name
        if name == "quantile.quantile_partition":
            out["quantile.calls"] += 1
        elif name in LAYER_TIMES["forces.particle_s"]:
            out["forces.particle_calls"] += 1
            if name == "forces.particle_forces":
                n = span.attrs["n"]
                out["forces.pair_evals"] += n * (n - 1)
        elif name == "forces.continuum_force":
            out["forces.continuum_points"] += span.attrs["points"]
        elif name == "solver.integrate":
            out["cli.integrations"] += 1
            integrate_s += span.duration
        elif name == "solver.forces_for":
            caller = parent_name(span)
            if caller == "solver.integrate":
                out["solver.velocity_evals"] += 1
                particle_updates += span.attrs["n"]
            elif caller.startswith("variational."):
                out["variational.force_recomputes"] += 1
        elif name == "reconstruct.write_snapshots_csv":
            out["reconstruct.snapshot_bytes"] += span.attrs["bytes"]
        elif name == "variational.reconstructed_energy":
            out["variational.pair_matrix_bytes"] = max(
                out["variational.pair_matrix_bytes"], span.attrs["pair_bytes"])
        elif name == "fv.fv_step":
            out["fv.steps"] += 1
            cell_updates += span.attrs["cells"]
        elif name == "fv.fv_solve":
            fv_solve_s += span.duration
    if integrate_s > 0:
        out["solver.particle_updates_per_s"] = particle_updates / integrate_s
    if fv_solve_s > 0:
        out["fv.cell_updates_per_s"] = cell_updates / fv_solve_s
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per line: name, start, end, parent, command, attrs."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent,
                                 span.command, span.attrs]) + "\n")
