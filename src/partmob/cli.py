"""Command-line driver: config parsing, run orchestration, CSV emission.

Configs are flat ``key = value`` text files with dotted section keys, e.g.::

    problem.W.kind = newtonian_attractive
    problem.initial.kind = parabolic_bump
    discretization.N = 200
    discretization.t_end = 1.0

Subcommands: ``run``, ``converge``, ``oracle-compare``, ``entropy-check``,
``edb-check``.  Exit codes: 0 ok, 1 usage/config error, 2 invariant
violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import cpus
from . import diagnostics as diag
from . import fv as fvmod
from . import variational as var
from .model import (MASS_MISMATCH, NEGATIVE_DENSITY, NON_MONOTONE_MOBILITY,
                    UNBOUNDED_SUPPORT, InvalidProblem, Potentials, Problem,
                    linear_potential, morse, newtonian, no_interaction,
                    parabolic_bump, piecewise_constant_density,
                    power_cap_mobility, quadratic_potential, simpson,
                    tabulated_mobility, uniform_density, validate,
                    zero_potential)
from .quantile import QuantileError, quantile_partition
from .reconstruct import (TimeGridMismatch, write_snapshot_rows,
                          write_snapshots_csv, write_table)
from .solver import (NonFiniteState, StepUnderflow, TooManySteps, Trajectory,
                     UnorderedState, check_cell_bounds, default_dt, integrate)

__all__ = ["main", "parse_config", "build_problem", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",") if part.strip()]
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(path) -> dict:
    cfg: dict = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got "
                              f"{line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        cfg[key] = _parse_value(raw)
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, raw = item.partition("=")
        cfg[key.strip()] = _parse_value(raw)
    return cfg


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def _as_list(value):
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def _to_number(key, value, kind):
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or \
            (kind is int and number != value):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, not {value!r}")
    try:
        finite = math.isfinite(number)
    except OverflowError:   # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be finite and within the float "
                          f"range, not {value!r}")
    return number


def _number(cfg, key, default=None, required=False, kind=float):
    """A scalar numeric config entry (None if absent without default)."""
    value = _get(cfg, key, default, required)
    return None if value is None else _to_number(key, value, kind)


def _numbers(cfg, key, default=None, required=False, kind=float):
    """A numeric config entry read as a list of one or more numbers."""
    return [_to_number(key, v, kind)
            for v in _as_list(_get(cfg, key, default, required))]


def _section(cfg, section, default, makers):
    """The model object of ``section``: ``makers[kind]()`` for the kind
    that ``section.kind`` names, with a constructor's ``ValueError`` turned
    into a ``ConfigError`` that names the section and the kind."""
    kind = _get(cfg, f"{section}.kind", default)
    if not (isinstance(kind, str) and kind in makers):     # a list too
        raise ConfigError(f"unknown {section}.kind {kind!r}")
    try:
        return makers[kind]()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section} ({kind}): {exc}") from None


def build_problem(cfg: dict) -> Problem:
    mobility = _section(cfg, "problem.mobility", "power_cap", {
        "power_cap": lambda: power_cap_mobility(
            m_beta=_number(cfg, "problem.mobility.M_beta", 1.0),
            gamma=_number(cfg, "problem.mobility.gamma", 1.0)),
        "tabulated": lambda: tabulated_mobility(
            np.asarray(_numbers(cfg, "problem.mobility.samples",
                                required=True)),
            np.asarray(_numbers(cfg, "problem.mobility.values",
                                required=True)))})
    external = _section(cfg, "problem.V", "zero", {
        "zero": zero_potential,
        "linear": lambda: linear_potential(
            _number(cfg, "problem.V.coeff", 1.0)),
        "quadratic": lambda: quadratic_potential(
            _number(cfg, "problem.V.coeff", 1.0))})
    interaction = _section(cfg, "problem.W", "zero", {
        "zero": no_interaction,
        "newtonian_attractive": lambda: newtonian(attractive=True),
        "newtonian_repulsive": lambda: newtonian(attractive=False),
        "morse": lambda: morse(*(
            _number(cfg, f"problem.W.{name}", required=True)
            for name in ("c_A", "ell_A", "c_R", "ell_R")))})
    mass = _number(cfg, "problem.m")
    initial = _section(cfg, "problem.initial", "parabolic_bump", {
        "parabolic_bump": lambda: parabolic_bump(
            amplitude=_number(cfg, "problem.initial.amplitude", 0.75),
            center=_number(cfg, "problem.initial.center", 0.0),
            radius=_number(cfg, "problem.initial.radius", 1.0), mass=mass),
        "uniform": lambda: uniform_density(
            a=_number(cfg, "problem.initial.a", 0.0),
            b=_number(cfg, "problem.initial.b", 1.0),
            height=_number(cfg, "problem.initial.height", 1.0), mass=mass),
        "piecewise_constant": lambda: piecewise_constant_density(
            _numbers(cfg, "problem.initial.breakpoints", required=True),
            _numbers(cfg, "problem.initial.values", required=True),
            mass=mass)})
    return Problem(mobility, Potentials(external, interaction), initial)


def _positive(cfg, key, default):
    """A config entry that must be positive when given."""
    value = _number(cfg, key, default)
    if value is not None and not value > 0.0:
        raise ConfigError(f"{key} must be positive")
    return value


def _flag(cfg, key) -> bool:
    """A switch, on unless given as false; a given value must be a boolean
    (``true``/``false``, ``yes``/``no``, ``on``/``off``)."""
    value = _get(cfg, key, True)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, not {value!r}")
    return value


def _discretization(cfg):
    """``(n_cells, t_end, dt, store_every)``, with ``dt`` None for the CFL
    guard's default step."""
    n_cells = _number(cfg, "discretization.N", required=True, kind=int)
    if n_cells < 2:
        raise ConfigError("discretization.N must be at least 2")
    t_end = _positive(cfg, "discretization.t_end", 1.0)
    integrator = _get(cfg, "discretization.integrator", "rk4")
    if integrator != "rk4":
        raise ConfigError(f"discretization.integrator must be rk4, not "
                          f"{integrator!r}: runs use fixed RK4 steps, set "
                          "by discretization.dt")
    dt = _positive(cfg, "discretization.dt", None)
    store_every = _number(cfg, "discretization.output_every", 1, kind=int)
    if store_every < 1:
        raise ConfigError("discretization.output_every must be at least 1")
    return n_cells, t_end, dt, store_every


# the config section behind each issue code of validate()
_ISSUE_SECTIONS = {NON_MONOTONE_MOBILITY: "problem.mobility",
                   UNBOUNDED_SUPPORT: "problem.initial",
                   NEGATIVE_DENSITY: "problem.initial",
                   MASS_MISMATCH: "problem.initial"}


def _resolve(cfg):
    """``(problem, discretization)``: the validated problem and
    :func:`_discretization`'s tuple, checked in that order.  An invalid
    problem is a ``ConfigError`` naming each issue's section and code, as
    :func:`_section` names a constructor's section and kind."""
    try:
        problem = validate(build_problem(cfg))
    except InvalidProblem as exc:
        sections = dict(_ISSUE_SECTIONS)
        if "problem.m" in cfg:      # the declared mass is the config's
            sections[MASS_MISMATCH] = "problem.m"
        raise ConfigError("; ".join(
            f"{sections[issue.code]} ({issue.code}): {issue.message}"
            for issue in exc.issues)) from None
    return problem, _discretization(cfg)


def run_trajectory(resolved) -> Trajectory:
    """The run of a :func:`_resolve` pair."""
    problem, (n_cells, t_end, dt, store_every) = resolved
    state0 = quantile_partition(problem.initial, n_cells)
    return integrate(state0, problem, t_end, dt=dt, store_every=store_every)


def check_invariants(traj: Trajectory) -> list[str]:
    violations = []
    fields, problem = traj.fields, traj.problem
    masses = fields.masses()
    worst = float(np.max(np.abs(masses - fields.mass))) / fields.mass
    if worst > 1e-12:
        violations.append(f"mass drift {worst:.3e} exceeds 1e-12 relative")
    bounds = check_cell_bounds(traj)
    if bounds.min_width_ratio <= 0.0:
        violations.append("particle ordering lost at a stored time")
    if bounds.max_density > problem.M * (1.0 + 1e-9):
        violations.append(f"max density {bounds.max_density:.9g} exceeds "
                          f"the uniform bound {problem.M:.9g}")
    return violations


def _out_dir(cfg, args) -> Path:
    out = args.out_dir or _get(cfg, "output.dir", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _aligned_run(problem, n_cells, t_end, n_out=100,
                 dt_cap=1e-3) -> Trajectory:
    """Fixed-step run whose stored times are exactly linspace(0, t_end,
    n_out+1), shared across refinement levels."""
    state0 = quantile_partition(problem.initial, n_cells)
    dt_target = min(dt_cap, default_dt(state0, problem))
    per_out = max(1, int(np.ceil((t_end / n_out) / dt_target)))
    dt = (t_end / n_out) / per_out
    return integrate(state0, problem, t_end, dt=dt, store_every=per_out)


def space_time_l1(fields_a, fields_b) -> float:
    """``int_0^T ||rho_a(t) - rho_b(t)||_L1 dt`` on the shared stored grid."""
    if len(fields_a.times) != len(fields_b.times) or \
            np.max(np.abs(fields_a.times - fields_b.times)) \
            > fields_a._time_slack():
        raise TimeGridMismatch("refinement runs must share their output "
                               "times")
    dists = np.array([
        fvmod.l1_distance(fields_a.edges[k], fields_a.densities[k],
                          fields_b.edges[k], fields_b.densities[k])
        for k in range(len(fields_a.times))])
    return float(simpson(dists, fields_a.times))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _edb_balance(table) -> tuple[float, float, list[str]]:
    """The energy balance residual of a ``gradient_records`` table of at
    least three stored times, the tolerance ``1e-6 * (|F_h(0)| + 1)`` that
    ``run`` and ``edb-check`` hold it to, and the violation message, if
    any, as a list."""
    residual = var.records_residual(table)
    tol = 1e-6 * (abs(table["F_h"][0]) + 1.0)
    violations = []
    if residual > tol:
        violations.append(f"energy balance residual {residual:.3e} above "
                          f"the tolerance {tol:.3e}: lower "
                          "discretization.dt")
    return residual, tol, violations


def _report(violations) -> int:
    for v in violations:
        print(f"invariant violation: {v}", file=sys.stderr)
    return EXIT_INVARIANT if violations else EXIT_OK


def _first_state(problem, n_cells, dt):
    """``(state0, dt)``: a run's particles at t = 0 and its step, ``dt`` or
    the CFL guard's ``default_dt``."""
    state0 = quantile_partition(problem.initial, n_cells)
    return state0, default_dt(state0, problem) if dt is None else dt


def _on_two_cpus(traj: Trajectory, path: Path, norms: bool, edb: bool):
    """Write ``snapshots.csv`` at ``path`` and return the per-time columns
    of ``diagnostics.csv`` and ``variational.csv`` (as ``norms`` and ``edb``
    ask), the stored times split at half between this process and a
    ``cpus.fork_join`` worker.  The worker's rows go into a temporary file
    beside ``path``, appended after the join; its columns come back as its
    value."""
    fields, n = traj.fields, len(traj.times)
    n_diag, half = len(diag.DIAGNOSTICS_COLUMNS), (n + 1) // 2
    columns = np.empty((n_diag + len(var.GRADIENT_COLUMNS), n))

    def columns_at(times):
        if norms:
            diag.diagnostics_columns(fields, times, columns[:n_diag])
        if edb:
            var.gradient_columns(traj, times, columns[n_diag:])
        return columns[:, times]

    def mine():
        write_snapshots_csv(fields, path, range(half))
        columns_at(slice(0, half))

    with tempfile.TemporaryFile("w+", newline="", dir=path.parent) as tmp:
        def theirs():
            tmp.seek(0)     # over what a failed worker left
            tmp.truncate()
            write_snapshot_rows(tmp, fields, range(half, n))
            tmp.flush()     # the worker exits without flushing
            return columns_at(slice(half, n))

        columns[:, half:] = cpus.fork_join(mine, theirs)[1]
        tmp.seek(0)
        with open(path, "ab") as fh:
            shutil.copyfileobj(tmp.buffer, fh)
    return columns[:n_diag], columns[n_diag:]


def cmd_run(cfg, args) -> int:
    norms = _flag(cfg, "diagnostics.norms")
    edb = _flag(cfg, "diagnostics.edb")
    traj = run_trajectory(_resolve(cfg))
    out = _out_dir(cfg, args)
    fields, problem = traj.fields, traj.problem
    split = cpus.worth_forking("run",
                               len(traj.times) * (fields.n_cells + 1))
    if split:
        norm_rows, gradient_rows = _on_two_cpus(traj, out / "snapshots.csv",
                                                norms, edb)
    else:
        write_snapshots_csv(fields, out / "snapshots.csv")
    if norms:
        diag.write_diagnostics_csv(
            diag.diagnostics_table(fields, problem, norm_rows) if split
            else diag.diagnostics_records(fields, problem),
            out / "diagnostics.csv")
    balance = []
    if edb:
        table = (var.gradient_table(traj.times, gradient_rows) if split
                 else var.gradient_records(traj))
        var.write_gradient_csv(table, out / "variational.csv")
        if len(traj.times) >= 3:    # Simpson's rule in time
            balance = _edb_balance(table)[2]
        # freed before check_invariants allocates: kept alive, the table's
        # float objects raised the peak RSS of the figure configs' runs
        del table
    violations = check_invariants(traj) + balance
    if violations:
        return _report(violations)
    print(f"run ok: {len(traj.times)} stored times, outputs in {out}")
    return EXIT_OK


def cmd_converge(cfg, args) -> int:
    problem, (_, t_end, dt, _) = _resolve(cfg)
    n_list = _numbers(cfg, "discretization.N_list", [50, 100, 200, 400],
                      kind=int)
    if len(n_list) < 2:
        raise ConfigError("discretization.N_list needs at least two entries")
    if any(2 * a != b for a, b in zip(n_list[:-1], n_list[1:])):
        raise ConfigError("discretization.N_list entries must double")
    out = _out_dir(cfg, args)
    dt_cap = dt if dt else 1e-3
    *coarse, finest = n_list

    def finest_run():
        traj = _aligned_run(problem, finest, t_end, 100, dt_cap)
        return traj.times, traj.positions, traj.velocities, traj.h, traj.stats

    # at most the finest level's particle-steps: its steps are at most dt_cap
    runs, (times, positions, velocities, h, stats) = cpus.stages(
        (finest + 1) * t_end / dt_cap,
        lambda: {n: _aligned_run(problem, n, t_end, 100, dt_cap)
                 for n in coarse},
        finest_run)
    runs[finest] = Trajectory(times, positions, velocities, h, problem, stats)
    table = {"N": n_list[:-1], "cauchy_diff": [], "bv_max": [],
             "edb_residual": []}
    for a, b in zip(n_list[:-1], n_list[1:]):
        table["cauchy_diff"].append(space_time_l1(runs[a].fields,
                                                  runs[b].fields))
        table["bv_max"].append(max(diag.bv_norms(runs[a].fields).tolist()))
        table["edb_residual"].append(var.edb_residual(runs[a]))
    write_table(out / "refinement.csv", table)
    for n, cauchy, bv_max, edb in zip(*table.values()):
        print(f"N={n:5d}  cauchy={cauchy:.6e}  bv_max={bv_max:.6g}  "
              f"edb={edb:.3e}")
    diffs = table["cauchy_diff"]
    if any(d2 >= d1 for d1, d2 in zip(diffs[:-1], diffs[1:])):
        print("warning: refinement differences are not strictly decreasing",
              file=sys.stderr)
    return EXIT_OK


def cmd_oracle_compare(cfg, args) -> int:
    dx = _positive(cfg, "oracle.fv_dx", 1e-3)
    lo = _number(cfg, "oracle.window_lo")
    hi = _number(cfg, "oracle.window_hi")
    if (lo is None) != (hi is None) or (lo is not None and not lo < hi):
        raise ConfigError("oracle.window_lo and oracle.window_hi must be "
                          "given together, with lo < hi")
    problem, (n_cells, t_end, dt, store_every) = _resolve(cfg)
    if lo is None:
        pad = 1.0 + problem.mobility.beta_max * t_end
        lo = problem.initial.x_min - pad
        hi = problem.initial.x_max + pad
    compare_times = _numbers(cfg, "oracle.compare_times", [t_end])
    state0, dt = _first_state(problem, n_cells, dt)

    def particles():
        fields = integrate(state0, problem, t_end, dt=dt,
                           store_every=store_every).fields
        for t in compare_times:
            try:
                fields.index_of(t)
            except KeyError:
                raise ConfigError(f"oracle.compare_times entry {t!r} is not "
                                  "a stored output time") from None
        return fields

    fields, fv_fields = cpus.stages(
        (n_cells + 1) * (t_end / dt), particles,
        lambda: fvmod.fv_solve(problem, (lo, hi), dx, t_end,
                               store_times=compare_times)[1])
    out = _out_dir(cfg, args)
    table = {"t": compare_times, "l1_error": []}
    for t in compare_times:
        table["l1_error"].append(fvmod.l1_compare(fields, fv_fields, t))
        print(f"t={t:.4g}  l1_error={table['l1_error'][-1]:.6e}")
    write_table(out / "oracle_compare.csv", table)
    return EXIT_OK


def cmd_entropy_check(cfg, args) -> int:
    # the entropy keys are checked before the run they are applied to
    c_values = _numbers(cfg, "diagnostics.entropy.c")
    if not all(c > 0.0 for c in c_values):
        raise ConfigError("diagnostics.entropy.c entries must be positive")
    n_phi = _number(cfg, "diagnostics.entropy.phi_grid", 9, kind=int)
    if n_phi < 1:
        raise ConfigError("diagnostics.entropy.phi_grid must be at least 1")
    tol = _number(cfg, "diagnostics.entropy.tol", 1e-2)
    problem, discretization = _resolve(cfg)
    traj = run_trajectory((problem, discretization))
    fields = traj.fields
    _, t_end, *_ = discretization
    cap = problem.mobility.cap
    c_values = c_values or [0.25 * cap, 0.5 * cap, 0.75 * cap]
    n_centers = max(1, int(round(n_phi / 3)))
    pad = problem.mobility.beta_max * t_end
    phis = diag.standard_bump_grid(t_end, problem.initial.x_min - pad,
                                   problem.initial.x_max + pad,
                                   n_centers=n_centers)
    stride = max(1, len(fields.times) // 400)
    half = (len(phis) + 1) // 2

    def report(bumps):
        return lambda: diag.entropy_report(fields, problem, c_values, phis,
                                           stride, bumps)

    first, second = cpus.stages((fields.n_cells + 1) * traj.stats["steps"],
                                report(range(half)),
                                report(range(half, len(phis))))
    table = {key: first[key] + second[key] for key in first}
    out = _out_dir(cfg, args)
    diag.write_entropy_csv(table, out / "entropy.csv")
    worst = min(table["residual"])
    print(f"entropy residuals: min={worst:.6e} over "
          f"{len(table['residual'])} cases ({len(phis)} test bumps, "
          f"{len(c_values)} levels)")
    if worst < -tol:
        print(f"invariant violation: entropy residual {worst:.3e} below "
              f"{-tol:g}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_edb_check(cfg, args) -> int:
    problem, (n_cells, t_end, dt, store_every) = _resolve(cfg)
    state0, dt = _first_state(problem, n_cells, dt)

    def main_run():
        # its arrays are freed on return, before a half-step run here
        traj = integrate(state0, problem, t_end, dt=dt,
                         store_every=store_every)
        if len(traj.times) < 3:
            # the balance integrates in time by Simpson's rule
            raise ConfigError("edb-check needs at least three stored "
                              f"times; this run stored {len(traj.times)}: "
                              "lower discretization.dt or "
                              "discretization.output_every")
        out = _out_dir(cfg, args)
        table = var.gradient_records(traj)
        var.write_gradient_csv(table, out / "variational.csv")
        residual, tol, violations = _edb_balance(table)
        print(f"edb residual: {residual:.6e} (tolerance {tol:.3e})")
        return residual, violations

    def half_run():
        # starts from the same particles and needs none of main_run's arrays
        return var.edb_residual(integrate(state0, problem, t_end,
                                          dt=dt / 2.0,
                                          store_every=store_every))

    # particle-steps of the dt/2 run, the worker's
    (residual, violations), residual_half = cpus.stages(
        (n_cells + 1) * (2.0 * t_end / dt), main_run, half_run)
    ratio = residual / residual_half if residual_half > 0 else float("inf")
    print(f"half-step residual: {residual_half:.6e}  ratio={ratio:.2f}")
    return _report(violations)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partmob",
        description="Particle and finite-volume solvers for 1D nonlocal "
                    "transport with nonlinear mobility")
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out-dir", default=None, help="output directory")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry")
    parser.add_argument("command",
                        choices=["run", "converge", "oracle-compare",
                                 "entropy-check", "edb-check"])
    return parser


_COMMANDS = {
    "run": cmd_run,
    "converge": cmd_converge,
    "oracle-compare": cmd_oracle_compare,
    "entropy-check": cmd_entropy_check,
    "edb-check": cmd_edb_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        cfg = parse_config(args.config)
        apply_overrides(cfg, args.override)
        return _COMMANDS[args.command](cfg, args)
    except (StepUnderflow, NonFiniteState, UnorderedState, QuantileError,
            TimeGridMismatch, fvmod.CflViolation, fvmod.WindowExceeded) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, OSError, ValueError) as exc:
        hint = (": raise discretization.dt" if isinstance(exc, TooManySteps)
                else "")
        print(f"config error: {exc}{hint}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        detail = str(exc) or "no detail"    # numpy names the allocation
        print(f"config error: the run does not fit in memory ({detail}): "
              "lower discretization.N, or raise discretization.dt or "
              "discretization.output_every", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
