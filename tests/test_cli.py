import ast
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob import cli, forces
from partmob import fv as fvmod
from partmob import variational as var
from partmob.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK,
                         ConfigError, build_problem, main, parse_config)
from partmob.solver import StepUnderflow

BASE_CONFIG = """
# attractive kernel on the standard bump
problem.mobility.kind = power_cap
problem.mobility.M_beta = 1.0
problem.V.kind = zero
problem.W.kind = newtonian_attractive
problem.initial.kind = parabolic_bump
problem.initial.amplitude = 0.75
problem.initial.radius = 1.0
discretization.N = 24
discretization.t_end = 0.05
discretization.dt = 1e-3
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_values(tmp_path):
    path = write_config(tmp_path, """
a.b = 1
a.c = 2.5
a.d = true
a.e = hello
a.list = 0.25, 0.5, 0.75
""")
    cfg = parse_config(path)
    assert cfg["a.b"] == 1 and cfg["a.c"] == 2.5 and cfg["a.d"] is True
    assert cfg["a.e"] == "hello"
    assert cfg["a.list"] == [0.25, 0.5, 0.75]


def test_parse_error_reports_line(tmp_path):
    path = write_config(tmp_path, "valid.key = 1\nbroken line\n")
    with pytest.raises(ConfigError, match=":2"):
        parse_config(path)


def test_build_problem_kinds(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    p = build_problem(cfg)
    assert p.potentials.interaction.newtonian_sign == 1
    assert p.initial.mass == pytest.approx(1.0)


def test_run_zero_field(tmp_path):
    cfg_text = BASE_CONFIG.replace("newtonian_attractive", "zero")
    path = write_config(tmp_path, cfg_text)
    out = tmp_path / "out"
    code = main(["--config", str(path), "--out-dir", str(out), "run"])
    assert code == EXIT_OK
    for name in ("snapshots.csv", "diagnostics.csv", "variational.csv"):
        assert (out / name).exists()
    with open(out / "snapshots.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_left", "x_right", "rho", "u_left", "u_right"]
    # zero potentials: all stored velocities vanish
    u = np.array([[float(r[4]), float(r[5])] for r in rows[1:]])
    assert np.all(u == 0.0)


def test_run_is_deterministic(tmp_path):
    path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(path), "--out-dir", str(out_a), "run"]) == EXIT_OK
    assert main(["--config", str(path), "--out-dir", str(out_b), "run"]) == EXIT_OK
    for name in ("snapshots.csv", "diagnostics.csv", "variational.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_rejects_single_cell(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "discretization.N = 24", "discretization.N = 1"))
    assert main(["--config", str(path), "run"]) == EXIT_CONFIG


def test_run_rejects_bad_mass(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "problem.m = 2.0\n")
    assert main(["--config", str(path), "run"]) == EXIT_CONFIG


def test_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "run"]) == EXIT_CONFIG


def test_config_directory_is_config_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path), "run"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "config error:" in err
    assert "Traceback" not in out + err


def test_out_dir_existing_file_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["--config", str(path), "--out-dir", str(blocker),
                 "run"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "config error:" in err
    assert "Traceback" not in out + err


def test_override_applies(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "o"
    code = main(["--config", str(path), "--out-dir", str(out),
                 "--override", "discretization.N=12", "run"])
    assert code == EXIT_OK
    with open(out / "snapshots.csv") as fh:
        rows = list(csv.reader(fh))
    times = {r[0] for r in rows[1:]}
    cells_per_time = (len(rows) - 1) / len(times)
    assert cells_per_time == 12


def test_converge_static_problem(tmp_path, capsys):
    cfg_text = BASE_CONFIG.replace("newtonian_attractive", "zero") + \
        "discretization.N_list = 8, 16, 32\n"
    path = write_config(tmp_path, cfg_text)
    out = tmp_path / "conv"
    assert main(["--config", str(path), "--out-dir", str(out),
                 "converge"]) == EXIT_OK
    with open(out / "refinement.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "cauchy_diff", "bv_max", "edb_residual"]
    assert len(rows) == 3
    # static runs differ only by their quantile layout
    assert all(float(r[1]) < 0.2 for r in rows[1:])


def test_converge_requires_doubling(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG +
                        "discretization.N_list = 8, 24\n")
    assert main(["--config", str(path), "converge"]) == EXIT_CONFIG


def test_converge_requires_two_levels(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG + "discretization.N_list = 10\n")
    out = tmp_path / "conv"
    assert main(["--config", str(path), "--out-dir", str(out),
                 "converge"]) == EXIT_CONFIG
    assert "needs at least two entries" in capsys.readouterr().err
    assert not out.exists()     # rejected before any run or output


def test_oracle_compare_reduction(tmp_path):
    cfg_text = """
problem.V.kind = linear
problem.V.coeff = -1.0
problem.W.kind = zero
problem.initial.kind = parabolic_bump
discretization.N = 60
discretization.t_end = 0.2
oracle.fv_dx = 0.01
oracle.compare_times = 0.2
"""
    path = write_config(tmp_path, cfg_text)
    out = tmp_path / "oc"
    assert main(["--config", str(path), "--out-dir", str(out),
                 "oracle-compare"]) == EXIT_OK
    with open(out / "oracle_compare.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "l1_error"]
    assert float(rows[1][1]) < 0.1


def test_entropy_check_reduction(tmp_path, capsys):
    cfg_text = """
problem.V.kind = linear
problem.V.coeff = -1.0
problem.W.kind = zero
problem.initial.kind = parabolic_bump
discretization.N = 60
discretization.t_end = 0.2
discretization.output_every = 4
"""
    path = write_config(tmp_path, cfg_text)
    out = tmp_path / "ec"
    assert main(["--config", str(path), "--out-dir", str(out),
                 "entropy-check"]) == EXIT_OK
    with open(out / "entropy.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["c", "phi_id", "residual"]
    assert len(rows) == 1 + 3 * 9
    assert "over 27 cases (9 test bumps, 3 levels)" in capsys.readouterr().out
    # phi_grid is rounded to a multiple of three bumps, at least three
    assert main(["--config", str(path), "--out-dir", str(out),
                 "--override", "diagnostics.entropy.phi_grid=4",
                 "entropy-check"]) == EXIT_OK
    assert "over 9 cases (3 test bumps, 3 levels)" in capsys.readouterr().out
    # an unattainable tolerance turns the same run into a violation report
    # that names the bound itself
    assert main(["--config", str(path), "--out-dir", str(out),
                 "--override", "diagnostics.entropy.tol=-1.0",
                 "entropy-check"]) == EXIT_INVARIANT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("invariant violation: entropy residual ")
    assert err[0].endswith(" below 1")


def test_edb_check(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "edb"
    assert main(["--config", str(path), "--out-dir", str(out),
                 "edb-check"]) == EXIT_OK
    with open(out / "variational.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "F_h", "Fhat_h", "R_h", "R_h_star", "D_h",
                       "edb_partial"]
    # running balance defect stays tiny and the energy column never rises
    assert all(abs(float(r[6])) < 1e-8 for r in rows[1:])
    energies = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(energies[:-1], energies[1:]))


def test_run_diagnostics_toggles_off(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + """
diagnostics.norms = false
diagnostics.edb = false
""")
    out = tmp_path / "min"
    assert main(["--config", str(path), "--out-dir", str(out), "run"]) == EXIT_OK
    assert (out / "snapshots.csv").exists()
    assert not (out / "diagnostics.csv").exists()
    assert not (out / "variational.csv").exists()


def test_run_checks_the_energy_balance_it_writes(tmp_path, capsys,
                                                 monkeypatch):
    # a step far past RK4's stability limit: the balance residual is 6.5e-4
    # against a tolerance of 1e-6
    tables, real = [], var.gradient_records

    def recording_records(traj):
        tables.append(real(traj))
        return tables[-1]

    monkeypatch.setattr(var, "gradient_records", recording_records)
    out = tmp_path / "run"
    code, err = run_main(capsys, [
        "--config", str(ROOT / "configs" / "reduction.cfg"),
        "--out-dir", str(out),
        "--override", "discretization.N=100",
        "--override", "discretization.dt=0.04",
        "--override", "discretization.t_end=0.5",
        "--override", "discretization.output_every=1", "run"])
    assert code == EXIT_INVARIANT
    assert len(tables) == 1         # the table run writes is the one checked
    residual = var.records_residual(tables[0])
    tol = 1e-6 * (abs(tables[0]["F_h"][0]) + 1.0)
    assert residual > 100.0 * tol
    assert err == (f"invariant violation: energy balance residual "
                   f"{residual:.3e} above the tolerance {tol:.3e}: lower "
                   "discretization.dt\n")
    for name in ("snapshots.csv", "diagnostics.csv", "variational.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize("override, command", [
    ("discretization.dt=0", "run"),
    ("discretization.dt=-1", "run"),
    ("discretization.dt=0", "converge"),
    ("discretization.dt=-1", "converge"),
    ("oracle.fv_dx=0", "oracle-compare"),
    ("oracle.fv_dx=-0.01", "oracle-compare"),
    ("discretization.output_every=0", "run"),
    ("discretization.t_end=inf", "run"),
    ("discretization.t_end=nan", "run"),
    ("discretization.dt=inf", "run"),
    ("discretization.dt=nan", "edb-check"),
    ("oracle.fv_dx=inf", "oracle-compare"),
    ("oracle.window_lo=-3", "oracle-compare"),
    ("oracle.window_hi=3", "oracle-compare"),
    ("oracle.window_lo=3 oracle.window_hi=-3", "oracle-compare"),
    ("oracle.window_lo=-inf oracle.window_hi=3", "oracle-compare"),
    ("discretization.integrator=bogus", "run"),
    ("discretization.integrator=bogus", "converge"),
    ("discretization.integrator=rk45", "converge"),
    # a boolean key given anything but a parsed boolean
    ("diagnostics.edb=flase", "run"),
    ("diagnostics.edb=2", "run"),
    ("diagnostics.edb=0.5", "run"),
    ("diagnostics.norms=1", "run"),
    ("diagnostics.norms=none", "run"),
    # a value that is not a number, or a list where one number is read
    ("discretization.dt=1,2", "run"),
    ("discretization.t_end=abc", "run"),
    ("discretization.t_end=yes", "run"),
    ("discretization.N=abc", "edb-check"),
    ("discretization.N=20.5", "run"),
    ("discretization.N=inf", "run"),
    ("discretization.N_list=10,abc", "converge"),
    ("oracle.compare_times=0.05,abc", "oracle-compare"),
    ("oracle.compare_times=nan", "oracle-compare"),
])
def test_non_positive_steps_are_config_errors(tmp_path, capsys, override,
                                               command):
    # ``override`` holds one or more space-separated key=value entries
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "newtonian_attractive", "zero") + "oracle.fv_dx = 0.02\n")
    overrides = [a for item in override.split() for a in ("--override", item)]
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "out"),
                 *overrides, command])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")
    assert override.split("=")[0] in err
    assert "Traceback" not in err


def test_oracle_compare_off_grid_time(tmp_path, capsys):
    cfg_text = """
problem.V.kind = linear
problem.V.coeff = -1.0
problem.W.kind = zero
problem.initial.kind = parabolic_bump
discretization.N = 20
discretization.t_end = 0.2
oracle.fv_dx = 0.02
oracle.compare_times = 0.1234
"""
    path = write_config(tmp_path, cfg_text)
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "oc"),
                 "oracle-compare"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "0.1234" in err
    assert "Traceback" not in err


def test_oracle_window_too_small_is_numerical(tmp_path, capsys):
    # the drifting bump leaves a window that barely covers its support
    cfg_text = """
problem.V.kind = linear
problem.V.coeff = -1.0
problem.W.kind = zero
problem.initial.kind = parabolic_bump
discretization.N = 20
discretization.t_end = 0.2
oracle.fv_dx = 0.02
oracle.window_lo = -1.05
oracle.window_hi = 1.05
"""
    path = write_config(tmp_path, cfg_text)
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "oc"),
                 "oracle-compare"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err.startswith("numerical failure:") and "window" in err
    assert "Traceback" not in err


def test_oracle_window_mismatch_is_numerical(tmp_path, capsys, monkeypatch):
    # a reference solution on a window narrower than the particle support
    def narrow_solve(problem, window, dx, t_end, store_times=None):
        edges = np.tile(np.linspace(-0.5, 0.5, 11), (2, 1))
        return None, pm.ReconstructedFields(np.array([0.0, t_end]), edges,
                                            np.full((2, 10), 0.5),
                                            np.zeros((2, 11)), mass=0.5)

    monkeypatch.setattr(fvmod, "fv_solve", narrow_solve)
    cfg_text = """
problem.V.kind = linear
problem.V.coeff = -1.0
problem.W.kind = zero
problem.initial.kind = parabolic_bump
discretization.N = 20
discretization.t_end = 0.05
"""
    path = write_config(tmp_path, cfg_text)
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "oc"),
                 "oracle-compare"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err.startswith("numerical failure: window mismatch")
    assert "Traceback" not in err


def test_quantile_failure_is_numerical(tmp_path, capsys):
    # a support of width 1e-9 leaves the bisection no room to converge
    path = write_config(tmp_path)
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "q"),
                 "--override", "problem.initial.kind=uniform",
                 "--override", "problem.initial.a=0",
                 "--override", "problem.initial.b=1e-9",
                 "--override", "problem.initial.height=1e9", "run"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err.startswith("numerical failure: quantile search did not "
                          "converge")
    assert "Traceback" not in err


def test_edb_check_prints_fresh_residual(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "--out-dir", str(tmp_path / "edb"),
                 "edb-check"]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()[0]
    cfg = parse_config(path)
    problem = build_problem(cfg)
    state = pm.quantile_partition(problem.initial, 24)
    traj = pm.integrate(state, problem, 0.05, dt=1e-3)
    assert printed.startswith(f"edb residual: {pm.edb_residual(traj):.6e} ")


@pytest.mark.parametrize("dt", [None, "2e-3"])
def test_edb_check_halves_the_runs_own_step(tmp_path, capsys, monkeypatch,
                                            dt):
    # the half-step run halves the step the main run resolved, without a
    # second default_dt
    steps, guards = [], []

    def recording_integrate(*args, **kwargs):
        traj = pm.integrate(*args, **kwargs)
        steps.append(traj.stats["dt"])
        return traj

    def counting_default_dt(*args):
        guards.append(1)
        return pm.default_dt(*args)

    monkeypatch.setattr(cli, "integrate", recording_integrate)
    monkeypatch.setattr(cli, "default_dt", counting_default_dt)
    monkeypatch.setattr(pm.solver, "default_dt", counting_default_dt)
    given = "" if dt is None else f"discretization.dt = {dt}\n"
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "discretization.dt = 1e-3\n", given))
    code, _ = run_main(capsys, ["--config", str(path), "--out-dir",
                                str(tmp_path / "edb"), "edb-check"])
    assert code == EXIT_OK
    problem = build_problem(parse_config(path))
    state = pm.quantile_partition(problem.initial, 24)
    step = float(dt) if dt else pm.default_dt(state, problem)
    assert steps == [step, step / 2.0]
    assert len(guards) == (dt is None)


# -- exit codes of the stored-time errors: 1 for a config that stores too
# few times, 3 for time grids that rounding drove apart --------------------

def run_main(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("overrides", [
    ["discretization.dt=0.05"],                                # one step
    ["discretization.output_every=50"],                        # t = 0, 0.05
    ["discretization.dt=1"],                                   # dt > t_end
])
def test_edb_check_needs_three_stored_times(tmp_path, capsys, overrides):
    # a configuration that stores too few times for Simpson's rule
    path = write_config(tmp_path)
    out = tmp_path / "edb"
    argv = ["--config", str(path), "--out-dir", str(out)]
    for item in overrides:
        argv += ["--override", item]
    code, err = run_main(capsys, argv + ["edb-check"])
    assert code == EXIT_CONFIG
    assert err.startswith("config error: edb-check needs at least three "
                          "stored times; this run stored 2")
    assert not out.exists()


# -- edb-check's half-step run in a forked worker: from HALF_STEP_FORK_MIN
# particle-steps on it runs beside the main run.  Every path must give the
# one-process CSV bytes, lines and exit code, and leave no child behind ---

needs_fork = pytest.mark.skipif(not forces._can_fork(),
                                reason="no second CPU, or no os.fork")

MORSE_CONFIG = BASE_CONFIG.replace(
    "newtonian_attractive", "morse\nproblem.W.c_A = 1.0\n"
    "problem.W.ell_A = 1.0\nproblem.W.c_R = 0.5\nproblem.W.ell_R = 0.3")


@pytest.fixture
def forks(monkeypatch):
    """The pid of every process forked, as the caller sees it, and the
    exit status of every one reaped."""
    pids, statuses = [], []
    fork, waitpid = os.fork, os.waitpid

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def recorded_wait(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(os, "waitpid", recorded_wait)
    yield pids, statuses
    with pytest.raises(ChildProcessError):
        waitpid(-1, os.WNOHANG)


def edb_check(tmp_path, capsys, text, name, *overrides):
    """(exit code, stdout, stderr, variational.csv bytes or None)."""
    path = write_config(tmp_path, text, name=f"{name}.cfg")
    out = tmp_path / name
    argv = ["--config", str(path), "--out-dir", str(out)]
    for item in overrides:
        argv += ["--override", item]
    code = main(argv + ["edb-check"])
    captured = capsys.readouterr()
    table = out / "variational.csv"
    return (code, captured.out, captured.err,
            table.read_bytes() if table.exists() else None)


@needs_fork
@pytest.mark.parametrize("text", [BASE_CONFIG, MORSE_CONFIG],
                         ids=["abs", "morse"])
def test_the_half_step_worker_gives_the_one_process_outputs(
        tmp_path, capsys, monkeypatch, forks, text):
    # 25 particles x 100 half-steps: below the minimum, in one process
    off = edb_check(tmp_path, capsys, text, "off")
    assert forks == ([], [])
    monkeypatch.setattr(cli, "HALF_STEP_FORK_MIN", 0)
    on = edb_check(tmp_path, capsys, text, "on")
    assert forks == ([forks[0][0]], [0])
    assert on == off
    code, out, err, table = off
    assert code == EXIT_OK and err == "" and table
    assert [line.split(":")[0] for line in out.splitlines()] == \
        ["edb residual", "half-step residual"]


@needs_fork
def test_a_failing_half_step_run_fails_as_in_one_process(
        tmp_path, capsys, monkeypatch, forks):
    def underflow(traj):
        raise StepUnderflow("step underflow at t=0.025: cell 3 (width "
                            "1.000e-12) keeps violating ordering")

    # the main run checks its balance without edb_residual
    monkeypatch.setattr(var, "edb_residual", underflow)
    off = edb_check(tmp_path, capsys, BASE_CONFIG, "off")
    monkeypatch.setattr(cli, "HALF_STEP_FORK_MIN", 0)
    on = edb_check(tmp_path, capsys, BASE_CONFIG, "on")
    # the worker failed, and the caller ran the half-step run again
    assert len(forks[0]) == 1 and forks[1] != [0]
    assert on == off
    code, out, err, table = off
    assert code == EXIT_NUMERICAL and table
    assert out.startswith("edb residual: ") and "half-step" not in out
    assert err == "numerical failure: step underflow at t=0.025: cell 3 " \
        "(width 1.000e-12) keeps violating ordering\n"


@needs_fork
def test_a_failing_main_run_reaps_the_worker(tmp_path, capsys, monkeypatch,
                                             forks):
    off = edb_check(tmp_path, capsys, BASE_CONFIG, "off",
                    "discretization.output_every=50")
    monkeypatch.setattr(cli, "HALF_STEP_FORK_MIN", 0)
    on = edb_check(tmp_path, capsys, BASE_CONFIG, "on",
                   "discretization.output_every=50")
    assert len(forks[0]) == 1
    assert on == off
    code, out, err, table = on
    assert (code, out, table) == (EXIT_CONFIG, "", None)
    assert err.startswith("config error: edb-check needs at least three "
                          "stored times; this run stored 2")
    assert not (tmp_path / "on").exists()


def drift_times(traj):
    # stored times moved by more than the 1e-9 the grids may differ by
    traj.times = traj.times * (1.0 + 1e-6)
    return traj


def test_converge_levels_off_the_shared_grid_are_numerical(tmp_path, capsys,
                                                           monkeypatch):
    real = cli._aligned_run

    def drifting_run(problem, n_cells, *args):
        traj = real(problem, n_cells, *args)
        return drift_times(traj) if n_cells == 16 else traj

    monkeypatch.setattr(cli, "_aligned_run", drifting_run)
    path = write_config(tmp_path, BASE_CONFIG +
                        "discretization.N_list = 8, 16\n")
    code, err = run_main(capsys, ["--config", str(path), "--out-dir",
                                  str(tmp_path / "conv"), "converge"])
    assert code == EXIT_NUMERICAL
    assert err == ("numerical failure: refinement runs must share their "
                   "output times\n")
    assert not (tmp_path / "conv" / "refinement.csv").exists()


def test_entropy_window_off_the_horizon_is_numerical(tmp_path, capsys,
                                                     monkeypatch):
    real = cli.run_trajectory
    monkeypatch.setattr(cli, "run_trajectory",
                        lambda cfg: drift_times(real(cfg)))
    path = write_config(tmp_path)
    code, err = run_main(capsys, ["--config", str(path), "--out-dir",
                                  str(tmp_path / "ec"), "entropy-check"])
    assert code == EXIT_NUMERICAL
    assert err == ("numerical failure: test function horizon must match the "
                   "stored window\n")


@pytest.mark.parametrize("override, key", [
    ("diagnostics.entropy.c=0.25,-0.5", "diagnostics.entropy.c"),
    ("diagnostics.entropy.c=0", "diagnostics.entropy.c"),
    ("diagnostics.entropy.c=inf", "diagnostics.entropy.c"),
    ("diagnostics.entropy.c=nan", "diagnostics.entropy.c"),
    ("diagnostics.entropy.phi_grid=0", "diagnostics.entropy.phi_grid"),
    ("diagnostics.entropy.phi_grid=-3", "diagnostics.entropy.phi_grid"),
    ("diagnostics.entropy.tol=loose", "diagnostics.entropy.tol"),
])
def test_entropy_keys_are_checked_before_the_run(tmp_path, capsys,
                                                 monkeypatch, override, key):
    calls = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *a, **k: calls.append(1))
    path = write_config(tmp_path)
    code, err = run_main(capsys, ["--config", str(path), "--out-dir",
                                  str(tmp_path / "ec"), "--override",
                                  override, "entropy-check"])
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ")
    assert key in err
    assert calls == []
    assert not (tmp_path / "ec" / "entropy.csv").exists()


@pytest.mark.parametrize("override, bounds", [
    ("problem.W.ell_A=1e200", "sup_d2w, lip_d2w"),    # ell_A**2 overflows
    ("problem.W.ell_R=1e-120", "lip_d2w"),            # ell_R**3 is 0.0
])
def test_morse_parameters_with_infinite_bounds_are_config_errors(
        tmp_path, capsys, override, bounds):
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "problem.W.kind = newtonian_attractive\n",
        "problem.W.kind = morse\nproblem.W.c_A = 1.0\nproblem.W.ell_A = 1.0\n"
        "problem.W.c_R = 0.5\nproblem.W.ell_R = 0.3\n"))
    out = tmp_path / "out"
    code, err = run_main(capsys, ["--config", str(path), "--out-dir",
                                  str(out), "--override", override, "run"])
    assert code == EXIT_CONFIG
    assert err.startswith("config error: Morse parameters c_attract=")
    assert err.rstrip().endswith(f"non-finite kernel bounds: {bounds}")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("overrides, command, code, named", [
    ("problem.mobility.M_beta=inf", "run", EXIT_CONFIG,
     "problem.mobility.M_beta"),
    ("problem.V.coeff=inf", "run", EXIT_CONFIG, "problem.V.coeff"),
    ("problem.mobility.gamma=nan", "run", EXIT_CONFIG,
     "problem.mobility.gamma"),
    ("problem.initial.amplitude=nan", "run", EXIT_CONFIG,
     "problem.initial.amplitude"),
    ("problem.m=nan", "run", EXIT_CONFIG, "problem.m"),
    # finite parameters whose force bound overflows: no positive step
    ("problem.mobility.M_beta=1e200 problem.V.coeff=1e200", "run",
     EXIT_NUMERICAL, "force bound"),
    ("problem.mobility.M_beta=1e200 problem.V.coeff=1e200", "converge",
     EXIT_NUMERICAL, "force bound"),
])
def test_non_finite_numbers_and_force_bounds_fail_cleanly(
        tmp_path, capsys, overrides, command, code, named):
    out = tmp_path / "out"
    argv = ["--config", str(ROOT / "configs" / "reduction.cfg"),
            "--out-dir", str(out)]
    for item in overrides.split():
        argv += ["--override", item]
    got, err = run_main(capsys, argv + [command])
    assert got == code
    assert named in err
    assert not list(out.glob("*.csv"))


HUGE = "1" + "0" * 400   # an integer beyond the float range


@pytest.mark.parametrize("overrides, command, code, named", [
    # an integer must convert to a finite float
    (f"discretization.N={HUGE}", "run", EXIT_CONFIG, ["discretization.N"]),
    (f"discretization.output_every={HUGE}", "run", EXIT_CONFIG,
     ["discretization.output_every"]),
    (f"discretization.N_list={HUGE},2{HUGE[1:]}", "converge", EXIT_CONFIG,
     ["discretization.N_list"]),
    (f"diagnostics.entropy.phi_grid={HUGE}", "entropy-check", EXIT_CONFIG,
     ["diagnostics.entropy.phi_grid"]),
    # more stored times than numpy can index
    ("discretization.dt=1e-300", "run", EXIT_CONFIG,
     ["discretization.dt", "discretization.output_every"]),
    # more particles than numpy can index
    (f"discretization.N=1{'0' * 40}", "run", EXIT_CONFIG,
     ["discretization.N"]),
    # more RK4 steps than (step + 1) * dt can count; the stored times fit
    (f"discretization.dt=1e-300 discretization.output_every=1{'0' * 299}",
     "run", EXIT_CONFIG, ["2^53", "discretization.dt"]),
    ("discretization.N_list=10,20 discretization.dt=1e-300", "converge",
     EXIT_CONFIG, ["2^53", "discretization.dt"]),
    # densities of 1e300 square past the float range in the h1 norm
    ("problem.initial.amplitude=1e300 discretization.N=8 "
     "discretization.t_end=0.01 discretization.dt=1e-3", "run",
     EXIT_NUMERICAL, ["numerical failure: h1"]),
], ids=["N", "output_every", "N_list", "phi_grid", "dt", "N_dimension",
        "dt_steps_run", "dt_steps_converge", "h1"])
def test_out_of_range_numbers_name_their_key(tmp_path, capsys, overrides,
                                             command, code, named):
    out = tmp_path / "out"
    argv = ["--config", str(ROOT / "configs" / "reduction.cfg"),
            "--out-dir", str(out)]
    for item in overrides.split():
        argv += ["--override", item]
    got, err = run_main(capsys, argv + [command])
    assert got == code
    for key in named:
        assert key in err
    assert not (out / "diagnostics.csv").exists()


def test_a_cell_above_the_density_bound_is_one_violation(tmp_path, capsys,
                                                         monkeypatch):
    # the last stored state squeezes one cell to half the width h / M
    # allows; the run still writes its tables.  The made-up states, which
    # do not move, also break the energy balance: one more line
    def squeezed(state0, problem, t_end, **kwargs):
        x = np.tile(state0.positions, (3, 1))
        x[-1, 13] = x[-1, 12] + 0.5 * state0.h / problem.M
        return pm.Trajectory(np.array([0.0, 0.5, 1.0]) * t_end, x,
                             np.zeros_like(x), h=state0.h, problem=problem)

    monkeypatch.setattr(cli, "integrate", squeezed)
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code, err = run_main(capsys, ["--config", str(path), "--out-dir",
                                  str(out), "run"])
    assert code == EXIT_INVARIANT
    lines = err.splitlines()
    assert len(lines) == 2 and "max density" in lines[0]
    assert lines[1].startswith("invariant violation: energy balance residual")
    for name in ("snapshots.csv", "diagnostics.csv", "variational.csv"):
        assert (out / name).exists()


PROBLEM_NUMBERS = ("problem.mobility.M_beta", "problem.mobility.gamma",
                   "problem.V.coeff", "problem.W.c_A", "problem.W.ell_A",
                   "problem.W.c_R", "problem.W.ell_R", "problem.m",
                   "problem.initial.amplitude", "problem.initial.center",
                   "problem.initial.radius")
EXTREMES = (0, -1, 1e-300, 1e300, float("nan"), float("inf"), float("-inf"))


# a command prints numpy's overflow warnings and goes on to its exit code
# (gamma = 1e300 overflows beta's power, for one); this test checks the
# code, so it does not turn those warnings into errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(overrides=st.dictionaries(
           st.sampled_from(PROBLEM_NUMBERS),
           st.one_of(st.sampled_from(EXTREMES),
                     st.floats(-3.0, 3.0, allow_subnormal=False)),
           max_size=4),
       v_kind=st.sampled_from(["linear", "quadratic"]),
       w_kind=st.sampled_from(["zero", "newtonian_repulsive", "morse"]),
       n_cells=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_any_problem_number_ends_in_an_exit_code(
        tmp_path_factory, overrides, v_kind, w_kind, n_cells):
    path = write_config(tmp_path_factory.mktemp("cfg"), f"""
problem.V.kind = {v_kind}
problem.W.kind = {w_kind}
problem.W.c_A = 1.0
problem.W.ell_A = 1.0
problem.W.c_R = 0.5
problem.W.ell_R = 0.3
discretization.N = {n_cells}
discretization.t_end = 0.01
discretization.dt = 1e-3
""")
    argv = ["--config", str(path),
            "--out-dir", str(tmp_path_factory.mktemp("out"))]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value!r}"]
    assert main(argv + ["run"]) in (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT,
                                    EXIT_NUMERICAL)


COMMAND_KEYS = ("discretization.N", "discretization.t_end",
                "discretization.integrator", "discretization.dt",
                "discretization.output_every",
                "discretization.N_list", "oracle.fv_dx", "oracle.window_lo",
                "oracle.window_hi", "oracle.compare_times",
                "diagnostics.norms", "diagnostics.edb",
                "diagnostics.entropy.c", "diagnostics.entropy.phi_grid",
                "diagnostics.entropy.tol")
# written into the override as they stand ("4,8" is a list); no step or
# grid spacing between 1e-300 and 0.05, so every run at N = 8 stays short
# (discretization.dt = 1e-6 alone takes minutes)
COMMAND_VALUES = EXTREMES + (
    2, 3, 4, 0.05, 0.1, 0.5, 1.5, -0.3, "4,8", "8,4", "3,6,12",
    "0.1,0.5", "0.5,0.25", "rk4", "rk45", "euler", "yes", "off", "")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(overrides=st.dictionaries(st.sampled_from(COMMAND_KEYS),
                                 st.sampled_from(COMMAND_VALUES),
                                 max_size=4),
       command=st.sampled_from(["run", "converge", "oracle-compare",
                                "entropy-check", "edb-check"]))
@settings(max_examples=60, deadline=None)
def test_any_command_key_ends_in_an_exit_code(tmp_path_factory, overrides,
                                              command):
    argv = ["--config", str(ROOT / "configs" / "reduction.cfg"),
            "--out-dir", str(tmp_path_factory.mktemp("out")),
            "--override", "discretization.N=8",
            "--override", "discretization.N_list=4,8",
            "--override", "oracle.fv_dx=0.05"]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    assert main(argv + [command]) in (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT,
                                      EXIT_NUMERICAL)


def test_cli_readme_and_fuzzer_name_the_same_command_keys():
    # the discretization.*, oracle.* and diagnostics.* keys named by the
    # string literals of cli.py, by the README's config paragraph and by
    # COMMAND_KEYS, which the fuzzer above draws from
    pattern = re.compile(r"\b(?:discretization|oracle|diagnostics)\.[\w.]*\w")

    def keys(text):
        return {key for key in pattern.findall(text)
                if not key.endswith(".csv")}

    tree = ast.parse((ROOT / "src" / "partmob" / "cli.py").read_text())
    literals = "\n".join(node.value for node in ast.walk(tree)
                         if isinstance(node, ast.Constant)
                         and isinstance(node.value, str))
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Configs are flat", 1)[1] \
        .split("CSV schemas:", 1)[0]
    assert keys(literals) == set(COMMAND_KEYS)
    assert keys(paragraph) == set(COMMAND_KEYS)


@pytest.mark.parametrize("tolerance, command", [
    ("1", "run"), ("-1", "run"), ("nan", "run"), ("1e-12", "run"),
    ("0.01", "edb-check"), ("inf", "entropy-check"),
    ("1", "oracle-compare"), ("1", "converge"),
])
def test_rk45_tolerance_is_checked_before_the_partition(
        tmp_path, capsys, monkeypatch, tolerance, command):
    # an rk45 config is refused on its integrator, whatever its tolerance,
    # before any particle is placed
    calls = []
    monkeypatch.setattr(cli, "quantile_partition",
                        lambda *a, **k: calls.append(1))
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code, err = run_main(capsys, [
        "--config", str(path), "--out-dir", str(out),
        "--override", "discretization.integrator=rk45",
        "--override", f"discretization.tolerance={tolerance}", command])
    assert code == EXIT_CONFIG
    assert err.startswith("config error: discretization.integrator must be "
                          "rk4, not 'rk45'")
    assert "discretization.dt" in err
    assert calls == []
    assert not list(out.glob("*.csv"))


def test_rk4_ignores_the_tolerance(tmp_path, capsys):
    # a tolerance left in a config from rk45 runs is not read
    path = write_config(tmp_path)
    code, _ = run_main(capsys, ["--config", str(path), "--out-dir",
                                str(tmp_path / "out"), "--override",
                                "discretization.tolerance=1", "run"])
    assert code == EXIT_OK


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 15.0 GiB for an array with shape "
                "(10000001, 201) and data type float64"),
    MemoryError(),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["run", "edb-check", "entropy-check"])
def test_a_run_that_cannot_be_allocated_is_a_config_error(
        tmp_path, capsys, monkeypatch, error, command):
    # integrate raises instead of allocating: no large array is ever made
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "integrate", out_of_memory)
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code, err = run_main(capsys, ["--config", str(path), "--out-dir",
                                  str(out), command])
    assert code == EXIT_CONFIG
    assert err.startswith("config error: the run does not fit in memory (")
    assert f"({str(error) or 'no detail'}): " in err
    for key in ("discretization.N", "discretization.dt",
                "discretization.output_every"):
        assert key in err
    assert not list(out.glob("*.csv"))


ROOT =Path(__file__).resolve().parents[1]

# scipy is a test-only dependency: importing the CLI and running every
# subcommand must work with it unimportable, and must not import it
SCIPY_FREE_RUN = """
import sys
sys.modules["scipy"] = None
from partmob.cli import main
for cfg in ("configs/reduction.cfg", "configs/attractive.cfg"):
    for cmd in ("run", "edb-check", "entropy-check", "oracle-compare",
                "converge"):
        code = main(["--config", cfg, "--out-dir", f"{sys.argv[1]}/{cmd}",
                     "--override", "discretization.N=20",
                     "--override", "discretization.N_list=10,20",
                     "--override", "oracle.fv_dx=0.01", cmd])
        if code:
            sys.exit(f"{cfg} {cmd} exited {code}")
"""

PLAIN_IMPORT = """
import sys
import partmob.cli
loaded = sorted(m for m in sys.modules
                if m.startswith(("scipy", "numpy.polynomial")))
sys.exit(f"importing partmob.cli loaded {loaded}" if loaded else 0)
"""


@pytest.mark.parametrize("script", [SCIPY_FREE_RUN, PLAIN_IMPORT],
                         ids=["commands_without_scipy", "import_loads_none"])
def test_cli_needs_no_scipy(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
