"""Stored-time energies on two CPUs, as part of run's stored-time split.

From cli.RUN_FORK_MIN snapshot values on, run splits its stored times
between this process and a forked worker: each side formats its half of
snapshots.csv and computes its half of every per-time column of
diagnostics.csv and variational.csv, the energies F_h and Fhat_h among
them.  Every path must give the one-process bytes, lines and exit code,
and no path may leave a child process or a temporary file behind."""

import os
from pathlib import Path

import pytest

from partmob import cli, forces
from partmob import variational as var

ROOT = Path(__file__).resolve().parents[1]

needs_fork = pytest.mark.skipif(not forces._can_fork(),
                                reason="no second CPU, or no os.fork")


@pytest.fixture
def fork_pids(monkeypatch):
    """The pid of every worker forked, as the caller sees it."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


BASE = """
problem.mobility.kind = power_cap
problem.mobility.M_beta = 1.0
problem.V.kind = quadratic
problem.V.coeff = 0.5
problem.initial.kind = parabolic_bump
discretization.N = 24
discretization.t_end = 0.03
discretization.dt = 1e-3
"""
ABS = BASE + "problem.W.kind = newtonian_attractive\n"
MORSE = BASE + ("problem.W.kind = morse\nproblem.W.c_A = 1.0\n"
                "problem.W.ell_A = 1.0\nproblem.W.c_R = 0.5\n"
                "problem.W.ell_R = 0.3\n")
ZERO = BASE + "problem.W.kind = zero\n"
REDUCTION = (ROOT / "configs" / "reduction.cfg").read_text()

# case -> (config text, overrides); 31 stored times of 24 cells, 2,325
# snapshot values, unless the overrides say otherwise
CASES = {
    "abs": (ABS, []),
    "morse": (MORSE, []),
    "zero": (ZERO, []),
    "no-norms": (ABS, ["diagnostics.norms=false"]),
    "no-edb": (ABS, ["diagnostics.edb=false"]),
    # a step far past RK4's stability limit: the balance check fails
    # (exit 2) after every CSV is written
    "balance": (REDUCTION, ["discretization.N=100", "discretization.dt=0.04",
                            "discretization.t_end=0.5",
                            "discretization.output_every=1"]),
    # densities of 1e300 square past the float range in the h1 norm: exit 3
    # with snapshots.csv alone
    "h1": (ZERO, ["problem.initial.amplitude=1e300", "discretization.N=8"]),
}

OUTPUTS = ("snapshots.csv", "diagnostics.csv", "variational.csv")


def run(tmp_path, capfd, case, name):
    """(exit code, stdout, stderr, the files written and their bytes) of
    ``run`` on ``CASES[case]``, into the output directory ``name``; the
    directory is named OUT in stdout."""
    text, overrides = CASES[case]
    config = tmp_path / f"{name}.cfg"
    config.write_text(text)
    out = tmp_path / name
    argv = ["--config", str(config), "--out-dir", str(out)]
    for item in overrides:
        argv += ["--override", item]
    code = cli.main(argv + ["run"])
    captured = capfd.readouterr()
    files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    return code, captured.out.replace(str(out), "OUT"), captured.err, files


def one_process(tmp_path, capfd, monkeypatch, case):
    with monkeypatch.context() as m:
        m.setattr(cli, "RUN_FORK_MIN", 10**12)
        return run(tmp_path, capfd, case, "off")


@needs_fork
@pytest.mark.parametrize("case", CASES)
def test_two_cpus_give_the_one_process_bits(case, tmp_path, capfd,
                                            monkeypatch, fork_pids):
    expected = one_process(tmp_path, capfd, monkeypatch, case)
    assert fork_pids == []
    monkeypatch.setattr(cli, "RUN_FORK_MIN", 0)
    got = run(tmp_path, capfd, case, "on")
    assert len(fork_pids) == 1
    assert_reaped(fork_pids)
    assert got == expected
    code, out, err, files = expected
    written = {"no-norms": ["snapshots.csv", "variational.csv"],
               "no-edb": ["diagnostics.csv", "snapshots.csv"],
               "h1": ["snapshots.csv"]}.get(case, sorted(OUTPUTS))
    assert list(files) == written
    if case == "balance":
        assert code == cli.EXIT_INVARIANT and out == ""
        assert err.startswith("invariant violation: energy balance "
                              "residual ")
    elif case == "h1":
        assert code == cli.EXIT_NUMERICAL and out == ""
        assert err.startswith("numerical failure: h1 norm at t=0 ")
    else:
        assert (code, err) == (cli.EXIT_OK, "")
        assert out == "run ok: 31 stored times, outputs in OUT\n"


@needs_fork
@pytest.mark.parametrize("kind", ["abs", "morse", "zero"])
@pytest.mark.parametrize("failure", ["worker", "fork"])
def test_a_failed_worker_is_replaced_by_the_caller(kind, failure, tmp_path,
                                                   capfd, monkeypatch,
                                                   fork_pids):
    expected = one_process(tmp_path, capfd, monkeypatch, kind)
    monkeypatch.setattr(cli, "RUN_FORK_MIN", 0)
    caller = os.getpid()
    if failure == "worker":
        # after the worker wrote its snapshot rows and its diagnostics
        columns = var.gradient_columns

        def in_worker(*args):
            if os.getpid() != caller:
                raise RuntimeError("worker failure")
            return columns(*args)

        monkeypatch.setattr(var, "gradient_columns", in_worker)
    else:
        def no_process():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    monkeypatch.setattr(os, "waitpid", recorded)
    assert run(tmp_path, capfd, kind, "on") == expected
    assert len(fork_pids) == (1 if failure == "worker" else 0)
    # the worker failed, and the caller did its half again
    assert all(statuses) and len(statuses) == len(fork_pids)
    assert_reaped(fork_pids)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_caller_failure_propagates_and_reaps_the_worker(error, tmp_path,
                                                          capfd, monkeypatch,
                                                          fork_pids):
    monkeypatch.setattr(cli, "RUN_FORK_MIN", 0)
    caller = os.getpid()
    columns = var.gradient_columns

    def in_caller(*args):
        if os.getpid() == caller:
            raise error("caller failure")
        return columns(*args)

    monkeypatch.setattr(var, "gradient_columns", in_caller)
    with pytest.raises(error, match="caller failure"):
        run(tmp_path, capfd, "morse", "on")
    assert len(fork_pids) == 1
    assert_reaped(fork_pids)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path / "on") == ["snapshots.csv"]


@needs_fork
@pytest.mark.parametrize("threshold, forks", [(2_325, 1), (2_326, 0)])
def test_the_threshold_counts_snapshot_values(threshold, forks, tmp_path,
                                              capfd, monkeypatch, fork_pids):
    # 31 stored times x (3 x 24 + 3) values
    monkeypatch.setattr(cli, "RUN_FORK_MIN", threshold)
    assert run(tmp_path, capfd, "abs", "run")[0] == cli.EXIT_OK
    assert len(fork_pids) == forks
    assert_reaped(fork_pids)


def test_small_runs_stay_in_one_process(tmp_path, capfd, fork_pids):
    # the benchmark's traced N = 20 run: 21 stored times x 63 values; the
    # figure configs (1001 x 603) and morse.cfg (11 x 1,203) split
    assert 21 * 63 < cli.RUN_FORK_MIN <= 11 * 1_203 < 1_001 * 603
    code = cli.main(["--config", str(ROOT / "configs" / "attractive.cfg"),
                     "--out-dir", str(tmp_path), "--override",
                     "discretization.N=20", "--override",
                     "discretization.t_end=0.02", "run"])
    assert code == cli.EXIT_OK
    assert "run ok: 21 stored times" in capfd.readouterr().out
    assert fork_pids == []
