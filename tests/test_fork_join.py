"""forces.fork_join: it returns both sides' values, runs a failed
worker's side again in the caller, and while the caller's half runs, the
caller keeps off the worker's CPU, so that on two CPUs neither side forks
again and at most two processes are busy."""

import os

import numpy as np
import pytest

from partmob import cli, forces

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


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no CPU affinity")
set_affinity = getattr(os, "sched_setaffinity", None)


@pytest.fixture
def cpus(request):
    """This process pinned to ``request.param`` of its allowed CPUs, as on a
    host with that many; its affinity is restored after the test."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) < request.param:
        pytest.skip(f"fewer than {request.param} allowed CPUs")
    pinned = set(sorted(allowed)[:request.param])
    set_affinity(0, pinned)
    yield pinned
    set_affinity(0, allowed)


@needs_fork
@needs_affinity
@pytest.mark.parametrize("cpus", [2], indirect=True)
@pytest.mark.parametrize("raises", [False, True])
def test_fork_join_keeps_the_caller_off_the_workers_cpu(cpus, raises,
                                                        fork_pids):
    seen = {}

    def mine():
        seen["can_fork"] = forces._can_fork()
        seen["cpus"] = os.sched_getaffinity(0)
        if raises:
            raise RuntimeError("caller failure")
        return "mine"

    def theirs():
        return sorted(os.sched_getaffinity(0))

    if raises:
        with pytest.raises(RuntimeError, match="caller failure"):
            forces.fork_join(mine, theirs)
    else:
        value, pinned = forces.fork_join(mine, theirs)
        assert value == "mine" and len(pinned) == 1
        assert seen["cpus"] == cpus - set(pinned)
    assert len(seen["cpus"]) == 1
    assert seen["can_fork"] is False
    assert os.sched_getaffinity(0) == cpus
    assert len(fork_pids) == 1
    assert_reaped(fork_pids)


@needs_fork
def test_fork_join_returns_the_workers_value(fork_pids):
    caller = os.getpid()
    value, (pid, arrays) = forces.fork_join(
        lambda: os.getpid(), lambda: (os.getpid(), {"x": np.arange(3.0)}))
    assert value == caller and pid == fork_pids[0] != caller
    assert arrays["x"].tobytes() == np.arange(3.0).tobytes()
    assert_reaped(fork_pids)


@needs_fork
def test_a_failed_worker_runs_theirs_here(fork_pids):
    caller = os.getpid()

    def theirs():
        if os.getpid() != caller:
            raise RuntimeError("worker failure")
        return "here"

    assert forces.fork_join(lambda: "mine", theirs) == ("mine", "here")
    assert len(fork_pids) == 1
    assert_reaped(fork_pids)


@needs_affinity
@pytest.mark.parametrize("cpus", [1], indirect=True)
def test_one_allowed_cpu_forks_and_pins_nothing(cpus, tmp_path, monkeypatch,
                                                fork_pids):
    # every fork of every command, each below its minimum
    pins = []
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, mask: pins.append(mask))
    monkeypatch.setattr(cli, "RUN_FORK_MIN", 0)
    monkeypatch.setattr(forces, "FORK_MIN_PARTICLES", 0)
    monkeypatch.setattr(cli, "STAGE_FORK_MIN", 0)
    steps = ("discretization.N = 24\ndiscretization.t_end = 0.03\n"
             "discretization.dt = 1e-3\n")
    morse = tmp_path / "morse.cfg"
    morse.write_text("problem.W.kind = morse\nproblem.W.c_A = 1.0\n"
                     "problem.W.ell_A = 1.0\nproblem.W.c_R = 0.5\n"
                     "problem.W.ell_R = 0.3\n" + steps)
    reduction = tmp_path / "reduction.cfg"
    reduction.write_text("problem.V.kind = linear\nproblem.V.coeff = -1.0\n"
                         "discretization.N_list = 8, 16\n"
                         "oracle.fv_dx = 0.02\n" + steps)
    for config, command in [(morse, "run"), (morse, "edb-check"),
                            (reduction, "converge"),
                            (reduction, "oracle-compare"),
                            (reduction, "entropy-check")]:
        assert cli.main(["--config", str(config), "--out-dir",
                         str(tmp_path / command), command]) == 0
    assert fork_pids == []
    assert pins == []
    assert os.sched_getaffinity(0) == cpus
