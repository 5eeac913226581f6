"""Stored-time energies on two CPUs: edb_series' free energies and
gradient_records' reconstructed energies.  From FORK_MIN_PAIRS pair terms
on, a forked worker computes the second half of the rows; every path must
give the one-process bits and raise the one-process exception, and no path
may leave a child process behind."""

import importlib
import inspect
import os

import numpy as np
import pytest

import partmob as pm
from partmob import forces
from partmob import variational as var

needs_fork = pytest.mark.skipif(not forces._can_fork(),
                                reason="no second CPU, or no os.fork")

# the modules whose __all__ functions a traced run wraps
TRACED = ("quantile", "forces", "solver", "reconstruct", "variational",
          "diagnostics", "fv", "cli")


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


def kernel_run(kind, n_cells=24):
    kernel = {"abs": pm.newtonian(True), "morse": pm.morse(1.0, 1.0, 0.5, 0.3),
              "zero": pm.no_interaction()}[kind]
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         pm.Potentials(pm.quadratic_potential(0.5), kernel),
                         pm.parabolic_bump())
    state = pm.quantile_partition(problem.initial, n_cells)
    return pm.integrate(state, problem, 0.03, dt=1e-3)


def one_process(traj, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(var, "_can_fork", lambda: False)
        return var.gradient_records(traj)


def assert_same_bits(got, expected):
    assert list(got) == list(expected)
    for key in expected:
        assert np.asarray(got[key]).tobytes() == \
            np.asarray(expected[key]).tobytes(), key


KINDS = pytest.mark.parametrize("kind", ["abs", "morse", "zero"])


@needs_fork
@KINDS
def test_two_cpus_give_the_one_process_bits(kind, monkeypatch, fork_pids):
    traj = kernel_run(kind)
    expected = one_process(traj, monkeypatch)
    assert fork_pids == []
    monkeypatch.setattr(var, "FORK_MIN_PAIRS", 0)
    got = var.gradient_records(traj)
    # one worker for the free energies, one for the reconstructed ones
    assert len(fork_pids) == 2
    assert_reaped(fork_pids)
    assert_same_bits(got, expected)
    times, energies, *_ = var.edb_series(traj)
    assert energies.tobytes() == np.asarray(expected["F_h"]).tobytes()
    assert len(fork_pids) == 3


@needs_fork
@KINDS
@pytest.mark.parametrize("failure", ["worker", "fork"])
def test_a_failed_worker_is_replaced_by_the_caller(kind, failure,
                                                   monkeypatch, fork_pids):
    traj = kernel_run(kind)
    expected = one_process(traj, monkeypatch)
    monkeypatch.setattr(var, "FORK_MIN_PAIRS", 0)
    caller = os.getpid()
    if failure == "worker":
        def failing(energy):
            def in_worker(*args):
                if os.getpid() != caller:
                    raise RuntimeError("worker failure")
                return energy(*args)
            return in_worker

        for name in ("_free_energy", "_reconstructed_energy"):
            monkeypatch.setattr(var, name, failing(getattr(var, name)))
    else:
        def no_process():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
    assert_same_bits(var.gradient_records(traj), expected)
    assert len(fork_pids) == (2 if failure == "worker" else 0)
    assert_reaped(fork_pids)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_caller_failure_propagates_and_reaps_the_worker(error, monkeypatch,
                                                          fork_pids):
    traj = kernel_run("morse")
    monkeypatch.setattr(var, "FORK_MIN_PAIRS", 0)
    energy = var.reconstructed_energy
    calls = []

    def fails_later(*args):
        calls.append(1)
        if len(calls) == 3:
            raise error("caller failure")
        return energy(*args)

    monkeypatch.setattr(var, "reconstructed_energy", fails_later)
    with pytest.raises(error, match="caller failure"):
        var.gradient_records(traj)
    assert len(fork_pids) == 2
    assert_reaped(fork_pids)


@needs_fork
def test_the_worker_calls_no_traced_function(monkeypatch):
    # every public function of a traced module fails in a forked worker,
    # wherever a partmob namespace binds it; the workers must still succeed
    caller = os.getpid()
    modules = [importlib.import_module(f"partmob.{name}") for name in TRACED]
    namespaces = [pm] + modules
    for module in modules:
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue

            def guarded(*args, _fn=fn, **kwargs):
                if os.getpid() != caller:
                    raise RuntimeError("traced function in the worker")
                return _fn(*args, **kwargs)

            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        monkeypatch.setattr(ns, attr, guarded)
    statuses = []
    waitpid = os.waitpid

    def recorded(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    monkeypatch.setattr(os, "waitpid", recorded)
    monkeypatch.setattr(var, "FORK_MIN_PAIRS", 0)
    for kind in ("abs", "morse"):
        var.gradient_records(kernel_run(kind))
    assert statuses == [0] * 4


@needs_fork
@pytest.mark.parametrize("kind, threshold, forks", [
    # 31 stored times of 25 particles and 24 cells: 31 * 25^2 = 19,375 pair
    # terms for the free energies, 31 * 24^2 = 17,856 for the reconstructed
    # |x| energies (cell midpoints) and 31 * 96^2 = 285,696 for the Morse
    # ones (4 Gauss nodes per cell); none without interaction
    ("abs", 17_856, 2), ("abs", 17_857, 1), ("abs", 19_376, 0),
    ("morse", 19_375, 2), ("morse", 19_376, 1), ("morse", 285_697, 0),
    ("zero", 1, 0)])
def test_the_threshold_counts_pair_terms(kind, threshold, forks, monkeypatch,
                                         fork_pids):
    traj = kernel_run(kind)
    assert traj.positions.shape == (31, 25)
    monkeypatch.setattr(var, "FORK_MIN_PAIRS", threshold)
    var.gradient_records(traj)
    assert len(fork_pids) == forks
    assert_reaped(fork_pids)


def test_small_runs_stay_in_one_process(fork_pids):
    # the benchmark's traced N = 20 run: 21 stored times of 21 particles
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         pm.Potentials(pm.zero_potential(),
                                       pm.newtonian(True)),
                         pm.parabolic_bump())
    state = pm.quantile_partition(problem.initial, 20)
    var.gradient_records(pm.integrate(state, problem, 0.02, dt=1e-3))
    assert fork_pids == []
