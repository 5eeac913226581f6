"""Dense pair fills on two CPUs in solver.integrate, as cases of the fork
harness in test_fork_join.py on its "pair-worker" path, and the reap of the
worker when a run raises.  The pair worker's own bits, stats and threshold
are in test_fork_join.py."""

import os

import numpy as np
import pytest
from test_fork_join import needs_fork, with_kernel

import partmob as pm
from partmob.cpus import FORK_MIN_PARTICLES
from partmob.solver import NonFiniteState, StepUnderflow


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_integrate_with_the_worker_matches_one_process(harness):
    harness.same_outputs("pair-worker")


def test_a_failed_fork_leaves_the_fills_to_the_caller(harness):
    harness.worker_failure("pair-worker", "fork")


def test_a_failing_worker_is_replaced_by_the_caller(harness):
    harness.worker_failure("pair-worker")


def failing_kernel(fails):
    # Morse, with dw running fails(d) first on every block it is given and
    # returning what fails returns, unless that is None
    morse = pm.morse(1.0, 1.0, 0.5, 0.3)

    def dw(d):
        out = fails(d)
        return morse.dw(d) if out is None else out

    return pm.regular_interaction(morse.w, dw, morse.d2w, morse.sup_dw,
                                  morse.sup_d2w, morse.lip_d2w)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt,
                                   NonFiniteState, StepUnderflow])
def test_integrate_reaps_the_worker_when_it_raises(error, worker_pids):
    caller = os.getpid()
    calls = []

    def fails_later(d):
        # from the caller's 20th block on: a raise, an interrupt, NaN
        # pairs, or an attraction so strong that halving the step cannot
        # keep the particles ordered
        if os.getpid() != caller:
            return None
        calls.append(d.shape)
        if len(calls) < 20:
            return None
        if error is NonFiniteState:
            return np.full_like(d, np.nan)
        if error is StepUnderflow:
            return np.sign(d) * 1e20
        raise error("stop")

    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         with_kernel(failing_kernel(fails_later)),
                         pm.parabolic_bump())
    state = pm.quantile_partition(problem.initial, FORK_MIN_PARTICLES)
    with pytest.raises(error):
        pm.integrate(state, problem, 0.01, dt=1e-3)
    assert len(worker_pids) == 1
    assert_reaped(worker_pids[0])
