"""Dense pair fills on two CPUs: forces.PairWorker and its use in
solver.integrate.  Every path must give the one-process bits and raise the
one-process exception, and no path may leave a child process behind."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob import cli, forces
from partmob.forces import FORK_MIN_PARTICLES, PairWorker, particle_forces
from partmob.solver import NonFiniteState, StepUnderflow

needs_fork = pytest.mark.skipif(not forces._can_fork(),
                                reason="no second CPU, or no os.fork")


def gaussian_kernel():
    # dw is odd bit for bit: (-2 * -d) == 2 * d and (-d * -d) == d * d
    return pm.regular_interaction(lambda x: np.exp(-x * x),
                                  lambda x: -2.0 * x * np.exp(-x * x),
                                  lambda x: (4.0 * x * x - 2.0)
                                  * np.exp(-x * x), 1.0, 2.0, 5.0)


def random_state(n, seed, span=1.0):
    x = np.unique(np.random.default_rng(seed).uniform(-span, span, n))
    return pm.ParticleState(x, h=1.0 / (len(x) - 1))


def with_kernel(kernel):
    return pm.Potentials(pm.zero_potential(), kernel)


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def worker_pids(monkeypatch):
    """The pid of every PairWorker that integrate forks."""
    pids = []

    class Recorded(PairWorker):
        def __init__(self, dw, n):
            super().__init__(dw, n)
            pids.append(self.pid)

    monkeypatch.setattr(forces, "PairWorker", Recorded)
    return pids


def test_one_fork_gate():
    # run's stored-time split and the pair worker ask the same question
    assert cli._can_fork is forces._can_fork


@needs_fork
@settings(max_examples=25, deadline=None)
@given(n=st.integers(100, 2 * FORK_MIN_PARTICLES + 20),
       seed=st.integers(0, 2**32 - 1),
       params=st.tuples(st.floats(0.1, 5.0), st.floats(0.05, 3.0),
                        st.floats(0.1, 5.0), st.floats(0.05, 3.0)),
       gaussian=st.booleans())
@example(n=150, seed=1, params=(1.0, 1.0, 0.5, 0.3), gaussian=False)
@example(n=200, seed=2, params=(1.0, 1.0, 0.5, 0.3), gaussian=True)
def test_worker_forces_equal_inline_bits(n, seed, params, gaussian):
    kernel = gaussian_kernel() if gaussian else pm.morse(*params)
    state = random_state(n, seed)
    n = len(state.positions)
    blocks = len(list(forces.row_blocks(n, n)))
    if (n, seed) == (150, 1):
        assert blocks == 2      # an even count: the worker fills the last
    if (n, seed) == (200, 2):
        assert blocks == 3      # an odd count: the caller fills the last
    potentials = with_kernel(kernel)
    inline = particle_forces(state, potentials)
    worker = PairWorker(kernel.dw, n)
    try:
        for _ in range(2):      # the shared matrix is reused
            got = particle_forces(state, potentials, worker)
            assert got.tobytes() == inline.tobytes()
        assert worker.pid is not None
    finally:
        pid = worker.pid
        worker.close()
    assert_reaped(pid)


def morse_run(n_cells, **kwargs):
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         with_kernel(pm.morse(1.0, 1.0, 0.5, 0.3)),
                         pm.parabolic_bump())
    state = pm.quantile_partition(problem.initial, n_cells)
    return pm.integrate(state, problem, 0.01, dt=1e-3, **kwargs)


@needs_fork
def test_integrate_with_the_worker_matches_one_process(monkeypatch,
                                                       worker_pids):
    two = morse_run(FORK_MIN_PARTICLES + 40, store_every=3)
    assert two.stats["pair_worker"] and len(worker_pids) == 1
    assert_reaped(worker_pids[0])
    monkeypatch.setattr(forces, "_can_fork", lambda: False)
    one = morse_run(FORK_MIN_PARTICLES + 40, store_every=3)
    assert not one.stats["pair_worker"] and len(worker_pids) == 1
    assert two.positions.tobytes() == one.positions.tobytes()
    assert two.velocities.tobytes() == one.velocities.tobytes()
    assert two.stats == {**one.stats, "pair_worker": True}


@needs_fork
def test_a_failed_fork_leaves_the_fills_to_the_caller(monkeypatch):
    one = morse_run(FORK_MIN_PARTICLES + 40, store_every=3)

    def no_process():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    worker = PairWorker(pm.morse(1.0, 1.0, 0.5, 0.3).dw, FORK_MIN_PARTICLES)
    assert worker.pid is None
    worker.close()
    two = morse_run(FORK_MIN_PARTICLES + 40, store_every=3)
    assert not two.stats["pair_worker"]
    assert two.positions.tobytes() == one.positions.tobytes()
    assert two.stats == {**one.stats, "pair_worker": False}


@needs_fork
@pytest.mark.parametrize("n_particles, forked", [
    (FORK_MIN_PARTICLES - 1, False), (FORK_MIN_PARTICLES, True)])
def test_stats_count_the_run(n_particles, forked, worker_pids):
    # 10 steps, stored at steps 0, 3, 6, 9 and 10
    traj = morse_run(n_particles - 1, store_every=3)
    assert len(traj.times) == 5
    assert traj.stats == {"velocity_evals": 4 * 10 + 5, "halvings": 0,
                          "steps": 10, "min_dt": 0.01 / 10,
                          "dt": 1e-3, "pair_worker": forked}
    assert len(worker_pids) == forked


def test_newtonian_and_zero_kernels_never_fork(attractive_problem,
                                               reduction_problem,
                                               worker_pids):
    for problem in (attractive_problem, reduction_problem):
        state = pm.quantile_partition(problem.initial, 2 * FORK_MIN_PARTICLES)
        traj = pm.integrate(state, problem, 0.002, dt=1e-3)
        assert traj.stats["pair_worker"] is False
    assert worker_pids == []


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
def test_a_failing_worker_is_replaced_by_the_caller():
    caller = os.getpid()

    def in_worker(d):
        if os.getpid() != caller:
            raise RuntimeError("worker failure")

    kernel = failing_kernel(in_worker)
    state = random_state(2 * FORK_MIN_PARTICLES, 3)
    n = len(state.positions)
    expected = particle_forces(state, with_kernel(pm.morse(1.0, 1.0, 0.5,
                                                           0.3)))
    worker = PairWorker(kernel.dw, n)
    pid = worker.pid
    try:
        got = particle_forces(state, with_kernel(kernel), worker)
        # reaped at the failure; the next call runs in this process alone
        assert worker.pid is None
        assert_reaped(pid)
        again = particle_forces(state, with_kernel(kernel), worker)
    finally:
        worker.close()
    assert got.tobytes() == expected.tobytes() == again.tobytes()


@needs_fork
def test_a_raising_kernel_raises_the_inline_exception():
    # every block but the first raises, naming its shape: inline, block 1
    # (the worker's) raises first, and so must the two-process fill
    state = random_state(2 * FORK_MIN_PARTICLES, 4)
    n = len(state.positions)

    def past_block_zero(d):
        if d.shape[1] < n:
            raise ValueError(f"block of shape {d.shape}")

    potentials = with_kernel(failing_kernel(past_block_zero))
    with pytest.raises(ValueError) as inline:
        particle_forces(state, potentials)
    worker = PairWorker(potentials.interaction.dw, n)
    pid = worker.pid
    try:
        with pytest.raises(ValueError) as two:
            particle_forces(state, potentials, worker)
    finally:
        worker.close()
    second = list(forces.row_blocks(n, n))[1]
    assert str(inline.value) == (
        f"block of shape {(second.stop - second.start, n - second.start)}")
    assert str(two.value) == str(inline.value)
    assert_reaped(pid)


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
