"""Upwind particle dynamics and time integration.

The velocity of each particle mixes its neighbouring cell densities
through the slowdown factor: the part of the force pushing right is damped
by the left cell's density, the part pushing left by the right cell's, with
vacuum (``beta_max``) outside the swarm.  This ordering-aware splitting is
what keeps particles from crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cpus import PairWorker, pair_worker
from .forces import force_rows, row_blocks
from .model import Problem
from .quantile import ParticleState
from .reconstruct import ReconstructedFields

__all__ = [
    "StepUnderflow",
    "UnorderedState",
    "NonFiniteState",
    "TooManySteps",
    "Trajectory",
    "forces_for",
    "integrate",
    "check_cell_bounds",
    "CellBoundReport",
]


class StepUnderflow(RuntimeError):
    """Step halving hit the minimum step without restoring particle order."""


class NonFiniteState(RuntimeError):
    pass


class UnorderedState(ValueError):
    """Particle positions are not strictly increasing."""


class TooManySteps(ValueError):
    """Over 2^53 RK4 steps, more than ``(step + 1) * dt`` can count."""


def forces_for(state: ParticleState, problem: Problem,
               pairs: PairWorker | None = None) -> np.ndarray:
    """Per-particle forces of one state, by :func:`~partmob.forces.force_rows`
    (dense pair fills on ``pairs`` when given)."""
    return force_rows(state.positions, state.h, problem.potentials, pairs)


def upwind_betas(positions: np.ndarray, h: float, beta,
                 padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``beta`` of the cell left and right of every particle, for one state
    or one row per stored time, by one ``beta`` call on ``padded``: the
    densities ``h / width`` between zero vacuum ghost cells.  Raises
    ``UnorderedState`` unless the positions strictly increase."""
    widths = positions[..., 1:] - positions[..., :-1]
    if (widths <= 0.0).any():
        raise UnorderedState("state is not strictly ordered")
    np.divide(h, widths, out=padded[..., 1:-1])
    betas = beta(padded)
    return betas[..., :-1], betas[..., 1:]


def velocity_field(problem: Problem, h: float,
                   pairs: PairWorker | None = None):
    """Particle velocities as a function of the positions, built once per
    run; one :func:`forces_for` call per evaluation, on ``pairs`` when
    given.  The function raises ``UnorderedState`` unless the positions
    strictly increase.  It keeps one density buffer between calls, so one
    thread at a time may use it; every call returns a fresh array."""
    beta = problem.mobility.beta
    padded = np.zeros(0)  # densities with vacuum ghost cells

    def velocity(x):
        nonlocal padded
        if len(padded) != len(x) + 1:
            padded = np.zeros(len(x) + 1)
        beta_left, beta_right = upwind_betas(x, h, beta, padded)
        f = forces_for(ParticleState(x, h=h), problem, pairs)
        # (-beta_right) * f^- - beta_left * f^+;
        # -(beta_right * f^- + ...) would flip the sign of some zeros
        v = np.minimum(f, 0.0)
        np.multiply(np.negative(beta_right), v, out=v)
        np.maximum(f, 0.0, out=f)
        np.multiply(beta_left, f, out=f)
        return np.subtract(v, f, out=v)

    return velocity


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    positions: np.ndarray     # (n_times, n_particles)
    velocities: np.ndarray    # (n_times, n_particles)
    h: float
    problem: Problem
    # what integrate did: "velocity_evals", "halvings" (intervals halved),
    # "steps" (RK4 steps completed, halves of a halved interval counted
    # apart), "min_dt" (the smallest of those steps), "dt" (the step, given
    # or default_dt's) and "pair_worker" (dense pair fills on two CPUs)
    stats: dict = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return self.positions.shape[1] - 1

    def state_at(self, k: int) -> ParticleState:
        return ParticleState(self.positions[k], h=self.h)

    @cached_property
    def fields(self) -> ReconstructedFields:
        """The run's density/flux reconstruction, built on first use: the
        position and velocity arrays themselves, the densities
        ``h / width`` and the mass ``h * n_cells``."""
        densities = np.diff(self.positions, axis=1)
        np.divide(self.h, densities, out=densities)     # in place, same bits
        return ReconstructedFields(self.times, self.positions, densities,
                                   self.velocities, self.h * self.n_cells)


def _rk4_step(x, dt, velocity):
    """``x + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``, the stage points and the sum
    formed in place in the order of that expression; ``velocity`` returns a
    fresh array per call and keeps no reference to its argument."""
    half = 0.5 * dt
    k1 = velocity(x)
    stage = np.multiply(k1, half)
    k2 = velocity(np.add(x, stage, out=stage))
    k3 = velocity(np.add(x, np.multiply(k2, half, out=stage), out=stage))
    k4 = velocity(np.add(x, np.multiply(k3, dt, out=stage), out=stage))
    acc = np.multiply(k2, 2.0, out=k2)
    np.add(k1, acc, out=acc)
    acc += np.multiply(k3, 2.0, out=k3)
    acc += k4
    acc *= dt / 6.0
    return np.add(x, acc, out=acc)


def _advance(x, dt, velocity, min_dt, t_now, stats):
    """One interval of size dt, recursively halved on ordering violations;
    each halving is counted in ``stats["halvings"]``, each completed step
    in ``stats["steps"]`` and the smallest in ``stats["min_dt"]``."""
    try:
        y = _rk4_step(x, dt, velocity)
        if not np.isfinite(y).all():
            raise NonFiniteState(f"non-finite state near t={t_now:.6g}")
        # y is finite, so y[i+1] > y[i] exactly when y[i+1] - y[i] > 0
        if (y[1:] > y[:-1]).all():
            stats["steps"] += 1
            stats["min_dt"] = min(stats["min_dt"], dt)
            return y
    except UnorderedState:
        pass
    if 0.5 * dt < min_dt:
        widths = np.diff(x)
        cell = int(np.argmin(widths))
        raise StepUnderflow(
            f"step underflow at t={t_now:.6g}: cell {cell} (width "
            f"{widths[cell]:.3e}) keeps violating ordering")
    stats["halvings"] += 1
    mid = _advance(x, 0.5 * dt, velocity, min_dt, t_now, stats)
    return _advance(mid, 0.5 * dt, velocity, min_dt, t_now + 0.5 * dt, stats)


def default_dt(state: ParticleState, problem: Problem) -> float:
    """CFL-style guard: a tenth of the minimum cell-crossing time; raises
    ``NonFiniteState`` when the force bound leaves no positive step."""
    fmax = float(np.max(np.abs(forces_for(state, problem))))
    speed = problem.mobility.beta_max * fmax
    if speed <= 0:
        return 1e-3
    dt = min(1e-3, 0.1 * (state.h / problem.M) / speed)
    if not (dt > 0.0 and speed < np.inf):   # NaN too
        raise NonFiniteState(f"force bound beta_max * max|f| = {speed:.6g} "
                             "leaves no positive default step")
    return dt


def integrate(initial: ParticleState, problem: Problem, t_end: float,
              dt: float | None = None, store_every: int = 1) -> Trajectory:
    """Evolve the particle system to ``t_end`` by classical RK4.

    The steps are fixed: ``dt``, or the CFL guard's :func:`default_dt`,
    rounded so that a whole number of steps ends at ``t_end``.  Step 0,
    every ``store_every``-th step and the last are stored.  A step that
    would disorder the particles is halved down to ``1e-12 * t_end`` before
    giving up.  Where :func:`~partmob.cpus.pair_worker` gives one, the
    run's dense pair fills go to a forked :class:`~partmob.cpus.PairWorker`,
    reaped however the run ends.  The trajectory's ``stats`` count what was
    done.
    """
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be finite and positive")
    if store_every < 1:
        raise ValueError("store_every must be at least 1")
    x = np.asarray(initial.positions, dtype=float)
    if np.any(np.diff(x) <= 0):
        raise ValueError("initial particles must be strictly increasing")
    if dt is None:
        dt = default_dt(initial, problem)
    if not (0.0 < dt < np.inf and t_end / dt < np.inf):
        raise ValueError(f"dt must be finite and positive, and t_end / dt "
                         f"finite: t_end = {t_end!r}, dt = {dt!r}")
    min_dt = 1e-12 * t_end
    stats = {"velocity_evals": 0, "halvings": 0, "steps": 0,
             "min_dt": np.inf, "dt": dt}
    n_steps = max(1, int(round(t_end / dt)))
    step_dt = t_end / n_steps
    # step 0, every store_every-th step, and the last step
    n_store = 1 + -(-n_steps // store_every)

    with pair_worker(problem.potentials, x.size) as pairs:
        stats["pair_worker"] = pairs is not None
        bare = velocity_field(problem, initial.h, pairs)

        def velocity(y):
            stats["velocity_evals"] += 1
            return bare(y)

        try:
            times = np.empty(n_store)
            states = np.empty((n_store, x.size))
            vels = np.empty((n_store, x.size))
        except ValueError as exc:   # more values than numpy can index
            raise MemoryError(f"{n_store:.3g} stored times of {x.size} "
                              f"particles: {exc}") from None
        if n_steps > 2**53:     # after the allocation, which names the times
            raise TooManySteps(f"{n_steps:.3g} RK4 steps, more than 2^53")
        times[0], states[0], vels[0] = 0.0, x, velocity(x)
        k = 1
        for step in range(n_steps):
            x = _advance(x, step_dt, velocity, min_dt, step * step_dt, stats)
            if (step + 1) % store_every == 0 or step + 1 == n_steps:
                times[k], states[k], vels[k] = \
                    (step + 1) * step_dt, x, velocity(x)
                k += 1

    return Trajectory(times, states, vels, h=initial.h, problem=problem,
                      stats=stats)


@dataclass(frozen=True)
class CellBoundReport:
    min_width_ratio: float            # min over time of min_i width * M / h
    max_width_ratio: float | None     # max over time of max_i width * sigma / h
    growth_bound: float | None        # e^(mu T) with mu slightly above c_f * beta_max
    max_density: float                # max over time of max_i h / width


def check_cell_bounds(traj: Trajectory) -> CellBoundReport:
    """Width bounds along the trajectory, scaled to their guaranteed
    limits.  The widths are reduced over blocks of stored times; since
    division rounds monotonically, ``h / min(width)`` is the largest
    density bit for bit."""
    problem, h = traj.problem, traj.h
    n = len(traj.times)
    least, most = np.empty(n), np.empty(n)
    for rows in row_blocks(n, traj.n_cells):
        widths = np.diff(traj.positions[rows], axis=1)
        least[rows] = np.min(widths, axis=1)
        most[rows] = np.max(widths, axis=1)
    min_width = np.min(least)
    min_ratio = float(min_width * problem.M / h)
    sigma = problem.initial.lower_bound
    if sigma > 0:
        max_ratio = float(np.max(most) * sigma / h)
        mu = problem.c_force * problem.mobility.beta_max * 1.01
        growth = float(np.exp(mu * traj.times[-1]))
    else:
        max_ratio, growth = None, None
    return CellBoundReport(min_ratio, max_ratio, growth,
                           float(h / min_width))
