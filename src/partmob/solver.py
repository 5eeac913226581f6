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

from .forces import PairWorker, force_rows, pair_worker, row_blocks
from .model import Mobility, Problem
from .quantile import ParticleState
from .reconstruct import ReconstructedFields

__all__ = [
    "StepUnderflow",
    "UnorderedState",
    "NonFiniteState",
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


def forces_for(state: ParticleState, problem: Problem,
               pairs: PairWorker | None = None) -> np.ndarray:
    """Per-particle forces of one state, by :func:`~partmob.forces.force_rows`
    (dense pair fills on ``pairs`` when given)."""
    return force_rows(state.positions, state.h, problem.potentials, pairs)


def upwind_betas(densities: np.ndarray,
                 mobility: Mobility) -> tuple[np.ndarray, np.ndarray]:
    """Mobility of the cell left and right of every particle, with vacuum
    ghost cells beyond both ends; one ``beta`` evaluation.  ``densities``
    holds one state or one row per stored time."""
    padded = np.zeros(densities.shape[:-1] + (densities.shape[-1] + 2,))
    padded[..., 1:-1] = densities
    beta = mobility.beta(padded)
    return beta[..., :-1], beta[..., 1:]


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
        widths = x[1:] - x[:-1]
        if (widths <= 0.0).any():
            raise UnorderedState("state is not strictly ordered")
        if len(padded) != len(x) + 1:
            padded = np.zeros(len(x) + 1)
        np.divide(h, widths, out=padded[1:-1])
        betas = beta(padded)
        f = forces_for(ParticleState(x, h=h), problem, pairs)
        # (-beta_right) * f^- - beta_left * f^+, the upwind_betas split;
        # -(beta_right * f^- + ...) would flip the sign of some zeros
        v = np.minimum(f, 0.0)
        np.multiply(np.negative(betas[1:]), v, out=v)
        np.maximum(f, 0.0, out=f)
        np.multiply(betas[:-1], f, out=f)
        return np.subtract(v, f, out=v)

    return velocity


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    positions: np.ndarray     # (n_times, n_particles)
    velocities: np.ndarray    # (n_times, n_particles)
    h: float
    problem: Problem
    # what integrate did: "velocity_evals", "halvings" (intervals halved in
    # the fixed-step scheme) and "pair_worker" (dense pair fills on two CPUs)
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
        return ReconstructedFields(
            self.times, self.positions,
            self.h / np.diff(self.positions, axis=1), self.velocities,
            self.h * self.n_cells)


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
    each halving is counted in ``stats["halvings"]``."""
    try:
        y = _rk4_step(x, dt, velocity)
        if not np.isfinite(y).all():
            raise NonFiniteState(f"non-finite state near t={t_now:.6g}")
        # y is finite, so y[i+1] > y[i] exactly when y[i+1] - y[i] > 0
        if (y[1:] > y[:-1]).all():
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


# Dormand-Prince 5(4) coefficients
_DP_A = [
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _integrate_rk45(x, t_end, velocity, tol, min_dt, store_every):
    # k1 is the velocity at x: kept after a rejected step, taken from the
    # stored velocity after a stored step, None until evaluated otherwise
    t = 0.0
    dt = min(1e-2, t_end / 10.0)
    k1 = velocity(x)
    times, states, vels = [0.0], [x.copy()], [k1]
    accepted = 0
    while t < t_end:
        dt = min(dt, t_end - t)
        try:
            if k1 is None:
                k1 = velocity(x)
            k = [k1]
            for row in _DP_A[1:]:
                xi = x + dt * sum(a * ki for a, ki in zip(row, k))
                k.append(velocity(xi))
            k = np.array(k)
            x5 = x + dt * (_DP_B5 @ k)
            err = dt * ((_DP_B5 - _DP_B4) @ k)
            scale = tol * (1.0 + np.max(np.abs(x)))
            err_norm = float(np.max(np.abs(err))) / scale
            ordered = np.all(np.diff(x5) > 0.0) and np.all(np.isfinite(x5))
        except UnorderedState:
            err_norm, ordered = np.inf, False
        if err_norm <= 1.0 and ordered:
            t += dt
            x = x5
            k1 = None
            accepted += 1
            if accepted % store_every == 0 or t >= t_end:
                k1 = velocity(x)
                times.append(t)
                states.append(x.copy())
                vels.append(k1)
            dt *= min(5.0, max(0.2, 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0))
        else:
            dt *= 0.5 if not np.isfinite(err_norm) \
                else min(0.9, max(0.2, 0.9 * err_norm ** -0.2))
            if dt < min_dt:
                raise StepUnderflow(f"adaptive step underflow at t={t:.6g}")
    return np.array(times), np.array(states), np.array(vels)


def _integrate_rk4(x, t_end, dt, velocity, min_dt, store_every, stats):
    n_steps = max(1, int(round(t_end / dt)))
    dt = t_end / n_steps
    # step 0, every store_every-th step, and the last step
    n_store = 1 + -(-n_steps // store_every)
    times = np.empty(n_store)
    states = np.empty((n_store, x.size))
    vels = np.empty((n_store, x.size))
    times[0], states[0], vels[0] = 0.0, x, velocity(x)
    k = 1
    for step in range(n_steps):
        x = _advance(x, dt, velocity, min_dt, step * dt, stats)
        if (step + 1) % store_every == 0 or step + 1 == n_steps:
            times[k], states[k], vels[k] = (step + 1) * dt, x, velocity(x)
            k += 1
    return times, states, vels


def integrate(initial: ParticleState, problem: Problem, t_end: float,
              scheme: str = "rk4", dt: float | None = None,
              tol: float = 1e-8, store_every: int = 1) -> Trajectory:
    """Evolve the particle system to ``t_end``.

    ``rk4`` takes fixed steps (default chosen by the CFL guard), storing
    every ``store_every``-th step; a step that would disorder the particles
    is halved down to ``1e-12 * t_end`` before giving up.  ``rk45`` is the
    adaptive alternative with local error control.  For a dense kernel
    with at least ``forces.FORK_MIN_PARTICLES`` particles, the run's pair
    fills go to one forked :class:`~partmob.forces.PairWorker`, reaped
    however the run ends.  The trajectory's ``stats`` count what was done.
    """
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be finite and positive")
    if store_every < 1:
        raise ValueError("store_every must be at least 1")
    x0 = np.asarray(initial.positions, dtype=float)
    if np.any(np.diff(x0) <= 0):
        raise ValueError("initial particles must be strictly increasing")
    if scheme == "rk4":
        if dt is None:
            dt = default_dt(initial, problem)
        elif not (0.0 < dt < np.inf and t_end / dt < np.inf):
            raise ValueError("dt must be finite and positive, and t_end / dt "
                             "finite")
    elif scheme == "rk45":
        if not (1e-12 < tol < 1e-2):
            raise ValueError("tolerance must lie in (1e-12, 1e-2)")
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    h = initial.h
    min_dt = 1e-12 * t_end
    stats = {"velocity_evals": 0, "halvings": 0}

    with pair_worker(problem.potentials, x0.size) as pairs:
        stats["pair_worker"] = pairs is not None
        bare = velocity_field(problem, h, pairs)

        def velocity(x):
            stats["velocity_evals"] += 1
            return bare(x)

        if scheme == "rk4":
            times, states, vels = _integrate_rk4(
                x0, t_end, dt, velocity, min_dt, store_every, stats)
        else:
            times, states, vels = _integrate_rk45(
                x0, t_end, velocity, tol, min_dt, store_every)

    return Trajectory(times, states, vels, h=h, problem=problem, stats=stats)


@dataclass(frozen=True)
class CellBoundReport:
    min_width_ratio: float            # min over time of min_i width * M / h
    max_width_ratio: float | None     # max over time of max_i width * sigma / h
    growth_bound: float | None        # e^(mu T) with mu slightly above c_f * beta_max
    max_density: float                # max over time of max_i h / width

    @property
    def lower_bound_ok(self) -> bool:
        return self.min_width_ratio >= 1.0 - 1e-6


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
