"""Independent finite-volume reference solver and exact Riemann solutions.

A first-order conservative scheme with a local Lax-Friedrichs (Rusanov)
flux for ``d/dt rho + d/dx (-theta(rho) F(t,x)) = 0``, the flux form of the
particle model's PDE.  The nonlocal force is frozen over each step.  Used
to cross-validate the particle solver; for the pure conservation-law
reduction an exact Riemann solution is available as a second reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forces import continuum_force, step_values
from .model import Problem, cell_gauss, sorted_union
from .reconstruct import ReconstructedFields

__all__ = [
    "CflViolation",
    "WindowExceeded",
    "FvGrid",
    "make_grid",
    "fv_step",
    "fv_solve",
    "riemann_exact",
    "l1_distance",
    "l1_compare",
    "l1_compare_exact",
]


class CflViolation(RuntimeError):
    pass


class NonConcaveFlux(ValueError):
    pass


class WindowExceeded(ValueError):
    """Mass reached the edge cells of a vacuum-boundary window."""


@dataclass(eq=False)
class FvGrid:
    """Uniform cells on a fixed window with cell-average densities."""

    a: float
    b: float
    rho: np.ndarray
    t: float = 0.0

    @property
    def n(self) -> int:
        return len(self.rho)

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n + 1)

    def mass(self) -> float:
        return float(np.sum(self.rho) * self.dx)


def make_grid(problem: Problem, window: tuple[float, float], dx: float) -> FvGrid:
    """Project the initial density onto uniform cells by exact cell averages
    of the cumulative function."""
    a, b = float(window[0]), float(window[1])
    n = max(4, int(round((b - a) / dx)))
    edges = np.linspace(a, b, n + 1)
    cum = problem.initial.cumulative(edges)
    rho = np.diff(cum) / np.diff(edges)
    return FvGrid(a, b, rho, t=0.0)


def _interface_force(grid: FvGrid, problem: Problem,
                     edges: np.ndarray) -> np.ndarray:
    force, _ = continuum_force(edges, grid.rho, grid.mass(),
                               problem.potentials, edges)
    return force


def _theta_max(mobility) -> float:
    # the largest flux mobility, sampled on [0, cap]
    return float(np.max(mobility.theta(np.linspace(0.0, mobility.cap, 257))))


def _max_dt(grid: FvGrid, problem: Problem, force: np.ndarray,
            theta_max: float) -> float:
    lip_theta = problem.mobility.lip_theta
    fmax = float(np.max(np.abs(force)))
    lip_force = float(np.max(np.abs(np.diff(force)))) / grid.dx if grid.n > 1 else 0.0
    speed = fmax * lip_theta + theta_max * lip_force
    if speed <= 0:
        return np.inf
    return 0.45 * grid.dx / speed   # Courant number 0.45


def fv_step(grid: FvGrid, problem: Problem, dt: float,
            force: np.ndarray | None = None, boundary: str = "vacuum",
            max_dt: float | None = None) -> FvGrid:
    """One conservative Rusanov step; raises ``CflViolation`` when ``dt``
    exceeds the stability bound.

    ``boundary="vacuum"`` assumes compact support inside the window (ghost
    cells at zero, mass conserved exactly); ``"outflow"`` copies the edge
    cells into the ghosts for data that fills the window.  ``max_dt`` is
    the CFL bound of ``force``, for a caller that has computed it already.
    """
    if force is None:
        force = _interface_force(grid, problem, grid.edges)
    if max_dt is None:
        max_dt = _max_dt(grid, problem, force, _theta_max(problem.mobility))
    if dt > max_dt * (1.0 + 1e-12):
        raise CflViolation(
            f"dt={dt:.3e} exceeds the CFL bound at t={grid.t:.6g}")
    mob = problem.mobility
    rho = grid.rho
    if boundary == "vacuum":
        ghosts = (0.0, 0.0)
    elif boundary == "outflow":
        ghosts = (rho[0], rho[-1])
    else:
        raise ValueError(f"unknown boundary mode {boundary!r}")
    # cell i + 1 of the padded row is cell i; interface j lies between
    # padded cells j (left) and j + 1 (right)
    padded = np.concatenate([[ghosts[0]], rho, [ghosts[1]]])
    g = -mob.theta(padded)
    speed = np.abs(mob.dtheta(padded))
    alpha = np.abs(force) * np.maximum(speed[:-1], speed[1:])
    flux = 0.5 * (g[:-1] * force + g[1:] * force) \
        - 0.5 * alpha * np.diff(padded)
    new_rho = rho - dt / grid.dx * np.diff(flux)
    if boundary == "vacuum" and (abs(new_rho[0]) > 1e-14
                                 or abs(new_rho[-1]) > 1e-14):
        raise WindowExceeded("support reached the window boundary; enlarge it")
    return FvGrid(grid.a, grid.b, new_rho, t=grid.t + dt)


def fv_solve(problem: Problem, window: tuple[float, float], dx: float,
             t_end: float, store_times=None, boundary: str = "vacuum"
             ) -> tuple[FvGrid, ReconstructedFields]:
    """March the grid to ``t_end``, storing snapshots at the requested
    times (always including 0 and ``t_end``) on the fixed grid's edges,
    with zero edge velocities."""
    grid = make_grid(problem, window, dx)
    extra = [] if store_times is None else list(store_times)
    wanted = sorted({0.0, float(t_end)} | {float(t) for t in extra})
    times, profiles = [], []
    next_i = 0
    while next_i < len(wanted) and wanted[next_i] <= grid.t + 1e-14:
        times.append(grid.t)
        profiles.append(grid.rho.copy())
        next_i += 1
    # the grid's edges and the mobility's peak are fixed for the whole solve
    edges = grid.edges
    theta_max = _theta_max(problem.mobility)
    while grid.t < t_end - 1e-14:
        force = _interface_force(grid, problem, edges)
        bound = _max_dt(grid, problem, force, theta_max)
        dt = min(bound, t_end - grid.t)
        if next_i < len(wanted):
            dt = min(dt, wanted[next_i] - grid.t)
        grid = fv_step(grid, problem, dt, force=force, boundary=boundary,
                       max_dt=bound)
        while next_i < len(wanted) and wanted[next_i] <= grid.t + 1e-12:
            times.append(grid.t)
            profiles.append(grid.rho.copy())
            next_i += 1
    stored = np.broadcast_to(edges, (len(times), grid.n + 1))
    fields = ReconstructedFields(np.array(times), stored, np.array(profiles),
                                 np.zeros(stored.shape), grid.mass())
    return grid, fields


# ---------------------------------------------------------------------------
# Exact Riemann solutions for the conservation-law reduction
# ---------------------------------------------------------------------------

def _check_concave(mobility):
    s = np.linspace(0.0, mobility.cap, 1025)
    slopes = mobility.dtheta(s)
    if np.any(np.diff(slopes) > 1e-9 * max(1.0, np.max(np.abs(slopes)))):
        raise NonConcaveFlux("flux mobility must be concave for the exact "
                             "Riemann construction")


def riemann_exact(mobility, rho_l: float, rho_r: float, xi) -> np.ndarray:
    """Entropy solution of ``d/dt rho + d/dx theta(rho) = 0`` with Riemann
    data, sampled at similarity coordinates ``xi = x / t``.

    Concave flux: jump up in the direction of travel is a shock moving with
    the chord slope, jump down opens a fan inverting ``theta'``.
    """
    _check_concave(mobility)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    rl, rr = float(rho_l), float(rho_r)
    if not (0.0 <= rl <= mobility.cap and 0.0 <= rr <= mobility.cap):
        raise ValueError("Riemann states must lie in [0, cap]")
    if abs(rl - rr) < 1e-15:
        return np.full_like(xi, rl)
    if rl < rr:
        speed = float((mobility.theta(rr) - mobility.theta(rl)) / (rr - rl))
        return np.where(xi < speed, rl, rr)
    # rarefaction: theta' decreases, so the fan runs from theta'(rl) up to
    # theta'(rr) with the inverse of theta' in between
    sl = float(mobility.dtheta(rl))
    sr = float(mobility.dtheta(rr))
    out = np.where(xi <= sl, rl, rr)
    fan = (xi > sl) & (xi < sr)
    if np.any(fan):
        lo = np.full(np.count_nonzero(fan), rr)
        hi = np.full_like(lo, rl)
        target = xi[fan]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            too_slow = mobility.dtheta(mid) > target
            lo = np.where(too_slow, mid, lo)
            hi = np.where(too_slow, hi, mid)
        out[fan] = 0.5 * (lo + hi)
    return out


# ---------------------------------------------------------------------------
# L1 comparisons
# ---------------------------------------------------------------------------

def l1_distance(edges_a, rho_a, edges_b, rho_b) -> float:
    """Exact L1 distance between two piecewise-constant profiles."""
    edges_a = np.asarray(edges_a, dtype=float)
    edges_b = np.asarray(edges_b, dtype=float)
    grid = sorted_union(edges_a, edges_b)
    mids = 0.5 * (grid[:-1] + grid[1:])
    va = step_values(edges_a, rho_a, mids)
    vb = step_values(edges_b, rho_b, mids)
    return float(np.sum(np.abs(va - vb) * np.diff(grid)))


def l1_compare(particle_fields, fv_fields, t: float) -> float:
    """L1 distance between reconstructed particle and finite-volume
    profiles at a common stored time; the particle support must lie inside
    the finite-volume window."""
    edges_p, rho_p = particle_fields.profile(t)
    edges_f, rho_f = fv_fields.profile(t)
    if edges_p[0] < edges_f[0] - 1e-12 or edges_p[-1] > edges_f[-1] + 1e-12:
        raise WindowExceeded("window mismatch: particle support exceeds the "
                             "finite-volume window")
    return l1_distance(edges_p, rho_p, edges_f, rho_f)


def l1_compare_exact(grid: FvGrid, exact_fn) -> float:
    """L1 distance between the grid and a pointwise reference, by 4-point
    Gauss per cell."""
    nodes, weights = cell_gauss(grid.edges)
    return float(np.sum(weights * np.abs(exact_fn(nodes) - grid.rho[:, None])))
