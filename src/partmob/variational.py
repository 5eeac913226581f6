"""Gradient-structure functionals for the particle system.

The particle flow is the steepest descent of a discrete free energy with
respect to a state-dependent quadratic dissipation.  Four identities make
that statement quantitative and testable:

* the flow satisfies ``xdot = d2 R*(x, -f)``;
* Fenchel-Young equality ``R(x, xdot) = R*(x, -f)`` holds along the flow;
* the energy balance ``int (R + R*) dt = F(start) - F(end)`` is exact;
* the decay rate ``D = sum_i [beta(right_i)(f_i^-)^2
  + beta(left_i)(f_i^+)^2]`` is ``2 R*(x, -f)`` bit for bit (the same two
  products per particle, summed in the opposite order) and computed so.

All functionals here sum over the full particle range 0..N.
"""

from __future__ import annotations

import numpy as np

from .forces import (cell_pair_sum, continuum_force, force_rows, pair_sum,
                     row_blocks)
from .model import Potentials, Problem, cell_gauss, cumulative_simpson, simpson
from .quantile import ParticleState
from .reconstruct import write_table
from .solver import Trajectory, upwind_betas

__all__ = [
    "free_energy",
    "reconstructed_energy",
    "edb_residual",
    "edb_series",
    "records_residual",
    "continuous_dual_dissipation",
    "gradient_records",
    "write_gradient_csv",
]


def free_energy(state: ParticleState, potentials: Potentials) -> float:
    """Discrete free energy ``sum_i V(x_i) + (h/2) sum_{i != j} W(x_i - x_j)``."""
    x = state.positions
    total = float(np.sum(potentials.external.v(x)))
    return total + 0.5 * state.h * pair_sum(x, potentials.interaction)


def _dual_dissipations(beta_left, beta_right, zeta) -> np.ndarray:
    # one dual dissipation per row of (upwind_betas, zeta)
    zp = np.maximum(zeta, 0.0)
    zm = np.minimum(zeta, 0.0)
    return 0.5 * np.sum(beta_left * zm**2 + beta_right * zp**2, axis=-1)


def _dissipations(beta_left, beta_right, flux) -> np.ndarray:
    # one dissipation per row of (upwind_betas, flux); +inf where infeasible
    jp = np.maximum(flux, 0.0)
    jm = np.minimum(flux, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(jm < 0, jm**2 / beta_left, 0.0) \
            + np.where(jp > 0, jp**2 / beta_right, 0.0)
    out = 0.5 * np.sum(terms, axis=-1)
    infeasible = np.any((jp > 0) & (beta_right == 0.0), axis=-1) \
        | np.any((jm < 0) & (beta_left == 0.0), axis=-1)
    return np.where(infeasible, np.inf, out)


def _rate_series(traj: Trajectory, rows: slice = slice(None)):
    """R_h(x, xdot) and R*(x, -f) at the stored times ``rows`` (all by
    default).

    Works on blocks of stored times, with the forces of a block from one
    :func:`~partmob.forces.force_rows` call and its upwind mobilities from
    one :func:`~partmob.solver.upwind_betas` call.
    """
    beta = traj.problem.mobility.beta
    positions, velocities = traj.positions[rows], traj.velocities[rows]
    n, n_particles = positions.shape
    r, r_star = np.empty(n), np.empty(n)
    # the widest temporary is the padded row of n_particles + 1 betas
    for block in row_blocks(n, n_particles + 1):
        x = positions[block]
        betas = upwind_betas(x, traj.h, beta,
                             np.zeros((len(x), n_particles + 1)))
        f = force_rows(x, traj.h, traj.problem.potentials)
        r[block] = _dissipations(*betas, velocities[block])
        r_star[block] = _dual_dissipations(*betas, -f)
    return r, r_star


def _balance_defect(times, r, r_star, f_start, f_end) -> float:
    """``|int (R + R*) dr + F(end) - F(start)|`` by composite Simpson."""
    return abs(float(simpson(r + r_star, times)) + f_end - f_start)


def edb_residual(traj: Trajectory) -> float:
    """``|int_0^T (R + R*) dr + F(T) - F(0)|`` over the whole run, on the
    stored grid (composite Simpson in time)."""
    if len(traj.times) < 3:
        raise ValueError("need at least three stored times")
    r, r_star = _rate_series(traj)
    pots = traj.problem.potentials
    f_end = free_energy(traj.state_at(-1), pots)
    f_start = free_energy(traj.state_at(0), pots)
    return _balance_defect(traj.times, r, r_star, f_start, f_end)


def records_residual(table: dict) -> float:
    """:func:`edb_residual` from the :func:`gradient_records` table of its
    trajectory (same arrays, same quadrature, nothing recomputed)."""
    if len(table["t"]) < 3:
        raise ValueError("need at least three stored times")
    energies = table["F_h"]
    return _balance_defect(table["t"], table["R_h"], table["R_h_star"],
                           float(energies[0]), float(energies[-1]))


def _decay_and_defect(times, energies, r, r_star):
    # D = 2 R* and the running balance defect from the first stored time
    partial = cumulative_simpson(r + r_star, times)
    return 2.0 * r_star, partial + energies - energies[0]


def edb_series(traj: Trajectory, rows: slice = slice(None)):
    """Arrays (times, F, R, R*, D = 2 R*, running balance defect) at the
    stored times ``rows`` (all by default), the defect counted from the
    first of them."""
    times = traj.times[rows]
    r, r_star = _rate_series(traj, rows)
    pots = traj.problem.potentials
    energies = np.array([free_energy(traj.state_at(k), pots)
                         for k in range(len(traj.times))[rows]])
    return times, energies, r, r_star, *_decay_and_defect(times, energies,
                                                          r, r_star)


# ---------------------------------------------------------------------------
# Reconstructed-profile functionals
# ---------------------------------------------------------------------------

def reconstructed_energy(edges: np.ndarray, densities: np.ndarray,
                         potentials: Potentials, mass_per_cell: float) -> float:
    """Energy of the piecewise-constant profile: exact density integral of
    V plus cell-averaged interaction, own-cell term excluded."""
    edges = np.asarray(edges, dtype=float)
    densities = np.asarray(densities, dtype=float)
    nodes, weights = cell_gauss(edges)
    total = float(np.sum(densities[:, None] * weights
                         * potentials.external.v(nodes)))
    h = mass_per_cell
    return total + 0.5 * h * h * cell_pair_sum(edges, potentials.interaction)


def continuous_dual_dissipation(edges: np.ndarray, densities: np.ndarray,
                                problem: Problem,
                                exclude_own_cell: bool = False) -> float:
    """``(1/2) int |F(x)|^2 theta(rho(x)) dx`` for a piecewise-constant
    profile, with the force from the same profile."""
    edges = np.asarray(edges, dtype=float)
    densities = np.asarray(densities, dtype=float)
    mass = float(np.sum(densities * np.diff(edges)))
    nodes, weights = cell_gauss(edges)
    force, _ = continuum_force(edges, densities, mass, problem.potentials,
                               nodes.ravel(), exclude_own_cell=exclude_own_cell)
    theta_vals = problem.mobility.theta(np.repeat(densities, 4))
    return 0.5 * float(np.sum(weights.ravel() * force**2 * theta_vals))


# the rows gradient_columns fills, one per per-time column
GRADIENT_COLUMNS = ("F_h", "R_h", "R_h_star", "Fhat_h")


def gradient_columns(traj: Trajectory, rows: slice, out: np.ndarray) -> None:
    """The ``GRADIENT_COLUMNS`` at the stored times ``rows`` into
    ``out[:, rows]``: :func:`edb_series`' and the reconstructed energy's."""
    _, out[0, rows], out[1, rows], out[2, rows], *_ = edb_series(traj, rows)
    fields, pots = traj.fields, traj.problem.potentials
    out[3, rows] = [reconstructed_energy(fields.edges[k], fields.densities[k],
                                         pots, traj.h)
                    for k in range(len(traj.times))[rows]]


def gradient_table(times: np.ndarray, columns: np.ndarray) -> dict:
    """The ``variational.csv`` table from the ``GRADIENT_COLUMNS`` of every
    stored time ``times``."""
    energies, r, r_star, fhat = columns
    d, defect = _decay_and_defect(times, energies, r, r_star)
    return {"t": times, "F_h": energies, "Fhat_h": fhat, "R_h": r,
            "R_h_star": r_star, "D_h": d, "edb_partial": defect}


def gradient_records(traj: Trajectory) -> dict:
    """The ``variational.csv`` table: :func:`gradient_columns` at every
    stored time, finished by :func:`gradient_table`."""
    columns = np.empty((len(GRADIENT_COLUMNS), len(traj.times)))
    gradient_columns(traj, slice(None), columns)
    return gradient_table(traj.times, columns)


def write_gradient_csv(table: dict, path) -> None:
    """The :func:`gradient_records` table as CSV."""
    write_table(path, table)
