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

from .forces import (_can_fork, _is_dense, cell_pair_sum, continuum_force,
                     force_rows, fork_join, pair_sum, row_blocks)
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
    return _free_energy(state, potentials)


def _free_energy(state, potentials) -> float:
    # free_energy, untraced for the worker of _energies
    x = state.positions
    total = float(np.sum(potentials.external.v(x)))
    return total + 0.5 * state.h * pair_sum(x, potentials.interaction)


# From this many pair terms on (stored times x terms of one pair sum), the
# energies run on two CPUs: with a fork and join at 4 ms and an |x| term at
# 2.4 ns, the split won 9 of 15 calls at 5.2 M terms, 15 of 15 at 10.3 M.
FORK_MIN_PAIRS = 8_000_000


def _energies(traj: Trajectory, pairs: int, energy, untraced, args):
    """``energy(*args(k))`` at every stored time ``k``.  From
    ``FORK_MIN_PAIRS`` pair terms on (``pairs`` per time, none for W = 0),
    a ``fork_join`` worker computes the second half with ``untraced``."""
    n = len(traj.times)
    if traj.problem.potentials.interaction.is_zero:
        pairs = 0
    if n * pairs < FORK_MIN_PAIRS or not _can_fork():
        return np.array([energy(*args(k)) for k in range(n)])
    import mmap     # on this path only, as in PairWorker
    out = np.frombuffer(mmap.mmap(-1, 8 * n), count=n)     # shared
    half = (n + 1) // 2

    def fill(lo, hi, fn):
        out[lo:hi] = [fn(*args(k)) for k in range(lo, hi)]

    fork_join(lambda: fill(0, half, energy), lambda: fill(half, n, untraced))
    return out.copy()


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


def _rate_series(traj: Trajectory):
    """R_h(x, xdot) and R*(x, -f) at every stored time.

    Works on blocks of stored times, with the forces of a block from one
    :func:`~partmob.forces.force_rows` call and its upwind mobilities from
    one :func:`~partmob.solver.upwind_betas` call.
    """
    beta = traj.problem.mobility.beta
    n, n_particles = traj.positions.shape
    r, r_star = np.empty(n), np.empty(n)
    # the widest temporary is the padded row of n_particles + 1 betas
    for rows in row_blocks(n, n_particles + 1):
        x = traj.positions[rows]
        betas = upwind_betas(x, traj.h, beta,
                             np.zeros((len(x), n_particles + 1)))
        f = force_rows(x, traj.h, traj.problem.potentials)
        r[rows] = _dissipations(*betas, traj.velocities[rows])
        r_star[rows] = _dual_dissipations(*betas, -f)
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


def edb_series(traj: Trajectory):
    """Arrays (times, F, R, R*, D = 2 R*, running balance defect)."""
    times = traj.times
    r, r_star = _rate_series(traj)
    pots = traj.problem.potentials
    energies = _energies(traj, traj.positions.shape[1] ** 2, free_energy,
                         _free_energy, lambda k: (traj.state_at(k), pots))
    partial = cumulative_simpson(r + r_star, times)
    defect = partial + energies - energies[0]
    return times, energies, r, r_star, 2.0 * r_star, defect


# ---------------------------------------------------------------------------
# Reconstructed-profile functionals
# ---------------------------------------------------------------------------

def reconstructed_energy(edges: np.ndarray, densities: np.ndarray,
                         potentials: Potentials, mass_per_cell: float) -> float:
    """Energy of the piecewise-constant profile: exact density integral of
    V plus cell-averaged interaction, own-cell term excluded."""
    return _reconstructed_energy(edges, densities, potentials, mass_per_cell)


def _reconstructed_energy(edges, densities, potentials, h) -> float:
    # reconstructed_energy, untraced for the worker of _energies
    edges = np.asarray(edges, dtype=float)
    densities = np.asarray(densities, dtype=float)
    nodes, weights = cell_gauss(edges)
    total = float(np.sum(densities[:, None] * weights
                         * potentials.external.v(nodes)))
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


def gradient_records(traj: Trajectory) -> dict:
    """The ``variational.csv`` table: :func:`edb_series` and the
    reconstructed energy of the run's fields at every stored time."""
    times, energies, r, r_star, d, defect = edb_series(traj)
    fields, pots, h = traj.fields, traj.problem.potentials, traj.h
    # cell_pair_sum pairs the 4 Gauss nodes of each cell, or the midpoints
    n = fields.n_cells * (4 if _is_dense(pots.interaction) else 1)
    fhat = _energies(traj, n * n, reconstructed_energy, _reconstructed_energy,
                     lambda k: (fields.edges[k], fields.densities[k], pots, h))
    return {"t": times, "F_h": energies, "Fhat_h": fhat, "R_h": r,
            "R_h_star": r_star, "D_h": d, "edb_partial": defect}


def write_gradient_csv(table: dict, path) -> None:
    """The :func:`gradient_records` table as CSV."""
    write_table(path, table)
