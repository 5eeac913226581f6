"""Deterministic particle and finite-volume solvers for 1D nonlocal
transport equations with nonlinear (capped) mobility, plus the discrete
gradient-flow diagnostics that certify a run: energy-dissipation balance,
entropy residuals, BV/Wasserstein bounds and cross-validation against an
independent reference scheme."""

from .diagnostics import (BumpTestFunction, diagnostics_records,
                          entropy_report, entropy_residual, h1_proxy,
                          standard_bump_grid, total_variation, w1_distance)
from .forces import continuum_force, particle_forces
from .fv import (FvGrid, fv_solve, fv_step, l1_compare, l1_distance, make_grid,
                 riemann_exact)
from .model import (InitialDensity, InteractionPotential, InvalidProblem,
                    Mobility, Potentials, Problem, ValidationIssue,
                    check_problem, external_potential, linear_potential,
                    morse, newtonian, no_interaction, parabolic_bump,
                    piecewise_constant_density, power_cap_mobility,
                    quadratic_potential, regular_interaction,
                    tabulated_mobility, uniform_density, validate,
                    zero_potential)
from .quantile import ParticleState, quantile_partition
from .reconstruct import (ReconstructedFields, continuity_residual,
                          write_snapshots_csv)
from .solver import (CellBoundReport, NonFiniteState, StepUnderflow,
                     Trajectory, UnorderedState, check_cell_bounds,
                     default_dt, forces_for, integrate, rhs)
from .variational import (continuous_dual_dissipation, dissipation,
                          dissipation_rate, dual_dissipation, edb_residual,
                          edb_series, free_energy, gradient_records,
                          reconstructed_energy)

__version__ = "0.1.0"
