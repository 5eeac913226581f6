import numpy as np
import pytest

import partmob as pm
from partmob.fv import (CflViolation, NonConcaveFlux, WindowExceeded, fv_step,
                        l1_compare_exact, l1_distance, make_grid)


def reduction_problem_with(initial):
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.linear_potential(-1.0),
                                    pm.no_interaction()), initial)


def test_grid_projection_conserves_mass():
    p = reduction_problem_with(pm.parabolic_bump())
    grid = make_grid(p, (-2.0, 2.0), 0.01)
    assert grid.mass() == pytest.approx(1.0, rel=1e-12)


def test_zero_force_is_static():
    p = pm.Problem(pm.power_cap_mobility(1.0),
                   pm.Potentials(pm.zero_potential(), pm.no_interaction()),
                   pm.parabolic_bump())
    grid = make_grid(p, (-2.0, 2.0), 0.02)
    stepped = fv_step(grid, p, 1e-3)
    assert np.array_equal(stepped.rho, grid.rho)


def test_capped_plateau_is_static():
    # cells at the cap have zero flux mobility: one step leaves the
    # interior of the plateau untouched
    p = reduction_problem_with(
        pm.piecewise_constant_density([-1.0, 1.0], [1.0]))
    grid = make_grid(p, (-2.0, 2.0), 0.05)
    stepped = fv_step(grid, p, 1e-3)
    plateau = (grid.centers > -0.9) & (grid.centers < 0.9)
    assert np.allclose(stepped.rho[plateau], 1.0, atol=1e-14)


def test_mass_conserved_per_step():
    p = reduction_problem_with(pm.parabolic_bump())
    grid = make_grid(p, (-2.0, 2.0), 0.01)
    for _ in range(20):
        new = fv_step(grid, p, 2e-3)
        assert new.mass() == pytest.approx(grid.mass(), rel=1e-12)
        grid = new


def test_cfl_violation_raised():
    p = reduction_problem_with(pm.parabolic_bump())
    grid = make_grid(p, (-2.0, 2.0), 0.01)
    with pytest.raises(CflViolation):
        fv_step(grid, p, 0.5)


def test_maximum_principle_under_cfl():
    p = reduction_problem_with(pm.parabolic_bump(0.9, 0.0, 1.0))
    grid, fields = pm.fv_solve(p, (-2.0, 2.0), 0.005, 0.5,
                               store_times=np.linspace(0, 0.5, 11))
    # Eulerian snapshots: the grid's edges at every time, no edge velocity
    assert all(np.array_equal(e, grid.edges) for e in fields.edges)
    assert not fields.edge_velocities.any()
    assert np.all(fields.densities >= -1e-14)
    assert np.all(fields.densities <= max(0.9, 1.0) + 1e-12)


def test_stationary_shock_location():
    # equal flux on both sides: the jump must not move
    p = reduction_problem_with(
        pm.piecewise_constant_density([-1.0, 0.0, 1.0], [0.2, 0.8]))
    grid, _ = pm.fv_solve(p, (-1.0, 1.0), 1.0 / 400, 0.25, boundary="outflow")
    exact = pm.riemann_exact(p.mobility, 0.2, 0.8, grid.centers / 0.25)
    assert l1_compare_exact(grid, lambda x: pm.riemann_exact(
        p.mobility, 0.2, 0.8, x / 0.25)) <= 0.01
    mid = np.searchsorted(grid.centers, 0.0)
    assert np.allclose(grid.rho[:mid - 10], 0.2, atol=1e-6)
    assert np.allclose(grid.rho[mid + 10:], 0.8, atol=1e-6)
    assert np.allclose(exact[:mid - 1], 0.2)


def test_riemann_exact_cases():
    mob = pm.power_cap_mobility(1.0)
    xi = np.linspace(-1.0, 1.0, 9)
    assert np.allclose(pm.riemann_exact(mob, 0.4, 0.4, xi), 0.4)
    # stationary shock: chord slope vanishes for symmetric states
    vals = pm.riemann_exact(mob, 0.2, 0.8, np.array([-0.01, 0.01]))
    assert np.allclose(vals, [0.2, 0.8])
    # fan inverts theta' between the edge speeds
    fan = pm.riemann_exact(mob, 0.8, 0.2, xi)
    expected = np.clip((1.0 - xi) / 2.0, 0.2, 0.8)
    assert np.allclose(fan, expected, atol=1e-10)


def test_riemann_rejects_non_concave():
    # steep initial drop then a near-plateau: theta' jumps upward at the
    # first table kink, so theta is not concave
    mob = pm.tabulated_mobility([0.0, 0.2, 0.8, 1.0], [1.0, 0.2, 0.15, 0.0])
    with pytest.raises(NonConcaveFlux):
        pm.riemann_exact(mob, 0.2, 0.8, np.array([0.0]))


def test_fv_first_order_convergence():
    mob = pm.power_cap_mobility(1.0)
    for rl, rr in ((0.2, 0.8), (0.8, 0.2)):
        errs = []
        for nx in (250, 500):
            p = reduction_problem_with(
                pm.piecewise_constant_density([-1.0, 0.0, 1.0], [rl, rr]))
            grid, _ = pm.fv_solve(p, (-1.0, 1.0), 1.0 / nx, 0.25,
                                  boundary="outflow")
            errs.append(l1_compare_exact(
                grid, lambda x: pm.riemann_exact(mob, rl, rr, x / 0.25)))
        assert 1.6 <= errs[0] / errs[1] <= 2.4


def test_l1_distance_cases():
    edges = np.array([0.0, 1.0])
    assert l1_distance(edges, [1.0], edges, [1.0]) == 0.0
    # two disjoint unit masses
    assert l1_distance(np.array([0.0, 1.0]), [1.0],
                       np.array([2.0, 3.0]), [1.0]) == pytest.approx(2.0)
    assert l1_distance(np.array([0.0, 2.0]), [0.5],
                       np.array([0.0, 1.0]), [1.0]) == pytest.approx(1.0)


def test_l1_compare_window_mismatch():
    particle_side = pm.ReconstructedFields(np.array([0.0]),
                                 np.array([[-1.0, 0.0, 1.0]]),
                                 np.array([[0.5, 0.5]]),
                                 np.zeros((1, 3)), mass=1.0)
    narrow = pm.ReconstructedFields(np.array([0.0]),
                                    np.linspace(0.0, 0.5, 6)[None, :],
                                    np.full((1, 5), 0.2), np.zeros((1, 6)),
                                    mass=0.1)
    # a numerical failure (exit 3 in the CLI), still a ValueError
    with pytest.raises(WindowExceeded, match="window mismatch"):
        pm.l1_compare(particle_side, narrow, 0.0)


def test_particle_fv_agreement_improves_with_n(reduction_problem):
    p = reduction_problem
    _, fv_fields = pm.fv_solve(p, (-2.0, 2.0), 2e-3, 0.5, store_times=[0.5])
    errs = []
    for n in (100, 200, 400):
        s = pm.quantile_partition(p.initial, n)
        traj = pm.integrate(s, p, 0.5, store_every=100)
        fields = traj.fields
        errs.append(pm.l1_compare(fields, fv_fields, 0.5))
    assert errs[0] > errs[1] > errs[2]
