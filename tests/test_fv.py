import numpy as np
import pytest

import partmob as pm
from partmob import fv as fvmod
from partmob.forces import continuum_force
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
    mids = 0.5 * (grid.edges[:-1] + grid.edges[1:])
    plateau = (mids > -0.9) & (mids < 0.9)
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
    mids = 0.5 * (grid.edges[:-1] + grid.edges[1:])
    exact = pm.riemann_exact(p.mobility, 0.2, 0.8, mids / 0.25)
    assert l1_compare_exact(grid, lambda x: pm.riemann_exact(
        p.mobility, 0.2, 0.8, x / 0.25)) <= 0.01
    mid = np.searchsorted(mids, 0.0)
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


# -- the solve loop against the step it replaced -----------------------------
# fv_solve computes the edges and the mobility's peak once per solve, the CFL
# bound once per step, and theta and theta' once on the ghost-padded row.
# The reference below rebuilds every one of them per use, as before.

def reference_solve(problem, window, dx, t_end, store_times, boundary,
                    cfl=0.45):
    mob = problem.mobility

    def force_of(grid):
        return continuum_force(grid.edges, grid.rho, grid.mass(),
                               problem.potentials, grid.edges)[0]

    def max_dt(grid, force):
        fmax = float(np.max(np.abs(force)))
        lip_force = float(np.max(np.abs(np.diff(force)))) / grid.dx
        theta_max = float(np.max(mob.theta(np.linspace(0.0, mob.cap, 257))))
        speed = fmax * mob.lip_theta + theta_max * lip_force
        return np.inf if speed <= 0 else cfl * grid.dx / speed

    def step(grid, dt, force):
        assert dt <= max_dt(grid, force) * (1.0 + 1e-12)
        rho = grid.rho
        ghosts = (0.0, 0.0) if boundary == "vacuum" else (rho[0], rho[-1])
        rho_l = np.concatenate([[ghosts[0]], rho])
        rho_r = np.concatenate([rho, [ghosts[1]]])
        g_l = -mob.theta(rho_l) * force
        g_r = -mob.theta(rho_r) * force
        alpha = np.abs(force) * np.maximum(np.abs(mob.dtheta(rho_l)),
                                           np.abs(mob.dtheta(rho_r)))
        flux = 0.5 * (g_l + g_r) - 0.5 * alpha * (rho_r - rho_l)
        new_rho = rho - dt / grid.dx * (flux[1:] - flux[:-1])
        return pm.FvGrid(grid.a, grid.b, new_rho, t=grid.t + dt)

    grid = make_grid(problem, window, dx)
    wanted = sorted({0.0, float(t_end)} | {float(t) for t in store_times})
    times, profiles = [grid.t], [grid.rho.copy()]
    next_i = 1
    while grid.t < t_end - 1e-14:
        force = force_of(grid)
        dt = min(max_dt(grid, force), t_end - grid.t)
        if next_i < len(wanted):
            dt = min(dt, wanted[next_i] - grid.t)
        grid = step(grid, dt, force)
        while next_i < len(wanted) and wanted[next_i] <= grid.t + 1e-12:
            times.append(grid.t)
            profiles.append(grid.rho.copy())
            next_i += 1
    return np.array(times), np.array(profiles)


@pytest.mark.parametrize("case", ["vacuum", "outflow", "attractive"])
def test_fv_solve_keeps_the_reference_bits(case, attractive_problem):
    if case == "outflow":
        problem = reduction_problem_with(
            pm.piecewise_constant_density([-1.0, 0.0, 1.0], [0.2, 0.8]))
        window = (-1.0, 1.0)
    else:
        problem = attractive_problem if case == "attractive" else \
            reduction_problem_with(pm.parabolic_bump(0.9, 0.0, 1.0))
        window = (-2.0, 2.0)
    boundary = "outflow" if case == "outflow" else "vacuum"
    store = np.linspace(0.0, 0.3, 7)
    _, fields = pm.fv_solve(problem, window, 0.01, 0.3, store_times=store,
                            boundary=boundary)
    times, profiles = reference_solve(problem, window, 0.01, 0.3, store,
                                      boundary)
    assert len(times) == 7
    assert fields.times.tobytes() == times.tobytes()
    assert fields.densities.tobytes() == profiles.tobytes()


def test_fv_solve_steps_through_fv_step(monkeypatch, reduction_problem):
    # one fv_step call per step with the grid first: the step count and the
    # cells per step are read off these calls
    steps = []
    real = fvmod.fv_step

    def recording(grid, *args, **kwargs):
        steps.append((grid, real(grid, *args, **kwargs)))
        return steps[-1][1]

    monkeypatch.setattr(fvmod, "fv_step", recording)
    grid, _ = pm.fv_solve(reduction_problem, (-2.0, 2.0), 0.01, 0.1)
    assert len(steps) > 1
    assert all(new is following for (_, new), (following, _)
               in zip(steps[:-1], steps[1:]))
    assert steps[-1][1] is grid


def test_cfl_violation_raised_against_a_given_bound():
    p = reduction_problem_with(pm.parabolic_bump())
    grid = make_grid(p, (-2.0, 2.0), 0.01)
    force = continuum_force(grid.edges, grid.rho, grid.mass(),
                            p.potentials, grid.edges)[0]
    with pytest.raises(CflViolation):
        fv_step(grid, p, 0.5, force=force)
    with pytest.raises(CflViolation):
        fv_step(grid, p, 2e-3, force=force, max_dt=1e-3)
