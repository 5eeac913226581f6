"""The energy-balance series, the norm diagnostics and the velocity closure
work on whole blocks of stored times; every value must equal, bit for bit,
the per-state formulas below called in a loop (the formulas the package
used before it worked on blocks)."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob import diagnostics as diag
from partmob import forces
from partmob import variational as var
from partmob.cli import build_problem, parse_config
from partmob.forces import force_rows
from partmob.model import edge_masses
from partmob.quantile import row_densities
from partmob.solver import Trajectory, upwind_betas, velocity_field

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg")) \
    + [ROOT / "perfbench" / "configs" / "morse.cfg"]


# -- per-state reference formulas ------------------------------------------

def ref_betas(rho, mobility):
    beta = mobility.beta(np.concatenate([[0.0], rho, [0.0]]))
    return beta[:-1], beta[1:]


def ref_forces(x, h, problem):
    w = problem.potentials.interaction
    if not (w.is_zero or w.is_newtonian):
        return pm.particle_forces(pm.ParticleState(x, h=h),
                                  problem.potentials)
    n = len(x) - 1
    f = np.array(problem.potentials.external.dv(x), dtype=float, copy=True)
    if w.newtonian_sign:
        f += w.newtonian_sign * h * (2.0 * np.arange(n + 1, dtype=float) - n)
    return f


def ref_velocity(x, h, problem):
    bl, br = ref_betas(h / np.diff(x), problem.mobility)
    f = ref_forces(x, h, problem)
    return -br * np.minimum(f, 0.0) - bl * np.maximum(f, 0.0)


def ref_dual(rho, mobility, zeta):
    bl, br = ref_betas(rho, mobility)
    zp, zm = np.maximum(zeta, 0.0), np.minimum(zeta, 0.0)
    return 0.5 * float(np.sum(bl * zm**2 + br * zp**2))


def ref_dissipation(rho, mobility, flux):
    bl, br = ref_betas(rho, mobility)
    jp, jm = np.maximum(flux, 0.0), np.minimum(flux, 0.0)
    if np.any((jp > 0) & (br == 0.0)) or np.any((jm < 0) & (bl == 0.0)):
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(jm < 0, jm**2 / bl, 0.0) \
            + np.where(jp > 0, jp**2 / br, 0.0)
    return 0.5 * float(np.sum(terms))


def ref_decay(rho, mobility, f):
    bl, br = ref_betas(rho, mobility)
    fp, fm = np.maximum(f, 0.0), np.minimum(f, 0.0)
    return float(np.sum(br * fm**2 + bl * fp**2))


def ref_rates(traj):
    mob = traj.problem.mobility
    r, r_star, d = [], [], []
    for x, v in zip(traj.positions, traj.velocities):
        rho = traj.h / np.diff(x)
        f = ref_forces(x, traj.h, traj.problem)
        r.append(ref_dissipation(rho, mob, v))
        r_star.append(ref_dual(rho, mob, -f))
        d.append(ref_decay(rho, mob, f))
    return np.array(r), np.array(r_star), np.array(d)


def ref_tv(rho):
    return float(rho[0] + np.sum(np.abs(np.diff(rho))) + rho[-1])


def ref_h1(edges, rho):
    xs = np.concatenate([[edges[0]], 0.5 * (edges[:-1] + edges[1:]),
                         [edges[-1]]])
    vals = np.concatenate([[0.0], rho, [0.0]])
    dx = np.diff(xs)
    va, vb = vals[:-1], vals[1:]
    sq = np.sum(dx * (va**2 + va * vb + vb**2) / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dsq = np.sum(np.where(dx > 0, (vb - va) ** 2 / dx, 0.0))
    return float(np.sqrt(sq) + np.sqrt(dsq))


def ref_mass(edges, rho):
    return float(np.sum(rho * np.diff(edges)))


def ref_w1(fields, k):
    # W1 from the initial profile, both cumulative-mass rows built alone
    at = [(fields.edges[i], edge_masses(fields.edges[i], fields.densities[i]))
          for i in (0, k)]
    return diag._w1_between(*at[0], *at[1], fields.mass)


def ref_rk4(x, h, problem, t_end, n_steps):
    dt = t_end / n_steps
    states, vels = [x], [ref_velocity(x, h, problem)]
    for _ in range(n_steps):
        k1 = ref_velocity(x, h, problem)
        k2 = ref_velocity(x + 0.5 * dt * k1, h, problem)
        k3 = ref_velocity(x + 0.5 * dt * k2, h, problem)
        k4 = ref_velocity(x + dt * k3, h, problem)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
        vels.append(ref_velocity(x, h, problem))
    return np.array(states), np.array(vels)


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


# -- shared checks ----------------------------------------------------------

def assert_series_match_loops(traj):
    r, r_star = var._rate_series(traj)
    ref = ref_rates(traj)
    assert bit_equal(r, ref[0])
    assert bit_equal(r_star, ref[1])
    assert bit_equal(2.0 * r_star, ref[2])
    # one stored time alone is the one-row case of the same code
    mob = traj.problem.mobility
    for k in (0, len(traj.times) // 2, len(traj.times) - 1):
        state = traj.state_at(k)
        f = pm.forces_for(state, traj.problem)
        assert bit_equal(f, ref_forces(state.positions, traj.h, traj.problem))
        betas = upwind_betas(row_densities(state.positions, traj.h), mob)
        assert var._dissipations(*betas, traj.velocities[k]) == ref[0][k]
        assert var._dual_dissipations(*betas, -f) == ref[1][k]


def assert_norms_match_loops(traj):
    fields = traj.fields
    problem = traj.problem
    table = diag.diagnostics_records(fields, problem)
    h = fields.mass / fields.n_cells
    expected = []
    for k, t in enumerate(fields.times):
        edges, rho = fields.edges[k], fields.densities[k]
        mass, tv = ref_mass(edges, rho), ref_tv(rho)
        expected.append((
            float(t), mass, mass + tv, tv, ref_h1(edges, rho),
            ref_w1(fields, k),
            float(edges[-1] - edges[0]), float(np.max(rho)),
            float(np.min(np.diff(edges)) * problem.M / h)))
        assert diag.total_variation(rho) == tv
        assert diag.h1_proxy(edges, rho) == expected[-1][4]
        assert fields.masses()[k] == mass
    assert bit_equal(list(zip(*table.values())), expected)
    assert bit_equal(fields.masses(), [r[1] for r in expected])
    assert bit_equal(diag.bv_norms(fields), [r[2] for r in expected])


BLOCK_BUDGETS = [None, 1, 1000]   # default, one-row blocks, ragged blocks


@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_blocks_match_per_state_loops(config, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(forces, "BLOCK_ELEMENTS", budget)
    problem = build_problem(parse_config(config))
    state = pm.quantile_partition(problem.initial, 30)
    traj = pm.integrate(state, problem, 0.1, dt=1e-3)
    states, vels = ref_rk4(state.positions, state.h, problem, 0.1, 100)
    assert bit_equal(traj.positions, states)
    assert bit_equal(traj.velocities, vels)
    assert_series_match_loops(traj)
    assert_norms_match_loops(traj)
    r, r_star, _ = ref_rates(traj)
    pots = problem.potentials
    expected = var._balance_defect(
        traj.times, r, r_star, var.free_energy(traj.state_at(0), pots),
        var.free_energy(traj.state_at(len(traj.times) - 1), pots))
    assert var.edb_residual(traj) == expected


def test_rk45_series_match_per_state_loops(attractive_problem):
    state = pm.quantile_partition(attractive_problem.initial, 30)
    traj = pm.integrate(state, attractive_problem, 0.2, scheme="rk45",
                        tol=1e-6)
    assert len(np.unique(np.diff(traj.times))) > 1
    assert_series_match_loops(traj)
    assert_norms_match_loops(traj)


@pytest.mark.parametrize("budget", BLOCK_BUDGETS)
def test_flux_against_vanished_beta_is_infinite(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(forces, "BLOCK_ELEMENTS", budget)
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         pm.Potentials(pm.zero_potential(),
                                       pm.newtonian(True)),
                         pm.uniform_density(0.0, 0.5, 0.6))
    # the first cell is at the cap (density 1, beta 0)
    x = np.array([0.0, 0.1, 0.3, 0.5])
    flux = np.array([[0.0, 0.0, -1.0, 1.0],    # feasible
                     [1.0, 0.0, 0.0, 0.0],     # pushes into the capped cell
                     [0.0, -1.0, 0.0, 0.0],    # pulls out of it from the right
                     [-0.0, 0.0, 0.5, -0.5],
                     [1e-200, 0.0, 0.0, 0.0]])  # its square underflows
    traj = Trajectory(np.arange(5.0), np.tile(x, (5, 1)), flux, h=0.1,
                      problem=problem)
    r, _ = var._rate_series(traj)
    assert np.all(np.isinf(r[[1, 2, 4]]))
    assert np.all(np.isfinite(r[[0, 3]]))
    assert_series_match_loops(traj)


SIGNED_ZERO_CASES = {
    # zero force: every velocity is -beta * 0.0 - beta * 0.0 = -0.0
    "zero": (pm.zero_potential(), pm.no_interaction()),
    # even N: the middle rank term is -h * 0.0 = -0.0, and 0.0 + (-0.0)
    # must leave +0.0 in the force
    "repulsive": (pm.zero_potential(), pm.newtonian(False)),
    "attractive": (pm.zero_potential(), pm.newtonian(True)),
    "confined": (pm.quadratic_potential(1.0), pm.newtonian(False)),
    "linear_zero_kernel": (pm.linear_potential(-0.0), pm.no_interaction()),
    "morse": (pm.zero_potential(), pm.morse(1.0, 1.0, 0.5, 0.3)),
}


@pytest.mark.parametrize("case", sorted(SIGNED_ZERO_CASES))
def test_velocity_closure_matches_formula(case):
    external, interaction = SIGNED_ZERO_CASES[case]
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         pm.Potentials(external, interaction),
                         pm.parabolic_bump())
    h = 0.125
    velocity = velocity_field(problem, h)
    rng = np.random.default_rng(3)
    states = [np.linspace(-1.0, 1.0, 9),
              np.array([-1.0, -0.5, -0.25, -0.0, 1e-3, 0.2, 0.4,
                        0.7, 1.0]),
              np.sort(rng.uniform(-1.0, 1.0, 9))]
    for x in states:
        expected = ref_velocity(x, h, problem)
        # a closure is reused across calls: evaluate twice
        assert bit_equal(velocity(x), expected)
        assert bit_equal(velocity(x), expected)
        assert bit_equal(velocity_field(problem, h)(x), expected)
        assert bit_equal(pm.forces_for(pm.ParticleState(x, h=h),
                                       problem),
                         ref_forces(x, h, problem))
    if case == "zero":
        assert np.all(np.signbit(velocity(states[0])))
    if case == "repulsive":
        state = pm.ParticleState(states[0], h=h)
        assert not np.signbit(pm.forces_for(state, problem)[4])
    blocked = force_rows(np.array(states), h, problem.potentials)
    assert bit_equal(blocked, [ref_forces(x, h, problem) for x in states])


def test_rank_term_is_built_once_and_read_only():
    term = forces.rank_term(-1, 0.125, 9)
    assert forces.rank_term(-1, 0.125, 9) is term
    with pytest.raises(ValueError):
        term += 1.0


# -- random problems ---------------------------------------------------------

@st.composite
def random_problems(draw):
    n_samples = draw(st.integers(min_value=2, max_value=5))
    cap = draw(st.floats(min_value=0.5, max_value=2.0))
    samples = np.linspace(0.0, cap, n_samples)
    drops = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                          min_size=n_samples - 1, max_size=n_samples - 1))
    values = np.concatenate([[0.0], np.cumsum(drops)])[::-1]
    values = values / values[0] * draw(st.floats(min_value=0.5,
                                                 max_value=2.0))
    mobility = pm.tabulated_mobility(samples, values)

    external = draw(st.sampled_from([
        pm.zero_potential(), pm.linear_potential(0.7),
        pm.linear_potential(-1.3), pm.quadratic_potential(1.5)]))
    interaction = draw(st.sampled_from([
        pm.no_interaction(), pm.newtonian(True), pm.newtonian(False)]))

    n_pieces = draw(st.integers(min_value=1, max_value=5))
    widths = draw(st.lists(st.floats(min_value=0.1, max_value=1.0),
                           min_size=n_pieces, max_size=n_pieces))
    heights = draw(st.lists(st.one_of(st.just(0.0),
                                      st.floats(min_value=0.05,
                                                max_value=0.9)),
                            min_size=n_pieces, max_size=n_pieces))
    # positive at both ends of the support, vacuum only in the interior
    heights[0] = max(heights[0], 0.3)
    heights[-1] = max(heights[-1], 0.3)
    heights = [min(v, 0.9) * cap for v in heights]
    breakpoints = np.concatenate([[-1.0], -1.0 + np.cumsum(widths)])
    initial = pm.piecewise_constant_density(breakpoints, heights)
    return pm.Problem(mobility, pm.Potentials(external, interaction), initial)


@given(random_problems(), st.integers(min_value=4, max_value=24))
@settings(max_examples=40, deadline=None)
def test_random_problems_series_and_ordering(problem, n_cells):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # interior vacuum warns
        state = pm.quantile_partition(problem.initial, n_cells)
    traj = pm.integrate(state, problem, 0.05, store_every=2)
    assert np.all(np.diff(traj.positions, axis=1) > 0.0)
    assert pm.check_cell_bounds(traj).lower_bound_ok
    assert_series_match_loops(traj)
    assert_norms_match_loops(traj)
