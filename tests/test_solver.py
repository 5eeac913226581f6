import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob import solver
from partmob.solver import StepUnderflow, _rk4_step, velocity_field


def upwind_oracle(positions, h, problem):
    # scalar re-derivation of the velocity rule, independent of the
    # vectorised production path
    positions = np.asarray(positions, dtype=float)
    n = len(positions) - 1
    rho = [h / (positions[i + 1] - positions[i]) for i in range(n)]
    beta = lambda s: float(problem.mobility.beta(s))
    f = pm.particle_forces(pm.ParticleState(positions, h=h),
                           problem.potentials)
    out = np.zeros(n + 1)
    for i in range(n + 1):
        left = rho[i - 1] if i - 1 >= 0 else 0.0
        right = rho[i] if i < n else 0.0
        fp, fm = max(f[i], 0.0), min(f[i], 0.0)
        out[i] = -beta(right) * fm - beta(left) * fp
    return out


def make_problem(external, interaction):
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(external, interaction),
                      pm.parabolic_bump())


def test_zero_field_is_static():
    p = make_problem(pm.zero_potential(), pm.no_interaction())
    s = pm.quantile_partition(p.initial, 10)
    assert np.all(velocity_field(p, s.h)(s.positions) == 0.0)
    traj = pm.integrate(s, p, 0.5, dt=0.05)
    assert np.allclose(traj.positions, traj.positions[0], atol=1e-15)


def test_capped_interior_is_frozen():
    # both neighbouring cells at the cap: the interior particle cannot move
    p = make_problem(pm.quadratic_potential(3.0), pm.no_interaction())
    s = pm.ParticleState([0.0, 1.0, 2.0], h=1.0)  # densities exactly 1
    v = velocity_field(p, s.h)(s.positions)
    assert v[1] == 0.0


def test_upwind_rule_matches_hand_example():
    p = make_problem(pm.quadratic_potential(1.0), pm.newtonian(False))
    s = pm.ParticleState([-1.0, 0.0, 1.0], h=1.0)
    v = velocity_field(p, s.h)(s.positions)
    assert np.allclose(v, [-1.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(v, upwind_oracle(s.positions, 1.0, p), atol=1e-14)


def test_single_cell_translation():
    # forces are constantly -1; only the right endpoint sees vacuum beta
    p = pm.Problem(pm.power_cap_mobility(1.0),
                   pm.Potentials(pm.linear_potential(-1.0),
                                 pm.no_interaction()),
                   pm.uniform_density(0.0, 1.0, 1.0))
    s = pm.ParticleState([0.0, 1.0], h=1.0)
    v = velocity_field(p, s.h)(s.positions)
    assert np.allclose(v, [0.0, 1.0], atol=1e-14)
    assert np.allclose(v, upwind_oracle(s.positions, 1.0, p), atol=1e-14)


def test_oracle_agrees_on_random_states(attractive_problem):
    rng = np.random.default_rng(7)
    for _ in range(25):
        positions = np.sort(rng.uniform(-2, 2, 12))
        positions += np.arange(12) * 1e-3  # enforce distinctness
        h = 0.15
        assert np.allclose(velocity_field(attractive_problem, h)(positions),
                           upwind_oracle(positions, h, attractive_problem),
                           atol=1e-13)


def test_ordering_and_velocity_bound(attractive_problem, short_attractive_run):
    traj = short_attractive_run
    assert np.all(np.diff(traj.positions, axis=1) > 0.0)
    beta_max = attractive_problem.mobility.beta_max
    for k in range(len(traj.times)):
        f = pm.forces_for(traj.state_at(k), attractive_problem)
        assert np.max(np.abs(traj.velocities[k])) <= \
            beta_max * np.max(np.abs(f)) + 1e-13


def test_cell_lower_bound_report(attractive_problem, short_attractive_run):
    traj = short_attractive_run
    report = pm.check_cell_bounds(traj)
    assert report.lower_bound_ok
    assert report.max_width_ratio is None  # bump touches zero at the edges


def test_upper_bound_report_for_uniform_data():
    p = pm.Problem(pm.power_cap_mobility(1.0),
                   pm.Potentials(pm.zero_potential(), pm.no_interaction()),
                   pm.uniform_density(0.0, 1.0, 1.0))
    s = pm.quantile_partition(p.initial, 8)
    traj = pm.integrate(s, p, 0.3, dt=0.05)
    report = pm.check_cell_bounds(traj)
    assert report.min_width_ratio == pytest.approx(1.0)
    assert report.max_width_ratio == pytest.approx(1.0)
    assert report.max_width_ratio <= report.growth_bound * (1.0 + 1e-9)


@pytest.mark.parametrize("budget", [None, 1, 100])
def test_cell_bounds_match_whole_array_formulas(monkeypatch, budget):
    # widths reduced over blocks of stored times give the bits of the
    # whole stored-times x cells array, max(h / w) included
    if budget is not None:
        monkeypatch.setattr(pm.forces, "BLOCK_ELEMENTS", budget)
    p = pm.Problem(pm.power_cap_mobility(1.0),
                   pm.Potentials(pm.quadratic_potential(1.0),
                                 pm.newtonian(False)),
                   pm.uniform_density(-0.5, 0.5, 0.8))
    s = pm.quantile_partition(p.initial, 16)
    traj = pm.integrate(s, p, 0.2, dt=0.01)
    widths = np.diff(traj.positions, axis=1)
    report = pm.check_cell_bounds(traj)
    assert report.min_width_ratio == float(np.min(widths) * p.M / traj.h)
    assert report.max_width_ratio == float(
        np.max(widths) * p.initial.lower_bound / traj.h)
    assert report.max_density == float(np.max(traj.h / widths))


def test_fields_are_lazy_and_share_the_run_arrays(attractive_problem):
    s = pm.quantile_partition(attractive_problem.initial, 20)
    traj = pm.integrate(s, attractive_problem, 0.05, dt=1e-3)
    assert "fields" not in vars(traj)
    pm.edb_residual(traj)
    assert "fields" not in vars(traj)
    fields = traj.fields
    assert fields is traj.fields
    assert fields.times is traj.times
    assert fields.edges is traj.positions
    assert fields.edge_velocities is traj.velocities
    assert np.array_equal(fields.densities,
                          traj.h / np.diff(traj.positions, axis=1))
    assert fields.mass == traj.h * traj.n_cells


def test_rk4_step_count_and_storage(attractive_problem):
    s = pm.quantile_partition(attractive_problem.initial, 20)
    traj = pm.integrate(s, attractive_problem, 0.1, dt=1e-2, store_every=5)
    assert np.allclose(traj.times, [0.0, 0.05, 0.1])


@pytest.mark.parametrize("store_every", [1, 3, 4, 10, 11, 25])
def test_rk4_storage_keeps_last_step(attractive_problem, store_every):
    # 10 steps: every store_every-th step is kept, and the last one always
    s = pm.quantile_partition(attractive_problem.initial, 12)
    every = pm.integrate(s, attractive_problem, 0.1, dt=1e-2)
    traj = pm.integrate(s, attractive_problem, 0.1, dt=1e-2,
                        store_every=store_every)
    kept = sorted({0, 10} | set(range(store_every, 11, store_every)))
    assert len(traj.times) == len(kept)
    assert traj.positions.shape == traj.velocities.shape == (len(kept), 13)
    assert np.array_equal(traj.times, every.times[kept])
    assert np.array_equal(traj.positions, every.positions[kept])
    assert np.array_equal(traj.velocities, every.velocities[kept])
    assert traj.times[-1] == pytest.approx(0.1)


def test_store_every_validated(attractive_problem):
    s = pm.quantile_partition(attractive_problem.initial, 10)
    with pytest.raises(ValueError, match="store_every"):
        pm.integrate(s, attractive_problem, 0.1, dt=0.01, store_every=0)


@pytest.mark.parametrize("t_end, dt, named", [
    (np.inf, 0.01, "t_end"), (np.nan, 0.01, "t_end"), (0.0, 0.01, "t_end"),
    (0.1, 0.0, "dt"), (0.1, -1e-3, "dt"), (0.1, np.inf, "dt"),
    (0.1, np.nan, "dt"),
    (0.1, 1e-320, "dt"),    # t_end / dt overflows
])
def test_horizon_and_step_validated(attractive_problem, t_end, dt, named):
    s = pm.quantile_partition(attractive_problem.initial, 10)
    with pytest.raises(ValueError, match=named):
        pm.integrate(s, attractive_problem, t_end, dt=dt)


def test_overflowing_force_bound_leaves_no_default_step():
    # beta_max * max|f| = 1e200 * 1e200 is inf: the step would be 0.0
    p = pm.Problem(pm.power_cap_mobility(1e200),
                   pm.Potentials(pm.linear_potential(1e200),
                                 pm.no_interaction()),
                   pm.parabolic_bump())
    s = pm.quantile_partition(p.initial, 10)
    with pytest.raises(pm.NonFiniteState, match="force bound"):
        pm.default_dt(s, p)


def test_rk45_reaches_end(attractive_problem):
    s = pm.quantile_partition(attractive_problem.initial, 20)
    traj = pm.integrate(s, attractive_problem, 0.2, scheme="rk45", tol=1e-9)
    assert traj.times[-1] == pytest.approx(0.2)
    ref = pm.integrate(s, attractive_problem, 0.2, dt=1e-3)
    assert np.allclose(traj.positions[-1], ref.positions[-1], atol=1e-6)


def test_rk45_tolerance_validated(attractive_problem):
    s = pm.quantile_partition(attractive_problem.initial, 10)
    with pytest.raises(ValueError):
        pm.integrate(s, attractive_problem, 0.1, scheme="rk45", tol=1.0)


def test_integrator_order_on_energy_balance(attractive_problem):
    # fourth-order scheme: the balance defect should drop ~16x per halving
    p = attractive_problem
    s = pm.quantile_partition(p.initial, 30)
    residuals = [pm.edb_residual(pm.integrate(s, p, 0.5, dt=dt))
                 for dt in (4e-3, 2e-3, 1e-3)]
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert np.all(orders >= 3.5)


def test_support_growth_is_bounded(repulsive_free_problem):
    p = repulsive_free_problem
    s = pm.quantile_partition(p.initial, 30)
    traj = pm.integrate(s, p, 1.0, dt=2e-3)
    x0 = traj.positions[:, 0]
    xn = traj.positions[:, -1]
    j = x0**2 + (xn - x0)**2 + xn**2
    # fit the growth envelope on the first half, check it on the second
    t = traj.times
    c1 = 2.0 * p.mobility.beta_max * max(1.0, p.c_force)
    envelope = (j[0] + c1 * t) * np.exp(c1 * t)
    assert np.all(j <= envelope + 1e-9)


def test_step_underflow_reports_cell():
    # colliding velocities on a hair-thin cell: halving cannot restore
    # ordering before the minimum step, so the stepper must give up
    from partmob.solver import _advance

    def colliding(x):
        return np.array([1.0, -1.0])

    stats = {"halvings": 0}
    with pytest.raises(StepUnderflow, match="cell 0"):
        _advance(np.array([0.0, 1e-6]), 1.0, colliding, min_dt=1e-3,
                 t_now=0.0, stats=stats)
    # dt = 1, 1/2, ..., 2^-8 were halved; 2^-9 / 2 is below min_dt
    assert stats["halvings"] == 9


def test_disordered_initial_state_rejected(attractive_problem):
    s = pm.ParticleState([1.0, 0.0], h=1.0)
    with pytest.raises(ValueError):
        pm.integrate(s, attractive_problem, 0.1, dt=0.01)
    # a numerical failure, not bad input: the CLI maps it to exit code 3
    with pytest.raises(pm.UnorderedState, match="strictly ordered"):
        velocity_field(attractive_problem, s.h)(s.positions)
    assert issubclass(pm.UnorderedState, ValueError)


# -- the stage loop against its plain expressions, bit for bit -------------

def plain_velocity(problem, h, m_beta=1.0):
    # velocity_field with one temporary per operation and the power-cap
    # beta with its ** 1.0
    def beta(s):
        return np.maximum(m_beta - np.abs(np.asarray(s, dtype=float)) ** 1.0,
                          0.0)

    def velocity(x):
        widths = x[1:] - x[:-1]
        padded = np.zeros(len(widths) + 2)
        padded[1:-1] = h / widths
        betas = beta(padded)
        beta_left, beta_right = betas[:-1], betas[1:]
        f = solver.forces_for(pm.ParticleState(x, h=h), problem)
        return -beta_right * np.minimum(f, 0.0) \
            - beta_left * np.maximum(f, 0.0)

    return velocity


def plain_rk4_step(x, dt, velocity):
    k1 = velocity(x)
    k2 = velocity(x + 0.5 * dt * k1)
    k3 = velocity(x + 0.5 * dt * k2)
    k4 = velocity(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


def given_forces(values):
    # an external potential whose V' is the given per-particle array
    values = np.asarray(values, dtype=float)
    dv = lambda x: values.copy()
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.external_potential(dv, dv, dv, 0.0,
                                                          0.0),
                                    pm.no_interaction()),
                      pm.parabolic_bump())


# forces of both signs and both zeros; gaps of exactly h put a cell at the
# density cap 1, where beta = 0
FORCE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -2.5])
GAPS = st.one_of(st.just(0.5), st.floats(min_value=0.05, max_value=2.0))


@given(st.lists(st.tuples(FORCE_VALUES, GAPS), min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_velocity_keeps_the_bits_of_signed_zeros_and_capped_cells(pairs):
    f, gaps = map(list, zip(*pairs))
    x = np.concatenate([[0.0], np.cumsum(gaps[1:])])
    problem = given_forces(f)
    velocity = velocity_field(problem, 0.5)
    expected = plain_velocity(problem, 0.5)(x)
    assert same_bits(velocity(x), expected)
    assert same_bits(velocity(x), expected)   # the reused buffer


def test_velocity_zero_signs_at_the_cap():
    # both cells at the cap: the middle particle's (-0.0) * -1 - 0 * 0 is
    # +0.0, where the regrouped -(0 * -1 + 0 * 0) would be -0.0
    x = np.array([0.0, 0.5, 1.0])
    f = np.array([-0.0, -1.0, 0.0])
    problem = given_forces(f)
    v = velocity_field(problem, 0.5)(x)
    assert same_bits(v, plain_velocity(problem, 0.5)(x))
    betas = np.array([1.0, 0.0, 0.0, 1.0])
    regrouped = -(betas[1:] * np.minimum(f, 0.0)
                  + betas[:-1] * np.maximum(f, 0.0))
    assert v[1] == 0.0 and not np.signbit(v[1])
    assert np.signbit(regrouped[1])


@pytest.mark.parametrize("kernel", [pm.newtonian(True), pm.newtonian(False),
                                    pm.morse(1.0, 1.0, 0.5, 0.3),
                                    pm.no_interaction()])
@pytest.mark.parametrize("external", [pm.zero_potential(),
                                      pm.quadratic_potential(1.0),
                                      pm.linear_potential(-1.0)])
def test_rk4_step_keeps_the_bits(kernel, external):
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         pm.Potentials(external, kernel), pm.parabolic_bump())
    state = pm.quantile_partition(problem.initial, 60)
    x = state.positions.copy()
    velocity = velocity_field(problem, state.h)
    reference = plain_velocity(problem, state.h)
    for dt in (1e-3, 0.05):
        assert same_bits(velocity(x), reference(x))
        y = _rk4_step(x, dt, velocity)
        assert same_bits(y, plain_rk4_step(x, dt, reference))
        assert np.array_equal(x, state.positions)   # x is read only


def test_rk45_reuses_the_first_stage(attractive_problem, monkeypatch):
    calls = []
    real = solver.forces_for

    def counting(state, problem, pairs=None):
        calls.append(len(state.positions))
        return real(state, problem, pairs)

    monkeypatch.setattr(solver, "forces_for", counting)
    state = pm.quantile_partition(attractive_problem.initial, 50)
    traj = pm.integrate(state, attractive_problem, 0.2, scheme="rk45")
    # 7 attempts (5 accepted, 2 rejected) of six new stages each, plus
    # the velocity at the 6 stored states; k1 of an attempt is the stored
    # velocity or the rejected attempt's k1
    assert len(traj.times) == 6
    assert len(calls) == 7 * 6 + 6


def test_rk45_steps_do_not_depend_on_storage(attractive_problem):
    # a k1 evaluated afresh and one reused from a stored velocity are the
    # same bits, so storing every second step takes the same steps
    state = pm.quantile_partition(attractive_problem.initial, 50)
    every = pm.integrate(state, attractive_problem, 0.2, scheme="rk45")
    second = pm.integrate(state, attractive_problem, 0.2, scheme="rk45",
                          store_every=2)
    rows = [0, 2, 4, 5]
    assert np.array_equal(second.times, every.times[rows])
    assert np.array_equal(second.positions, every.positions[rows])
    assert np.array_equal(second.velocities, every.velocities[rows])
