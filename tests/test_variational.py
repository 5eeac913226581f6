import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob import forces
from partmob.model import GAUSS_NODES, GAUSS_WEIGHTS, cell_gauss
from partmob.solver import upwind_betas
from partmob.variational import (_dissipations, _dual_dissipations,
                                 _rate_series, continuous_dual_dissipation,
                                 edb_series, free_energy,
                                 reconstructed_energy, records_residual)


def betas_of(state, mobility):
    # the upwind mobilities of one state, as the block functionals read them
    return upwind_betas(state.positions, state.h, mobility.beta,
                        np.zeros(len(state.positions) + 1))


def r_of(state, mobility, flux):
    return float(_dissipations(*betas_of(state, mobility), flux))


def r_star_of(state, mobility, zeta):
    return float(_dual_dissipations(*betas_of(state, mobility), zeta))


def quadratic_form_oracle(state, mobility, zeta):
    # independent scalar expansion of the dual dissipation
    rho = list(state.h / np.diff(state.positions))
    n = len(rho)
    beta = lambda s: float(mobility.beta(s))
    total = 0.0
    for i in range(n + 1):
        left = rho[i - 1] if i >= 1 else 0.0
        right = rho[i] if i < n else 0.0
        zp, zm = max(zeta[i], 0.0), min(zeta[i], 0.0)
        total += beta(left) * zm**2 + beta(right) * zp**2
    return 0.5 * total


def double_loop_energy(state, potentials):
    x = state.positions
    total = sum(float(potentials.external.v(xi)) for xi in x)
    for i in range(len(x)):
        for j in range(len(x)):
            if i != j:
                total += 0.5 * state.h * float(potentials.interaction.w(x[i] - x[j]))
    return total


def test_energy_trivial_cases():
    pots = pm.Potentials(pm.zero_potential(), pm.no_interaction())
    s = pm.ParticleState([0.0, 1.0, 2.0], h=1.0)
    assert free_energy(s, pots) == 0.0


def test_energy_external_index_ranges():
    pots = pm.Potentials(pm.linear_potential(1.0), pm.no_interaction())
    s = pm.ParticleState([0.0, 1.0, 2.0], h=1.0)
    assert free_energy(s, pots) == pytest.approx(3.0)


def test_energy_newtonian_pair_sum():
    pots = pm.Potentials(pm.zero_potential(), pm.newtonian(True))
    s = pm.ParticleState([0.0, 1.0, 2.0], h=1.0)
    assert free_energy(s, pots) == pytest.approx(4.0)
    assert free_energy(s, pots) == pytest.approx(double_loop_energy(s, pots))


def test_dual_dissipation_trivial_and_capped():
    mob = pm.power_cap_mobility(1.0)
    s = pm.ParticleState([0.0, 1.0, 2.0], h=1.0)   # densities at the cap
    assert r_star_of(s, mob, np.zeros(3)) == 0.0
    # interior-only potential: both neighbouring betas vanish
    assert r_star_of(s, mob, np.array([0.0, 5.0, 0.0])) == 0.0


def test_dual_dissipation_single_cell_value():
    mob = pm.power_cap_mobility(1.0)
    s = pm.ParticleState([0.0, 2.0], h=1.0)        # one cell, density 0.5
    zeta = np.array([1.0, -1.0])
    expected = quadratic_form_oracle(s, mob, zeta)
    assert expected == pytest.approx(0.5)
    assert r_star_of(s, mob, zeta) == pytest.approx(expected, abs=1e-15)


def test_dissipation_trivial_and_infeasible():
    mob = pm.power_cap_mobility(1.0)
    s = pm.ParticleState([0.0, 1.0, 2.0], h=1.0)   # cap densities
    assert r_of(s, mob, np.zeros(3)) == 0.0
    # pushing the interior particle right needs beta of its right cell
    assert r_of(s, mob, np.array([0.0, 1.0, 0.0])) == np.inf
    # outward motion of the endpoints is free of the cap
    assert np.isfinite(r_of(s, mob, np.array([-1.0, 0.0, 1.0])))


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3,
                max_size=6),
       st.lists(st.floats(min_value=0.1, max_value=1.5), min_size=2,
                max_size=5))
@settings(max_examples=120, deadline=None)
def test_fenchel_young_inequality(zeta_raw, gaps):
    n = min(len(zeta_raw) - 1, len(gaps))
    positions = np.concatenate([[0.0], np.cumsum(gaps[:n])])
    state = pm.ParticleState(positions, h=0.4)
    mob = pm.power_cap_mobility(1.0)
    zeta = np.asarray(zeta_raw[:n + 1])
    # duality: R(x, j) + R*(x, zeta) >= <zeta, j> for every flux j
    rng = np.random.default_rng(0)
    for _ in range(8):
        j = rng.uniform(-1.5, 1.5, n + 1)
        r = r_of(state, mob, j)
        if np.isfinite(r):
            assert r + r_star_of(state, mob, zeta) >= \
                float(np.dot(zeta, j)) - 1e-10
    # equality at the dual-optimal flux
    rho_ext = np.concatenate([[0.0], 0.4 / np.diff(state.positions), [0.0]])
    bl, br = mob.beta(rho_ext[:-1]), mob.beta(rho_ext[1:])
    j_opt = bl * np.minimum(zeta, 0.0) + br * np.maximum(zeta, 0.0)
    lhs = r_of(state, mob, j_opt) + r_star_of(state, mob, zeta)
    assert lhs == pytest.approx(float(np.dot(zeta, j_opt)), abs=1e-12)


def test_legendre_dual_by_grid_search():
    # brute-force the sup defining the dual on a small instance
    mob = pm.power_cap_mobility(1.0)
    state = pm.ParticleState([0.0, 0.8, 2.1], h=0.5)
    zeta = np.array([0.7, -1.1, 0.4])
    target = r_star_of(state, mob, zeta)
    grid = np.linspace(-3.0, 3.0, 61)
    flux = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    # R on the whole grid from the same upwind split, +inf where infeasible
    beta_left, beta_right = betas_of(state, mob)
    jp, jm = np.maximum(flux, 0.0), np.minimum(flux, 0.0)
    infeasible = np.any(((jp > 0) & (beta_right == 0.0))
                        | ((jm < 0) & (beta_left == 0.0)), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(jm < 0, jm**2 / beta_left, 0.0) \
            + np.where(jp > 0, jp**2 / beta_right, 0.0)
    r = np.where(infeasible, np.inf, 0.5 * terms.sum(axis=1))
    sample = np.random.default_rng(0).choice(len(flux), 100, replace=False)
    for k in sample:
        assert r[k] == r_of(state, mob, flux[k])
    best = float(np.max(flux @ zeta - r))
    assert best == pytest.approx(target, abs=5e-3)


def test_fenchel_young_equality_along_flow(short_attractive_run):
    r, r_star = _rate_series(short_attractive_run)
    assert np.all(np.abs(r - r_star) <= 1e-12 * (1.0 + r_star))


def test_decay_rate_equals_twice_dual(short_attractive_run,
                                      attractive_problem):
    # D = sum_i [beta(right_i)(f_i^-)^2 + beta(left_i)(f_i^+)^2] = 2 R*
    traj = short_attractive_run
    state = traj.state_at(5)
    f = pm.forces_for(state, attractive_problem)
    beta_left, beta_right = betas_of(state, attractive_problem.mobility)
    decay = np.sum(beta_right * np.minimum(f, 0.0)**2
                   + beta_left * np.maximum(f, 0.0)**2)
    _, _, _, _, d, _ = edb_series(traj)
    assert d[5] == pytest.approx(decay, rel=1e-14)
    assert d[5] == pytest.approx(
        2.0 * r_star_of(state, attractive_problem.mobility, -f),
        rel=1e-14)


def test_energy_balance_zero_fields():
    p = pm.Problem(pm.power_cap_mobility(1.0),
                   pm.Potentials(pm.zero_potential(), pm.no_interaction()),
                   pm.parabolic_bump())
    s = pm.quantile_partition(p.initial, 10)
    traj = pm.integrate(s, p, 0.2, dt=0.02)
    assert pm.edb_residual(traj) == 0.0


def test_energy_balance_order(short_attractive_run, attractive_problem):
    p = attractive_problem
    s = pm.quantile_partition(p.initial, 40)
    r_coarse = pm.edb_residual(pm.integrate(s, p, 0.2, dt=4e-3))
    r_fine = pm.edb_residual(pm.integrate(s, p, 0.2, dt=2e-3))
    assert r_coarse / r_fine >= 8.0


def test_records_residual_matches_edb_residual(short_attractive_run):
    traj = short_attractive_run
    table = pm.gradient_records(traj)
    assert records_residual(table) == pm.edb_residual(traj)
    _, _, _, _, d, _ = edb_series(traj)
    assert np.array_equal(d, [
        2.0 * r_star_of(traj.state_at(k), traj.problem.mobility,
                               -pm.forces_for(traj.state_at(k), traj.problem))
        for k in range(len(traj.times))])


def test_energy_monotone_along_flow(short_attractive_run):
    traj = short_attractive_run
    _, energies, *_ = edb_series(traj)
    assert np.all(np.diff(energies) <= 1e-8)


@st.composite
def small_flows(draw):
    """A random small particle problem: the |x| kernel of either sign,
    Morse or W = 0, a zero, linear or quadratic V, a random bump."""
    mobility = pm.power_cap_mobility(draw(st.floats(0.5, 2.0)),
                                     draw(st.sampled_from([1.0, 2.0])))
    external = draw(st.sampled_from(["zero", "linear", "quadratic"]))
    external = {"zero": pm.zero_potential,
                "linear": lambda: pm.linear_potential(draw(st.floats(-2, 2))),
                "quadratic": lambda: pm.quadratic_potential(
                    draw(st.floats(0.1, 2.0)))}[external]()
    kernel = draw(st.sampled_from(["attractive", "repulsive", "morse",
                                   "zero"]))
    interaction = {"attractive": lambda: pm.newtonian(True),
                   "repulsive": lambda: pm.newtonian(False),
                   "morse": lambda: pm.morse(*(draw(st.floats(0.2, 2.0))
                                               for _ in range(4))),
                   "zero": pm.no_interaction}[kernel]()
    initial = pm.parabolic_bump(draw(st.floats(0.1, 1.0)) * mobility.cap,
                                draw(st.floats(-0.5, 0.5)),
                                draw(st.floats(0.3, 2.0)))
    problem = pm.Problem(mobility, pm.Potentials(external, interaction),
                         initial)
    state = pm.quantile_partition(initial, draw(st.integers(2, 40)))
    return pm.integrate(state, problem, 0.1, store_every=5)


# The paper's discrete gradient-flow structure on random problems.  Over
# 1,500 draws of small_flows (t_end = 0.1, the default RK4 step) no step
# raised F_h: it fell, or stayed exactly equal when nothing moved.  The
# largest EDB residual was 3.0e-6 of F_h(0) - F_h(T).  The bounds below
# leave F_h its rounding and the residual a factor 10.
@given(small_flows())
@settings(max_examples=40, deadline=None)
def test_free_energy_dissipates_on_random_problems(traj):
    _, energies, *_ = edb_series(traj)
    scale = abs(energies[0]) + 1.0
    assert np.all(np.diff(energies) <= 1e-12 * scale)
    drop = energies[0] - energies[-1]
    assert pm.edb_residual(traj) <= 3e-5 * drop + 1e-12 * scale


# -- reconstructed-profile functionals --------------------------------------

def gauss_pair_oracle(a, b, c, d, w, n=120):
    # dense tensor midpoint rule for the cell-pair average of w(x - y)
    xs = np.linspace(a, b, n + 1)[:-1] + (b - a) / (2 * n)
    ys = np.linspace(c, d, n + 1)[:-1] + (d - c) / (2 * n)
    return float(np.mean(w(xs[:, None] - ys[None, :])))


def test_reconstructed_energy_trivial():
    pots = pm.Potentials(pm.zero_potential(), pm.no_interaction())
    edges = np.array([0.0, 1.0, 2.0])
    rho = np.array([1.0, 1.0])
    assert reconstructed_energy(edges, rho, pots, 1.0) == 0.0
    pots_const = pm.Potentials(
        pm.external_potential(lambda x: np.ones_like(np.asarray(x, float)),
                              lambda x: np.zeros_like(np.asarray(x, float)),
                              lambda x: np.zeros_like(np.asarray(x, float)),
                              0.0, 0.0), pm.no_interaction())
    assert reconstructed_energy(edges, rho, pots_const, 1.0) == \
        pytest.approx(2.0)   # integral of the density


def test_reconstructed_energy_two_cell_newtonian():
    pots = pm.Potentials(pm.zero_potential(), pm.newtonian(True))
    edges = np.array([0.0, 1.0, 2.0])
    rho = np.array([1.0, 1.0])
    value = reconstructed_energy(edges, rho, pots, 1.0)
    assert value == pytest.approx(1.0, abs=1e-12)
    oracle = gauss_pair_oracle(0.0, 1.0, 1.0, 2.0, pots.interaction.w)
    assert value == pytest.approx(0.5 * 2 * oracle, abs=1e-4)


def test_reconstructed_energy_morse_matches_quadrature():
    w = pm.morse(1.0, 0.7, 0.4, 0.25)
    pots = pm.Potentials(pm.zero_potential(), w)
    edges = np.array([0.0, 0.6, 1.5])
    rho = np.array([0.5, 1.0 / 3.0])
    h = 0.3
    direct = reconstructed_energy(edges, rho, pots, h)
    o01 = gauss_pair_oracle(0.0, 0.6, 0.6, 1.5, w.w, n=400)
    expected = 0.5 * h * h * 2 * o01
    assert direct == pytest.approx(expected, abs=1e-6)


def unblocked_pair_sum(edges, w):
    # every Gauss-node pair in one (N, 4, N, 4) array, reduced by one einsum
    # to the matrix of cell-pair means, summed with a zeroed diagonal
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = mids[:, None] + halves[:, None] * GAUSS_NODES[None, :]
    vals = w(nodes[:, :, None, None] - nodes[None, None, :, :])
    wts = GAUSS_WEIGHTS * 0.5
    means = np.einsum("a,b,iajb->ij", wts, wts, vals)
    np.fill_diagonal(means, 0.0)
    return float(np.sum(means))


@pytest.mark.parametrize("n_cells", [20, 100, 130])
@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_blocked_pair_means_match_unblocked(n_cells, one_row_blocks,
                                            monkeypatch):
    # 20 cells fit one block; 130 is not a multiple of the rows per block
    if one_row_blocks:
        monkeypatch.setattr(forces, "BLOCK_ELEMENTS", 1)
    kernel = pm.morse(1.0, 0.7, 0.4, 0.25)
    edges = np.cumsum(np.random.default_rng(n_cells).uniform(
        0.01, 0.1, n_cells + 1))
    assert forces.cell_pair_sum(edges, kernel) == \
        unblocked_pair_sum(edges, kernel.w)


def test_energy_consistency_under_refinement(attractive_problem):
    p = attractive_problem
    fitted = []
    for n in (25, 50, 100):
        s = pm.quantile_partition(p.initial, n)
        traj = pm.integrate(s, p, 0.2, dt=2e-3, store_every=20)
        fields = traj.fields
        worst = max(
            abs(reconstructed_energy(fields.edges[k], fields.densities[k],
                                     p.potentials, traj.h)
                - traj.h * free_energy(traj.state_at(k), p.potentials)) / traj.h
            for k in range(len(fields.times)))
        fitted.append(worst)
    assert max(fitted) / min(fitted) < 2.0


def test_continuous_dual_dissipation_cases():
    # capped profile: theta vanishes identically
    p = pm.Problem(pm.power_cap_mobility(1.0),
                   pm.Potentials(pm.linear_potential(1.0),
                                 pm.no_interaction()),
                   pm.uniform_density(0.0, 1.0, 1.0))
    edges = np.array([0.0, 0.5, 1.0])
    assert continuous_dual_dissipation(edges, np.array([1.0, 1.0]), p) == 0.0
    # uniform half-density, unit force
    val = continuous_dual_dissipation(edges, np.array([0.5, 0.5]), p)
    assert val == pytest.approx(0.125, abs=1e-14)
    # zero force
    p0 = pm.Problem(pm.power_cap_mobility(1.0),
                    pm.Potentials(pm.zero_potential(), pm.no_interaction()),
                    pm.uniform_density(0.0, 1.0, 1.0))
    assert continuous_dual_dissipation(edges, np.array([0.5, 0.5]), p0) == 0.0


def test_profile_dual_dissipation_close_to_particle_one(attractive_problem):
    # scaled particle functional dominates the profile functional up to O(h)
    p = attractive_problem
    slack = []
    for n in (50, 100):
        s = pm.quantile_partition(p.initial, n)
        traj = pm.integrate(s, p, 0.1, dt=2e-3, store_every=25)
        fields = traj.fields
        _, r_star = _rate_series(traj)
        worst = -np.inf
        for k in range(len(fields.times)):
            lhs = continuous_dual_dissipation(fields.edges[k],
                                              fields.densities[k], p,
                                              exclude_own_cell=True)
            worst = max(worst, (lhs - traj.h * r_star[k]) / traj.h)
        slack.append(worst)
    assert slack[1] <= max(2.0 * slack[0], 1.0)


def test_action_consistency_shrinks_with_h(attractive_problem):
    p = attractive_problem

    def phi(x):
        return np.exp(-x * x)

    gaps = []
    for n in (50, 100, 200):
        s = pm.quantile_partition(p.initial, n)
        traj = pm.integrate(s, p, 0.1, dt=2e-3, store_every=50)
        fields = traj.fields
        k = len(fields.times) - 1
        t = float(fields.times[k])
        state = traj.state_at(k)
        # continuous action: <phi, flux> - (1/2) int phi^2 theta(rho)
        edges, rho = fields.edges[k], fields.densities[k]
        xs = np.linspace(edges[0], edges[-1], 20001)
        theta_vals = p.mobility.theta(fields.density_at(t, xs))
        # <phi, flux>: Gauss per cell, velocity interpolated between edges
        nodes, weights = cell_gauss(edges)
        u = np.interp(nodes, edges, fields.edge_velocities[k])
        pair_cont = np.sum(rho[:, None] * weights * u * phi(nodes)) \
            - 0.5 * np.trapezoid(phi(xs)**2 * theta_vals, xs)
        xi = phi(state.positions)
        pair_disc = traj.h * (float(np.dot(xi, traj.velocities[k]))
                              - r_star_of(state, p.mobility, xi))
        gaps.append(abs(pair_cont - pair_disc))
    assert gaps[2] < gaps[0]
    assert gaps[2] <= 0.6 * gaps[0]


def dense_energies(x, h, potentials):
    # free_energy and reconstructed_energy of the |x| kernel from the
    # dense pair and cell-pair-mean matrices, diagonals zeroed
    w = potentials.interaction
    pair = w.w(x[:, None] - x[None, :])
    np.fill_diagonal(pair, 0.0)
    f_h = float(np.sum(potentials.external.v(x))) \
        + 0.5 * h * float(np.sum(pair))
    edges = x
    densities = h / np.diff(edges)
    nodes, weights = cell_gauss(edges)
    fhat = float(np.sum(densities[:, None] * weights
                        * potentials.external.v(nodes)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    means = w.newtonian_sign * np.abs(mids[:, None] - mids[None, :])
    np.fill_diagonal(means, 0.0)
    fhat += 0.5 * h * h * float(np.sum(means))
    return f_h, fhat


@given(st.lists(st.floats(min_value=1e-4, max_value=2.0), min_size=2,
                max_size=50),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=1e-3, max_value=1.0),
       st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_abs_kernel_energies_keep_their_bits(gaps, x0, h, attractive,
                                             confined):
    external = pm.quadratic_potential(1.0) if confined else pm.zero_potential()
    pots = pm.Potentials(external, pm.newtonian(attractive))
    x = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    f_h, fhat = dense_energies(x, h, pots)
    assert free_energy(pm.ParticleState(x, h=h), pots) == f_h
    assert reconstructed_energy(x, h / np.diff(x), pots, h) == fhat
