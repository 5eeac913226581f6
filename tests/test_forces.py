import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import composite

import partmob as pm
from partmob import forces
from partmob.forces import continuum_force
from partmob.model import GAUSS_NODES, GAUSS_WEIGHTS


@composite
def ordered_states(draw, n_min=2, n_max=12):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    gaps = draw(st.lists(st.floats(min_value=0.01, max_value=2.0),
                         min_size=n, max_size=n))
    x0 = draw(st.floats(min_value=-5.0, max_value=5.0))
    positions = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    h = draw(st.floats(min_value=0.05, max_value=1.0))
    return pm.ParticleState(positions, h=h)


def pairwise_oracle(state, potentials):
    # scalar double loop, written independently of the production sum
    x = state.positions
    out = np.zeros(len(x))
    for i in range(len(x)):
        total = float(potentials.external.dv(x[i]))
        for j in range(len(x)):
            if j != i:
                total += state.h * float(potentials.interaction.dw(x[i] - x[j]))
        out[i] = total
    return out


def test_no_potentials_no_force():
    s = pm.ParticleState([0.0, 0.3, 1.1], h=0.5)
    pots = pm.Potentials(pm.zero_potential(), pm.no_interaction())
    assert np.all(pm.particle_forces(s, pots) == 0.0)


def test_attractive_rank_pattern():
    s = pm.ParticleState([-2.0, -0.7, 0.1, 0.9, 3.0], h=0.25)
    pots = pm.Potentials(pm.zero_potential(), pm.newtonian(True))
    h = s.h
    expected = np.array([-4 * h, -2 * h, 0.0, 2 * h, 4 * h])
    assert np.allclose(pm.particle_forces(s, pots), expected,
                       atol=1e-14)
    assert np.allclose(forces.force_rows(s.positions, s.h, pots),
                       expected, atol=1e-14)


def test_repulsive_with_quadratic_well():
    s = pm.ParticleState([-1.0, 0.0, 1.0], h=1.0)
    pots = pm.Potentials(pm.quadratic_potential(1.0), pm.newtonian(False))
    expected = np.array([1.0, 0.0, -1.0])
    assert np.allclose(pm.particle_forces(s, pots), expected,
                       atol=1e-12)
    assert np.allclose(pairwise_oracle(s, pots), expected, atol=1e-12)


@given(ordered_states(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_fast_matches_direct(state, attractive):
    pots = pm.Potentials(pm.quadratic_potential(0.5),
                         pm.newtonian(attractive))
    direct = pm.particle_forces(state, pots)
    fast = forces.force_rows(state.positions, state.h, pots)
    assert np.allclose(direct, fast, atol=1e-12, rtol=0.0)
    assert np.allclose(direct, pairwise_oracle(state, pots), atol=1e-12)


def test_second_difference_vanishes_for_newtonian_part():
    state = pm.ParticleState(np.sort(np.random.default_rng(3).uniform(-2, 2, 9)),
                             h=0.2)
    pots = pm.Potentials(pm.zero_potential(), pm.newtonian(True))
    f = pm.particle_forces(state, pots)
    second = f[2:] - 2 * f[1:-1] + f[:-2]
    assert np.allclose(second, 0.0, atol=1e-13)


def test_neighbour_difference_bound_along_trajectory(attractive_problem,
                                                     short_attractive_run):
    traj = short_attractive_run
    c_f = attractive_problem.c_force
    for k in range(0, len(traj.times), 10):
        state = traj.state_at(k)
        f = pm.forces_for(state, attractive_problem)
        widths = np.diff(state.positions)
        assert np.all(np.abs(np.diff(f)) <= c_f * widths + 1e-12)
        second = np.abs(f[2:] - 2 * f[1:-1] + f[:-2])
        bound = c_f * (widths[1:] ** 2 + widths[:-1] ** 2
                       + np.abs(widths[1:] - widths[:-1]))
        assert np.all(second <= bound + 1e-12)


# -- continuum force -------------------------------------------------------

def test_continuum_force_no_kernel():
    pots = pm.Potentials(pm.quadratic_potential(2.0), pm.no_interaction())
    f, df = continuum_force(np.array([0.0, 1.0]), np.array([1.0]), 1.0,
                            pots, [0.3])
    assert f[0] == pytest.approx(0.6)
    assert df[0] == pytest.approx(2.0)


def quadrature_oracle(edges, rho, xq, kernel_d, n=400000):
    # brute-force trapezoid of the convolution integral
    y = np.linspace(edges[0], edges[-1], n)
    idx = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, len(rho) - 1)
    dens = np.where((y >= edges[0]) & (y < edges[-1]), rho[idx], 0.0)
    return np.trapezoid(kernel_d(xq - y) * dens, y)


def test_continuum_force_newtonian_half_mass():
    pots = pm.Potentials(pm.zero_potential(), pm.newtonian(True))
    edges, rho = np.array([0.0, 2.0]), np.array([1.0])
    f, df = continuum_force(edges, rho, 2.0, pots, [1.0, 0.5])
    assert f[0] == pytest.approx(0.0, abs=1e-14)       # half the mass each side
    assert f[1] == pytest.approx(-1.0, abs=1e-14)
    assert df[0] == pytest.approx(2.0)
    oracle = quadrature_oracle(edges, rho, 0.5, lambda d: np.sign(d))
    assert f[1] == pytest.approx(oracle, abs=1e-5)


def test_continuum_force_morse_matches_quadrature():
    w = pm.morse(1.0, 0.8, 0.5, 0.3)
    pots = pm.Potentials(pm.zero_potential(), w)
    edges = np.array([-1.0, 0.0, 0.5, 1.0])
    rho = np.array([0.5, 1.0, 0.25])
    for xq in (-0.4, 0.2, 0.75, 1.5):
        f, _ = continuum_force(edges, rho, None or 1.0, pots, [xq])
        oracle = quadrature_oracle(edges, rho, xq, w.dw)
        assert f[0] == pytest.approx(oracle, abs=2e-5)


def test_exclude_own_cell_drops_local_contribution():
    pots = pm.Potentials(pm.zero_potential(), pm.newtonian(True))
    edges, rho = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0])
    x = [0.25]
    full, dfull = continuum_force(edges, rho, 2.0, pots, x)
    part, dpart = continuum_force(edges, rho, 2.0, pots, x,
                                  exclude_own_cell=True)
    # removing the own cell cancels the local density gradient
    assert dpart[0] == pytest.approx(dfull[0] - 2.0)
    inside = quadrature_oracle(edges[:2], rho[:1], 0.25, lambda d: np.sign(d))
    assert part[0] == pytest.approx(full[0] - inside, abs=1e-5)


# -- the one cell lookup against the formulas it replaced --------------------

def test_cell_lookup_matches_old_formulas():
    edges = np.array([-1.0, -0.0, 0.25, 0.25 + 1e-12, 3.0])
    values = np.array([0.5, 1e300, 5e-324, 2.0])
    between = 0.5 * (edges[:-1] + edges[1:])
    x = np.concatenate([[-np.inf, -1.5, np.nextafter(-1.0, -2.0)], edges,
                        np.nextafter(edges, np.inf), between,
                        [np.nextafter(3.0, 4.0), 7.0, np.inf]])
    # old forces._cell_index
    idx = np.searchsorted(edges, x, side="right") - 1
    idx = np.where((x < edges[0]) | (x >= edges[-1]), -1, idx)
    old_index = np.clip(idx, -1, len(edges) - 2)
    # old diagnostics._density_on, fv._eval_step and density_at
    idx = np.searchsorted(edges, x, side="right") - 1
    inside = (x >= edges[0]) & (x < edges[-1])
    old_values = np.where(inside, values[np.clip(idx, 0, len(values) - 1)],
                          0.0)
    assert np.array_equal(forces._cell_index(edges, x), old_index)
    assert np.array_equal(forces.step_values(edges, values, x), old_values)
    assert np.array_equal(np.signbit(forces.step_values(edges, values, x)),
                          np.signbit(old_values))


# -- blocked kernels against their one-shot / per-cell references ----------

def smooth_kernel():
    return pm.regular_interaction(lambda x: np.cos(x), lambda x: -np.sin(x),
                                  lambda x: -np.cos(x), 1.0, 1.0, 1.0)


def cell_loop_continuum_force(edges, densities, potentials, x,
                              exclude_own_cell):
    # per-(point, cell) 4-point Gauss loop, splitting the cell that strictly
    # contains the point at the kink; the arithmetic continuum_force must
    # reproduce bit for bit
    w = potentials.interaction
    force = np.array(potentials.external.dv(x), dtype=float, copy=True)
    dforce = np.array(potentials.external.d2v(x), dtype=float, copy=True)
    own = forces._cell_index(edges, x)
    for k, xk in enumerate(x):
        skip = own[k] if exclude_own_cell and own[k] >= 0 else None
        for fn, out in ((w.dw, force), (w.d2w, dforce)):
            contributions = np.zeros(len(edges) - 1)
            for i in range(len(edges) - 1):
                if i == skip:
                    continue
                a, b = edges[i], edges[i + 1]
                pieces = [(a, xk), (xk, b)] if a < xk < b else [(a, b)]
                acc = 0.0
                for lo, hi in pieces:
                    half = 0.5 * (hi - lo)
                    nodes = 0.5 * (lo + hi) + half * GAUSS_NODES
                    acc += half * float(np.dot(GAUSS_WEIGHTS, fn(xk - nodes)))
                contributions[i] = acc
            out[k] += float(np.dot(densities, contributions))
    return force, dforce


@pytest.mark.parametrize("kernel", [pm.morse(1.0, 1.0, 0.5, 0.3),
                                    smooth_kernel()], ids=["morse", "smooth"])
@pytest.mark.parametrize("n_cells", [7, 33])   # BLAS dot below / above 32
@pytest.mark.parametrize("exclude_own_cell", [False, True])
def test_continuum_force_matches_cell_loop(kernel, n_cells, exclude_own_cell):
    rng = np.random.default_rng(n_cells)
    edges = np.cumsum(rng.uniform(0.05, 0.3, n_cells + 1)) - 1.0
    densities = rng.uniform(0.1, 2.0, n_cells)
    pots = pm.Potentials(pm.quadratic_potential(0.5), kernel)
    # edges, points outside the support, midpoints and enough interior
    # points for about three blocks
    n_points = 3 * forces.BLOCK_ELEMENTS // (4 * n_cells)
    x = np.concatenate([edges, [edges[0] - 0.4, edges[-1] + 0.1],
                        0.5 * (edges[:-1] + edges[1:]),
                        rng.uniform(edges[0], edges[-1], n_points)])
    got = continuum_force(edges, densities, 1.0, pots, x, exclude_own_cell)
    want = cell_loop_continuum_force(edges, densities, pots, x,
                                     exclude_own_cell)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# -- (force, dforce) against central differences, per kernel kind -----------

MORSE_JUMP = pytest.param(
    pm.morse(1.0, 1.0, 0.5, 0.3), id="morse",
    marks=pytest.mark.xfail(strict=True, reason=(
        "jump-term bug: dforce lacks 2 W'(0+) rho(x) for a kernel whose W' "
        "jumps at 0; for Morse W'(0+) = c_A/l_A - c_R/l_R = -2/3, so the "
        "gap is 2 (2/3) 0.75 = 1.0 at the bump's top")))


@pytest.mark.parametrize("kernel", [
    pytest.param(pm.no_interaction(), id="zero"),
    pytest.param(pm.newtonian(True), id="attractive"),
    pytest.param(pm.newtonian(False), id="repulsive"),
    pytest.param(smooth_kernel(), id="smooth"),
    MORSE_JUMP,
])
@pytest.mark.parametrize("external", [pm.zero_potential(),
                                      pm.quadratic_potential(0.5)],
                         ids=["V=0", "quadratic"])
def test_continuum_dforce_is_the_derivative_of_force(kernel, external):
    state = pm.quantile_partition(pm.parabolic_bump(), 200)
    edges, rho = state.positions, state.h / np.diff(state.positions)
    pots = pm.Potentials(external, kernel)
    # one point per cell, at least 1 % of its width from both edges, so
    # that x -+ eps stays in the cell
    frac = np.random.default_rng(7).uniform(0.01, 0.99, len(rho))
    x = edges[:-1] + frac * np.diff(edges)
    eps = 1e-6
    _, dforce = continuum_force(edges, rho, 1.0, pots, x)
    up, _ = continuum_force(edges, rho, 1.0, pots, x + eps)
    down, _ = continuum_force(edges, rho, 1.0, pots, x - eps)
    assert np.max(np.abs((up - down) / (2.0 * eps) - dforce)) <= 1e-9


def dense_particle_forces(state, potentials):
    # the whole pair matrix at once, diagonal zeroed, rows summed
    x = state.positions
    pair = potentials.interaction.dw(x[:, None] - x[None, :])
    np.fill_diagonal(pair, 0.0)
    return potentials.external.dv(x) + state.h * pair.sum(axis=1)


@pytest.mark.parametrize("kernel", [pm.morse(1.0, 1.0, 0.5, 0.3),
                                    smooth_kernel(), pm.newtonian(True),
                                    pm.newtonian(False)],
                         ids=["morse", "smooth", "attractive", "repulsive"])
@pytest.mark.parametrize("n", [2, 3, 50, 300, 401])
# block budgets: the default, one row per block ("True"), and 1000 elements,
# whose rows per block divide neither 50 nor 401
@pytest.mark.parametrize("block_elements", [None, 1, 1000],
                         ids=["False", "True", "ragged"])
def test_blocked_particle_forces_match_dense(kernel, n, block_elements,
                                             monkeypatch):
    # n = 50 fits one default block; 300 and 401 span several
    if block_elements is not None:
        monkeypatch.setattr(forces, "BLOCK_ELEMENTS", block_elements)
    x = np.sort(np.random.default_rng(n).uniform(-2.0, 2.0, n))
    state = pm.ParticleState(x, h=1.0 / n)
    pots = pm.Potentials(pm.quadratic_potential(0.5), kernel)
    assert np.array_equal(pm.particle_forces(state, pots),
                          dense_particle_forces(state, pots))


def dense_pair_sum(points, kernel):
    # the full pair matrix with a zeroed diagonal, summed by np.sum: the
    # reference whose bits pair_sum keeps
    pair = kernel.w(np.subtract.outer(points, points))
    np.fill_diagonal(pair, 0.0)
    return float(np.sum(pair))


@composite
def sorted_points(draw, n_max=60):
    # distinct increasing points; up to 3600 pairs, past np.sum's
    # 128-element pairwise blocks
    n = draw(st.integers(min_value=2, max_value=n_max))
    gaps = draw(st.lists(st.floats(min_value=1e-6, max_value=3.0),
                         min_size=n - 1, max_size=n - 1))
    x0 = draw(st.floats(min_value=-50.0, max_value=50.0))
    return x0 + np.concatenate([[0.0], np.cumsum(gaps)])


@given(sorted_points(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_abs_pair_sum_has_the_dense_bits(points, attractive):
    kernel = pm.newtonian(attractive)
    fast = forces.pair_sum(points, kernel)
    assert fast == dense_pair_sum(points, kernel)
    assert np.signbit(fast) == (not attractive)


@pytest.mark.parametrize("attractive", [True, False])
@pytest.mark.parametrize("n_cells", [200, 400])
def test_abs_pair_sum_on_the_bump_partition(attractive, n_cells):
    x = pm.quantile_partition(pm.parabolic_bump(), n_cells).positions
    mids = 0.5 * (x[:-1] + x[1:])
    kernel = pm.newtonian(attractive)
    for points in (x, mids):
        assert forces.pair_sum(points, kernel) == \
            dense_pair_sum(points, kernel)


@given(sorted_points(n_max=300), st.booleans(),
       st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@settings(max_examples=60, deadline=None)
# one block of 128 rows, then 127 + 2 rows, then 3 blocks of 64 and one of
# 63, then 10 blocks of 40 and one of 1, in a shuffled order
@example(np.linspace(-3.0, 3.0, 128), False, None)
@example(np.linspace(-3.0, 3.0, 129), True, None)
@example(np.linspace(-3.0, 3.0, 255), False, None)
@example(np.linspace(-3.0, 3.0, 401), False, 7)
def test_other_kernels_keep_the_dense_pair_sum(points, smooth, shuffle):
    # past 128 points the matrix is filled over several row blocks, each
    # unordered pair once; the points need not be sorted
    if shuffle is not None:
        points = np.random.default_rng(shuffle).permutation(points)
    kernel = smooth_kernel() if smooth else pm.morse(1.0, 1.0, 0.5, 0.3)
    assert forces.pair_sum(points, kernel) == dense_pair_sum(points, kernel)


@given(sorted_points(n_max=20), st.floats(allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_zero_kernel_pair_sum_leaves_every_sum_unchanged(points, total):
    # -0.0 is the additive identity, signed zeros included, so an energy
    # with W = 0 keeps the bits it had without the pair term
    pair = forces.pair_sum(points, pm.no_interaction())
    assert pair == 0.0 and np.signbit(pair)
    assert np.float64(total + 0.5 * 0.1 * pair).tobytes() == \
        np.float64(total).tobytes()
