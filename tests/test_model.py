import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob.model import (MASS_MISMATCH, NEGATIVE_DENSITY,
                           NON_MONOTONE_MOBILITY, InvalidProblem, _clamp,
                           check_problem, sorted_union)


def make_problem(mobility=None, external=None, interaction=None, initial=None):
    return pm.Problem(mobility or pm.power_cap_mobility(1.0),
                      pm.Potentials(external or pm.zero_potential(),
                                    interaction or pm.no_interaction()),
                      initial or pm.uniform_density(0.0, 1.0, 1.0))


def test_valid_uniform_problem_passes():
    p = make_problem()
    assert pm.validate(p) is p
    assert p.M == 1.0


def test_mass_mismatch_detected():
    bad = pm.uniform_density(0.0, 1.0, 0.98, mass=1.0)
    issues = check_problem(make_problem(initial=bad))
    assert any(i.code == MASS_MISMATCH for i in issues)
    with pytest.raises(InvalidProblem):
        pm.validate(make_problem(initial=bad))


def test_increasing_mobility_rejected():
    with pytest.raises(ValueError):
        pm.tabulated_mobility([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    # an increasing table smuggled past the constructor is still caught
    mob = pm.power_cap_mobility(1.0)
    object.__setattr__(mob, "beta",
                       lambda s: np.minimum(np.asarray(s, dtype=float), 1.0))
    issues = check_problem(make_problem(mobility=mob))
    assert any(i.code == NON_MONOTONE_MOBILITY for i in issues)


def test_negative_density_rejected():
    init = pm.piecewise_constant_density([0.0, 1.0], [1.0])
    object.__setattr__(init, "density",
                       lambda x: np.where(np.asarray(x) < 0.5, 1.0, -1.0))
    issues = check_problem(make_problem(initial=init))
    assert any(i.code == NEGATIVE_DENSITY for i in issues)


def test_theta_trivial_values():
    p = make_problem()
    assert p.mobility.theta(0.0) == 0.0
    assert p.mobility.theta(1.0) == 0.0
    assert p.mobility.theta(0.5) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        p.mobility.theta(-0.1)


@given(st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=1.0, max_value=3.0))
@settings(max_examples=100)
def test_theta_bounded_by_linear_growth(s, m_beta, gamma):
    mob = pm.power_cap_mobility(m_beta, gamma)
    assert 0.0 <= float(mob.theta(s)) <= mob.beta_max * s + 1e-12


@given(st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=1.0, max_value=3.0))
@settings(max_examples=60)
def test_power_cap_monotone_and_capped(m_beta, gamma):
    mob = pm.power_cap_mobility(m_beta, gamma)
    s = np.linspace(0.0, 2.0 * mob.cap, 1000)
    b = mob.beta(s)
    assert np.all(np.diff(b) <= 1e-12)
    assert b[0] == pytest.approx(mob.beta_max)
    assert np.all(b[s >= mob.cap] == 0.0)
    assert np.all(b <= mob.beta_max)


def test_tabulated_mobility_interpolates_and_clamps():
    mob = pm.tabulated_mobility([0.0, 0.5, 1.0], [1.0, 0.4, 0.0])
    assert float(mob.beta(0.25)) == pytest.approx(0.7)
    assert float(mob.beta(-1.0)) == 1.0
    assert float(mob.beta(2.0)) == 0.0
    assert mob.cap == 1.0


def test_morse_kernel_shape():
    w = pm.morse(2.0, 1.0, 1.0, 0.5)
    x = np.linspace(-3, 3, 101)
    assert np.allclose(w.w(x), w.w(-x))           # even
    assert np.allclose(w.dw(x), -w.dw(-x))        # odd derivative
    assert w.dw(0.0) == 0.0
    # repulsive core, attractive tail
    assert float(w.w(0.0)) == pytest.approx(-2.0 + 1.0)
    assert float(w.w(4.0)) < 0.0 or abs(float(w.w(4.0))) < 1e-2


def reference_morse(ca, la, cr, lr):
    # the Morse closures as plain expressions, one temporary per operation
    def w(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return -ca * np.exp(-ax / la) + cr * np.exp(-ax / lr)

    def dw(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        return np.sign(x) * (ca / la * np.exp(-ax / la)
                             - cr / lr * np.exp(-ax / lr))

    def d2w(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return -ca / la**2 * np.exp(-ax / la) + cr / lr**2 * np.exp(-ax / lr)

    return w, dw, d2w


def same_bits(a, b):
    return (type(a) is type(b) and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_morse_closures_match_reference_expressions():
    params = (1.0, 1.0, 0.5, 0.3)
    kernel = pm.morse(*params)
    rng = np.random.default_rng(5)
    # |x| = 800 underflows both exponentials, |x| = 220 only the repulsive
    # one with lr = 0.3
    special = np.array([0.0, -0.0, 1e-300, -5e-324, 220.0, -220.0, 800.0,
                        -800.0, np.inf, -np.inf])
    inputs = [0.0, -0.0, 2.5, -800.0, np.float64(-1.5), np.array(0.7),
              np.array(-0.0), special, rng.normal(0.0, 3.0, 257),
              rng.normal(0.0, 3.0, (17, 33)), rng.normal(0.0, 3.0, (3, 5, 4)),
              rng.normal(0.0, 3.0, (40, 30))[:, ::3]]
    for x in inputs:
        before = np.array(x, copy=True)
        for got_fn, want_fn in zip((kernel.w, kernel.dw, kernel.d2w),
                                   reference_morse(*params)):
            assert same_bits(got_fn(x), want_fn(x))
            assert same_bits(np.asarray(x), before)


KERNELS = {
    "zero": pm.no_interaction(),
    "attractive": pm.newtonian(True),
    "repulsive": pm.newtonian(False),
    "morse": pm.morse(1.0, 1.0, 0.5, 0.3),
    "smooth": pm.regular_interaction(np.cos, lambda x: -np.sin(x),
                                     lambda x: -np.cos(x),
                                     1.0, 1.0, 1.0),
}


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_derivatives_match_central_differences(name):
    kernel = KERNELS[name]
    d = np.concatenate([np.linspace(-3.0, -0.05, 60),
                        np.linspace(0.05, 3.0, 60)])
    step = 1e-5
    for f, df in ((kernel.w, kernel.dw), (kernel.dw, kernel.d2w)):
        central = (f(d + step) - f(d - step)) / (2.0 * step)
        assert np.allclose(df(d), central, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_parity_is_exact(name):
    # the pair-once particle force stores -dw(x_j - x_i) for dw(x_i - x_j);
    # == compares -0.0 and 0.0 equal, and dw(0) is zeroed there anyway
    kernel = KERNELS[name]
    x = np.sort(np.random.default_rng(2).uniform(-4.0, 4.0, 300))
    d = x[:, None] - x[None, :]
    assert np.array_equal(-d, x[None, :] - x[:, None])
    d = np.concatenate([d.ravel(), [0.0, -0.0, 1e-300, 50.0, 800.0]])
    assert np.array_equal(kernel.w(-d), kernel.w(d))
    assert np.array_equal(kernel.dw(-d), -kernel.dw(d))


def test_newtonian_force_constant_matches_closed_form():
    p = make_problem(interaction=pm.newtonian(True),
                     external=pm.quadratic_potential(2.0))
    # sup|V''| + 2 M with M = max(1, cap) = 1
    assert p.c_force == pytest.approx(2.0 + 2.0 * p.M)


def _cubic_potential():
    # a V whose lip_d2 dominates sup_d2 + 2M
    return pm.external_potential(lambda x: x**3, lambda x: 3 * x**2,
                                 lambda x: 6 * x, 0.5, 7.0)


@pytest.mark.parametrize("kernel", ["zero", "attractive", "repulsive"])
@pytest.mark.parametrize("external", [
    pm.zero_potential, lambda: pm.linear_potential(-1.3),
    lambda: pm.quadratic_potential(2.5), _cubic_potential],
    ids=["zero", "linear", "quadratic", "lip_d2"])
@pytest.mark.parametrize("mobility, initial", [
    (pm.power_cap_mobility(1.0), pm.parabolic_bump(0.75, 0.0, 1.0)),
    (pm.power_cap_mobility(2.0, 2.0), pm.parabolic_bump(1.7, 0.3, 0.5)),
    (pm.power_cap_mobility(1.0), pm.uniform_density(0.0, 3.0, 0.4)),
], ids=["bump", "tall_bump", "uniform"])
def test_force_constant_matches_per_kernel_formulas(kernel, external,
                                                    mobility, initial):
    # the closed forms the general formula reduces to, bit for bit
    w = {"zero": pm.no_interaction(), "attractive": pm.newtonian(True),
         "repulsive": pm.newtonian(False)}[kernel]
    v = external()
    p = pm.Problem(mobility, pm.Potentials(v, w), initial)
    if kernel == "zero":
        expected = max(v.sup_d2, v.lip_d2)
    else:
        expected = max(v.sup_d2 + 2.0 * p.M, v.lip_d2)
    assert p.c_force == expected


def test_step_profile_with_unaligned_jump_validates():
    # the mass quadrature must align to breakpoints, not a fixed grid
    init = pm.piecewise_constant_density([0.0, 1.0 / 3.0, 1.0], [1.2, 0.6])
    assert check_problem(make_problem(initial=init)) == []


def test_parabolic_bump_mass_and_cumulative():
    init = pm.parabolic_bump(0.75, 0.0, 1.0)
    assert init.mass == pytest.approx(1.0)
    assert float(init.cumulative(1.0)) == pytest.approx(1.0, abs=1e-14)
    assert float(init.cumulative(0.0)) == pytest.approx(0.5)


# the clamp ends, points outside them, both zeros, NaN and infinities
CLAMP_POINTS = [-1.0, 1.0, 0.0, -0.0, -3.0, 2.5, 0.25, np.nan, np.inf,
                -np.inf, 5e-324]


def same_values(a, b):
    # == on every value; NaN where the other is NaN
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.all((a == b) | (np.isnan(a) & np.isnan(b)))


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 2.0), (-0.0, 1.0)])
def test_clamp_equals_clip(lo, hi):
    for x in CLAMP_POINTS:
        assert same_values(_clamp(x, lo, hi), np.clip(x, lo, hi)), x
        assert same_values(_clamp(np.float64(x), lo, hi),
                           np.clip(np.float64(x), lo, hi)), x
    # arrays below and above the 8- and 16-lane widths of the SIMD loops
    rng = np.random.default_rng(7)
    for n in (1, 7, 8, 9, 17, 64):
        xs = rng.choice(CLAMP_POINTS, size=n)
        assert same_values(_clamp(xs, lo, hi), np.clip(xs, lo, hi))


@pytest.mark.parametrize("make, clipped", [
    (lambda: pm.uniform_density(-0.5, 1.5, 0.5),
     lambda x: 0.5 * np.clip(x + 0.5, 0.0, 2.0)),
    (lambda: pm.uniform_density(0.0, 1.0, 1.0),
     lambda x: 1.0 * np.clip(x - 0.0, 0.0, 1.0)),
    (lambda: pm.parabolic_bump(0.75, 0.1, 0.8),
     lambda x: 0.75 * 0.8 * (np.clip((x - 0.1) / 0.8, -1.0, 1.0)
                             - np.clip((x - 0.1) / 0.8, -1.0, 1.0) ** 3 / 3.0
                             + 2.0 / 3.0)),
])
def test_cumulatives_equal_their_clip_forms(make, clipped):
    cumulative = make().cumulative
    points = np.array(CLAMP_POINTS + [-0.5, 1.5, 0.9, -0.7, 0.1 + 1e-9])
    assert same_values(cumulative(points), clipped(points))
    for x in points:
        assert same_values(cumulative(float(x)), clipped(float(x))), x


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=30), st.data())
@settings(max_examples=200, deadline=None)
def test_sorted_union_has_the_bits_of_np_unique(pool, data):
    # two sorted draws from one pool share values, signed zeros included
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=30)
    a, b = (np.sort(np.array(data.draw(pick))) for _ in range(2))
    got, want = sorted_union(a, b), np.union1d(a, b)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the one-array form, on the row indices diagnostics passes
    rows = np.array(data.draw(st.lists(st.integers(0, 20), max_size=30)),
                    dtype=np.intp)
    got, want = sorted_union(rows), np.unique(rows)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
