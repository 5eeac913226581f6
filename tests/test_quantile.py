import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob.quantile import QuantileError


def bisect_oracle(fn, target, lo, hi, iters=200):
    # independent plain bisection used to freeze expected quantile values
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_uniform_quartiles():
    init = pm.uniform_density(0.0, 1.0, 1.0)
    state = pm.quantile_partition(init, 4)
    assert np.allclose(state.positions, [0.0, 0.25, 0.5, 0.75, 1.0],
                       atol=1e-12)
    assert state.h == 0.25


def test_bump_halves_by_symmetry():
    state = pm.quantile_partition(pm.parabolic_bump(), 2)
    assert np.allclose(state.positions, [-1.0, 0.0, 1.0], atol=1e-12)


def test_bump_quartiles_match_cubic_root():
    # quarter-mass condition for the quadratic bump reduces to
    # 3 r - r^3 = 1; solve it independently and compare
    r = bisect_oracle(lambda r: 3 * r - r**3, 1.0, 0.0, 1.0)
    assert r == pytest.approx(0.347296355333861, abs=1e-12)
    state = pm.quantile_partition(pm.parabolic_bump(), 4)
    assert np.allclose(state.positions, [-1.0, -r, 0.0, r, 1.0], atol=1e-10)
    # every cell carries the same mass
    cdf = state.positions
    masses = np.diff(pm.parabolic_bump().cumulative(cdf))
    assert np.allclose(masses, state.h, atol=1e-10 * state.h)


def test_state_densities_direct_division():
    s = pm.ParticleState([0.0, 1.0, 2.0], h=1.0)
    assert np.allclose(s.densities(), [1.0, 1.0])
    s = pm.ParticleState([0.0, 0.5, 2.0], h=1.0)
    assert np.allclose(s.densities(), [2.0, 2.0 / 3.0])
    s = pm.ParticleState([-1.0, 0.0, 1.0], h=0.5)
    assert np.allclose(s.densities(), [0.5, 0.5])


def test_coincident_particles_rejected():
    s = pm.ParticleState([0.0, 0.0, 1.0], h=0.5)
    with pytest.raises(QuantileError):
        s.densities()


def test_refinement_keeps_coarse_quantiles():
    init = pm.parabolic_bump()
    coarse = pm.quantile_partition(init, 8)
    fine = pm.quantile_partition(init, 16)
    assert np.allclose(coarse.positions, fine.positions[::2], atol=1e-10)


def test_interior_vacuum_warns_but_partitions():
    init = pm.piecewise_constant_density([0.0, 1.0, 2.0, 3.0],
                                         [1.0, 0.0, 1.0])
    with pytest.warns(UserWarning):
        state = pm.quantile_partition(init, 4)
    masses = np.diff(init.cumulative(state.positions))
    assert np.allclose(masses, state.h, atol=1e-10)
    # rightmost-root convention: the mid quantile sits at the right end of
    # the vacuum gap
    assert state.positions[2] == pytest.approx(2.0, abs=1e-9)


@given(st.integers(min_value=2, max_value=24),
       st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_uniform_partition_scales(n, width, left):
    init = pm.uniform_density(left, left + width, 2.0)
    state = pm.quantile_partition(init, n)
    expected = np.linspace(left, left + width, n + 1)
    assert np.allclose(state.positions, expected, atol=1e-9 * max(1.0, width))
    assert np.isclose(np.sum(state.densities() * state.widths()), init.mass,
                      rtol=1e-12)


def test_zero_mass_rejected():
    init = pm.uniform_density(0.0, 1.0, 1.0, mass=0.0)
    with pytest.raises(QuantileError):
        pm.quantile_partition(init, 4)
