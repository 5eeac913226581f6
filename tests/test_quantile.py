import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob.model import _clamp
from partmob.quantile import QuantileError, row_densities


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
    assert np.allclose(row_densities(np.array([0.0, 1.0, 2.0]), 1.0),
                       [1.0, 1.0])
    assert np.allclose(row_densities(np.array([0.0, 0.5, 2.0]), 1.0),
                       [2.0, 2.0 / 3.0])
    assert np.allclose(row_densities(np.array([-1.0, 0.0, 1.0]), 0.5),
                       [0.5, 0.5])


def test_coincident_particles_rejected():
    with pytest.raises(QuantileError):
        row_densities(np.array([0.0, 0.0, 1.0]), 0.5)


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
    widths = np.diff(state.positions)
    assert np.isclose(np.sum(row_densities(state.positions, state.h) * widths),
                      init.mass, rtol=1e-12)


def test_zero_mass_rejected():
    init = pm.uniform_density(0.0, 1.0, 1.0, mass=0.0)
    with pytest.raises(QuantileError):
        pm.quantile_partition(init, 4)


# -- plain floats skip numpy ---------------------------------------------------
# The clamp, the bump and uniform cumulatives and the bisection as numpy
# expressions on 0-d arrays and numpy scalars, the form they had before
# plain floats took a path of their own.  That path must keep every bit.

def numpy_clamp(x, lo, hi):
    return np.minimum(hi, np.maximum(lo, x))


def numpy_cumulative(kind, params):
    if kind == "bump":
        amp, c, r = params

        def cumulative(x):
            u = numpy_clamp((np.asarray(x, dtype=float) - c) / r, -1.0, 1.0)
            return amp * r * (u - u**3 / 3.0 + 2.0 / 3.0)
    elif kind == "uniform":
        a, b, height = params

        def cumulative(x):
            x = np.asarray(x, dtype=float)
            return height * numpy_clamp(x - a, 0.0, b - a)
    else:
        bp, vals = map(np.asarray, params)
        cum = np.concatenate([[0.0], np.cumsum(vals * np.diff(bp))])

        def cumulative(x):
            return np.interp(np.asarray(x, dtype=float), bp, cum)
    return cumulative


def make_initial(kind, params):
    return {"bump": pm.parabolic_bump, "uniform": pm.uniform_density,
            "steps": pm.piecewise_constant_density}[kind](*params)


def numpy_rightmost_quantile(cumulative, target, lo, hi, mass, span):
    xtol = 1e-13 * max(1.0, span)
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if float(cumulative(mid)) > target:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    if abs(float(cumulative(x)) - target) > 1e-10 * mass:
        raise QuantileError(
            f"quantile search did not converge for target mass {target:.6g}")
    return x


def numpy_positions(initial, cumulative, n_cells):
    m = initial.mass
    span = initial.x_max - initial.x_min
    positions = np.empty(n_cells + 1)
    positions[0] = initial.x_min
    positions[-1] = initial.x_max
    lo = initial.x_min
    for i in range(1, n_cells):
        positions[i] = numpy_rightmost_quantile(
            cumulative, m * i / n_cells, lo, initial.x_max, m, span)
        lo = positions[i]
    return positions


def bits(value):
    return np.float64(value).tobytes()


def floats_near(*points):
    """Any float, or one of ``points``, a float next to one, a zero, the
    smallest subnormals, an infinity or NaN."""
    around = [float(np.nextafter(p, d)) for p in points
              for d in (-np.inf, np.inf)]
    special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
    return st.one_of(st.sampled_from([*points, *around, *special]),
                     st.floats())


@st.composite
def clamp_cases(draw):
    lo = draw(st.one_of(st.sampled_from([0.0, -0.0, -1.0]),
                        st.floats(-1e3, 1e3)))
    hi = lo + draw(st.floats(1e-300, 1e3))
    return draw(floats_near(lo, hi)), lo, hi


@given(clamp_cases(), st.booleans())
@example((-0.0, 0.0, 1.0), False)
@example((0.0, -0.0, 1.0), False)
@settings(max_examples=500, deadline=None)
def test_clamp_keeps_the_bits_of_the_ufuncs(case, numpy_scalar):
    x, lo, hi = case
    x = np.float64(x) if numpy_scalar else x
    assert bits(_clamp(x, lo, hi)) == bits(numpy_clamp(x, lo, hi))


@st.composite
def cumulative_cases(draw):
    if draw(st.booleans()):
        amp, c, r = (draw(st.floats(0.05, 5.0)), draw(st.floats(-5.0, 5.0)),
                     draw(st.floats(0.05, 5.0)))
        kind, params, ends = "bump", (amp, c, r), (c - r, c, c + r)
    else:
        a = draw(st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-5.0, 5.0)))
        b = a + draw(st.floats(0.05, 5.0))
        kind, params, ends = "uniform", (a, b, draw(st.floats(0.05, 5.0))), \
            (a, b)
    return kind, params, draw(floats_near(*ends))


@given(cumulative_cases(), st.booleans())
# numpy's maximum(0.0, -0.0) is -0.0; a Python max would give +0.0
@example(("uniform", (0.0, 1.0, 1.0), -0.0), False)
@example(("bump", (0.75, 0.0, 1.0), -1.0), False)
@settings(max_examples=500, deadline=None)
def test_cumulatives_keep_the_bits_of_the_numpy_forms(case, numpy_scalar):
    kind, params, x = case
    x = np.float64(x) if numpy_scalar else x
    # numpy scalars warn where (x - c) / r overflows; plain floats do not
    with np.errstate(over="ignore"):
        assert bits(make_initial(kind, params).cumulative(x)) \
            == bits(numpy_cumulative(kind, params)(x))


@st.composite
def profiles(draw):
    kind = draw(st.sampled_from(["bump", "uniform", "steps"]))
    if kind == "bump":
        # the benchmark's seeds jitter amplitude and centre this far
        radius = draw(st.one_of(st.just(1.0), st.floats(0.2, 5.0)))
        return kind, (0.75 + draw(st.floats(-0.01, 0.01)),
                      draw(st.floats(-0.05, 0.05)), radius)
    if kind == "uniform":
        a = draw(st.floats(-3.0, 3.0))
        return kind, (a, a + draw(st.floats(0.2, 5.0)),
                      draw(st.floats(0.1, 3.0)))
    # positive pieces around one interior zero plateau
    widths = draw(st.lists(st.floats(0.1, 2.0), min_size=3, max_size=5))
    values = draw(st.lists(st.floats(0.1, 3.0), min_size=len(widths),
                           max_size=len(widths)))
    values[draw(st.integers(1, len(widths) - 2))] = 0.0
    breakpoints = np.concatenate([[-1.0], -1.0 + np.cumsum(widths)])
    return kind, (breakpoints.tolist(), values)


def positions_or_error(place):
    try:
        return place().tobytes()
    except QuantileError as exc:
        return str(exc)


@pytest.mark.parametrize("n_cells", [2, 3, 50, 400])
@pytest.mark.filterwarnings("ignore:initial density vanishes")
@given(profiles())
@settings(max_examples=10, deadline=None)
def test_partition_keeps_the_bits_of_the_numpy_bisection(n_cells, profile):
    initial = make_initial(*profile)
    assert positions_or_error(
        lambda: pm.quantile_partition(initial, n_cells).positions) \
        == positions_or_error(lambda: numpy_positions(
            initial, numpy_cumulative(*profile), n_cells))
