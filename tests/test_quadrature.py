"""The numpy Simpson rules of ``partmob.model`` against scipy.integrate.

scipy is the reference only: the package itself does not import it.  The
results must carry the same bits, signed zeros included, because every
CSV the package writes goes through these rules.  The stored time grids
of the reference configs all have an odd number of times, so the
even-sample end correction is pinned here alone.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from partmob.model import cumulative_simpson, simpson


@st.composite
def grids(draw, min_size):
    """A strictly increasing grid with spacings over 1e-3..1e3, samples on
    it in 1 to 3 columns, and up to three of them set to -0.0."""
    n = draw(st.integers(min_value=min_size, max_value=40))
    columns = draw(st.integers(min_value=1, max_value=3))
    # numpy draws the spacings and samples: Hypothesis's own floats favour
    # round values such as 1.0 or 10.0, whose powers are exact, and miss the
    # roundings that the end correction has to reproduce
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    start = draw(st.floats(min_value=-10.0, max_value=10.0))
    x = start + np.concatenate(
        ([0.0], np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, n - 1))))
    y = rng.normal(size=(n, columns)) * 10.0 ** rng.uniform(-3.0, 3.0)
    y.flat[draw(st.lists(st.integers(0, n * columns - 1), max_size=3))] = -0.0
    return x, y


def assert_same_bits(ours, reference):
    ours, reference = np.asarray(ours), np.asarray(reference)
    assert ours.shape == reference.shape
    assert ours.dtype == reference.dtype
    assert ours.tobytes() == reference.tobytes(), (ours, reference)


@given(grids(min_size=2))
@settings(max_examples=300, deadline=None)
def test_simpson_matches_scipy(grid):
    x, y = grid
    assert_same_bits(simpson(y[:, 0], x), integrate.simpson(y[:, 0], x=x))
    assert_same_bits(simpson(y, x, axis=0),
                     integrate.simpson(y, x=x, axis=0))


@given(grids(min_size=1))
@settings(max_examples=300, deadline=None)
def test_cumulative_simpson_matches_scipy(grid):
    x, y = grid
    assert_same_bits(cumulative_simpson(y[:, 0], x),
                     integrate.cumulative_simpson(y[:, 0], x=x, initial=0.0))


def test_signed_zeros_and_short_grids():
    for n in (1, 2, 3, 4, 5, 6):
        x = np.cumsum(np.linspace(0.5, 1.5, n))
        for y in (np.full(n, -0.0), np.where(np.arange(n) % 2, -0.0, 1.0)):
            if n >= 2:
                assert_same_bits(simpson(y, x), integrate.simpson(y, x=x))
            assert_same_bits(cumulative_simpson(y, x),
                             integrate.cumulative_simpson(y, x=x, initial=0.0))


def test_even_end_correction_rounds_like_scipy():
    # a float64 scalar's ``h ** 3`` differs from the array power in about
    # 5 % of spacings, and about 1 % of even grids show it in the result:
    # too rare for the examples above, so many seeded grids are run here
    rng = np.random.default_rng(20170201)
    for _ in range(2000):
        n = 2 * int(rng.integers(2, 7))
        x = np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, n))
        y = rng.normal(size=n)
        assert_same_bits(simpson(y, x), integrate.simpson(y, x=x))
