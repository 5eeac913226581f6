import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob import diagnostics as diag

from test_reconstruct import static_fields


def test_total_variation_examples():
    assert diag.total_variation(np.array([2.0])) == 4.0
    assert diag.total_variation(np.array([1.0, 1.0])) == 2.0
    assert diag.total_variation(np.array([1.0, 2.0, 1.0])) == 4.0


def test_bv_norm_single_cell():
    f = static_fields([0.0, 1.0], h=2.0)   # density 2, mass 2
    assert diag.bv_norms(f)[0] == pytest.approx(2.0 + 4.0)


def test_h1_proxy_single_cell_closed_form():
    # tent through (0,0), (w/2, rho), (w, 0):
    # int g^2 = rho^2 w / 3, int g'^2 = 4 rho^2 / w
    w, rho = 1.0, 2.0
    expected = np.sqrt(rho**2 * w / 3.0) + np.sqrt(4.0 * rho**2 / w)
    assert diag.h1_proxy(np.array([0.0, w]), np.array([rho])) == \
        pytest.approx(expected, rel=1e-14)


def test_h1_proxy_flat_profiles_differ_only_by_ramps():
    # one wide cell: tent of width 2; two unit cells: trapezoid with
    # half-cell ramps of slope 2
    one = diag.h1_proxy(np.array([0.0, 2.0]), np.array([1.0]))
    two = diag.h1_proxy(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0]))
    assert one == pytest.approx(np.sqrt(2.0 / 3.0) + np.sqrt(2.0), rel=1e-12)
    assert two == pytest.approx(np.sqrt(4.0 / 3.0) + np.sqrt(4.0), rel=1e-12)


def test_w1_same_time_is_zero(short_attractive_run):
    fields = short_attractive_run.fields
    assert diag.w1_distance(fields, 0.0, 0.0) == 0.0


def test_w1_translation_identity():
    base = np.array([0.0, 0.5, 1.0])
    for delta in (0.25, 1.5):
        f = pm.ReconstructedFields(
            np.array([0.0, 1.0]),
            np.stack([base, base + delta]),
            np.ones((2, 2)) * 1.0,
            np.zeros((2, 3)), mass=1.0)
        assert diag.w1_distance(f, 0.0, 1.0) == pytest.approx(delta, abs=1e-12)


def riemann_sum_w1_oracle(edges_a, rho_a, edges_b, rho_b, m, n=100000):
    lo = min(edges_a[0], edges_b[0]) - 0.1
    hi = max(edges_a[-1], edges_b[-1]) + 0.1
    xs = np.linspace(lo, hi, n)
    def cdf(edges, rho, x):
        cum = np.concatenate([[0.0], np.cumsum(rho * np.diff(edges))])
        return np.interp(x, edges, cum)
    vals = np.abs(cdf(edges_a, rho_a, xs) - cdf(edges_b, rho_b, xs)) / m
    return np.trapezoid(vals, xs)


def test_w1_two_cell_example_against_riemann_sum():
    f = pm.ReconstructedFields(
        np.array([0.0, 1.0]),
        np.array([[0.0, 1.0], [0.0, 2.0]]),
        np.array([[1.0], [0.5]]),
        np.zeros((2, 2)), mass=1.0)
    exact = diag.w1_distance(f, 0.0, 1.0)
    assert exact == pytest.approx(0.5, abs=1e-12)
    oracle = riemann_sum_w1_oracle([0.0, 1.0], [1.0], [0.0, 2.0], [0.5], 1.0)
    assert exact == pytest.approx(oracle, abs=1e-4)


@given(st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_w1_symmetry_and_triangle(width_a, shift, width_b):
    edges = [np.array([0.0, width_a]), np.array([shift, shift + width_b]),
             np.array([-0.3, 0.9])]
    rho = [np.array([1.0 / width_a]), np.array([1.0 / width_b]),
           np.array([1.0 / 1.2])]

    def dist(i, j):
        g = pm.ReconstructedFields(np.array([0.0, 1.0]),
                                   np.stack([edges[i], edges[j]]),
                                   np.stack([rho[i], rho[j]]),
                                   np.zeros((2, 2)), mass=1.0)
        return diag.w1_distance(g, 0.0, 1.0)
    d01, d10 = dist(0, 1), dist(1, 0)
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert dist(0, 2) <= d01 + dist(1, 2) + 1e-10


def test_bv_growth_envelope_stable_under_refinement(attractive_problem):
    # fit the smallest exponential-envelope rate on the coarse run, then
    # require the same rate (with headroom) to cover the finer runs
    p = attractive_problem

    def bv_series(n):
        s = pm.quantile_partition(p.initial, n)
        traj = pm.integrate(s, p, 1.0, dt=2e-3, store_every=25)
        return traj.times, diag.bv_norms(traj.fields)

    def fitted_rate(times, bv):
        rates = np.linspace(0.0, 5.0, 501)
        for c in rates:
            if np.all(bv <= np.exp(c * times) * (bv[0] + c * times) + 1e-12):
                return c
        return np.inf

    t50, bv50 = bv_series(50)
    c_coarse = fitted_rate(t50, bv50)
    assert np.isfinite(c_coarse)
    for n in (100, 200):
        times, bv = bv_series(n)
        envelope = np.exp(1.5 * c_coarse * times) * (bv[0] + 1.5 * c_coarse * times)
        assert np.all(bv <= envelope + 1e-9)


def test_diagnostics_records_and_csv(tmp_path, short_attractive_run,
                                     attractive_problem):
    fields = short_attractive_run.fields
    table = diag.diagnostics_records(fields, attractive_problem)
    assert all(mass == pytest.approx(fields.mass, rel=1e-12)
               for mass in table["mass"])
    assert all(bv == pytest.approx(mass + tv) for bv, mass, tv
               in zip(table["bv"], table["mass"], table["tv"]))
    assert all(rho <= attractive_problem.M * (1 + 1e-9)
               for rho in table["max_density"])
    path = tmp_path / "diag.csv"
    diag.write_diagnostics_csv(table, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(table)


# -- entropy ---------------------------------------------------------------

def test_entropy_static_zero_force_vanishes():
    p = pm.Problem(pm.power_cap_mobility(1.0),
                   pm.Potentials(pm.zero_potential(), pm.no_interaction()),
                   pm.parabolic_bump())
    s = pm.quantile_partition(p.initial, 20)
    traj = pm.integrate(s, p, 0.5, dt=0.05)
    fields = traj.fields
    phi = diag.BumpTestFunction(0.0, 1.5, 0.5)
    for c in (0.25, 0.6, 1.0):
        r = diag.entropy_residual(fields, p, c, phi)
        assert r == pytest.approx(0.0, abs=1e-12)


def test_entropy_level_above_cap_vanishes():
    # theta(c) = 0 at the cap and the force is zero: every flux term drops
    p = pm.Problem(pm.power_cap_mobility(1.0),
                   pm.Potentials(pm.zero_potential(), pm.no_interaction()),
                   pm.parabolic_bump())
    s = pm.quantile_partition(p.initial, 20)
    traj = pm.integrate(s, p, 0.5, dt=0.05)
    fields = traj.fields
    phi = diag.BumpTestFunction(0.3, 1.0, 0.5)
    assert diag.entropy_residual(fields, p, 1.0, phi) == \
        pytest.approx(0.0, abs=1e-12)


def test_entropy_positive_level_required(short_attractive_run,
                                         attractive_problem):
    fields = short_attractive_run.fields
    phi = diag.BumpTestFunction(0.0, 1.0, float(fields.times[-1]))
    with pytest.raises(ValueError):
        diag.entropy_residual(fields, attractive_problem, -0.5, phi)


def test_entropy_reduction_particle_vs_reference(reduction_problem):
    # the particle run and the independent grid run must both produce only
    # mildly negative residuals, within the reference's discretisation error
    p = reduction_problem
    s = pm.quantile_partition(p.initial, 100)
    traj = pm.integrate(s, p, 0.4, store_every=4)
    fields = traj.fields
    _, fv_fields = pm.fv_solve(p, (-2.0, 2.0), 4e-3, 0.4,
                               store_times=np.linspace(0, 0.4, 81))
    phis = diag.standard_bump_grid(0.4, -1.5, 1.5)
    cs = [0.25, 0.5, 0.75]
    table_particle = diag.entropy_report(fields, p, cs, phis)
    table_fv = diag.entropy_report(fv_fields, p, cs, phis)
    assert min(table_particle["residual"]) >= -2e-2
    assert min(table_fv["residual"]) >= -2e-2


def test_entropy_csv_schema(tmp_path):
    table = {"c": [0.25, 0.5], "phi_id": ["a", "b"], "residual": [0.1, -0.002]}
    path = tmp_path / "entropy.csv"
    diag.write_entropy_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "c,phi_id,residual"
    assert lines[1:] == ["0.25,a,0.1", "0.5,b,-0.002"]
