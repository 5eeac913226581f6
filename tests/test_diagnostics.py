import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob import diagnostics as diag
from partmob.forces import BLOCK_ELEMENTS, continuum_force, step_values
from partmob.model import GAUSS_NODES, GAUSS_WEIGHTS, simpson

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


def w1_from_initial(fields):
    # the diagnostics table's W1 column; the problem only scales min_cell_ratio
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         pm.Potentials(pm.zero_potential(),
                                       pm.no_interaction()),
                         pm.parabolic_bump())
    return diag.diagnostics_records(fields, problem)["w1_from_initial"]


def test_w1_same_time_is_zero(short_attractive_run):
    assert w1_from_initial(short_attractive_run.fields)[0] == 0.0


def test_w1_translation_identity():
    base = np.array([0.0, 0.5, 1.0])
    for delta in (0.25, 1.5):
        f = pm.ReconstructedFields(
            np.array([0.0, 1.0]),
            np.stack([base, base + delta]),
            np.ones((2, 2)) * 1.0,
            np.zeros((2, 3)), mass=1.0)
        assert w1_from_initial(f)[1] == pytest.approx(delta, abs=1e-12)


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
    exact = w1_from_initial(f)[1]
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
        return w1_from_initial(g)[1]
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
        r = diag.entropy_report(fields, p, [c], [phi])["residual"][0]
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
    assert diag.entropy_report(fields, p, [1.0], [phi])["residual"][0] == \
        pytest.approx(0.0, abs=1e-12)


def test_entropy_positive_level_required(short_attractive_run,
                                         attractive_problem):
    fields = short_attractive_run.fields
    phi = diag.BumpTestFunction(0.0, 1.0, float(fields.times[-1]))
    with pytest.raises(ValueError):
        diag.entropy_report(fields, attractive_problem, [-0.5], [phi])


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


# -- entropy residuals over blocks of stored times --------------------------
# The report builds the panel nodes of a block of stored times as one flat
# array; the reference below is the per-stored-time loop it replaced, kept
# here so the blocked path is pinned to its bits.

def reference_residuals(fields, problem, c_values, phi, time_stride=1):
    c_values = np.asarray(c_values, dtype=float)
    lo, hi = phi.support
    mob = problem.mobility
    theta_c = mob.theta(c_values)
    max_len = (hi - lo) / 64.0
    indices = list(range(0, len(fields.times), time_stride))
    if indices[-1] != len(fields.times) - 1:
        indices.append(len(fields.times) - 1)

    def panel_nodes(edges):
        cuts = edges[(edges > lo) & (edges < hi)]
        brk = np.concatenate([[lo], cuts, [hi]])
        a, b = brk[:-1], brk[1:]
        n_sub = np.maximum(1, np.ceil((b - a) / max_len).astype(int))
        seg = np.repeat(np.arange(len(a)), n_sub)
        offsets = np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
        k = np.arange(len(seg)) - offsets
        width = (b - a) / n_sub
        starts = a[seg] + k * width[seg]
        mids = starts + 0.5 * width[seg]
        halves = 0.5 * width[seg]
        nodes = (mids[:, None] + halves[:, None] * GAUSS_NODES[None, :]).ravel()
        weights = (halves[:, None] * GAUSS_WEIGHTS[None, :]).ravel()
        return nodes, weights

    def bump(x):
        u = (x - phi.center) / phi.radius
        return np.maximum(1.0 - u * u, 0.0) ** 3

    def phi_dx(t, x):
        u = (x - phi.center) / phi.radius
        core = np.maximum(1.0 - u * u, 0.0)
        return (1.0 - t / phi.t_end) * 3.0 * core**2 * (-2.0 * u / phi.radius)

    series = np.empty((len(indices), len(c_values)))
    for row, k in enumerate(indices):
        t = float(fields.times[k])
        edges, rho = fields.edges[k], fields.densities[k]
        nodes, weights = panel_nodes(edges)
        rho_n = step_values(edges, rho, nodes)
        force, dforce = continuum_force(edges, rho, fields.mass,
                                        problem.potentials, nodes)
        theta_n = mob.theta(rho_n)
        phi_t = -bump(nodes) / phi.t_end * weights
        phi_x = phi_dx(t, nodes) * force * weights
        phi_v = (1.0 - t / phi.t_end) * bump(nodes) * dforce * weights
        for j, c in enumerate(c_values):
            sign = np.sign(rho_n - c)
            series[row, j] = np.sum(
                np.abs(rho_n - c) * phi_t
                - sign * ((theta_n - theta_c[j]) * phi_x - theta_c[j] * phi_v))
    bulk = simpson(series, fields.times[indices], axis=0)
    nodes, weights = panel_nodes(fields.edges[0])
    rho_n = step_values(fields.edges[0], fields.densities[0], nodes)
    phi0 = (1.0 - float(fields.times[0]) / phi.t_end) * bump(nodes) * weights
    initial = np.array([np.sum(np.abs(rho_n - c) * phi0) for c in c_values])
    return initial + bulk


def morse_problem():
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.zero_potential(),
                                    pm.morse(1.0, 1.0, 0.5, 0.3)),
                      pm.parabolic_bump())


def assert_report_matches_reference(fields, problem, phis, time_stride):
    cs = [0.25, 0.5, 0.75]
    table = diag.entropy_report(fields, problem, cs, phis,
                                time_stride=time_stride)
    expected = np.concatenate([reference_residuals(fields, problem, cs, phi,
                                                   time_stride)
                               for phi in phis])
    assert np.array(table["residual"]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("stride", [1, 3, 7])
@pytest.mark.parametrize("kind", ["zero", "attractive", "morse"])
def test_blocked_entropy_report_keeps_the_per_time_bits(
        kind, stride, reduction_problem, attractive_problem):
    # 101 stored times: strides 3 and 7 append the last one; at N = 40 a
    # block holds 19 stored times, so every run spans several blocks
    problem, n_cells = {"zero": (reduction_problem, 40),
                        "attractive": (attractive_problem, 40),
                        "morse": (morse_problem(), 12)}[kind]
    state = pm.quantile_partition(problem.initial, n_cells)
    fields = pm.integrate(state, problem, 0.2, dt=2e-3).fields
    assert len(fields.times) == 101
    phis = diag.standard_bump_grid(0.2, -1.2, 1.2)
    assert_report_matches_reference(fields, problem, phis, stride)


def test_blocked_entropy_report_with_an_edge_at_the_support_end(
        reduction_problem):
    # cells of width 1/16 on (-2, 2): the bump's support ends 0.25 and 0.75
    # are grid edges exactly, where the strict cut test drops them
    _, fields = pm.fv_solve(reduction_problem, (-2.0, 2.0), 0.0625, 0.25,
                            store_times=np.linspace(0.0, 0.25, 6))
    t_end = float(fields.times[-1])
    phi = diag.BumpTestFunction(0.5, 0.25, t_end)
    assert {0.25, 0.75} <= set(fields.edges[0].tolist())
    assert_report_matches_reference(fields, reduction_problem, [phi], 1)


def test_blocked_entropy_report_with_edges_one_ulp_inside_the_support(
        reduction_problem):
    # lo's last mantissa bit is odd, so every node of the one-ulp segment
    # [lo, lo+] rounds onto the edge lo+ and lies in the cell right of it;
    # at hi, the one-ulp segment's nodes round onto the edge hi
    phi = diag.BumpTestFunction(0.1, 0.35, 0.25)
    lo, hi = phi.support
    cuts = [np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf), hi]
    edges = np.sort(np.concatenate([np.linspace(-0.5, 0.7, 13), cuts]))
    rho = np.random.default_rng(3).uniform(0.2, 1.0, len(edges) - 1)
    times = np.linspace(0.0, 0.25, 6)
    fields = pm.ReconstructedFields(
        times, np.tile(edges, (6, 1)), np.tile(rho, (6, 1)),
        np.zeros((6, len(edges))), mass=1.0)
    nodes, _, offsets, rho_n = diag._panel_nodes(fields.edges[:2], lo, hi,
                                                 0.02, fields.densities[:2])
    assert np.all(nodes[:4] == cuts[0]) and np.all(nodes[-4:] == hi)
    for r in range(2):
        i, j = offsets[r], offsets[r + 1]
        assert rho_n[i:j].tobytes() == step_values(edges, rho,
                                                   nodes[i:j]).tobytes()
    assert_report_matches_reference(fields, reduction_problem, [phi], 1)


def test_panel_nodes_of_a_block_are_its_rows_concatenated(
        short_attractive_run):
    fields = short_attractive_run.fields
    edges = fields.edges[::10]
    nodes, weights, offsets = diag._panel_nodes(edges, -0.6, 0.8, 0.02)
    assert offsets[0] == 0 and offsets[-1] == len(nodes)
    for row, i, j in zip(edges, offsets[:-1], offsets[1:]):
        one, one_w, one_off = diag._panel_nodes(row, -0.6, 0.8, 0.02)
        assert one_off.tolist() == [0, len(one)]
        assert nodes[i:j].tobytes() == one.tobytes()
        assert weights[i:j].tobytes() == one_w.tobytes()


def test_entropy_report_transient_stays_within_its_block_budget(
        reduction_problem):
    # a block holds at most BLOCK_ELEMENTS / 2 panel nodes and about a
    # dozen node arrays are alive at once; all 101 stored times in one
    # block would take about 7 MB here
    state = pm.quantile_partition(reduction_problem.initial, 200)
    fields = pm.integrate(state, reduction_problem, 0.2, dt=2e-3).fields
    phi = diag.BumpTestFunction(0.0, 1.5, float(fields.times[-1]))
    budget = 12 * 8 * (BLOCK_ELEMENTS // 2)
    tracemalloc.start()
    try:
        diag.entropy_report(fields, reduction_problem, [0.25, 0.5, 0.75],
                            [phi])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget
