"""End-to-end acceptance checks.

Every test here implements one release criterion at its stated tolerance
and prints a single PASS line with the measured numbers.  Shared
trajectories are built once per module; all tolerances are fixed in this
file, nothing is calibrated at run time.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import partmob as pm
from partmob import diagnostics as diag
from partmob import forces
from partmob.cli import _aligned_run, space_time_l1
from partmob.fv import l1_compare_exact
from partmob.variational import (_rate_series, edb_series, free_energy,
                                 reconstructed_energy)

BUMP = dict(amplitude=0.75, center=0.0, radius=1.0)


def attractive():
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.zero_potential(), pm.newtonian(True)),
                      pm.parabolic_bump(**BUMP))


def repulsive_confined():
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.quadratic_potential(1.0),
                                    pm.newtonian(False)),
                      pm.parabolic_bump(**BUMP))


def repulsive_free():
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.zero_potential(), pm.newtonian(False)),
                      pm.parabolic_bump(**BUMP))


def reduction():
    return pm.Problem(pm.power_cap_mobility(1.0),
                      pm.Potentials(pm.linear_potential(-1.0),
                                    pm.no_interaction()),
                      pm.parabolic_bump(**BUMP))


@dataclass
class Runs:
    problems: dict = field(default_factory=dict)
    trajectories: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)
    elapsed: dict = field(default_factory=dict)

    def add(self, name, problem, n, t_end, **kw):
        t0 = time.perf_counter()
        state = pm.quantile_partition(problem.initial, n)
        traj = pm.integrate(state, problem, t_end, **kw)
        self.problems[name] = problem
        self.trajectories[name] = traj
        self.fields[name] = traj.fields
        self.elapsed[name] = time.perf_counter() - t0


@pytest.fixture(scope="module")
def runs():
    r = Runs()
    r.add("attractive", attractive(), 200, 1.0, dt=1e-3)
    r.add("attractive_coarse", attractive(), 200, 1.0, dt=2e-3)
    r.add("repulsive_confined", repulsive_confined(), 200, 1.0, dt=1e-3)
    r.add("repulsive_confined_coarse", repulsive_confined(), 200, 1.0, dt=2e-3)
    r.add("repulsive_free", repulsive_free(), 200, 1.0, dt=1e-3)
    r.add("reduction_200", reduction(), 200, 0.5, store_every=4)
    r.add("reduction_400", reduction(), 400, 0.5, store_every=8)
    return r


FIGURE_RUNS = ("attractive", "repulsive_confined", "repulsive_free")


def test_criterion_1_cell_lower_bound(runs):
    traj = runs.trajectories["attractive"]
    problem = runs.problems["attractive"]
    report = pm.check_cell_bounds(traj)
    assert report.min_width_ratio >= 1.0 - 1e-6
    assert runs.elapsed["attractive"] < 30.0
    print(f"PASS criterion 1: min cell width ratio "
          f"{report.min_width_ratio:.9f} >= 1 - 1e-6 "
          f"({runs.elapsed['attractive']:.2f}s)")


def test_criterion_2_energy_dissipation_balance(runs):
    t0 = time.perf_counter()
    lines = []
    for name in ("attractive", "repulsive_confined"):
        traj = runs.trajectories[name]
        problem = runs.problems[name]
        residual = pm.edb_residual(traj)
        f0 = free_energy(traj.state_at(0), problem.potentials)
        tol = 1e-6 * (abs(f0) + 1.0)
        assert residual <= tol
        coarse = pm.edb_residual(runs.trajectories[name + "_coarse"])
        ratio = coarse / residual
        assert ratio >= 8.0
        lines.append(f"{name}: residual={residual:.3e} (tol {tol:.3e}), "
                     f"halving ratio {ratio:.1f}")
    spent = (time.perf_counter() - t0 + runs.elapsed["attractive"]
             + runs.elapsed["attractive_coarse"]
             + runs.elapsed["repulsive_confined"]
             + runs.elapsed["repulsive_confined_coarse"])
    assert spent < 120.0
    print(f"PASS criterion 2: {'; '.join(lines)} ({spent:.2f}s)")


def test_criterion_3_fenchel_young_equality(runs):
    worst = 0.0
    for name in FIGURE_RUNS:
        r, r_star = _rate_series(runs.trajectories[name])
        gap = np.abs(r - r_star) / (1.0 + r_star)
        worst = max(worst, float(np.max(gap)))
        assert np.all(gap <= 1e-10)
    print(f"PASS criterion 3: max relative duality gap {worst:.2e} <= 1e-10")


def test_criterion_4_energy_monotone_and_norm_trends(runs):
    for name in FIGURE_RUNS:
        traj = runs.trajectories[name]
        _, energies, *_ = edb_series(traj)
        assert np.all(np.diff(energies) <= 1e-8)
    fields = runs.fields["attractive"]
    h1 = np.array([diag.h1_proxy(fields.edges[k], fields.densities[k])
                   for k in range(len(fields.times))])
    masses = fields.masses()
    bv = np.array([masses[k] + diag.total_variation(fields.densities[k])
                   for k in range(len(fields.times))])
    checkpoints = np.linspace(0, len(fields.times) - 1, 5).astype(int)
    assert np.all(np.diff(h1[checkpoints]) > 0)
    assert np.max(bv) <= 3.0 * bv[0]
    print(f"PASS criterion 4: energies non-increasing on all runs; "
          f"h1 {h1[0]:.3g} -> {h1[-1]:.3g} rising, "
          f"bv max/initial {np.max(bv) / bv[0]:.3f} <= 3")


def test_criterion_5_mass_conservation(runs):
    worst = 0.0
    for name, fields in runs.fields.items():
        for mass in fields.masses():
            drift = abs(mass - fields.mass) / fields.mass
            worst = max(worst, drift)
            assert drift <= 1e-12
    print(f"PASS criterion 5: worst relative mass drift {worst:.2e} <= 1e-12")


def test_criterion_6_oracle_agreement(runs):
    t0 = time.perf_counter()
    problem = runs.problems["reduction_400"]
    fields = runs.fields["reduction_400"]
    _, fv_fields = pm.fv_solve(problem, (-2.5, 2.5), 1e-3, 0.5,
                               store_times=[0.5])
    err = pm.l1_compare(fields, fv_fields, 0.5)
    assert err <= 0.05 * fields.mass

    mob = problem.mobility
    ratios = {}
    for case, (rl, rr) in {"shock": (0.2, 0.8),
                           "rarefaction": (0.8, 0.2)}.items():
        errs = []
        for nx in (250, 500):
            pr = pm.Problem(mob, problem.potentials,
                            pm.piecewise_constant_density(
                                [-1.0, 0.0, 1.0], [rl, rr]))
            grid, _ = pm.fv_solve(pr, (-1.0, 1.0), 1.0 / nx, 0.25,
                                  boundary="outflow")
            errs.append(l1_compare_exact(
                grid, lambda x: pm.riemann_exact(mob, rl, rr, x / 0.25)))
        ratios[case] = errs[0] / errs[1]
        assert 1.6 <= ratios[case] <= 2.4
    spent = time.perf_counter() - t0 + runs.elapsed["reduction_400"]
    assert spent < 120.0
    print(f"PASS criterion 6: particle-vs-reference L1 {err:.4f} <= 0.05; "
          f"reference halving ratios shock {ratios['shock']:.2f}, "
          f"rarefaction {ratios['rarefaction']:.2f} in [1.6, 2.4] "
          f"({spent:.2f}s)")


def test_criterion_7_cauchy_refinement():
    t0 = time.perf_counter()
    summary = []
    for name, (problem, t_end) in {"attractive": (attractive(), 1.0),
                                   "reduction": (reduction(), 0.5)}.items():
        fields_by_n = {}
        for n in (50, 100, 200, 400):
            fields_by_n[n] = _aligned_run(problem, n, t_end).fields
        diffs = [space_time_l1(fields_by_n[n], fields_by_n[2 * n])
                 for n in (50, 100, 200)]
        assert diffs[0] > diffs[1] > diffs[2]
        summary.append(f"{name}: " + " > ".join(f"{d:.5f}" for d in diffs))
    spent = time.perf_counter() - t0
    assert spent < 300.0
    print(f"PASS criterion 7: {'; '.join(summary)} ({spent:.2f}s)")


def test_criterion_8_entropy_inequality(runs):
    t0 = time.perf_counter()
    problem = runs.problems["reduction_200"]
    cap = problem.mobility.cap
    c_values = [0.25 * cap, 0.5 * cap, 0.75 * cap]
    pad = problem.mobility.beta_max * 0.5
    phis = diag.standard_bump_grid(0.5, problem.initial.x_min - pad,
                                   problem.initial.x_max + pad)
    assert len(phis) == 9
    worst = {}
    for name in ("reduction_200", "reduction_400"):
        table = diag.entropy_report(runs.fields[name], runs.problems[name],
                                    c_values, phis)
        worst[name] = min(table["residual"])
    assert worst["reduction_200"] >= -1e-2
    assert max(0.0, -worst["reduction_400"]) <= \
        max(0.0, -worst["reduction_200"])
    spent = (time.perf_counter() - t0 + runs.elapsed["reduction_200"]
             + runs.elapsed["reduction_400"])
    assert spent < 120.0
    print(f"PASS criterion 8: min residual N=200 {worst['reduction_200']:.2e} "
          f">= -1e-2, N=400 {worst['reduction_400']:.2e} smaller in "
          f"magnitude ({spent:.2f}s)")


def _w1_all_pairs_worst(traj, bound_rate):
    """Max of W1(s,t) / (rate * |t - s|) over all stored pairs, via the
    quantile-area formula (independent of the merged-cdf route)."""
    pos = traj.positions
    times = traj.times
    m = traj.h * traj.n_cells
    worst = 0.0
    for i in range(len(times) - 1):
        d = pos[i + 1:] - pos[i]
        da, db = d[:, :-1], d[:, 1:]
        denom = np.abs(da) + np.abs(db)
        tri = np.where(da * db >= 0, 0.5 * denom,
                       0.5 * (da * da + db * db) / np.maximum(denom, 1e-300))
        w1 = (traj.h / m) * tri.sum(axis=1)
        bounds = bound_rate * (times[i + 1:] - times[i])
        worst = max(worst, float(np.max(w1 / bounds)))
    return worst


def test_criterion_9_w1_time_lipschitz(runs):
    worst_overall = 0.0
    for name in FIGURE_RUNS:
        traj = runs.trajectories[name]
        problem = runs.problems[name]
        sup_force = max(
            float(np.max(np.abs(pm.forces_for(traj.state_at(k),
                                              problem))))
            for k in range(0, len(traj.times), 10))
        rate = problem.mobility.beta_max * sup_force * (1.0 + 1e-6)
        worst = _w1_all_pairs_worst(traj, rate)
        # cross-check one pair against the merged-cdf evaluation
        fields = runs.fields[name]
        mid = len(traj.times) // 2
        direct = diag.diagnostics_records(
            fields, problem)["w1_from_initial"][mid]
        quantile_route = _w1_all_pairs_worst(
            pm.Trajectory(traj.times[[0, mid]], traj.positions[[0, mid]],
                          traj.velocities[[0, mid]], traj.h, problem),
            1.0) * float(traj.times[mid])
        assert direct == pytest.approx(quantile_route, rel=1e-10)
        assert worst <= 1.0
        worst_overall = max(worst_overall, worst)
    print(f"PASS criterion 9: max W1 / (beta_max sup|f| |t-s|) "
          f"= {worst_overall:.4f} <= 1 over all stored pairs")


def test_criterion_10_newtonian_fast_path():
    rng = np.random.default_rng(2024)
    worst = 0.0
    t0 = time.perf_counter()
    for n in (3, 10, 200):
        for sign in (True, False):
            pots = pm.Potentials(pm.quadratic_potential(0.7),
                                 pm.newtonian(sign))
            for _ in range(1000 // 2):
                positions = np.sort(rng.uniform(-3.0, 3.0, n + 1))
                positions += np.arange(n + 1) * 1e-9
                state = pm.ParticleState(positions, h=1.0 / n)
                fast = forces.force_rows(state.positions, state.h, pots)
                direct = pm.particle_forces(state, pots)
                worst = max(worst, float(np.max(np.abs(fast - direct))))
                assert worst <= 1e-12
    print(f"PASS criterion 10: max |fast - direct| = {worst:.2e} <= 1e-12 "
          f"over 1000 states per size ({time.perf_counter() - t0:.2f}s)")


def test_criterion_11_energy_consistency():
    problem = attractive()
    fitted = []
    for n in (50, 100, 200):
        state = pm.quantile_partition(problem.initial, n)
        traj = pm.integrate(state, problem, 1.0, dt=1e-3, store_every=50)
        fields = traj.fields
        h = traj.h
        worst = max(
            abs(reconstructed_energy(fields.edges[k], fields.densities[k],
                                     problem.potentials, h)
                - h * free_energy(traj.state_at(k), problem.potentials)) / h
            for k in range(len(fields.times)))
        fitted.append(worst)
    spread = max(fitted) / min(fitted)
    assert spread < 2.0
    print(f"PASS criterion 11: fitted energy-consistency constants "
          f"{[round(c, 4) for c in fitted]}, spread {spread:.3f} < 2")
