import csv
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import partmob as pm
from partmob import cli, reconstruct
from partmob import diagnostics as diag
from partmob import variational as var
from partmob.cli import space_time_l1
from partmob.model import cell_gauss, simpson
from partmob.reconstruct import (SNAPSHOT_COLUMNS, write_snapshots_csv,
                                 write_table)


def static_fields(edges, velocities=None, times=(0.0, 0.5, 1.0), h=None):
    edges = np.asarray(edges, dtype=float)
    n_cells = len(edges) - 1
    if h is None:
        h = 1.0 / n_cells
    rho = h / np.diff(edges)
    vel = np.zeros_like(edges) if velocities is None \
        else np.asarray(velocities, dtype=float)
    t = np.asarray(times)
    return pm.ReconstructedFields(
        t, np.tile(edges, (len(t), 1)), np.tile(rho, (len(t), 1)),
        np.tile(vel, (len(t), 1)), mass=h * n_cells)


def test_density_point_values():
    f = static_fields([0.0, 1.0, 2.0], h=1.0)
    assert f.density_at(0.0, 0.5)[0] == 1.0
    assert f.density_at(0.0, -3.0)[0] == 0.0
    assert f.density_at(0.0, 2.0)[0] == 0.0      # half-open at the far edge
    g = static_fields([0.0, 0.5, 2.0], h=1.0)
    assert g.density_at(0.0, 1.0)[0] == pytest.approx(2.0 / 3.0)
    assert g.density_at(0.0, 0.5)[0] == pytest.approx(2.0 / 3.0)


def test_unknown_time_rejected():
    f = static_fields([0.0, 1.0])
    with pytest.raises(KeyError):
        f.density_at(0.123, 0.5)
    with pytest.raises(KeyError):
        f.index_of(float("nan"))


@pytest.mark.parametrize("t_end", [0.5, 4.0])
@pytest.mark.parametrize("share, same", [(0.9, True), (1.1, False)])
def test_one_stored_time_tolerance(t_end, share, same):
    # index_of, converge's shared grid and the entropy check's horizon all
    # match times to within 1e-9 * max(1, |T|), T the last stored time
    off = share * 1e-9 * max(1.0, t_end)
    times = np.linspace(0.0, t_end, 5)
    edges = [0.0, 0.5, 1.0]
    fields = static_fields(edges, times=times)
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         pm.Potentials(pm.zero_potential(),
                                       pm.no_interaction()),
                         pm.parabolic_bump())
    checks = [
        lambda: fields.index_of(t_end + off),
        lambda: space_time_l1(fields, static_fields(edges, times=times + off)),
        lambda: diag.entropy_report(fields, problem, [0.5],
                                    [diag.BumpTestFunction(0.5, 0.3,
                                                           t_end + off)]),
    ]
    for check in checks:
        if same:
            check()
        else:
            with pytest.raises((KeyError, reconstruct.TimeGridMismatch)):
                check()


def test_mass_constant_along_run(short_attractive_run):
    fields = short_attractive_run.fields
    for mass in fields.masses():
        assert mass == pytest.approx(fields.mass, rel=1e-12)


def continuity_defect(fields, phi, dphi):
    """Weak-form defect ``|<phi, rho_T> - <phi, rho_0> - int <phi', j>|``
    of the reconstruction over the whole run: Gauss order 4 per cell in
    space, composite Simpson on the stored grid in time."""
    def moment(k, fn, flux=False):
        nodes, weights = cell_gauss(fields.edges[k])
        vals = fn(nodes)
        if flux:
            vals = vals * np.interp(nodes, fields.edges[k],
                                    fields.edge_velocities[k])
        return np.sum(fields.densities[k][:, None] * weights * vals)
    series = [moment(k, dphi, flux=True) for k in range(len(fields.times))]
    change = moment(-1, phi) - moment(0, phi)
    return abs(change - simpson(np.array(series), fields.times))


def test_continuity_constant_test_function(short_attractive_run):
    fields = short_attractive_run.fields
    r = continuity_defect(fields, lambda x: np.ones_like(x),
                          lambda x: np.zeros_like(x))
    assert r == pytest.approx(0.0, abs=1e-13)


def test_continuity_static_any_test_function():
    f = static_fields([0.0, 0.4, 1.0])
    r = continuity_defect(f, lambda x: np.sin(3 * x),
                          lambda x: 3 * np.cos(3 * x))
    assert r == pytest.approx(0.0, abs=1e-14)


def test_continuity_center_of_mass(attractive_problem):
    s = pm.quantile_partition(attractive_problem.initial, 100)
    traj = pm.integrate(s, attractive_problem, 1.0, dt=1e-3)
    fields = traj.fields
    r = continuity_defect(fields, lambda x: x, lambda x: np.ones_like(x))
    m = fields.mass
    support = fields.edges[0][-1] - fields.edges[0][0]
    assert r <= 1e-4 * m * support
    # cross-check against the particle first-moment balance
    moments = traj.h * np.sum(traj.positions[:, :-1]
                              + 0.5 * np.diff(traj.positions, axis=1), axis=1)
    assert abs(moments[-1] - moments[0]) <= 1e-3


def test_flux_total_variation_bound(short_attractive_run):
    traj = short_attractive_run
    fields = traj.fields
    for k in range(0, len(fields.times), 20):
        t = float(fields.times[k])
        edges = fields.edges[k]
        xs = np.linspace(edges[0], edges[-1], 4001)
        # density times the velocity interpolated between the edges
        flux = fields.density_at(t, xs) * np.interp(
            xs, edges, fields.edge_velocities[k])
        flux_l1 = np.trapezoid(np.abs(flux), xs)
        sup_u = np.max(np.abs(fields.edge_velocities[k]))
        assert flux_l1 <= fields.mass * sup_u * (1.0 + 1e-6) + 1e-12


def test_snapshot_csv_schema(tmp_path, short_attractive_run):
    fields = short_attractive_run.fields
    path = tmp_path / "snap.csv"
    pm.write_snapshots_csv(fields, path, time_indices=[0, len(fields.times) - 1])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == SNAPSHOT_COLUMNS
    assert len(rows) - 1 == 2 * fields.n_cells
    # rows reproduce the stored profile exactly via repr round-trip
    assert float(rows[1][3]) == fields.densities[0, 0]


# reference: the csv.writer + per-cell repr formulation the snapshot
# writers must keep reproducing byte for byte
def csv_writer_snapshots(path, snapshots):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(SNAPSHOT_COLUMNS)
        for t, edges, rho, vel in snapshots:
            for i in range(len(rho)):
                out.writerow([repr(float(t)),
                              repr(float(edges[i])), repr(float(edges[i + 1])),
                              repr(float(rho[i])),
                              repr(float(vel[i])), repr(float(vel[i + 1]))])


def with_extreme_values(fields):
    # signed zero, the smallest subnormal and a huge value in every column
    edges = fields.edges.copy()
    edges[0, :3] = [-0.0, 5e-324, 1e300]
    rho = fields.densities.copy()
    rho[-1, :3] = [1e300, -0.0, 5e-324]
    vel = fields.edge_velocities.copy()
    vel[1, -3:] = [5e-324, 1e300, -0.0]
    times = fields.times.copy()
    times[1] = 5e-324
    return pm.ReconstructedFields(times, edges, rho, vel, fields.mass)


@pytest.mark.parametrize("subset", [None, [0, 1, 7, 3, -1]])
def test_snapshot_bytes_match_csv_writer(tmp_path, short_attractive_run,
                                         subset):
    fields = short_attractive_run.fields
    fields = with_extreme_values(fields)
    path, ref = tmp_path / "snap.csv", tmp_path / "ref.csv"
    pm.write_snapshots_csv(fields, path, time_indices=subset)
    indices = range(len(fields.times)) if subset is None else subset
    csv_writer_snapshots(ref, [(fields.times[k], fields.edges[k],
                                fields.densities[k], fields.edge_velocities[k])
                               for k in indices])
    assert path.read_bytes() == ref.read_bytes()


def test_fv_snapshot_bytes_match_csv_writer(tmp_path):
    edges = np.array([-0.0, 5e-324, 0.25, 1e300])
    profiles = np.array([[0.5, -0.0, 1e300], [5e-324, 0.75, 1.0 / 3.0]])
    zeros = np.zeros(len(edges))
    fields = pm.ReconstructedFields(np.array([0.0, 0.1]),
                                    np.broadcast_to(edges, (2, len(edges))),
                                    profiles, np.zeros((2, len(edges))),
                                    mass=1.0)
    path, ref = tmp_path / "fv.csv", tmp_path / "ref.csv"
    write_snapshots_csv(fields, path)
    csv_writer_snapshots(ref, [(t, edges, rho, zeros)
                               for t, rho in zip(fields.times, profiles)])
    assert path.read_bytes() == ref.read_bytes()


# -- the snapshot rows on two processes ---------------------------------------
# From cli.RUN_FORK_MIN values on, run formats the first half of the stored
# times into snapshots.csv and a forked worker the second half into a
# temporary file, appended after the join (cli._on_two_cpus); both paths
# must give the csv.writer bytes, and no write may leave a child process or
# a temporary file behind.

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the platform does not fork")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def snapshot_reference(path, fields, indices):
    csv_writer_snapshots(path, [(fields.times[k], fields.edges[k],
                                 fields.densities[k], fields.edge_velocities[k])
                                for k in indices])
    return path.read_bytes()


def on_two_cpus(fields, path):
    """snapshots.csv of ``fields`` at ``path`` by run's split, with neither
    diagnostics nor energy balance: the split then reads only the run's
    times and fields."""
    run = SimpleNamespace(times=fields.times, fields=fields)
    cli._on_two_cpus(run, path, norms=False, edb=False)


@pytest.fixture
def forked(monkeypatch):
    """The list of fork calls."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@needs_fork
@pytest.mark.parametrize("subset", [None, range(100), [0, 1, 7, 3, -1],
                                    [5]])
@pytest.mark.parametrize("two_processes", [True, False])
def test_snapshot_bytes_on_one_and_two_processes(
        tmp_path, short_attractive_run, request, subset, two_processes):
    # 101 stored times, then an even count, a subset and one stored time
    # (the worker's half is empty)
    fields = with_extreme_values(short_attractive_run.fields)
    assert len(fields.times) == 101
    indices = range(len(fields.times)) if subset is None else subset
    calls = []
    path = tmp_path / "snap.csv"
    if two_processes:
        calls = request.getfixturevalue("forked")
        rows = list(indices)
        on_two_cpus(pm.ReconstructedFields(
            fields.times[rows], fields.edges[rows], fields.densities[rows],
            fields.edge_velocities[rows], fields.mass), path)
    else:
        write_snapshots_csv(fields, path, time_indices=subset)
    expected = snapshot_reference(tmp_path / "ref.csv", fields, indices)
    assert path.read_bytes() == expected
    assert len(calls) == two_processes
    assert_no_child()


@needs_fork
def test_snapshot_worker_failure_is_redone_by_the_caller(
        tmp_path, short_attractive_run, monkeypatch, forked):
    fields = short_attractive_run.fields
    caller = os.getpid()
    rows = reconstruct.write_snapshot_rows

    def fails_in_worker(fh, fields, indices):
        if os.getpid() != caller:
            raise RuntimeError("worker failure")
        rows(fh, fields, indices)

    monkeypatch.setattr(cli, "write_snapshot_rows", fails_in_worker)
    path = tmp_path / "snap.csv"
    on_two_cpus(fields, path)
    expected = snapshot_reference(tmp_path / "ref.csv", fields,
                                  range(len(fields.times)))
    assert path.read_bytes() == expected
    assert forked == [caller]
    assert_no_child()


@needs_fork
def test_snapshot_fork_failure_writes_in_one_process(
        tmp_path, short_attractive_run, monkeypatch, forked):
    def no_process():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    fields = short_attractive_run.fields
    path = tmp_path / "snap.csv"
    on_two_cpus(fields, path)
    expected = snapshot_reference(tmp_path / "ref.csv", fields,
                                  range(len(fields.times)))
    assert path.read_bytes() == expected
    assert sorted(os.listdir(tmp_path)) == ["ref.csv", "snap.csv"]


@needs_fork
def test_snapshot_caller_failure_propagates_and_reaps_the_worker(
        tmp_path, short_attractive_run, monkeypatch, forked):
    caller = os.getpid()
    rows = reconstruct.write_snapshot_rows

    def fails_in_caller(fh, fields, indices):
        if os.getpid() == caller:
            raise RuntimeError("caller failure")
        rows(fh, fields, indices)

    # the caller's rows go through write_snapshots_csv, the worker's not
    monkeypatch.setattr(reconstruct, "write_snapshot_rows", fails_in_caller)
    with pytest.raises(RuntimeError, match="caller failure"):
        on_two_cpus(short_attractive_run.fields, tmp_path / "s.csv")
    assert forked == [caller]
    assert_no_child()
    assert os.listdir(tmp_path) == ["s.csv"]


@needs_fork
def test_snapshot_worker_prints_nothing_twice_and_leaves_no_file(
        tmp_path, short_attractive_run, capfd, forked):
    print("partial line", end="")
    print("partial error", end="", file=sys.stderr)
    on_two_cpus(short_attractive_run.fields, tmp_path / "snap.csv")
    out, err = capfd.readouterr()
    assert (out, err) == ("partial line", "partial error")
    assert len(forked) == 1
    assert os.listdir(tmp_path) == ["snap.csv"]
    assert_no_child()


@pytest.mark.parametrize("limit", ["no fork", "one CPU", "two threads"])
def test_snapshot_writer_stays_inline_when_it_cannot_fork(
        tmp_path, short_attractive_run, monkeypatch, capsys, limit):
    if limit == "no fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    if limit == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    if limit == "two threads":
        monkeypatch.setattr(threading, "active_count", lambda: 2)
    monkeypatch.setattr(cli, "RUN_FORK_MIN", 0)
    monkeypatch.setattr(cli, "run_trajectory",
                        lambda resolved: short_attractive_run)
    assert not cli._can_fork()
    config = tmp_path / "run.cfg"
    config.write_text("discretization.N = 40\ndiagnostics.norms = false\n"
                      "diagnostics.edb = false\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out-dir", str(out),
                     "run"]) == cli.EXIT_OK
    fields = short_attractive_run.fields
    assert (out / "snapshots.csv").read_bytes() == snapshot_reference(
        tmp_path / "ref.csv", fields, range(len(fields.times)))


# reference: the csv.writer + explicit repr formulation of the old row
# writers, one formatter per column, that write_table must keep
# reproducing byte for byte
def csv_writer_table(path, columns, formats, rows):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(columns)
        for row in rows:
            out.writerow([fmt(v) for fmt, v in zip(formats, row)])


def float_repr(v):
    return repr(float(v))


def same_value(v):
    return v


EXTREMES = (-0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5e-7)


def extreme_rows(n_columns, n_rows=len(EXTREMES)):
    return [[EXTREMES[(i + k) % len(EXTREMES)] for i in range(n_columns)]
            for k in range(n_rows)]


DIAGNOSTICS_HEADER = ("t", "mass", "bv", "tv", "h1", "w1_from_initial",
                      "support", "max_density", "min_cell_ratio")
GRADIENT_HEADER = ("t", "F_h", "Fhat_h", "R_h", "R_h_star", "D_h",
                   "edb_partial")

# schema -> (header, per-column formatter of the old writer, rows, writer,
# column type); the diagnostics and variational tables hold numpy arrays
TABLE_SCHEMAS = {
    "diagnostics": (DIAGNOSTICS_HEADER, (repr,) * 9, extreme_rows(9),
                    diag.write_diagnostics_csv, np.array),
    "variational": (GRADIENT_HEADER, (repr,) * 7, extreme_rows(7),
                    var.write_gradient_csv, np.array),
    "entropy": (("c", "phi_id", "residual"),
                (float_repr, same_value, float_repr),
                [(c, label, res) for (c, res), label in zip(
                    extreme_rows(2), ["a=-0.5,r=0.2", "a=1e+300,r=5e-324",
                                      "3", 'q"uote', "plain"])],
                diag.write_entropy_csv, list),
    "refinement": (("N", "cauchy_diff", "bv_max", "edb_residual"),
                   (same_value,) + (repr,) * 3,
                   [(n, *r) for n, r in zip((50, 100, 200, 400, 800),
                                            extreme_rows(3))],
                   None, list),
    # numpy floats where the old writer converted with float()
    "oracle_compare": (("t", "l1_error"), (float_repr,) * 2,
                       extreme_rows(2) + [(np.float64(0.5), np.float64(-0.0))],
                       None, list),
}


@pytest.mark.parametrize("schema", sorted(TABLE_SCHEMAS))
def test_table_bytes_match_csv_writer(tmp_path, schema):
    columns, formats, rows, writer, column = TABLE_SCHEMAS[schema]
    table = {name: column(values) for name, values in zip(columns, zip(*rows))}
    path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    if writer is None:
        write_table(path, table)
    else:
        writer(table, path)
    csv_writer_table(ref, columns, formats, rows)
    assert path.read_bytes() == ref.read_bytes()
