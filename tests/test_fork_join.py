"""The fork harness (``partmob.cpus``), and every fork case with a
property of its own.  The harness runs every forked path: run's
stored-time split on |x|, Morse and W = 0, the second stage of edb-check,
converge, oracle-compare and entropy-check, and integrate's pair worker.  On each, forced on and off give the same CSV
bytes, stdout, stderr and exit code, the path's own; the worker exits as
declared; a failing worker or fork is redone by the caller; a failing or
interrupted caller reaps the worker and leaves no temporary file; one
allowed CPU, no ``os.fork`` and a second thread fork nothing; no child is
left.  Under ``taskset -c 0`` every forced-on case runs too, with fork
counts of 0.  Then come one path's cases, fork_join's and _fork's own, the
pair worker's, and which fork each benchmark command makes."""

import ast
import os
import re
import sys
import tempfile
import threading
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partmob as pm
from partmob import cli, cpus, forces
from partmob import diagnostics as diag
from partmob import fv as fvmod
from partmob import variational as var
from partmob.cli import build_problem, parse_config
from partmob.cpus import FORK_MIN_PARTICLES, PairWorker
from partmob.forces import particle_forces
from partmob.solver import StepUnderflow

ROOT = Path(__file__).resolve().parents[1]
CAN_FORK = cpus._can_fork()
needs_fork = pytest.mark.skipif(not CAN_FORK,
                                reason="no second CPU, or no os.fork")
needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no CPU affinity")

BASE = """
problem.mobility.kind = power_cap
problem.V.kind = quadratic
problem.V.coeff = 0.5
problem.initial.kind = parabolic_bump
discretization.N = 24
discretization.t_end = 0.03
discretization.dt = 1e-3
"""
ABS = BASE + "problem.W.kind = newtonian_attractive\n"
MORSE = BASE + ("problem.W.kind = morse\nproblem.W.c_A = 1.0\n"
                "problem.W.ell_A = 1.0\nproblem.W.c_R = 0.5\n"
                "problem.W.ell_R = 0.3\n")
ZERO = BASE + "problem.W.kind = zero\n"
REDUCTION = """
problem.V.kind = linear
problem.V.coeff = -1.0
problem.W.kind = zero
problem.initial.kind = parabolic_bump
discretization.N = 20
discretization.t_end = 0.2
discretization.N_list = 8, 16, 32
oracle.fv_dx = 0.02
"""
RUN_FILES = ("diagnostics.csv", "snapshots.csv", "variational.csv")

# text: the config; gate: the worth_forking path forced on; sides: the
# functions that only the two sides of the fork call, which a failure
# check makes raise on one side; code, out and err: the exit code and the
# patterns of stdout and stderr; worker: the worker's exit code, None where
# the caller may kill it first; files: the CSVs, None for no directory
Fork = namedtuple("Fork", "command text overrides gate sides code out err "
                          "worker files")
RUN_SIDES = ((cli, "write_snapshots_csv"), (diag, "diagnostics_columns"),
             (var, "gradient_columns"))
STAGE = {"command": "edb-check", "text": ABS, "overrides": (),
         "gate": "stages", "sides": ((cli, "integrate"),), "code": 0,
         "out": r"edb residual: \S+ \(tolerance \S+\)\n"
                r"half-step residual: \S+  ratio=\S+\n",
         "err": "", "worker": 0, "files": ("variational.csv",)}
RUN = dict(STAGE, command="run", gate="run", sides=RUN_SIDES,
           out="run ok: 31 stored times, outputs in OUT\n", files=RUN_FILES)
PATHS = {
    "run-abs": Fork(**RUN),
    "run-morse": Fork(**dict(RUN, text=MORSE)),
    "run-zero": Fork(**dict(RUN, text=ZERO)),
    "edb-check": Fork(**STAGE),
    # one line per refinement pair of N_list
    "converge": Fork(**dict(
        STAGE, command="converge", text=REDUCTION, files=("refinement.csv",),
        out=r"(N= +\d+  cauchy=\S+  bv_max=\S+  edb=\S+\n){2}")),
    "oracle-compare": Fork(**dict(
        STAGE, command="oracle-compare", text=REDUCTION,
        sides=((cli, "integrate"), (fvmod, "fv_solve")),
        out=r"t=0\.2  l1_error=\S+\n", files=("oracle_compare.csv",))),
    "entropy-check": Fork(**dict(
        STAGE, command="entropy-check", text=REDUCTION,
        sides=((diag, "entropy_report"),), files=("entropy.csv",),
        out=r"entropy residuals: min=\S+ over 27 cases "
            r"\(9 test bumps, 3 levels\)\n")),
    # 201 particles fill 3 blocks of rows; 3 stored times stay below the
    # split, which is forced off here anyway.  The caller fills its blocks
    # by cpus' binding of _fill_pairs, or all of them by forces' own
    "pair-worker": Fork(**dict(
        RUN, text=MORSE, gate="pairs",
        sides=((cpus, "_fill_pairs"), (forces, "_fill_pairs")),
        out="run ok: 3 stored times, outputs in OUT\n",
        overrides=("discretization.N=200", "discretization.t_end=0.01",
                   "discretization.output_every=5"))),
}
# paths that end otherwise on both sides, checked for the same outputs only
ENDINGS = {
    "run-no-norms": Fork(**dict(RUN, overrides=("diagnostics.norms=false",),
                                files=("snapshots.csv", "variational.csv"))),
    "run-no-edb": Fork(**dict(RUN, overrides=("diagnostics.edb=false",),
                              files=("diagnostics.csv", "snapshots.csv"))),
    # a step far past RK4's stability limit: the balance check fails
    # (exit 2) after every CSV is written
    "run-balance": Fork(**dict(
        RUN, text=(ROOT / "configs" / "reduction.cfg").read_text(), code=2,
        out="", err=r"invariant violation: energy balance residual \S+ above "
        r"the tolerance \S+: lower discretization\.dt\n",
        overrides=("discretization.N=100", "discretization.dt=0.04",
                   "discretization.t_end=0.5",
                   "discretization.output_every=1"))),
    # densities of 1e300 square past the float range in the h1 norm: exit 3
    # with snapshots.csv alone
    "run-h1": Fork(**dict(
        RUN, text=ZERO, code=3, files=("snapshots.csv",), out="",
        err="numerical failure: h1 norm at t=0 is not finite: the densities' "
        "squares leave the float range\n",
        overrides=("problem.initial.amplitude=1e300", "discretization.N=8"))),
    "edb-check-morse": Fork(**dict(STAGE, text=MORSE)),
    # two stored times: the caller's main run fails before the output
    # directory is made, and the worker is killed
    "edb-check-too-few": Fork(**dict(
        STAGE, code=1, out="", worker=None, files=None,
        err=r"config error: edb-check needs at least three stored times; "
        r"this run stored 2: lower discretization\.dt or "
        r"discretization\.output_every\n",
        overrides=("discretization.output_every=50",))),
    # the finite-volume support reaches a window this narrow in the worker,
    # which fails; the caller runs the oracle again and fails the same way
    "oracle-compare-window": Fork(**dict(
        PATHS["oracle-compare"]._asdict(), code=3, out="", worker=1,
        files=None, err="numerical failure: support reached the window "
        "boundary; enlarge it\n",
        overrides=("oracle.window_lo=-1.05", "oracle.window_hi=1.05"))),
    # the caller's particle side rejects a time it did not store
    "oracle-compare-off-grid": Fork(**dict(
        PATHS["oracle-compare"]._asdict(), code=1, out="", worker=None,
        files=None, err=r"config error: oracle\.compare_times entry 0\.1234 "
        r"is not a stored output time\n",
        overrides=("oracle.compare_times=0.1234",))),
}
ALL = {**PATHS, **ENDINGS}
GATES = {"run": "RUN_FORK_MIN", "stages": "STAGE_FORK_MIN",
         "pairs": "FORK_MIN_PARTICLES"}


@pytest.fixture
def forks(monkeypatch):
    """The pid of every process forked, as the caller sees it, and the
    exit status of every one reaped; no child may be left at the end."""
    pids, statuses = [], []
    fork, waitpid = os.fork, os.waitpid

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def recorded_wait(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(os, "waitpid", recorded_wait)
    yield pids, statuses
    with pytest.raises(ChildProcessError):
        waitpid(-1, os.WNOHANG)


@pytest.fixture
def worker_pids(monkeypatch):
    """The pid of every cpus.PairWorker forked."""
    pids = []

    class Recorded(cpus.PairWorker):
        def __init__(self, dw, n):
            super().__init__(dw, n)
            pids.append(self.pid)

    monkeypatch.setattr(cpus, "PairWorker", Recorded)
    return pids


def no_process():
    raise BlockingIOError("fork: resource temporarily unavailable")


class Harness:
    """Runs a path's command in this process with its fork forced on or
    off, and makes one side of the fork fail."""

    def __init__(self, tmp_path, monkeypatch, capfd, forks):
        self.tmp, self.monkeypatch, self.capfd = tmp_path, monkeypatch, capfd
        self.pids, self.statuses = forks
        # where fork_join's and anything else's temporary files go
        self.scratch = tmp_path / "tmp"
        self.scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(self.scratch))

    def outputs(self, name, label, on=False):
        """(exit code, stdout, stderr, {file: bytes}) of path ``name``, into
        the output directory ``label`` (named OUT in stdout; None for the
        files where it is not made), with the path's gate forced on, every
        gate off, or for ``on=None`` the thresholds as they are."""
        path = ALL[name]
        for gate, minimum in GATES.items() if on is not None else ():
            self.monkeypatch.setattr(
                cpus, minimum, 0 if on and gate == path.gate else np.inf)
        config = self.tmp / f"{label}.cfg"
        config.write_text(path.text)
        out = self.tmp / label
        argv = ["--config", str(config), "--out-dir", str(out)]
        for item in path.overrides:
            argv += ["--override", item]
        code = cli.main(argv + [path.command])
        captured = self.capfd.readouterr()
        files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                 if out.exists() else None)
        return code, captured.out.replace(str(out), "OUT"), captured.err, files

    def assert_forks(self, n):
        assert len(self.pids) == (n if CAN_FORK else 0)
        assert list(self.scratch.iterdir()) == []

    def fail_on(self, name, side, error=RuntimeError):
        """Make the path's side functions raise ``error`` on ``side`` ("caller"
        or "worker"); a worker that raises leaves a marker file first."""
        caller = os.getpid()
        for module, attr in ALL[name].sides:
            real = getattr(module, attr)

            def failing(*args, real=real, **kwargs):
                if (os.getpid() == caller) == (side == "caller"):
                    if side == "worker":
                        (self.tmp / "worker failed").touch()
                    raise error(f"{side} failure")
                return real(*args, **kwargs)

            self.monkeypatch.setattr(module, attr, failing)

    def same_outputs(self, name):
        """The path's outputs, checked to be its own and the same forced off
        and on, and returned."""
        path = ALL[name]
        off = code, out, err, files = self.outputs(name, "off")
        assert self.pids == []
        on = self.outputs(name, "on", on=True)
        self.assert_forks(1)
        assert on == off
        if path.worker is not None:
            assert [os.waitstatus_to_exitcode(s) for s in self.statuses] \
                == [path.worker] * len(self.pids)
        assert code == path.code and (files if files is None
                                      else tuple(files)) == path.files
        assert re.fullmatch(path.out, out) and re.fullmatch(path.err, err)
        return off

    def worker_failure(self, name, failure="worker"):
        """A failing worker, or a fork that fails, leaves the outputs as
        they are without the fork."""
        off = self.outputs(name, "off")
        if failure == "fork":
            self.monkeypatch.setattr(os, "fork", no_process)
        else:
            self.fail_on(name, "worker")
        assert self.outputs(name, "on", on=True) == off
        self.assert_forks(failure == "worker")
        assert (self.tmp / "worker failed").exists() == bool(self.pids)

    def caller_failure(self, name, error=RuntimeError):
        """A failing caller propagates its exception, with the worker
        reaped and no temporary file left."""
        self.fail_on(name, "caller", error)
        with pytest.raises(error, match="caller failure"):
            self.outputs(name, "on", on=True)
        self.assert_forks(1)
        assert all(p.suffix == ".csv" for p in (self.tmp / "on").glob("*"))

    def one_process(self, name):
        """Where no process can fork, the forced-on path forks and pins
        nothing and gives the outputs without the fork."""
        pins = []
        with self.monkeypatch.context() as m:
            m.setattr(os, "sched_setaffinity",
                      lambda pid, mask: pins.append(mask))
            off = self.outputs(name, "off")
            on = self.outputs(name, "on", on=True)
        assert (on, self.pids, pins) == (off, [], [])


@pytest.fixture
def harness(tmp_path, monkeypatch, capfd, forks):
    return Harness(tmp_path, monkeypatch, capfd, forks)


@pytest.mark.parametrize("name", ALL)
def test_forced_on_and_off_give_the_same_outputs(name, harness):
    harness.same_outputs(name)


@pytest.mark.parametrize("failure", ["worker", "fork"])
@pytest.mark.parametrize("name", PATHS)
def test_a_failing_worker_is_redone_by_the_caller(name, failure, harness):
    harness.worker_failure(name, failure)


@pytest.mark.parametrize("name", PATHS)
def test_a_failing_caller_reaps_the_worker(name, harness):
    harness.caller_failure(name)


@pytest.mark.parametrize("name", PATHS)
def test_an_interrupted_caller_reaps_the_worker(name, harness):
    harness.caller_failure(name, KeyboardInterrupt)


@pytest.fixture
def pinned(request):
    """This process pinned to ``request.param`` of its allowed CPUs, as on
    a host with that many; its affinity is restored after the test."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) < request.param:
        pytest.skip(f"fewer than {request.param} allowed CPUs")
    cpu_set = set(sorted(allowed)[:request.param])
    os.sched_setaffinity(0, cpu_set)
    yield cpu_set
    os.sched_setaffinity(0, allowed)


@needs_affinity
@pytest.mark.parametrize("pinned", [1], indirect=True)
def test_one_allowed_cpu_forks_and_pins_nothing(pinned, harness):
    for name in PATHS:
        harness.one_process(name)
    assert os.sched_getaffinity(0) == pinned


@pytest.mark.parametrize("limit", ["no fork", "two threads"])
def test_a_process_that_cannot_fork_runs_every_path_here(limit, harness,
                                                         monkeypatch):
    if limit == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert not cpus._can_fork()
    for name in PATHS:
        harness.one_process(name)


# -- the cases of one path ------------------------------------------------

@pytest.mark.parametrize("threshold, n_forks", [(775, 1), (776, 0)])
def test_the_run_threshold_counts_particle_rows(threshold, n_forks, harness,
                                                monkeypatch):
    # 31 stored times x (24 + 1) particles
    monkeypatch.setattr(cpus, "RUN_FORK_MIN", threshold)
    assert harness.outputs("run-abs", "run", on=None)[0] == cli.EXIT_OK
    harness.assert_forks(n_forks)


def test_small_runs_stay_in_one_process(tmp_path, capfd, forks):
    # the benchmark's traced N = 20 run: 21 stored times x 21 particles;
    # the figure configs (1001 x 201) and morse.cfg (11 x 401) split
    assert 21 * 21 < cpus.RUN_FORK_MIN <= 11 * 401 < 1_001 * 201
    code = cli.main(["--config", str(ROOT / "configs" / "attractive.cfg"),
                     "--out-dir", str(tmp_path), "--override",
                     "discretization.N=20", "--override",
                     "discretization.t_end=0.02", "run"])
    assert code == cli.EXIT_OK
    assert "run ok: 21 stored times" in capfd.readouterr().out
    assert forks[0] == []


def test_a_failing_half_step_run_fails_as_in_one_process(harness,
                                                         monkeypatch):
    def underflow(traj):
        raise StepUnderflow("step underflow at t=0.025")

    # the main run checks its balance without edb_residual; the worker
    # fails, and the caller runs the half-step run again
    monkeypatch.setattr(var, "edb_residual", underflow)
    off = code, out, err, tables = harness.outputs("edb-check", "off")
    assert harness.outputs("edb-check", "on", on=True) == off
    harness.assert_forks(1)
    assert all(harness.statuses)
    assert (code, err, list(tables)) == (
        cli.EXIT_NUMERICAL, "numerical failure: step underflow at t=0.025\n",
        ["variational.csv"])
    assert out.startswith("edb residual: ") and "half-step" not in out


def test_converge_rebuilds_the_finest_level_from_the_worker(harness,
                                                            monkeypatch):
    built = []

    def recorded(*args):
        built.append(pm.Trajectory(*args))
        return built[-1]

    monkeypatch.setattr(cli, "Trajectory", recorded)
    assert harness.outputs("converge", "on", on=True)[0] == cli.EXIT_OK
    harness.assert_forks(1)
    problem = pm.validate(build_problem(parse_config(harness.tmp / "on.cfg")))
    here = cli._aligned_run(problem, 32, 0.2, 100, 1e-3)
    (there,) = built
    assert there.stats == here.stats and there.stats["velocity_evals"] > 0
    assert there.h == here.h
    for name in ("times", "positions", "velocities"):
        assert getattr(there, name).tobytes() == getattr(here, name).tobytes()


# -- fork_join and _fork themselves: both sides' values, a failed
# worker's side run again here, the caller kept off the worker's CPU, and
# text printed before a fork printed once --------------------------------

@needs_fork
@needs_affinity
@pytest.mark.parametrize("pinned", [2], indirect=True)
@pytest.mark.parametrize("raises", [False, True])
def test_fork_join_keeps_the_caller_off_the_workers_cpu(pinned, raises,
                                                        forks):
    seen = {}

    def mine():
        seen["can_fork"] = cpus._can_fork()
        seen["cpus"] = os.sched_getaffinity(0)
        if raises:
            raise RuntimeError("caller failure")
        return "mine"

    def theirs():
        return sorted(os.sched_getaffinity(0))

    if raises:
        with pytest.raises(RuntimeError, match="caller failure"):
            cpus.fork_join(mine, theirs)
    else:
        value, worker = cpus.fork_join(mine, theirs)
        assert value == "mine" and len(worker) == 1
        assert seen["cpus"] == pinned - set(worker)
    assert len(seen["cpus"]) == 1
    assert seen["can_fork"] is False
    assert os.sched_getaffinity(0) == pinned
    assert len(forks[0]) == 1


@needs_fork
def test_fork_join_returns_the_workers_value(forks):
    caller = os.getpid()
    value, (pid, arrays) = cpus.fork_join(
        lambda: os.getpid(), lambda: (os.getpid(), {"x": np.arange(3.0)}))
    assert value == caller and pid == forks[0][0] != caller
    assert arrays["x"].tobytes() == np.arange(3.0).tobytes()


@needs_fork
def test_a_failed_worker_runs_theirs_here(forks):
    caller = os.getpid()

    def theirs():
        if os.getpid() != caller:
            raise RuntimeError("worker failure")
        return "here"

    assert cpus.fork_join(lambda: "mine", theirs) == ("mine", "here")
    assert len(forks[0]) == 1 and forks[1] != [0]


@needs_fork
def test_a_fork_prints_what_came_before_it_once(capfd, monkeypatch, forks):
    # a worker that prints flushes the buffers it inherited, which _fork
    # empties first; these streams buffer, as a file or pipe would
    with open(os.dup(1), "w") as out, open(os.dup(2), "w") as err:
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        for stream in (out, err):
            print("unflushed", end="", file=stream)
        os.waitpid(cpus._fork(lambda: [print(" worker", file=stream,
                                             flush=True)
                                       for stream in (out, err)], None), 0)
    assert capfd.readouterr() == ("unflushed worker\n",) * 2


# -- the one gate, and the pair worker: the kernels it skips, its bits
# over random states, its stats and threshold, and a raising kernel

def test_one_fork_gate():
    # run's stored-time split, the stage workers and the pair worker ask
    # one gate, cpus.worth_forking, the one caller of _can_fork
    callers = []
    for module in Path(cpus.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(module.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [fn.name for call in ast.walk(fn)
                            if isinstance(call, ast.Call)
                            and getattr(call.func, "id", "") == "_can_fork"]
    assert callers == ["worth_forking"]


@pytest.mark.parametrize("name", ["run-abs", "run-zero"])
def test_abs_and_zero_kernels_never_fork_a_pair_worker(name, harness,
                                                       monkeypatch):
    # from any particle count on, only a dense kernel forks the pair worker
    monkeypatch.setattr(cpus, "FORK_MIN_PARTICLES", 0)
    assert harness.outputs(name, "run", on=None)[0] == cli.EXIT_OK
    harness.assert_forks(0)


def gaussian_kernel():
    # dw is odd bit for bit: (-2 * -d) == 2 * d and (-d * -d) == d * d
    return pm.regular_interaction(lambda x: np.exp(-x * x),
                                  lambda x: -2.0 * x * np.exp(-x * x),
                                  lambda x: (4.0 * x * x - 2.0)
                                  * np.exp(-x * x), 1.0, 2.0, 5.0)


def random_state(n, seed, span=1.0):
    x = np.unique(np.random.default_rng(seed).uniform(-span, span, n))
    return pm.ParticleState(x, h=1.0 / (len(x) - 1))


def with_kernel(kernel):
    return pm.Potentials(pm.zero_potential(), kernel)


@needs_fork
@settings(max_examples=25, deadline=None)
@given(n=st.integers(100, 2 * FORK_MIN_PARTICLES + 20),
       seed=st.integers(0, 2**32 - 1),
       params=st.tuples(st.floats(0.1, 5.0), st.floats(0.05, 3.0),
                        st.floats(0.1, 5.0), st.floats(0.05, 3.0)),
       gaussian=st.booleans())
@example(n=150, seed=1, params=(1.0, 1.0, 0.5, 0.3), gaussian=False)
@example(n=200, seed=2, params=(1.0, 1.0, 0.5, 0.3), gaussian=True)
def test_worker_forces_equal_inline_bits(n, seed, params, gaussian):
    kernel = gaussian_kernel() if gaussian else pm.morse(*params)
    state = random_state(n, seed)
    n = len(state.positions)
    blocks = len(list(forces.row_blocks(n, n)))
    if (n, seed) == (150, 1):
        assert blocks == 2      # an even count: the worker fills the last
    if (n, seed) == (200, 2):
        assert blocks == 3      # an odd count: the caller fills the last
    potentials = with_kernel(kernel)
    inline = particle_forces(state, potentials)
    worker = PairWorker(kernel.dw, n)
    try:
        for _ in range(2):      # the shared matrix is reused
            got = particle_forces(state, potentials, worker)
            assert got.tobytes() == inline.tobytes()
        assert worker.pid is not None
    finally:
        worker.close()
    with pytest.raises(ChildProcessError):     # reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("n_particles, forked", [
    (FORK_MIN_PARTICLES - 1, False), (FORK_MIN_PARTICLES, True)])
def test_stats_count_the_run(n_particles, forked, worker_pids):
    # 10 steps, stored at steps 0, 3, 6, 9 and 10
    problem = pm.Problem(pm.power_cap_mobility(1.0),
                         with_kernel(pm.morse(1.0, 1.0, 0.5, 0.3)),
                         pm.parabolic_bump())
    state = pm.quantile_partition(problem.initial, n_particles - 1)
    traj = pm.integrate(state, problem, 0.01, dt=1e-3, store_every=3)
    assert len(traj.times) == 5
    assert traj.stats == {"velocity_evals": 4 * 10 + 5, "halvings": 0,
                          "steps": 10, "min_dt": 0.01 / 10,
                          "dt": 1e-3, "pair_worker": forked}
    assert len(worker_pids) == forked


@needs_fork
def test_a_raising_kernel_raises_the_inline_exception(forks):
    # Morse, but every block past the first raises, naming its shape:
    # inline, block 1 (the worker's) raises first, and so must the
    # two-process fill
    state = random_state(2 * FORK_MIN_PARTICLES, 4)
    n = len(state.positions)
    morse = pm.morse(1.0, 1.0, 0.5, 0.3)

    def dw(d):
        if d.shape[1] < n:
            raise ValueError(f"block of shape {d.shape}")
        return morse.dw(d)

    potentials = with_kernel(pm.regular_interaction(
        morse.w, dw, morse.d2w, morse.sup_dw, morse.sup_d2w, morse.lip_d2w))
    with pytest.raises(ValueError) as inline:
        particle_forces(state, potentials)
    worker = PairWorker(dw, n)
    try:
        with pytest.raises(ValueError) as two:
            particle_forces(state, potentials, worker)
    finally:
        worker.close()
    second = list(forces.row_blocks(n, n))[1]
    assert str(two.value) == str(inline.value) == (
        f"block of shape {(second.stop - second.start, n - second.start)}")
    assert len(forks[0]) == 1


# -- which benchmark command forks what, at the thresholds as set --------

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, command_lines  # noqa: E402

# workload -> the (fork_join workers, pair workers) of each of its commands
BENCHMARK_FORKS = {
    "figures": [(1, 0), (1, 0)] * 3,    # run splits, edb-check forks
    "reduction": [(1, 0)] * 3,          # converge, oracle-, entropy-check
    # morse.cfg's run splits and fills its pairs on two CPUs, its
    # edb-check forks; morse_entropy.cfg's entropy-check (420
    # particle-steps) does not
    "morse": [(1, 1), (1, 0), (0, 0)],
}


@needs_fork
@pytest.mark.parametrize("workload", BENCHMARK_FORKS)
def test_each_benchmark_command_forks_as_measured(workload, tmp_path, capfd,
                                                  forks, worker_pids):
    counts = []
    for key, _, argv in command_lines(WORKLOADS[workload], 0, ROOT):
        before = len(forks[0]), len(worker_pids)
        assert cli.main(argv + ["--out-dir", str(tmp_path / key)]) == 0
        pairs = len(worker_pids) - before[1]
        counts.append((len(forks[0]) - before[0] - pairs, pairs))
    capfd.readouterr()
    assert counts == BENCHMARK_FORKS[workload]

