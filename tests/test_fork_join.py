"""One harness for every path that runs work on a second CPU
(``partmob.cpus``): run's stored-time split on |x|, Morse and W = 0, the
second stage of edb-check, converge, oracle-compare and entropy-check, and
integrate's pair worker.

On every path, forced on and forced off give the same CSV bytes, stdout,
stderr and exit code; a failing worker (or a failed fork) is redone by the
caller; a failing caller reaps the worker and leaves no temporary file;
one allowed CPU forks nothing; and no child process is left behind.  Where
``_can_fork()`` is False (under ``taskset -c 0``) every forced-on case runs
too, and its fork counts must be 0."""

import os
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from partmob import cli, cpus, forces
from partmob import diagnostics as diag
from partmob import fv as fvmod
from partmob import variational as var

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
# check makes raise on one side; code and files: the exit code and CSVs
Fork = namedtuple("Fork", "command text overrides gate sides code files")
RUN_SIDES = ((cli, "write_snapshots_csv"), (diag, "diagnostics_columns"),
             (var, "gradient_columns"))
STAGE = {"command": "edb-check", "text": ABS, "overrides": (),
         "gate": "stages", "sides": ((cli, "integrate"),), "code": 0,
         "files": ("variational.csv",)}
RUN = dict(STAGE, command="run", gate="run", sides=RUN_SIDES,
           files=RUN_FILES)
PATHS = {
    "run-abs": Fork(**RUN),
    "run-morse": Fork(**dict(RUN, text=MORSE)),
    "run-zero": Fork(**dict(RUN, text=ZERO)),
    "edb-check": Fork(**STAGE),
    "converge": Fork(**dict(STAGE, command="converge", text=REDUCTION,
                            files=("refinement.csv",))),
    "oracle-compare": Fork(**dict(
        STAGE, command="oracle-compare", text=REDUCTION,
        sides=((cli, "integrate"), (fvmod, "fv_solve")),
        files=("oracle_compare.csv",))),
    "entropy-check": Fork(**dict(
        STAGE, command="entropy-check", text=REDUCTION,
        sides=((diag, "entropy_report"),), files=("entropy.csv",))),
    # 201 particles fill 3 blocks of rows; 3 stored times stay below the
    # split, which is forced off here anyway.  The caller fills its blocks
    # by cpus' binding of _fill_pairs, or all of them by forces' own
    "pair-worker": Fork(**dict(
        RUN, text=MORSE, gate="pairs",
        sides=((cpus, "_fill_pairs"), (forces, "_fill_pairs")),
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
        overrides=("discretization.N=100", "discretization.dt=0.04",
                   "discretization.t_end=0.5",
                   "discretization.output_every=1"))),
    # densities of 1e300 square past the float range in the h1 norm: exit 3
    # with snapshots.csv alone
    "run-h1": Fork(**dict(RUN, text=ZERO, code=3, files=("snapshots.csv",),
                          overrides=("problem.initial.amplitude=1e300",
                                     "discretization.N=8"))),
    "edb-check-morse": Fork(**dict(STAGE, text=MORSE)),
    # two stored times: the caller's main run fails before the output
    # directory is made, and the worker is killed
    "edb-check-too-few": Fork(**dict(
        STAGE, code=1, files=(),
        overrides=("discretization.output_every=50",))),
    # the finite-volume support reaches a window this narrow in the worker
    "oracle-compare-window": Fork(**dict(
        PATHS["oracle-compare"]._asdict(), code=3, files=(),
        overrides=("oracle.window_lo=-1.05", "oracle.window_hi=1.05"))),
    # the caller's particle side rejects a time it did not store
    "oracle-compare-off-grid": Fork(**dict(
        PATHS["oracle-compare"]._asdict(), code=1, files=(),
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
        the output directory ``label`` (named OUT in stdout), with the
        path's gate forced on, every gate off, or for ``on=None`` the
        thresholds as they are."""
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
                 if out.exists() else {})
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
        """The path's outputs, checked to be the same forced off and on."""
        path = ALL[name]
        off = self.outputs(name, "off")
        assert self.pids == []
        on = self.outputs(name, "on", on=True)
        self.assert_forks(1)
        assert on == off
        assert (off[0], sorted(off[3])) == (path.code, sorted(path.files))
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

    def one_cpu(self, name):
        """On one allowed CPU, the forced-on path forks and pins nothing
        and gives the outputs without the fork."""
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
        harness.one_cpu(name)
    assert os.sched_getaffinity(0) == pinned


# -- fork_join itself: both sides' values, a failed worker's side run
# again here, and the caller kept off the worker's CPU -------------------

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

