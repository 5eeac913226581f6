"""Work on a second CPU: the one gate :func:`worth_forking` and its three
thresholds, the one fork, the fork-join helper and the pair worker.  Both
sides of a fork run the same code as one process, so every result keeps
its bits, and the caller redoes the part of a worker that failed."""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
import threading
from contextlib import contextmanager

import numpy as np

from .forces import _fill_pairs, _is_dense, row_blocks
from .model import Potentials

# The least work per path that forks, each set by alternating in-process
# runs on a 2-vCPU x86-64 VM.  run's stored-time split and the second
# stages count particles times their rows: run's particle-rows are stored
# times x (N + 1), the stages' particle-steps (N + 1) x RK4 steps.  Of 21
# runs, run's split won 17-19 at 3,609-4,011 particle-rows on |x| (2 on
# W = 0) and all 21 at 4,411 on |x|, W = 0 and Morse; two later rounds on
# W = 0 at 3,609-4,646 (N = 100, 200, 400) won 2-19, with no trend.
RUN_FORK_MIN = 4_000
# On |x| at N = 24 edb-check's fork won 14-15 of 21 calls at 2,500
# particle-steps of its dt/2 run, 14-20 at 5,000 and 20-21 at 10,000.
STAGE_FORK_MIN = 10_000
# The pair worker counts particles: below about 130 there is one block of
# rows to fill; a call took 0.77 of the one-process time at 150 and 0.65
# at 200, where the 4 ms fork and reap pays back within about 20 calls.
FORK_MIN_PARTICLES = 200


def _can_fork() -> bool:
    """A forked worker can run beside this process: the platform forks,
    this process may use two CPUs and it runs no other thread (a fork
    copies only the calling thread, and any lock another one holds)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:      # a platform without CPU affinity
        return (os.cpu_count() or 1) > 1


def worth_forking(path: str, work: float) -> bool:
    """The one gate: whether ``work`` of ``path`` goes to a second CPU.  It
    does from the path's threshold on (``"run"``: ``RUN_FORK_MIN``
    particle-rows, ``"stages"``: ``STAGE_FORK_MIN`` particle-steps,
    ``"pairs"``: ``FORK_MIN_PARTICLES`` particles) where :func:`_can_fork`
    holds."""
    minimum = {"run": RUN_FORK_MIN, "stages": STAGE_FORK_MIN,
               "pairs": FORK_MIN_PARTICLES}[path]
    return work >= minimum and _can_fork()


def _cpu_apart() -> set[int] | None:
    """The affinity for a worker: one allowed CPU other than the one this
    process runs on now (field 39 of Linux's ``/proc/self/stat``), or None
    where either cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # the fields from the third on follow the parenthesised name
            running = int(fh.read().rsplit(b")", 1)[1].split()[36])
        others = sorted(os.sched_getaffinity(0) - {running})
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    return set(others[:1]) or None


def _fork(work, cpus) -> int | None:
    """The pid of a worker forked to run ``work()`` pinned to the CPU set
    ``cpus`` (unpinned for None) and exit, with status 0 if it returns, or
    None where no process can be forked.  Flushed first, no buffer of the
    standard streams is written twice."""
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    try:
        pid = os.fork()
    except OSError:             # no process to be had
        return None
    if pid:
        return pid
    try:
        if cpus:    # unpinned, the kernel kept both on one CPU, taking turns
            os.sched_setaffinity(0, cpus)
        work()
    except BaseException:
        os._exit(1)
    os._exit(0)


def fork_join(mine, theirs):
    """``(mine(), theirs())``, with ``mine()`` run here beside a
    :func:`_fork` worker running ``theirs()``, whose value comes back
    pickled through an anonymous temporary file.  Where no process could be
    forked or the worker failed, ``theirs()`` runs here after ``mine()``.
    While ``mine()`` runs, this process keeps off the worker's CPU, so on
    two CPUs :func:`_can_fork` is False on both sides and nothing forks
    again.  The worker is reaped on every path, killed first if ``mine()``
    raises.  Spans of traced functions that the worker calls stay there:
    the caller's trace counts that time as waiting."""
    cpus = _cpu_apart()
    with tempfile.TemporaryFile() as result:
        def work():
            pickle.dump(theirs(), result, pickle.HIGHEST_PROTOCOL)
            result.flush()      # the worker exits without flushing
        pid = _fork(work, cpus)
        allowed = None
        try:
            if pid is not None and cpus:
                allowed = os.sched_getaffinity(0)
                os.sched_setaffinity(0, allowed - cpus)
            value = mine()
        except BaseException:
            if pid is not None:
                os.kill(pid, 9)     # SIGKILL, without importing signal
                os.waitpid(pid, 0)
            raise
        finally:
            if allowed:
                os.sched_setaffinity(0, allowed)
        if pid is not None and os.waitpid(pid, 0)[1] == 0:
            result.seek(0)      # the worker wrote through the shared offset
            return value, pickle.load(result)
    return value, theirs()


def stages(particle_steps: float, mine, theirs):
    """``(mine(), theirs())``: through :func:`fork_join` where
    ``worth_forking("stages", particle_steps)``, else here in that
    order."""
    if not worth_forking("stages", particle_steps):
        return mine(), theirs()
    return fork_join(mine, theirs)


class PairWorker:
    """A forked process that fills the odd blocks of ``row_blocks(n, n)``
    of :func:`~partmob.forces.particle_forces`' pair matrix of ``dw`` for
    ``n`` particles while the caller fills the even ones, with the same
    code and so the one-process bits.  They share an anonymous mapping of
    the positions and the matrix and talk over two pipes, one byte each
    way per call.  After any failure the worker is reaped and the caller
    fills the whole matrix, raising the one-process exception.  The worker
    calls no traced function, and exits at the end of file of its command
    pipe.  Where no process can be forked, ``pid`` is None."""

    def __init__(self, dw, n: int):
        import mmap     # imported on this path only
        self.dw = dw
        self.blocks = list(row_blocks(n, n))
        shared = mmap.mmap(-1, 8 * n * (n + 1))
        self.x = np.frombuffer(shared, count=n)
        self.pair = np.frombuffer(shared, offset=8 * n,
                                  count=n * n).reshape(n, n)
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        self.pid = _fork(lambda: self._serve(commands, replies),
                         _cpu_apart())
        os.close(commands)
        os.close(replies)
        if self.pid is None:
            os.close(self._commands)
            os.close(self._replies)

    def _serve(self, commands: int, replies: int) -> None:
        # the worker: one fill per command byte, until end of file
        os.close(self._commands)
        os.close(self._replies)
        mine = self.blocks[1::2]
        while os.read(commands, 1):
            try:
                _fill_pairs(self.pair, self.x, self.dw, True, mine)
                done = b"\0"
            except Exception:
                done = b"\1"
            os.write(replies, done)

    def fill(self, x: np.ndarray) -> np.ndarray:
        """The pair matrix of the positions ``x``, its diagonal unset; the
        matrix is overwritten by the next call."""
        if self.pid is not None:
            self.x[:] = x
            sent = done = False
            try:
                os.write(self._commands, b"\0")
                sent = True
                _fill_pairs(self.pair, x, self.dw, True, self.blocks[::2])
                done = True
            except Exception:   # filled again below, in one process
                pass
            finally:
                if sent:
                    done = os.read(self._replies, 1) == b"\0" and done
            if done:
                return self.pair
            self.close()
        _fill_pairs(self.pair, x, self.dw, True, self.blocks)
        return self.pair

    def close(self) -> None:
        """Reap the worker; later fills run in this process alone."""
        if self.pid is not None:
            os.close(self._commands)
            os.close(self._replies)
            os.waitpid(self.pid, 0)
            self.pid = None


@contextmanager
def pair_worker(potentials: Potentials, n: int):
    """A :class:`PairWorker` for ``n`` particles of a dense kernel, reaped on
    leaving the block, or None where the pair fill stays in this process:
    for ``|x|`` and ``W = 0``, where ``worth_forking("pairs", n)`` does not
    hold or no process can be forked."""
    w = potentials.interaction
    if not (_is_dense(w) and worth_forking("pairs", n)):
        yield None
        return
    pairs = PairWorker(w.dw, n)
    try:
        yield pairs if pairs.pid is not None else None
    finally:
        pairs.close()
