"""Forces acting on particles and on reconstructed density profiles."""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .model import (GAUSS_NODES, GAUSS_WEIGHTS, Potentials, cell_gauss,
                    edge_masses)
from .quantile import ParticleState

__all__ = [
    "particle_forces",
    "continuum_force",
]

# Elements per temporary in the blocked pair loops: 128 KB of float64, the
# default glibc mmap threshold.  Larger blocks are slower, not faster: a
# temporary above the threshold is mapped afresh and page-faults on every
# call.  2^13 and 2^15 measured a few per cent slower on the Morse workload.
BLOCK_ELEMENTS = 1 << 14


def row_blocks(n_rows: int, row_elements: int):
    """Consecutive row slices covering ``range(n_rows)``, each with at most
    ``BLOCK_ELEMENTS`` elements when a row holds ``row_elements`` (at least
    one row per slice)."""
    step = max(1, BLOCK_ELEMENTS // max(1, row_elements))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _fill_pairs(pair: np.ndarray, x: np.ndarray, fn, odd, blocks) -> None:
    """The entries ``fn(x_i - x_j)`` of ``pair`` with ``min(i, j)`` in one
    of the row ``blocks``, one ``fn`` call per unordered pair.  Rows
    ``r0:r1`` get ``fn`` on the columns ``j >= r0``, and the transpose of
    their columns ``j >= r1``, negated for an ``odd`` ``fn``, goes into the
    rows below, so blocks write disjoint entries.  Since
    ``fl(x_j - x_i) == -fl(x_i - x_j)``, for an ``fn`` odd (or even) bit for
    bit every entry equals the full matrix's."""
    mirror = np.negative if odd else np.positive
    for rows in blocks:
        r0, r1 = rows.start, rows.stop
        pair[rows, r0:] = fn(x[rows, None] - x[None, r0:])
        mirror(pair[rows, r1:].T, out=pair[r1:, rows])


def particle_forces(state: ParticleState, potentials: Potentials,
                    pairs: PairWorker | None = None) -> np.ndarray:
    """Exact pairwise forces ``V'(x_i) + h * sum_{j != i} W'(x_i - x_j)``.

    The pair matrix of the odd ``W'`` is filled by :func:`_fill_pairs` and
    each row reduced whole, so the result does not depend on the block size
    and repeated runs are bit-identical.  The matrix is a transient of
    ``8 (N + 1)^2`` bytes (1.3 MB at N = 400).  With a :class:`PairWorker`
    of this kernel and particle count, the blocks are filled on two CPUs,
    with the same bits.
    """
    x = state.positions
    f = np.array(potentials.external.dv(x), dtype=float, copy=True)
    if pairs is None:
        n = len(x)
        pair = np.empty((n, n))
        _fill_pairs(pair, x, potentials.interaction.dw, True,
                    row_blocks(n, n))
    else:
        pair = pairs.fill(x)
    np.fill_diagonal(pair, 0.0)
    f += state.h * pair.sum(axis=1)
    return f


def _is_dense(w) -> bool:
    """Whether pair sums of ``w`` need the pair matrix (not |x|, not 0)."""
    return not (w.is_zero or w.is_newtonian)


def force_rows(positions: np.ndarray, h: float, potentials: Potentials,
               pairs: PairWorker | None = None) -> np.ndarray:
    """Forces of one state or of every row of a ``(n_times, n_particles)``
    block of ordered distinct positions.

    This is the one place that chooses how ``W`` is evaluated: for
    ``W(x) = s |x|`` the pair sum collapses to the rank formula
    ``s * h * (2 i - N)``, for ``W = 0`` only ``V'`` is left, and any other
    kernel takes one :func:`particle_forces` call per row, on ``pairs``
    when given.  A row gets the same bits as the same state alone.
    """
    w = potentials.interaction
    if _is_dense(w):
        if positions.ndim == 1:
            return particle_forces(ParticleState(positions, h=h), potentials,
                                   pairs)
        return np.array([force_rows(row, h, potentials, pairs)
                         for row in positions])
    if w.is_newtonian:
        return np.add(potentials.external.dv(positions),
                      rank_term(w.newtonian_sign, h, positions.shape[-1]))
    return np.array(potentials.external.dv(positions), dtype=float, copy=True)


@lru_cache(maxsize=32)
def rank_term(sign: int, h: float, n_particles: int) -> np.ndarray:
    """Interaction part ``s * h * (2 i - N)`` of the rank-sum force for
    ``W(x) = s |x|`` on ``N + 1`` ordered particles; cached, so a run
    builds it once, and read-only."""
    ranks = np.arange(n_particles, dtype=float)
    term = sign * h * (2.0 * ranks - (n_particles - 1))
    term.flags.writeable = False
    return term


# -- work on two CPUs ---------------------------------------------------

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
    forked or the worker failed, ``theirs()`` runs here after ``mine()``,
    with the one-process value or exception.  While ``mine()`` runs, this
    process is pinned to its allowed CPUs other than the worker's, so on two
    CPUs :func:`_can_fork` is False on both sides and nothing forks again;
    its affinity is restored however ``mine()`` ends.  The worker is reaped
    on every path, killed first if ``mine()`` raises.  Spans of traced
    functions that ``theirs()`` calls in the worker stay there: the
    caller's trace counts that time as waiting."""
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


# From this many particles on, solver.integrate fills the dense pair
# matrices of its force evaluations on two CPUs (see PairWorker).
FORK_MIN_PARTICLES = 200


class PairWorker:
    """A forked process that fills the odd blocks of ``row_blocks(n, n)``
    of :func:`particle_forces`' pair matrix for the kernel derivative
    ``dw`` and ``n`` particles, while the caller fills the even blocks
    with the same code.  Blocks write disjoint entries, so every entry,
    and every row sum, keeps its one-process bits.

    The two processes share an anonymous mapping that holds the positions
    and the ``n x n`` matrix, and talk over two pipes, one byte each way
    per call.  After any failure, of the worker or of the caller's blocks,
    the worker is reaped and the caller fills the whole matrix in the
    one-process order, so the same exception is raised as without the
    worker.  The worker calls no traced function: its time falls inside
    the span of the call that waits for it.  It exits at the end of file
    of its command pipe, on :meth:`close` or when the caller dies.  Where
    no process can be forked, ``pid`` is None and every fill is the caller's.
    """

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
    leaving the block, or None where the pair fill stays in this process: for
    ``|x|`` and ``W = 0``, below ``FORK_MIN_PARTICLES`` particles, where
    :func:`_can_fork` does not hold or no process can be forked."""
    w = potentials.interaction
    if not _is_dense(w) or n < FORK_MIN_PARTICLES or not _can_fork():
        yield None
        return
    pairs = PairWorker(w.dw, n)
    try:
        yield pairs if pairs.pid is not None else None
    finally:
        pairs.close()


def pair_sum(points: np.ndarray, kernel) -> float:
    """``sum_{i != j} W(a_i - a_j)`` over the points ``a``, with the bits of
    ``np.sum`` over the full pair matrix with a zeroed diagonal.

    For ``W = 0`` it is -0.0, which leaves any sum it is added to bit for
    bit unchanged.  For ``W(x) = s |x|`` the matrix is ``|a_i - a_j|``
    built in place, its diagonal already +0.0, and the sign is applied to
    the sum: negating a pairwise sum is exact.  Other kernels fill the
    matrix of the even ``W`` by :func:`_fill_pairs` and sum it whole."""
    if kernel.is_zero:
        return -0.0
    if kernel.is_newtonian:
        diff = np.subtract.outer(points, points)
        np.abs(diff, out=diff)
        return kernel.newtonian_sign * float(np.sum(diff))
    n = len(points)
    pair = np.empty((n, n))
    _fill_pairs(pair, points, kernel.w, False, row_blocks(n, n))
    np.fill_diagonal(pair, 0.0)
    return float(np.sum(pair))


def cell_pair_sum(edges: np.ndarray, kernel) -> float:
    """``sum_{i != j}`` of the mean of ``W(x - y)`` over ``x`` in cell ``i``
    and ``y`` in cell ``j``.  For ``W = 0`` and ``s |x|`` it is
    :func:`pair_sum` over the cell midpoints (cells are disjoint); other
    kernels take a 4x4 Gauss rule per pair, the matrix of means built over
    blocks of rows ``i`` and summed whole with a zeroed diagonal."""
    if not _is_dense(kernel):
        return pair_sum(0.5 * (edges[:-1] + edges[1:]), kernel)
    nodes, _ = cell_gauss(edges)
    wts = GAUSS_WEIGHTS * 0.5  # reference-interval averages
    n = len(nodes)
    means = np.empty((n, n))
    for rows in row_blocks(n, 16 * n):
        # differences between the Gauss nodes of cells i and j: (i, a, j, b)
        vals = kernel.w(nodes[rows, :, None, None] - nodes[None, None, :, :])
        means[rows] = np.einsum("a,b,iajb->ij", wts, wts, vals)
    np.fill_diagonal(means, 0.0)
    return float(np.sum(means))


def _cell_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the half-open cell ``[edges[i], edges[i+1])`` containing x;
    -1 outside the support."""
    idx = np.searchsorted(edges, x, side="right") - 1
    return np.where((x >= edges[0]) & (x < edges[-1]), idx, -1)


def step_values(edges: np.ndarray, values, x: np.ndarray) -> np.ndarray:
    """Piecewise-constant profile at x: ``values[i]`` on the half-open cell
    ``[edges[i], edges[i+1])``, 0.0 outside the support.  Each value is
    selected, not computed."""
    idx = _cell_index(edges, x)
    return np.where(idx >= 0, np.asarray(values)[idx], 0.0)


def _piece_integrals(kernels, x, lo, hi):
    # half * sum_q w_q fn(x - y_q) for every kernel fn, with the Gauss nodes
    # y_q of each interval [lo, hi]; x, lo and hi broadcast together
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[..., None] + half[..., None] * GAUSS_NODES
    diff = x[..., None] - nodes
    return [half * np.vecdot(fn(diff), GAUSS_WEIGHTS) for fn in kernels]


def _kernel_convolutions(kernels, edges, densities, x, skip):
    # sum_i rho_i int_{K_i} fn(x - y) dy for every kernel fn, cell by cell by
    # 4-point Gauss; the cell strictly containing x is split there at the
    # kernel kink, and cell skip[k] (if >= 0) is left out for point k.
    # vecdot reduces each row with the same BLAS dot as a per-row np.dot,
    # and "0.0 +" keeps the signed zeros of a running sum started at 0.0,
    # so the sums match a scalar loop over (point, cell) bit for bit.
    lo, hi = edges[:-1], edges[1:]
    out = [np.empty(len(x)) for _ in kernels]
    for rows in row_blocks(len(x), 4 * len(lo)):
        xb = x[rows]
        per_cell = [0.0 + v for v in _piece_integrals(kernels, xb[:, None],
                                                      lo, hi)]
        k, i = np.nonzero((lo < xb[:, None]) & (xb[:, None] < hi))
        split = _piece_integrals(kernels, xb[k, None],
                                 np.stack([lo[i], xb[k]], axis=1),
                                 np.stack([xb[k], hi[i]], axis=1))
        for vals, pieces in zip(per_cell, split):
            vals[k, i] = (0.0 + pieces[:, 0]) + pieces[:, 1]
        if skip is not None:
            k = np.nonzero(skip[rows] >= 0)[0]
            i = skip[rows][k]
            for vals in per_cell:
                vals[k, i] = 0.0
        for dst, vals in zip(out, per_cell):
            dst[rows] = np.vecdot(vals, densities)
    return out


def continuum_force(edges: np.ndarray, densities: np.ndarray, mass: float,
                    potentials: Potentials, x,
                    exclude_own_cell: bool = False):
    """Force field ``V'(x) + (W' * rho)(x)`` and its spatial derivative.

    ``edges``/``densities`` describe a piecewise-constant profile.  For
    absolute-value kernels the convolution reduces to the cumulative mass,
    ``V'(x) + s * (2 * C(x) - m)`` with derivative ``V'' + 2 s rho``; other
    kernels use per-cell Gauss quadrature.  ``exclude_own_cell`` drops the
    cell containing ``x`` from the convolution.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    edges = np.asarray(edges, dtype=float)
    densities = np.asarray(densities, dtype=float)
    ext = potentials.external
    w = potentials.interaction
    force = np.array(ext.dv(x), dtype=float, copy=True)
    dforce = np.array(ext.d2v(x), dtype=float, copy=True)

    if w.is_zero:
        return force, dforce

    cell = _cell_index(edges, x)
    if w.is_newtonian:
        s = float(w.newtonian_sign)
        # the step_values selection, from the one cell lookup
        rho_at = np.where(cell >= 0, densities[cell], 0.0)
        cum = np.interp(x, edges, edge_masses(edges, densities))
        force += s * (2.0 * cum - mass)
        dforce += s * 2.0 * rho_at
        if exclude_own_cell:
            correction = rho_at * (2.0 * x - edges[cell] - edges[cell + 1])
            force -= np.where(cell >= 0, s * correction, 0.0)
            dforce -= np.where(cell >= 0, s * 2.0 * rho_at, 0.0)
        return force, dforce

    conv, dconv = _kernel_convolutions((w.dw, w.d2w), edges, densities, x,
                                       cell if exclude_own_cell else None)
    force += conv
    dforce += dconv
    return force, dforce
