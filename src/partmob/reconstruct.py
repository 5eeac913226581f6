"""Piecewise-constant density / piecewise-linear-velocity flux
reconstruction on the moving cells.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .forces import _can_fork, row_blocks, step_values

__all__ = ["ReconstructedFields", "write_snapshots_csv"]

SNAPSHOT_COLUMNS = ("t", "x_left", "x_right", "rho", "u_left", "u_right")


def profile_masses(edges: np.ndarray, densities: np.ndarray) -> np.ndarray:
    """Mass ``sum_i rho_i (x_{i+1} - x_i)`` of one profile, or of every row
    of a block of profiles."""
    return np.sum(densities * np.diff(edges, axis=-1), axis=-1)


class TimeGridMismatch(ValueError):
    """Stored times that should agree up to rounding do not: the
    floating-point time grids of two runs, or of a run and a test
    function, drifted apart."""


@dataclass(eq=False)
class ReconstructedFields:
    """Density/flux pair of a stored trajectory (its ``fields``).

    At each stored time the density is ``h / width`` on every moving cell
    (half-open cells, zero outside) and the flux is that density times the
    velocity field interpolated linearly between the endpoint particle
    velocities.  ``index_of`` matches a stored time to within
    ``1e-9 * max(1, |T|)``, ``T`` the last stored time.
    """

    times: np.ndarray
    edges: np.ndarray            # (n_times, n_particles)
    densities: np.ndarray        # (n_times, n_cells)
    edge_velocities: np.ndarray  # (n_times, n_particles)
    mass: float

    @property
    def n_cells(self) -> int:
        return self.densities.shape[1]

    def _time_slack(self) -> float:
        """The one rounding allowance of every stored-time comparison."""
        return 1e-9 * max(1.0, abs(self.times[-1]))

    def index_of(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[k] - t) <= self._time_slack():   # NaN too
            raise KeyError(f"time {t!r} is not a stored output time")
        return k

    def profile(self, t: float):
        """(edges, densities) arrays at a stored time."""
        k = self.index_of(t)
        return self.edges[k], self.densities[k]

    def density_at(self, t: float, x) -> np.ndarray:
        edges, rho = self.profile(t)
        return step_values(edges, rho, np.atleast_1d(np.asarray(x, dtype=float)))

    def masses(self) -> np.ndarray:
        """Mass of the profile at every stored time, over blocks of stored
        times."""
        out = np.empty(len(self.times))
        for rows in row_blocks(len(self.times), self.n_cells + 1):
            out[rows] = profile_masses(self.edges[rows], self.densities[rows])
        return out


def write_table(path, table: dict) -> None:
    """CSV of a table: a dict of equal-length columns keyed by their
    header, one line per row.  ``csv`` writes every float (numpy's
    included) as ``repr(float(x))``, so each value reads back to the same
    bits, and quotes a string with a comma."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(table)
        out.writerows(zip(*table.values()))


# Below this many formatted values a snapshot file is written in one
# process.  Forking a 40 MB process, waiting for the worker and appending
# its part cost about 6 ms, against about 1 us per formatted value, so
# the worker starts to pay at 10,000 to 20,000 values (2 CPUs, x86-64).
FORK_MIN_VALUES = 50_000


def _snapshot_rows(fh, fields: ReconstructedFields, time_indices) -> None:
    # every value is formatted once with repr; an edge or edge-velocity
    # string serves as the right end of one cell and the left end of the
    # next
    for k in time_indices:
        stamp = repr(float(fields.times[k])) + ","
        x = list(map(repr, fields.edges[k].tolist()))
        u = list(map(repr, fields.edge_velocities[k].tolist()))
        rows = map(",".join, zip(x, x[1:],
                                 map(repr, fields.densities[k].tolist()),
                                 u, u[1:]))
        fh.write(stamp + ("\r\n" + stamp).join(rows) + "\r\n")


def _rows_on_two_cpus(fh, fields: ReconstructedFields, indices) -> None:
    """The rows of ``indices`` into ``fh``: a forked worker formats the
    second half of them into an anonymous temporary file in ``fh``'s
    directory while this process formats the first half; the worker's
    bytes are then appended.

    The worker is always reaped: if this process's half raises, the
    worker is killed first.  If the fork or the worker fails, this
    process formats the rows itself, so errors are raised here as
    without the worker."""
    half = (len(indices) + 1) // 2
    # the worker gets a copy of every buffer; flushed, none is written twice
    for stream in (sys.stdout, sys.stderr, fh):
        stream.flush()
    directory = os.path.dirname(os.path.abspath(fh.name))
    with tempfile.TemporaryFile(dir=directory) as tmp:
        try:
            pid = os.fork()
        except OSError:         # no process to be had: write it all here
            _snapshot_rows(fh, fields, indices)
            return
        if pid == 0:
            status = 1
            try:
                with open(tmp.fileno(), "w", newline="", encoding=fh.encoding,
                          closefd=False) as out:
                    _snapshot_rows(out, fields, indices[half:])
                status = 0
            finally:
                os._exit(status)
        try:
            _snapshot_rows(fh, fields, indices[:half])
        except BaseException:
            # imported on this path only: imported with this module, it
            # raised the peak RSS of a reference `run` by about 0.1 MB
            import signal
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
        if status != 0:
            _snapshot_rows(fh, fields, indices[half:])
            return
        fh.flush()
        tmp.seek(0)
        shutil.copyfileobj(tmp, fh.buffer)


def write_snapshots_csv(fields: ReconstructedFields, path,
                        time_indices=None) -> None:
    """One row per cell per stored time: t, x_left, x_right, rho, u_left,
    u_right.

    Every value is formatted once with ``repr``.  The bytes are those
    ``csv.writer`` writes for the same ``repr`` strings, which never need
    quoting.  A file of at least ``FORK_MIN_VALUES`` values is formatted
    on two CPUs when :func:`_can_fork` allows: a forked worker formats the
    second half of the stored times while this process formats the first.
    """
    indices = (range(len(fields.times)) if time_indices is None
               else list(time_indices))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SNAPSHOT_COLUMNS) + "\r\n")
        if (len(indices) * (3 * fields.n_cells + 3) >= FORK_MIN_VALUES
                and _can_fork()):
            _rows_on_two_cpus(fh, fields, indices)
        else:
            _snapshot_rows(fh, fields, indices)
