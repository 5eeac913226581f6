"""Piecewise-constant density / piecewise-linear-velocity flux
reconstruction on the moving cells.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .forces import row_blocks, step_values

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


def write_snapshot_rows(fh, fields: ReconstructedFields,
                        time_indices) -> None:
    """The ``snapshots.csv`` rows of the stored times ``time_indices`` into
    the text file ``fh`` (opened with ``newline=""``), header excluded."""
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


def write_snapshots_csv(fields: ReconstructedFields, path,
                        time_indices=None) -> None:
    """One row per cell per stored time: t, x_left, x_right, rho, u_left,
    u_right.

    Every value is formatted once with ``repr``.  The bytes are those
    ``csv.writer`` writes for the same ``repr`` strings, which never need
    quoting.
    """
    indices = (range(len(fields.times)) if time_indices is None
               else time_indices)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SNAPSHOT_COLUMNS) + "\r\n")
        write_snapshot_rows(fh, fields, indices)
