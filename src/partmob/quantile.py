"""Equal-mass particle initialisation from a density profile.

Particles are placed so that each gap between neighbours carries the same
mass ``h = m / N``; interior points are quantiles of the cumulative
function, computed by bisection for robustness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import InitialDensity

__all__ = ["ParticleState", "QuantileError", "quantile_partition"]


class QuantileError(RuntimeError):
    pass


@dataclass
class ParticleState:
    """Ordered particle positions with the per-cell mass ``h``."""

    positions: np.ndarray
    h: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 1 or len(self.positions) < 2:
            raise ValueError("need at least two particle positions")

    @property
    def n_cells(self) -> int:
        return len(self.positions) - 1


def _rightmost_quantile(cumulative, target, lo, hi, mass, span):
    # binary search on the monotone predicate cumulative(x) > target; the
    # bracket shrinks onto the rightmost point where the cumulative equals
    # the target, which fixes the convention on zero-density plateaus.
    # The bracket stays in plain floats, which the cumulatives evaluate
    # without numpy (see InitialDensity)
    lo, hi = float(lo), float(hi)
    xtol = 1e-13 * max(1.0, span)
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if float(cumulative(mid)) > target:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    if abs(float(cumulative(x)) - target) > 1e-10 * mass:
        raise QuantileError(
            f"quantile search did not converge for target mass {target:.6g}")
    return x


def quantile_partition(initial: InitialDensity, n_cells: int) -> ParticleState:
    """Split the support of ``initial`` into ``n_cells`` equal-mass cells.

    Endpoints are pinned to the support; interior points solve
    ``cumulative(x) = i * h`` by bisection (rightmost root on plateaus).
    """
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    m = initial.mass
    if m <= 0:
        raise QuantileError("zero-mass density cannot be partitioned")
    if initial.interior_vacuum:
        warnings.warn(
            "initial density vanishes on an interior interval; the particle "
            "partition is still constructed but the limiting dynamics may "
            "not be unique", stacklevel=2)
    h = m / n_cells
    span = initial.x_max - initial.x_min
    try:
        positions = np.empty(n_cells + 1)
    except ValueError as exc:   # more values than numpy can index
        raise MemoryError(f"{n_cells + 1:.3g} particles: {exc}") from None
    positions[0] = initial.x_min
    positions[-1] = initial.x_max
    lo = initial.x_min
    for i in range(1, n_cells):
        target = m * i / n_cells
        positions[i] = _rightmost_quantile(
            initial.cumulative, target, lo, initial.x_max, m, span)
        lo = positions[i]
    if np.any(np.diff(positions) < 0):
        raise QuantileError("quantile points came out disordered")
    return ParticleState(positions, h=h)
