"""Problem data: mobility, potentials, initial density, derived constants.

A problem instance couples a capped mobility ``beta`` (transport shuts off
at a finite density), an external potential ``V``, an interaction kernel
``W`` and a compactly supported initial density.  All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "Mobility",
    "power_cap_mobility",
    "tabulated_mobility",
    "ExternalPotential",
    "zero_potential",
    "linear_potential",
    "quadratic_potential",
    "external_potential",
    "InteractionPotential",
    "no_interaction",
    "newtonian",
    "morse",
    "regular_interaction",
    "Potentials",
    "InitialDensity",
    "uniform_density",
    "parabolic_bump",
    "piecewise_constant_density",
    "Problem",
    "ValidationIssue",
    "InvalidProblem",
    "check_problem",
    "validate",
    "simpson",
    "cumulative_simpson",
]

Array = np.ndarray

# 4-point Gauss-Legendre rule on [-1, 1], shared by every per-cell
# quadrature: leggauss(4)'s bits, without importing numpy.polynomial
GAUSS_NODES = np.array([-0.8611363115940526, -0.33998104358485626,
                        0.33998104358485626, 0.8611363115940526])
GAUSS_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464,
                          0.6521451548625464, 0.34785484513745357])


def cell_gauss(edges: Array) -> tuple[Array, Array]:
    """Gauss nodes and weights of every cell ``[edges[i], edges[i+1]]``,
    each of shape ``(n_cells, 4)``."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    return (mids[:, None] + halves[:, None] * GAUSS_NODES[None, :],
            halves[:, None] * GAUSS_WEIGHTS[None, :])


def edge_masses(edges: Array, densities: Array) -> Array:
    """Mass of a piecewise-constant profile left of each of its edges, 0.0
    at the first; of one profile or of every row of a block of them."""
    at = np.zeros(np.shape(edges))
    np.cumsum(densities * np.diff(edges, axis=-1), axis=-1, out=at[..., 1:])
    return at


def sorted_union(*arrays) -> Array:
    """The sorted distinct values of the 1-D ``arrays``: ``np.unique``'s own
    steps for finite input, without its ``numpy.ma`` import (14 ms, 1 MB)."""
    values = np.sort(np.concatenate(arrays))
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


# Composite Simpson rules on a strictly increasing 1-D grid ``x``, with the
# irregular-spacing formulas of Cartwright (J. Math. Sci. & Math. Educ.
# 12(2), 2017).  They repeat scipy.integrate's operations one for one, so
# their results carry the same bits as ``scipy.integrate.simpson`` and
# ``cumulative_simpson(..., initial=0)``.

def _along(a: Array, axis: int, index):
    return a[(slice(None),) * (axis % a.ndim) + (index,)]


def simpson(y, x, axis: int = -1):
    """``int y dx`` over the samples ``y`` at ``x`` along ``axis``: a
    scalar for 1-D ``y``, one value per column for 2-D ``y`` with
    ``axis=0``."""
    y = np.asarray(y)
    n = y.shape[axis]
    shape = [1] * y.ndim
    shape[axis] = n
    x = np.asarray(x).reshape(shape)
    if n == 2:
        dx = _along(x, axis, -1) - _along(x, axis, -2)
        return 0.0 + 0.5 * dx * (_along(y, axis, -1) + _along(y, axis, -2))
    h = np.diff(x, axis=axis)
    if n % 2:
        return _simpson_panels(y, h, n - 2, axis)
    result = _simpson_panels(y, h, n - 3, axis)
    # Cartwright's correction for the last interval; the two spacings stay
    # arrays, because a float64 scalar's ``** 3`` rounds differently
    h0 = np.squeeze(_along(h, axis, slice(-2, -1)), axis=axis)
    h1 = np.squeeze(_along(h, axis, slice(-1, None)), axis=axis)
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    result += (alpha * _along(y, axis, -1) + beta * _along(y, axis, -2)
               - eta * _along(y, axis, -3))
    result += 0.0
    return result


def _simpson_panels(y: Array, h: Array, stop: int, axis: int):
    """Simpson's rule on the panels ``[x[k], x[k+2]]`` for even
    ``k < stop``."""
    h0 = _along(h, axis, slice(0, stop, 2))
    h1 = _along(h, axis, slice(1, stop + 1, 2))
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (_along(y, axis, slice(0, stop, 2))
                        * (2.0 - 1.0 / h0divh1)
                        + _along(y, axis, slice(1, stop + 1, 2))
                        * (hsum * (hsum / hprod))
                        + _along(y, axis, slice(2, stop + 2, 2))
                        * (2.0 - h0divh1))
    return np.sum(tmp, axis=axis)


def cumulative_simpson(y, x) -> Array:
    """Running ``int_{x[0]}^{x[k]} y dx`` for 1-D ``y``, starting at 0.0
    (the trapezoid rule below three samples)."""
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.asarray(x, dtype=float))
    if len(y) < 3:
        res = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)
    else:
        # the even intervals from the triple that starts at them, the odd
        # ones and the last from the triple that ends at them
        ahead = _simpson_intervals(y, dx)
        behind = _simpson_intervals(y[::-1], dx[::-1])[::-1]
        sub = np.empty(len(dx))
        sub[:-1:2] = ahead[::2]
        sub[1::2] = behind[::2]
        sub[-1] = behind[-1]
        res = np.cumsum(sub)
    res += 0.0
    return np.concatenate(([0.0], res))


def _simpson_intervals(y: Array, dx: Array) -> Array:
    """``int_{x[k]}^{x[k+1]}`` of the parabola through samples k, k+1,
    k+2 (Cartwright's eq. 8)."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + -x21x21_x31x32 * y[2:])


# ---------------------------------------------------------------------------
# Mobility
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Mobility:
    """Density-dependent slowdown factor ``beta``.

    ``beta`` is non-increasing, positive at zero density and identically
    zero above the cap.  ``theta(s) = s * beta(s)`` is the resulting
    mobility of the flux; it vanishes both in vacuum and at the cap.

    ``beta`` and ``dbeta`` must act elementwise on arrays of any shape:
    the energy-balance series passes whole blocks of stored times.
    """

    beta: Callable[[Array], Array]
    beta_max: float
    cap: float
    lip_theta: float
    dbeta: Callable[[Array], Array]

    def theta(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("density must be non-negative")
        return s * self.beta(s)

    def dtheta(self, s):
        s = np.asarray(s, dtype=float)
        return self.beta(s) + s * self.dbeta(s)


def power_cap_mobility(m_beta: float = 1.0, gamma: float = 1.0) -> Mobility:
    """``beta(s) = max(m_beta - s**gamma, 0)`` with ``gamma >= 1``.

    The density cap (the point past which beta vanishes) is
    ``m_beta ** (1 / gamma)``; for ``gamma = 1`` it coincides with
    ``m_beta`` itself.
    """
    if m_beta <= 0:
        raise ValueError("m_beta must be positive")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    cap = m_beta ** (1.0 / gamma)

    def beta(s, _m=m_beta, _g=gamma):
        s = np.abs(np.asarray(s, dtype=float))
        # s ** 1.0 == s exactly, so gamma = 1 skips the power
        return np.maximum(_m - (s if _g == 1.0 else s ** _g), 0.0)

    def dbeta(s, _m=m_beta, _g=gamma, _cap=cap):
        # left derivative at the cap so theta' is one-sided on [0, cap]
        s = np.asarray(s, dtype=float)
        return np.where(s <= _cap, -_g * np.abs(s) ** (_g - 1.0), 0.0)

    # theta'(s) = m_beta - (gamma + 1) s**gamma on [0, cap]
    lip_theta = max(m_beta, gamma * m_beta)
    return Mobility(beta, float(m_beta), float(cap), float(lip_theta), dbeta)


def tabulated_mobility(samples: Array, values: Array) -> Mobility:
    """Piecewise-linear mobility from a (density, beta) table.

    The table must be non-increasing, start positive and end at zero;
    evaluation clamps to ``[0, beta_max]`` and extends by zero beyond the
    last sample.
    """
    s = np.asarray(samples, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.ndim != 1 or s.shape != v.shape or len(s) < 2:
        raise ValueError("need matching 1D sample/value arrays of length >= 2")
    if np.any(np.diff(s) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if np.any(np.diff(v) > 1e-14):
        raise ValueError("tabulated beta must be non-increasing")
    if v[0] <= 0 or abs(v[-1]) > 1e-14:
        raise ValueError("tabulated beta must start positive and end at 0")
    beta_max = float(v[0])
    nonzero = np.nonzero(v > 0)[0]
    cap = float(s[nonzero[-1] + 1]) if len(nonzero) else float(s[0])

    def beta(x, _s=s, _v=v, _bm=beta_max):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, _s, _v, left=_bm, right=0.0)
        return np.clip(out, 0.0, _bm)

    slopes = np.diff(v) / np.diff(s)

    def dbeta(x, _s=s, _slopes=slopes):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(_s, x, side="right") - 1, 0, len(_slopes) - 1)
        out = _slopes[idx]
        return np.where((x < _s[0]) | (x > _s[-1]), 0.0, out)

    grid = np.linspace(0.0, cap, 2049)
    lip_theta = float(np.max(np.abs(beta(grid) + grid * dbeta(grid))))
    return Mobility(beta, beta_max, cap, lip_theta, dbeta)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExternalPotential:
    """External potential given as the triple ``(V, V', V'')``.

    ``sup_d2`` and ``lip_d2`` bound the second derivative and its Lipschitz
    constant.  ``v``, ``dv`` and ``d2v`` must act elementwise on arrays of
    any shape: the energy-balance series passes whole blocks of stored times.
    """

    v: Callable[[Array], Array]
    dv: Callable[[Array], Array]
    d2v: Callable[[Array], Array]
    sup_d2: float
    lip_d2: float


def zero_potential() -> ExternalPotential:
    z = lambda x: np.zeros(np.shape(x))
    return ExternalPotential(z, z, z, 0.0, 0.0)


def linear_potential(slope: float) -> ExternalPotential:
    a = float(slope)
    return ExternalPotential(
        lambda x: a * np.asarray(x, dtype=float),
        lambda x: np.full(np.shape(x), a),
        lambda x: np.zeros(np.shape(x)),
        0.0, 0.0,
    )


def quadratic_potential(curvature: float = 1.0) -> ExternalPotential:
    a = float(curvature)
    return ExternalPotential(
        lambda x: 0.5 * a * np.asarray(x, dtype=float) ** 2,
        lambda x: a * np.asarray(x, dtype=float),
        lambda x: np.full(np.shape(x), a),
        abs(a), 0.0,
    )


def external_potential(v, dv, d2v, sup_d2, lip_d2) -> ExternalPotential:
    return ExternalPotential(v, dv, d2v, float(sup_d2), float(lip_d2))


@dataclass(frozen=True, eq=False)
class InteractionPotential:
    """Even interaction kernel ``W`` with derivative conventions.

    ``dw(0) = 0`` for the kinked kinds (odd extension, consistent with
    ``sign(0) = 0``).  ``newtonian_sign`` is +1 for the attractive absolute
    value kernel, -1 for the repulsive one, 0 otherwise; the sign drives the
    closed-form cumulative expressions in :mod:`partmob.forces`.
    ``is_zero`` marks ``W = 0``, set by :func:`no_interaction`.  ``w`` is
    even and ``dw`` odd bit for bit (see :func:`regular_interaction`).
    """

    w: Callable[[Array], Array]
    dw: Callable[[Array], Array]
    d2w: Callable[[Array], Array]
    sup_dw: float
    sup_d2w: float
    lip_d2w: float
    newtonian_sign: int = 0
    is_zero: bool = False

    @property
    def is_newtonian(self) -> bool:
        return self.newtonian_sign != 0


def no_interaction() -> InteractionPotential:
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return InteractionPotential(z, z, z, 0.0, 0.0, 0.0, is_zero=True)


def newtonian(attractive: bool = True) -> InteractionPotential:
    sign = 1 if attractive else -1

    def w(x, _s=sign):
        return _s * np.abs(np.asarray(x, dtype=float))

    def dw(x, _s=sign):
        return _s * np.sign(np.asarray(x, dtype=float))

    def d2w(x):
        # pointwise second derivative away from the kink; the distributional
        # part is handled by the cumulative closed forms
        return np.zeros_like(np.asarray(x, dtype=float))

    return InteractionPotential(w, dw, d2w, 1.0, 0.0, 0.0, sign)


def exponential_kernel(terms) -> InteractionPotential:
    """``W(x) = sum_k c_k exp(-|x| / l_k)`` for ``terms = ((c_k, l_k), ...)``.

    ``W = sum_k c_k e_k``, ``W' = sign(x) sum_k (-c_k / l_k) e_k`` and
    ``W'' = sum_k (c_k / l_k**2) e_k``, the coefficients of derivative
    ``p`` being ``(-1)**p * c_k / l_k**p`` and ``e_k = exp(|x| / (-l_k))``,
    which rounds as ``exp(-|x| / l_k)``, are summed term by term in work
    arrays: the last term reuses the ``|x|`` array, and ``sign`` that array
    once it is added.  The argument is never written, and a 0-d one gives
    a numpy scalar.  ``W`` is even and ``W'`` odd bit for bit, through
    ``abs``.  The bound ``sum_k |c_k| / l_k**p`` of derivative ``p`` is inf
    where a power leaves the float range (``l**2`` overflows at 1e200,
    ``l**3`` is 0.0 at 1e-120).
    """
    last = len(terms) - 1

    @lru_cache(maxsize=None)
    def scaled(p):
        # (coefficient, -l_k, whether last) per term of derivative p, kept
        # (formed per call they cost Morse particle forces about 1 %) and
        # formed on first use: where a bound is inf a coefficient may not
        # exist, and morse refuses that kernel before any call
        return tuple(((-1) ** p * c / ell**p, -ell, k == last)
                     for k, (c, ell) in enumerate(terms))

    def _sum(x, p):
        # (derivative p without sign(x), in a fresh array unless there is
        # one term; |x|'s array)
        ax = np.abs(x, out=np.empty_like(x))
        total = None
        for c, neg_ell, is_last in scaled(p):
            e = np.divide(ax, neg_ell,
                          out=ax if is_last else np.empty_like(x))
            np.multiply(c, np.exp(e, out=e), out=e)
            total = e if total is None else np.add(total, e, out=total)
        return total, ax

    def w(x):
        return _sum(np.asarray(x, dtype=float), 0)[0][()]

    def dw(x):
        x = np.asarray(x, dtype=float)
        total, ax = _sum(x, 1)
        sign = np.sign(x, out=ax if last else None)
        return np.multiply(sign, total, out=total)[()]

    def d2w(x):
        return _sum(np.asarray(x, dtype=float), 2)[0][()]

    def bound(p):
        try:
            return sum(abs(c) / ell**p for c, ell in terms)
        except (OverflowError, ZeroDivisionError):
            return math.inf

    return InteractionPotential(w, dw, d2w, bound(1), bound(2), bound(3))


def morse(c_attract: float, ell_attract: float,
          c_repulse: float, ell_repulse: float) -> InteractionPotential:
    """Short-range attraction/repulsion kernel with two decay lengths.

    ``W(x) = -c_attract * exp(-|x|/ell_attract)
            + c_repulse * exp(-|x|/ell_repulse)``, the
    :func:`exponential_kernel` of its two terms.
    """
    ca, la, cr, lr = (float(c_attract), float(ell_attract),
                      float(c_repulse), float(ell_repulse))
    if min(ca, la, cr, lr) <= 0:
        raise ValueError("Morse parameters must be positive")
    kernel = exponential_kernel(((-ca, la), (cr, lr)))
    infinite = [name for name in ("sup_dw", "sup_d2w", "lip_d2w")
                if not math.isfinite(getattr(kernel, name))]
    if infinite:
        raise ValueError(
            f"Morse parameters c_attract={ca!r}, ell_attract={la!r}, "
            f"c_repulse={cr!r}, ell_repulse={lr!r} give non-finite kernel "
            f"bounds: {', '.join(infinite)}")
    return kernel


def regular_interaction(w, dw, d2w, sup_dw, sup_d2w,
                        lip_d2w) -> InteractionPotential:
    """Smooth even kernel from user callables.

    ``w``, ``dw`` and ``d2w`` must act elementwise on float arrays of any
    shape: the force and energy paths call them on 2-D and 3-D blocks of
    pairwise differences.  ``w`` must be even and ``dw`` odd bit for bit,
    ``w(-d) == w(d)`` and ``dw(-d) == -dw(d)`` exactly for every float
    ``d``: the dense pair sums evaluate each once per unordered pair, and
    copy it, or negate it, for the mirrored pair.  Formulas such as
    ``g(abs(d))`` and ``sign(d) * g(abs(d))`` are even and odd by
    construction.
    """
    return InteractionPotential(w, dw, d2w, float(sup_dw), float(sup_d2w),
                                float(lip_d2w))


@dataclass(frozen=True, eq=False)
class Potentials:
    external: ExternalPotential
    interaction: InteractionPotential


# ---------------------------------------------------------------------------
# Initial density
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InitialDensity:
    """Compactly supported non-negative initial profile.

    ``density`` and ``cumulative`` are vectorised; ``cumulative(x)`` is the
    mass of ``(-inf, x]`` and reaches ``mass`` at ``x_max``.  ``lower_bound``
    is a uniform positive floor on the support when one exists, else 0.
    ``breakpoints`` are the jumps of a step profile, which the mass check
    integrates piece by piece.

    For a ``float`` ``x``, ``cumulative(x)`` must equal
    ``cumulative(np.asarray(x))`` bit for bit: the quantile bisection
    passes plain floats, so a profile may compute on them without numpy,
    but the particle positions must not depend on the path taken.
    """

    density: Callable[[Array], Array]
    cumulative: Callable[[Array], Array]
    mass: float
    sup_norm: float
    lower_bound: float
    x_min: float
    x_max: float
    breakpoints: np.ndarray | None = None
    interior_vacuum: bool = False


def _clamp(x, lo: float, hi: float):
    """``np.clip(x, lo, hi)`` in two ufunc calls, without ``clip``'s
    dispatch overhead: the same value for every float, NaN propagated.

    A float strictly inside ``(lo, hi)`` is returned as it is.  Every other
    input, the ends, NaN and arrays included, takes the ufuncs, so numpy's
    own rules decide ties such as ``-0.0`` against ``0.0``."""
    if isinstance(x, float) and lo < x < hi:
        return x
    return np.minimum(hi, np.maximum(lo, x))


def uniform_density(a: float, b: float, height: float,
                    mass: float | None = None) -> InitialDensity:
    a, b, height = float(a), float(b), float(height)
    if b <= a:
        raise ValueError("need a < b")
    true_mass = height * (b - a)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), height, 0.0)

    def cumulative(x):
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
        return height * _clamp(x - a, 0.0, b - a)

    return InitialDensity(density, cumulative,
                          float(true_mass if mass is None else mass),
                          height, height, a, b)


def parabolic_bump(amplitude: float = 0.75, center: float = 0.0,
                   radius: float = 1.0,
                   mass: float | None = None) -> InitialDensity:
    """``rho(x) = amplitude * max(1 - ((x - center)/radius)**2, 0)``."""
    amp, c, r = float(amplitude), float(center), float(radius)
    if amp <= 0 or r <= 0:
        raise ValueError("amplitude and radius must be positive")
    true_mass = amp * 4.0 * r / 3.0

    def density(x):
        u = (np.asarray(x, dtype=float) - c) / r
        return amp * np.maximum(1.0 - u * u, 0.0)

    def cumulative(x):
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
        u = _clamp((x - c) / r, -1.0, 1.0)
        return amp * r * (u - u**3 / 3.0 + 2.0 / 3.0)

    return InitialDensity(density, cumulative,
                          float(true_mass if mass is None else mass),
                          amp, 0.0, c - r, c + r)


def piecewise_constant_density(breakpoints, values,
                               mass: float | None = None) -> InitialDensity:
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    if bp.ndim != 1 or len(bp) != len(vals) + 1 or len(vals) < 1:
        raise ValueError("need len(breakpoints) == len(values) + 1")
    if np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    true_mass = float(np.sum(vals * np.diff(bp)))
    cum = edge_masses(bp, vals)
    positive = vals > 0
    interior_vacuum = bool(np.any(~positive[np.nonzero(positive)[0][0]:
                                            np.nonzero(positive)[0][-1] + 1])) \
        if np.any(positive) else False

    def density(x, _bp=bp, _vals=vals):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(_bp, x, side="right") - 1, 0, len(_vals) - 1)
        out = _vals[idx]
        return np.where((x < _bp[0]) | (x > _bp[-1]), 0.0, out)

    def cumulative(x, _bp=bp, _cum=cum):
        x = np.asarray(x, dtype=float)
        return np.interp(x, _bp, _cum)

    return InitialDensity(density, cumulative,
                          float(true_mass if mass is None else mass),
                          float(np.max(vals)),
                          float(np.min(vals)) if np.all(positive) else 0.0,
                          float(bp[0]), float(bp[-1]), bp,
                          interior_vacuum=interior_vacuum)


# ---------------------------------------------------------------------------
# Problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Problem:
    mobility: Mobility
    potentials: Potentials
    initial: InitialDensity

    @property
    def M(self) -> float:
        """Uniform density bound ``max(sup rho0, density cap)``."""
        return max(self.initial.sup_norm, self.mobility.cap)

    @property
    def c_force(self) -> float:
        """Lipschitz-type constant for neighbour force differences.

        For absolute-value kernels (``sup_dw = 1``, ``sup_d2w = lip_d2w =
        0``) it reduces to ``max(sup_d2 + 2M, lip_d2)``: the second
        difference of the interaction cancels, leaving a ``2M`` term from
        the kink; for ``W = 0`` to ``max(sup_d2, lip_d2)``.
        """
        v = self.potentials.external
        w = self.potentials.interaction
        m = self.initial.mass
        c1 = v.sup_d2 + m * w.sup_d2w + 2.0 * self.M * w.sup_dw
        c2 = v.lip_d2 + m * w.lip_d2w
        c3 = v.sup_d2 + (2.0 + m) * w.sup_d2w
        return max(c1, c2, c3)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


NON_MONOTONE_MOBILITY = "NonMonotoneMobility"
MASS_MISMATCH = "MassMismatch"
UNBOUNDED_SUPPORT = "UnboundedSupport"
NEGATIVE_DENSITY = "NegativeDensity"


class InvalidProblem(ValueError):
    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"{i.code}: {i.message}" for i in self.issues)
        super().__init__(f"invalid problem: {lines}")


def _integrate_density(initial: InitialDensity) -> float:
    # composite Gauss aligned to declared breakpoints, so step profiles are
    # integrated exactly and smooth ones far beyond the check tolerance
    pieces = initial.breakpoints if initial.breakpoints is not None \
        else np.array([initial.x_min, initial.x_max])
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        nodes, weights = cell_gauss(np.linspace(a, b, 512 + 1))
        total += float(np.sum(weights * initial.density(nodes)))
    return total


def check_problem(problem: Problem) -> list[ValidationIssue]:
    """Collect every violated structural assumption; empty list means valid."""
    issues: list[ValidationIssue] = []
    mob = problem.mobility
    init = problem.initial

    s = np.linspace(0.0, max(mob.cap, init.sup_norm, 1.0) * 1.5, 1000)
    bvals = mob.beta(s)
    if np.any(np.diff(bvals) > 1e-12 * max(mob.beta_max, 1.0)):
        issues.append(ValidationIssue(
            NON_MONOTONE_MOBILITY,
            "beta must be non-increasing in the density"))
    if mob.beta_max <= 0 or abs(float(mob.beta(mob.cap))) > 1e-12:
        issues.append(ValidationIssue(
            NON_MONOTONE_MOBILITY,
            "beta must be positive at 0 and vanish at the density cap"))

    if not (np.isfinite(init.x_min) and np.isfinite(init.x_max)
            and init.x_max > init.x_min):
        issues.append(ValidationIssue(
            UNBOUNDED_SUPPORT,
            "initial density needs a bounded support interval"))
    else:
        x = np.linspace(init.x_min, init.x_max, 4001)
        rho = init.density(x)
        if np.any(rho < -1e-12 * max(init.sup_norm, 1.0)):
            issues.append(ValidationIssue(
                NEGATIVE_DENSITY, "initial density takes negative values"))
        if init.mass <= 0:
            issues.append(ValidationIssue(
                MASS_MISMATCH, "declared mass must be positive"))
        else:
            quad_mass = _integrate_density(init)
            if abs(quad_mass - init.mass) > 1e-10 * init.mass:
                issues.append(ValidationIssue(
                    MASS_MISMATCH,
                    f"density integrates to {quad_mass:.12g}, declared mass "
                    f"is {init.mass:.12g}"))
        cdf = init.cumulative(x)
        if np.any(np.diff(cdf) < -1e-12 * max(init.mass, 1.0)):
            issues.append(ValidationIssue(
                NEGATIVE_DENSITY, "cumulative function must be non-decreasing"))
        if abs(float(init.cumulative(init.x_max)) - init.mass) \
                > 1e-10 * max(init.mass, 1.0):
            issues.append(ValidationIssue(
                MASS_MISMATCH,
                "cumulative function does not reach the declared mass at the "
                "right support endpoint"))
    return issues


def validate(problem: Problem) -> Problem:
    """Return ``problem`` unchanged, or raise ``InvalidProblem`` listing
    every violated assumption."""
    issues = check_problem(problem)
    if issues:
        raise InvalidProblem(issues)
    return problem
