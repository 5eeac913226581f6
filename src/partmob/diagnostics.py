"""Norm, distance and entropy diagnostics for reconstructed profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forces import continuum_force, row_blocks, step_values
from .model import GAUSS_NODES, GAUSS_WEIGHTS, Problem, edge_masses, simpson
from .reconstruct import ReconstructedFields, TimeGridMismatch, write_table

__all__ = [
    "total_variation",
    "h1_proxy",
    "diagnostics_records",
    "write_diagnostics_csv",
    "BumpTestFunction",
    "standard_bump_grid",
    "entropy_report",
    "write_entropy_csv",
]


def total_variation(densities: np.ndarray):
    """Jump sum of the piecewise-constant profile, boundary jumps included;
    one value per row for a block of profiles."""
    rho = np.asarray(densities, dtype=float)
    return rho[..., 0] + np.sum(np.abs(np.diff(rho, axis=-1)), axis=-1) \
        + rho[..., -1]


def bv_norms(fields: ReconstructedFields) -> np.ndarray:
    """L1 norm plus total variation at every stored time, over blocks of
    stored times."""
    tv = np.empty(len(fields.times))
    for rows in row_blocks(len(fields.times), fields.n_cells):
        tv[rows] = total_variation(fields.densities[rows])
    return fields.masses() + tv


def h1_proxy(edges: np.ndarray, densities: np.ndarray):
    """L2 norm plus L2 norm of the derivative of the midpoint interpolant;
    one value per row for a block of profiles.

    Nodes are the cell midpoints with the cell values, closed by linear
    ramps to zero over the first and last half-cells.  A stand-in for a
    Sobolev norm that is finite on piecewise-constant data.
    """
    edges = np.asarray(edges, dtype=float)
    rho = np.asarray(densities, dtype=float)
    ends = np.zeros(rho.shape[:-1] + (1,))
    mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
    xs = np.concatenate([edges[..., :1], mids, edges[..., -1:]], axis=-1)
    vals = np.concatenate([ends, rho, ends], axis=-1)
    dx = np.diff(xs, axis=-1)
    va, vb = vals[..., :-1], vals[..., 1:]
    sq = np.sum(dx * (va**2 + va * vb + vb**2) / 3.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dsq = np.sum(np.where(dx > 0, (vb - va) ** 2 / dx, 0.0), axis=-1)
    return np.sqrt(sq) + np.sqrt(dsq)


def _segment_abs_integral(lengths, da, db):
    # exact integral of |linear| over each segment given endpoint values
    same = da * db >= 0
    tri = np.where(same, 0.5 * (np.abs(da) + np.abs(db)),
                   0.5 * (da**2 + db**2) / np.maximum(np.abs(da) + np.abs(db), 1e-300))
    return np.sum(lengths * tri)


def _w1_between(edges_s, at_s, edges_t, at_t, m):
    # 1-Wasserstein distance of two profiles of mass m, given their edges
    # and edge_masses: exactly the L1 distance of the normalised cumulative
    # functions
    grid = np.union1d(edges_s, edges_t)
    d = (np.interp(grid, edges_s, at_s) - np.interp(grid, edges_t, at_t)) / m
    return float(_segment_abs_integral(np.diff(grid), d[:-1], d[1:]))


def diagnostics_records(fields: ReconstructedFields,
                        problem: Problem) -> dict:
    """The ``diagnostics.csv`` table, computed over blocks of stored times;
    the W1 distance row by row within a block, against the initial
    profile's cumulative masses built once."""
    h = fields.mass / fields.n_cells
    n = len(fields.times)
    mass = fields.masses()
    tv, h1, w1, support, max_rho, min_width = (np.empty(n) for _ in range(6))
    initial = (fields.edges[0],
               edge_masses(fields.edges[0], fields.densities[0]))
    # the widest temporaries are the n_cells + 2 interpolant nodes per row
    for rows in row_blocks(n, fields.n_cells + 2):
        edges, rho = fields.edges[rows], fields.densities[rows]
        tv[rows] = total_variation(rho)
        h1[rows] = h1_proxy(edges, rho)
        w1[rows] = [_w1_between(*initial, *cum, fields.mass)
                    for cum in zip(edges, edge_masses(edges, rho))]
        support[rows] = edges[:, -1] - edges[:, 0]
        max_rho[rows] = np.max(rho, axis=1)
        min_width[rows] = np.min(np.diff(edges, axis=1), axis=1)
    return {"t": fields.times, "mass": mass, "bv": mass + tv, "tv": tv,
            "h1": h1, "w1_from_initial": w1, "support": support,
            "max_density": max_rho,
            "min_cell_ratio": min_width * problem.M / h}


def write_diagnostics_csv(table: dict, path) -> None:
    """The :func:`diagnostics_records` table as CSV."""
    write_table(path, table)


# ---------------------------------------------------------------------------
# Entropy inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpTestFunction:
    """``phi(t, x) = (1 - t/t_end) * (1 - ((x-center)/radius)^2)^3_+``.

    Non-negative, C^2 in space, vanishes at ``t_end`` and outside the bump.
    """

    center: float
    radius: float
    t_end: float
    label: str = ""

    @property
    def support(self) -> tuple[float, float]:
        return self.center - self.radius, self.center + self.radius

    def parts(self, t, x):
        """``(d phi/dt, d phi/dx, phi)`` at ``(t, x)``; ``t`` may be one
        time or one per point."""
        u = (np.asarray(x, dtype=float) - self.center) / self.radius
        core = np.maximum(1.0 - u * u, 0.0)
        bump = core**3
        fade = 1.0 - t / self.t_end
        return (-bump / self.t_end,
                fade * 3.0 * core**2 * (-2.0 * u / self.radius),
                fade * bump)


def standard_bump_grid(t_end: float, x_lo: float, x_hi: float,
                       n_centers: int = 3,
                       radius_fractions=(0.2, 0.35, 0.5)) -> list[BumpTestFunction]:
    """Grid of space-time bumps covering (x_lo, x_hi); default 3x3 = 9."""
    width = x_hi - x_lo
    centers = np.linspace(x_lo + 0.25 * width, x_hi - 0.25 * width, n_centers)
    bumps = []
    for a in centers:
        for frac in radius_fractions:
            r = frac * width
            bumps.append(BumpTestFunction(float(a), float(r), t_end,
                                          label=f"a={a:.3g},r={r:.3g}"))
    return bumps


def _panel_nodes(edges, lo, hi, max_len, densities=None):
    """Gauss nodes and weights on [lo, hi] split at the profile edges, long
    segments subdivided so the quadrature resolves the test function.

    ``edges`` is one profile's edges or a block of them, one row each; the
    rows' nodes are concatenated, row r's at ``offsets[r]:offsets[r + 1]``.
    Every node and weight gets the bits of the same row built alone.

    Given the profiles' ``densities`` (one row per row of ``edges``), also
    returns the density at every node, as ``step_values`` selects it.
    """
    edges = np.atleast_2d(edges)
    inside = (edges > lo) & (edges < hi)
    cuts = edges[inside]
    n_cuts = np.count_nonzero(inside, axis=1)
    cut_ends = np.cumsum(n_cuts)
    # each row's breaks are lo, its cuts and hi: its segments start at lo
    # and at its cuts, and end at its cuts and at hi
    a = np.insert(cuts, cut_ends - n_cuts, lo)
    b = np.insert(cuts, cut_ends, hi)
    n_sub = np.maximum(1, np.ceil((b - a) / max_len).astype(int))
    panel_ends = np.cumsum(n_sub)
    seg = np.repeat(np.arange(len(a)), n_sub)
    k = np.arange(len(seg)) - np.repeat(panel_ends - n_sub, n_sub)
    width = (b - a) / n_sub
    starts = a[seg] + k * width[seg]
    mids = starts + 0.5 * width[seg]
    halves = 0.5 * width[seg]
    nodes = mids[:, None] + halves[:, None] * GAUSS_NODES[None, :]
    weights = (halves[:, None] * GAUSS_WEIGHTS[None, :]).ravel()
    # row r's last segment is number cut_ends[r] + r
    row_panels = panel_ends[cut_ends + np.arange(len(n_cuts))]
    offsets = len(GAUSS_NODES) * np.concatenate([[0], row_panels])
    if densities is None:
        return nodes.ravel(), weights, offsets
    return nodes.ravel(), weights, offsets, _panel_densities(
        edges, np.atleast_2d(densities), lo, n_cuts, seg, nodes, offsets)


def _panel_densities(edges, densities, lo, n_cuts, seg, nodes, offsets):
    # The segments of row r lie in its cells first_r - 1, first_r, ... in
    # turn, first_r being the number of its edges at or left of lo.  In
    # arrays padded with a cell (-inf, edges[0]) and a cell (edges[-1],
    # inf) of density 0.0 that is cell first_r + j for segment j.  A node
    # inside that half-open cell gets step_values' value; one that rounding
    # put outside it sends its row to step_values.  A panel's nodes ascend
    # (rounding is monotone), so its first and last node decide.
    n_rows, n_edges = edges.shape
    bounds = np.empty((n_rows, n_edges + 2))
    bounds[:, 0], bounds[:, -1] = -np.inf, np.inf
    bounds[:, 1:-1] = edges
    values = np.zeros((n_rows, n_edges + 1))
    values[:, 1:-1] = densities
    first = np.count_nonzero(edges <= lo, axis=1)
    per_row = n_cuts + 1
    seg_row = np.repeat(np.arange(n_rows), per_row)
    seg_cell = np.arange(len(seg_row)) + np.repeat(
        first - (np.cumsum(per_row) - per_row), per_row)
    row = seg_row[seg]
    at = row * (n_edges + 2) + seg_cell[seg]
    left, right = bounds.ravel()[at], bounds.ravel()[at + 1]
    out = np.repeat(values.ravel()[at - row], nodes.shape[1])
    strayed = ~((left <= nodes[:, 0]) & (nodes[:, -1] < right))
    if strayed.any():
        for r in np.unique(row[strayed]):
            i, j = offsets[r], offsets[r + 1]
            out[i:j] = step_values(edges[r], densities[r], nodes.ravel()[i:j])
    return out


def _block_series(fields, problem: Problem, phi: BumpTestFunction, block,
                  max_len, c_values, theta_c) -> np.ndarray:
    """The entropy integrand's space integral at the stored times ``block``
    (rows) and every level (columns).  The rows' panel nodes form one flat
    array; each integral is one ``np.sum`` over its row's slice, so a block
    gives the bits of one stored time done alone."""
    nodes, weights, offsets, rho_n = _panel_nodes(
        fields.edges[block], *phi.support, max_len, fields.densities[block])
    spans = list(zip(offsets[:-1], offsets[1:]))
    phi_t, phi_x, phi_v = phi.parts(
        np.repeat(fields.times[block], np.diff(offsets)), nodes)
    for k, (i, j) in zip(block, spans):
        edges, rho = fields.edges[k], fields.densities[k]
        force, dforce = continuum_force(edges, rho, fields.mass,
                                        problem.potentials, nodes[i:j])
        # in place, left to right: dphi/dx * force * weights and so on
        phi_x[i:j] *= force
        phi_v[i:j] *= dforce
    phi_t *= weights
    phi_x *= weights
    phi_v *= weights
    del nodes, weights   # two fewer block arrays alive in the level loop
    theta_n = problem.mobility.theta(rho_n)
    out = np.empty((len(block), len(c_values)))
    for col, (c, theta) in enumerate(zip(c_values, theta_c)):
        terms = np.abs(rho_n - c) * phi_t - np.sign(rho_n - c) * (
            (theta_n - theta) * phi_x - theta * phi_v)
        out[:, col] = [np.sum(terms[i:j]) for i, j in spans]
    return out


def _entropy_residuals_for_phi(fields, problem: Problem, c_values,
                               phi: BumpTestFunction,
                               time_stride: int = 1) -> np.ndarray:
    """Residuals for one test bump across several entropy levels, sharing
    the profile/force evaluations per stored time, over blocks of stored
    times."""
    c_values = np.asarray(c_values, dtype=float)
    if np.any(c_values <= 0):
        raise ValueError("entropy levels c must be positive")
    lo, hi = phi.support
    theta_c = problem.mobility.theta(c_values)
    max_len = (hi - lo) / 64.0
    last = len(fields.times) - 1
    indices = np.arange(0, last + 1, time_stride)
    if indices[-1] != last:
        indices = np.append(indices, last)
    # the bump family vanishes exactly at its horizon and is negative
    # beyond it, so the stored window must end there
    horizon = float(fields.times[indices[-1]])
    if abs(phi.t_end - horizon) > fields._time_slack():
        raise TimeGridMismatch("test function horizon must match the stored "
                               "window")

    series = np.empty((len(indices), len(c_values)))
    # a row has at most 64 panels plus one per segment, of which there are
    # at most n_cells + 2, and 4 nodes per panel; about a dozen arrays of a
    # block's nodes are alive at once, so a block holds at most half of
    # BLOCK_ELEMENTS nodes
    row_nodes = len(GAUSS_NODES) * (fields.n_cells + 66)
    for rows in row_blocks(len(indices), 2 * row_nodes):
        series[rows] = _block_series(fields, problem, phi, indices[rows],
                                     max_len, c_values, theta_c)
    bulk = simpson(series, fields.times[indices], axis=0)

    nodes, weights, _, rho_n = _panel_nodes(fields.edges[0], lo, hi, max_len,
                                            fields.densities[0])
    phi0 = phi.parts(float(fields.times[0]), nodes)[2] * weights
    initial = np.array([np.sum(np.abs(rho_n - c) * phi0) for c in c_values])
    return initial + bulk


def entropy_report(fields, problem: Problem, c_values, phis,
                   time_stride: int = 1) -> dict:
    """The ``entropy.csv`` table: one residual per (level, test function)
    of the grid, the levels varying fastest.

    A residual is non-negative in the vanishing-mesh limit for entropy
    solutions; a markedly negative one flags an entropy violation.  Space
    integrals run over the bump support (Gauss order 4 on profile-aligned
    panels), time by composite Simpson on the stored grid.
    """
    table = {"c": [], "phi_id": [], "residual": []}
    for i, phi in enumerate(phis):
        vals = _entropy_residuals_for_phi(fields, problem, c_values, phi,
                                          time_stride)
        table["c"] += map(float, c_values)
        table["phi_id"] += [phi.label or str(i)] * len(vals)
        table["residual"] += vals.tolist()
    return table


def write_entropy_csv(table: dict, path) -> None:
    """The :func:`entropy_report` table as CSV."""
    write_table(path, table)
