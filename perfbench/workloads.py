"""Workload definitions: which CLI commands a pass runs, on which configs,
and which CSVs each command must leave behind.

Seed 0 runs every config exactly as written.  Any other seed draws, per
config, a bump amplitude in 0.75 +- 0.01 and a bump centre in 0 +- 0.05,
handed to the program as ``--override`` values.  The amplitude stays far
under the density cap M = 1, and the narrow range keeps the step count of
the configs whose time step follows the cell mass nearly constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# documented CSV headers (README, "CSV schemas")
HEADERS = {
    "snapshots.csv": "t,x_left,x_right,rho,u_left,u_right",
    "diagnostics.csv": "t,mass,bv,tv,h1,w1_from_initial,support,max_density,"
                       "min_cell_ratio",
    "variational.csv": "t,F_h,Fhat_h,R_h,R_h_star,D_h,edb_partial",
    "entropy.csv": "c,phi_id,residual",
    "refinement.csv": "N,cauchy_diff,bv_max,edb_residual",
    "oracle_compare.csv": "t,l1_error",
}

OUTPUTS = {
    "run": ("snapshots.csv", "diagnostics.csv", "variational.csv"),
    "edb-check": ("variational.csv",),
    "entropy-check": ("entropy.csv",),
    "oracle-compare": ("oracle_compare.csv",),
    "converge": ("refinement.csv",),
}

AMPLITUDE = 0.75
AMPLITUDE_JITTER = 0.01
CENTER_JITTER = 0.05


@dataclass(frozen=True)
class Step:
    """One command of a workload: ``partmob --config <config> <command>``."""

    command: str
    config: str                      # relative to the checkout root
    overrides: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]


_FIGURE_CONFIGS = ("attractive", "repulsive_confined", "repulsive_free")

WORKLOADS = {w.name: w for w in (
    Workload(
        "figures",
        "The paper's three reference experiments as shipped: |x| kernels on "
        "the O(N) rank-sum path, time in snapshot writing, EDB and "
        "diagnostics.",
        tuple(Step(cmd, f"configs/{cfg}.cfg")
              for cfg in _FIGURE_CONFIGS for cmd in ("run", "edb-check"))),
    Workload(
        "reduction",
        "Conservation-law reduction (W=0): quantile init, solver across N, "
        "the converge thread pool, the FV oracle and entropy residuals; no "
        "snapshots written.",
        (Step("converge", "configs/reduction.cfg",
              ("discretization.N_list=50,100,200,400",)),
         Step("oracle-compare", "configs/reduction.cfg"),
         Step("entropy-check", "configs/reduction.cfg"))),
    Workload(
        "morse",
        "Morse kernel: the only workload on the dense O(N^2) particle "
        "forces, the (4N)^2 pair array of the reconstructed energy and the "
        "per-(node, cell) continuum-force loop.",
        (Step("run", "perfbench/configs/morse.cfg"),
         Step("edb-check", "perfbench/configs/morse.cfg"),
         Step("entropy-check", "perfbench/configs/morse_entropy.cfg"))),
)}


def seed_overrides(seed: int, configs) -> dict[str, tuple[str, ...]]:
    """``--override`` values per config; empty for seed 0."""
    if seed == 0:
        return {cfg: () for cfg in configs}
    rng = random.Random(seed)
    out = {}
    for cfg in configs:
        amp = AMPLITUDE + rng.uniform(-AMPLITUDE_JITTER, AMPLITUDE_JITTER)
        center = rng.uniform(-CENTER_JITTER, CENTER_JITTER)
        out[cfg] = (f"problem.initial.amplitude={amp!r}",
                    f"problem.initial.center={center!r}")
    return out


def command_lines(workload: Workload, seed: int, root: Path):
    """(key, command, argv without ``--out-dir``) for every step.

    ``key`` names the step in the digest table, e.g. ``run:attractive``.
    """
    configs = list(dict.fromkeys(step.config for step in workload.steps))
    jitter = seed_overrides(seed, configs)
    lines = []
    for step in workload.steps:
        argv = ["--config", str(root / step.config)]
        for item in step.overrides + jitter[step.config]:
            argv += ["--override", item]
        argv.append(step.command)
        lines.append((f"{step.command}:{Path(step.config).stem}",
                      step.command, argv))
    return lines
