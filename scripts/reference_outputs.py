#!/usr/bin/env python3
"""Write the reference CSVs that byte-identity checks compare.

    python scripts/reference_outputs.py OUT_DIR

Runs 16 commands of the checkout this script belongs to, each in a fresh
``python -m partmob`` process with ``--out-dir OUT_DIR/<config>/<command>``:
``run`` and ``edb-check`` on the four ``configs/*.cfg`` and the two
``perfbench/configs/morse*.cfg``; ``converge``, ``oracle-compare`` and
``entropy-check`` on ``configs/reduction.cfg``; ``entropy-check`` on
``perfbench/configs/morse_entropy.cfg``.  Together they write 28 CSVs.
Compare two such trees with ``scripts/compare_outputs.py``.  The exit
status is 0 only when every command exits 0, 1 otherwise, and 2 for a
usage error.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = ("configs/attractive.cfg", "configs/reduction.cfg",
           "configs/repulsive_confined.cfg", "configs/repulsive_free.cfg",
           "perfbench/configs/morse.cfg", "perfbench/configs/morse_entropy.cfg")

COMMANDS = ([(cfg, cmd) for cfg in CONFIGS for cmd in ("run", "edb-check")]
            + [("configs/reduction.cfg", cmd)
               for cmd in ("converge", "oracle-compare", "entropy-check")]
            + [("perfbench/configs/morse_entropy.cfg", "entropy-check")])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: reference_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    failed = []
    for cfg, cmd in COMMANDS:
        target = out / Path(cfg).stem / cmd
        code = subprocess.run(
            [sys.executable, "-m", "partmob", "--config", str(ROOT / cfg),
             "--out-dir", str(target), cmd],
            env=env, stdout=subprocess.DEVNULL).returncode
        print(f"{cfg} {cmd}: exit {code}")
        if code != 0:
            failed.append(f"{cfg} {cmd}")
    print(f"{len(COMMANDS) - len(failed)} of {len(COMMANDS)} commands "
          f"exited 0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
