#!/usr/bin/env python3
"""Write the reference CSVs that byte-identity checks compare.

    python scripts/reference_outputs.py OUT_DIR

Runs 16 commands of the checkout this script belongs to, each in a fresh
``python -m partmob`` process with ``--out-dir OUT_DIR/<config>/<command>``:
``run`` and ``edb-check`` on the four ``configs/*.cfg`` and the two
``perfbench/configs/morse*.cfg``; ``converge``, ``oracle-compare`` and
``entropy-check`` on ``configs/reduction.cfg``; ``entropy-check`` on
``perfbench/configs/morse_entropy.cfg``.  Together they write 28 CSVs.
Compare two such trees with ``scripts/compare_outputs.py``.  Each command
starts a session of its own; a command that leaves a process of that
session running after it exits counts as failed ("left a process
running"), and the process is killed.  The exit status is 0 only when
every command exits 0 and leaves nothing running, 1 otherwise, and 2 for
a usage error.

Two commands run at a time when the process may use two CPUs, one at a
time under ``taskset -c 0``; the lines print in the order above either way.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
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

    def outcome(command):
        # the exit code and whether the command's session outlived it
        cfg, cmd = command
        proc = subprocess.Popen(
            [sys.executable, "-m", "partmob", "--config", str(ROOT / cfg),
             "--out-dir", str(out / Path(cfg).stem / cmd), cmd],
            env=env, stdout=subprocess.DEVNULL, start_new_session=True)
        code = proc.wait()
        try:
            os.killpg(proc.pid, 0)      # the session's process group
        except ProcessLookupError:
            return code, False
        os.killpg(proc.pid, 9)          # SIGKILL
        return code, True

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    failed = []
    # each command is a child process, so a thread per running command
    # only waits; map yields the outcomes in COMMANDS order
    with ThreadPoolExecutor(min(2, cpus)) as pool:
        for (cfg, cmd), (code, left) in zip(COMMANDS,
                                            pool.map(outcome, COMMANDS)):
            note = ", left a process running" if left else ""
            print(f"{cfg} {cmd}: exit {code}{note}", flush=True)
            if code != 0 or left:
                failed.append(f"{cfg} {cmd}")
    print(f"{len(COMMANDS) - len(failed)} of {len(COMMANDS)} commands "
          f"exited 0 and left nothing running")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
