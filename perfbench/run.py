"""partmob benchmark: CLI workloads timed end to end, plus a traced run that
splits the time by module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload morse --seed 3 --seconds 36 --trace 1
    python3 perfbench/run.py --workload reduction --record-digests

Each pass runs every command of the workload once, in a fresh child
interpreter (one child at a time), and its outputs are checked and deleted
before the next pass starts.  Passes repeat while another one fits into
``--seconds``.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` the first half of the time runs untraced
passes (per-command times) and the second half traced ones (per-layer
metrics and the tracing overhead).  The last line of stdout is the JSON result; progress and
provenance go to stderr and to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibration import at_reference_speed
from checks import PassCheck, changed_outputs, check_pass, failed_share
from workloads import WORKLOADS, command_lines

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH / "digests.json"

SETUP_PROBES = 5
# a hung pass must not keep the whole run past three minutes
CHILD_TIMEOUT_S = 100.0

COMMAND_METRICS = {
    "run": "run_s",
    "edb-check": "edb_check_s",
    "entropy-check": "entropy_check_s",
    "oracle-compare": "oracle_compare_s",
    "converge": "converge_s",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_sample(env) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until ``partmob.cli`` is
    imported (CLOCK_MONOTONIC is shared by both processes), and the
    calibration time measured in that interpreter right after."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import time, partmob.cli; done = time.monotonic(); "
         f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
         "from calibration import reference_s; "
         "print(repr(done), repr(reference_s()))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    done, reference = map(float, proc.stdout.split()[-2:])
    return done - start, reference


def run_pass(lines, pass_dir: Path, env, trace_path=None):
    """One child pass; returns (PassCheck, child result or None)."""
    pass_dir.mkdir(parents=True)
    out_dirs = [pass_dir / f"{i}-{command}"
                for i, (_, command, _) in enumerate(lines)]
    spec_path, result_path = pass_dir / "spec.json", pass_dir / "result.json"
    spec_path.write_text(json.dumps({
        "steps": [argv for _, _, argv in lines],
        "out_dirs": [str(d) for d in out_dirs],
        "trace": None if trace_path is None else str(trace_path)}))
    steps = [(key, command) for key, command, _ in lines]
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path),
             str(result_path)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        crashed = proc.returncode != 0
        stderr = proc.stderr
    except subprocess.TimeoutExpired as exc:
        crashed, stderr = True, f"pass timed out after {exc.timeout} s"
    try:
        if crashed:
            check = PassCheck(attempted=len(lines), failed=len(lines),
                              problems=[f"pass child failed: {stderr[-2000:]}"])
            return check, None
        result = json.loads(result_path.read_text())
        check = check_pass(steps, result["codes"], out_dirs)
        if check.failed:
            check.problems.append(f"child stderr: {stderr[-2000:]}")
        return check, result
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def run_passes(lines, env, seconds, tag, trace_path=None):
    """Passes while another one fits into ``seconds`` (at least one)."""
    passes = []
    start = time.monotonic()
    longest = 0.0
    while not passes or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        check, result = run_pass(lines, WORK / f"{tag}-{len(passes)}", env,
                                 trace_path)
        longest = max(longest, time.monotonic() - began)
        passes.append((check, result))
        wall = "-" if result is None else f"{result['wall_s']:.3f} s"
        print(f"[perfbench] {tag} pass {len(passes)}: {wall}, "
              f"{check.failed}/{check.attempted} failed", file=sys.stderr)
        if result is None:
            break
    return passes


def step_medians(results, scaled=True) -> list[float]:
    """Each step's median time across passes, by default at reference
    speed (each step is scaled by the mean of the calibration times just
    before and after it).  Bursts of contention on a shared host hit single
    steps, so a pass is timed as the sum of these rather than as the median
    of whole-pass times."""
    def times(r):
        if not scaled:
            return r["seconds"]
        refs = r["refs"]
        return [at_reference_speed(t, 0.5 * (refs[i] + refs[i + 1]))
                for i, t in enumerate(r["seconds"])]
    return [statistics.median(step) for step in zip(*map(times, results))]


def provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def missing_inputs(workload) -> list[str]:
    needed = ["src/partmob/cli.py"] + [s.config for s in workload.steps]
    return [p for p in dict.fromkeys(needed) if not (ROOT / p).is_file()]


def record_digests(workload, env) -> int:
    lines = command_lines(workload, 0, ROOT)
    [(check, _)] = run_passes(lines, env, 0.0, "record")
    if check.failed:
        print("\n".join(check.problems), file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload.name] = dict(sorted(check.digests.items()))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"[perfbench] recorded {len(check.digests)} digests for "
          f"{workload.name}", file=sys.stderr)
    return 0


def measure(workload, seed, seconds, trace, env) -> dict:
    lines = command_lines(workload, seed, ROOT)
    summary = {"workload": workload.name, "seed": seed, "seconds": seconds,
               "trace": trace, **provenance()}
    if trace:
        OUT.mkdir(exist_ok=True)
        plain = run_passes(lines, env, seconds / 2, "untraced")
        traced = run_passes(lines, env, seconds / 2, "traced",
                            OUT / f"spans-{workload.name}.jsonl")
        passes = plain + traced
    else:
        setup = [setup_sample(env) for _ in range(SETUP_PROBES + 1)][1:]
        passes = run_passes(lines, env, seconds, "pass")
        summary["setup_samples"] = setup

    checks = [check for check, _ in passes]
    if seed == 0:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        reference = table.get(workload.name, {})
    else:
        # no recorded digests: identical inputs must give identical bytes
        reference = next((c.digests for c in checks if not c.failed), {})
    changed = sorted({key for c in checks if not c.failed
                      for key in changed_outputs(c.digests, reference)})
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    summary.update(problems=[p for c in checks for p in c.problems],
                   outputs_changed=changed)

    if trace:
        base = [r for _, r in plain if r is not None]
        layered = [r for _, r in traced if r is not None]
        if not base or not layered:
            raise BenchError("; ".join(summary["problems"]) or "no pass ran")
        # per subcommand, summed over the workload's configs
        metrics = dict.fromkeys(COMMAND_METRICS.values(), 0.0)
        for (_, command, _), spent in zip(lines, step_medians(base)):
            metrics[COMMAND_METRICS[command]] += spent
        metrics["failed_ops"] = failed_share(checks)
        metrics["outputs_changed"] = len(changed)
        metrics["trace.overhead_s"] = (sum(step_medians(layered))
                                       - sum(step_medians(base)))
        metrics["wall_raw_s"] = sum(step_medians(base, scaled=False))
        metrics["trace.spans"] = statistics.median_low(
            r["spans"] for r in layered)
        for name in layered[0]["layers"]:
            # counts repeat exactly from pass to pass; keep them whole
            middle = statistics.median if name.endswith("_s") \
                else statistics.median_low
            metrics[name] = middle(r["layers"][name] for r in layered)
        summary["walls_s"] = {"untraced": [r["wall_s"] for r in base],
                              "traced": [r["wall_s"] for r in layered]}
    else:
        done = [r for _, r in passes if r is not None]
        if not done:
            raise BenchError("; ".join(summary["problems"]) or "no pass ran")
        metrics = {
            "wall_s": sum(step_medians(done)),
            "setup_s": statistics.median(at_reference_speed(*sample)
                                         for sample in setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        }
        summary["walls_s"] = [r["wall_s"] for r in done]
        summary["step_seconds"] = [r["seconds"] for r in done]
        summary["calibration_s"] = [r["refs"] for r in done]
    summary["metrics"] = metrics
    summary["result"] = {"correct": failed == 0 and not changed,
                         "attempted": attempted, "failed": failed}
    return summary


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "failed_ops": "share", "outputs_changed": "count",
         "trace.overhead_s": "s", "trace.spans": "count", "wall_raw_s": "s",
         "variational.pair_matrix_bytes": "B-computed",
         **{name: "s" for name in COMMAND_METRICS.values()}}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite the seed-0 CSV digests of the workload")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = missing_inputs(workload)
    if missing:
        print(f"[perfbench] not a partmob checkout, missing: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.record_digests:
            return record_digests(workload, env)
        summary = measure(workload, args.seed, args.seconds, args.trace, env)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"[perfbench] {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    for problem in summary["problems"]:
        print(f"[perfbench] {problem}", file=sys.stderr)
    if summary["outputs_changed"]:
        print(f"[perfbench] outputs changed: {summary['outputs_changed']}",
              file=sys.stderr)
    print(json.dumps({key: summary[key] for key in ("git_sha", "python",
                                                    "numpy", "scipy", "nproc")}),
          file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in summary["metrics"].items()}
    print(json.dumps({**summary["result"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
