"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds ``{"steps": [[argv...], ...], "out_dirs": [...], "trace": path
or null}``.  Every step is one ``partmob.cli.main`` call timed with
``perf_counter``; the program's own printing goes to this process's
stdout/stderr.  The calibration mix runs before the first step and after
every step.  RESULT gets the exit codes, per-step seconds, the calibration
times, the pass wall time, the peak RSS and, when traced, the per-layer
metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import partmob
import partmob.cli
from calibration import reference_s


def run_steps(steps, out_dirs, tracer=None):
    codes, seconds, refs = [], [], []
    start = time.perf_counter()
    for index, (argv, out_dir) in enumerate(zip(steps, out_dirs)):
        if tracer is not None:
            tracer.command = index
        refs.append(reference_s())
        t0 = time.perf_counter()
        try:
            code = partmob.cli.main(list(argv) + ["--out-dir", out_dir])
        except Exception:
            # a traceback is a failed command, not the end of the pass
            traceback.print_exc()
            code = "exception"
        seconds.append(time.perf_counter() - t0)
        codes.append(code)
    refs.append(reference_s())
    return codes, seconds, refs, time.perf_counter() - start


def main(spec_path, result_path) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, partmob)
    codes, seconds, refs, wall = run_steps(spec["steps"], spec["out_dirs"],
                                           tracer)
    result = {
        "codes": codes,
        "seconds": seconds,
        "refs": refs,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        tracing.write_spans(tracer.spans, spec["trace"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
