"""Benchmark of stokesgreen: one seeded workload per run, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up its workload three times and reports the median set-up
time, then repeats the workload's pass until the next pass would end after
``--seconds`` of measured time (at least one pass), one call at a time with
one BLAS/FFT thread.  Outputs are checked after each pass, outside the timed
region.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a run with
every layer call wrapped in a span, and the spans are written to
``.bench_out/`` when the run ends.  The lines before it give every metric
with its unit and a JSON report with provenance and the raw samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# One thread for BLAS and FFT: the work is sparse matvecs, one-thread FFTs and
# SuperLU solves, and idle BLAS threads only add noise.  Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def provenance():
    import numpy as np
    import scipy

    import stokesgreen.acceptance as acceptance

    src = ROOT / "src"
    return {
        "commit": _git_commit(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
        "memory_requirement_mb": dict(acceptance.MEMORY_REQUIREMENT_MB),
    }


def _git_commit():
    """HEAD of the checkout, read from .git; the benchmark may run without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "stokesgreen" / "__init__.py").is_file():
        print(f"perfbench: no stokesgreen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    import tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    tally = workloads.Tally()

    def set_phase(phase):
        if tracer is not None:
            tracer.phase = phase

    setup_s = []

    def setup():
        set_phase(("setup", len(setup_s)))
        t0 = time.perf_counter()
        state = workload.setup()
        setup_s.append(time.perf_counter() - t0)
        return state

    for _ in range(SETUP_REPEATS - 1):
        setup()
        gc.collect()
    state = setup()

    run_s, pair_s = [], []
    while True:
        if run_s and not workload.reusable:
            state = None
            gc.collect()
            state = setup()
        set_phase(("run", len(run_s)))
        t0 = time.perf_counter()
        outcome = workload.run_pass(state)
        run_s.append(time.perf_counter() - t0)
        pair_s.extend(outcome.pair_seconds)
        set_phase("check")
        if tracer is not None:
            tracer.enabled = False
        workload.check(state, outcome, tally)
        if tracer is not None:
            tracer.enabled = True
        del outcome
        if sum(run_s) + statistics.median(run_s) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "pair_s": {"value": statistics.median(pair_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracing.layer_metrics(
            tracer, len(setup_s), len(run_s), tally.details.get("export_bytes", 0),
            tracing.span_overhead_s())
        metrics["trace.run_s"] = {"value": statistics.median(run_s), "unit": "s"}
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "samples": {"setup_s": setup_s, "run_s": run_s, "pair_s": pair_s},
        "pair_samples": len(pair_s),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": tally.failed / tally.attempted,
        "failures": tally.failures,
        "details": tally.details,
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
