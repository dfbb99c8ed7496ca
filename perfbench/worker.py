"""Run one workload in this interpreter and print its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this script in a fresh interpreter for every workload run.
Untraced, it repeats passes closed-loop (one operation at a time) until the
time is used, and reports per-operation latencies, per-pass wall times and
the peak resident set size.  Traced, it runs pass 0 once untraced and once
traced, with the same inputs, and reports the per-layer summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (perfbench/layers.py)
import tracer as tracing  # noqa: E402  (perfbench/tracer.py)
import workloads  # noqa: E402  (perfbench/workloads.py, imports nil3trans)

OUT_DIR = ROOT / "perfbench" / "out"


def run_pass(workload, inputs, op_base: int, tracer=None) -> dict:
    """Run one pass of operations; only the operations are timed."""
    latencies, outcomes = [], []
    for k, inp in enumerate(inputs):
        ctx = tracer.operation(op_base + k) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                result = workload.run(inp)
        except Exception:
            latencies.append(time.perf_counter() - t0)
            outcomes.append(workloads.Outcome(1, 1, error=traceback.format_exc()))
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            outcomes.append(workload.check(inp, result))
        except Exception:
            outcomes.append(workloads.Outcome(1, 1, error=traceback.format_exc()))
    for out in outcomes:
        if out.error:
            print(f"perfbench: failed operation: {out.error}", file=sys.stderr)
    return {"latencies": latencies, "wall": sum(latencies), "outcomes": outcomes}


def timed_run(workload, seed: int, seconds: float, min_passes: int) -> list:
    """Closed loop: passes back to back while the next one fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(workload, workload.inputs(seed, len(passes)),
                     len(passes) * workload.pass_size)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + p["wall"] > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, str(OUT_DIR), smoke=args.smoke)
    if args.trace:
        inputs = workload.inputs(args.seed, 0)
        plain = run_pass(workload, inputs, 0)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_pass(workload, inputs, 0, tracer)
        spans = tracer.summary()
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
        result = {
            "passes": [plain, traced],
            "layers": layers.per_layer(tracer, spans, traced, plain["wall"]),
            "span_summary": spans,
        }
    else:
        min_passes = 1 if args.smoke else workload.min_passes
        result = {"passes": timed_run(workload, args.seed, args.seconds, min_passes)}
    passes = result.pop("passes")
    outcomes = [o for p in passes for o in p["outcomes"]]
    result.update({
        "pass_size": workload.pass_size,
        "unit": workload.unit,
        "latencies": [p["latencies"] for p in passes],
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "margins": layers.worst_margins(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
