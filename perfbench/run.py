"""nil3trans benchmark: one command, every metric, with correctness checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/nil3trans`` of that checkout and from nowhere else.  Workloads:
``oracle-tight``, ``construct`` and ``reproduce`` (see perfbench/README.md).

``--trace 0`` measures ``setup_s`` (median over fresh interpreters that
import ``nil3trans.cli``), then runs the workload closed-loop in a fresh
interpreter for about ``--seconds`` seconds and prints ``setup_s``,
``wall_s``, ``op_p50_ms``, ``op_p90_ms``, ``fail_ratio`` and ``peak_rss_mb``
with their sample counts.  ``--trace 1`` prints the per-layer metrics of one
traced pass instead.  The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run refuses to start when ``NIL3_THREADS`` is set, so that no program
setting is ever baked into a number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("oracle-tight", "construct", "reproduce")
SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT_S = 170.0
SETUP_SNIPPET = ("import time\nimport nil3trans.cli\n"
                 "print(time.monotonic(), nil3trans.cli.__file__)")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(cmd, timeout: float) -> subprocess.CompletedProcess:
    """Run ``cmd`` from the checkout root; it is killed and reaped on timeout."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not finish within {timeout:.0f} s") from exc


def measure_setup() -> list:
    """Seconds from process start until ``import nil3trans.cli`` returns."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        proc = run_child([sys.executable, "-c", SETUP_SNIPPET], 60)
        if proc.returncode != 0:
            raise BenchError(f"import nil3trans.cli failed:\n{proc.stderr}")
        stamp, path = proc.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"nil3trans was imported from {path.strip()}, not {SRC}")
        times.append(float(stamp) - t0)
    return times


def import_times() -> dict:
    """Cumulative import seconds from ``-X importtime`` (median of runs)."""
    names = {"nil3trans": "setup.nil3trans_import_s",
             "scipy.integrate": "setup.scipy_integrate_import_s",
             "scipy.optimize": "setup.scipy_optimize_import_s"}
    samples = {key: [] for key in names.values()}
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for _ in range(IMPORTTIME_RUNS):
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import nil3trans.cli"], 60)
        if proc.returncode != 0:
            raise BenchError(f"import nil3trans.cli failed:\n{proc.stderr}")
        found = dict.fromkeys(names.values(), 0.0)
        for m in map(line.match, proc.stderr.splitlines()):
            if not m:
                continue
            cumulative, indent, module = int(m.group(2)) / 1e6, len(m.group(3)), m.group(4)
            if indent == 1 and module.split(".")[0] == "nil3trans":
                found[names["nil3trans"]] += cumulative  # the package, then .cli
            elif module in names and module != "nil3trans" and not found[names[module]]:
                found[names[module]] = cumulative
        for key, val in found.items():
            samples[key].append(val)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def machine_record(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nil3trans").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "commit": git_commit(),
            "source_sha256": digest.hexdigest()[:16], "seed": seed}


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for row in (git / "packed-refs").read_text().splitlines():
            if row.endswith(" " + ref):
                return row.split()[0]
    except OSError:
        pass
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(res: dict, setup: list) -> tuple:
    """Metric values and the sample note printed beside each."""
    lat = [x for p in res["latencies"] for x in p]
    beyond = sum(1 for x in lat if x > percentile(lat, 90))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(p) for p in res["latencies"]),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * percentile(lat, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    unit = res["unit"]
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {len(res['latencies'])} passes of {res['pass_size']} {unit}(s)",
        "op_p50_ms": f"n={len(lat)} {unit}s",
        "op_p90_ms": f"n={len(lat)} {unit}s, {beyond} beyond",
        "peak_rss_mb": "n=1 workload interpreter",
    }
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="trivially small passes (self-test only)")
    args = ap.parse_args(argv)
    if "NIL3_THREADS" in os.environ:
        print("perfbench: NIL3_THREADS is set; unset it so the program runs "
              "with its defaults", file=sys.stderr)
        return 2
    try:
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def bench(args) -> int:
    if not (SRC / "nil3trans" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'nil3trans'}")
    record = machine_record(args.seed)
    setup = measure_setup() if not args.trace else None
    setup_layers = import_times() if args.trace else None

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    proc = run_child(cmd, WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload interpreter exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# machine " + json.dumps(record, sort_keys=True))
    if args.trace:
        values = dict(setup_layers, **res["layers"])
        units = dict(PER_LAYER)
        values = {name: values[name] for name in units}
        for name, val in values.items():
            print(f"{name:36s} {val:.6g} {units[name]}")
    else:
        values, notes = end_to_end(res, setup)
        units = END_TO_END_UNITS
        for name, val in values.items():
            print(f"{name:12s} {val:12.6g} {units[name]:3s} ({notes[name]})")
    print(f"{'fail_ratio':12s} {res['failed'] / res['attempted']:12.6g}     "
          f"({res['failed']}/{res['attempted']} {base_unit(args.workload)})")

    OUT_DIR.mkdir(exist_ok=True)
    full = dict(res, machine=record, workload=args.workload, seconds=args.seconds,
                trace=args.trace, setup_samples=setup, metrics=values)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": val, "unit": units[name]}
                    for name, val in values.items()},
    }))
    return 0


def base_unit(workload: str) -> str:
    return "check records" if workload == "reproduce" else "operations"


if __name__ == "__main__":
    sys.exit(main())
