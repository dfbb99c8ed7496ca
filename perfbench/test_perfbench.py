"""Self-tests of the benchmark: a trivial-size smoke run of every workload,
repeatable traced counters, and the refusals.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layers import DETERMINISTIC, PER_LAYER  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT, env=None):
    if env is None:
        env = {k: v for k, v in os.environ.items() if k != "NIL3_THREADS"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == RESULT_KEYS
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in res["metrics"].values())


def traced(workload, seed):
    res = result(bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", "1", "--smoke"))
    assert list(res["metrics"]) == [name for name, _ in PER_LAYER]
    return {k: v["value"] for k, v in res["metrics"].items()}


def test_traced_counters_repeat_exactly_for_a_seed():
    first, second = traced("construct", 5), traced("construct", 5)
    assert all(first[k] > 0 for k in DETERMINISTIC)
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}


def test_oracle_tight_never_reaches_the_shape_kernel():
    m = traced("oracle-tight", 5)
    assert m["surface.samples"] == 0 and m["ode.steps"] > 0
    assert 0 < m["oracle.closed_form_margin"] < 1


def test_reproduce_traces_the_verify_layers():
    m = traced("reproduce", 5)
    assert m["cli.calls"] >= 1 and m["verify.checks"] > 0
    assert m["verify.checks_failed"] == 0 and m["verify.limits_suite_s"] > 0


def test_refuses_to_run_with_nil3_threads_set():
    proc = bench("--workload", "construct", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--smoke", env=dict(os.environ, NIL3_THREADS="1"))
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "construct", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_latin_hypercube_puts_one_point_in_each_stratum():
    import workloads
    pts = workloads.latin_hypercube(np.random.default_rng(0), 4, ((0.5, 4.0), (0.0, 2.0)))
    for col, (lo, hi) in zip(pts.T, ((0.5, 4.0), (0.0, 2.0))):
        assert sorted(np.floor((col - lo) / (hi - lo) * 4).astype(int)) == [0, 1, 2, 3]


def test_check_margin():
    from workloads import check_margin
    rec = {"kind": "rel", "expected": 2.0, "computed": 2.1, "tolerance": 0.1}
    assert math.isclose(check_margin(rec), 0.5)
    assert check_margin(dict(rec, kind="abs")) == pytest.approx(1.0)
    assert check_margin(dict(rec, kind="true")) is None
    assert check_margin(dict(rec, tolerance=0.0)) is None


def test_benchmark_json_matches_what_runs_report():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER
