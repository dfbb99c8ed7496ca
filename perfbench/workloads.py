"""The three benchmark workloads: seeded inputs, one timed operation each,
and the correctness check of every result.

A workload run is a sequence of passes.  A pass is a fixed-size batch of
operations whose inputs come from ``(seed, pass index)``; parameters are
drawn by stratified (Latin hypercube) sampling over the ranges the paper's
checks use, so every pass covers its ranges evenly and passes cost about the
same for every seed.  Only the operation itself is timed; the check runs
afterwards, outside the timed region and outside any trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from nil3trans import cli, exports
from nil3trans import families as fam

# bounds exactly as the verify suites and acceptance criterion 1 state them
CLOSED_FORM_BOUND = 1e-8
ENDPOINT_BOUND = 1e-5
RESIDUAL_BOUND = 1e-7
PLANAR_RESIDUAL_BOUND = 1e-10


@dataclass
class Outcome:
    """Check result of one operation; ``attempted`` counts its check units."""

    attempted: int
    failed: int
    margins: dict = field(default_factory=dict)  # headroom name -> used share of bound
    counters: dict = field(default_factory=dict)
    error: str | None = None


def latin_hypercube(rng, n: int, ranges) -> np.ndarray:
    """n points, one in each of n equal strata of every range, paired at random."""
    cols = []
    for lo, hi in ranges:
        strata = (rng.permutation(n) + rng.uniform(size=n)) / n
        cols.append(lo + (hi - lo) * strata)
    return np.column_stack(cols)


def pass_rng(seed: int, pass_index: int):
    return np.random.default_rng([seed, pass_index])


# ---------------------------------------------------------------------------
# oracle-tight


class OracleTight:
    """Tight-tolerance grim reapers checked against the closed form."""

    pass_size = 9
    min_passes = 2
    unit = "solve"
    # the criterion-1 grid spans lam in {0.5, 1, 4} and c in {0, 1, 2}
    ranges = ((0.5, 4.0), (0.0, 2.0))

    def __init__(self, pass_size: int | None = None):
        self.pass_size = pass_size or self.pass_size

    def inputs(self, seed: int, pass_index: int) -> list:
        pts = latin_hypercube(pass_rng(seed, pass_index), self.pass_size, self.ranges)
        return [(float(lam), float(c)) for lam, c in pts]

    def run(self, params):
        lam, c = params
        return fam.solve_grim_reaper(fam.GrimReaperParams(lam, c),
                                     rtol=1e-13, atol=1e-15, derived=False)

    def check(self, params, prof) -> Outcome:
        lam, c = params
        sl = fam.slab(lam, c)
        lo = sl.a_endpoint + 0.05 * sl.width
        hi = sl.b_endpoint - 0.05 * sl.width
        mask = (prof.t >= lo) & (prof.t <= hi)
        sup_cf = max((abs(gp - fam.grim_reaper_closed_form(lam, c, y))
                      for y, gp in zip(prof.t[mask], prof.data["gamma_prime"][mask])),
                     default=math.inf)
        sup_end = max(abs(prof.diagnostics["a_numeric"] - sl.a_endpoint),
                      abs(prof.diagnostics["b_numeric"] - sl.b_endpoint))
        ok = sup_cf <= CLOSED_FORM_BOUND and sup_end <= ENDPOINT_BOUND
        return Outcome(1, 0 if ok else 1, {
            "oracle.closed_form_margin": sup_cf / CLOSED_FORM_BOUND,
            "oracle.endpoint_margin": sup_end / ENDPOINT_BOUND,
        }, error=None if ok else f"grim {params}: sup error {sup_cf:.3e}, "
                                  f"endpoint error {sup_end:.3e}")


# ---------------------------------------------------------------------------
# construct


def _grim(lam, c):
    return fam.solve_grim_reaper(fam.GrimReaperParams(lam, c))


def _bowl(lam):
    return fam.solve_bowl(lam, 200.0)


def _catenoid(lam, f0):
    return fam.solve_catenoid(lam, f0)


def _helicoid(lam, pitch, r0):
    return fam.solve_helicoid(fam.HelicoidParams(lam, pitch, r0))


def _planar(speed, angle):
    return fam.planar_grim_reaper((speed * math.cos(angle), speed * math.sin(angle)))


class Construct:
    """All five families with derived geometry, swept and exported."""

    min_passes = 5
    unit = "construction"
    # family -> (constructor, parameter ranges), ranges from the verify grids:
    # grim (lam, c) from the criterion-1 grid; bowl lam from the tail-fit grid
    # {1, 2, 4, 9, 16} and the axis grid {0.5, 1, 4}; catenoid (lam, f0)
    # around the residual check's (1, 1) within the core lam range and the
    # helicoid r0 range; helicoid (lam, pitch, r0) from its 2x3x3 grid;
    # planar grim speed from the width-scaling check {1, 2}, any direction.
    families = {
        "grim": (_grim, ((0.5, 4.0), (0.0, 2.0))),
        "bowl": (_bowl, ((0.5, 16.0),)),
        "catenoid": (_catenoid, ((0.5, 4.0), (0.5, 2.0))),
        "helicoid": (_helicoid, ((1.0, 4.0), (0.5, 2.0), (0.5, 2.0))),
        "planar-grim": (_planar, ((1.0, 2.0), (0.0, 2.0 * math.pi))),
    }

    def __init__(self, per_family: int = 4):
        self.per_family = per_family
        self.pass_size = per_family * len(self.families)

    def inputs(self, seed: int, pass_index: int) -> list:
        rng = pass_rng(seed, pass_index)
        ops = []
        for family, (_, ranges) in self.families.items():
            for pt in latin_hypercube(rng, self.per_family, ranges):
                ops.append((family, tuple(float(v) for v in pt)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op):
        family, params = op
        profile = self.families[family][0](*params)
        mesh = fam.sweep_surface(profile)
        return profile, mesh, exports.csv_text(profile), exports.obj_text(mesh)

    def check(self, op, result) -> Outcome:
        family, params = op
        profile, mesh, csv, obj = result
        bound = PLANAR_RESIDUAL_BOUND if family == "planar-grim" else RESIDUAL_BOUND
        residual = profile.residual_sup
        problems = []
        if not residual <= bound:
            problems.append(f"residual sup {residual:.3e} > {bound:g}")
        if csv.count("\n") != len(profile.t) + 1:
            problems.append("CSV row count differs from the sample count")
        if obj.count("\nv ") + obj.startswith("v ") != len(mesh.vertices):
            problems.append("OBJ vertex count differs from the mesh")
        if not np.all(np.isfinite(mesh.vertices)):
            problems.append("non-finite mesh vertex")
        return Outcome(1, 1 if problems else 0,
                       {"construct.residual_margin": residual / bound},
                       error=f"{family} {params}: " + "; ".join(problems) if problems else None)


# ---------------------------------------------------------------------------
# reproduce


class Reproduce:
    """The full verification run, through the command-line entry point."""

    pass_size = 1
    min_passes = 1
    unit = "verify run"

    def __init__(self, out_dir: str, suite: str = "all"):
        self.out_dir = out_dir
        self.suite = suite

    def inputs(self, seed: int, pass_index: int) -> list:
        # the command line is the whole input; the seed only names the report
        path = os.path.join(self.out_dir, f"verify-{seed}-{pass_index}.json")
        return [["verify", "--suite", self.suite, "--out", path]]

    def run(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code

    def check(self, argv, code) -> Outcome:
        path = argv[-1]
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(path)
        records = report["checks"]
        failed = sum(1 for r in records if not r["passed"])
        margins = [m for m in map(check_margin, records) if m is not None]
        problems = []
        if failed:
            problems.append(f"{failed} check records failed")
        if code != 0:
            problems.append(f"exit code {code}")
        return Outcome(
            len(records), failed + (1 if code != 0 and not failed else 0),
            {"verify.worst_margin": max(margins, default=0.0)},
            {"verify.checks": len(records), "verify.checks_failed": failed,
             "verify.margin_records": len(margins)},
            error="; ".join(problems) or None)


def check_margin(rec: dict):
    """``|computed - expected| / tolerance`` of an abs or rel record.

    Records with a zero tolerance or of kind ``le``/``true`` have no scale
    and are left out (``None``).
    """
    scale = rec["tolerance"]
    if rec["kind"] == "rel":
        scale *= abs(rec["expected"])
    elif rec["kind"] != "abs":
        return None
    if scale <= 0:
        return None
    return abs(rec["computed"] - rec["expected"]) / scale


def make(name: str, out_dir: str, smoke: bool = False):
    """The workload called ``name``; ``smoke`` makes each pass trivially small."""
    if name == "oracle-tight":
        return OracleTight(pass_size=1 if smoke else None)
    if name == "construct":
        return Construct(per_family=1 if smoke else 4)
    if name == "reproduce":
        return Reproduce(out_dir, suite="limits" if smoke else "all")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("oracle-tight", "construct", "reproduce")
