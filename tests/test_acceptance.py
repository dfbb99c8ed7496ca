"""Acceptance gate: ten end-to-end criteria, one pass/fail line each, and
a check that every record is resolved by the solver.

Each paper check is implemented once, in ``nil3trans.verify``; criteria 1-9
read the named check records that verify returns and hold each ``computed``
value to the criterion's own bound.  Run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the per-criterion lines even
for passing tests).
"""

import time

import pytest

from nil3trans import exports, ode, verify

TAIL_TOL = {1: 0.03, 2: 0.03, 4: 0.05, 9: 0.03, 16: 0.03}


def report(number, passed, text):
    line = f"{'PASS' if passed else 'FAIL'} criterion {number}: {text}"
    print(line)
    assert passed, line


def by_name(checks):
    return {chk["name"]: chk for chk in checks}


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def suite():
    """One full verify run: its report, its records by name and its time."""
    rep, elapsed = timed(verify.run_suite, "all")
    return rep, by_name(rep["checks"]), elapsed


@pytest.fixture(scope="module")
def grim_grid():
    """The tight-tolerance grim grid checks of verify, with their wall time,
    the grid's solve included."""
    checks, elapsed = timed(lambda: verify.run_jobs(["grim_grid"])["grim_grid"])
    return by_name(checks), elapsed


def computed(records, *names):
    return [records[name]["computed"] for name in names]


def test_criterion_01_closed_form_oracle(grim_grid):
    records, elapsed = grim_grid
    (sup,) = computed(records, "grim-closed-form-sup-error")
    report(1, sup < 1e-8 and elapsed < 5.0,
           f"integrated gamma' vs closed form sup error {sup:.2e} (< 1e-8) "
           f"over the central 90% of the slab, grid {{0.5,1,4}}x{{0,1,2}}, "
           f"{elapsed:.1f} s (< 5 s)")


def test_criterion_02_slab_width(grim_grid):
    records, _ = grim_grid
    sup_end, sup_width = computed(records, "grim-blow-up-endpoints",
                                  "grim-width-formula")
    report(2, sup_end < 1e-5 and sup_width < 1e-10,
           f"blow-up endpoints within {sup_end:.2e} (< 1e-5) and width "
           f"formula within {sup_width:.2e} (< 1e-10) on the same grid")


def test_criterion_03_translator_residual(suite):
    _, records, _ = suite
    families = ("grim", "bowl", "catenoid", "helicoid")
    sups = dict(zip(families,
                    computed(records, *(f"residual-{f}" for f in families))))
    worst = max(sups.values())
    report(3, worst < 1e-7,
           "translator residual |H - g(nu, V)| at every sample of every "
           f"family, worst {worst:.2e} (< 1e-7): " +
           ", ".join(f"{k} {v:.1e}" for k, v in sups.items()))


def test_criterion_04_curvature_closed_forms(suite):
    _, records, _ = suite
    sup0, sup_int, both = computed(records, "grim-gaussian-at-origin",
                                   "grim-intrinsic-closed-form",
                                   "grim-intrinsic-both-signs")
    both = both == 1.0
    report(4, sup0 < 1e-9 and sup_int < 1e-9 and both,
           f"gaussian at y=0 within {sup0:.1e} and intrinsic closed form "
           f"within {sup_int:.1e} (both < 1e-9) on 100 random points; "
           f"both signs of intrinsic K at (1,0): {both}")


def test_criterion_05_rotational_asymptotics():
    checks, elapsed = timed(lambda: verify.asymptotics_suite(
        verify.run_jobs(verify.SUITE_JOBS["asymptotics"])))
    records = by_name(checks)
    details, ok = [], True
    for lam, tol in TAIL_TOL.items():
        rec = records[f"rotational-tail-lam-{lam}"]
        rel = abs(rec["computed"] / rec["expected"] - 1.0)
        ok = ok and rel < tol
        details.append(f"lam={lam} rel {rel:.1%}")
    report(5, ok and elapsed < 30.0,
           "tail fits (subcritical slope, critical log^2 coefficient, "
           "supercritical exponent) all within tolerance: "
           + "; ".join(details) + f"; {elapsed:.1f} s (< 30 s)")


def test_criterion_06_bowl_structure(suite):
    _, records, _ = suite
    sup_axis, ratio, positive = computed(records, "bowl-axis-regularity",
                                         "bowl-tail-slope", "bowl-psi-positive")
    tail_rel = abs(ratio - 1.0)
    positive = positive == 1.0
    report(6, sup_axis < 1e-6 and tail_rel < 0.02 and positive,
           f"psi/r -> 1/(2 sqrt(lam)) at the axis within {sup_axis:.1e} "
           f"(< 1e-6); psi/r at r=200 within {tail_rel:.1%} of 1/sqrt(lam) "
           f"(< 2%); psi > 0 throughout: {positive}")


def test_criterion_07_helicoid_suite(suite):
    _, records, _ = suite
    keys = ("r2-min", "tau-zero", "nu-zeros", "winding", "k-decay")
    fails = dict(zip(keys, computed(records, *(f"helicoid-{k}" for k in keys))))
    bad = {k: int(n) for k, n in fails.items() if n != 0}
    report(7, not bad,
           "18-combination helicoid suite (unique r^2 minimum, one tau zero, "
           "nu' >= 0 at nu-zeros, monotone tail winding, k decay): "
           + ("all pass" if not bad else f"failing curves per property {bad}"))


def test_criterion_08_large_lambda_limits(suite):
    _, records, _ = suite
    (grim_dec, ratio, grim_h, plane_h, cat_dec, quad, bowl_dec,
     not_minimal) = computed(
        records, "limit-grim-decreasing", "limit-grim-rate-bounded",
        "limit-grim-surface-minimal", "limit-plane-minimal",
        "limit-catenoid-decreasing", "limit-catenoid-quadrupling-ratio",
        "limit-bowl-decreasing", "limit-catenoid-not-minimal-lam-1")
    grim_ok = grim_dec == 1.0 and ratio <= 1.0
    minimal_ok = grim_h < 1e-12 and plane_h < 1e-12
    cat_ok = cat_dec == 1.0 and 1.6 <= quad <= 2.4
    bowl_ok = bowl_dec == 1.0
    not_minimal = not_minimal == 1.0
    report(8, grim_ok and minimal_ok and cat_ok and bowl_ok and not_minimal,
           f"grim sup|gamma| strictly decreasing with bounded ratio: {grim_ok}; "
           f"limit surface minimal to 1e-12: {minimal_ok}; catenoid "
           f"quadrupling ratio {quad:.2f} in [1.6, 2.4]: {cat_ok}; bowl "
           f"strictly decreasing: {bowl_ok}; f~ sweep non-minimal at lam=1 "
           f"(|H| > 1e-3): {not_minimal}")


def test_criterion_09_geometry_kernel(suite):
    _, records, _ = suite
    assoc, inv, ortho, tor, sec, kill = computed(
        records, "group-associativity", "group-inverse",
        "frame-orthonormality", "connection-torsion-free",
        "sectional-curvatures", "killing-identity")
    ok = assoc < 1e-12 and inv < 1e-12 and ortho == 0.0 and \
        tor < 1e-15 and sec < 1e-13 and kill < 1e-6
    report(9, ok,
           f"group associativity {assoc:.1e} / inverse {inv:.1e} (< 1e-12); "
           f"frame orthonormality exact ({ortho:g}); torsion-free {tor:.1e}; "
           f"sectional -3lam/4 and lam/4 within {sec:.1e}; Killing identity "
           f"{kill:.1e} (< 1e-6)")


def test_criterion_10_determinism_and_runtime(suite):
    rep, _, first_s = suite
    r1 = exports.report_text(rep)
    r2, second_s = timed(lambda: exports.report_text(verify.run_suite("all")))
    elapsed = first_s + second_s
    identical = r1.encode() == r2.encode()
    passed_flag = rep["passed"] is True
    report(10, identical and elapsed < 180.0 and passed_flag,
           f"two consecutive full verification runs byte-identical: "
           f"{identical}; all checks passing: {passed_flag}; both runs in "
           f"{elapsed:.0f} s (< 180 s)")


def test_endpoint_and_axis_records_measure_the_limits(suite):
    """grim-blow-up-endpoints compares the slab endpoints with the poles
    refined from 1/gamma' (``asymptotics.grim_pole``), not with the stops at
    the blow-up threshold (4.4e-7), and bowl-axis-regularity takes one
    Richardson step in r (7.8e-8 for psi/r at r = 1e-3 alone): both read
    at most 1e-9."""
    _, records, _ = suite
    for value in computed(records, "grim-blow-up-endpoints", "bowl-axis-regularity"):
        assert value <= 1e-9


def test_records_are_resolved_by_the_solver(suite, monkeypatch):
    """Every record is a property of the paper's objects, not of the solver:
    a run 16x tighter (RTOL_SAFETY 4 -> 64, floored at RTOL_FLOOR) flips no
    verdict and moves each abs/rel record by < 1e-5 of its tolerance and each
    le record by < 1e-6 of its distance to the bound.  The exception is
    grim-closed-form-sup-error, which measures the solver error itself.

    The grim grid asks for rtol 1e-13, so its controller already runs at
    1e-13 / 4 = 2.5e-14, next to RTOL_FLOOR = 2.2e-14: this tightens that
    grid by only about 1.1x, and does not show it resolved.
    """
    base = suite[0]["checks"]
    monkeypatch.setattr(ode, "RTOL_SAFETY", 64.0)
    tight = verify.run_suite("all")["checks"]
    assert [chk["name"] for chk in tight] == [chk["name"] for chk in base]
    for b, t in zip(base, tight):
        assert t["passed"] == b["passed"], b["name"]
        move = abs(t["computed"] - b["computed"])
        if b["kind"] == "abs" and b["name"] != "grim-closed-form-sup-error":
            assert move <= 1e-5 * b["tolerance"], (b["name"], move)
        elif b["kind"] == "rel":
            assert move <= 1e-5 * b["tolerance"] * abs(b["expected"]), (b["name"], move)
        elif b["kind"] == "le":
            room = b["expected"] + b["tolerance"] - b["computed"]
            assert move <= 1e-6 * room, (b["name"], move, room)
