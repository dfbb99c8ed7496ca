"""Verification suites: every analytic claim the package reproduces, run as
named checks with expected values, tolerances and pass/fail status.

Suites: ``core`` (geometry kernel, closed forms, residuals, family
structure), ``asymptotics`` (tail and endpoint fits, the radial linear ODE
oracle), ``limits`` (large-lambda collapse), ``all``.  Reports are plain
dicts, deterministic for fixed inputs, and serializable by
``exports.report_text``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import asymptotics as asym
from . import families as fam
from .core import (
    FrameVector,
    KillingField,
    ORIGIN,
    Point,
    connection_table,
    covariant_derivative_fd,
    group_inv,
    group_mul,
    killing_eval,
    metric,
    sectional_curvature,
)
from .surface import GraphJet, gaussian_curvature, graph_shape, intrinsic_curvature

SUITES = ("core", "asymptotics", "limits", "all")

# lambdas of the rotational tail fits; lam = 1 is also the bowl of the core
# suite
_BOWL_TAIL_LAMS = (1.0, 2.0, 4.0, 9.0, 16.0)

# (lam, c, r0) of the helicoid checks; (1, 1, 1) is also the residual check's
_HELICOID_GRID = [(lam, c, r0) for lam in (1.0, 4.0) for c in (0.5, 1.0, 2.0)
                  for r0 in (0.5, 1.0, 2.0)]


def _check(name, anchor, expected, computed, tolerance, kind="abs"):
    expected_f = float(expected)
    computed_f = float(computed)
    if kind == "abs":
        passed = abs(computed_f - expected_f) <= tolerance
    elif kind == "rel":
        passed = abs(computed_f - expected_f) <= tolerance * abs(expected_f)
    elif kind == "le":  # computed must not exceed expected (+tolerance)
        passed = computed_f <= expected_f + tolerance
    elif kind == "true":  # computed is a truth value encoded as 1.0/0.0
        passed = computed_f == 1.0
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return {
        "name": name,
        "anchor": anchor,
        "expected": expected_f,
        "computed": computed_f,
        "tolerance": float(tolerance),
        "kind": kind,
        "passed": bool(passed),
    }


class _SharedProfiles:
    """The representative profiles that checks in more than one place solve
    with identical arguments, each solved on first use, and solved together
    with the profiles of one right-hand side that they share a call with.
    One instance serves one ``run_suite`` call, so a later call solves them
    afresh."""

    @cached_property
    def _grims(self):
        return fam.solve_grim_reapers([fam.GrimReaperParams(1.0, 0.0),
                                       fam.GrimReaperParams(1.0, 1.0)])

    @property
    def grim_1_0(self):
        return self._grims[0]

    @property
    def grim_1_1(self):
        return self._grims[1]

    @cached_property
    def bowls_200(self):
        """Bowls to r = 200, one per entry of _BOWL_TAIL_LAMS.  A core-only
        run reads just the lam = 1 bowl; the tail bowls ride in its call."""
        return fam.solve_bowls(_BOWL_TAIL_LAMS, 200.0)

    @property
    def bowl_1_200(self):
        return self.bowls_200[0]

    @cached_property
    def catenoid_1_1(self):
        return fam.solve_catenoid(1.0, 1.0)

    @cached_property
    def helicoid_grid(self):
        """The helicoid checks' grid, one profile per entry of _HELICOID_GRID."""
        return fam.solve_helicoids([fam.HelicoidParams(*g) for g in _HELICOID_GRID])


# ---------------------------------------------------------------------------
# core suite


def _core_kernel_checks():
    checks = []
    rng = np.random.default_rng(20260823)
    pts = [Point(*rng.uniform(-3, 3, 3)) for _ in range(120)]

    assoc = 0.0
    for p, q, r in zip(pts[::3], pts[1::3], pts[2::3]):
        lhs = group_mul(group_mul(p, q), r)
        rhs = group_mul(p, group_mul(q, r))
        assoc = max(assoc, *(abs(a - b) for a, b in
                             zip(lhs.coords(), rhs.coords())))
    checks.append(_check("group-associativity", "Nil3 group law",
                         0.0, assoc, 1e-12))

    inv = 0.0
    for p in pts[:40]:
        e = group_mul(p, group_inv(p))
        inv = max(inv, *(abs(c) for c in e.coords()))
    checks.append(_check("group-inverse", "Nil3 group law", 0.0, inv, 1e-12))

    ortho = 0.0
    for lam in (0.25, 1.0, 4.0):
        s = math.sqrt(lam)
        basis = [FrameVector(ORIGIN, 1, 0, 0), FrameVector(ORIGIN, 0, 1, 0),
                 FrameVector(ORIGIN, 0, 0, 1 / s)]
        for i, u in enumerate(basis):
            for j, w in enumerate(basis):
                ortho = max(ortho, abs(metric(lam, u, w) - (i == j)))
    checks.append(_check("frame-orthonormality", "metric g_lam definition",
                         0.0, ortho, 0.0))

    # torsion: nabla_X Y - nabla_Y X = [X, Y] = Z, in closed form
    tor = 0.0
    for lam in (0.5, 1.0, 4.0):
        dxy = connection_table(lam, "X", "Y")
        dyx = connection_table(lam, "Y", "X")
        diff = tuple(a - b for a, b in zip(dxy, dyx))
        tor = max(tor, abs(diff[0]), abs(diff[1]), abs(diff[2] - 1.0))
    checks.append(_check("connection-torsion-free",
                         "Levi-Civita connection of g_lam (Lemma 2.1(1))",
                         0.0, tor, 1e-15))

    sec = 0.0
    for lam in (0.5, 1.0, 4.0):
        vx = FrameVector(ORIGIN, 1, 0, 0)
        vy = FrameVector(ORIGIN, 0, 1, 0)
        vz = FrameVector(ORIGIN, 0, 0, 1.0)
        sec = max(sec,
                  abs(sectional_curvature(lam, vx, vy) + 0.75 * lam),
                  abs(sectional_curvature(lam, vx, vz) - 0.25 * lam),
                  abs(sectional_curvature(lam, vy, vz) - 0.25 * lam))
    checks.append(_check("sectional-curvatures",
                         "horizontal plane -3lam/4, vertical planes lam/4 (sec curv)",
                         0.0, sec, 1e-13))

    # Killing identity g(nabla_u F, w) + g(nabla_w F, u) = 0, finite differences
    kill = 0.0
    fields = [KillingField(a1=1), KillingField(a2=1), KillingField(a3=1),
              KillingField(a4=1), KillingField(a1=0.3, a2=-1.2, a3=0.7, a4=0.5)]
    for lam in (0.5, 2.0):
        for f in fields:
            for _ in range(6):
                p = Point(*rng.uniform(-2, 2, 3))
                u = FrameVector(p, *rng.uniform(-1, 1, 3))
                w = FrameVector(p, *rng.uniform(-1, 1, 3))
                du = covariant_derivative_fd(lam, lambda q: killing_eval(f, q), u)
                dw = covariant_derivative_fd(lam, lambda q: killing_eval(f, q), w)
                kill = max(kill, abs(metric(lam, du, w) + metric(lam, dw, u)))
    checks.append(_check("killing-identity",
                         "Killing basis F1..F4 of (Nil3, g_lam)",
                         0.0, kill, 1e-6))
    return checks


def _grim_grid_checks():
    checks = []
    grid = [(lam, c) for lam in (0.5, 1.0, 4.0) for c in (0.0, 1.0, 2.0)]
    # tight tolerances: the closed-form comparison is at the 1e-8 absolute
    # level while gamma' reaches ~10^3 inside the central window
    profiles = fam.solve_grim_reapers([fam.GrimReaperParams(*pc) for pc in grid],
                                      rtol=1e-13, atol=1e-15, derived=False)

    width = fam.slab(1.0, 0.0).width
    checks.append(_check("slab-width-(1,0)", "Thm 1.1(2) slab width",
                         2.0 * math.sinh(0.5 * math.pi), width, 1e-10))
    checks.append(_check("slab-width-(1,0)-printed", "Thm 1.1(2) slab width 4.60260",
                         4.60260, width, 1e-5))

    sup_cf, sup_end, sup_width = 0.0, 0.0, 0.0
    for (lam, c), prof in zip(grid, profiles):
        sl = prof.diagnostics["slab"]
        # compare at the accepted solver steps inside the central 90%
        lo = sl.a_endpoint + 0.05 * sl.width
        hi = sl.b_endpoint - 0.05 * sl.width
        mask = (prof.t >= lo) & (prof.t <= hi)
        for y, gp in zip(prof.t[mask], prof.data["gamma_prime"][mask]):
            sup_cf = max(sup_cf, abs(gp - fam.grim_reaper_closed_form(lam, c, y)))
        sup_end = max(sup_end,
                      abs(prof.diagnostics["a_numeric"] - sl.a_endpoint),
                      abs(prof.diagnostics["b_numeric"] - sl.b_endpoint))
        s = math.sqrt(lam)
        formula = 2.0 / s * math.sqrt(1 + lam * c * c) * math.sinh(0.5 * math.pi * s)
        sup_width = max(sup_width, abs(sl.width - formula))
    checks.append(_check("grim-closed-form-sup-error",
                         "gamma' closed form vs Cauchy lambda, grid {0.5,1,4}x{0,1,2}",
                         0.0, sup_cf, 1e-8))
    checks.append(_check("grim-blow-up-endpoints",
                         "slab endpoints a,b of Thm 3.1(2)", 0.0, sup_end, 1e-5))
    checks.append(_check("grim-width-formula",
                         "Delta = (2/sqrt(lam))sqrt(1+lam c^2)sinh(pi sqrt(lam)/2)",
                         0.0, sup_width, 1e-10))

    # monotonicity y*gamma'(y) > 0 and global minimum at y = 0
    prof = profiles[grid.index((1.0, 0.0))]
    ys = prof.t
    gp = prof.data["gamma_prime"]
    mono = float(np.all((ys * gp)[np.abs(ys) > 1e-12] > 0))
    checks.append(_check("grim-monotone-wings", "Thm 3.1(2) y*gamma'(y) > 0",
                         1.0, mono, 0.0, kind="true"))
    return checks


def _curvature_checks(grim10):
    checks = []
    sup0 = 0.0
    for lam in (0.5, 1.0, 4.0):
        for c in (0.0, 1.0, 2.0):
            # at y = 0 the initial data gamma = gamma' = 0 are exact
            jet = fam.grim_reaper_jet(lam, c, 0.0, 0.0, 0.0)
            k0 = gaussian_curvature(graph_shape(lam, jet))
            expected = -lam * (1 - lam * c * c) ** 2 / (4 * (1 + lam * c * c) ** 2)
            sup0 = max(sup0, abs(k0 - expected))
    checks.append(_check("grim-gaussian-at-origin",
                         "gaussian at y=0: -lam(1-lam c^2)^2/(4(1+lam c^2)^2)",
                         0.0, sup0, 1e-9))

    rng = np.random.default_rng(7)
    sup_int = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.5, 4.0))
        c = float(rng.uniform(0.0, 2.0))
        sl = fam.slab(lam, c)
        y = float(rng.uniform(sl.a_endpoint + 0.1 * sl.width,
                              sl.b_endpoint - 0.1 * sl.width))
        gp = fam.grim_reaper_closed_form(lam, c, y)
        jet = fam.grim_reaper_jet(lam, c, y, 0.0, gp)
        a, b = jet.alpha, jet.beta
        closed = lam * (math.sqrt(lam) * a * b - 1.0) / (
            (1 + lam * a * a) * (1 + lam * a * a + lam * b * b))
        shape = graph_shape(lam, jet)
        sup_int = max(sup_int, abs(intrinsic_curvature(lam, jet, shape) - closed))
    checks.append(_check("grim-intrinsic-closed-form",
                         "intrinsic sec: lam(sqrt(lam) a b - 1)/((1+lam a^2)(1+lam a^2+lam b^2))",
                         0.0, sup_int, 1e-9))

    ki = grim10.data["K_intrinsic"]
    both = float(np.min(ki) < 0 < np.max(ki))
    checks.append(_check("grim-intrinsic-both-signs",
                         "Thm 1.1(2) intrinsic curvature assumes both signs",
                         1.0, both, 0.0, kind="true"))
    i0 = int(np.argmin(np.abs(grim10.t)))
    nonconvex = float(grim10.data["K_gauss"][i0] < 0)
    checks.append(_check("grim-nonconvex-witness",
                         "Thm 1.1(2) not convex: det(A g^-1) < 0 at y=0",
                         1.0, nonconvex, 0.0, kind="true"))
    return checks


def _residual_checks(shared):
    checks = []
    reps = {
        "grim": shared.grim_1_1,
        "bowl": shared.bowl_1_200,
        "catenoid": shared.catenoid_1_1,
        "helicoid": shared.helicoid_grid[_HELICOID_GRID.index((1.0, 1.0, 1.0))],
    }
    for name, prof in reps.items():
        checks.append(_check(f"residual-{name}",
                             "translator equation H = g(nu, lam^{-1/2} Z)",
                             0.0, prof.residual_sup, 1e-7))
    planar = fam.planar_grim_reaper((0.0, 1.0))
    checks.append(_check("residual-planar-grim",
                         "Thm 1.3(1) Euclidean grim reaper cylinder",
                         0.0, planar.residual_sup, 1e-10))
    # planar grim reaper speed scaling: width halves at speed 2
    w1 = planar.diagnostics["width"]
    w2 = fam.planar_grim_reaper((0.0, 2.0)).diagnostics["width"]
    checks.append(_check("planar-grim-width-scaling",
                         "translator scaling: domain width pi/speed",
                         w1 / 2.0, w2, 1e-12))

    cat = reps["catenoid"]
    checks.append(_check("catenoid-axis-distance",
                         "Thm 1.1(3) positive distance f0 from the axis",
                         1.0, cat.diagnostics["min_radius"], 1e-9))
    jup = cat.diagnostics["junctions"]["upper"]
    jlo = cat.diagnostics["junctions"]["lower"]
    c1_defect = max(abs(jup["neck_slope"] - jup["arm_slope"]),
                    abs(jlo["neck_slope"] - jlo["arm_slope"]))
    checks.append(_check("catenoid-c1-gluing",
                         "Thm 4.1 gluing: matching value and slope at z=+-eps",
                         0.0, c1_defect, 1e-9))
    checks.append(_check("catenoid-embedded",
                         "Thm 1.1(3) properly embedded",
                         1.0, float(_polyline_embedded(cat)), 0.0, kind="true"))
    return checks


def _polyline_embedded(cat) -> bool:
    """True when no two non-adjacent segments of the (r, z) profile
    polyline cross."""
    r = cat.data["r"]
    z = cat.data["z"]
    p = np.column_stack([r, z])
    n = len(p) - 1
    # O(n^2) on a decimated copy is plenty at these sizes
    step = max(1, n // 800)
    q = p[::step]
    if not np.array_equal(q[-1], p[-1]):
        q = np.vstack([q, p[-1]])
    # segment i against every non-adjacent later segment j > i + 1 at once
    starts, ends = q[:-1], q[1:]
    for i in range(len(starts) - 2):
        if np.any(_segments_cross(starts[i], ends[i], starts[i + 2:], ends[i + 2:])):
            return False
    return True


def _segments_cross(a, b, c, d):
    """Proper crossing of segment ab with each segment cd (rows of c, d).

    Touching and collinear contacts (an orientation within 1e-15 of zero)
    do not count as crossings.
    """
    def orient(p, q, r):
        v = (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) \
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])
        return np.where(np.abs(v) < 1e-15, 0, np.where(v > 0, 1, -1))

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 != o2) & (o3 != o4) & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)


def _bowl_checks(prof):
    checks = []
    sup_origin = 0.0
    lams = (0.5, 1.0, 4.0)
    for lam, bowl in zip(lams, fam.solve_bowls(lams, 1.0, n_samples=50)):
        psi = bowl.trajectories[0](1e-3)[1]
        sup_origin = max(sup_origin, abs(psi / 1e-3 - 1.0 / (2.0 * math.sqrt(lam))))
    checks.append(_check("bowl-axis-regularity",
                         "bowl condition psi/r -> 1/(2 sqrt(lam)) at r -> 0",
                         0.0, sup_origin, 1e-6))

    ratio = prof.data["psi"][-1] / prof.t[-1]
    checks.append(_check("bowl-tail-slope",
                         "Lemma 4.2 proof: psi grows like r/sqrt(lam)",
                         1.0, ratio, 0.02, kind="rel"))
    pos = float(np.all(prof.data["psi"] > 0))
    checks.append(_check("bowl-psi-positive", "Lemma 4.1: psi > 0 for r > 0",
                         1.0, pos, 0.0, kind="true"))

    # barrier: B = r(lam r^2+4) + 4 sqrt(lam) psi (sqrt(lam) r psi - 1 - lam psi^2)
    lam = 1.0
    r = prof.t
    psi = prof.data["psi"]
    s = math.sqrt(lam)
    barrier = r * (lam * r * r + 4.0) + 4.0 * s * psi * (s * r * psi - 1.0 - lam * psi * psi)
    idx = np.nonzero(barrier < 0)[0]
    no_return = float(len(idx) == 0 or np.all(barrier[idx[0]:] < 0))
    checks.append(_check("bowl-barrier-one-crossing",
                         "Lemma 4.2 proof: the curve C^lam is a barrier for psi",
                         1.0, no_return, 0.0, kind="true"))
    return checks


def _helicoid_checks(profs):
    checks = []
    fails = {"r2-min": 0, "tau-zero": 0, "nu-zeros": 0, "winding": 0,
             "k-decay": 0, "kprime-sign": 0}
    for (lam, c, r0), prof in zip(_HELICOID_GRID, profs):
        ss = prof.t
        d = prof.data
        r2, tau, nu, k = d["r2"], d["tau"], d["nu"], d["k"]
        mins = np.nonzero((r2[1:-1] < r2[:-2]) & (r2[1:-1] < r2[2:]))[0]
        if len(mins) != 1:
            fails["r2-min"] += 1
        if int(np.count_nonzero(tau[:-1] * tau[1:] < 0)) != 1:
            fails["tau-zero"] += 1
        crossings = np.nonzero(nu[:-1] * nu[1:] < 0)[0]
        nu_prime = -k * tau
        if not all(0.5 * (nu_prime[i] + nu_prime[i + 1]) >= -1e-10
                   for i in crossings):
            fails["nu-zeros"] += 1
        # the winding rate is -nu/r^2, so the arms wind monotonically beyond
        # the last sign change of nu
        w = prof.diagnostics["winding"]
        last_nu = np.abs(ss[crossings]).max() if len(crossings) else 0.0
        s_tail = max(10.0, last_nu + 1.0)
        tail_p = np.diff(w[ss >= s_tail])
        tail_m = np.diff(w[ss <= -s_tail])
        mono = (np.all(tail_p > 0) or np.all(tail_p < 0)) and \
               (np.all(tail_m > 0) or np.all(tail_m < 0))
        if not mono:
            fails["winding"] += 1
        band = np.abs(ss) >= 40.0
        center = np.abs(ss) <= 1.0
        if not np.max(np.abs(k[band])) < np.max(np.abs(k[center])):
            fails["k-decay"] += 1
        far = np.abs(ss) >= 10.0
        kz = np.nonzero((k[:-1] * k[1:] < 0) & far[:-1])[0]
        for i in kz:
            p1 = fam.helicoid_kprime_numerator(
                lam, c, 0.5 * (tau[i] + tau[i + 1]), 0.5 * (nu[i] + nu[i + 1]))
            if p1 >= 0:
                fails["kprime-sign"] += 1
                break
    anchors = {
        "r2-min": "Lemma 5.4: r^2 has exactly a global minimum",
        "tau-zero": "Lemma 5.3: tau has at most (and here exactly) one zero",
        "nu-zeros": "Lemma 5.3: nu' = tau^2/(sqrt(lam) c) at zeros of nu",
        "winding": "Lemma 5.6(4): each arm spirals infinitely many times",
        "k-decay": "Lemma 5.5: k tends to zero along the arms",
        "kprime-sign": "Lemma 5.5 (eq k'): P1 < 0 at far k-zeros",
    }
    for key, cnt in fails.items():
        checks.append(_check(f"helicoid-{key}", anchors[key], 0.0, cnt, 0.0))
    return checks


def core_suite(shared):
    checks = _core_kernel_checks()
    checks += _grim_grid_checks()
    checks += _curvature_checks(shared.grim_1_0)
    checks += _residual_checks(shared)
    checks += _bowl_checks(shared.bowl_1_200)
    checks += _helicoid_checks(shared.helicoid_grid)
    return checks


# ---------------------------------------------------------------------------
# asymptotics suite


def asymptotics_suite(shared):
    checks = []
    tol = {1.0: 0.03, 2.0: 0.03, 4.0: 0.05, 9.0: 0.03, 16.0: 0.03}
    # the fit reads the trajectory only, so the sample count of the shared
    # bowls does not enter
    for lam, arm in zip(_BOWL_TAIL_LAMS, shared.bowls_200):
        fit = asym.fit_rotational_asymptotics(lam, arm)
        anchor = {
            "subcritical": "Lemma 4.2(i): -4/(sqrt(lam)(4-lam)) log r",
            "critical": "Lemma 4.2(iii): zeta -> -1/2 (log^2 coefficient)",
            "supercritical": "Lemma 4.2(ii): C0 r^(1-4/lam)",
        }[fit.regime]
        checks.append(_check(f"rotational-tail-lam-{lam:g}", anchor,
                             fit.expected, fit.coefficient, tol[lam], kind="rel"))

    # catenoid arms fall into the same regime machinery
    fit = asym.fit_rotational_asymptotics(1.0, shared.catenoid_1_1)
    checks.append(_check("catenoid-arm-tail",
                         "Lemma 4.2 applied to the catenoid arms",
                         fit.expected, fit.coefficient, 0.03, kind="rel"))

    fits = asym.grim_endpoint_fit(1.0, 0.0, shared.grim_1_0)
    expected = math.cosh(0.5 * math.pi) ** 2
    for side in ("a", "b"):
        checks.append(_check(f"grim-endpoint-log-coefficient-{side}",
                             "sec. 3: gamma ~ -((1+lam(c+b)^2)/sqrt(lam)) log(b-y)",
                             expected, fits[side].fitted, 0.03, kind="rel"))
    fits1 = asym.grim_endpoint_fit(1.0, 1.0, shared.grim_1_1)
    for side in ("a", "b"):
        checks.append(_check(f"grim-endpoint-tilted-{side}",
                             "sec. 3 endpoint coefficients at (lam, c) = (1, 1)",
                             fits1[side].predicted, fits1[side].fitted,
                             0.03, kind="rel"))
    asymmetry = abs(fits1["a"].fitted / fits1["b"].fitted - 1.0)
    checks.append(_check("grim-endpoint-asymmetry",
                         "sec. 1: not symmetric with respect to the plane x=0",
                         1.0, float(asymmetry > 1e-3), 0.0, kind="true"))

    # radial linear ODE oracle
    rng = np.random.default_rng(11)
    sup_ode = 0.0
    for _ in range(20):
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(0.2, 3.0))
        c = float(rng.uniform(-2, 2))
        x0 = float(rng.uniform(0.5, 2.0))
        y0 = float(rng.uniform(-2, 2))
        x = np.linspace(1.01 * x0, 100 * x0, 500)
        y = asym.radial_linear_closed_form(a, b, c, x0, y0, x)
        h = 1e-6 * x
        yp = (asym.radial_linear_closed_form(a, b, c, x0, y0, x + h)
              - asym.radial_linear_closed_form(a, b, c, x0, y0, x - h)) / (2 * h)
        sup_ode = max(sup_ode, float(np.max(np.abs(
            yp + (b / x) * (y - a) - c / x**2))))
    checks.append(_check("radial-linear-ode-substitution",
                         "Lemma 2.2 closed-form solution",
                         0.0, sup_ode, 1e-6))
    y_far = asym.radial_linear_closed_form(0.7, 1.3, -0.4, 1.0, 2.0, 1e6)
    checks.append(_check("radial-linear-limit",
                         "Lemma 2.2: y(x) -> a as x -> infinity",
                         0.7, float(y_far), 1e-4))
    xs = np.array([1.0, 2.0, 5.0])
    vals = asym.radial_linear_closed_form(0.0, 2.0, 1.0, 1.0, 0.0, xs)
    defect = float(np.max(np.abs(vals - (1.0 / xs - 1.0 / xs**2))))
    checks.append(_check("radial-linear-example",
                         "Lemma 2.2 with b=2, c=1, a=0, y(1)=0",
                         0.0, defect, 1e-12))
    return checks


# ---------------------------------------------------------------------------
# limits suite


def limits_suite():
    checks = []
    rep = asym.limit_grim_reaper(0.0, (10.0, 1e2, 1e3, 1e4))
    checks.append(_check("limit-grim-decreasing",
                         "Thm 1.2(1): convergence to z = xy/2 + cx on strips",
                         1.0, float(rep.strictly_decreasing), 0.0, kind="true"))
    checks.append(_check("limit-grim-rate-bounded",
                         "Prop after Thm 4.2: |gamma| <= C log(sqrt(lam))/sqrt(lam)",
                         1.0, max(rep.details["ratios"]), 0.0, kind="le"))
    checks.append(_check("limit-grim-surface-minimal",
                         "Thm 1.2(1): the limit surface is minimal",
                         0.0, rep.details["limit_surface_H_sup"], 1e-12))

    repb = asym.limit_bowl((10.0, 1e2, 1e3))
    checks.append(_check("limit-bowl-decreasing",
                         "Thm 1.2(2): uniform convergence to a horizontal plane",
                         1.0, float(repb.strictly_decreasing), 0.0, kind="true"))
    cs = repb.details["psi_bound_constants"]
    checks.append(_check("limit-bowl-psi-bound",
                         "sec. 4 Prop: |psi| <= C0 lam^(-1/6) (bound, constant from the grid)",
                         cs[0], max(cs[1:]), 1e-12, kind="le"))
    plane_h = max(abs(graph_shape(lam, GraphJet(0.3, -0.7, 1.0, 0, 0, 0, 0, 0)).H)
                  for lam in (10.0, 1e2, 1e3))
    checks.append(_check("limit-plane-minimal",
                         "horizontal plane has H = 0 for every lam",
                         0.0, plane_h, 1e-12))

    repc = asym.limit_catenoid(1.0, (2e3, 8e3, 3.2e4, 1.28e5))
    checks.append(_check("limit-catenoid-decreasing",
                         "Thm 1.2(3): convergence on cylinders to f~",
                         1.0, float(repc.strictly_decreasing), 0.0, kind="true"))
    checks.append(_check("limit-catenoid-quadrupling-ratio",
                         "sec. 4 Prop: |f - f~| <= C lam^(-1/2)",
                         2.0, repc.details["quadrupling_ratio"], 0.4))
    f_apex, fp_apex = asym.catenoid_limit_profile(1.0, 0.0)
    checks.append(_check("limit-catenoid-apex",
                         "f~(0) = f0 and f~'(0) = 0",
                         0.0, abs(float(f_apex) - 1.0) + abs(float(fp_apex)), 0.0))

    # f~ is horizontal-minimal but not g_lam-minimal
    jet = _catenoid_limit_jet(1.0, 1.0)
    h1 = graph_shape(1.0, jet).H
    checks.append(_check("limit-catenoid-not-minimal-lam-1",
                         "Thm 1.2(3): not minimal in any (Nil3, g_lam)",
                         1.0, float(abs(h1) > 1e-3), 0.0, kind="true"))
    hmc = asym.horizontal_mean_curvature(jet)
    checks.append(_check("limit-catenoid-horizontal-minimal",
                         "Thm 1.2(3): horizontal-minimal in the sub-Riemannian limit",
                         0.0, abs(hmc.value), 1e-3))

    jet0 = GraphJet(1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.5, 0.0)
    hmc0 = asym.horizontal_mean_curvature(jet0)
    checks.append(_check("horizontal-H-product-graph",
                         "Thm 1.2(1): z = xy/2 is horizontal-minimal",
                         0.0, abs(hmc0.value), 1e-10))
    char = asym.horizontal_mean_curvature(
        GraphJet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0))
    checks.append(_check("horizontal-H-characteristic-flag",
                         "sec. 3: characteristic points of the c=0 grim reaper lie on y=0",
                         1.0, float(char.characteristic), 0.0, kind="true"))
    return checks


def _catenoid_limit_jet(f0: float, z: float) -> GraphJet:
    """Graph jet of the upper arm of the rotational sweep of f~ at height z."""
    w = math.sqrt(4.0 * z * z + f0**4)
    f = w / f0
    fp = 4.0 * z / (f0 * w)
    fpp = 4.0 * f0**3 / w**3
    r = f
    phip = 1.0 / fp
    phipp = -fpp / fp**3
    return GraphJet(r, 0.0, z, phip, 0.0, phipp, 0.0, phip / r)


# ---------------------------------------------------------------------------
# report assembly


def run_suite(suite: str) -> dict:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    checks = []
    shared = _SharedProfiles()
    if suite in ("core", "all"):
        checks += core_suite(shared)
    if suite in ("asymptotics", "all"):
        checks += asymptotics_suite(shared)
    if suite in ("limits", "all"):
        checks += limits_suite()
    passed = sum(1 for c in checks if c["passed"])
    return {
        "suite": suite,
        "checks": checks,
        "counts": {"total": len(checks), "passed": passed,
                   "failed": len(checks) - passed},
        "passed": passed == len(checks),
    }
