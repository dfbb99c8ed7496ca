"""Verification suites: every analytic claim the package reproduces, run as
named checks with expected values, tolerances and pass/fail status.

Suites: ``core`` (geometry kernel, closed forms, residuals, family
structure), ``asymptotics`` (tail and endpoint fits, the radial linear ODE
oracle), ``limits`` (large-lambda collapse), ``all``.  Reports are plain
dicts, deterministic for fixed inputs, and serializable by
``exports.report_text``.

A run first solves every profile its suites read, each once, in one
``families.solve_jobs`` call (one ``ode.solve_ivp`` call per right-hand
side, five for ``all``), and then runs the checks on them.  The two largest grids, the grim
reapers at tight tolerances and the helicoids, are checked inside the joint
solve, as soon as their call returns, so that their profiles are not all
held at once.
"""

from __future__ import annotations

import math

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
    metric,
    sectional_curvature,
)
from .surface import (
    GraphJet,
    PatchJet,
    gaussian_curvature,
    graph_shape,
    intrinsic_curvature,
    patch_shape,
    translator_residual,
)

SUITES = ("core", "asymptotics", "limits", "all")

# (lam, c) of the tight-tolerance grim reaper checks
_GRIM_GRID = [(lam, c) for lam in (0.5, 1.0, 4.0) for c in (0.0, 1.0, 2.0)]

# lambdas of the rotational tail fits; lam = 1 is also the bowl of the core
# suite
_BOWL_TAIL_LAMS = (1.0, 2.0, 4.0, 9.0, 16.0)

# lambdas of the bowl axis-regularity check
_BOWL_AXIS_LAMS = (0.5, 1.0, 4.0)

# directions and lambdas of the planar grim reaper cylinders' residual check
_PLANAR_DIRECTIONS = ((1.0, 0.0), (1.0, 1.0), (-2.0, 0.5), (0.3, -1.7))
_PLANAR_LAMS = (0.5, 1.0, 4.0)

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


# ---------------------------------------------------------------------------
# core suite


def _core_kernel_checks():
    checks = []
    rng = np.random.default_rng(20260823)
    pts = rng.uniform(-3, 3, (120, 3))

    p, q, r = (Point(*pts[k::3].T) for k in range(3))
    lhs = group_mul(group_mul(p, q), r)
    rhs = group_mul(p, group_mul(q, r))
    assoc = np.max(np.abs(np.subtract(lhs.coords(), rhs.coords())))
    checks.append(_check("group-associativity", "Nil3 group law",
                         0.0, assoc, 1e-12))

    p = Point(*pts[:40].T)
    inv = np.max(np.abs(group_mul(p, group_inv(p)).coords()))
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

    # Killing identity g(nabla_u F, w) + g(nabla_w F, u) = 0, finite
    # differences: per lambda of (0.5, 2) and field of F1, F2, F3, F4 and one
    # combination, six samples of a point p in [-2, 2]^3 and of u and w at p
    # in [-1, 1]^3, drawn in that order
    fields = np.vstack([np.eye(4), [0.3, -1.2, 0.7, 0.5]])
    lams = np.repeat([0.5, 2.0], 30)
    f = KillingField(*np.tile(np.repeat(fields, 6, axis=0), (2, 1)).T)
    draws = rng.uniform([-2.0] * 3 + [-1.0] * 6, [2.0] * 3 + [1.0] * 6, (60, 9))
    p = Point(*draws[:, :3].T)
    u = FrameVector(p, *draws[:, 3:6].T)
    w = FrameVector(p, *draws[:, 6:].T)
    du = covariant_derivative_fd(lams, f, u)
    dw = covariant_derivative_fd(lams, f, w)
    kill = np.max(np.abs(metric(lams, du, w) + metric(lams, dw, u)))
    checks.append(_check("killing-identity",
                         "Killing basis F1..F4 of (Nil3, g_lam)",
                         0.0, kill, 1e-6))
    return checks


def _grim_grid_job():
    """Solve the grim reapers of ``_GRIM_GRID`` (a job for
    ``families.solve_jobs``) and return their checks."""
    profiles = yield from fam.grim_reapers_job(
        [fam.GrimReaperParams(*pc) for pc in _GRIM_GRID],
        # tight tolerances: the closed-form comparison is at the 1e-8
        # absolute level while gamma' reaches ~10^3 inside the central window
        rtol=1e-13, atol=1e-15, derived=False)
    checks = []
    width = fam.slab(1.0, 0.0).width
    checks.append(_check("slab-width-(1,0)", "Thm 1.1(2) slab width",
                         2.0 * math.sinh(0.5 * math.pi), width, 1e-10))
    checks.append(_check("slab-width-(1,0)-printed", "Thm 1.1(2) slab width 4.60260",
                         4.60260, width, 1e-5))

    sup_cf, sup_end, sup_width = 0.0, 0.0, 0.0
    for (lam, c), prof in zip(_GRIM_GRID, profiles):
        sl = prof.diagnostics["slab"]
        # compare at the accepted solver steps inside the central 90%
        lo = sl.a_endpoint + 0.05 * sl.width
        hi = sl.b_endpoint - 0.05 * sl.width
        mask = (prof.t >= lo) & (prof.t <= hi)
        closed = fam.grim_reaper_closed_form(lam, c, prof.t[mask])
        sup_cf = np.max(np.abs(prof.data["gamma_prime"][mask] - closed), initial=sup_cf)
        sup_end = max(sup_end, abs(prof.diagnostics["a_numeric"] - sl.a_endpoint),
                      abs(prof.diagnostics["b_numeric"] - sl.b_endpoint))
        # Thm 1.1(2)'s width against the endpoints of Thm 3.1(2)
        sup_width = max(sup_width, abs(sl.width - (sl.b_endpoint - sl.a_endpoint)))
    checks.append(_check("grim-closed-form-sup-error",
                         "gamma' closed form vs Cauchy lambda, grid {0.5,1,4}x{0,1,2}",
                         0.0, sup_cf, 1e-8))
    checks.append(_check("grim-blow-up-endpoints",
                         "slab endpoints a,b of Thm 3.1(2)", 0.0, sup_end, 1e-5))
    checks.append(_check("grim-width-formula",
                         "Delta = (2/sqrt(lam))sqrt(1+lam c^2)sinh(pi sqrt(lam)/2)",
                         0.0, sup_width, 1e-10))

    # monotonicity y*gamma'(y) > 0 and global minimum at y = 0
    prof = profiles[_GRIM_GRID.index((1.0, 0.0))]
    ys = prof.t
    gp = prof.data["gamma_prime"]
    mono = float(np.all((ys * gp)[np.abs(ys) > 1e-12] > 0))
    checks.append(_check("grim-monotone-wings", "Thm 3.1(2) y*gamma'(y) > 0",
                         1.0, mono, 0.0, kind="true"))
    return checks


def _curvature_checks(grim10):
    checks = []
    # over the grim grid; at y = 0 the initial data gamma = gamma' = 0 are exact
    lam, c = np.array(_GRIM_GRID).T
    k0 = gaussian_curvature(graph_shape(lam, fam.grim_reaper_jet(lam, c, 0.0, 0.0, 0.0)))
    expected = -lam * (1 - lam * c * c) ** 2 / (4 * (1 + lam * c * c) ** 2)
    sup0 = np.max(np.abs(k0 - expected))
    checks.append(_check("grim-gaussian-at-origin",
                         "gaussian at y=0: -lam(1-lam c^2)^2/(4(1+lam c^2)^2)",
                         0.0, sup0, 1e-9))

    # 100 draws of (lam, c, y), y inside the slab of its draw's lam and c:
    # rng.random scaled as Generator.uniform scales it, in the same order
    u = np.random.default_rng(7).random((100, 3))
    lam, c = 0.5 + 3.5 * u[:, 0], 2.0 * u[:, 1]
    lo, hi = np.array([(sl.a_endpoint + 0.1 * sl.width, sl.b_endpoint - 0.1 * sl.width)
                       for sl in map(fam.slab, lam, c)]).T
    y = lo + (hi - lo) * u[:, 2]
    jet = fam.grim_reaper_jet(lam, c, y, 0.0, fam.grim_reaper_closed_form(lam, c, y))
    a, b = jet.alpha, jet.beta
    closed = lam * (np.sqrt(lam) * a * b - 1.0) / (
        (1 + lam * a * a) * (1 + lam * a * a + lam * b * b))
    sup_int = np.max(np.abs(intrinsic_curvature(lam, jet, graph_shape(lam, jet)) - closed))
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


def _planar_grim_residual():
    """Sup over ``_PLANAR_DIRECTIONS`` and ``_PLANAR_LAMS`` of the translator
    defect of the vertical cylinder over each planar grim reaper, for the
    field a1 F1 + a2 F2, in one kernel call.  The cylinder is the patch
    (px(x), py(x), v), with frame coefficients v1 = (px', py', (py px' -
    px py')/2) and v2 = Z; (px, py) is the base curve (x, h(x)) turned by
    (u1, u2) = direction / speed, with h' = tan(speed x)."""
    cols = []
    for direction in _PLANAR_DIRECTIONS:
        prof = fam.planar_grim_reaper(direction)
        a1, a2, speed = (prof.params[k] for k in ("a1", "a2", "speed"))
        u1, u2 = a1 / speed, a2 / speed
        hp = np.tan(speed * prof.data["x"])
        hpp = speed * (1.0 + hp * hp)
        cols.append((prof.data["px"], prof.data["py"], u2 + u1 * hp, u2 * hp - u1,
                     u1 * hpp, u2 * hpp, np.full_like(hp, a1), np.full_like(hp, a2)))
    px, py, dx, dy, ddx, ddy, a1, a2 = (np.concatenate(c) for c in zip(*cols))
    lam = np.array(_PLANAR_LAMS)[:, None]
    zero = np.zeros_like(px)
    jet = PatchJet(Point(px, py, zero),
                   (dx, dy, 0.5 * (py * dx - px * dy)), (zero, zero, 1.0 + zero),
                   (ddx, ddy, 0.5 * (py * ddx - px * ddy), zero, zero, zero),
                   (zero,) * 6)
    residual = translator_residual(lam, patch_shape(lam, jet), KillingField(a1=a1, a2=a2))
    return np.max(np.abs(residual))


def _residual_checks(results):
    checks = []
    reps = {
        "grim": results["grims"][1],
        "bowl": results["bowls"][0],
        "catenoid": results["catenoid"],
        "helicoid": results["helicoids"][1],
    }
    for name, prof in reps.items():
        checks.append(_check(f"residual-{name}",
                             "translator equation H = g(nu, lam^{-1/2} Z)",
                             0.0, prof.residual_sup, 1e-7))
    checks.append(_check("residual-planar-grim",
                         "Thm 1.3(1) Euclidean grim reaper cylinder",
                         0.0, _planar_grim_residual(), 1e-10))
    # planar grim reaper speed scaling: width halves at speed 2
    w1 = fam.planar_grim_reaper((0.0, 1.0)).diagnostics["width"]
    w2 = fam.planar_grim_reaper((0.0, 2.0)).diagnostics["width"]
    checks.append(_check("planar-grim-width-scaling",
                         "translator scaling: domain width pi/speed",
                         w1 / 2.0, w2, 1e-12))

    cat = reps["catenoid"]
    checks.append(_check("catenoid-axis-distance",
                         "Thm 1.1(3) positive distance f0 from the axis",
                         1.0, cat.diagnostics["min_radius"], 1e-9))
    # the curvatures on either side of each junction, from the arm's ODE and
    # graph kernel and from the neck's ODE and patch kernel, at the two
    # samples that share their (r, z); H flips sign at the lower junction,
    # so |H| is compared
    d = cat.data
    j = np.array([fam.CATENOID_ARM_SAMPLES, fam.CATENOID_ARM_SAMPLES + fam.CATENOID_NECK_SAMPLES])
    jump = max(np.max(np.abs(d["K_gauss"][j] - d["K_gauss"][j - 1])),
               np.max(np.abs(np.abs(d["H"][j]) - np.abs(d["H"][j - 1]))))
    checks.append(_check("catenoid-c1-gluing",
                         "Thm 4.1 gluing: matching value and slope at z=+-eps",
                         0.0, jump, 1e-9))
    checks.append(_check("catenoid-embedded",
                         "Thm 1.1(3) properly embedded",
                         1.0, float(_polyline_embedded(cat)), 0.0, kind="true"))
    return checks


# rows of the orientation signs computed at once: 16 rows of the 801
# decimated catenoid points keep each float temporary near 0.1 MB
_ORIENT_ROWS = 16


def _polyline_embedded(cat) -> bool:
    """True when no two non-adjacent segments of the (r, z) profile
    polyline cross.

    Touching and collinear contacts (an orientation within 1e-15 of zero)
    do not count as crossings.  On a decimated copy q of the polyline, let
    S[i, k] be the orientation sign of (q_i, q_(i+1), q_k); segment j
    straddles segment i when S[i, j] and S[i, j+1] are nonzero and differ,
    and two segments cross when each straddles the other.  Adjacent
    segments never do: S[i, i] and S[i, i+1] are exactly 0.
    """
    p = np.column_stack([cat.data["r"], cat.data["z"]])
    n = len(p) - 1
    # O(n^2) on a decimated copy is plenty at these sizes
    step = max(1, n // 800)
    q = p[::step]
    if not np.array_equal(q[-1], p[-1]):
        q = np.vstack([q, p[-1]])
    m = len(q) - 1
    straddles = np.empty((m, m), dtype=bool)
    for lo in range(0, m, _ORIENT_ROWS):
        hi = min(lo + _ORIENT_ROWS, m)
        a, b = q[lo:hi, None], q[lo + 1:hi + 1, None]
        v = (b[..., 0] - a[..., 0]) * (q[:, 1] - a[..., 1]) \
            - (b[..., 1] - a[..., 1]) * (q[:, 0] - a[..., 0])
        sign = (v >= 1e-15).view(np.int8) - (v <= -1e-15).view(np.int8)
        straddles[lo:hi] = sign[:, :-1] * sign[:, 1:] < 0
    return not any(np.any(straddles[lo:lo + _ORIENT_ROWS] & straddles[:, lo:lo + _ORIENT_ROWS].T)
                   for lo in range(0, m, _ORIENT_ROWS))


def _bowl_checks(prof, axis_bowls):
    checks = []
    # psi/r = 1/(2 sqrt(lam)) + O(r^2): one Richardson step removes the r^2 term
    rs = np.array([1e-3, 2e-3])
    g = np.array([bowl.trajectories[0](rs)[:, 1] / rs for bowl in axis_bowls])
    sup_origin = np.max(np.abs((4.0 * g[:, 0] - g[:, 1]) / 3.0
                               - 1.0 / (2.0 * np.sqrt(_BOWL_AXIS_LAMS))))
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


# the anchors of the helicoid checks, by name, in the order of the failure
# flags that ``_helicoid_job`` takes per profile
_HELICOID_ANCHORS = {
    "r2-min": "Lemma 5.4: r^2 has exactly a global minimum",
    "tau-zero": "Lemma 5.3: tau has at most (and here exactly) one zero",
    "nu-zeros": "Lemma 5.3: nu' = tau^2/(sqrt(lam) c) at zeros of nu",
    "winding": "Lemma 5.6(4): each arm spirals infinitely many times",
    "k-decay": "Lemma 5.5: k tends to zero along the arms",
    "kprime-sign": "Lemma 5.5 (eq k'): P1 < 0 at far k-zeros",
}


def _helicoid_job():
    """Solve the helicoids of ``_HELICOID_GRID`` (a job for
    ``families.solve_jobs``); returns their checks and the helicoid
    (1, 1, 1) of the residual check."""
    profs = yield from fam.helicoids_job([fam.HelicoidParams(*g) for g in _HELICOID_GRID])
    fails = []
    for (lam, c, r0), prof in zip(_HELICOID_GRID, profs):
        ss = prof.t
        d = prof.data
        r2, tau, nu, k = d["r2"], d["tau"], d["nu"], d["k"]
        mins = np.count_nonzero((r2[1:-1] < r2[:-2]) & (r2[1:-1] < r2[2:]))
        crossings = np.nonzero(nu[:-1] * nu[1:] < 0)[0]
        nu_prime = -k * tau
        nu_up = np.all(0.5 * (nu_prime[crossings] + nu_prime[crossings + 1]) >= -1e-10)
        # the winding rate is -nu/r^2, so the arms wind monotonically beyond
        # the last sign change of nu
        w = np.unwrap(np.arctan2(d["gamma2"], d["gamma1"]))
        last_nu = np.abs(ss[crossings]).max() if len(crossings) else 0.0
        s_tail = max(10.0, last_nu + 1.0)
        tail_p = np.diff(w[ss >= s_tail])
        tail_m = np.diff(w[ss <= -s_tail])
        mono = (np.all(tail_p > 0) or np.all(tail_p < 0)) and \
               (np.all(tail_m > 0) or np.all(tail_m < 0))
        band = np.abs(ss) >= 40.0
        center = np.abs(ss) <= 1.0
        decays = np.max(np.abs(k[band])) < np.max(np.abs(k[center]))
        # P1 at the midpoints of the sign changes of k where |s| >= 10
        kz = (k[:-1] * k[1:] < 0) & (np.abs(ss[:-1]) >= 10.0)
        p1 = fam.helicoid_kprime_numerator(lam, c, 0.5 * (tau[:-1] + tau[1:])[kz],
                                           0.5 * (nu[:-1] + nu[1:])[kz])
        fails.append((mins != 1, np.count_nonzero(tau[:-1] * tau[1:] < 0) != 1, not nu_up,
                      not mono, not decays, np.any(p1 >= 0)))
    checks = [_check(f"helicoid-{key}", anchor, 0.0, n, 0.0)
              for (key, anchor), n in zip(_HELICOID_ANCHORS.items(), np.sum(fails, axis=0))]
    return checks, profs[_HELICOID_GRID.index((1.0, 1.0, 1.0))]


def core_suite(results):
    """The core checks; ``results`` holds the job results of
    ``SUITE_JOBS["core"]``."""
    checks = _core_kernel_checks()
    checks += results["grim_grid"]
    checks += _curvature_checks(results["grims"][0])
    checks += _residual_checks(results)
    checks += _bowl_checks(results["bowls"][0], results["axis_bowls"])
    checks += results["helicoids"][0]
    return checks


# ---------------------------------------------------------------------------
# asymptotics suite


def asymptotics_suite(results):
    """The asymptotics checks; ``results`` holds the job results of
    ``SUITE_JOBS["asymptotics"]``."""
    checks = []
    tol = {1.0: 0.03, 2.0: 0.03, 4.0: 0.05, 9.0: 0.03, 16.0: 0.03}
    # the fit reads the trajectory only, so the sample count of the bowls
    # does not enter
    for lam, arm in zip(_BOWL_TAIL_LAMS, results["bowls"]):
        fit = asym.fit_rotational_asymptotics(lam, arm)
        anchor = {
            "subcritical": "Lemma 4.2(i): -4/(sqrt(lam)(4-lam)) log r",
            "critical": "Lemma 4.2(iii): zeta -> -1/2 (log^2 coefficient)",
            "supercritical": "Lemma 4.2(ii): C0 r^(1-4/lam)",
        }[fit.regime]
        checks.append(_check(f"rotational-tail-lam-{lam:g}", anchor,
                             fit.expected, fit.coefficient, tol[lam], kind="rel"))

    # catenoid arms fall into the same regime machinery
    fit = asym.fit_rotational_asymptotics(1.0, results["catenoid"])
    checks.append(_check("catenoid-arm-tail",
                         "Lemma 4.2 applied to the catenoid arms",
                         fit.expected, fit.coefficient, 0.03, kind="rel"))

    fits = asym.grim_endpoint_fit(1.0, 0.0, results["grims"][0])
    expected = math.cosh(0.5 * math.pi) ** 2
    for side in ("a", "b"):
        checks.append(_check(f"grim-endpoint-log-coefficient-{side}",
                             "sec. 3: gamma ~ -((1+lam(c+b)^2)/sqrt(lam)) log(b-y)",
                             expected, fits[side].fitted, 0.03, kind="rel"))
    fits1 = asym.grim_endpoint_fit(1.0, 1.0, results["grims"][1])
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


def limits_suite(results):
    """The limits checks; ``results`` holds the limit reports of
    ``SUITE_JOBS["limits"]``."""
    checks = []
    rep = results["grim_limit"]
    checks.append(_check("limit-grim-decreasing",
                         "Thm 1.2(1): convergence to z = xy/2 + cx on strips",
                         1.0, float(rep.strictly_decreasing), 0.0, kind="true"))
    checks.append(_check("limit-grim-rate-bounded",
                         "Prop after Thm 4.2: |gamma| <= C log(sqrt(lam))/sqrt(lam)",
                         1.0, max(rep.details["ratios"]), 0.0, kind="le"))
    checks.append(_check("limit-grim-surface-minimal",
                         "Thm 1.2(1): the limit surface is minimal",
                         0.0, rep.details["limit_surface_H_sup"], 1e-12))

    repb = results["bowl_limit"]
    checks.append(_check("limit-bowl-decreasing",
                         "Thm 1.2(2): uniform convergence to a horizontal plane",
                         1.0, float(repb.strictly_decreasing), 0.0, kind="true"))
    cs = repb.details["psi_bound_constants"]
    checks.append(_check("limit-bowl-psi-bound",
                         "sec. 4 Prop: |psi| <= C0 lam^(-1/6) (bound, constant from the grid)",
                         cs[0], max(cs[1:]), 1e-12, kind="le"))
    plane_h = np.max(np.abs(graph_shape(np.array(asym.BOWL_LIMIT_LAMS),
                                        GraphJet(0.3, -0.7, 1.0, 0, 0, 0, 0, 0)).H))
    checks.append(_check("limit-plane-minimal",
                         "horizontal plane has H = 0 for every lam",
                         0.0, plane_h, 1e-12))

    repc = results["catenoid_limit"]
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
    """Graph jet of the upper arm of the rotational sweep of f~ at height z,
    with f~'' = 4/f~^3."""
    f, fp = (float(v) for v in asym.catenoid_limit_profile(f0, z))
    phip = 1.0 / fp
    return GraphJet(f, 0.0, z, phip, 0.0, -4.0 / f**3 / fp**3, 0.0, phip / f)


# ---------------------------------------------------------------------------
# report assembly


# the jobs of a verify run, by name: the grim grid's checks, the grim
# reapers (1, 0) and (1, 1), the bowls to r = 200 of the tail fits (the
# lam = 1 one is also the core suite's), the axis bowls, the catenoid (1, 1),
# the helicoid checks with the helicoid (1, 1, 1), and the reports of the
# three limits
_JOBS = {
    "grim_grid": _grim_grid_job,
    "grims": lambda: fam.grim_reapers_job([fam.GrimReaperParams(1.0, 0.0),
                                           fam.GrimReaperParams(1.0, 1.0)]),
    "bowls": lambda: fam.bowls_job(_BOWL_TAIL_LAMS, 200.0),
    "axis_bowls": lambda: fam.bowls_job(_BOWL_AXIS_LAMS, 1.0, n_samples=50),
    "catenoid": lambda: fam.catenoid_job(1.0, 1.0),
    "helicoids": _helicoid_job,
    "grim_limit": lambda: asym.limit_grim_reaper_job(0.0),
    "bowl_limit": asym.limit_bowl_job,
    "catenoid_limit": lambda: asym.limit_catenoid_job(1.0),
}

# the job results each suite reads
SUITE_JOBS = {
    "core": ("grim_grid", "grims", "bowls", "axis_bowls", "catenoid", "helicoids"),
    "asymptotics": ("grims", "bowls", "catenoid"),
    "limits": ("grim_limit", "bowl_limit", "catenoid_limit"),
}


def run_jobs(names) -> dict:
    """The results of the jobs ``names`` (keys of ``_JOBS``), each run once,
    all in one ``families.solve_jobs`` call."""
    names = list(dict.fromkeys(names))
    return dict(zip(names, fam.solve_jobs(*(_JOBS[name]() for name in names))))


def run_suite(suite: str) -> dict:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    parts = [part for part in SUITE_JOBS if suite in (part, "all")]
    results = run_jobs(name for part in parts for name in SUITE_JOBS[part])
    checks = []
    if "core" in parts:
        checks += core_suite(results)
    if "asymptotics" in parts:
        checks += asymptotics_suite(results)
    if "limits" in parts:
        checks += limits_suite(results)
    passed = sum(1 for c in checks if c["passed"])
    return {
        "suite": suite,
        "checks": checks,
        "counts": {"total": len(checks), "passed": passed,
                   "failed": len(checks) - passed},
        "passed": passed == len(checks),
    }
