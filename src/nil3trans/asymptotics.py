"""Asymptotic expansions of rotational arms, grim-reaper endpoint blow-up
fits, the radial linear ODE closed form, and the large-lambda limits.

The rotational graph arms z = phi(r) behave, for r large, like
r^2/(2*sqrt(lam)) plus a regime-dependent correction rho(r):

* lam < 4 (subcritical): rho ~ -4/(sqrt(lam)(4-lam)) * log r;
* lam = 4 (critical):    q = psi - r/2 satisfies q*r/log r -> -1/2;
* lam > 4 (supercritical): rho ~ C0 * r^(1-4/lam).

As lambda diverges the families collapse onto sub-Riemannian objects:
tilted grim reapers to the minimal graph z = xy/2 + cx, the bowl to a
horizontal plane, catenoid necks to f~(z) = sqrt(4z^2 + f0^4)/f0.  The
pointwise limit of the mean curvature is the horizontal mean curvature,
defined away from characteristic points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .families import ProfileCurve, bowls_job, grim_windows_job, necks_job
from .surface import GraphJet, graph_shape, is_characteristic


# ---------------------------------------------------------------------------
# radial linear ODE closed form:  y' = -(b/x)(y - a) + c/x^2


def radial_linear_closed_form(a: float, b: float, c: float,
                              x0: float, y0: float, x):
    """Solution of y' = -(b/x)(y - a) + c/x^2 with y(x0) = y0.

    y = a + (y0 - a)(x0/x)^b + c*g/x with g = -expm1(-(b-1)L)/(b-1), L =
    log(x/x0), and g = L at b = 1; expm1 keeps b near 1 free of cancellation.
    y -> a as x -> infinity.
    """
    if b <= 0:
        raise ValueError("decay exponent b must be positive")
    if x0 <= 0:
        raise ValueError("initial point x0 must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < x0):
        raise ValueError("evaluation points must satisfy x >= x0")
    L = np.log(x / x0)
    g = L if b == 1.0 else -np.expm1(-(b - 1.0) * L) / (b - 1.0)
    return a + (y0 - a) * (x0 / x) ** b + c * g / x


# ---------------------------------------------------------------------------
# rotational tail fits


SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


def classify_regime(lam: float) -> str:
    """Regime by exact comparison of lambda with 4."""
    if lam < 4.0:
        return SUBCRITICAL
    if lam == 4.0:
        return CRITICAL
    return SUPERCRITICAL


@dataclass
class AsymptoticFit:
    regime: str
    coefficient: float
    expected: float
    details: dict = field(default_factory=dict)


def _arm_samples(arm: ProfileCurve):
    """Tail samples (r, phi, psi) from a bowl or catenoid profile: its last
    trajectory, the bowl's one or the catenoid's upper arm."""
    if arm.family not in ("bowl", "catenoid"):
        raise ValueError(f"not a rotational profile: {arm.family!r}")
    traj = arm.trajectories[-1]
    r_max = abs(traj.t_end)
    if r_max < 100.0:
        raise ValueError("insufficient tail: arm must extend to r >= 100")
    r_lo = max(20.0, 0.5 * r_max)
    r = np.linspace(r_lo, r_max, 400)
    states = traj(r)
    return r, states[:, 0], states[:, 1]


def fit_rotational_asymptotics(lam: float, arm: ProfileCurve) -> AsymptoticFit:
    """Fit the tail correction of a rotational arm in the regime of lambda.

    ``arm`` is a bowl or catenoid ProfileCurve.
    Subcritical: least-squares slope of rho = phi - r^2/(2*sqrt(lam)) against
    log r.  Critical: slope zeta of eta = (psi - r/2)*r against log r, with
    the log^2 coefficient reported as 2*zeta.  Supercritical: constant-free
    fit of psi - r/sqrt(lam) = C1*r^(e-1) + C2/r giving exponent e (the
    fit's ``coefficient``) and C0 = C1/e; e is searched on
    [e0 - 1/2, min(e0 + 1/2, 0.999)] around e0 = 1 - 4/lam, and
    RuntimeError is raised when the best e lies on an end of that bracket.
    """
    r, phi, psi = _arm_samples(arm)
    s = math.sqrt(lam)
    rho = phi - r * r / (2.0 * s)
    q = psi - r / s
    regime = classify_regime(lam)

    if regime == SUBCRITICAL:
        slope = np.polyfit(np.log(r), rho, 1)[0]
        return AsymptoticFit(regime, float(slope), -4.0 / (s * (4.0 - lam)))

    if regime == CRITICAL:
        zeta = np.polyfit(np.log(r), q * r, 1)[0]
        return AsymptoticFit(regime, 2.0 * float(zeta), -1.0)

    e0 = 1.0 - 4.0 / lam

    # variable projection (Golub & Pereyra 1973): for fixed e the model is
    # linear in (C1, C2), so only e is searched
    def linear_fit(e):
        basis = np.column_stack([np.power(r, e - 1.0), 1.0 / r])
        coef = np.linalg.lstsq(basis, q, rcond=None)[0]
        return coef, basis @ coef

    e = _golden_min(lambda e: float(np.sum((q - linear_fit(e)[1]) ** 2)),
                    e0 - 0.5, min(e0 + 0.5, 0.999))
    c1, c2 = linear_fit(e)[0]
    # the printed expansion asserts only the exponent; C0 depends on the datum
    return AsymptoticFit(regime, e, e0, details={"C2": float(c2), "C0": float(c1) / e})


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo, hi):
    """Minimiser of a unimodal f on [lo, hi] by golden-section search, to 1e-12.

    Raises RuntimeError when the search closes on an end of the bracket,
    where f has no interior minimum.
    """
    a, b = lo, hi
    x1, x2 = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-12:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    if a == lo or b == hi:
        raise RuntimeError(f"tail fit has no interior minimum in [{lo:g}, {hi:g}]")
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# grim reaper endpoint blow-up fit


@dataclass
class EndpointFit:
    fitted: float
    predicted: float


def grim_endpoint_fit(lam: float, c: float, profile: ProfileCurve) -> dict:
    """Log-coefficient of gamma near both blow-up endpoints.

    Near the right endpoint b the profile satisfies
    gamma(y) ~ -(1 + lam*(c + b)^2)/sqrt(lam) * log(b - y); the left endpoint
    is analogous.  The fit is a least-squares slope of gamma against the log
    of the distance to the profile's end (``a_numeric`` or ``b_numeric``)
    at 200 points of the half's tail, whose variable is gamma: the points lie
    about 1e-6 to 1e-5 before the end, placed by interpolating the log
    distance between the tail's samples, and their y is read from its dense
    output.
    """
    if profile.family != "grim":
        raise ValueError("endpoint fit applies to grim reaper profiles")
    diag = profile.diagnostics
    if diag["termination"] != ("blow_up",) * 4:
        raise ValueError("profile must terminate by blow-up at both ends")
    s = math.sqrt(lam)
    out = {}
    for side, tail, sign in (("b", profile.trajectories[3], 1.0),
                             ("a", profile.trajectories[2], -1.0)):
        endpoint = diag[f"{side}_numeric"]
        dist = sign * (endpoint - tail.y[:, 0])
        before = dist > 0
        gammas = np.interp(-np.log(np.geomspace(1e-5, 1e-6, 200)),
                           -np.log(dist[before]), tail.t[before])
        ys = tail(gammas)[:, 0]
        slope, _ = np.polyfit(np.log(sign * (endpoint - ys)), gammas, 1)
        out[side] = EndpointFit(-float(slope), (1.0 + lam * (c + endpoint) ** 2) / s)
    return out


# ---------------------------------------------------------------------------
# large-lambda limits


@dataclass
class LimitReport:
    family: str
    lam_grid: tuple
    errors: tuple  # per-lambda sup-norm distance to the limit object
    decay_rate: float | None
    details: dict = field(default_factory=dict)

    @property
    def strictly_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.errors, self.errors[1:]))


# half-width of the grim reapers' window, the bowls' radius and the necks'
# half-height on which the limits are measured, and the samples of a window
GRIM_LIMIT_WINDOW = 1.0
ROTATIONAL_LIMIT_WINDOW = 2.0
LIMIT_SAMPLES = 401

# the strictly increasing lambda grids of the three limits
GRIM_LIMIT_LAMS = (10.0, 1e2, 1e3, 1e4)
BOWL_LIMIT_LAMS = (10.0, 1e2, 1e3)
CATENOID_LIMIT_LAMS = (2e3, 8e3, 3.2e4, 1.28e5)

# the largest neck radius of the catenoid limit: the sup errors of a wider
# neck reach the round-off floor of f ~ f0 inside the grid (at f0 = 100 they
# halve down to 6e-12; from f0 ~ 262.4 on they stop decreasing)
CATENOID_LIMIT_MAX_F0 = 100.0


def limit_grim_reaper_job(c: float):
    """Collapse of the tilted grim reapers onto the minimal graph z = xy/2 + cx.

    Per lambda of GRIM_LIMIT_LAMS: sup over LIMIT_SAMPLES points of
    |y| <= GRIM_LIMIT_WINDOW of |gamma| and |gamma'|, and the ratio of
    sup|gamma| to the predicted scale log(sqrt(lam))/sqrt(lam).  A job for
    ``families.solve_jobs``; its result is a ``LimitReport``.
    """
    lams = GRIM_LIMIT_LAMS
    windows = yield from grim_windows_job(lams, c, GRIM_LIMIT_WINDOW)
    ys = np.linspace(-GRIM_LIMIT_WINDOW, GRIM_LIMIT_WINDOW, LIMIT_SAMPLES)
    sups, sups_p, ratios = [], [], []
    for lam, gamma in zip(lams, windows):
        vals = gamma(ys)
        sups.append(float(np.max(np.abs(vals[:, 0]))))
        sups_p.append(float(np.max(np.abs(vals[:, 1]))))
        scale = math.log(math.sqrt(lam)) / math.sqrt(lam)
        ratios.append(sups[-1] / scale)
    rate = _loglog_rate(lams, sups)
    # the limit surface z = xy/2 + cx is a minimal graph: H vanishes
    x, y = (v.ravel() for v in np.meshgrid(np.linspace(-2, 2, 7), np.linspace(-2, 2, 7),
                                          indexing="ij"))
    jet = GraphJet(x, y, 0.5 * x * y + c * x, 0.5 * y + c, 0.5 * x, 0.0, 0.5, 0.0)
    h_sup = float(np.max(np.abs(graph_shape(np.array(lams)[:, None], jet).H)))
    return LimitReport(
        "grim", lams, tuple(sups), rate,
        {"sup_gamma_prime": tuple(sups_p), "ratios": tuple(ratios),
         "limit_surface_H_sup": h_sup},
    )


def limit_bowl_job():
    """Collapse of the bowl onto the horizontal plane z = 0 on
    r <= ROTATIONAL_LIMIT_WINDOW (400 samples), per lambda of
    BOWL_LIMIT_LAMS.  A job for ``families.solve_jobs``; its result is a
    ``LimitReport``."""
    lams = BOWL_LIMIT_LAMS
    bowls = yield from bowls_job(lams, ROTATIONAL_LIMIT_WINDOW, n_samples=400)
    sups, psi_sups, c_fits = [], [], []
    for lam, prof in zip(lams, bowls):
        sups.append(float(np.max(np.abs(prof.data["phi"]))))
        psi_sup = float(np.max(np.abs(prof.data["psi"])))
        psi_sups.append(psi_sup)
        c_fits.append(psi_sup * lam ** (1.0 / 6.0))
    rate = _loglog_rate(lams, sups)
    return LimitReport(
        "bowl", lams, tuple(sups), rate,
        {"sup_psi": tuple(psi_sups), "psi_bound_constants": tuple(c_fits)},
    )


def limit_catenoid_job(f0: float):
    """Collapse of the neck profiles onto f~(z) = sqrt(4z^2 + f0^4)/f0 on
    LIMIT_SAMPLES points of |z| <= ROTATIONAL_LIMIT_WINDOW, per lambda of
    CATENOID_LIMIT_LAMS, for f0 up to CATENOID_LIMIT_MAX_F0.  A job for
    ``families.solve_jobs``; its result is a ``LimitReport``, and it rejects
    f0 before its request."""
    lams = CATENOID_LIMIT_LAMS
    k = ROTATIONAL_LIMIT_WINDOW
    if f0 > CATENOID_LIMIT_MAX_F0:
        raise ValueError(f"f0 must be at most {CATENOID_LIMIT_MAX_F0:g} (here {f0})")
    necks = yield from necks_job(lams, f0, k)
    zs = np.linspace(-k, k, LIMIT_SAMPLES)
    target = catenoid_limit_profile(f0, zs)[0]
    sups = []
    for lam, (f, (down, up)) in zip(lams, necks):
        if up.termination != "span_end" or down.termination != "span_end":
            # the lower branch turns vertical before the window edge: the
            # neck is a graph over z only for lambda large enough, and a
            # wider neck turns further out
            raise ValueError(
                f"neck profile does not cover [-{k}, {k}] at "
                f"lambda={lam} (graph turns at z={down.t_end:.4f}); "
                f"increase f0 (here {f0:g})")
        sups.append(float(np.max(np.abs(f(zs)[:, 0] - target))))
    rate = _loglog_rate(lams, sups)
    quad_ratio = 4.0 ** (-rate) if rate is not None else None
    return LimitReport(
        "catenoid", lams, tuple(sups), rate,
        {"quadrupling_ratio": quad_ratio, "f0": f0},
    )


def catenoid_limit_profile(f0: float, z):
    """The limit profile f~(z) = sqrt(4z^2 + f0^4)/f0 and its derivative."""
    z = np.asarray(z, dtype=float)
    f = np.sqrt(4.0 * z * z + f0**4) / f0
    fp = 4.0 * z / (f0 * np.sqrt(4.0 * z * z + f0**4))
    return f, fp


def _loglog_rate(lams, errors):
    """Slope of log(error) against log(lambda); None if an error vanishes."""
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0):
        return None
    return float(np.polyfit(np.log(lams), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# horizontal mean curvature (pointwise large-lambda limit of H)


@dataclass
class HorizontalLimit:
    characteristic: bool
    value: float | None
    closed_form: float | None


# the three lambdas of the horizontal mean curvature's extrapolation
HORIZONTAL_LAM_GRID = (1e2, 1e3, 1e4)


def horizontal_mean_curvature(jet: GraphJet) -> HorizontalLimit:
    """Richardson-extrapolated limit of H(lambda) at a graph point.

    At characteristic points (``surface.is_characteristic``) the limit is
    undefined and the point is flagged.  The extrapolation solves the
    two-correction model H(lambda) = H_inf + p/lambda + q/lambda^2 on
    HORIZONTAL_LAM_GRID; the closed form (u_xx*beta^2 + u_yy*alpha^2 -
    2*u_xy*alpha*beta) / (alpha^2+beta^2)^(3/2) is evaluated alongside for
    comparison.
    """
    if is_characteristic(jet):
        return HorizontalLimit(True, None, None)
    a, b = jet.alpha, jet.beta
    hs = graph_shape(np.array(HORIZONTAL_LAM_GRID), jet).H
    vander = np.array([[1.0, 1.0 / lam, 1.0 / lam**2] for lam in HORIZONTAL_LAM_GRID])
    h_inf, p, q = np.linalg.solve(vander, hs)
    closed = (jet.u_xx * b * b + jet.u_yy * a * a - 2.0 * jet.u_xy * a * b) \
        / (a * a + b * b) ** 1.5
    return HorizontalLimit(False, float(h_inf), float(closed))
