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

from .families import (
    ProfileCurve,
    catenoid_necks,
    grim_reapers_on_window,
    solve_bowls,
)
from .surface import GraphJet, graph_shape


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


def barrier_root(lam: float) -> float:
    """The real root R of x^3 + 4x = 4*sqrt(lam) (scale of the barrier curve)."""
    roots = np.roots([1.0, 0.0, 4.0, -4.0 * math.sqrt(lam)])
    real = roots[np.abs(roots.imag) < 1e-9 * np.abs(roots.real).max()]
    return float(real.real.max())


@dataclass
class AsymptoticFit:
    regime: str
    coefficient: float
    expected: float
    window: tuple
    rel_residual: float
    exponent: float | None = None
    details: dict = field(default_factory=dict)


def _arm_samples(arm: ProfileCurve, n: int = 400):
    """Tail samples (r, phi, psi) from a bowl or catenoid profile."""
    if arm.family == "bowl":
        traj = arm.trajectories[0]
    elif arm.family == "catenoid":
        traj = arm.trajectories[1]  # upper arm
    else:
        raise ValueError(f"not a rotational profile: {arm.family!r}")
    r_max = abs(traj.t_end)
    if r_max < 100.0:
        raise ValueError("insufficient tail: arm must extend to r >= 100")
    r_lo = max(20.0, 0.5 * r_max)
    r = np.linspace(r_lo, r_max, n)
    states = traj(r)
    return r, states[:, 0], states[:, 1]


def fit_rotational_asymptotics(lam: float, arm: ProfileCurve,
                               n_samples: int = 400) -> AsymptoticFit:
    """Fit the tail correction of a rotational arm in the regime of lambda.

    ``arm`` is a bowl or catenoid ProfileCurve.
    Subcritical: least-squares slope of rho = phi - r^2/(2*sqrt(lam)) against
    log r.  Critical: slope zeta of eta = (psi - r/2)*r against log r, with
    the log^2 coefficient reported as 2*zeta.  Supercritical: constant-free
    fit of psi - r/sqrt(lam) = C1*r^(e-1) + C2/r giving exponent e and
    C0 = C1/e; e is searched on [e0 - 1/2, min(e0 + 1/2, 0.999)] around
    e0 = 1 - 4/lam, and RuntimeError is raised when the best e lies on an
    end of that bracket.
    """
    r, phi, psi = _arm_samples(arm, n_samples)
    s = math.sqrt(lam)
    rho = phi - r * r / (2.0 * s)
    q = psi - r / s
    regime = classify_regime(lam)
    window = (float(r[0]), float(r[-1]))
    details = {"barrier_root": barrier_root(lam)}

    if regime == SUBCRITICAL:
        slope, intercept = np.polyfit(np.log(r), rho, 1)
        fitted = slope * np.log(r) + intercept
        rel = _normalized_rms(rho, fitted)
        expected = -4.0 / (s * (4.0 - lam))
        details["eta_mean"] = float(np.mean(q * r))
        return AsymptoticFit(regime, float(slope), expected, window, rel,
                             details=details)

    if regime == CRITICAL:
        eta = q * r
        zeta, intercept = np.polyfit(np.log(r), eta, 1)
        fitted = zeta * np.log(r) + intercept
        rel = _normalized_rms(eta, fitted)
        details["zeta"] = float(zeta)
        return AsymptoticFit(regime, 2.0 * float(zeta), -1.0, window, rel,
                             details=details)

    e0 = 1.0 - 4.0 / lam

    # variable projection (Golub & Pereyra 1973): for fixed e the model is
    # linear in (C1, C2), so only e is searched
    def linear_fit(e):
        basis = np.column_stack([np.power(r, e - 1.0), 1.0 / r])
        coef = np.linalg.lstsq(basis, q, rcond=None)[0]
        return coef, basis @ coef

    e = _golden_min(lambda e: float(np.sum((q - linear_fit(e)[1]) ** 2)),
                    e0 - 0.5, min(e0 + 0.5, 0.999))
    (c1, c2), fitted = linear_fit(e)
    rel = _normalized_rms(q, fitted)
    details.update({"C2": float(c2), "C0": float(c1) / e})
    # the printed expansion asserts only the exponent; C0 depends on the datum
    return AsymptoticFit(regime, e, e0, window, rel, exponent=e,
                         details=details)


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


def _normalized_rms(data, fitted) -> float:
    scale = max(float(np.max(np.abs(data))), 1e-300)
    return float(np.sqrt(np.mean((data - fitted) ** 2)) / scale)


# ---------------------------------------------------------------------------
# grim reaper endpoint blow-up fit


@dataclass
class EndpointFit:
    side: str  # "a" (left) or "b" (right)
    fitted: float
    predicted: float
    window: tuple
    rel_error: float


def grim_endpoint_fit(lam: float, c: float, profile: ProfileCurve) -> dict:
    """Log-coefficient of gamma near both blow-up endpoints.

    Near the right endpoint b the profile satisfies
    gamma(y) ~ -(1 + lam*(c + b)^2)/sqrt(lam) * log(b - y); the left endpoint
    is analogous.  The fit is a least-squares slope of gamma against
    log(distance) over the last resolved decade before termination.
    """
    if profile.family != "grim":
        raise ValueError("endpoint fit applies to grim reaper profiles")
    if profile.diagnostics["termination"] != ("blow_up", "blow_up"):
        raise ValueError("profile must terminate by blow-up at both ends")
    s = math.sqrt(lam)
    out = {}
    for side, traj, endpoint in (
        ("b", profile.trajectories[0], profile.diagnostics["b_numeric"]),
        ("a", profile.trajectories[1], profile.diagnostics["a_numeric"]),
    ):
        sign = 1.0 if side == "b" else -1.0
        dist = np.geomspace(1e-6, 1e-5, 200)
        ys = endpoint - sign * dist
        # the recorded endpoint stops where gamma' hits the blow-up threshold,
        # short of the true pole by ~coefficient/threshold; refine it from the
        # local model 1/gamma' = (b - y)/A, which is linear through the pole
        inv_gp = sign / traj(ys)[:, 1]
        slope_inv, icpt_inv = np.polyfit(ys, inv_gp, 1)
        endpoint = -icpt_inv / slope_inv
        dist = sign * (endpoint - ys)
        gamma = traj(ys)[:, 0]
        slope, _ = np.polyfit(np.log(dist), gamma, 1)
        fitted = -float(slope)
        predicted = (1.0 + lam * (c + endpoint) ** 2) / s
        out[side] = EndpointFit(
            side, fitted, predicted,
            (float(dist[0]), float(dist[-1])),
            abs(fitted / predicted - 1.0),
        )
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


def _check_grid(lams):
    lams = tuple(float(v) for v in lams)
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be strictly increasing")
    return lams


def limit_grim_reaper(c: float, lams, k_window: float = 1.0,
                      n_samples: int = 401) -> LimitReport:
    """Collapse of the tilted grim reapers onto the minimal graph z = xy/2 + cx.

    Per lambda: sup over [-k_window, k_window] of |gamma| and |gamma'|, and
    the ratio of sup|gamma| to the predicted scale log(sqrt(lam))/sqrt(lam).
    """
    lams = _check_grid(lams)
    ys = np.linspace(-k_window, k_window, n_samples)
    sups, sups_p, ratios = [], [], []
    for lam, gamma in zip(lams, grim_reapers_on_window(lams, c, k_window)):
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
    h_sup = max(float(np.max(np.abs(graph_shape(lam, jet).H))) for lam in lams)
    return LimitReport(
        "grim", lams, tuple(sups), rate,
        {"sup_gamma_prime": tuple(sups_p), "ratios": tuple(ratios),
         "limit_surface_H_sup": h_sup},
    )


def limit_bowl(lams, k_window: float = 2.0) -> LimitReport:
    """Collapse of the bowl onto the horizontal plane z = 0 on r <= k_window."""
    lams = _check_grid(lams)
    sups, psi_sups, c_fits = [], [], []
    for lam, prof in zip(lams, solve_bowls(lams, k_window, n_samples=400)):
        sups.append(float(np.max(np.abs(prof.data["phi"]))))
        psi_sup = float(np.max(np.abs(prof.data["psi"])))
        psi_sups.append(psi_sup)
        c_fits.append(psi_sup * lam ** (1.0 / 6.0))
    rate = _loglog_rate(lams, sups)
    return LimitReport(
        "bowl", lams, tuple(sups), rate,
        {"sup_psi": tuple(psi_sups), "psi_bound_constants": tuple(c_fits)},
    )


def limit_catenoid(f0: float, lams, k_window: float = 2.0,
                   n_samples: int = 401) -> LimitReport:
    """Collapse of the neck profiles onto f~(z) = sqrt(4z^2 + f0^4)/f0."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    lams = _check_grid(lams)
    zs = np.linspace(-k_window, k_window, n_samples)
    target = np.sqrt(4.0 * zs * zs + f0**4) / f0
    sups = []
    for lam, (f, (up, down)) in zip(lams, catenoid_necks(lams, f0, k_window)):
        if up.termination != "span_end" or down.termination != "span_end":
            # the lower branch turns vertical before the window edge: the
            # neck is a graph over z only for lambda large enough
            raise ValueError(
                f"neck profile does not cover [-{k_window}, {k_window}] at "
                f"lambda={lam} (graph turns at z={down.t_end:.4f}); "
                "increase lambda or shrink the window")
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
    residual: float | None
    samples: dict = field(default_factory=dict)


def horizontal_mean_curvature(jet: GraphJet,
                              lam_grid=(1e2, 1e3, 1e4),
                              tol: float = 1e-12) -> HorizontalLimit:
    """Richardson-extrapolated limit of H(lambda) at a graph point.

    At characteristic points (alpha = beta = 0) the limit is undefined and
    the point is flagged.  The extrapolation solves the two-correction model
    H(lambda) = H_inf + p/lambda + q/lambda^2 on the three-point grid; the
    closed form (u_xx*beta^2 + u_yy*alpha^2 - 2*u_xy*alpha*beta) /
    (alpha^2+beta^2)^(3/2) is evaluated alongside for comparison.
    """
    a, b = jet.alpha, jet.beta
    if a * a + b * b <= tol:
        return HorizontalLimit(True, None, None, None)
    lams = tuple(float(v) for v in lam_grid)
    if len(lams) != 3:
        raise ValueError("the extrapolation model needs exactly three lambdas")
    hs = [graph_shape(lam, jet).H for lam in lams]
    vander = np.array([[1.0, 1.0 / lam, 1.0 / lam**2] for lam in lams])
    h_inf, p, q = np.linalg.solve(vander, np.array(hs))
    closed = (jet.u_xx * b * b + jet.u_yy * a * a - 2.0 * jet.u_xy * a * b) \
        / (a * a + b * b) ** 1.5
    return HorizontalLimit(
        False, float(h_inf), float(closed), abs(float(h_inf) - closed),
        {"lam_grid": lams, "H_values": tuple(float(h) for h in hs)},
    )
