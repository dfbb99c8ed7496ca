"""Construction of the invariant vertical-translator families of Nil3.

Four families share the machinery here:

* tilted grim reapers, invariant under the translations L_{(u,0,cu)};
  graphs z = xy/2 + cx + gamma(y) over a slab of explicit width;
* the bowl solution, rotationally invariant entire graph z = phi(r);
* translating catenoids, rotationally invariant with a neck of radius
  f0 > 0 glued to two graphical arms;
* helicoidal translators with pitch c != 0, generated by an arc-length
  planar curve whose curvature is prescribed by the translator equation.

Plus the planar Euclidean grim reaper, the vertical-cylinder translator for
horizontal translation directions.

Each family is described once, here: its constructor builds the profile's
``data`` table, which the CSV export prints as it stands, and ``_SWEEPS``
gives the Killing field whose flow sweeps the profile into a surface.

Every constructed ``ProfileCurve`` carries per-sample mean curvature,
translator residual and curvatures recomputed through the surface kernel,
so the ODE solutions are cross-checked against the geometry.  The jet
builders accept arrays of samples, so each profile is shaped by one kernel
call per piece.

Each solver of a list of curves is written as a job (``*_job``): a
generator that yields the ``Lanes`` it needs integrated and builds its
profiles from the trajectories it is sent back.  ``solve_jobs`` runs any
number of jobs with one ``ode.solve_ivp`` call per right-hand side, so a
verify run integrates all its grim reapers (chart 1 with the grim windows,
then the tails), necks, helicoids and rotational arms in five calls.  A single
profile of a family comes from ``solve_grim_reaper``, ``solve_bowl``,
``solve_catenoid`` or ``solve_helicoid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import ode
from .core import KillingField, Point, _lam_value, killing_flow, vertical_translation_field
from .surface import (
    GraphJet,
    PatchJet,
    ambient_tangent_curvature,
    gaussian_curvature,
    graph_shape,
    patch_shape,
    translator_residual,
)


# ---------------------------------------------------------------------------
# shared containers


@dataclass
class ProfileCurve:
    """A sampled generating curve with per-sample derived quantities.

    ``data`` is the profile's table, in the column order of its CSV export;
    its first column is the curve parameter.
    """

    family: str
    params: dict
    data: dict
    trajectories: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def t(self) -> np.ndarray:
        """The curve parameter: the first column of ``data``."""
        return next(iter(self.data.values()))

    @property
    def residual_sup(self) -> float:
        return float(np.max(np.abs(self.data["residual"])))


@dataclass
class Mesh:
    """Quad mesh swept from a profile curve by a one-parameter group."""

    vertices: np.ndarray  # (n, 3)
    faces: np.ndarray  # (m, 4) 1-based quad vertex indices
    scalars: dict  # per-vertex arrays: H, when the profile has an H column
    closed: bool
    shape: tuple  # (n_profile, n_sweep)


# ---------------------------------------------------------------------------
# tilted grim reapers


@dataclass(frozen=True)
class GrimReaperParams:
    lam: float
    c: float = 0.0

    def __post_init__(self):
        _lam_value(self.lam)
        if not 0.0 <= self.c < math.inf:
            raise ValueError("slope c must be non-negative and finite "
                             "(apply y -> -y for c < 0)")


@dataclass(frozen=True)
class SlabData:
    a_endpoint: float
    b_endpoint: float
    width: float


def slab(lam: float, c: float) -> SlabData:
    """Endpoints and width of the maximal slab of the tilted grim reaper;
    ``OverflowError`` names lam and c where either overflows."""
    s = math.sqrt(lam)
    t = math.asinh(s * c)
    try:
        a = math.sinh(t - 0.5 * math.pi * s) / s - c
        b = math.sinh(t + 0.5 * math.pi * s) / s - c
    except OverflowError:
        raise OverflowError(f"the slab endpoints overflow at lambda = {lam:g}, "
                            f"c = {c:g}") from None
    width = 2.0 / s * math.sqrt(1.0 + lam * c * c) * math.sinh(0.5 * math.pi * s)
    # lam*c*c overflows to inf in Python floats, which do not raise
    if not math.isfinite(width):
        raise OverflowError(f"the slab width overflows at lambda = {lam:g}, c = {c:g}")
    return SlabData(a, b, width)


# Each grim reaper half runs in two charts.  Chart 1 follows (gamma, gamma')
# in y until |gamma'| reaches GRIM_HANDOVER (or |gamma| ode.BLOW_UP_THRESHOLD).
# From its last step end before that stop (the stop lies on a step
# interpolant, and a tail started there is less accurate), or from the stop
# when only the seed gamma' = 0 lies before it, chart 2 follows
# (y, sigma = ln|1/gamma'|) in gamma, which is smooth through the pole: there
# 1/gamma' -> 0 and sigma falls linearly in gamma.  The tail stops where
# |sigma| reaches ln GRIM_TAIL_SLOPE, or at gamma = ode.BLOW_UP_THRESHOLD.
GRIM_HANDOVER = 10.0
GRIM_TAIL_SLOPE = 1e16
_GRIM_HEAD_STOP = (ode.BLOW_UP_THRESHOLD, GRIM_HANDOVER)
_GRIM_TAIL_STOP = (math.inf, math.log(GRIM_TAIL_SLOPE))


def grim_reaper_rhs(lam, c, y, gamma, gamma_p):
    """Right-hand side of the generating-curve ODE (state (gamma, gamma'));
    every argument may be an array."""
    return _grim_lanes(y, (gamma, gamma_p), *_grim_args(lam, c))


def _grim_args(lam, c):
    """The arguments of ``_grim_lanes``: lam, c, sqrt(lam) and 1/sqrt(lam)."""
    s = np.sqrt(lam)
    return lam, c, s, 1.0 / s


def _grim_lanes(y, state, lam, c, s, inv_s):
    gamma_p = state[1]
    a = y + c
    la = lam * a
    return gamma_p, inv_s + (s * gamma_p + la) * gamma_p / (1.0 + la * a)


def _grim_tail_lanes(gamma, state, lam, c, s, inv_s, sign):
    """Chart 2 of a grim reaper half: d(y, sigma)/dgamma = (w, -q), where
    w = 1/gamma' = sign e^sigma, a = y + c and q = gamma'' w^2
    = w^2/sqrt(lam) + (sqrt(lam) + lam a w)/(1 + lam a^2)."""
    y, sigma = state
    w = sign * np.exp(sigma)
    a = y + c
    return w, -(w * w * inv_s + (s + lam * a * w) / (1.0 + lam * a * a))


def grim_reaper_closed_form(lam, c, y):
    """Closed-form gamma'(y), defined on the open slab only; lam, c and y may
    be arrays of samples, which broadcast."""
    lams, cs = np.broadcast_arrays(lam, c)
    ends = np.reshape([(sl.a_endpoint, sl.b_endpoint) for sl in map(slab, lams.flat, cs.flat)],
                      lams.shape + (2,))
    ys, a_end, b_end = np.broadcast_arrays(y, ends[..., 0], ends[..., 1])
    outside = ~((a_end < ys) & (ys < b_end))
    if np.any(outside):
        i = np.argmax(outside)
        raise ValueError(f"y={ys.flat[i]} outside the open slab "
                         f"({a_end.flat[i]}, {b_end.flat[i]})")
    s = np.sqrt(lam)
    a = y + c
    theta = (np.arcsinh(s * a) - np.arcsinh(s * c)) / s
    return np.sqrt(a * a + 1.0 / lam) * np.tan(theta)


def grim_reaper_jet(lam: float, c: float, y, gamma, gamma_p) -> GraphJet:
    """Graph jet of z = xy/2 + cx + gamma(y) at (x, y) = (0, y); y, gamma and
    gamma' may be arrays of samples."""
    _, gamma_pp = grim_reaper_rhs(lam, c, y, gamma, gamma_p)
    return GraphJet(
        x=0.0, y=y, u=gamma,
        u_x=0.5 * y + c, u_y=gamma_p,
        u_xx=0.0, u_xy=0.5, u_yy=gamma_pp,
    )


def solve_grim_reaper(params: GrimReaperParams,
                      rtol: float = ode.DEFAULT_RTOL,
                      atol: float = ode.DEFAULT_ATOL,
                      derived: bool = True) -> ProfileCurve:
    """Integrate the generating curve in both directions into its poles.

    With ``derived=False`` only gamma and gamma' are tabulated (no per-sample
    shape data), which keeps tight-tolerance runs fast.
    """
    return solve_jobs(grim_reapers_job([params], rtol, atol, derived))[0][0]


def grim_reapers_job(params, rtol: float = ode.DEFAULT_RTOL,
                     atol: float = ode.DEFAULT_ATOL, derived: bool = True):
    """The grim reaper of each of ``params``, as ``solve_grim_reaper`` builds
    it: chart 1 of both halves of all curves is asked for as one ``Lanes``,
    then chart 2 of every half, from its handover sample, as a second one.
    """
    params = list(params)
    slabs = [slab(p.lam, p.c) for p in params]
    args = _grim_args(np.array([p.lam for p in params]), np.array([p.c for p in params]))
    pairs = yield from _both_ways(
        _grim_lanes,
        [(0.0, sl.a_endpoint - 0.2 * sl.width, (0.0, 0.0)) for sl in slabs],
        [(0.0, sl.b_endpoint + 0.2 * sl.width, (0.0, 0.0)) for sl in slabs],
        args, rtol, atol)
    heads = [half for pair in pairs for half in pair]
    # per half: the constants and the sign of gamma', < 0 on the lower half
    # and > 0 on the upper one; gamma grows from 0 along both
    half_args = tuple(np.repeat(a, 2) for a in args) + (np.tile([-1.0, 1.0], len(params)),)
    tails = yield Lanes(
        _grim_tail_lanes,
        [(head.y[k, 0], ode.BLOW_UP_THRESHOLD, (head.t[k], -math.log(abs(head.y[k, 1]))))
         for head, k in zip(heads, map(_handover, heads))],
        half_args, rtol, atol)
    halves = [(head, tail, tuple(a[i] for a in half_args))
              for i, (head, tail) in enumerate(zip(heads, tails))]
    return [_grim_profile(p, sl, halves[2 * k], halves[2 * k + 1], derived)
            for k, (p, sl) in enumerate(zip(params, slabs))]


def _grim_profile(params, sl, down, up, derived) -> ProfileCurve:
    lam, c = params.lam, params.c
    (yd, gd, gpd), (yu, gu, gpu) = _grim_samples(*down), _grim_samples(*up)
    ys = np.concatenate([yd[:0:-1], yu])
    cols = {"y": ys, "gamma": np.concatenate([gd[:0:-1], gu]),
            "gamma_prime": np.concatenate([gpd[:0:-1], gpu])}
    if derived:
        jet = grim_reaper_jet(lam, c, ys, cols["gamma"], cols["gamma_prime"])
        cols.update(_shape_columns(lam, graph_shape(lam, jet), jet))
    trajs = [down[0], up[0], down[1], up[1]]
    diag = {
        "slab": sl,
        "a_numeric": _grim_end(*down),
        "b_numeric": _grim_end(*up),
        **_counters(*trajs),
    }
    return ProfileCurve("grim", {"lam": lam, "c": c}, cols, trajs, diag)


def _handover(head) -> int:
    """The index of the chart-1 sample a grim reaper half hands over from."""
    if head.termination != "blow_up":
        raise RuntimeError(f"grim reaper half ended at y = {head.t_end:.6g} before "
                           f"its handover ({head.termination})")
    return max(len(head.t) - 2, 1)


def _grim_samples(head, tail, args):
    """The samples (y, gamma, gamma') of a grim reaper half from its seed on:
    chart 1's up to the handover, then chart 2's after it."""
    k = _handover(head) + 1
    sign = args[-1]
    return (np.concatenate([head.t[:k], tail.y[1:, 0]]),
            np.concatenate([head.y[:k, 0], tail.t[1:]]),
            np.concatenate([head.y[:k, 1], sign * np.exp(-tail.y[1:, 1])]))


def _grim_end(head, tail, args) -> float:
    """The end of a grim reaper half (a or b): the tail's last y plus the
    remainder w/q of its pole.  Near the pole dy/dsigma = -w/q with
    w = sign e^sigma and q about constant, so y moves on by w/q as
    sigma -> -inf."""
    dy, dsigma = _grim_tail_lanes(tail.t_end, tail.y[-1], *args)
    return float(tail.y[-1, 0] - dy / dsigma)


def _both_ways(rhs, down, up, args, rtol: float = ode.DEFAULT_RTOL,
               atol: float = ode.DEFAULT_ATOL):
    """Integrate each curve from its seed in both directions (a job step).

    ``down`` and ``up`` give each curve's two halves as ``(t0, t1, y0)``, and
    ``args`` holds one value sequence per curve.  All halves are asked for
    as one ``Lanes``, (down, up) per curve; the result is one ``(down, up)``
    trajectory pair per curve.
    """
    problems = [half for pair in zip(down, up) for half in pair]
    trajs = yield Lanes(rhs, problems, tuple(np.repeat(a, 2) for a in args), rtol, atol)
    return list(zip(trajs[::2], trajs[1::2]))


def _joined(down, up):
    """The curve t -> state read from its two halves, which start at the same
    t: ``up`` at and beyond it, ``down`` below it."""
    def curve(t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((len(t), up.y.shape[1]))
        hi = t >= up.t[0]
        for sel, half in ((hi, up), (~hi, down)):
            if np.any(sel):
                out[sel] = half(t[sel])
        return out[0] if scalar else out

    return curve


def _counters(*trajs) -> dict:
    """Termination reason, accepted steps and rhs evaluations
    (``Trajectory.nfev``) per trajectory."""
    return {"termination": tuple(tr.termination for tr in trajs),
            "n_steps": tuple(tr.n_steps for tr in trajs),
            "nfev": tuple(tr.nfev for tr in trajs)}


def _shape_columns(lam: float, shape, graph_jet: GraphJet | None = None) -> dict:
    """Per-sample H, vertical translator residual and Gaussian curvature,
    plus the intrinsic curvature when the graph jet is given."""
    cols = {
        "H": shape.H,
        "residual": translator_residual(lam, shape, vertical_translation_field(lam)),
        "K_gauss": gaussian_curvature(shape),
    }
    if graph_jet is not None:
        # the Gauss equation, as ``surface.intrinsic_curvature``
        cols["K_intrinsic"] = ambient_tangent_curvature(lam, graph_jet) + cols["K_gauss"]
    return cols


def grim_windows_job(lams, c: float, y_max: float):
    """Dense gamma and gamma' on [-y_max, y_max] for each of ``lams``, as
    callables y -> (gamma, gamma'); used by the large-lambda limits.

    The window must lie in every slab; a slab whose ends overflow (at c = 0
    from lambda = 2.0458e5) is wider than any window.  All halves are asked
    for as one ``Lanes`` of chart 1, at its stop: |gamma'| must stay below
    GRIM_HANDOVER on every window (it is at most 0.74 for y_max = 1, lambda
    in GRIM_LIMIT_LAMS and {1e5, 1e6}, and c in {0} and [1e-3, 1e150]).
    """
    for lam in lams:
        params = GrimReaperParams(lam, c)
        try:
            sl = slab(params.lam, params.c)
        except OverflowError:
            continue
        if not (sl.a_endpoint < -y_max and y_max < sl.b_endpoint):
            raise ValueError("window exceeds the slab of definition")
    pairs = yield from _both_ways(_grim_lanes, [(0.0, -y_max, (0.0, 0.0))] * len(lams),
                                  [(0.0, y_max, (0.0, 0.0))] * len(lams),
                                  _grim_args(np.array(lams, dtype=float),
                                             np.full(len(lams), float(c))))
    return [_joined(down, up) for down, up in pairs]


# ---------------------------------------------------------------------------
# rotationally invariant translators

# distance from the bowl's axis r = 0, where the rotational ODE is singular,
# at which the series start hands over to the integrator
SERIES_DELTA = 1e-4
# samples of a bowl profile, from the series start out to r_max
BOWL_SAMPLES = 1500


def rotational_rhs(lam: float, r, phi_p):
    """phi'' for the rotational graph z = phi(r); singular at r = 0."""
    return _rotational_pp(r, phi_p, *_rotational_args(lam))


def _rotational_args(lam):
    """The arguments of ``_rotational_lanes``: lam, sqrt(lam) and
    1/sqrt(lam)."""
    s = np.sqrt(lam)
    return lam, s, 1.0 / s


def _rotational_pp(r, phi_p, lam, s, inv_s):
    if np.count_nonzero(r <= 0):
        raise ValueError("rotational ODE is singular at r <= 0; use a series start")
    return inv_s + 4.0 * phi_p / (r * (4.0 + lam * r * r)) * (
        s * r * phi_p - 1.0 - lam * phi_p * phi_p
    )


def bowl_series_start(lam: float):
    """Second-order Taylor data (r, (phi, phi')) of the bowl at r =
    SERIES_DELTA: the entire rotational graph is regular at the axis with
    phi'/r -> 1/(2*sqrt(lam))."""
    s = math.sqrt(_lam_value(lam))
    delta = SERIES_DELTA
    return delta, (delta * delta / (4.0 * s), delta / (2.0 * s))


def radial_graph_jet(lam: float, r, phi, phi_p) -> GraphJet:
    """Graph jet of z = phi(sqrt(x^2+y^2)) at (x, y) = (r, 0), per sample."""
    return GraphJet(
        x=r, y=0.0, u=phi,
        u_x=phi_p, u_y=0.0,
        u_xx=rotational_rhs(lam, r, phi_p), u_xy=0.0, u_yy=phi_p / r,
    )


def _rotational_lanes(r, state, lam, s, inv_s):
    return state[1], _rotational_pp(r, state[1], lam, s, inv_s)


def solve_bowl(lam: float, r_max: float, rtol: float = ode.DEFAULT_RTOL,
               atol: float = ode.DEFAULT_ATOL) -> ProfileCurve:
    """The entire rotational graph, regular at the axis via a series start."""
    [(delta, (phi0, psi0))] = _bowl_starts([lam], r_max)
    # kept on ode.integrate: the perfbench tracer counts ode.rhs_calls only
    # there, and its self-test needs that count > 0 on the construct
    # workload, where this single bowl is the only caller
    lam, s, inv_s = _rotational_args(lam)
    traj = ode.integrate(ode.OdeProblem(partial(_rotational_lanes, lam=lam, s=s, inv_s=inv_s),
                                        (phi0, psi0), (delta, r_max), rtol=rtol, atol=atol))
    return _bowl_profile(lam, r_max, BOWL_SAMPLES, traj)


def bowls_job(lams, r_max: float, n_samples: int = BOWL_SAMPLES):
    """The bowl of each of ``lams``, as ``solve_bowl`` builds it; the bowls
    are asked for as one ``Lanes``."""
    starts = _bowl_starts(lams, r_max)
    trajs = yield Lanes(_rotational_lanes, [(delta, r_max, y0) for delta, y0 in starts],
                        _rotational_args(np.array(lams)))
    return [_bowl_profile(lam, r_max, n_samples, traj) for lam, traj in zip(lams, trajs)]


def _bowl_starts(lams, r_max):
    """The series start of the bowl of each of ``lams``, once ``r_max`` is
    checked to be finite and to lie beyond it."""
    starts = [bowl_series_start(lam) for lam in lams]
    _check_finite_r_max(r_max)
    if not r_max > SERIES_DELTA:
        raise ValueError(f"r_max must exceed the series start r = {SERIES_DELTA:g}")
    return starts


def _check_finite_r_max(r_max):
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max:g}")


def _bowl_profile(lam, r_max, n_samples, traj) -> ProfileCurve:
    rs = np.linspace(traj.t[0], r_max, n_samples)
    states = traj(rs)
    cols = {"r": rs, "phi": states[:, 0], "psi": states[:, 1]}
    jet = radial_graph_jet(lam, rs, cols["phi"], cols["psi"])
    cols.update(_shape_columns(lam, graph_shape(lam, jet), jet))
    return ProfileCurve("bowl", {"lam": lam, "r_max": r_max}, cols, [traj],
                        {"termination": traj.termination, "n_steps": traj.n_steps,
                         "nfev": traj.nfev})


def catenoid_neck_rhs(lam: float, f, f_p):
    """f'' of the neck profile (the surface (f(z)cos v2, f(z)sin v2, z))."""
    return _neck_fpp(f, f_p, *_neck_args(lam))


def _neck_args(lam):
    """The arguments of ``_neck_lanes``: lam, sqrt(lam) and lam*sqrt(lam)."""
    s = np.sqrt(lam)
    return lam, s, lam * s


def _neck_fpp(f, f_p, lam, s, ls):
    if np.count_nonzero(f <= 0):
        raise ValueError("neck radius must stay positive")
    lf = lam * f
    fp3 = f_p * f_p * f_p
    return 4.0 / (s * f * (4.0 + lf * f)) * (
        ls + s * f_p * f_p - f * fp3 - lf * f_p - 0.25 * lf * f * f * fp3
    )


def _neck_lanes(z, state, lam, s, ls):
    return state[1], _neck_fpp(state[0], state[1], lam, s, ls)


def necks_job(lams, f0: float, z_max: float, rtol: float = ode.DEFAULT_RTOL,
              atol: float = ode.DEFAULT_ATOL):
    """Neck profile on [-z_max, z_max] for each of ``lams``, as a pair
    ``(f, (down, up))`` of a callable z -> (f, f') and the trajectories of
    the halves below and above the apex; the halves of every neck are asked
    for as one ``Lanes``.  The neck ODE is regular at the apex, so both
    halves start there, from f(0) = f0 and f'(0) = 0."""
    lams = _lam_value(np.asarray(lams, dtype=float))
    if not 0.0 < f0 < math.inf:
        raise ValueError("catenoid apex radius f0 must be positive and finite")
    pairs = yield from _both_ways(_neck_lanes, [(0.0, -z_max, (f0, 0.0))] * len(lams),
                                  [(0.0, z_max, (f0, 0.0))] * len(lams),
                                  _neck_args(lams), rtol, atol)
    return [(_joined(down, up), (down, up)) for down, up in pairs]


def neck_patch_jet(lam: float, z, f, f_p, v2: float = 0.0) -> PatchJet:
    """Patch jet of the revolution surface (f(v1)cos v2, f(v1)sin v2, v1) at
    height z = v1, per sample."""
    f_pp = catenoid_neck_rhs(lam, f, f_p)
    cv, sv = math.cos(v2), math.sin(v2)
    p = Point(f * cv, f * sv, z)
    v1 = (f_p * cv, f_p * sv, 1.0)
    w2 = (-f * sv, f * cv, -0.5 * f * f)
    d1 = (f_pp * cv, f_pp * sv, 0.0, -f_p * sv, f_p * cv, -f * f_p)
    d2 = (-f_p * sv, f_p * cv, 0.0, -f * cv, -f * sv, 0.0)
    return PatchJet(p, v1, w2, d1, d2)


# upper bound on the gluing offset eps of the catenoid neck
GLUING_EPS_CAP = 0.1

# samples of each catenoid arm and of the neck; the odd neck count puts a
# sample exactly at z = 0.  Each junction is sampled twice, at the same
# (r, z): by the arm at profile index n_arm - 1 or n_arm + n_neck, and by the
# neck next to it
CATENOID_ARM_SAMPLES = 700
CATENOID_NECK_SAMPLES = 201


def _gluing_offset(lam, f):
    """Largest eps <= GLUING_EPS_CAP with f'' > 0, so f' increasing, on
    (0, 2*eps], for the neck ``f`` on [-2 GLUING_EPS_CAP, 2 GLUING_EPS_CAP].

    The construction only needs some eps with this property; it is
    validated on a fine grid of the neck solution.
    """
    zs = np.linspace(1e-3, 2.0 * GLUING_EPS_CAP, 400)
    vals = f(zs)
    good = catenoid_neck_rhs(lam, vals[:, 0], vals[:, 1]) > 0
    if not good[0]:
        raise RuntimeError("neck solution is not convex near the apex")
    bad = np.nonzero(~good)[0]
    z_ok = zs[-1] if len(bad) == 0 else zs[bad[0] - 1]
    return min(GLUING_EPS_CAP, 0.5 * z_ok)


def solve_catenoid(lam: float, f0: float, r_max: float = 200.0,
                   rtol: float = ode.DEFAULT_RTOL,
                   atol: float = ode.DEFAULT_ATOL) -> ProfileCurve:
    """Glue the neck solution to two graphical arms into the full curve.

    The neck is integrated on [-eps, eps], eps from ``_gluing_offset``;
    at the junctions the arms solve the rotational graph ODE out to r_max
    with matching conditions phi(c0) = +-eps, phi'(c0) = 1/c1 where
    c0 = f(+-eps), c1 = f'(+-eps).
    """
    return solve_jobs(catenoid_job(lam, f0, r_max, rtol, atol))[0]


def catenoid_job(lam: float, f0: float, r_max: float = 200.0,
                 rtol: float = ode.DEFAULT_RTOL, atol: float = ode.DEFAULT_ATOL):
    """The catenoid that ``solve_catenoid`` returns: the job asks for the
    neck first and for the arms once the neck has fixed their junctions."""
    _check_finite_r_max(r_max)
    [(f, _)] = yield from necks_job([lam], f0, 2.0 * GLUING_EPS_CAP, rtol, atol)
    eps = _gluing_offset(lam, f)
    c0p, c1p = f(eps)
    c0m, c1m = f(-eps)
    if c1p == 0.0 or c1m == 0.0:
        raise RuntimeError("gluing slope vanished at the neck junction")
    if not r_max > max(c0p, c0m):
        raise ValueError(f"r_max must exceed the junction radius "
                         f"{max(c0p, c0m):.6g} of the neck")

    # the lower and upper arm, out from their junctions
    [(arm_m, arm_p)] = yield from _both_ways(
        _rotational_lanes, [(c0m, r_max, (-eps, 1.0 / c1m))],
        [(c0p, r_max, (eps, 1.0 / c1p))], _rotational_args(np.array([lam])), rtol, atol)

    # sample the curve in order: lower arm from large r down, neck bottom to
    # top, upper arm up; the two arms share one graph kernel call
    n_arm, n_neck = CATENOID_ARM_SAMPLES, CATENOID_NECK_SAMPLES
    rs = np.concatenate([np.geomspace(arm_m.t[0], r_max, n_arm)[::-1],
                         np.geomspace(arm_p.t[0], r_max, n_arm)])
    arms = np.vstack([arm_m(rs[:n_arm]), arm_p(rs[n_arm:])])
    arm_jet = radial_graph_jet(lam, rs, arms[:, 0], arms[:, 1])
    arm_cols = _shape_columns(lam, graph_shape(lam, arm_jet))
    zs = np.linspace(-eps, eps, n_neck)
    neck = f(zs)
    neck_jet = neck_patch_jet(lam, zs, neck[:, 0], neck[:, 1])
    neck_cols = _shape_columns(lam, patch_shape(lam, neck_jet))

    def along_curve(arm_col, neck_col):
        return np.concatenate([arm_col[:n_arm], neck_col, arm_col[n_arm:]])

    rr = along_curve(rs, neck[:, 0])
    zz = along_curve(arms[:, 0], zs)
    seg = np.hypot(np.diff(rr), np.diff(zz))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    cols = {"s": s, "r": rr, "z": zz}
    cols.update({k: along_curve(v, neck_cols[k]) for k, v in arm_cols.items()})
    diag = {
        "eps": eps,
        "junctions": {
            "upper": {"r": c0p, "z": eps, "neck_slope": 1.0 / c1p},
            "lower": {"r": c0m, "z": -eps, "neck_slope": 1.0 / c1m},
        },
        "min_radius": float(np.min(rr)),
        **_counters(arm_m, arm_p),
    }
    return ProfileCurve("catenoid", {"lam": lam, "f0": f0, "r_max": r_max},
                        cols, [arm_m, arm_p], diag)


# ---------------------------------------------------------------------------
# helicoidal translators

# largest arc-length span of each arm: the arms are integrated over the whole
# span before sampling and neither end nor blow up, so the step count grows
# with the span
MAX_HELICOID_SPAN = 1e4

# smallest sqrt(lam)*|pitch| that is solved: the curvature ~ 1/(sqrt(lam) c)
# of a flatter helicoid is far beyond what the span resolves (the integration
# only stops at a step underflow, after up to a minute), and from 1e-6 down
# the tangent basis of the swept patch is degenerate anyway
MIN_HELICOID_SCALE = 1e-8

# samples of a helicoid profile, uniform in arc length over both arms
HELICOID_SAMPLES = 4001


@dataclass(frozen=True)
class HelicoidParams:
    lam: float
    pitch: float
    r0: float = 1.0

    def __post_init__(self):
        _lam_value(self.lam)
        if self.pitch == 0 or not math.isfinite(self.pitch):
            raise ValueError("pitch must be nonzero and finite "
                             "(pitch 0 is the rotational case)")
        if not 0.0 <= self.r0 < math.inf:
            raise ValueError("seed distance r0 must be non-negative and finite")


def helicoid_curvature(lam, c, tau, nu):
    """Prescribed curvature of the arc-length generating curve."""
    if np.count_nonzero(c) < np.size(c):
        raise ValueError("pitch must be nonzero")
    return _helicoid_k(tau, nu, *_helicoid_args(lam, c))


def _helicoid_args(lam, c):
    """The arguments of ``_helicoid_lanes``: lam, c, sqrt(lam)*c and 4c."""
    return lam, c, np.sqrt(lam) * c, 4.0 * c


def _helicoid_k(tau, nu, lam, c, sc, c4):
    tt, nn = tau * tau, nu * nu
    r2 = tt + nn
    q = 4.0 * tt + lam * (c4 * (c - tt) + tt * r2)
    num = sc * nu * (lam * (c4 - 2.0 * tt - nn) - 4.0) - tau * q
    den = sc * (4.0 * r2 + lam * (2.0 * c - r2) ** 2)
    return num / den


def _helicoid_frame(g1, g2, th):
    """cos theta, sin theta and the tangential and normal components tau, nu
    of the position (g1, g2) in the frame of the tangent angle theta."""
    ct, st = np.cos(th), np.sin(th)
    return ct, st, g1 * ct + g2 * st, g2 * ct - g1 * st


def helicoid_patch_jet(lam: float, c: float, g1, g2, th, v2: float = 0.0) -> PatchJet:
    """Patch jet of the helicoidal surface (e^{i v2} gamma(v1), c v2) at v2,
    per sample (g1, g2, th) of the generating curve."""
    ct, st, tau, nu = _helicoid_frame(g1, g2, th)
    k = helicoid_curvature(lam, c, tau, nu)
    r2 = tau * tau + nu * nu
    cv, sv = math.cos(v2), math.sin(v2)
    x = g1 * cv - g2 * sv
    y = g1 * sv + g2 * cv
    x1 = ct * cv - st * sv
    y1 = ct * sv + st * cv
    g1pp, g2pp = -k * st, k * ct  # gamma'' = k N
    x11 = g1pp * cv - g2pp * sv
    y11 = g1pp * sv + g2pp * cv
    p = Point(x, y, c * v2)
    v1 = (x1, y1, 0.5 * nu)
    w2 = (-y, x, c - 0.5 * r2)
    d1 = (x11, y11, -0.5 * k * tau, -y1, x1, -tau)
    d2 = (-y1, x1, 0.0, -x, -y, 0.0)
    return PatchJet(p, v1, w2, d1, d2)


def _helicoid_lanes(s, state, lam, c, sc, c4):
    ct, st, tau, nu = _helicoid_frame(*state)
    return ct, st, _helicoid_k(tau, nu, lam, c, sc, c4)


def solve_helicoid(params: HelicoidParams, s_span: float = 50.0,
                   rtol: float = ode.DEFAULT_RTOL,
                   atol: float = ode.DEFAULT_ATOL) -> ProfileCurve:
    """Integrate both arms from the seed (the point closest to the origin).

    Normalization: gamma(0) = (r0, 0) with tangent angle pi/2, so tau(0) = 0
    and the closest point lies on the positive x-axis.
    """
    return solve_jobs(helicoids_job([params], s_span, rtol, atol))[0][0]


def helicoids_job(params, s_span: float = 50.0,
                  rtol: float = ode.DEFAULT_RTOL, atol: float = ode.DEFAULT_ATOL):
    """The helicoid of each of ``params``, as ``solve_helicoid`` builds it;
    both arms of all curves are asked for as one ``Lanes``.

    Before the solve, the patch jets at all seeds go through one
    ``patch_shape`` call, which raises ``RuntimeError`` on a degenerate
    tangent basis there, as the sampled profile would after the solve.
    """
    if not 0 < s_span <= MAX_HELICOID_SPAN:
        raise ValueError(f"s_span must lie in (0, {MAX_HELICOID_SPAN:g}]")
    params = list(params)
    for p in params:
        scale = math.sqrt(p.lam) * abs(p.pitch)
        if scale < MIN_HELICOID_SCALE:
            raise RuntimeError(f"sqrt(lambda)*|pitch| = {scale:g} is below "
                               f"{MIN_HELICOID_SCALE:g}: the curvature is unresolvable")
    seeds = [(p.r0, 0.0, 0.5 * math.pi) for p in params]
    lams, pitches = np.array([p.lam for p in params]), np.array([p.pitch for p in params])
    patch_shape(lams, helicoid_patch_jet(lams, pitches, *np.reshape(seeds, (-1, 3)).T))
    pairs = yield from _both_ways(_helicoid_lanes, [(0.0, -s_span, y0) for y0 in seeds],
                                  [(0.0, s_span, y0) for y0 in seeds],
                                  _helicoid_args(lams, pitches), rtol, atol)
    return [_helicoid_profile(p, s_span, down, up)
            for p, (down, up) in zip(params, pairs)]


def _helicoid_profile(params, s_span, down, up) -> ProfileCurve:
    lam, c, r0 = params.lam, params.pitch, params.r0
    for arm in (down, up):
        if arm.termination != "span_end":
            raise RuntimeError(f"helicoid arm ended at s = {arm.t_end:.6g} before "
                               f"its span end ({arm.termination})")
    ss = np.linspace(-s_span, s_span, HELICOID_SAMPLES)
    g1, g2, th = _joined(down, up)(ss).T
    _, _, tau, nu = _helicoid_frame(g1, g2, th)
    cols = {"s": ss, "gamma1": g1, "gamma2": g2, "theta_t": th, "tau": tau, "nu": nu,
            "r2": tau * tau + nu * nu, "k": helicoid_curvature(lam, c, tau, nu)}
    jet = helicoid_patch_jet(lam, c, g1, g2, th)
    cols.update(_shape_columns(lam, patch_shape(lam, jet)))
    return ProfileCurve(
        "helicoid", {"lam": lam, "pitch": c, "r0": r0, "s_span": s_span},
        cols, [down, up], _counters(down, up))


def helicoid_kprime_numerator(lam, c, tau, nu):
    """Numerator of k' at points where k vanishes; negative for |s| large.
    Every argument may be an array."""
    s = np.sqrt(lam)
    tt = tau * tau
    return (-3.0 * lam * tt * nu * nu
            - 4.0 * lam * s * c * tau * nu
            - 5.0 * lam * tt * tt
            + 12.0 * (lam * c - 1.0) * tt
            - 4.0 * lam * c * c)


# ---------------------------------------------------------------------------
# joint solves


class Lanes(NamedTuple):
    """Initial value problems of one right-hand side that a job asks for:
    ``(t0, t1, y0)`` per lane, one per-lane value sequence per extra
    argument of ``rhs``, and the tolerances of these lanes."""

    rhs: Callable
    problems: list
    args: tuple
    rtol: float = ode.DEFAULT_RTOL
    atol: float = ode.DEFAULT_ATOL


# the right-hand sides in the order in which each pass of ``solve_jobs`` takes
# them (the grim tails start where chart 1 of their halves stops, and the
# catenoid arms, rotational, at the junctions of its neck), with the blow-up
# stop of each.  Only the grim and neck ODEs have poles (the slab ends, a
# neck that turns): the rotational graphs are entire, and on a helicoid arm
# |gamma| <= r0 + s_span while theta moves O(1) a step
_RHS_STOPS = {_grim_lanes: _GRIM_HEAD_STOP, _grim_tail_lanes: _GRIM_TAIL_STOP,
              _neck_lanes: ode.BLOW_UP_THRESHOLD, _helicoid_lanes: math.inf,
              _rotational_lanes: math.inf}


def solve_jobs(*jobs) -> list:
    """Run the jobs to their results; returns one result per job.

    A job is a generator that yields ``Lanes`` and is sent back their
    trajectories, in lane order, until it returns its result.  Every job
    runs up to its first request before anything is integrated, so a job
    that rejects its parameters does so before any solve.  A pass takes the
    right-hand sides in the order of ``_RHS_STOPS`` and integrates the lanes
    that the waiting jobs ask of one right-hand side as one ``ode.solve_ivp``
    call, at the stop of that right-hand side and each lane at its own
    tolerances; a request made during a pass joins the call of its
    right-hand side if that call is still to come.  A lane's result does not
    depend on the call it runs in.
    """
    results = [None] * len(jobs)
    waiting = {}

    def resume(i, trajs=None):
        try:
            lanes = jobs[i].send(trajs)
        except StopIteration as done:
            results[i] = done.value
            return
        if lanes.rhs not in _RHS_STOPS:
            raise ValueError(f"no joint solve for the right-hand side {lanes.rhs!r}")
        waiting[i] = lanes

    for i in range(len(jobs)):
        resume(i)
    while waiting:
        for rhs, stop in _RHS_STOPS.items():
            batch = [i for i, lanes in waiting.items() if lanes.rhs is rhs]
            if not batch:
                continue
            requests = [waiting.pop(i) for i in batch]
            problems = [p for lanes in requests for p in lanes.problems]
            counts = [len(lanes.problems) for lanes in requests]
            trajs = ode.solve_ivp(
                rhs, ([t0 for t0, _, _ in problems], [t1 for _, t1, _ in problems]),
                [y0 for _, _, y0 in problems],
                args=tuple(np.concatenate(a) for a in zip(*(lanes.args for lanes in requests))),
                rtol=np.repeat([lanes.rtol for lanes in requests], counts),
                atol=np.repeat([lanes.atol for lanes in requests], counts),
                stop=stop).trajectories
            ends = np.cumsum(counts)
            for i, end, n in zip(batch, ends, counts):
                resume(i, trajs[end - n:end])
    return results


# ---------------------------------------------------------------------------
# planar Euclidean grim reaper (vertical-cylinder translator)


# samples of the planar grim reaper, and the distance of its end samples from
# the asymptotes x = +-width/2, in units of 1/speed
PLANAR_GRIM_SAMPLES = 2001
PLANAR_GRIM_MARGIN = 0.01


def planar_grim_reaper(direction) -> ProfileCurve:
    """The Euclidean grim reaper translating along ``direction``.

    The base curve y = -log(cos x) (unit speed along (0, 1)) is scaled by the
    speed |direction| and rotated so it translates along the given direction;
    its vertical cylinder in Nil3 translates accordingly, independent of lam.
    """
    a1, a2 = float(direction[0]), float(direction[1])
    speed = math.hypot(a1, a2)
    if not 0.0 < speed < math.inf:
        raise ValueError("direction must be finite and nonzero")
    width = math.pi / speed
    margin = PLANAR_GRIM_MARGIN / speed
    # a subnormal speed overflows the width, and below ~5.6e-311 the smaller
    # margin too, to inf: Python floats do not raise
    if not math.isfinite(width):
        raise RuntimeError(f"direction speed {speed:g} is too small: "
                           f"the width pi/speed overflows")
    xs = np.linspace(-0.5 * width + margin, 0.5 * width - margin,
                     PLANAR_GRIM_SAMPLES)
    h = -np.log(np.cos(speed * xs)) / speed
    k = speed * np.cos(speed * xs)  # curvature h''/(1+h'^2)^{3/2} in closed form
    nu2 = np.cos(speed * xs)  # second component of the unit normal (-h',1)/w
    residual = k - speed * nu2
    # rotate so that (0, 1) maps to direction/|direction|; the apex has
    # h = -log(1) = -0.0, and adding 0.0 writes a zero coordinate as 0,
    # not -0
    u1, u2 = a1 / speed, a2 / speed
    px = u2 * xs + u1 * h + 0.0
    py = u2 * h - u1 * xs + 0.0
    cols = {
        "x": xs, "y": np.asarray(h),
        "px": px, "py": py,
        "curvature": np.asarray(k),
        "residual": np.asarray(residual),
    }
    return ProfileCurve("planar-grim", {"a1": a1, "a2": a2, "speed": speed},
                        cols, [], {"width": width})


# ---------------------------------------------------------------------------
# swept surfaces


# profile points (before the subsampling merges any) and rings of a swept mesh
SWEEP_PROFILE_POINTS = 100
SWEEP_RINGS = 60

# family -> (the Killing field whose flow sweeps the profile, the data columns
# giving the Nil3 coordinates x, y, z of the profile points, None for 0, and
# the params key of the slope c added along F3, None for 0)
_F1, _F3, _F4 = KillingField(a1=1.0), KillingField(a3=1.0), KillingField(a4=1.0)
_SWEEPS = {
    "grim": (_F1, (None, "y", "gamma"), "c"),
    "bowl": (_F4, ("r", None, "phi"), None),
    "catenoid": (_F4, ("r", None, "z"), None),
    "helicoid": (_F4, ("gamma1", "gamma2", None), "pitch"),
    "planar-grim": (_F3, ("px", "py", None), None),
}


def _adaptive_indices(pts, data, n: int):
    """Profile subsampling uniform in arc length + curvature weight, the
    weight read from the ``K_gauss`` or else the ``curvature`` column of the
    profile's ``data``."""
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    weight = seg.copy()
    key = next((k for k in ("K_gauss", "curvature") if k in data), None)
    if key is not None:
        curv = np.abs(data[key])
        cmax = np.max(curv) or 1.0
        weight *= 1.0 + 4.0 * 0.5 * (curv[:-1] + curv[1:]) / cmax
    cum = np.concatenate([[0.0], np.cumsum(weight)])
    targets = np.linspace(0.0, cum[-1], n)
    idx = np.unique(np.searchsorted(cum, targets))
    idx[-1] = len(pts) - 1
    return np.unique(idx)


def sweep_surface(profile: ProfileCurve, sweep_range: tuple | None = None) -> Mesh:
    """Sweep a profile curve by the flow of its family's Killing field into a
    quad mesh of SWEEP_PROFILE_POINTS profile points (fewer where the
    subsampling merges some) by SWEEP_RINGS rings.

    Vertex ``j * n_profile + i`` is profile point ``i`` moved by the flow for
    time ``us[j]``; faces run over rings, then the profile.
    """
    gen, columns, slope = _SWEEPS[profile.family]
    if slope:
        gen = replace(gen, a3=gen.a3 + profile.params[slope])
    d = profile.data
    pts = np.column_stack([d[k] if k else np.zeros_like(profile.t) for k in columns])
    idx = _adaptive_indices(pts, d, SWEEP_PROFILE_POINTS)
    pts = pts[idx]
    n_profile, n_sweep = len(pts), SWEEP_RINGS

    closed = gen == _F4
    if closed:
        us = np.linspace(0.0, 2.0 * math.pi, n_sweep, endpoint=False)
    else:
        lo, hi = sweep_range if sweep_range is not None else (-5.0, 5.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("sweep range must be finite")
        if not lo < hi:
            # lo == hi stacks identical rings; lo > hi reverses the faces
            raise ValueError(f"sweep range ({lo:g}, {hi:g}) must have lo < hi")
        us = np.linspace(lo, hi, n_sweep)

    verts = np.empty((n_sweep, n_profile, 3))
    q = killing_flow(gen, us[:, None], Point(*pts.T))
    verts[..., 0], verts[..., 1], verts[..., 2] = q.coords()

    n_rings = n_sweep if closed else n_sweep - 1
    ring = np.arange(n_rings)[:, None] * n_profile
    next_ring = (np.arange(1, n_rings + 1)[:, None] % n_sweep) * n_profile
    i = np.arange(1, n_profile)
    faces = np.stack([ring + i, ring + i + 1, next_ring + i + 1, next_ring + i],
                     axis=-1).reshape(-1, 4)
    scalars = {"H": np.tile(d["H"][idx], n_sweep)} if "H" in d else {}
    return Mesh(vertices=verts.reshape(-1, 3), faces=faces, scalars=scalars,
                closed=closed, shape=(n_profile, n_sweep))
