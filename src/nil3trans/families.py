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

Every constructed ``ProfileCurve`` carries per-sample mean curvature,
translator residual and curvatures recomputed through the surface kernel,
so the ODE solutions are cross-checked against the geometry.  The jet
builders accept arrays of samples, so each profile is shaped by one kernel
call per piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import ode
from .core import group_mul, Point, vertical_translation_field
from .surface import (
    GraphJet,
    PatchJet,
    gaussian_curvature,
    graph_shape,
    intrinsic_curvature,
    patch_shape,
    translator_residual,
)


# ---------------------------------------------------------------------------
# shared containers


@dataclass
class ProfileCurve:
    """A sampled generating curve with per-sample derived quantities."""

    family: str
    params: dict
    t: np.ndarray
    data: dict
    trajectories: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def residual_sup(self) -> float:
        return float(np.max(np.abs(self.data["residual"])))


@dataclass
class Mesh:
    """Quad mesh swept from a profile curve by a one-parameter group."""

    vertices: np.ndarray  # (n, 3)
    faces: np.ndarray  # (m, 4) 1-based quad vertex indices
    scalars: dict  # per-vertex arrays, e.g. H / residual / K_gauss
    closed: bool
    shape: tuple  # (n_profile, n_sweep)


# ---------------------------------------------------------------------------
# tilted grim reapers


@dataclass(frozen=True)
class GrimReaperParams:
    lam: float
    c: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if self.c < 0:
            raise ValueError("slope c must be non-negative (apply y -> -y for c < 0)")


@dataclass(frozen=True)
class SlabData:
    a_endpoint: float
    b_endpoint: float
    width: float


def slab(lam: float, c: float) -> SlabData:
    """Endpoints and width of the maximal slab of the tilted grim reaper."""
    s = math.sqrt(lam)
    t = math.asinh(s * c)
    a = math.sinh(t - 0.5 * math.pi * s) / s - c
    b = math.sinh(t + 0.5 * math.pi * s) / s - c
    width = 2.0 / s * math.sqrt(1.0 + lam * c * c) * math.sinh(0.5 * math.pi * s)
    return SlabData(a, b, width)


def grim_reaper_rhs(lam, c, y, gamma, gamma_p):
    """Right-hand side of the generating-curve ODE (state (gamma, gamma'));
    every argument may be an array."""
    s = np.sqrt(lam)
    a = y + c
    la = lam * a
    gamma_pp = 1.0 / s + (s * gamma_p + la) * gamma_p / (1.0 + la * a)
    return gamma_p, gamma_pp


def grim_reaper_closed_form(lam: float, c: float, y: float) -> float:
    """Closed-form gamma'(y), defined on the open slab only."""
    sl = slab(lam, c)
    if not sl.a_endpoint < y < sl.b_endpoint:
        raise ValueError(f"y={y} outside the open slab ({sl.a_endpoint}, {sl.b_endpoint})")
    s = math.sqrt(lam)
    a = y + c
    theta = (math.asinh(s * a) - math.asinh(s * c)) / s
    return math.sqrt(a * a + 1.0 / lam) * math.tan(theta)


def grim_reaper_jet(lam: float, c: float, y, gamma, gamma_p) -> GraphJet:
    """Graph jet of z = xy/2 + cx + gamma(y) at (x, y) = (0, y); y, gamma and
    gamma' may be arrays of samples."""
    _, gamma_pp = grim_reaper_rhs(lam, c, y, gamma, gamma_p)
    return GraphJet(
        x=0.0, y=y, u=gamma,
        u_x=0.5 * y + c, u_y=gamma_p,
        u_xx=0.0, u_xy=0.5, u_yy=gamma_pp,
    )


def _grim_lanes(y, state, lam, c):
    return grim_reaper_rhs(lam, c, y, state[0], state[1])


def solve_grim_reaper(params: GrimReaperParams,
                      rtol: float = ode.DEFAULT_RTOL,
                      atol: float = ode.DEFAULT_ATOL,
                      derived: bool = True) -> ProfileCurve:
    """Integrate the generating curve in both directions until blow-up.

    With ``derived=False`` only gamma and gamma' are tabulated (no per-sample
    shape data), which keeps tight-tolerance runs fast.
    """
    return solve_grim_reapers([params], rtol=rtol, atol=atol, derived=derived)[0]


def solve_grim_reapers(params, rtol: float = ode.DEFAULT_RTOL,
                       atol: float = ode.DEFAULT_ATOL,
                       derived: bool = True) -> list:
    """``solve_grim_reaper`` for each of ``params``; both directions of all
    curves are integrated as the lanes of one ``ode.solve_ivp`` call."""
    params = list(params)
    slabs = [slab(p.lam, p.c) for p in params]
    lam = np.repeat([p.lam for p in params], 2)
    c = np.repeat([p.c for p in params], 2)
    t1 = [t for sl in slabs for t in (sl.b_endpoint + 0.2 * sl.width,
                                      sl.a_endpoint - 0.2 * sl.width)]
    trajs = ode.solve_ivp(_grim_lanes, (np.zeros(len(t1)), t1), np.zeros((len(t1), 2)),
                          args=(lam, c), rtol=rtol, atol=atol).trajectories
    return [_grim_profile(p, sl, trajs[2 * i], trajs[2 * i + 1], derived)
            for i, (p, sl) in enumerate(zip(params, slabs))]


def _grim_profile(params, sl, up, down, derived) -> ProfileCurve:
    lam, c = params.lam, params.c
    ys = np.concatenate([down.t[:0:-1], up.t])
    states = np.vstack([down.y[:0:-1], up.y])
    cols = {"gamma": states[:, 0].copy(), "gamma_prime": states[:, 1].copy()}
    if derived:
        jet = grim_reaper_jet(lam, c, ys, cols["gamma"], cols["gamma_prime"])
        cols.update(_shape_columns(lam, graph_shape(lam, jet), jet))
    diag = {
        "slab": sl,
        "a_numeric": float(down.t_end),
        "b_numeric": float(up.t_end),
        **_counters(down, up),
    }
    return ProfileCurve("grim", {"lam": lam, "c": c}, ys, cols, [up, down], diag)


def _counters(*trajs) -> dict:
    """Termination reason, accepted steps and rhs evaluations of the step
    loop per trajectory (``Trajectory.nfev``: the same figure whether or not
    the dense output has been built)."""
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
        cols["K_intrinsic"] = intrinsic_curvature(lam, graph_jet, shape)
    return cols


def grim_reaper_on_window(lam: float, c: float, y_max: float):
    """Dense gamma and gamma' on [-y_max, y_max] (window must sit in the slab).

    Returns a callable y -> (gamma, gamma'); used by the large-lambda limits.
    """
    return grim_reapers_on_window([lam], c, y_max)[0]


def grim_reapers_on_window(lams, c: float, y_max: float) -> list:
    """``grim_reaper_on_window`` for each of ``lams``; both halves of every
    window are integrated as the lanes of one ``ode.solve_ivp`` call."""
    for lam in lams:
        sl = slab(lam, c)
        if not (sl.a_endpoint < -y_max and y_max < sl.b_endpoint):
            raise ValueError("window exceeds the slab of definition")
    n = 2 * len(lams)
    trajs = ode.solve_ivp(_grim_lanes, (np.zeros(n), np.tile([y_max, -y_max], len(lams))),
                          np.zeros((n, 2)), args=(np.repeat(lams, 2), np.full(n, c))).trajectories
    return [_window_gamma(trajs[2 * i], trajs[2 * i + 1]) for i in range(len(lams))]


def _window_gamma(up, down):
    def gamma(y):
        scalar = np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.empty((len(y), 2))
        pos = y >= 0
        if np.any(pos):
            out[pos] = up(y[pos])
        if np.any(~pos):
            out[~pos] = down(y[~pos])
        return out[0] if scalar else out

    return gamma


# ---------------------------------------------------------------------------
# rotationally invariant translators


def rotational_rhs(lam: float, r, phi_p):
    """phi'' for the rotational graph z = phi(r); singular at r = 0."""
    if np.count_nonzero(r <= 0):
        raise ValueError("rotational ODE is singular at r <= 0; use a series start")
    s = np.sqrt(lam)
    return 1.0 / s + 4.0 * phi_p / (r * (4.0 + lam * r * r)) * (
        s * r * phi_p - 1.0 - lam * phi_p * phi_p
    )


def radial_graph_jet(lam: float, r, phi, phi_p) -> GraphJet:
    """Graph jet of z = phi(sqrt(x^2+y^2)) at (x, y) = (r, 0), per sample."""
    return GraphJet(
        x=r, y=0.0, u=phi,
        u_x=phi_p, u_y=0.0,
        u_xx=rotational_rhs(lam, r, phi_p), u_xy=0.0, u_yy=phi_p / r,
    )


def _rotational_lanes(r, state, lam):
    return state[1], rotational_rhs(lam, r, state[1])


def solve_bowl(lam: float, r_max: float, n_samples: int = 1500,
               rtol: float = ode.DEFAULT_RTOL,
               atol: float = ode.DEFAULT_ATOL) -> ProfileCurve:
    """The entire rotational graph, regular at the axis via a series start."""
    delta, (phi0, psi0) = ode.series_start("bowl-origin", lam)
    if not r_max > delta:
        raise ValueError(f"r_max must exceed the series start r = {delta:g}")
    # kept on ode.integrate: the perfbench tracer counts ode.rhs_calls only
    # there, and its self-test needs that count > 0 on the construct
    # workload, where this single bowl is the only caller
    traj = ode.integrate(ode.OdeProblem(partial(_rotational_lanes, lam=lam), (phi0, psi0),
                                        (delta, r_max), rtol=rtol, atol=atol))
    return _bowl_profile(lam, r_max, n_samples, traj)


def solve_bowls(lams, r_max: float, n_samples: int = 1500) -> list:
    """``solve_bowl`` for each of ``lams``; the bowls are integrated as the
    lanes of one ``ode.solve_ivp`` call."""
    starts = [ode.series_start("bowl-origin", lam) for lam in lams]
    deltas = [delta for delta, _ in starts]
    if not all(r_max > delta for delta in deltas):
        raise ValueError(f"r_max must exceed the series start r = {max(deltas):g}")
    trajs = ode.solve_ivp(_rotational_lanes, (deltas, [r_max] * len(deltas)),
                          [y0 for _, y0 in starts], args=(np.array(lams),)).trajectories
    return [_bowl_profile(lam, r_max, n_samples, traj) for lam, traj in zip(lams, trajs)]


def _bowl_profile(lam, r_max, n_samples, traj) -> ProfileCurve:
    rs = np.linspace(traj.t[0], r_max, n_samples)
    states = traj(rs)
    cols = {"phi": states[:, 0], "psi": states[:, 1]}
    jet = radial_graph_jet(lam, rs, cols["phi"], cols["psi"])
    cols.update(_shape_columns(lam, graph_shape(lam, jet), jet))
    return ProfileCurve("bowl", {"lam": lam, "r_max": r_max}, rs, cols, [traj],
                        {"termination": traj.termination, "n_steps": traj.n_steps,
                         "nfev": traj.nfev})


def catenoid_neck_rhs(lam: float, f, f_p):
    """f'' of the neck profile (the surface (f(z)cos v2, f(z)sin v2, z))."""
    if np.count_nonzero(f <= 0):
        raise ValueError("neck radius must stay positive")
    s = np.sqrt(lam)
    lf = lam * f
    fp3 = f_p * f_p * f_p
    return 4.0 / (s * f * (4.0 + lf * f)) * (
        lam * s + s * f_p * f_p - f * fp3 - lf * f_p - 0.25 * lf * f * f * fp3
    )


def catenoid_neck(lam: float, f0: float, z_max: float,
                  rtol: float = ode.DEFAULT_RTOL,
                  atol: float = ode.DEFAULT_ATOL):
    """Neck profile f on [-z_max, z_max]; returns callable z -> (f, f')."""
    return catenoid_necks([lam], f0, z_max, rtol=rtol, atol=atol)[0]


def _neck_lanes(z, state, lam):
    return state[1], catenoid_neck_rhs(lam, state[0], state[1])


def catenoid_necks(lams, f0: float, z_max: float,
                   rtol: float = ode.DEFAULT_RTOL,
                   atol: float = ode.DEFAULT_ATOL) -> list:
    """``catenoid_neck`` for each of ``lams``, as (f, (up, down)) pairs; the
    halves above and below every apex are integrated as the lanes of one
    ``ode.solve_ivp`` call."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    starts = [ode.series_start("catenoid-apex", lam, f0=f0) for lam in lams]
    deltas = [delta for delta, _ in starts]
    y0 = [y for _, (f, fp) in starts for y in ((f, fp), (f, -fp))]
    trajs = ode.solve_ivp(_neck_lanes, ([t for delta in deltas for t in (delta, -delta)],
                                        np.tile([z_max, -z_max], len(deltas))),
                          y0, args=(np.repeat(lams, 2),), rtol=rtol, atol=atol).trajectories
    return [(_neck_f(lam, f0, delta, trajs[2 * i], trajs[2 * i + 1]),
             (trajs[2 * i], trajs[2 * i + 1]))
            for i, (lam, delta) in enumerate(zip(lams, deltas))]


def _neck_f(lam, f0, delta, up, down):
    s = math.sqrt(lam)
    fpp0 = 4.0 * lam / (f0 * (4.0 + lam * f0 * f0))
    fppp0 = -4.0 * lam / (s * (4.0 + lam * f0 * f0)) * fpp0

    def f(z):
        scalar = np.ndim(z) == 0
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.empty((len(z), 2))
        pos = z >= delta
        neg = z <= -delta
        mid = ~pos & ~neg
        if np.any(pos):
            out[pos] = up(z[pos])
        if np.any(neg):
            out[neg] = down(z[neg])
        if np.any(mid):
            # third-order Taylor at the apex; |z| < 1e-4 keeps the error ~1e-14
            zm = z[mid]
            out[mid, 0] = f0 + 0.5 * fpp0 * zm**2 + fppp0 * zm**3 / 6.0
            out[mid, 1] = fpp0 * zm + 0.5 * fppp0 * zm**2
        return out[0] if scalar else out

    return f


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


def choose_gluing_offset(lam: float, f0: float,
                         rtol: float = ode.DEFAULT_RTOL,
                         atol: float = ode.DEFAULT_ATOL):
    """Largest eps <= GLUING_EPS_CAP with f'' > 0 and f' strictly monotone on
    (0, 2*eps].

    The construction only needs some eps with these properties; they are
    validated on a fine grid of the neck solution, integrated at the given
    tolerances.
    """
    f, _ = catenoid_neck(lam, f0, 2.0 * GLUING_EPS_CAP, rtol=rtol, atol=atol)
    zs = np.linspace(1e-3, 2.0 * GLUING_EPS_CAP, 400)
    vals = f(zs)
    fpp = catenoid_neck_rhs(lam, vals[:, 0], vals[:, 1])
    good = (fpp > 0) & (np.diff(vals[:, 1], prepend=vals[0, 1] - 1e-16) > 0)
    if not good[0]:
        raise RuntimeError("neck solution is not convex near the apex")
    bad = np.nonzero(~good)[0]
    z_ok = zs[-1] if len(bad) == 0 else zs[bad[0] - 1]
    return min(GLUING_EPS_CAP, 0.5 * z_ok), f


def solve_catenoid(lam: float, f0: float, r_max: float = 200.0,
                   rtol: float = ode.DEFAULT_RTOL,
                   atol: float = ode.DEFAULT_ATOL) -> ProfileCurve:
    """Glue the neck solution to two graphical arms into the full curve.

    The neck is integrated on [-eps, eps], eps from ``choose_gluing_offset``;
    at the junctions the arms solve the rotational graph ODE out to r_max
    with matching conditions phi(c0) = +-eps, phi'(c0) = 1/c1 where
    c0 = f(+-eps), c1 = f'(+-eps).
    """
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    eps, f = choose_gluing_offset(lam, f0, rtol=rtol, atol=atol)
    c0p, c1p = f(eps)
    c0m, c1m = f(-eps)
    if c1p == 0.0 or c1m == 0.0:
        raise RuntimeError("gluing slope vanished at the neck junction")
    if not r_max > max(c0p, c0m):
        raise ValueError(f"r_max must exceed the junction radius "
                         f"{max(c0p, c0m):.6g} of the neck")

    # both arms as the two lanes of one call
    arm_p, arm_m = ode.solve_ivp(_rotational_lanes, ([c0p, c0m], [r_max, r_max]),
                                 [(eps, 1.0 / c1p), (-eps, 1.0 / c1m)],
                                 args=(np.full(2, lam),), rtol=rtol, atol=atol).trajectories

    # sample the curve in order: lower arm from large r down, neck bottom to
    # top, upper arm up; the two arms share one graph kernel call
    n_arm, n_neck = 700, 201  # odd neck count puts a sample exactly at z = 0
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
    cols = {"r": rr, "z": zz}
    cols.update({k: along_curve(v, neck_cols[k]) for k, v in arm_cols.items()})
    diag = {
        "eps": eps,
        "junctions": {
            "upper": {"r": c0p, "z": eps, "neck_slope": 1.0 / c1p, "arm_slope": float(arm_p.y[0][1])},
            "lower": {"r": c0m, "z": -eps, "neck_slope": 1.0 / c1m, "arm_slope": float(arm_m.y[0][1])},
        },
        "min_radius": float(np.min(rr)),
        **_counters(arm_m, arm_p),
    }
    return ProfileCurve("catenoid", {"lam": lam, "f0": f0, "r_max": r_max},
                        s, cols, [arm_m, arm_p], diag)


# ---------------------------------------------------------------------------
# helicoidal translators

# largest arc-length span of each arm: the arms are integrated over the whole
# span before sampling and neither end nor blow up, so the step count grows
# with the span
MAX_HELICOID_SPAN = 1e4


@dataclass(frozen=True)
class HelicoidParams:
    lam: float
    pitch: float
    r0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if self.pitch == 0:
            raise ValueError("pitch must be nonzero (pitch 0 is the rotational case)")
        if self.r0 < 0:
            raise ValueError("seed distance r0 must be non-negative")


def helicoid_curvature(lam, c, tau, nu):
    """Prescribed curvature of the arc-length generating curve."""
    if np.count_nonzero(c) < np.size(c):
        raise ValueError("pitch must be nonzero")
    sc, c4 = np.sqrt(lam) * c, 4.0 * c
    tt, nn = tau * tau, nu * nu
    r2 = tt + nn
    q = 4.0 * tt + lam * (c4 * (c - tt) + tt * r2)
    num = sc * nu * (lam * (c4 - 2.0 * tt - nn) - 4.0) - tau * q
    den = sc * (4.0 * r2 + lam * (2.0 * c - r2) ** 2)
    return num / den


def helicoid_rhs(lam, c, state):
    """State derivative for (gamma1, gamma2, theta) with theta the tangent angle."""
    g1, g2, th = state
    ct, st = np.cos(th), np.sin(th)
    tau = g1 * ct + g2 * st
    nu = g2 * ct - g1 * st
    return ct, st, helicoid_curvature(lam, c, tau, nu)


def helicoid_patch_jet(lam: float, c: float, g1, g2, th, v2: float = 0.0) -> PatchJet:
    """Patch jet of the helicoidal surface (e^{i v2} gamma(v1), c v2) at v2,
    per sample (g1, g2, th) of the generating curve."""
    ct, st = np.cos(th), np.sin(th)
    tau = g1 * ct + g2 * st
    nu = -g1 * st + g2 * ct
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


def _helicoid_lanes(s, state, lam, c):
    return helicoid_rhs(lam, c, state)


def solve_helicoid(params: HelicoidParams, s_span: float = 50.0,
                   n_samples: int = 4001,
                   rtol: float = ode.DEFAULT_RTOL,
                   atol: float = ode.DEFAULT_ATOL) -> ProfileCurve:
    """Integrate both arms from the seed (the point closest to the origin).

    Normalization: gamma(0) = (r0, 0) with tangent angle pi/2, so tau(0) = 0
    and the closest point lies on the positive x-axis.
    """
    return solve_helicoids([params], s_span, n_samples, rtol=rtol, atol=atol)[0]


def solve_helicoids(params, s_span: float = 50.0, n_samples: int = 4001,
                    rtol: float = ode.DEFAULT_RTOL,
                    atol: float = ode.DEFAULT_ATOL) -> list:
    """``solve_helicoid`` for each of ``params``; both arms of all curves are
    integrated as the lanes of one ``ode.solve_ivp`` call."""
    if not 0 < s_span <= MAX_HELICOID_SPAN:
        raise ValueError(f"s_span must lie in (0, {MAX_HELICOID_SPAN:g}]")
    params = list(params)
    lam = np.repeat([p.lam for p in params], 2)
    c = np.repeat([p.pitch for p in params], 2)
    y0 = [(p.r0, 0.0, 0.5 * math.pi) for p in params for _ in range(2)]
    t1 = np.tile([s_span, -s_span], len(params))
    trajs = ode.solve_ivp(_helicoid_lanes, (np.zeros(len(t1)), t1), y0, args=(lam, c),
                          rtol=rtol, atol=atol).trajectories
    return [_helicoid_profile(p, s_span, n_samples, trajs[2 * i], trajs[2 * i + 1])
            for i, p in enumerate(params)]


def _helicoid_profile(params, s_span, n_samples, fwd, bwd) -> ProfileCurve:
    lam, c, r0 = params.lam, params.pitch, params.r0
    ss = np.linspace(-s_span, s_span, n_samples)
    states = np.empty((n_samples, 3))
    pos = ss >= 0
    states[pos] = fwd(ss[pos])
    states[~pos] = bwd(ss[~pos])

    g1, g2, th = states.T
    ct, st = np.cos(th), np.sin(th)
    tau = g1 * ct + g2 * st
    nu = -g1 * st + g2 * ct
    cols = {"gamma1": g1, "gamma2": g2, "theta_t": th, "tau": tau, "nu": nu,
            "r2": tau * tau + nu * nu, "k": helicoid_curvature(lam, c, tau, nu)}
    jet = helicoid_patch_jet(lam, c, g1, g2, th)
    cols.update(_shape_columns(lam, patch_shape(lam, jet)))
    winding = np.unwrap(np.arctan2(cols["gamma2"], cols["gamma1"]))
    diag = {"winding": winding, **_counters(bwd, fwd)}
    return ProfileCurve(
        "helicoid", {"lam": lam, "pitch": c, "r0": r0, "s_span": s_span},
        ss, cols, [bwd, fwd], diag)


def helicoid_kprime_numerator(lam: float, c: float, tau: float, nu: float) -> float:
    """Numerator of k' at points where k vanishes; negative for |s| large."""
    s = math.sqrt(lam)
    return (-3.0 * lam * tau * tau * nu * nu
            - 4.0 * lam * s * c * tau * nu
            - 5.0 * lam * tau**4
            + 12.0 * (lam * c - 1.0) * tau * tau
            - 4.0 * lam * c * c)


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
    xs = np.linspace(-0.5 * width + margin, 0.5 * width - margin,
                     PLANAR_GRIM_SAMPLES)
    h = -np.log(np.cos(speed * xs)) / speed
    hp = np.tan(speed * xs)
    k = speed * np.cos(speed * xs)  # curvature h''/(1+h'^2)^{3/2} in closed form
    nu2 = np.cos(speed * xs)  # second component of the unit normal (-h',1)/w
    residual = k - speed * nu2
    # rotate so that (0, 1) maps to direction/|direction|
    u1, u2 = a1 / speed, a2 / speed
    px = u2 * xs - u1 * h
    py = u1 * xs + u2 * h
    cols = {
        "x": xs, "y": np.asarray(h),
        "px": px, "py": py,
        "curvature": np.asarray(k),
        "residual": np.asarray(residual),
    }
    return ProfileCurve("planar-grim", {"a1": a1, "a2": a2, "speed": speed},
                        xs, cols, [], {"width": width})


# ---------------------------------------------------------------------------
# swept surfaces


def _profile_points(profile: ProfileCurve):
    """Generating-curve points in Nil3 coordinates, plus per-sample scalars."""
    fam = profile.family
    d = profile.data
    if fam == "grim":
        pts = np.column_stack([np.zeros_like(profile.t), profile.t, d["gamma"]])
    elif fam == "bowl":
        pts = np.column_stack([profile.t, np.zeros_like(profile.t), d["phi"]])
    elif fam == "catenoid":
        pts = np.column_stack([d["r"], np.zeros_like(profile.t), d["z"]])
    elif fam == "helicoid":
        pts = np.column_stack([d["gamma1"], d["gamma2"], np.zeros_like(profile.t)])
    elif fam == "planar-grim":
        pts = np.column_stack([d["px"], d["py"], np.zeros_like(profile.t)])
    else:
        raise ValueError(f"unknown profile family {fam!r}")
    scalars = {}
    for key in ("H", "residual", "K_gauss", "K_intrinsic", "curvature"):
        if key in d:
            scalars[key] = d[key]
    return pts, scalars


_FAMILY_GROUP = {
    "grim": "translation",
    "bowl": "rotation",
    "catenoid": "rotation",
    "helicoid": "helicoidal",
    "planar-grim": "vertical",
}


def _adaptive_indices(profile: ProfileCurve, n: int):
    """Profile subsampling uniform in arc length + curvature weight."""
    pts, scalars = _profile_points(profile)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    weight = seg.copy()
    curv = None
    for key in ("K_gauss", "curvature"):
        if key in scalars:
            curv = np.abs(scalars[key])
            break
    if curv is not None:
        cmax = np.max(curv) or 1.0
        weight *= 1.0 + 4.0 * 0.5 * (curv[:-1] + curv[1:]) / cmax
    cum = np.concatenate([[0.0], np.cumsum(weight)])
    targets = np.linspace(0.0, cum[-1], n)
    idx = np.unique(np.searchsorted(cum, targets))
    idx[-1] = len(pts) - 1
    return np.unique(idx)


def sweep_surface(profile: ProfileCurve, n_profile: int = 100, n_sweep: int = 60,
                  sweep_range: tuple | None = None) -> Mesh:
    """Sweep a profile curve by its family's one-parameter group into a quad mesh.

    Vertex ``j * n_profile + i`` is profile point ``i`` moved by the group
    element of parameter ``us[j]``; faces run over rings, then the profile.
    """
    group = _FAMILY_GROUP[profile.family]
    pts, scalars = _profile_points(profile)
    idx = _adaptive_indices(profile, n_profile)
    pts = pts[idx]
    scalars = {k: v[idx] for k, v in scalars.items()}
    n_profile = len(pts)

    closed = group == "rotation"
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

    c = profile.params.get("c", profile.params.get("pitch", 0.0))
    u = us[:, None]
    x, y, z = pts.T
    verts = np.empty((n_sweep, n_profile, 3))
    if group == "translation":
        q = group_mul(Point(u, 0.0, c * u), Point(x, y, z))
        verts[..., 0], verts[..., 1], verts[..., 2] = q.coords()
    elif group == "vertical":
        verts[..., 0], verts[..., 1], verts[..., 2] = x, y, z + u
    else:  # rotation about the z-axis, lifted by c*u for the helicoidal group
        cu, su = np.cos(u), np.sin(u)
        verts[..., 0] = cu * x - su * y
        verts[..., 1] = su * x + cu * y
        verts[..., 2] = z + c * u if group == "helicoidal" else z

    n_rings = n_sweep if closed else n_sweep - 1
    ring = np.arange(n_rings)[:, None] * n_profile
    next_ring = (np.arange(1, n_rings + 1)[:, None] % n_sweep) * n_profile
    i = np.arange(1, n_profile)
    faces = np.stack([ring + i, ring + i + 1, next_ring + i + 1, next_ring + i],
                     axis=-1).reshape(-1, 4)
    tiled = {k: np.tile(v, n_sweep) for k, v in scalars.items()}
    return Mesh(vertices=verts.reshape(-1, 3), faces=faces, scalars=tiled,
                closed=closed, shape=(n_profile, n_sweep))
