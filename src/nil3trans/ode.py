"""Adaptive Runge-Kutta integration with events, blow-up detection and
series starts at singular points.

The integrator is the Dormand-Prince 8(5,3) pair (scipy's ``DOP853``) with
dense output, the higher-order choice for the tight tolerances the grim
reaper closed-form comparison runs at (Hairer, Norsett & Wanner, *Solving
ODEs I*, sec. II.10).  Its global error per unit of ``rtol`` is several
times that of the 5(4) pair, so the step controller runs at
``rtol / RTOL_SAFETY``, but never below scipy's floor of 100 eps.  On top
of it this module adds: typed problems with finite data, trajectories,
event root polishing by bisection on the dense output, sup-norm blow-up
termination, and second-order Taylor starts for the two rotationally
invariant families whose ODEs are singular at the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
BLOW_UP_THRESHOLD = 1e10
# At rtol 1e-13 the grim reaper sup error over lam in [0.5, 4], c in [0, 2]
# reaches 1.3e-8 under DOP853 against 3e-9 under the 5(4) pair; a quarter of
# the caller's rtol brings it back to about 3e-9 for 20% more steps.
RTOL_SAFETY = 4.0
# scipy raises any rtol below 100 eps to this floor with a warning
RTOL_FLOOR = 100.0 * np.finfo(float).eps


@dataclass
class OdeProblem:
    """First-order system y' = rhs(t, y) on [t0, t1] with initial state y0."""

    rhs: Callable
    y0: Sequence[float]
    t_span: tuple
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        if not (np.all(np.isfinite(self.t_span)) and np.all(np.isfinite(self.y0))
                and math.isfinite(self.rtol) and math.isfinite(self.atol)):
            raise ValueError("integration span, initial state and tolerances must be finite")
        t0, t1 = self.t_span
        if t0 == t1:
            raise ValueError("degenerate integration span")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")

    @property
    def dimension(self) -> int:
        return len(self.y0)


@dataclass(frozen=True)
class Event:
    """Scalar event function with direction filter and record/terminate action."""

    id: str
    fn: Callable
    direction: str = "any"  # rising | falling | any
    terminal: bool = False

    def __post_init__(self):
        if self.direction not in ("rising", "falling", "any"):
            raise ValueError(f"bad event direction {self.direction!r}")


@dataclass
class Trajectory:
    """Integration result: step samples, dense output and termination reason."""

    t: np.ndarray
    y: np.ndarray  # shape (n_samples, dimension)
    termination: str  # span_end | event:<id> | blow_up | step_underflow
    events: dict = field(default_factory=dict)  # id -> list of (t, y)
    sol: Callable | None = None

    def __call__(self, t):
        """Dense-output evaluation; accepts scalars or arrays."""
        if self.sol is None:
            raise ValueError("trajectory has no dense output")
        out = self.sol(t)
        return out.T if np.ndim(t) else out

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def y_end(self) -> np.ndarray:
        return self.y[-1]


def integrate(problem: OdeProblem, events: Sequence[Event] = (),
              blow_up_threshold: float = BLOW_UP_THRESHOLD) -> Trajectory:
    """Integrate ``problem``, locating ``events`` and stopping on blow-up.

    Event roots are polished by bisection on the dense output to ~1e-12 in t.
    Termination is ``blow_up`` once the sup-norm of the state exceeds the
    threshold, ``step_underflow`` if the step controller gives up.
    """
    t0, t1 = problem.t_span
    y0 = np.asarray(problem.y0, dtype=float)
    f0 = np.asarray(problem.rhs(t0, y0), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise ValueError("right-hand side is not finite at the initial state")

    scipy_events = []
    for ev in events:
        scipy_events.append(_wrap_event(ev.fn, ev))
    blow_ev = _wrap_event(
        lambda t, y: blow_up_threshold - np.max(np.abs(y)),
        Event("__blow_up__", None, "falling", True),
    )
    scipy_events.append(blow_ev)

    res = solve_ivp(
        problem.rhs, (t0, t1), y0, method="DOP853",
        rtol=max(problem.rtol / RTOL_SAFETY, RTOL_FLOOR), atol=problem.atol,
        dense_output=True, events=scipy_events,
    )

    recorded: dict = {ev.id: [] for ev in events}
    for k, ev in enumerate(events):
        for t_ev in res.t_events[k]:
            t_ref = _refine_event(res.sol, ev, t_ev, res.t)
            recorded[ev.id].append((t_ref, res.sol(t_ref).copy()))

    termination = "span_end"
    t_stop = None
    if res.status == 1:  # a terminal event fired
        if len(res.t_events[-1]) > 0:
            termination = "blow_up"
            t_stop = res.t_events[-1][-1]
        else:
            for k, ev in enumerate(events):
                if ev.terminal and len(res.t_events[k]) > 0:
                    termination = f"event:{ev.id}"
                    t_stop = recorded[ev.id][-1][0]
    elif res.status == -1:
        termination = "step_underflow"

    t = np.asarray(res.t)
    y = np.asarray(res.y).T
    if t_stop is not None:
        keep = (t < t_stop) if t1 > t0 else (t > t_stop)
        t = np.append(t[keep], t_stop)
        y = np.vstack([y[keep], res.sol(t_stop)])
    return Trajectory(t=t, y=y, termination=termination,
                      events=recorded, sol=res.sol)


def _wrap_event(fn, ev: Event):
    g = lambda t, y: fn(t, y)
    g.terminal = ev.terminal
    g.direction = {"rising": 1.0, "falling": -1.0, "any": 0.0}[ev.direction]
    return g


def _refine_event(sol, ev: Event, t_ev: float, t_grid) -> float:
    """Polish an event root by bisection on the dense output."""
    steps = np.diff(t_grid)
    h = np.max(np.abs(steps)) if len(steps) else 1.0
    lo, hi = t_ev - 0.5 * h, t_ev + 0.5 * h
    glo = ev.fn(lo, sol(lo))
    ghi = ev.fn(hi, sol(hi))
    if glo * ghi > 0:
        return t_ev  # already at the root to solver precision
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = ev.fn(mid, sol(mid))
        if gm == 0.0 or hi - lo < 1e-13 * max(1.0, abs(mid)):
            return mid
        if glo * gm <= 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def series_start(kind: str, lam: float, f0: float | None = None,
                 delta: float = 1e-4):
    """Second-order Taylor data stepping off a singular initial point.

    ``bowl-origin``: the entire rotational graph is regular at the axis with
    phi'/r -> 1/(2*sqrt(lam)); returns (delta, (phi, phi')).
    ``catenoid-apex``: the neck profile f satisfies f(0) = f0 > 0, f'(0) = 0
    with f''(0) = 4*lam/(f0*(4 + lam*f0^2)); returns (delta, (f, f')).
    """
    if not 0.0 < delta <= 1e-3:
        raise ValueError("delta must lie in (0, 1e-3]")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if kind == "bowl-origin":
        s = math.sqrt(lam)
        return delta, (delta * delta / (4.0 * s), delta / (2.0 * s))
    if kind == "catenoid-apex":
        if f0 is None or f0 <= 0:
            raise ValueError("catenoid apex radius f0 must be positive")
        fpp0 = 4.0 * lam / (f0 * (4.0 + lam * f0 * f0))
        return delta, (f0 + 0.5 * fpp0 * delta * delta, fpp0 * delta)
    raise ValueError(f"unknown series start kind {kind!r}")
