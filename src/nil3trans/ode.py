"""Adaptive Runge-Kutta integration with blow-up detection and series
starts at singular points.

The integrator is the Dormand-Prince 8(5,3) pair (scipy's ``DOP853``) with
dense output, the higher-order choice for the tight tolerances the grim
reaper closed-form comparison runs at (Hairer, Norsett & Wanner, *Solving
ODEs I*, sec. II.10).  Its global error per unit of ``rtol`` is several
times that of the 5(4) pair, so the step controller runs at
``rtol / RTOL_SAFETY``, but never below scipy's floor of 100 eps.  On top
of it this module adds: typed problems with finite data, trajectories whose
dense output refuses to extrapolate, the sup-norm blow-up stop (the one
stopping rule the constructions need), and second-order Taylor starts for
the two rotationally invariant families whose ODEs are singular at the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        if not 0.0 < self.rtol < 1.0:
            raise ValueError(f"rtol must lie in (0, 1), got {self.rtol:g}")
        if self.atol <= 0:
            raise ValueError("atol must be positive")


@dataclass
class Trajectory:
    """Integration result: step samples, dense output and termination reason."""

    t: np.ndarray
    y: np.ndarray  # shape (n_samples, dimension)
    termination: str  # span_end | blow_up | step_underflow
    sol: Callable | None = None

    def __call__(self, t):
        """Dense-output evaluation on [t[0], t[-1]]; accepts scalars or arrays."""
        if self.sol is None:
            raise ValueError("trajectory has no dense output")
        lo, hi = sorted((self.t[0], self.t[-1]))
        ts = np.asarray(t)
        if not (np.all(ts >= lo) and np.all(ts <= hi)):
            raise ValueError(f"dense output requested outside the integrated "
                             f"range [{lo:.6g}, {hi:.6g}] ({self.termination})")
        out = self.sol(t)
        return out.T if np.ndim(t) else out

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def y_end(self) -> np.ndarray:
        return self.y[-1]


def integrate(problem: OdeProblem,
              blow_up_threshold: float = BLOW_UP_THRESHOLD) -> Trajectory:
    """Integrate ``problem``, stopping on blow-up.

    Termination is ``blow_up`` once the sup-norm of the state exceeds the
    threshold (the stop is located on the dense output by scipy's event
    root finder), ``step_underflow`` if the step controller gives up.
    """
    t0, t1 = problem.t_span
    y0 = np.asarray(problem.y0, dtype=float)
    f0 = np.asarray(problem.rhs(t0, y0), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise ValueError("right-hand side is not finite at the initial state")

    def blow_up(t, y):
        return blow_up_threshold - np.max(np.abs(y))

    blow_up.terminal = True
    blow_up.direction = -1.0

    res = solve_ivp(
        problem.rhs, (t0, t1), y0, method="DOP853",
        rtol=max(problem.rtol / RTOL_SAFETY, RTOL_FLOOR), atol=problem.atol,
        dense_output=True, events=blow_up,
    )

    termination = {0: "span_end", 1: "blow_up", -1: "step_underflow"}[res.status]
    t = np.asarray(res.t)
    y = np.asarray(res.y).T
    if res.status == 1:
        t_stop = res.t_events[0][-1]
        keep = (t < t_stop) if t1 > t0 else (t > t_stop)
        t = np.append(t[keep], t_stop)
        y = np.vstack([y[keep], res.y_events[0][-1]])
    return Trajectory(t=t, y=y, termination=termination, sol=res.sol)


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
