"""Adaptive Runge-Kutta integration of independent lanes with a blow-up stop.

The integrator is our own loop over the Dormand-Prince 8(5,3) pair with its
7th-order dense output (Hairer, Norsett & Wanner, *Solving ODEs I*, sec.
II.5, II.6 and II.10, and Hairer's ``dop853.f``), the higher-order choice for
the tight tolerances (rtol 1e-13) of the closed-form comparisons.
``solve_ivp`` steps L independent initial value problems of one right-hand
side ("lanes") together as arrays; each lane keeps its own step size, error
norm, rejection state and stop, so a lane's result does not depend on the
batch it runs in.  ``integrate`` is the one-lane call, with no stop.  The
step controller is the one of HNW sec. II.4.  The global error of DOP853
per unit of ``rtol`` is several times that of the 5(4) pair, so the
controller runs at ``rtol / RTOL_SAFETY``, but never below ``RTOL_FLOOR``.
Once the loop ends, one pass builds the interpolants of all accepted steps
of a call; they make every trajectory's dense output and locate its
blow-up stop.  On top of the loop this module adds: a check that each
call's data are finite, trajectories whose dense output refuses to
extrapolate, the blow-up stop (the one stopping rule the constructions
need) at the thresholds of each call, ``BLOW_UP_THRESHOLD`` on every
component unless the caller passes others, and a cap on the step attempts
of a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# the sup-norm of the state at which a lane stops, unless its call passes a
# stop of its own
BLOW_UP_THRESHOLD = 1e10
# the most step attempts of one call, counted on its slowest lane: a verify
# run's five calls make at most 129 (the grim tails; then 114 helicoid, 97
# rotational, 83 grim chart 1 with the grim windows, and 22 neck), and 5000
# attempts are a few seconds of work, so a run that would take minutes (a
# small-lambda rotational arm out to a large radius) fails instead
MAX_ATTEMPTS = 5000
# At rtol 1e-13 the sup error of verify's closed-form comparison (lam in
# [0.5, 4], c in [0, 2]) reaches 1.3e-8 under DOP853 against 3e-9 under the
# 5(4) pair; a quarter of the caller's rtol brings it back to about 3e-9 for
# 20% more steps.
RTOL_SAFETY = 4.0
# the smallest relative tolerance the error estimate can resolve
RTOL_FLOOR = 100.0 * np.finfo(float).eps
TINY = np.finfo(float).tiny

# step controller (HNW sec. II.4): safety factor, step-factor limits and
# the exponent -1/(q+1) of the 7th-order error estimate
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0

# ---------------------------------------------------------------------------
# DOP853 tableau (HNW sec. II.10; Hairer's dop853.f).  Stages 0-11 make the
# step, stage 12 is f at the new point, stages 13-15 serve the interpolant.

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

# row 12 holds the weights B of the 8th-order solution
A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]

# error weights: E5 of the 5th-order and E3 (= B - bhh) of the 3rd-order
# embedded estimate, both over stages 0-12
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# the last four of the seven interpolant coefficients; the first three come
# from the step's end values
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# The loop keeps every combination of stages in one accumulator: the
# arguments of the later stages (rows of A, row 12 being the weights B of
# the solution), the two error estimates and the four interpolant rows.
# Each stage's term is added to all of them as soon as the stage is known,
# so every element is summed term by term in stage order, whatever the lane
# count.  (A BLAS product a @ K may regroup the terms with the array shape,
# and a lane's result would then depend on its batch.)  As in HNW, a sum is
# multiplied by h only once complete: folding h into the weights instead
# raised the worst criterion-1 error over 400 random (lam, c) from 0.28 to
# 0.37 of its bound.
_ROW_E = N_STAGES_EXTENDED
_ROW_D = _ROW_E + 2
# per stage j, the weights of its term in every row: shape (16, 22, 1, 1)
_W = np.vstack([A, np.pad(E5, (0, 3)), np.pad(E3, (0, 3)), D]).T[:, :, None, None].copy()
_C_COL = C[:, None]


@dataclass
class OdeProblem:
    """First-order system y' = rhs(t, y) on [t0, t1] with initial state y0.

    ``rhs`` is called with ``t`` of shape (1,) and ``y`` of shape (n, 1) and
    returns the n components of y'.
    """

    rhs: Callable
    y0: Sequence[float]
    t_span: tuple
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL


def _check_data(t0, t1, y0, rtol, atol):
    """Reject non-finite data, a zero-length span and tolerances out of
    range; the tolerances may be scalars or per-lane arrays."""
    if not all(np.all(np.isfinite(v)) for v in (t0, t1, y0, rtol, atol)):
        raise ValueError("integration span, initial state and tolerances must be finite")
    if np.any(np.asarray(t0) == np.asarray(t1)):
        raise ValueError("degenerate integration span")
    rtol = np.asarray(rtol)
    bad = rtol[~((rtol > 0.0) & (rtol < 1.0))]
    if bad.size:
        raise ValueError(f"rtol must lie in (0, 1), got {bad.flat[0]:g}")
    if np.any(np.asarray(atol) <= 0):
        raise ValueError("atol must be positive")


@dataclass
class Trajectory:
    """One lane's result: accepted step samples, termination reason, solver
    counters and the dense output of every step."""

    t: np.ndarray
    y: np.ndarray  # shape (n_samples, dimension)
    termination: str  # span_end | blow_up | step_underflow
    n_steps: int = 0
    # right-hand-side evaluations of the step loop, and 3 more after a
    # blow-up stop, which needs its step's interpolant; building the other
    # steps' interpolants costs 3 more a step, which are not counted
    nfev: int = 0
    # per step: the step h (the last step is longer than its sample interval
    # after a blow-up stop) and the interpolant coefficients, shape
    # (INTERPOLATOR_POWER, n_steps, dimension); None without dense output
    dense: tuple | None = field(default=None, repr=False)

    def __call__(self, t):
        """Dense-output evaluation on [t[0], t[-1]]; accepts scalars or arrays.

        A request it cannot serve raises ``ValueError``, or ``RuntimeError``
        after a step underflow: the integrator failed there, and the
        solution may well exist beyond.
        """
        error = RuntimeError if self.termination == "step_underflow" else ValueError
        if self.dense is None:
            raise error(f"trajectory has no dense output ({self.termination})")
        lo, hi = sorted((self.t[0], self.t[-1]))
        ts = np.asarray(t, dtype=float)
        if not (np.all(ts >= lo) and np.all(ts <= hi)):
            raise error(f"dense output requested outside the integrated "
                        f"range [{lo:.6g}, {hi:.6g}] ({self.termination})")
        h, coef = self.dense
        tt = ts.reshape(-1)
        # a sample time belongs to the step that ends there; times the sign
        # of the steps (an exact product), the sample times ascend
        d = np.sign(h[0])
        seg = np.clip(np.searchsorted(d * self.t, d * tt, side="left") - 1, 0, len(h) - 1)
        x = (tt - self.t[seg]) / h[seg]
        out = _interpolate(coef[:, seg], self.y[seg], x[:, None])
        return out if ts.ndim else out[0]

    @property
    def t_end(self) -> float:
        return float(self.t[-1])


@dataclass
class Solution:
    """Result of ``solve_ivp``: one trajectory per lane, the accepted times
    of all lanes concatenated, and the right-hand-side evaluations of all
    lanes."""

    trajectories: list
    t: np.ndarray
    nfev: int


def _eval(rhs, t, y, args):
    """rhs at (t, y) as an array shaped like y."""
    f = np.asarray(rhs(t, y, *args), dtype=float)
    return f if f.shape == y.shape else np.broadcast_to(f, y.shape)


def _step(rhs, args, t, y, f, h):
    """One DOP853 step h of every lane from (t, y) with y' = f there: the new
    state, y' at it, and the stage sums so far."""
    tc = t + _C_COL * h
    acc = _W[0] * f
    for s in range(1, N_STAGES):
        acc += _W[s] * rhs(tc[s], y + acc[s] * h, *args)
    y_new = y + h * acc[N_STAGES]
    f_new = _eval(rhs, tc[N_STAGES], y_new, args)
    acc += _W[N_STAGES] * f_new
    return y_new, f_new, acc


def _interpolant(rhs, args, t, h, y, f, y_new, f_new, acc):
    """Coefficients (7, n, lanes) of each lane's step interpolant (HNW sec.
    II.6): three more stages, then the step's end values.  ``acc`` holds the
    stage sums of rows 13 on, after stage 12, and is summed on in place; the
    lanes are the steps of all trajectories."""
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        acc += _W[s, N_STAGES + 1:] * rhs(t + C[s] * h, y + acc[s - N_STAGES - 1] * h, *args)
    dy = y_new - y
    coef = np.empty((INTERPOLATOR_POWER,) + y.shape)
    coef[0] = dy
    coef[1] = h * f - dy
    coef[2] = 2 * dy - h * (f_new + f)
    coef[3:] = h * acc[_ROW_D - N_STAGES - 1:]
    return coef


def _interpolate(coef, y_old, x):
    """The step interpolant at step fractions x; ``coef`` has the 7
    coefficients on its first axis, the rest broadcasts."""
    xm = 1.0 - x
    y = coef[6] * x
    for k in (5, 4, 3, 2, 1, 0):
        y = (y + coef[k]) * (xm if k % 2 else x)
    return y + y_old


def _locate_stop(coef, t_old, t_new, h, y_old, threshold):
    """Time and state where some |y_i| reaches its ``threshold`` (a column,
    one per component) on each lane's step interpolant.

    Bisection shrinks each bracket to adjacent floats; of its two ends the
    one nearer the threshold is the stop.  Near a pole a few ulp of t move
    max|y| by 1e-6 relative, so 4 eps in t would not be enough.
    """
    def gap(t):
        y = _interpolate(coef, y_old, (t - t_old) / h)
        return (threshold - np.abs(y)).min(0), y

    lo, hi = t_old, t_new
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (mid != lo) & (mid != hi)
        if not open_.any():
            break
        below = gap(mid)[0] > 0
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
    (g_lo, y_lo), (g_hi, y_hi) = gap(lo), gap(hi)
    take_lo = np.abs(g_lo) < np.abs(g_hi)
    return np.where(take_lo, lo, hi), np.where(take_lo, y_lo, y_hi)


def _rms(x):
    return np.sqrt(np.add.reduce(x * x, 0) / len(x))


def _initial_step(rhs, args, t0, y0, f0, t_bound, direction, rtol, atol):
    """Per-lane first step (HNW sec. II.4) for an error estimate of order 7."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
    interval = np.abs(t_bound - t0)
    h0 = np.minimum(h0, interval)
    f1 = _eval(rhs, t0 + h0 * direction, y0 + h0 * direction * f0, args)
    d2 = _rms((f1 - f0) / scale) / h0
    dmax = np.maximum(d1, d2)
    flat = dmax <= 1e-15
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(flat, 1.0, dmax)) ** (-ERROR_EXPONENT))
    return np.minimum(np.minimum(100 * h0, h1), interval)


def solve_ivp(rhs, t_span, y0, args=(), rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
              stop=BLOW_UP_THRESHOLD) -> Solution:
    """Integrate L independent lanes y' = rhs(t, y, *args) with DOP853.

    ``y0`` has shape (L, n), ``t_span`` is a pair of length-L arrays (start
    and end of each lane) and ``args`` are length-L parameter arrays;
    ``rtol`` and ``atol`` are scalars or length-L arrays.  The right-hand
    side is called with ``t`` of shape (L_active,) and ``y`` of shape
    (n, L_active) and returns the n components of y'; lanes that finish
    drop out, and their ``args`` and tolerances with them.

    A lane ends at its span end (``span_end``), once some component |y_i|
    of its state reaches its threshold in ``stop`` (``blow_up``; the
    crossing is located on the step interpolant and replaces the last step
    sample), or when its step falls under 10 ulp of t (``step_underflow``).
    ``stop`` holds one threshold per component, or one for all: the
    sup-norm of the state.  The interpolants of all accepted steps are
    built in one pass after the loop.  ``RuntimeError`` is raised when a
    lane is still running after ``MAX_ATTEMPTS`` step attempts.
    """
    t = np.array(t_span[0], dtype=float).reshape(-1)
    t_bound = np.array(t_span[1], dtype=float).reshape(-1)
    if len(t) == 0:
        raise ValueError("no lanes to integrate")
    y = np.array(y0, dtype=float).reshape(len(t), -1).T.copy()
    n, n_lanes = y.shape
    rtol, atol = (np.broadcast_to(np.asarray(tol, dtype=float), (n_lanes,))
                  for tol in (rtol, atol))
    _check_data(t, t_bound, y, rtol, atol)
    args = tuple(np.asarray(a) for a in args)
    rtol = np.maximum(rtol / RTOL_SAFETY, RTOL_FLOOR)

    f = _eval(rhs, t, y, args)
    if not np.all(np.isfinite(f)):
        raise ValueError("right-hand side is not finite at the initial state")
    start = (t, y, args)
    direction = np.sign(t_bound - t)
    toward = direction * np.inf
    h_abs = _initial_step(rhs, args, t, y, f, t_bound, direction, rtol, atol)
    lanes = np.arange(n_lanes)
    attempts = np.zeros(n_lanes, dtype=int)  # step attempts, set when a lane ends
    rejected = np.zeros(n_lanes, dtype=bool)
    # the stop fires when the least margin stop_i - |y_i| of a lane reaches 0
    # from above
    stop = np.broadcast_to(np.asarray(stop, dtype=float), (n,))[:, None]
    ay = np.abs(y)
    armed = (stop - ay).min(0) >= 0
    status = ["span_end"] * n_lanes
    # per iteration, of the accepted steps: lanes, t, y, f, t_new, y_new, h,
    # f_new and the stage sums the interpolant goes on from
    steps = []
    iteration = 0

    def drop(keep, n_attempts):
        nonlocal t, y, ay, f, h_abs, rejected, armed, lanes, direction, toward, t_bound, \
            rtol, atol, args
        attempts[lanes[~keep]] = n_attempts
        t, y, ay, f, h_abs, rejected, armed, lanes, direction, toward, t_bound, rtol, atol = (
            t[keep], y[:, keep], ay[:, keep], f[:, keep], h_abs[keep], rejected[keep],
            armed[keep], lanes[keep], direction[keep], toward[keep], t_bound[keep],
            rtol[keep], atol[keep])
        args = tuple(a[keep] for a in args)

    while len(lanes):
        min_step = 10 * np.abs(np.nextafter(t, toward) - t)
        if np.count_nonzero(rejected):
            under = rejected & (h_abs < min_step)
            if np.count_nonzero(under):
                for lane in lanes[under]:
                    status[lane] = "step_underflow"
                drop(~under, iteration)
                if not len(lanes):
                    break
                min_step = min_step[~under]
        iteration += 1
        if iteration > MAX_ATTEMPTS:
            raise RuntimeError(f"{len(lanes)} of {n_lanes} lanes did not finish "
                               f"within {MAX_ATTEMPTS} step attempts")
        t_new = t + np.maximum(h_abs, min_step) * direction
        at_end = direction * (t_new - t_bound) >= 0
        t_new = np.where(at_end, t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        y_new, f_new, acc = _step(rhs, args, t, y, f, h)

        # error norm of the 5th- and 3rd-order estimates; TINY stands in for
        # 0 where the norm or its power would divide by 0
        ay_new = np.abs(y_new)
        scale = atol + np.maximum(ay, ay_new) * rtol
        err = acc[_ROW_E:_ROW_D] / scale
        e5, e3 = np.add.reduce(err * err, 1)
        error_norm = h_abs * e5 / np.sqrt(np.maximum(e5 + 0.01 * e3, TINY) * n)
        ok = error_norm < 1
        # accepted: grow by at most MAX_FACTOR (1 right after a rejection);
        # rejected (a NaN norm included): shrink by at most MIN_FACTOR
        factor = SAFETY * np.maximum(error_norm, TINY) ** ERROR_EXPONENT
        grow = np.minimum(np.where(rejected, 1.0, MAX_FACTOR), factor)
        h_abs = h_abs * np.where(ok, grow, np.fmax(MIN_FACTOR, factor))
        rejected = ~ok
        n_ok = np.count_nonzero(ok)
        if not n_ok:
            continue

        all_ok = n_ok == len(lanes)
        sel = slice(None) if all_ok else ok
        # the stage sums the interpolant goes on from, rows 13 on, as their
        # own array: a view would keep all rows of the step alive
        rows = acc[N_STAGES + 1:]
        steps.append((lanes[sel], t[sel], y[:, sel], f[:, sel], t_new[sel], y_new[:, sel],
                      h[sel], f_new[:, sel], rows.copy() if all_ok else rows[:, :, ok]))

        margin = (stop - ay_new).min(0)
        crossed = armed & (margin <= 0)
        done = crossed | at_end
        if not all_ok:
            crossed &= ok
            done &= ok
        n_done = np.count_nonzero(done)

        if all_ok:
            t, y, ay, f, armed = t_new, y_new, ay_new, f_new, margin >= 0
        else:
            t = np.where(ok, t_new, t)
            y = np.where(ok, y_new, y)
            ay = np.where(ok, ay_new, ay)
            f = np.where(ok, f_new, f)
            armed = np.where(ok, margin >= 0, armed)
        if n_done:
            for lane in lanes[crossed]:
                status[lane] = "blow_up"
            drop(~done, iteration)

    return _assemble(rhs, start, steps, status, attempts, stop)


def _assemble(rhs, start, steps, status, attempts, threshold) -> Solution:
    """Build the interpolants of the accepted steps of all iterations in one
    pass, put each blow-up stop in place of its lane's last step sample, and
    sort the steps into one trajectory per lane.

    ``steps`` is emptied once its columns are joined, and each lane then
    takes copies of its steps, so a call holds at most two copies of its
    steps, and the memory of a lane is freed with its trajectory, whatever
    the other lanes of its call.
    """
    t_start, y_start, args = start
    n_lanes = len(t_start)
    bounds = np.zeros(n_lanes + 1, dtype=int)
    stop = np.array([s == "blow_up" for s in status])
    if steps:
        lane_of = np.concatenate([s[0] for s in steps])
        t, y, f, t_new, y_new, h, f_new, acc = [np.concatenate([s[k] for s in steps], axis=-1)
                                                for k in range(1, len(steps[0]))]
        steps.clear()
        coef = _interpolant(rhs, tuple(a[lane_of] for a in args), t, h, y, f, y_new, f_new, acc)
        # the steps of each lane in time order, the lanes in turn
        order = np.argsort(lane_of, kind="stable")
        bounds[1:] = np.cumsum(np.bincount(lane_of, minlength=n_lanes))
        last = order[bounds[1:][stop] - 1]
        t_new[last], y_new[:, last] = _locate_stop(coef[..., last], t[last], t_new[last],
                                                   h[last], y[:, last], threshold)
        coef = coef.transpose(0, 2, 1)
    trajs = []
    for lane in range(n_lanes):
        lo, hi = bounds[lane], bounds[lane + 1]
        t, y, dense = t_start[lane:lane + 1], y_start[:, lane:lane + 1], None
        if hi > lo:
            own = order[lo:hi]
            t = np.concatenate([t, t_new[own]])
            y = np.hstack([y, y_new[:, own]])
            dense = (h[own], coef[:, own])
        # 2 evaluations choose the first step, 12 make each attempt, and 3
        # more build the stop step's interpolant
        nfev = 2 + N_STAGES * attempts[lane] + 3 * stop[lane]
        trajs.append(Trajectory(t=t, y=y.T.copy(), termination=status[lane],
                                n_steps=int(hi - lo), nfev=int(nfev), dense=dense))
    return Solution(trajs, np.concatenate([tr.t for tr in trajs]),
                    sum(tr.nfev for tr in trajs))


def integrate(problem: OdeProblem) -> Trajectory:
    """Integrate ``problem`` as a single lane, with dense output and no
    blow-up stop (see ``solve_ivp``)."""
    t0, t1 = problem.t_span
    return solve_ivp(problem.rhs, ([t0], [t1]), [problem.y0], rtol=problem.rtol,
                     atol=problem.atol, stop=np.inf).trajectories[0]

