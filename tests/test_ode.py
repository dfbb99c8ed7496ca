import math
import warnings

import numpy as np
import pytest

from nil3trans.asymptotics import radial_linear_closed_form
from nil3trans.families import (
    GrimReaperParams,
    grim_reaper_rhs,
    slab,
)
from nil3trans.ode import (
    BLOW_UP_THRESHOLD,
    OdeProblem,
    Trajectory,
    integrate,
    series_start,
)


class TestProblemValidation:
    def test_degenerate_span(self):
        with pytest.raises(ValueError):
            OdeProblem(lambda t, y: y, (1.0,), (0.0, 0.0))

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), rtol=0.0)
        for rtol in (1.0, 2.0):
            with pytest.raises(ValueError, match="rtol"):
                OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), rtol=rtol)
        with pytest.raises(ValueError):
            OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), atol=0.0)

    def test_nonfinite_initial_rhs(self):
        prob = OdeProblem(lambda t, y: [math.inf], (1.0,), (0.0, 1.0))
        with pytest.raises(ValueError):
            integrate(prob)

    @pytest.mark.parametrize("field, value", [
        ("t_span", (0.0, math.nan)), ("t_span", (-math.inf, 1.0)),
        ("y0", (math.nan,)), ("rtol", math.nan), ("atol", math.inf),
    ])
    def test_nonfinite_data_rejected(self, field, value):
        kwargs = {"y0": (1.0,), "t_span": (0.0, 1.0), field: value}
        with pytest.raises(ValueError, match="finite"):
            OdeProblem(lambda t, y: y, **kwargs)

    def test_rtol_below_scipy_floor_is_clamped(self):
        # rtol / RTOL_SAFETY falls under scipy's 100 eps floor here; the
        # clamp keeps scipy from warning and the solve accurate
        prob = OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), rtol=5e-14, atol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(prob)
        assert traj.y_end[0] == pytest.approx(math.e, rel=1e-12)


class TestAccuracy:
    def test_exponential(self):
        prob = OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0))
        traj = integrate(prob)
        assert traj.termination == "span_end"
        assert abs(traj.y_end[0] - math.e) < 1e-9

    def test_radial_linear_long_range(self):
        # y' = -(b/x)(y - a) + c/x^2 with (a, b, c) = (2, 3, 1), y(1) = 5,
        # against the closed form, out to x = 10
        a, b, c = 2.0, 3.0, 1.0

        def rhs(x, y):
            return [-(b / x) * (y[0] - a) + c / x**2]

        traj = integrate(OdeProblem(rhs, (5.0,), (1.0, 10.0)))
        exact = float(radial_linear_closed_form(a, b, c, 1.0, 5.0, 10.0))
        assert abs(traj.y_end[0] - exact) < 1e-8

    def test_tolerance_tightening_improves(self):
        errs = []
        for rtol in (1e-6, 1e-7):
            prob = OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0),
                              rtol=rtol, atol=rtol * 1e-2)
            errs.append(abs(integrate(prob).y_end[0] - math.e))
        assert errs[1] <= errs[0] / 2.0

    def test_dense_output_between_steps(self):
        prob = OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), rtol=1e-8,
                          atol=1e-10)
        traj = integrate(prob)
        mids = 0.5 * (traj.t[:-1] + traj.t[1:])
        err = np.max(np.abs(traj(mids)[:, 0] - np.exp(mids)))
        assert err < 10 * 1e-8 * math.e

    @pytest.mark.parametrize("t1", [1.0, -1.0])
    def test_dense_output_refuses_extrapolation(self, t1):
        traj = integrate(OdeProblem(lambda t, y: y, (1.0,), (0.0, t1)))
        assert traj(t1)[0] == pytest.approx(math.exp(t1), rel=1e-9)
        assert traj(np.array([0.0, 0.5 * t1])).shape == (2, 1)
        for t in (1.5 * t1, -0.5 * t1, np.array([0.0, 2.0 * t1]), math.nan):
            with pytest.raises(ValueError, match="outside the integrated range"):
                traj(t)

    def test_trajectory_without_dense_output(self):
        traj = Trajectory(np.array([0.0]), np.zeros((1, 1)), "span_end")
        with pytest.raises(ValueError):
            traj(0.0)


class TestBlowUp:
    def grim_problem(self, lam=1.0, c=0.0):
        sl = slab(lam, c)

        def rhs(y, state):
            return grim_reaper_rhs(lam, c, y, state[0], state[1])

        return OdeProblem(rhs, (0.0, 0.0), (0.0, sl.b_endpoint + 1.0)), sl

    def test_blow_up_termination(self):
        prob, sl = self.grim_problem()
        traj = integrate(prob)
        assert traj.termination == "blow_up"
        assert traj.t_end < sl.b_endpoint

    @pytest.mark.parametrize("forward", [True, False])
    def test_stop_sample(self, forward):
        # the stop replaces the last step sample: t stays strictly monotone
        # with no duplicated final sample, and the stop state is the dense
        # output at the stop
        lam, c = 1.0, 0.5
        sl = slab(lam, c)
        t1 = sl.b_endpoint + 1.0 if forward else sl.a_endpoint - 1.0

        def rhs(y, state):
            return grim_reaper_rhs(lam, c, y, state[0], state[1])

        traj = integrate(OdeProblem(rhs, (0.0, 0.0), (0.0, t1)))
        assert traj.termination == "blow_up"
        steps = np.diff(traj.t) if forward else -np.diff(traj.t)
        assert np.all(steps > 0)
        assert np.array_equal(traj.y[-1], traj(traj.t_end))
        assert np.max(np.abs(traj.y[-1])) == pytest.approx(BLOW_UP_THRESHOLD, rel=1e-6)

    def test_threshold_monotone_approach(self):
        prob, sl = self.grim_problem()
        ends = [integrate(prob, blow_up_threshold=th).t_end
                for th in (1e4, 1e5, 1e6, 1e7, 1e8)]
        assert all(b > a for a, b in zip(ends, ends[1:]))
        assert all(e < sl.b_endpoint for e in ends)
        assert sl.b_endpoint - ends[-1] < 1e-3


class TestSeriesStart:
    def test_bowl_origin_slope(self):
        delta, (phi, psi) = series_start("bowl-origin", 1.0)
        assert psi / delta == pytest.approx(0.5, abs=1e-12)
        assert phi == pytest.approx(0.25 * delta * delta, abs=1e-20)

    def test_catenoid_apex_second_derivative(self):
        # lam = 1, f0 = 1: f''(0) = 4/(1*(4+1)) = 4/5
        delta, (f, fp) = series_start("catenoid-apex", 1.0, f0=1.0)
        assert fp / delta == pytest.approx(0.8, abs=1e-12)
        assert f == pytest.approx(1.0 + 0.4 * delta * delta, abs=1e-16)

    def test_delta_robustness(self):
        # integrating from two different series offsets must agree downstream
        from nil3trans.families import rotational_rhs

        lam = 1.0
        ends = []
        for delta in (1e-5, 1e-4):
            d, start = series_start("bowl-origin", lam, delta=delta)
            traj = integrate(OdeProblem(
                lambda r, s: (s[1], rotational_rhs(lam, r, s[1])),
                start, (d, 5.0), rtol=1e-12, atol=1e-14))
            ends.append(traj.y_end[0])
        assert abs(ends[0] - ends[1]) < 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            series_start("bowl-origin", 1.0, delta=0.0)
        with pytest.raises(ValueError):
            series_start("bowl-origin", 1.0, delta=1e-2)
        with pytest.raises(ValueError):
            series_start("bowl-origin", -1.0)
        with pytest.raises(ValueError):
            series_start("catenoid-apex", 1.0)  # missing f0
        with pytest.raises(ValueError):
            series_start("catenoid-apex", 1.0, f0=-1.0)
        with pytest.raises(ValueError):
            series_start("unknown", 1.0)
