import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from nil3trans.asymptotics import radial_linear_closed_form
from nil3trans import ode
from nil3trans.families import (
    GrimReaperParams,
    HelicoidParams,
    bowls_job,
    grim_reaper_rhs,
    grim_reapers_job,
    grim_windows_job,
    helicoids_job,
    necks_job,
    slab,
    solve_bowl,
    solve_grim_reaper,
    solve_helicoid,
    solve_jobs,
)
from nil3trans.ode import (
    BLOW_UP_THRESHOLD,
    OdeProblem,
    Trajectory,
    integrate,
)


class TestProblemValidation:
    def test_degenerate_span(self):
        with pytest.raises(ValueError):
            integrate(OdeProblem(lambda t, y: y, (1.0,), (0.0, 0.0)))

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            integrate(OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), rtol=0.0))
        for rtol in (1.0, 2.0):
            with pytest.raises(ValueError, match="rtol"):
                integrate(OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), rtol=rtol))
        with pytest.raises(ValueError):
            integrate(OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), atol=0.0))

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
            integrate(OdeProblem(lambda t, y: y, **kwargs))

    def test_rtol_below_scipy_floor_is_clamped(self):
        # rtol / RTOL_SAFETY falls under the 100 eps floor here; the clamp
        # keeps the solve quiet and accurate
        prob = OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0), rtol=5e-14, atol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(prob)
        assert traj.y[-1][0] == pytest.approx(math.e, rel=1e-12)


class TestAccuracy:
    def test_exponential(self):
        prob = OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0))
        traj = integrate(prob)
        assert traj.termination == "span_end"
        assert abs(traj.y[-1][0] - math.e) < 1e-9

    def test_radial_linear_long_range(self):
        # y' = -(b/x)(y - a) + c/x^2 with (a, b, c) = (2, 3, 1), y(1) = 5,
        # against the closed form, out to x = 10
        a, b, c = 2.0, 3.0, 1.0

        def rhs(x, y):
            return [-(b / x) * (y[0] - a) + c / x**2]

        traj = integrate(OdeProblem(rhs, (5.0,), (1.0, 10.0)))
        exact = float(radial_linear_closed_form(a, b, c, 1.0, 5.0, 10.0))
        assert abs(traj.y[-1][0] - exact) < 1e-8

    def test_tolerance_tightening_improves(self):
        errs = []
        for rtol in (1e-6, 1e-7):
            prob = OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0),
                              rtol=rtol, atol=rtol * 1e-2)
            errs.append(abs(integrate(prob).y[-1][0] - math.e))
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

    def test_integrate_has_no_blow_up_stop(self):
        # e^30 = 1.07e13 lies past BLOW_UP_THRESHOLD, where a call at the
        # default stop ends (at t = 23.03)
        traj = integrate(OdeProblem(lambda t, y: y, (1.0,), (0.0, 30.0)))
        assert traj.termination == "span_end"
        assert traj.y[-1][0] == pytest.approx(math.exp(30.0), rel=1e-9)

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

    @staticmethod
    def solve(prob):
        """``prob`` as one lane of ``ode.solve_ivp``, at its default stop."""
        return ode.solve_ivp(prob.rhs, ([prob.t_span[0]], [prob.t_span[1]]),
                             [prob.y0]).trajectories[0]

    def test_blow_up_termination(self):
        prob, sl = self.grim_problem()
        traj = self.solve(prob)
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

        traj = self.solve(OdeProblem(rhs, (0.0, 0.0), (0.0, t1)))
        assert traj.termination == "blow_up"
        steps = np.diff(traj.t) if forward else -np.diff(traj.t)
        assert np.all(steps > 0)
        assert np.array_equal(traj.y[-1], traj(traj.t_end))
        assert np.max(np.abs(traj.y[-1])) == pytest.approx(BLOW_UP_THRESHOLD, rel=1e-6)

    def test_threshold_monotone_approach(self):
        prob, sl = self.grim_problem()
        ends = []
        for th in (1e4, 1e5, 1e6, 1e7, 1e8):
            [traj] = ode.solve_ivp(prob.rhs, ([0.0], [prob.t_span[1]]), [prob.y0],
                                   stop=th).trajectories
            ends.append(traj.t_end)
        assert all(b > a for a, b in zip(ends, ends[1:]))
        assert all(e < sl.b_endpoint for e in ends)
        assert sl.b_endpoint - ends[-1] < 1e-3


    def test_stop_per_component(self):
        # y0 grows linearly to 1e8, y1 = 1/(1 - t) has its pole at t = 1: a
        # scalar stop reads the sup-norm, a pair of thresholds one each
        def rhs(t, y):
            return np.array([np.full_like(y[0], 1e8), y[1] * y[1]])

        for stop, end, component in ((1e6, 1e-2, 0), ((1e10, 1e6), 1.0 - 1e-6, 1)):
            [traj] = ode.solve_ivp(rhs, ([0.0], [2.0]), [[0.0, 1.0]], stop=stop).trajectories
            assert traj.termination == "blow_up"
            assert traj.t_end == pytest.approx(end, rel=1e-6)
            assert abs(traj.y[-1, component]) == pytest.approx(1e6, rel=1e-6)


class TestAttemptCap:
    def test_cap_counts_the_attempts_of_the_slowest_lane(self, monkeypatch):
        def solve():
            return ode.solve_ivp(lambda t, y: y, ([0.0, 0.0], [1.0, 10.0]), [[1.0], [1.0]])

        fast, slow = ((tr.nfev - 2) // ode.N_STAGES for tr in solve().trajectories)
        assert fast < slow
        monkeypatch.setattr(ode, "MAX_ATTEMPTS", slow)
        assert [tr.termination for tr in solve().trajectories] == ["span_end"] * 2
        monkeypatch.setattr(ode, "MAX_ATTEMPTS", slow - 1)
        with pytest.raises(RuntimeError, match=f"1 of 2 lanes did not finish within {slow - 1} "):
            solve()


class TestTableau:
    def test_matches_scipy_coefficients(self):
        # the tableau is transcribed from HNW / dop853.f; scipy ships the
        # same constants, which only the tests import
        ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        for name in ("A", "B", "C", "E3", "E5", "D"):
            assert np.array_equal(getattr(ode, name), getattr(ref, name)), name
        assert (ode.N_STAGES, ode.N_STAGES_EXTENDED, ode.INTERPOLATOR_POWER) == \
            (ref.N_STAGES, ref.N_STAGES_EXTENDED, ref.INTERPOLATOR_POWER)

    def test_runtime_does_not_import_scipy(self):
        source = Path(ode.__file__).read_text(encoding="utf-8")
        assert "import scipy" not in source and "from scipy" not in source


def same_trajectory(a, b):
    assert a.termination == b.termination
    assert (a.n_steps, a.nfev) == (b.n_steps, b.nfev)
    assert np.array_equal(a.t, b.t) and np.array_equal(a.y, b.y)
    assert (a.dense is None) == (b.dense is None)
    if a.dense is not None:
        assert all(np.array_equal(u, v) for u, v in zip(a.dense, b.dense))


class TestLanes:
    def test_grim_grid_lanes_match_single_solves(self):
        # a lane's result must not depend on the batch it runs in
        grid = [GrimReaperParams(lam, c) for lam in (0.5, 1.0, 4.0)
                for c in (0.0, 1.0, 2.0)]
        [batch] = solve_jobs(grim_reapers_job(grid, rtol=1e-13, atol=1e-15, derived=False))
        for params, prof in zip(grid, batch):
            alone = solve_grim_reaper(params, rtol=1e-13, atol=1e-15, derived=False)
            for a, b in zip(prof.trajectories, alone.trajectories):
                same_trajectory(a, b)
            assert prof.diagnostics == alone.diagnostics

    def test_helicoid_lanes_match_single_solves(self):
        grid = [HelicoidParams(1.0, 0.5, 2.0), HelicoidParams(4.0, 2.0, 0.5)]
        [batch] = solve_jobs(helicoids_job(grid, s_span=20.0))
        for params, prof in zip(grid, batch):
            alone = solve_helicoid(params, s_span=20.0)
            for a, b in zip(prof.trajectories, alone.trajectories):
                same_trajectory(a, b)
            for key, col in alone.data.items():
                assert np.array_equal(prof.data[key], col), key

    def test_bowl_lanes_match_single_solves(self):
        lams = (0.5, 1.0, 4.0, 9.0)
        [batch] = solve_jobs(bowls_job(lams, 20.0))
        for lam, prof in zip(lams, batch):
            alone = solve_bowl(lam, 20.0)
            same_trajectory(prof.trajectories[0], alone.trajectories[0])
            assert prof.diagnostics == alone.diagnostics
            assert np.array_equal(prof.t, alone.t)
            assert prof.data.keys() == alone.data.keys()
            for key, col in alone.data.items():
                assert np.array_equal(prof.data[key], col), key

    def test_window_lanes_match_single_solves(self):
        lams, c, y_max = (10.0, 100.0, 1000.0), 0.5, 1.0
        ys = np.linspace(-y_max, y_max, 201)
        [windows] = solve_jobs(grim_windows_job(lams, c, y_max))
        for lam, gamma in zip(lams, windows):
            [[alone]] = solve_jobs(grim_windows_job([lam], c, y_max))
            assert np.array_equal(gamma(ys), alone(ys))
            assert np.array_equal(gamma(0.3), alone(0.3))

    def test_grim_reapers_and_windows_share_chart_1(self, monkeypatch):
        # the windows join the call of chart 1 (and (1e-12, 0) hands over at
        # its located stop), yet every lane comes out as when its job runs
        # alone
        grid = [GrimReaperParams(lam, c) for lam, c in ((0.5, 0.0), (4.0, 2.0), (1e-12, 0.0))]
        lams, c = (10.0, 1e3, 1e6), 0.5
        ys = np.linspace(-1.0, 1.0, 201)
        [reapers_alone] = solve_jobs(grim_reapers_job(grid, rtol=1e-13, atol=1e-15))
        [windows_alone] = solve_jobs(grim_windows_job(lams, c, 1.0))
        calls = []
        solve_ivp = ode.solve_ivp

        def spy(rhs, *args, **kwargs):
            calls.append(rhs)
            return solve_ivp(rhs, *args, **kwargs)

        monkeypatch.setattr(ode, "solve_ivp", spy)
        reapers, windows = solve_jobs(grim_reapers_job(grid, rtol=1e-13, atol=1e-15),
                                      grim_windows_job(lams, c, 1.0))
        assert len(calls) == 2
        for prof, alone in zip(reapers, reapers_alone):
            for a, b in zip(prof.trajectories, alone.trajectories, strict=True):
                same_trajectory(a, b)
            for key, col in alone.data.items():
                assert np.array_equal(prof.data[key], col), key
        for gamma, alone in zip(windows, windows_alone):
            assert np.array_equal(gamma(ys), alone(ys))

    def test_neck_lanes_match_single_solves(self):
        lams, f0, z_max = (1.0, 4.0, 2e3), 1.0, 0.5
        # the grid also reads |z| < 1e-4 finely, next to the apex where both
        # halves start
        zs = np.concatenate([np.linspace(-z_max, z_max, 101),
                             np.linspace(-2e-4, 2e-4, 41)])
        [necks] = solve_jobs(necks_job(lams, f0, z_max))
        for lam, (f, trajs) in zip(lams, necks):
            [[(alone, alone_trajs)]] = solve_jobs(necks_job([lam], f0, z_max))
            for a, b in zip(trajs, alone_trajs):
                same_trajectory(a, b)
            assert np.array_equal(f(zs), alone(zs))

    def test_batched_families_reject_empty_and_non_finite_lambdas(self):
        calls = (lambda lams: solve_jobs(bowls_job(lams, 1.0)),
                 lambda lams: solve_jobs(grim_windows_job(lams, 0.0, 0.5)),
                 lambda lams: solve_jobs(necks_job(lams, 1.0, 0.5)))
        for call in calls:
            with pytest.raises(ValueError, match="no lanes"):
                call(())
            for lams in ((1.0, math.nan), (math.inf,)):
                with pytest.raises(ValueError):
                    call(lams)

    def test_lanes_keep_their_own_span_and_termination(self):
        lam, c = np.array([1.0, 1.0]), np.array([0.0, 0.0])
        sl = slab(1.0, 0.0)

        def rhs(y, state, lam, c):
            return grim_reaper_rhs(lam, c, y, state[0], state[1])

        sol = ode.solve_ivp(rhs, ([0.0, 0.0], [1.0, sl.a_endpoint - 1.0]),
                            np.zeros((2, 2)), args=(lam, c))
        short, long_ = sol.trajectories
        assert (short.termination, long_.termination) == ("span_end", "blow_up")
        assert short.t_end == 1.0 and long_.t_end > sl.a_endpoint
        assert sol.nfev == short.nfev + long_.nfev
        assert len(sol.t) == len(short.t) + len(long_.t)

    def test_mixed_tolerance_lanes_match_single_solves(self):
        # the grim grid's tolerances and the default ones in one call: each
        # lane equals its call alone, dense coefficients included
        lam, c = np.array([1.0, 1.0, 4.0, 0.5]), np.array([0.0, 1.0, 2.0, 1.0])
        rtol, atol = np.array([1e-13, 1e-10, 1e-13, 1e-6]), np.array([1e-15, 1e-12, 1e-15, 1e-9])
        t1 = [slab(*lc).b_endpoint + 1.0 for lc in zip(lam, c)]

        def rhs(y, state, lam, c):
            return grim_reaper_rhs(lam, c, y, state[0], state[1])

        batch = ode.solve_ivp(rhs, ([0.0] * 4, t1), np.zeros((4, 2)), args=(lam, c),
                              rtol=rtol, atol=atol).trajectories
        for i, traj in enumerate(batch):
            alone = ode.solve_ivp(rhs, ([0.0], [t1[i]]), [(0.0, 0.0)],
                                  args=(lam[i:i + 1], c[i:i + 1]),
                                  rtol=float(rtol[i]), atol=float(atol[i])).trajectories[0]
            assert traj.termination == "blow_up"
            same_trajectory(traj, alone)
        assert len(batch[0].t) > len(batch[1].t) > len(batch[3].t)

    @pytest.mark.parametrize("rtol, atol, match", [
        ([1e-10, math.nan], 1e-12, "finite"), (1e-10, [math.inf, 1e-12], "finite"),
        ([1e-10, 0.0], 1e-12, "rtol"), ([1.0, 1e-10], 1e-12, "rtol"),
        ([1e-10, -1e-3], 1e-12, "rtol"), (1e-10, [1e-12, 0.0], "atol"),
        (1e-10, [1e-12, -1.0], "atol"), ([1e-10, 1e-10, 1e-10], 1e-12, "broadcast"),
    ])
    def test_per_lane_tolerances_checked(self, rtol, atol, match):
        with pytest.raises(ValueError, match=match):
            ode.solve_ivp(lambda t, y: y, ([0.0, 0.0], [1.0, 2.0]), [(1.0,), (1.0,)],
                          rtol=rtol, atol=atol)

    def test_counters(self):
        traj = integrate(OdeProblem(lambda t, y: y, (1.0,), (0.0, 1.0)))
        assert traj.n_steps == len(traj.t) - 1 > 0
        # 2 evaluations choose the first step and 12 make each attempt;
        # building the dense output does not change the count
        nfev = traj.nfev
        assert nfev >= 2 + 12 * traj.n_steps and (nfev - 2) % 12 == 0
        traj(0.5)
        assert traj.nfev == nfev

    def test_one_interpolant_pass_per_call(self):
        # 2 calls choose the first steps and 12 make each attempt of the
        # slowest lane; one pass of 3 more builds the interpolants of every
        # step of every lane, the two stops included, and evaluating the
        # trajectories afterwards calls the right-hand side no more
        lam, c = np.array([1.0, 1.0, 4.0]), np.array([0.0, 0.5, 2.0])
        t1 = [1.0, slab(1.0, 0.5).b_endpoint + 1.0, slab(4.0, 2.0).a_endpoint - 1.0]
        calls = []

        def rhs(y, state, lam, c):
            calls.append(len(y))
            return grim_reaper_rhs(lam, c, y, state[0], state[1])

        trajs = ode.solve_ivp(rhs, ([0.0] * 3, t1), np.zeros((3, 2)), args=(lam, c)).trajectories
        assert [tr.termination for tr in trajs] == ["span_end", "blow_up", "blow_up"]
        attempts = [(tr.nfev - 2 - 3 * (tr.termination == "blow_up")) / ode.N_STAGES
                    for tr in trajs]
        assert all(n == int(n) > 0 for n in attempts)
        assert len(calls) == 2 + ode.N_STAGES * max(attempts) + 3
        n_calls = len(calls)
        for tr in trajs:
            tr(0.5 * (tr.t[:-1] + tr.t[1:]))
            tr(tr.t_end)
        assert len(calls) == n_calls


class TestStopLocation:
    def solve(self, forward):
        lam, c = 1.0, 0.5
        sl = slab(lam, c)
        t1 = sl.b_endpoint + 1.0 if forward else sl.a_endpoint - 1.0

        def rhs(y, state):
            return grim_reaper_rhs(lam, c, y, state[0], state[1])

        return ode.solve_ivp(rhs, ([0.0], [t1]), [(0.0, 0.0)]).trajectories[0]

    @pytest.mark.parametrize("forward", [True, False])
    def test_stop_bracketed_on_the_step_interpolant(self, forward):
        traj = self.solve(forward)
        assert traj.termination == "blow_up"
        t_stop, t_old = traj.t[-1], traj.t[-2]
        h, coef = traj.dense[0][-1], traj.dense[1][:, -1]
        assert abs(t_stop - t_old) <= abs(h)  # inside the last accepted step

        def gap(t):
            y = ode._interpolate(coef, traj.y[-2], (t - t_old) / h)
            return BLOW_UP_THRESHOLD - np.max(np.abs(y))

        # max|y| crosses the threshold between the two floats next to the
        # stop, and the stop is the float nearest to the crossing
        before = np.nextafter(t_stop, t_old)
        after = np.nextafter(t_stop, t_stop + h)
        assert gap(before) > 0 >= gap(after)
        assert abs(gap(t_stop)) <= min(abs(gap(before)), abs(gap(after)))
        assert np.array_equal(traj.y[-1], traj(t_stop))
