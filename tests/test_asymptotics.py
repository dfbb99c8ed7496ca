import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nil3trans.asymptotics import (
    classify_regime,
    fit_rotational_asymptotics,
    grim_endpoint_fit,
    horizontal_mean_curvature,
    limit_bowl_job,
    limit_grim_reaper_job,
    catenoid_limit_profile,
    limit_catenoid_job,
    radial_linear_closed_form,
)
from nil3trans.families import (
    GrimReaperParams,
    ProfileCurve,
    solve_bowl,
    solve_catenoid,
    solve_grim_reaper,
    solve_jobs,
)
from nil3trans.surface import GraphJet


class TestRadialLinearClosedForm:
    def test_constant_solution(self):
        # y0 = a: the constant branch persists only when c = 0
        xs = np.array([1.0, 5.0, 50.0])
        vals = radial_linear_closed_form(2.5, 1.7, 0.0, 1.0, 2.5, xs)
        assert vals == pytest.approx(np.full(3, 2.5), abs=1e-14)

    def test_example_b2(self):
        # b=2, c=1, a=0, y(1)=0: y = 1/x - 1/x^2
        xs = np.array([1.0, 2.0, 5.0])
        vals = radial_linear_closed_form(0.0, 2.0, 1.0, 1.0, 0.0, xs)
        assert vals == pytest.approx(1.0 / xs - 1.0 / xs**2, abs=1e-14)

    def test_log_branch_b1(self):
        # b=1 uses the log branch; verify by substitution into the ODE
        a, b, c, x0, y0 = -1.0, 1.0, 0.5, 2.0, 3.0
        xs = np.linspace(2.5, 40.0, 200)
        h = 1e-6 * xs
        y = radial_linear_closed_form(a, b, c, x0, y0, xs)
        yp = (radial_linear_closed_form(a, b, c, x0, y0, xs + h)
              - radial_linear_closed_form(a, b, c, x0, y0, xs - h)) / (2 * h)
        assert np.max(np.abs(yp + (b / xs) * (y - a) - c / xs**2)) < 1e-6
        assert radial_linear_closed_form(a, b, c, x0, y0, x0) == \
            pytest.approx(y0, abs=1e-12)

    def test_limit_at_infinity(self):
        val = radial_linear_closed_form(0.7, 1.3, -0.4, 1.0, 2.0, 1e6)
        assert float(val) == pytest.approx(0.7, abs=1e-4)

    @given(st.floats(-2, 2), st.floats(0.2, 3.0), st.floats(-2, 2),
           st.floats(0.5, 2.0), st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_ode_substitution_property(self, a, b, c, x0, y0):
        xs = np.linspace(1.05 * x0, 30.0 * x0, 50)
        h = 1e-6 * xs
        y = radial_linear_closed_form(a, b, c, x0, y0, xs)
        yp = (radial_linear_closed_form(a, b, c, x0, y0, xs + h)
              - radial_linear_closed_form(a, b, c, x0, y0, xs - h)) / (2 * h)
        assert np.max(np.abs(yp + (b / xs) * (y - a) - c / xs**2)) < 1e-5

    def test_substitution_near_b1(self):
        # b close to 1: the two-term form cancelled d/x^b against c/((b-1)x)
        a, b, c, x0, y0 = 0.0, 0.99999, 1.0, 1.0, 0.0
        xs = np.linspace(1.05 * x0, 30.0 * x0, 50)
        h = 1e-6 * xs
        y = radial_linear_closed_form(a, b, c, x0, y0, xs)
        yp = (radial_linear_closed_form(a, b, c, x0, y0, xs + h)
              - radial_linear_closed_form(a, b, c, x0, y0, xs - h)) / (2 * h)
        assert np.max(np.abs(yp + (b / xs) * (y - a) - c / xs**2)) < 1e-5
        # and it stays continuous with the b = 1 solution
        y1 = radial_linear_closed_form(a, 1.0, c, x0, y0, xs)
        assert np.max(np.abs(y - y1)) < 1e-4

    def test_initial_condition(self):
        assert radial_linear_closed_form(1.0, 2.5, -0.3, 1.5, 4.0, 1.5) == \
            pytest.approx(4.0, abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            radial_linear_closed_form(0.0, -1.0, 0.0, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            radial_linear_closed_form(0.0, 1.0, 0.0, -1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            radial_linear_closed_form(0.0, 1.0, 0.0, 1.0, 0.0, 0.5)


class TestRegimes:
    def test_classification(self):
        assert classify_regime(1.0) == "subcritical"
        assert classify_regime(3.999999) == "subcritical"
        assert classify_regime(4.0) == "critical"
        assert classify_regime(4.000001) == "supercritical"


@pytest.fixture(scope="module")
def arms():
    return {lam: solve_bowl(lam, 200.0) for lam in (1.0, 4.0, 9.0)}


class TestRotationalFits:

    def test_subcritical(self, arms):
        fit = fit_rotational_asymptotics(1.0, arms[1.0])
        assert fit.regime == "subcritical"
        assert fit.expected == pytest.approx(-4.0 / 3.0, abs=1e-12)
        assert fit.coefficient == pytest.approx(fit.expected, rel=0.03)

    def test_critical(self, arms):
        fit = fit_rotational_asymptotics(4.0, arms[4.0])
        assert fit.regime == "critical"
        assert fit.expected == -1.0
        assert fit.coefficient == pytest.approx(-1.0, rel=0.05)

    def test_supercritical(self, arms):
        fit = fit_rotational_asymptotics(9.0, arms[9.0])
        assert fit.regime == "supercritical"
        assert fit.expected == pytest.approx(1.0 - 4.0 / 9.0, abs=1e-12)
        assert fit.coefficient == pytest.approx(fit.expected, rel=0.03)

    def test_catenoid_arm(self):
        cat = solve_catenoid(1.0, 1.0)
        fit = fit_rotational_asymptotics(1.0, cat)
        assert fit.coefficient == pytest.approx(-4.0 / 3.0, rel=0.03)

    def test_insufficient_tail(self):
        short = solve_bowl(1.0, 50.0)
        with pytest.raises(ValueError):
            fit_rotational_asymptotics(1.0, short)

    def test_wrong_family(self):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 0.0), derived=False)
        with pytest.raises(ValueError):
            fit_rotational_asymptotics(1.0, prof)


class _TailTrajectory:
    """A bowl trajectory stand-in whose tail is psi = r/sqrt(lam) + q(r)."""

    t_end = 200.0

    def __init__(self, lam, q):
        self.lam, self.q = lam, q

    def __call__(self, r):
        return np.column_stack([np.zeros_like(r), r / math.sqrt(self.lam) + self.q(r)])


def synthetic_arm(lam, q):
    return ProfileCurve("bowl", {"lam": lam}, {"r": np.empty(0)}, [_TailTrajectory(lam, q)])


class TestVariableProjectionFit:
    """The supercritical fit on exact tails q = C1 r^(e-1) + C2/r."""

    @pytest.mark.parametrize("e", [0.3, 0.556, 0.75, 0.95])
    def test_recovers_noise_free_tail(self, e):
        c1, c2 = -0.4, 0.29
        fit = fit_rotational_asymptotics(
            9.0, synthetic_arm(9.0, lambda r: c1 * r ** (e - 1.0) + c2 / r))
        assert fit.coefficient == pytest.approx(e, rel=1e-8)
        assert fit.details["C0"] * fit.coefficient == pytest.approx(c1, rel=1e-8)
        assert fit.details["C2"] == pytest.approx(c2, rel=1e-8)

    @pytest.mark.parametrize("lam", [9.0, 16.0])
    def test_exponent_matches_curve_fit(self, lam):
        optimize = pytest.importorskip("scipy.optimize")
        arm = solve_bowl(lam, 200.0)
        fit = fit_rotational_asymptotics(lam, arm)
        # the model and starting point of the reference nonlinear fit
        r = np.linspace(100.0, 200.0, 400)
        q = arm.trajectories[0](r)[:, 1] - r / math.sqrt(lam)
        e0 = 1.0 - 4.0 / lam
        popt, _ = optimize.curve_fit(
            lambda r, c1, e, c2: c1 * np.power(r, e - 1.0) + c2 / r, r, q,
            p0=(q[-1] * r[-1] ** (1.0 - e0), e0, 0.0), maxfev=20000)
        assert fit.coefficient == pytest.approx(popt[1], rel=1e-8)

    @pytest.mark.parametrize("e", [-0.8, 1.5])
    def test_no_interior_minimum_raises(self, e):
        # the best exponent lies outside [e0 - 1/2, 0.999] with e0 = 5/9
        arm = synthetic_arm(9.0, lambda r: r ** (e - 1.0))
        with pytest.raises(RuntimeError):
            fit_rotational_asymptotics(9.0, arm)


class TestEndpointFits:
    def test_untilted(self):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 0.0), derived=False)
        fits = grim_endpoint_fit(1.0, 0.0, prof)
        expected = math.cosh(0.5 * math.pi) ** 2
        for side in ("a", "b"):
            assert fits[side].fitted == pytest.approx(expected, rel=0.03)

    def test_tilted_asymmetric(self):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 1.0), derived=False)
        fits = grim_endpoint_fit(1.0, 1.0, prof)
        for side in ("a", "b"):
            assert fits[side].fitted == pytest.approx(fits[side].predicted,
                                                      rel=0.03)
        # the tilted reaper is not symmetric under y -> -y
        assert abs(fits["a"].fitted / fits["b"].fitted - 1.0) > 1e-3

    def test_wrong_family(self):
        prof = solve_bowl(1.0, 5.0)
        with pytest.raises(ValueError):
            grim_endpoint_fit(1.0, 0.0, prof)


class TestLimits:
    def test_grim_limit(self):
        [rep] = solve_jobs(limit_grim_reaper_job(0.0))
        assert rep.strictly_decreasing
        assert max(rep.details["ratios"]) <= 1.0
        assert rep.details["limit_surface_H_sup"] < 1e-12
        assert rep.decay_rate is not None and rep.decay_rate < 0

    def test_bowl_limit(self):
        [rep] = solve_jobs(limit_bowl_job())
        assert rep.strictly_decreasing
        cs = rep.details["psi_bound_constants"]
        assert max(cs) <= cs[0]

    def test_catenoid_limit(self):
        [rep] = solve_jobs(limit_catenoid_job(1.0))
        assert rep.strictly_decreasing
        # observed decay ~ lam^(-1/2): quadrupling lambda roughly halves
        # the sup-norm error on the window
        assert rep.errors[0] / rep.errors[1] == pytest.approx(2.0, rel=0.25)
        assert rep.details["quadrupling_ratio"] == pytest.approx(2.0, abs=0.5)

    def test_catenoid_limit_profile(self):
        f, fp = catenoid_limit_profile(1.0, 0.0)
        assert float(f) == 1.0
        assert float(fp) == 0.0
        zs = np.array([-1.0, 0.5, 2.0])
        f, fp = catenoid_limit_profile(2.0, zs)
        assert f == pytest.approx(np.sqrt(4 * zs**2 + 16.0) / 2.0, abs=1e-14)

    def test_catenoid_window_guard(self):
        # for a thin neck the lower branch turns vertical before z = -2 (at
        # z = -0.0636 for lambda = 2e3), so the window is not covered and the
        # report must refuse, naming the f0 to change
        with pytest.raises(ValueError, match=r"lambda=2000.0 .*increase f0 \(here 0.1\)"):
            solve_jobs(limit_catenoid_job(0.1))

    def test_catenoid_f0_validation(self):
        with pytest.raises(ValueError):
            solve_jobs(limit_catenoid_job(-1.0))
        # above the bound the errors reach round-off inside the grid
        with pytest.raises(ValueError, match=r"f0 must be at most 100 \(here 1000.0\)"):
            solve_jobs(limit_catenoid_job(1000.0))


class TestHorizontalMeanCurvature:
    def test_product_graph_horizontal_minimal(self):
        jet = GraphJet(1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.5, 0.0)
        out = horizontal_mean_curvature(jet)
        assert not out.characteristic
        assert abs(out.value) < 1e-10
        assert abs(out.closed_form) < 1e-14
        assert abs(out.value - out.closed_form) < 1e-10

    def test_characteristic_flag(self):
        jet = GraphJet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0)
        out = horizontal_mean_curvature(jet)
        assert out.characteristic
        assert out.value is None

    def test_extrapolation_matches_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            jet = GraphJet(*rng.uniform(-1.5, 1.5, 8))
            if jet.alpha**2 + jet.beta**2 < 0.1:
                continue
            out = horizontal_mean_curvature(jet)
            assert out.value == pytest.approx(out.closed_form, abs=1e-4)
