import math

import numpy as np
import pytest

from nil3trans import families, ode
from nil3trans.core import KillingField, Point, group_mul
from nil3trans.families import (
    GrimReaperParams,
    HelicoidParams,
    GLUING_EPS_CAP,
    apex_series_start,
    bowl_series_start,
    catenoid_neck_rhs,
    grim_reaper_closed_form,
    grim_reaper_rhs,
    helicoid_curvature,
    helicoid_kprime_numerator,
    helicoid_rhs,
    necks_job,
    planar_grim_reaper,
    rotational_rhs,
    slab,
    solve_bowl,
    solve_catenoid,
    solve_grim_reaper,
    solve_helicoid,
    solve_jobs,
    sweep_surface,
)
from nil3trans.surface import PatchJet, patch_shape, translator_residual


class TestGrimReaper:
    def test_rhs_examples(self):
        # lam=1, c=0: gamma'' = 1 + (gamma'^2 + y*gamma')/(1+y^2)
        assert grim_reaper_rhs(1.0, 0.0, 0.0, 0.0, 0.0)[1] == 1.0
        assert grim_reaper_rhs(1.0, 0.0, 1.0, 0.0, 1.0)[1] == \
            pytest.approx(2.0, abs=1e-15)
        # lam=4, c=1, y=0, gamma'=0: gamma'' = 1/sqrt(4) = 1/2
        assert grim_reaper_rhs(4.0, 1.0, 0.0, 0.0, 0.0)[1] == 0.5

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GrimReaperParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            GrimReaperParams(1.0, -0.5)
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                GrimReaperParams(lam, 0.0)
            with pytest.raises(ValueError, match="finite"):
                HelicoidParams(lam, 1.0)
            with pytest.raises(ValueError, match="finite"):
                GrimReaperParams(1.0, lam)
            with pytest.raises(ValueError, match="finite"):
                HelicoidParams(1.0, lam)
            with pytest.raises(ValueError, match="finite"):
                HelicoidParams(1.0, 1.0, lam)

    def test_slab_symmetric_when_untilted(self):
        for lam in (0.5, 1.0, 4.0):
            sl = slab(lam, 0.0)
            assert sl.a_endpoint == pytest.approx(-sl.b_endpoint, abs=1e-14)
            assert sl.width == pytest.approx(sl.b_endpoint - sl.a_endpoint,
                                             abs=1e-12)

    def test_slab_width_formula(self):
        sl = slab(1.0, 0.0)
        assert sl.width == pytest.approx(2.0 * math.sinh(0.5 * math.pi),
                                         abs=1e-14)
        assert sl.width == pytest.approx(4.60260, abs=1e-5)
        # tilting scales the width by sqrt(1 + lam c^2)
        for lam, c in ((1.0, 1.0), (4.0, 2.0)):
            ratio = slab(lam, c).width / slab(lam, 0.0).width
            assert ratio == pytest.approx(math.sqrt(1 + lam * c * c), abs=1e-12)

    def test_closed_form_examples(self):
        assert grim_reaper_closed_form(1.0, 0.0, 0.0) == 0.0
        # lam=1, c=0, y=1: sqrt(2) * tan(asinh(1)) with asinh(1) = log(1+sqrt(2))
        expected = math.sqrt(2.0) * math.tan(math.log(1.0 + math.sqrt(2.0)))
        assert grim_reaper_closed_form(1.0, 0.0, 1.0) == \
            pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(1.7155, abs=1e-3)

    def test_closed_form_domain(self):
        sl = slab(1.0, 0.0)
        with pytest.raises(ValueError):
            grim_reaper_closed_form(1.0, 0.0, sl.b_endpoint)
        with pytest.raises(ValueError):
            grim_reaper_closed_form(1.0, 0.0, sl.b_endpoint + 1.0)

    def test_closed_form_takes_arrays(self):
        # one call on an array equals the calls per sample, and names a
        # sample outside the open slab
        lam, c = 1.7, 0.6
        sl = slab(lam, c)
        ys = np.linspace(sl.a_endpoint, sl.b_endpoint, 203)[1:-1]
        assert np.array_equal(grim_reaper_closed_form(lam, c, ys),
                              [grim_reaper_closed_form(lam, c, float(y)) for y in ys])
        with pytest.raises(ValueError, match=rf"y={sl.b_endpoint} outside"):
            grim_reaper_closed_form(lam, c, np.append(ys, sl.b_endpoint))

    def test_solver_matches_closed_form(self):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 1.0))
        sl = prof.diagnostics["slab"]
        assert prof.diagnostics["termination"] == ("blow_up", "blow_up")
        mask = (prof.t > sl.a_endpoint + 0.1 * sl.width) & \
               (prof.t < sl.b_endpoint - 0.1 * sl.width)
        errs = [abs(gp - grim_reaper_closed_form(1.0, 1.0, y))
                for y, gp in zip(prof.t[mask], prof.data["gamma_prime"][mask])]
        assert max(errs) < 1e-6
        assert prof.residual_sup < 1e-7

    def test_ends_are_the_refined_poles(self):
        # the halves stop at |gamma'| = GRIM_BLOW_UP, up to 4.4e-4 short of
        # the slab endpoints here; the ends read from the fitted poles lie
        # within 1e-9 of them (the stops at 1e10 read 4.4e-7)
        prof = solve_grim_reaper(GrimReaperParams(4.0, 2.0), rtol=1e-13, atol=1e-15,
                                 derived=False)
        diag = prof.diagnostics
        sl = diag["slab"]
        assert abs(diag["a_numeric"] - sl.a_endpoint) <= 1e-9
        assert abs(diag["b_numeric"] - sl.b_endpoint) <= 1e-9
        for half in prof.trajectories:
            assert half.termination == "blow_up"
            assert np.max(np.abs(half.y[-1])) == pytest.approx(families.GRIM_BLOW_UP, rel=1e-6)

    def test_steep_slope_reaches_the_pole(self):
        # gamma passes 1e7 long before gamma' nears its pole at b, so a
        # sup-norm stop at 1e7 would end the upper half far inside the slab;
        # gamma' alone stops at GRIM_BLOW_UP (the stops at 1e10 read 1.1e-3)
        prof = solve_grim_reaper(GrimReaperParams(4.0, 100.0), derived=False)
        up = prof.trajectories[1]
        assert abs(up.y[-1, 0]) > 1e7
        assert abs(up.y[-1, 1]) == pytest.approx(families.GRIM_BLOW_UP, rel=1e-6)
        assert abs(prof.diagnostics["b_numeric"] - prof.diagnostics["slab"].b_endpoint) <= 1e-5

    @pytest.mark.parametrize("lam, c, halves", [
        (4.0, 1e4, (1,)),  # the upper half stops where gamma reaches 1e10
        (1e-12, 1e12, (0, 1)),  # gamma' ~ 1e12 * theta passes 1e7 near the seed
    ])
    def test_half_stopped_off_the_pole_ends_at_its_last_sample(self, lam, c, halves):
        prof = solve_grim_reaper(GrimReaperParams(lam, c), derived=False)
        for i in halves:
            half = prof.trajectories[i]
            assert half.termination == "blow_up"
            assert prof.diagnostics[("a_numeric", "b_numeric")[i]] == half.t_end

    def test_blow_up_stop_belongs_to_the_right_hand_side(self):
        # the grim lanes stop at GRIM_BLOW_UP, a lane of any other
        # right-hand side at ode.BLOW_UP_THRESHOLD: y' = y^2, y(0) = 1 has its
        # pole at t = 1
        assert families.GRIM_BLOW_UP < ode.BLOW_UP_THRESHOLD
        [traj] = ode.solve_ivp(lambda t, y: y * y, ([0.0], [2.0]), [[1.0]]).trajectories
        assert traj.termination == "blow_up"
        assert abs(traj.y[-1, 0]) == pytest.approx(ode.BLOW_UP_THRESHOLD, rel=1e-6)

    def test_derived_flag(self):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 0.0), derived=False)
        assert list(prof.data) == ["y", "gamma", "gamma_prime"]

    def test_minimum_at_center(self):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 0.0), derived=False)
        i0 = int(np.argmin(prof.data["gamma"]))
        assert abs(prof.t[i0]) < 1e-6
        wings = np.abs(prof.t) > 1e-10
        assert np.all((prof.t * prof.data["gamma_prime"])[wings] > 0)


class TestRotational:
    def test_rhs_examples(self):
        # phi' = 0: phi'' = 1/sqrt(lam)
        assert rotational_rhs(1.0, 1.0, 0.0) == 1.0
        assert rotational_rhs(4.0, 1.0, 0.0) == 0.5
        # lam=1, r=2, phi'=1: 1 + (4/(2*8))(2 - 1 - 1) = 1
        assert rotational_rhs(1.0, 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        # lam=4, r=1, phi'=1/2: 1/2 + (2/8)(2*1*1/2 - 1 - 4/4) = 1/4
        assert rotational_rhs(4.0, 1.0, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_rhs_singularity(self):
        with pytest.raises(ValueError):
            rotational_rhs(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            rotational_rhs(1.0, -1.0, 0.1)

    def test_bowl_profile(self):
        prof = solve_bowl(1.0, 50.0)
        assert prof.residual_sup < 1e-7
        assert np.all(prof.data["psi"] > 0)
        assert np.all(np.diff(prof.data["phi"]) > 0)
        # convexity of the profile near the axis: phi ~ r^2/(4 sqrt(lam))
        r0 = prof.t[0]
        assert prof.data["phi"][0] == pytest.approx(0.25 * r0 * r0, rel=1e-6)

    def test_bowl_validation(self):
        with pytest.raises(ValueError):
            solve_bowl(1.0, -5.0)
        for r_max in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r_max must be finite"):
                solve_bowl(1.0, r_max)

    def test_bowl_sample_count_is_fixed(self):
        assert len(solve_bowl(1.0, 5.0).t) == families.BOWL_SAMPLES
        with pytest.raises(TypeError):
            solve_bowl(1.0, 5.0, n_samples=300)
        [[prof]] = solve_jobs(families.bowls_job([1.0], 5.0, n_samples=50))
        assert len(prof.t) == 50


class TestCatenoid:
    def test_neck_rhs_apex(self):
        # at f' = 0: f'' = 4 lam / (f (4 + lam f^2)) > 0, the neck is convex
        assert catenoid_neck_rhs(1.0, 1.0, 0.0) == pytest.approx(0.8, abs=1e-15)
        assert catenoid_neck_rhs(4.0, 1.0, 0.0) == pytest.approx(2.0, abs=1e-15)
        with pytest.raises(ValueError):
            catenoid_neck_rhs(1.0, 0.0, 0.0)

    def test_neck_symmetric_in_value(self):
        # the neck ODE is not symmetric in z, but at the apex the profile is
        # even to second order; check small-z behavior of the closure
        [[(f, _)]] = solve_jobs(necks_job([1.0], 1.0, 0.5))
        val_p = f(1e-5)
        val_m = f(-1e-5)
        assert val_p[0] == pytest.approx(val_m[0], abs=1e-12)
        assert val_p[1] == pytest.approx(-val_m[1], abs=1e-9)

    def test_neck_continuity_at_taylor_seam(self):
        [[(f, _)]] = solve_jobs(necks_job([1.0], 1.0, 0.5))
        delta = 1e-4
        # the ODE branches are seeded with second-order starts, so the seam
        # mismatch in f' is the third-order term ~ |f'''(0)| delta^2 / 2
        for z0 in (delta, -delta):
            below = f(z0 * (1 - 1e-9))
            above = f(z0 * (1 + 1e-9))
            assert below[0] == pytest.approx(above[0], abs=1e-11)
            assert below[1] == pytest.approx(above[1], abs=1e-8)

    def test_neck_read_back_seams(self):
        # each half starts at its seam, and the step interpolant at step
        # fraction 0 returns the step's start state exactly
        f0 = 1.0
        [[(f, (down, up))]] = solve_jobs(necks_job([1.0], f0, 0.5))
        delta = up.t[0]
        assert 0 < delta and down.t[0] == -delta
        assert np.array_equal(f(delta), up.y[0])
        assert np.array_equal(f(-delta), down.y[0])
        assert np.array_equal(f(0.0), [f0, 0.0])

    def test_gluing_offset(self):
        [[(f, _)]] = solve_jobs(necks_job([1.0], 1.0, 2.0 * GLUING_EPS_CAP))
        eps = families._gluing_offset(1.0, f)
        assert 0 < eps <= 0.1
        fv, fpv = f(eps)
        assert fpv > 0
        assert catenoid_neck_rhs(1.0, fv, fpv) > 0

    def test_solve_catenoid_structure(self):
        prof = solve_catenoid(1.0, 1.0, r_max=150.0)
        assert prof.residual_sup < 1e-7
        assert prof.diagnostics["min_radius"] == pytest.approx(1.0, abs=1e-9)
        # each arm starts at its junction, at the neck's slope there
        for side, arm in zip(("lower", "upper"), prof.trajectories):
            j = prof.diagnostics["junctions"][side]
            assert (arm.t[0], *arm.y[0]) == (j["r"], j["z"], j["neck_slope"])
        # arc length is non-decreasing along the assembled curve (the two
        # junction points are shared between arm and neck samples)
        diffs = np.diff(prof.t)
        assert np.all(diffs >= 0)
        assert np.count_nonzero(diffs == 0) <= 2
        # the curve starts and ends at the maximal radius
        assert prof.data["r"][0] == pytest.approx(150.0, rel=1e-12)
        assert prof.data["r"][-1] == pytest.approx(150.0, rel=1e-12)

    def test_tolerances_reach_the_neck(self, monkeypatch):
        # every lane of the neck call, and of the arms' call after it, runs
        # at the caller's tolerances
        seen = []
        solve_ivp = ode.solve_ivp

        def spy(rhs, *args, **kwargs):
            seen.append((rhs, set(kwargs["rtol"]), set(kwargs["atol"])))
            return solve_ivp(rhs, *args, **kwargs)

        monkeypatch.setattr(ode, "solve_ivp", spy)
        solve_catenoid(1.0, 1.0, r_max=20.0, rtol=1e-9, atol=1e-11)
        assert seen == [(families._neck_lanes, {1e-9}, {1e-11}),
                        (families._rotational_lanes, {1e-9}, {1e-11})]

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_catenoid(1.0, -1.0)
        for f0 in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="f0 must be positive and finite"):
                solve_jobs(necks_job([1.0], f0, 1.0))


class TestSeriesStart:
    def test_bowl_origin_slope(self):
        delta, (phi, psi) = bowl_series_start(1.0)
        assert psi / delta == pytest.approx(0.5, abs=1e-12)
        assert phi == pytest.approx(0.25 * delta * delta, abs=1e-20)

    def test_catenoid_apex_second_derivative(self):
        # lam = 1, f0 = 1: f''(0) = 4/(1*(4+1)) = 4/5
        delta, (f, fp) = apex_series_start(1.0, 1.0)
        assert fp / delta == pytest.approx(0.8, abs=1e-12)
        assert f == pytest.approx(1.0 + 0.4 * delta * delta, abs=1e-16)

    def test_delta_robustness(self, monkeypatch):
        # bowls solved from two different series offsets must agree downstream
        ends = []
        for delta in (1e-5, 1e-4):
            monkeypatch.setattr(families, "SERIES_DELTA", delta)
            prof = solve_bowl(1.0, 5.0, rtol=1e-12, atol=1e-14)
            assert prof.t[0] == delta
            ends.append(prof.trajectories[0].y[-1][0])
        assert abs(ends[0] - ends[1]) < 1e-7

    def test_validation(self):
        for lam in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                bowl_series_start(lam)
            with pytest.raises(ValueError):
                apex_series_start(lam, 1.0)
        for f0 in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                apex_series_start(1.0, f0)


class TestHelicoid:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            HelicoidParams(1.0, 0.0)
        with pytest.raises(ValueError):
            HelicoidParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            helicoid_curvature(1.0, 0.0, 0.1, 0.1)

    def test_pitch_scale_floor(self):
        # sqrt(lam)*|pitch| = 5e-9 and 1e-9: refused before any integration
        for lam, pitch in ((0.25, -1e-8), (1e4, 1e-11)):
            with pytest.raises(RuntimeError, match="below 1e-08"):
                solve_helicoid(HelicoidParams(lam, pitch))

    def test_rhs_tangent_is_unit(self):
        d = helicoid_rhs(1.0, 1.0, (0.5, -0.3, 1.2))
        assert math.hypot(d[0], d[1]) == pytest.approx(1.0, abs=1e-15)

    def test_curvature_at_tau_zero(self):
        # tau = 0: k = nu (lam sqrt(lam) c (4c - nu^2) - 4 sqrt(lam) c)
        #              / (sqrt(lam) c (4 nu^2 + lam (2c - nu^2)^2))
        lam, c, nu = 2.0, 1.5, 0.7
        s = math.sqrt(lam)
        expected = (lam * s * c * nu * (4 * c - nu * nu) - 4 * s * c * nu) / \
            (s * c * (4 * nu * nu + lam * (2 * c - nu * nu) ** 2))
        assert helicoid_curvature(lam, c, 0.0, nu) == \
            pytest.approx(expected, abs=1e-15)

    def test_kprime_numerator_takes_arrays(self):
        rng = np.random.default_rng(5)
        lam, c = rng.uniform(0.5, 4.0, 40), rng.uniform(-2.0, 2.0, 40)
        tau, nu = rng.uniform(-3.0, 3.0, (2, 40))
        scalar = [helicoid_kprime_numerator(*map(float, v)) for v in zip(lam, c, tau, nu)]
        assert np.array_equal(helicoid_kprime_numerator(lam, c, tau, nu), scalar)
        # at tau = 0 only the last term remains
        assert np.array_equal(helicoid_kprime_numerator(lam, c, 0.0, nu), -4.0 * lam * c * c)

    def test_structure_identities_finite_difference(self):
        # along the solved curve: (r^2)' = 2 tau, tau' = 1 + k nu, nu' = -k tau
        prof = solve_helicoid(HelicoidParams(1.0, 1.0, 1.0), s_span=20.0)
        ss = prof.t
        d = prof.data
        h = ss[1] - ss[0]
        interior = slice(1, -1)
        dr2 = (d["r2"][2:] - d["r2"][:-2]) / (2 * h)
        dtau = (d["tau"][2:] - d["tau"][:-2]) / (2 * h)
        dnu = (d["nu"][2:] - d["nu"][:-2]) / (2 * h)
        k, tau, nu = d["k"][interior], d["tau"][interior], d["nu"][interior]
        # central differences on the h = 0.01 sample grid: O(h^2) accuracy
        assert np.max(np.abs(dr2 - 2 * tau)) < 1e-3
        assert np.max(np.abs(dtau - (1 + k * nu))) < 1e-3
        assert np.max(np.abs(dnu + k * tau)) < 1e-3

    def test_seed_normalization(self):
        prof = solve_helicoid(HelicoidParams(1.0, 1.0, 1.0), s_span=5.0)
        i0 = int(np.argmin(np.abs(prof.t)))
        assert prof.data["gamma1"][i0] == pytest.approx(1.0, abs=1e-12)
        assert prof.data["gamma2"][i0] == pytest.approx(0.0, abs=1e-12)
        assert prof.data["tau"][i0] == pytest.approx(0.0, abs=1e-12)
        # r^2 has its global minimum at the seed
        assert np.min(prof.data["r2"]) == pytest.approx(1.0, abs=1e-8)

    def test_residual(self):
        prof = solve_helicoid(HelicoidParams(4.0, 0.5, 2.0), s_span=20.0)
        assert prof.residual_sup < 1e-7


class TestPlanarGrimReaper:
    def test_curvature_and_residual(self):
        prof = planar_grim_reaper((0.0, 1.0))
        i0 = int(np.argmin(np.abs(prof.t)))
        assert prof.data["curvature"][i0] == pytest.approx(1.0, abs=1e-12)
        assert prof.residual_sup < 1e-10
        assert prof.diagnostics["width"] == pytest.approx(math.pi, abs=1e-14)

    def test_width_scales_inversely_with_speed(self):
        w1 = planar_grim_reaper((0.0, 1.0)).diagnostics["width"]
        w2 = planar_grim_reaper((0.0, 2.0)).diagnostics["width"]
        assert w2 == pytest.approx(0.5 * w1, abs=1e-14)

    def test_rotation_of_direction(self):
        # direction (1, 0): the (0,1)-profile rotated by -pi/2, which takes
        # (0, 1) to (1, 0): (px, py) -> (py, -px)
        base = planar_grim_reaper((0.0, 1.0))
        rot = planar_grim_reaper((1.0, 0.0))
        assert rot.data["px"] == pytest.approx(base.data["py"], abs=1e-14)
        assert rot.data["py"] == pytest.approx(-base.data["px"], abs=1e-14)

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (1.0, 1.0), (-2.0, 0.5), (0.3, -1.7)])
    def test_arms_trail_the_tip(self, direction):
        # a grim reaper moves tip first: both end samples lie behind the
        # tip, ahead along the unit direction from it
        prof = planar_grim_reaper(direction)
        u = np.array(direction) / math.hypot(*direction)
        pts = np.column_stack([prof.data["px"], prof.data["py"]])
        tip = pts[np.argmin(np.abs(prof.data["x"]))]
        assert (pts[0] - tip) @ u > 0 and (pts[-1] - tip) @ u > 0

    @pytest.mark.parametrize("direction", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                                           (-2.0, 0.5), (0.3, -1.7)])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
    def test_cylinder_translates_along_its_direction(self, direction, lam):
        # the vertical cylinder over (px, py) is a translator for the field
        # a1 F1 + a2 F2, by the kernel: its patch (px(x), py(x), v) has the
        # frame coefficients v1 = (px', py', (py px' - px py')/2), v2 = Z
        prof = planar_grim_reaper(direction)
        a1, a2 = direction
        speed = math.hypot(a1, a2)
        x, h, px, py = (prof.data[k] for k in ("x", "y", "px", "py"))
        # (px, py) is the linear image of the base curve (x, h(x)); the map
        # is read off the samples, so the test holds for any such map
        rot = np.linalg.lstsq(np.column_stack([x, h]), np.column_stack([px, py]),
                              rcond=None)[0].T
        hp = np.tan(speed * x)
        dx, dy = rot @ np.vstack([np.ones_like(x), hp])
        ddx, ddy = rot @ np.vstack([np.zeros_like(x), speed * (1.0 + hp * hp)])
        zero = np.zeros_like(x)
        jet = PatchJet(Point(px, py, zero),
                       (dx, dy, 0.5 * (py * dx - px * dy)), (zero, zero, 1.0 + zero),
                       (ddx, ddy, 0.5 * (py * ddx - px * ddy), zero, zero, zero),
                       (zero,) * 6)
        shape = patch_shape(lam, jet)
        residual = translator_residual(lam, shape, KillingField(a1=a1, a2=a2))
        assert np.max(np.abs(residual)) <= 1e-10

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            planar_grim_reaper((0.0, 0.0))


class TestSweepSurface:
    @staticmethod
    def rings(mesh):
        n_p, n_s = mesh.shape
        return mesh.vertices.reshape(n_s, n_p, 3)

    def test_grim_sweep_points_on_graph(self):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 1.0))
        mesh = sweep_surface(prof, sweep_range=(-2.0, 2.0))
        assert mesh.shape[1] == families.SWEEP_RINGS
        assert not mesh.closed
        # every vertex satisfies z = xy/2 + cx + gamma(y)
        gamma = dict(zip(prof.t, prof.data["gamma"]))
        x, y, z = mesh.vertices.T
        expected = np.array([gamma[v] for v in y])
        assert np.max(np.abs(z - 0.5 * x * y - 1.0 * x - expected)) <= 1e-12

    def test_grim_sweep_matches_group_action(self):
        prof = solve_grim_reaper(GrimReaperParams(1.0, 1.0))
        mesh = sweep_surface(prof, sweep_range=(0.0, 1.0))
        rings = self.rings(mesh)
        # ring j is the image of the u = 0 ring under L_{(u,0,cu)}
        for u, ring in zip(np.linspace(0.0, 1.0, mesh.shape[1]), rings):
            for base, got in zip(rings[0], ring):
                moved = group_mul(Point(u, 0.0, u), Point(*base))
                assert got == pytest.approx(moved.coords(), abs=1e-12)

    def test_rotation_sweep_closed_and_consistent(self):
        prof = solve_bowl(1.0, 5.0)
        mesh = sweep_surface(prof)
        assert mesh.closed
        n_p, n_s = mesh.shape
        assert len(mesh.faces) == (n_p - 1) * n_s
        # the quarter-turn ring equals the rotation of the first ring
        rings = self.rings(mesh)
        x0, y0, z0 = rings[0].T
        got = rings[n_s // 4]
        assert np.max(np.abs(got - np.column_stack([-y0, x0, z0]))) <= 1e-12

    def test_planar_grim_sweep_is_vertical_translation(self):
        prof = planar_grim_reaper((1.0, 1.0))
        mesh = sweep_surface(prof, sweep_range=(0.0, 1.0))
        rings = self.rings(mesh)
        # ring j is the u = 0 ring shifted by (0, 0, u_j)
        for u, ring in zip(np.linspace(0.0, 1.0, mesh.shape[1]), rings):
            assert np.array_equal(ring[:, :2], rings[0][:, :2])
            assert np.max(np.abs(ring[:, 2] - (rings[0][:, 2] + u))) <= 1e-15

    def test_open_sweep_face_count(self):
        prof = planar_grim_reaper((0.0, 1.0))
        mesh = sweep_surface(prof, sweep_range=(-1.0, 1.0))
        n_p, n_s = mesh.shape
        assert len(mesh.faces) == (n_p - 1) * (n_s - 1)
        assert all(1 <= idx <= len(mesh.vertices)
                   for face in mesh.faces for idx in face)

    def test_per_vertex_scalars(self):
        prof = solve_bowl(1.0, 5.0)
        mesh = sweep_surface(prof)
        n_p, n_s = mesh.shape
        assert list(mesh.scalars) == ["H"]
        rings = mesh.scalars["H"].reshape(n_s, n_p)
        assert np.array_equal(rings, np.tile(rings[0], (n_s, 1)))
        assert np.all(np.isin(rings[0], prof.data["H"]))
        assert sweep_surface(planar_grim_reaper((0.0, 1.0))).scalars == {}

    @pytest.mark.parametrize("closed", [False, True])
    def test_faces_match_nested_loops(self, closed):
        prof = solve_bowl(1.0, 5.0) if closed else planar_grim_reaper((0.0, 1.0))
        mesh = sweep_surface(prof)
        assert mesh.closed == closed
        n_p, n_s = mesh.shape
        expected = []
        for j in range(n_s if closed else n_s - 1):
            j2 = (j + 1) % n_s
            for i in range(n_p - 1):
                expected.append((j * n_p + i + 1, j * n_p + i + 2,
                                 j2 * n_p + i + 2, j2 * n_p + i + 1))
        assert mesh.faces.shape == (len(expected), 4)
        assert [tuple(f) for f in mesh.faces.tolist()] == expected

    def test_helicoidal_sweep(self):
        prof = solve_helicoid(HelicoidParams(1.0, 1.0, 1.0), s_span=5.0)
        mesh = sweep_surface(prof, sweep_range=(0.0, 2.0))
        rings = self.rings(mesh)
        x0, y0, z0 = rings[0].T
        # ring at u: e^{iu} gamma with height c*u
        for u, ring in zip(np.linspace(0.0, 2.0, mesh.shape[1]), rings):
            cu, su = math.cos(u), math.sin(u)
            expected = np.column_stack([cu * x0 - su * y0, su * x0 + cu * y0, z0 + u])
            assert np.max(np.abs(ring - expected)) <= 1e-12


class TestSolverCounters:
    def test_every_family_reports_its_trajectories(self):
        profiles = {
            "grim": solve_grim_reaper(GrimReaperParams(1.0, 0.5)),
            "catenoid": solve_catenoid(1.0, 1.0),
            "helicoid": solve_helicoid(HelicoidParams(1.0, 1.0, 1.0), s_span=10.0),
        }
        for name, prof in profiles.items():
            diag = prof.diagnostics
            assert len(diag["termination"]) == len(prof.trajectories), name
            for key in ("termination", "n_steps", "nfev"):
                assert diag[key] == tuple(getattr(tr, key) for tr in prof.trajectories), name
            assert all(isinstance(v, int) and v > 0 for v in diag["n_steps"] + diag["nfev"])
            # reading the dense output leaves the counters as recorded
            for tr in prof.trajectories:
                tr(tr.t_end)
            assert diag["nfev"] == tuple(tr.nfev for tr in prof.trajectories), name
        bowl = solve_bowl(1.0, 20.0)
        traj = bowl.trajectories[0]
        assert (bowl.diagnostics["termination"], bowl.diagnostics["n_steps"],
                bowl.diagnostics["nfev"]) == (traj.termination, traj.n_steps, traj.nfev)
        assert traj.n_steps == len(traj.t) - 1

    def test_two_piece_trajectories_run_down_then_up(self):
        # grim y and helicoid s run from the seed at 0 to either end
        for prof in (solve_grim_reaper(GrimReaperParams(1.0, 0.5)),
                     solve_helicoid(HelicoidParams(1.0, 1.0, 1.0), s_span=10.0)):
            down, up = prof.trajectories
            assert down.t[0] == up.t[0] == 0.0, prof.family
            assert down.t_end < 0.0 < up.t_end, prof.family
        # the catenoid arms both run out in r, from junctions below and above
        # the apex z = 0 (their heights both grow like r^2 far out)
        down, up = solve_catenoid(1.0, 1.0).trajectories
        assert down.y[0, 0] < 0.0 < up.y[0, 0]


class TestLaneKernels:
    """Each lane right-hand side, with the constants its job computes once
    per solve, gives the values of the public function bit for bit."""

    @staticmethod
    def lanes(n=64, seed=26):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.25, 16.0, n), rng.uniform(-3.0, 3.0, (4, n))

    @staticmethod
    def same(a, b):
        assert len(a) == len(b)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_grim(self):
        lam, (c, y, g, gp) = self.lanes()
        c = np.abs(c)
        self.same(families._grim_lanes(y, np.array([g, gp]), *families._grim_args(lam, c)),
                  grim_reaper_rhs(lam, c, y, g, gp))

    def test_rotational(self):
        lam, (r, phi, psi, _) = self.lanes()
        r = np.abs(r) + 1e-3
        self.same(families._rotational_lanes(r, np.array([phi, psi]),
                                             *families._rotational_args(lam)),
                  (psi, rotational_rhs(lam, r, psi)))

    def test_neck(self):
        lam, (z, f, fp, _) = self.lanes()
        f = np.abs(f) + 1e-3
        self.same(families._neck_lanes(z, np.array([f, fp]), *families._neck_args(lam)),
                  (fp, catenoid_neck_rhs(lam, f, fp)))

    def test_helicoid(self):
        lam, (c, g1, g2, th) = self.lanes()
        state = np.array([g1, g2, th])
        self.same(families._helicoid_lanes(0.0, state, *families._helicoid_args(lam, c)),
                  helicoid_rhs(lam, c, state))
