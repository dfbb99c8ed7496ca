import math
from dataclasses import fields

import numpy as np
import pytest

from nil3trans.core import (
    FrameVector,
    KillingField,
    Point,
    killing_eval,
    killing_flow,
    metric,
    vertical_translation_field,
)
from nil3trans.families import (
    bowls_job,
    grim_reaper_closed_form,
    grim_reaper_jet,
    helicoid_patch_jet,
    neck_patch_jet,
    necks_job,
    radial_graph_jet,
    slab,
    solve_jobs,
)
from nil3trans.surface import (
    GraphJet,
    PatchJet,
    ambient_tangent_curvature,
    gaussian_curvature,
    graph_shape,
    intrinsic_curvature,
    is_characteristic,
    patch_covariant,
    patch_shape,
    translator_residual,
)


def plane_jet(x, y, height=0.0):
    return GraphJet(x, y, height, 0.0, 0.0, 0.0, 0.0, 0.0)


def product_jet(x, y, c=0.0):
    # z = xy/2 + cx
    return GraphJet(x, y, 0.5 * x * y + c * x, 0.5 * y + c, 0.5 * x,
                    0.0, 0.5, 0.0)


class TestGraphShape:
    def test_alpha_beta(self):
        jet = GraphJet(2.0, 4.0, 0.0, 1.0, -1.0, 0, 0, 0)
        assert jet.alpha == 3.0
        assert jet.beta == -2.0

    def test_horizontal_plane_is_minimal(self):
        for lam in (0.5, 1.0, 4.0):
            for x, y in ((0.0, 0.0), (1.0, -2.0)):
                assert graph_shape(lam, plane_jet(x, y)).H == 0.0

    def test_product_graph_is_minimal(self):
        for lam in (0.5, 1.0, 4.0):
            for c in (0.0, 1.5):
                for x, y in ((0.0, 0.0), (1.0, 2.0), (-0.7, 0.3)):
                    assert graph_shape(lam, product_jet(x, y, c)).H == \
                        pytest.approx(0.0, abs=1e-15)

    def test_plane_shape_at_origin(self):
        lam = 1.0
        shape = graph_shape(lam, plane_jet(0.0, 0.0))
        assert shape.g == ((1.0, 0.0), (0.0, 1.0))
        assert shape.A == ((0.0, 0.0), (0.0, 0.0))
        assert shape.normal.coeffs() == (0.0, 0.0, 1.0)
        assert math.sqrt(metric(lam, shape.normal, shape.normal)) == 1.0

    def test_normal_is_unit_and_orthogonal(self):
        lam = 2.0
        jet = GraphJet(0.4, -1.2, 0.3, 0.7, -0.5, 0.2, 0.1, -0.3)
        shape = graph_shape(lam, jet)
        assert math.sqrt(metric(lam, shape.normal, shape.normal)) == \
            pytest.approx(1.0, abs=1e-14)
        a, b = jet.alpha, jet.beta
        # tangents of the graph in frame coefficients
        t1 = FrameVector(jet.point, 1.0, 0.0, a)
        t2 = FrameVector(jet.point, 0.0, 1.0, b)
        assert metric(lam, shape.normal, t1) == pytest.approx(0.0, abs=1e-14)
        assert metric(lam, shape.normal, t2) == pytest.approx(0.0, abs=1e-14)
        assert shape.normal.cZ > 0

    def test_first_fundamental_form(self):
        lam = 3.0
        jet = GraphJet(0.4, -1.2, 0.3, 0.7, -0.5, 0.2, 0.1, -0.3)
        a, b = jet.alpha, jet.beta
        t1 = FrameVector(jet.point, 1.0, 0.0, a)
        t2 = FrameVector(jet.point, 0.0, 1.0, b)
        shape = graph_shape(lam, jet)
        assert shape.g[0][0] == pytest.approx(metric(lam, t1, t1), abs=1e-14)
        assert shape.g[0][1] == pytest.approx(metric(lam, t1, t2), abs=1e-14)
        assert shape.g[1][1] == pytest.approx(metric(lam, t2, t2), abs=1e-14)

    def test_mean_curvature_is_trace(self):
        lam = 2.5
        jet = GraphJet(0.4, -1.2, 0.3, 0.7, -0.5, 0.2, 0.1, -0.3)
        shape = graph_shape(lam, jet)
        g = np.array(shape.g)
        A = np.array(shape.A)
        assert shape.H == pytest.approx(np.trace(A @ np.linalg.inv(g)), abs=1e-13)


class TestCurvatures:
    def test_horizontal_plane_gaussian_off_origin(self):
        # frozen by an independent hand computation:
        # det(A g^-1) = -lam^3 / (64 (1 + lam/4)^2) at (x, y) = (1, 0)
        shape = graph_shape(1.0, plane_jet(1.0, 0.0))
        assert gaussian_curvature(shape) == pytest.approx(-0.01, abs=1e-15)
        for lam in (0.5, 4.0):
            shape = graph_shape(lam, plane_jet(1.0, 0.0))
            expected = -lam**3 / (64.0 * (1.0 + 0.25 * lam) ** 2)
            assert gaussian_curvature(shape) == pytest.approx(expected, abs=1e-14)

    def test_grim_gaussian_at_slab_center(self):
        for lam in (0.5, 1.0, 4.0):
            for c in (0.0, 1.0, 2.0):
                jet = grim_reaper_jet(lam, c, 0.0, 0.0, 0.0)
                k = gaussian_curvature(graph_shape(lam, jet))
                expected = -lam * (1 - lam * c * c) ** 2 / \
                    (4 * (1 + lam * c * c) ** 2)
                assert k == pytest.approx(expected, abs=1e-12)
        # vanishes exactly when lam * c^2 = 1
        jet = grim_reaper_jet(1.0, 1.0, 0.0, 0.0, 0.0)
        assert gaussian_curvature(graph_shape(1.0, jet)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_ambient_tangent_curvature(self):
        lam = 2.0
        # characteristic point: horizontal tangent plane, curvature -3 lam/4
        assert ambient_tangent_curvature(lam, plane_jet(0.0, 0.0)) == \
            pytest.approx(-0.75 * lam, abs=1e-15)
        jet = GraphJet(0.3, -0.8, 0.1, 0.4, 0.9, 0, 0, 0)
        a, b = jet.alpha, jet.beta
        s = lam * (a * a + b * b)
        assert ambient_tangent_curvature(lam, jet) == \
            pytest.approx(0.25 * lam * (s - 3.0) / (1.0 + s), abs=1e-15)

    def test_intrinsic_closed_form_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            lam = float(rng.uniform(0.5, 4.0))
            c = float(rng.uniform(0.0, 2.0))
            sl = slab(lam, c)
            y = float(rng.uniform(sl.a_endpoint + 0.1 * sl.width,
                                  sl.b_endpoint - 0.1 * sl.width))
            gp = grim_reaper_closed_form(lam, c, y)
            jet = grim_reaper_jet(lam, c, y, 0.0, gp)
            a, b = jet.alpha, jet.beta
            closed = lam * (math.sqrt(lam) * a * b - 1.0) / (
                (1 + lam * a * a) * (1 + lam * a * a + lam * b * b))
            shape = graph_shape(lam, jet)
            assert intrinsic_curvature(lam, jet, shape) == \
                pytest.approx(closed, abs=1e-9)

    def test_gauss_equation_consistency(self):
        lam, jet = 1.5, GraphJet(0.4, -1.2, 0.3, 0.7, -0.5, 0.2, 0.1, -0.3)
        shape = graph_shape(lam, jet)
        assert intrinsic_curvature(lam, jet, shape) == pytest.approx(
            ambient_tangent_curvature(lam, jet) + gaussian_curvature(shape),
            abs=1e-15)


class TestPatchShape:
    def graph_patch(self, lam, jet):
        """The same graph expressed as a patch (x, y) -> (x, y, u)."""
        a, b = jet.alpha, jet.beta
        v1 = (1.0, 0.0, a)
        v2 = (0.0, 1.0, b)
        # d alpha/dx = u_xx, d beta/dx = u_xy - 1/2
        d1 = (0.0, 0.0, jet.u_xx, 0.0, 0.0, jet.u_xy - 0.5)
        # d alpha/dy = u_xy + 1/2, d beta/dy = u_yy
        d2 = (0.0, 0.0, jet.u_xy + 0.5, 0.0, 0.0, jet.u_yy)
        return PatchJet(jet.point, v1, v2, d1, d2)

    def test_patch_agrees_with_graph(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            lam = float(rng.uniform(0.5, 4.0))
            jet = GraphJet(*rng.uniform(-1.5, 1.5, 8))
            gs = graph_shape(lam, jet)
            ps = patch_shape(lam, self.graph_patch(lam, jet))
            assert ps.H == pytest.approx(gs.H, abs=1e-12)
            assert np.asarray(ps.g) == pytest.approx(np.asarray(gs.g), abs=1e-12)
            assert np.asarray(ps.A) == pytest.approx(np.asarray(gs.A), abs=1e-12)
            assert ps.normal.coeffs() == pytest.approx(gs.normal.coeffs(),
                                                       abs=1e-12)

    def test_degenerate_patch_rejected(self):
        jet = PatchJet(Point(0, 0, 0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                       (0,) * 6, (0,) * 6)
        with pytest.raises(RuntimeError, match="degenerate"):
            patch_shape(1.0, jet)

    def test_patch_indices_validated(self):
        jet = PatchJet(Point(0, 0, 0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                       (0,) * 6, (0,) * 6)
        with pytest.raises(ValueError):
            patch_covariant(1.0, jet, 0, 1)

    def test_vertical_plane_ruling_is_geodesic(self):
        # patch (v1, 0, v2): V1 = X (on y = 0), V2 = Z; nabla_{V2} V2 = 0
        jet = PatchJet(Point(0.5, 0.0, 0.2), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                       (0.0,) * 6, (0.0,) * 6)
        for lam in (0.5, 2.0):
            dv = patch_covariant(lam, jet, 2, 2)
            assert dv.coeffs() == (0.0, 0.0, 0.0)

    def test_helicoid_orbit_acceleration_closed_form(self):
        # along the screw orbit: nabla_{V2} V2 = (lam(2c - r^2)/2 - 1)(x X + y Y)
        rng = np.random.default_rng(31)
        for _ in range(30):
            lam = float(rng.uniform(0.5, 4.0))
            c = float(rng.uniform(0.3, 2.5))
            g1, g2 = rng.uniform(-2, 2, 2)
            th = float(rng.uniform(0, 2 * math.pi))
            jet = helicoid_patch_jet(lam, c, float(g1), float(g2), th)
            r2 = g1 * g1 + g2 * g2
            coef = 0.5 * lam * (2.0 * c - r2) - 1.0
            dv = patch_covariant(lam, jet, 2, 2)
            assert dv.coeffs() == pytest.approx(
                (coef * g1, coef * g2, 0.0), abs=1e-12)

    def test_helicoid_mean_curvature_closed_form(self):
        # H = 2 sqrt(lam) [lam c nu (4c - 2 tau^2 - nu^2) - 4 c nu
        #     - c k (4 r^2 + lam (2c - r^2)^2)] / Q^{3/2} with the prescribed k
        # reduces to H = 2 sqrt(lam) tau / sqrt(Q) ... verified numerically
        # against the patch pipeline instead of re-deriving: the translator
        # residual must vanish when k is the prescribed curvature.
        rng = np.random.default_rng(41)
        for _ in range(100):
            lam = float(rng.uniform(0.5, 4.0))
            c = float(rng.uniform(0.2, 3.0))
            g1, g2 = (float(v) for v in rng.uniform(-2, 2, 2))
            th = float(rng.uniform(0, 2 * math.pi))
            jet = helicoid_patch_jet(lam, c, g1, g2, th)
            shape = patch_shape(lam, jet)
            res = translator_residual(lam, shape, vertical_translation_field(lam))
            assert abs(res) < 1e-9

    def test_helicoid_screw_invariance(self):
        # the patch jet at sweep parameter v2 is the screw image of v2 = 0:
        # H and the fundamental forms must not depend on v2
        lam, c = 2.0, 1.3
        g1, g2, th = 0.8, -0.4, 1.1
        s0 = patch_shape(lam, helicoid_patch_jet(lam, c, g1, g2, th))
        for v2 in (0.7, -2.1):
            s1 = patch_shape(lam, helicoid_patch_jet(lam, c, g1, g2, th, v2=v2))
            assert s1.H == pytest.approx(s0.H, abs=1e-12)
            assert np.asarray(s1.g) == pytest.approx(np.asarray(s0.g), abs=1e-12)
            assert np.asarray(s1.A) == pytest.approx(np.asarray(s0.A), abs=1e-12)

    def test_neck_patch_rotation_invariance(self):
        lam, z, f, fp = 1.0, 0.05, 1.01, 0.2
        s0 = patch_shape(lam, neck_patch_jet(lam, z, f, fp))
        s1 = patch_shape(lam, neck_patch_jet(lam, z, f, fp, v2=1.9))
        assert s1.H == pytest.approx(s0.H, abs=1e-12)


class TestResidualAndCharacteristic:
    def test_horizontal_plane_residual(self):
        # H = 0 but g(normal, V) = 1 at a characteristic point: residual -1
        lam = 1.0
        shape = graph_shape(lam, plane_jet(0.0, 0.0))
        res = translator_residual(lam, shape, vertical_translation_field(lam))
        assert res == pytest.approx(-1.0, abs=1e-15)

    def test_grim_jet_residual_zero(self):
        for lam in (0.5, 1.0, 4.0):
            for c in (0.0, 1.0):
                sl = slab(lam, c)
                for y in (0.0, 0.3 * sl.b_endpoint, 0.5 * sl.a_endpoint):
                    gp = grim_reaper_closed_form(lam, c, y)
                    jet = grim_reaper_jet(lam, c, y, 0.0, gp)
                    shape = graph_shape(lam, jet)
                    res = translator_residual(lam, shape,
                                              vertical_translation_field(lam))
                    assert abs(res) < 1e-12

    def test_residual_for_general_killing_field(self):
        lam = 1.0
        shape = graph_shape(lam, plane_jet(0.0, 0.0))
        k = KillingField(a1=1.0)  # horizontal field: g(normal, F1) = 0 at origin
        assert translator_residual(lam, shape, k) == pytest.approx(0.0, abs=1e-15)

    def test_is_characteristic(self):
        assert is_characteristic(plane_jet(0.0, 0.0))
        assert not is_characteristic(plane_jet(1.0, 0.0))
        # c=0 grim reaper: characteristic exactly on y = 0
        assert is_characteristic(grim_reaper_jet(1.0, 0.0, 0.0, 0.0, 0.0))
        gp = grim_reaper_closed_form(1.0, 0.0, 0.5)
        assert not is_characteristic(grim_reaper_jet(1.0, 0.0, 0.5, 0.0, gp))


class TestIsometryInvariance:
    # the flow of F4 for time 0.9: the rotation rho_0.9 about the z-axis,
    # whose differential rotates the (cX, cY) frame coefficients
    F4 = KillingField(a4=1.0)
    c9, s9 = math.cos(0.9), math.sin(0.9)

    def rot3(self, t):
        return (self.c9 * t[0] - self.s9 * t[1], self.s9 * t[0] + self.c9 * t[1], t[2])

    def test_mean_curvature_under_rotation(self):
        # rotate a graph jet: rho_u maps the graph z = u(x,y) to another graph;
        # compare H computed before and after via the patch pipeline
        lam = 1.5
        jet = GraphJet(0.4, -1.2, 0.3, 0.7, -0.5, 0.2, 0.1, -0.3)
        gs = graph_shape(lam, jet)
        patch = TestPatchShape().graph_patch(lam, jet)
        # push the tangent basis forward; coefficient derivatives rotate the
        # same way since the differential is constant in frame coefficients
        rot3 = self.rot3
        p2 = killing_flow(self.F4, 0.9, jet.point)
        jet2 = PatchJet(p2, rot3(patch.v1), rot3(patch.v2),
                        rot3(patch.d1[:3]) + rot3(patch.d1[3:]),
                        rot3(patch.d2[:3]) + rot3(patch.d2[3:]))
        ps = patch_shape(lam, jet2)
        assert ps.H == pytest.approx(gs.H, abs=1e-8)
        assert np.asarray(ps.g) == pytest.approx(np.asarray(gs.g), abs=1e-12)

    def test_normal_pushes_forward(self):
        lam = 1.5
        jet = GraphJet(0.4, -1.2, 0.3, 0.7, -0.5, 0.2, 0.1, -0.3)
        gs = graph_shape(lam, jet)
        p2 = killing_flow(self.F4, 0.9, jet.point)
        pushed = FrameVector(p2, *self.rot3(gs.normal.coeffs()))
        assert math.sqrt(metric(lam, pushed, pushed)) == pytest.approx(1.0, abs=1e-13)
        # residual along the vertical field is rotation-invariant because
        # rho_u fixes F3
        v = killing_eval(vertical_translation_field(lam), jet.point)
        v2 = killing_eval(vertical_translation_field(lam), p2)
        assert metric(lam, pushed, v2) == pytest.approx(
            metric(lam, gs.normal, v), abs=1e-13)


def stack_graph_jets(jets):
    """One GraphJet whose fields are arrays, from a list of float jets."""
    return GraphJet(*(np.array([getattr(j, f.name) for j in jets]) for f in fields(GraphJet)))


def stack_patch_jets(jets):
    """One PatchJet whose fields hold arrays, from a list of float jets."""
    def stack(rows):
        return tuple(np.array(col) for col in zip(*rows))

    tangent = (stack([getattr(j, name) for j in jets]) for name in ("v1", "v2", "d1", "d2"))
    return PatchJet(Point(*stack([j.point.coords() for j in jets])), *tangent)


def shape_quantities(lam, shape):
    vfield = vertical_translation_field(lam)
    entries = [x for form in (shape.g, shape.A) for row in form for x in row]
    return (shape.H, *entries, *shape.normal.coeffs(),
            gaussian_curvature(shape), translator_residual(lam, shape, vfield))


def assert_array_kernel_exact(lam, jets, stacked, shape_fn, extra=None):
    """The array call equals the 0-d calls bit for bit, sample by sample."""
    whole = shape_fn(lam, stacked)
    per_sample = [shape_fn(lam, j) for j in jets]
    columns = [np.broadcast_to(q, (len(jets),)) for q in shape_quantities(lam, whole)]
    rows = np.array([shape_quantities(lam, s) for s in per_sample], dtype=float)
    if extra is not None:
        columns.append(extra(lam, stacked, whole))
        rows = np.column_stack([rows, [extra(lam, j, s) for j, s in zip(jets, per_sample)]])
    for k, col in enumerate(columns):
        assert col.shape == (len(jets),)
        assert np.array_equal(col, rows[:, k]), f"quantity {k} differs"


class TestArrayKernel:
    def test_graph_jets_from_grim_and_bowl(self):
        rng = np.random.default_rng(53)
        jets = []
        lam, c = 1.7, 0.6
        sl = slab(lam, c)
        for y in rng.uniform(sl.a_endpoint + 0.1 * sl.width, sl.b_endpoint - 0.1 * sl.width, 20):
            gp = grim_reaper_closed_form(lam, c, float(y))
            jets.append(grim_reaper_jet(lam, c, float(y), float(rng.normal()), gp))
        [[bowl]] = solve_jobs(bowls_job([lam], 30.0, n_samples=20))
        for r, phi, psi in zip(bowl.t, bowl.data["phi"], bowl.data["psi"]):
            jets.append(radial_graph_jet(lam, float(r), float(phi), float(psi)))
        assert_array_kernel_exact(lam, jets, stack_graph_jets(jets), graph_shape,
                                  extra=intrinsic_curvature)

    def test_patch_jets_from_neck_and_helicoid(self):
        rng = np.random.default_rng(59)
        lam, c = 2.3, 1.1
        [[(f, _)]] = solve_jobs(necks_job([lam], 0.8, 0.2))
        jets = [neck_patch_jet(lam, float(z), *(float(v) for v in f(z)))
                for z in np.linspace(-0.2, 0.2, 21)]
        for g1, g2, th in rng.uniform(-2.0, 2.0, (20, 3)):
            jets.append(helicoid_patch_jet(lam, c, float(g1), float(g2), float(th)))
        assert_array_kernel_exact(lam, jets, stack_patch_jets(jets), patch_shape)

    def test_one_lambda_per_sample(self):
        # a batch that mixes lambdas shapes each sample exactly as the call of
        # its own lambda does
        lams = np.repeat([1.0, 4.0, 0.5], 6)
        pitches = np.tile([-3.0, -2.0, -1.0, 0.5, 1.0, 2.0], 3)
        g1, g2, th = np.random.default_rng(61).uniform(-2.0, 2.0, (3, len(lams)))

        def quantities(shape):
            return (shape.H, *(x for form in (shape.g, shape.A) for row in form for x in row),
                    *shape.normal.coeffs())

        whole = quantities(patch_shape(lams, helicoid_patch_jet(lams, pitches, g1, g2, th)))
        for lam in (1.0, 4.0, 0.5):
            sel = lams == lam
            alone = patch_shape(lam, helicoid_patch_jet(lam, pitches[sel], g1[sel], g2[sel],
                                                        th[sel]))
            for k, (a, b) in enumerate(zip(whole, quantities(alone))):
                assert np.array_equal(a[sel], b), f"quantity {k} differs"

    def test_degenerate_sample_rejected(self):
        good = PatchJet(Point(0, 0, 0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0,) * 6, (0,) * 6)
        bad = PatchJet(Point(0, 0, 0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0,) * 6, (0,) * 6)
        patch_shape(1.0, stack_patch_jets([good, good]))
        with pytest.raises(RuntimeError, match="degenerate"):
            patch_shape(1.0, stack_patch_jets([good, bad, good]))

    def test_is_characteristic_per_sample(self):
        jets = stack_graph_jets([plane_jet(0.0, 0.0), plane_jet(1.0, 0.0)])
        assert is_characteristic(jets).tolist() == [True, False]
