import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nil3trans.core import (
    FrameVector,
    KillingField,
    ORIGIN,
    Point,
    connection_bilinear,
    connection_table,
    covariant_derivative_fd,
    group_inv,
    group_mul,
    killing_eval,
    killing_flow,
    metric,
    sectional_curvature,
    vertical_translation_field,
)

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coord, coord, coord)


class TestGroup:
    def test_identity(self):
        assert group_mul(ORIGIN, Point(1.0, 2.0, 3.0)) == Point(1.0, 2.0, 3.0)

    def test_hand_product(self):
        assert group_mul(Point(1, 0, 0), Point(0, 1, 0)) == Point(1.0, 1.0, 0.5)

    def test_inverse_is_negation(self):
        p = Point(0.3, -1.2, 0.7)
        assert group_mul(p, group_inv(p)) == ORIGIN

    @given(points, points, points)
    @settings(max_examples=200)
    def test_associativity(self, p, q, r):
        lhs = group_mul(group_mul(p, q), r)
        rhs = group_mul(p, group_mul(q, r))
        assert max(abs(a - b) for a, b in zip(lhs.coords(), rhs.coords())) < 1e-12

    def test_associativity_bulk(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p, q, r = (Point(*rng.uniform(-5, 5, 3)) for _ in range(3))
            lhs = group_mul(group_mul(p, q), r)
            rhs = group_mul(p, group_mul(q, r))
            assert max(abs(a - b) for a, b in zip(lhs.coords(), rhs.coords())) < 1e-12


class TestMetric:
    def test_lambda_one_vertical(self):
        z = FrameVector(ORIGIN, 0, 0, 1)
        assert metric(1.0, z, z) == 1.0

    def test_unit_vertical_any_lambda(self):
        for lam in (0.25, 1.0, 4.0, 100.0):
            e3 = FrameVector(ORIGIN, 0, 0, 1 / math.sqrt(lam))
            assert metric(lam, e3, e3) == pytest.approx(1.0, abs=1e-15)

    def test_frame_orthogonality(self):
        v = FrameVector(ORIGIN, 1, 0, 1)
        w = FrameVector(ORIGIN, 0, 1, 0)
        assert metric(2.0, v, w) == 0.0

    def test_orthonormal_frame_all_lambdas(self):
        for lam in (0.25, 1.0, 4.0, 100.0):
            s = math.sqrt(lam)
            basis = [FrameVector(ORIGIN, 1, 0, 0), FrameVector(ORIGIN, 0, 1, 0),
                     FrameVector(ORIGIN, 0, 0, 1 / s)]
            for i, u in enumerate(basis):
                for j, w in enumerate(basis):
                    assert metric(lam, u, w) == pytest.approx(
                        1.0 if i == j else 0.0, abs=1e-15)

    def test_mismatched_base_points(self):
        v = FrameVector(ORIGIN, 1, 0, 0)
        w = FrameVector(Point(1, 0, 0), 1, 0, 0)
        with pytest.raises(ValueError):
            metric(1.0, v, w)


class TestConnection:
    def test_diagonal_vanishes(self):
        for lam in (0.5, 1.0, 4.0):
            assert connection_table(lam, "X", "X") == (0.0, 0.0, 0.0)
            assert connection_table(lam, "Y", "Y") == (0.0, 0.0, 0.0)
            assert connection_table(lam, "Z", "Z") == (0.0, 0.0, 0.0)

    def test_nabla_x_y_is_half_z(self):
        # Z-frame coefficient 1/2, i.e. (sqrt(lam)/2) on the unit vertical slot
        for lam in (0.5, 1.0, 4.0):
            assert connection_table(lam, "X", "Y") == (0.0, 0.0, 0.5)
            assert connection_table(lam, "Y", "X") == (0.0, 0.0, -0.5)

    def test_torsion_free(self):
        for lam in (0.5, 1.0, 4.0):
            dxy = connection_table(lam, "X", "Y")
            dyx = connection_table(lam, "Y", "X")
            assert tuple(a - b for a, b in zip(dxy, dyx)) == (0.0, 0.0, 1.0)

    def test_metric_compatibility(self):
        # coefficients of the unit frame are constant, so
        # <nabla_Ei Ej, Ek> + <Ej, nabla_Ei Ek> must vanish
        lam = 2.0
        s = math.sqrt(lam)
        unit = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0 / s)]
        for vi in unit:
            for j, vj in enumerate(unit):
                for k, vk in enumerate(unit):
                    dj = connection_bilinear(lam, vi, vj)
                    dk = connection_bilinear(lam, vi, vk)
                    val = sum(a * b * w for a, b, w in
                              zip(dj, vk, (1, 1, lam))) + \
                        sum(a * b * w for a, b, w in zip(vj, dk, (1, 1, lam)))
                    assert val == pytest.approx(0.0, abs=1e-15)

    def test_one_lambda_per_sample(self):
        # an array lambda broadcasts with the coefficients; each of its
        # elements must be positive and finite
        lams = np.array([0.5, 1.0, 4.0])
        v, w = (1.0, -2.0, 0.5), (np.array([0.3, -1.0, 2.0]), 0.7, -1.5)
        batch = connection_bilinear(lams, v, w)
        for k, lam in enumerate(lams):
            alone = connection_bilinear(float(lam), v, (w[0][k], w[1], w[2]))
            assert [comp[k] for comp in batch] == list(alone)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                connection_bilinear(np.array([1.0, bad, 4.0]), v, w)


class TestSectionalCurvature:
    def test_horizontal_plane(self):
        for lam in (0.5, 1.0, 4.0):
            v1 = FrameVector(ORIGIN, 1, 0, 0)
            v2 = FrameVector(ORIGIN, 0, 1, 0)
            assert sectional_curvature(lam, v1, v2) == pytest.approx(
                -0.75 * lam, abs=1e-13)

    def test_vertical_planes(self):
        for lam in (0.5, 1.0, 4.0):
            vx = FrameVector(ORIGIN, 1, 0, 0)
            vy = FrameVector(ORIGIN, 0, 1, 0)
            vz = FrameVector(ORIGIN, 0, 0, 1.0)
            assert sectional_curvature(lam, vx, vz) == pytest.approx(
                0.25 * lam, abs=1e-13)
            assert sectional_curvature(lam, vy, vz) == pytest.approx(
                0.25 * lam, abs=1e-13)

    def test_mixed_plane(self):
        # plane spanned by X and (Y + unit vertical)/sqrt(2): a^2 = b^2 = 1/2
        lam = 3.0
        s = math.sqrt(lam)
        v1 = FrameVector(ORIGIN, 1, 0, 0)
        v2 = FrameVector(ORIGIN, 0, 1 / math.sqrt(2), 1 / (s * math.sqrt(2)))
        assert sectional_curvature(lam, v1, v2) == pytest.approx(
            -0.25 * lam, abs=1e-13)

    def test_basis_independence(self):
        rng = np.random.default_rng(3)
        lam = 1.7
        for _ in range(20):
            v1 = FrameVector(ORIGIN, *rng.uniform(-1, 1, 3))
            v2 = FrameVector(ORIGIN, *rng.uniform(-1, 1, 3))
            k = sectional_curvature(lam, v1, v2)
            a, b, c, d = rng.uniform(-2, 2, 4)
            if abs(a * d - b * c) < 0.1:
                continue
            w1 = FrameVector(ORIGIN, *(a * u + b * w for u, w in
                                       zip(v1.coeffs(), v2.coeffs())))
            w2 = FrameVector(ORIGIN, *(c * u + d * w for u, w in
                                       zip(v1.coeffs(), v2.coeffs())))
            assert sectional_curvature(lam, w1, w2) == pytest.approx(k, abs=1e-10)

    def test_degenerate_span(self):
        v = FrameVector(ORIGIN, 1, 1, 0)
        with pytest.raises(ValueError):
            sectional_curvature(1.0, v, v)


class TestKilling:
    def test_f3_constant(self):
        f3 = KillingField(a3=1.0)
        for p in (ORIGIN, Point(3, -2, 1)):
            assert killing_eval(f3, p).coeffs() == (0.0, 0.0, 1.0)

    def test_f4_example(self):
        f4 = KillingField(a4=1.0)
        v = killing_eval(f4, Point(1, 0, 0))
        assert v.coeffs() == (0.0, 1.0, -0.5)

    def test_f1_origin(self):
        assert killing_eval(KillingField(a1=1.0), ORIGIN).coeffs() == (1.0, 0.0, 0.0)

    def test_z_coefficient_identity(self):
        k = KillingField(a1=0.5, a2=-1.5, a3=2.0)
        p = Point(1.2, -0.7, 3.0)
        v = killing_eval(k, p)
        assert v.cZ == pytest.approx(2.0 + 0.5 * p.y + 1.5 * p.x, abs=1e-15)

    def test_f3_only_constant_norm(self):
        pts = [Point(x, y, 0.0) for x in (-2, 0, 1.5) for y in (-1, 0.5, 2)]
        lam = 2.0

        def field_norm(i, p):
            v = killing_eval(KillingField(**{f"a{i}": 1.0}), p)
            return math.sqrt(metric(lam, v, v))

        norms = {i: [field_norm(i, p) for p in pts] for i in (1, 2, 3, 4)}
        assert np.var(norms[3]) == 0.0
        assert norms[3][0] == pytest.approx(math.sqrt(lam), abs=1e-15)
        for i in (1, 2, 4):
            assert np.var(norms[i]) > 0

    def test_killing_identity_finite_difference(self):
        rng = np.random.default_rng(5)
        for lam in (0.5, 2.0):
            for i in (1, 2, 3, 4):
                f = KillingField(**{f"a{i}": 1.0})
                for _ in range(5):
                    p = Point(*rng.uniform(-2, 2, 3))
                    u = FrameVector(p, *rng.uniform(-1, 1, 3))
                    w = FrameVector(p, *rng.uniform(-1, 1, 3))
                    du = covariant_derivative_fd(lam, lambda q: killing_eval(f, q), u)
                    dw = covariant_derivative_fd(lam, lambda q: killing_eval(f, q), w)
                    assert metric(lam, du, w) + metric(lam, dw, u) == \
                        pytest.approx(0.0, abs=1e-6)

    def test_one_lambda_per_sample(self):
        # metric and covariant_derivative_fd take an array lambda with array
        # coefficients, equal to the per-sample scalar calls bit for bit;
        # each element of lambda must be positive and finite
        rng = np.random.default_rng(9)
        lams = np.array([0.5, 1.0, 2.0, 4.0, 9.0])
        f = KillingField(*rng.uniform(-1, 1, (4, 5)))
        p = Point(*rng.uniform(-2, 2, (3, 5)))
        u = FrameVector(p, *rng.uniform(-1, 1, (3, 5)))
        w = FrameVector(p, *rng.uniform(-1, 1, (3, 5)))
        du = covariant_derivative_fd(lams, f, u)
        g = metric(lams, du, w)
        for k, lam in enumerate(lams):
            fk = KillingField(*(float(a[k]) for a in (f.a1, f.a2, f.a3, f.a4)))
            pk = Point(*(float(c[k]) for c in p.coords()))
            uk = FrameVector(pk, *(float(c[k]) for c in u.coeffs()))
            wk = FrameVector(pk, *(float(c[k]) for c in w.coeffs()))
            duk = covariant_derivative_fd(float(lam), fk, uk)
            assert [c[k] for c in du.coeffs()] == list(duk.coeffs())
            assert g[k] == metric(float(lam), duk, wk)
        for bad in (0.0, -1.0, math.nan, math.inf):
            bad_lams = np.array([1.0, bad, 4.0, 9.0, 2.0])
            with pytest.raises(ValueError, match="positive and finite"):
                metric(bad_lams, du, w)
            with pytest.raises(ValueError, match="positive and finite"):
                covariant_derivative_fd(bad_lams, f, u)

    def test_vertical_translation_field(self):
        lam = 4.0
        v = killing_eval(vertical_translation_field(lam), Point(1, 2, 3))
        assert v.coeffs() == (0.0, 0.0, 0.5)
        assert math.sqrt(metric(lam, v, v)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_lambda_outside_domain(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            vertical_translation_field(lam)


# the Killing fields whose flows sweep the families: grim (F1 + c F3),
# bowl and catenoid (F4), helicoid (F4 + pitch F3), planar grim (F3)
SWEEP_FIELDS = {"grim": KillingField(a1=1.0, a3=0.5), "rotation": KillingField(a4=1.0),
                "helicoid": KillingField(a3=-0.7, a4=1.0), "planar-grim": KillingField(a3=1.0)}


class TestKillingFlow:
    @staticmethod
    def sample_points():
        rng = np.random.default_rng(11)
        return Point(*rng.uniform(-2, 2, (3, 10)))

    @staticmethod
    def gap(p, q):
        return max(np.max(np.abs(a - b)) for a, b in zip(p.coords(), q.coords()))

    @pytest.mark.parametrize("name", SWEEP_FIELDS)
    def test_group_law(self, name):
        k, p = SWEEP_FIELDS[name], self.sample_points()
        u, v = 0.8, -1.9
        assert self.gap(killing_flow(k, u, killing_flow(k, v, p)),
                        killing_flow(k, u + v, p)) < 1e-12
        assert self.gap(killing_flow(k, -u, killing_flow(k, u, p)), p) < 1e-12

    @pytest.mark.parametrize("name", SWEEP_FIELDS)
    def test_generated_by_its_field(self, name):
        k, p = SWEEP_FIELDS[name], self.sample_points()
        h = 1e-5
        plus, minus = killing_flow(k, h, p), killing_flow(k, -h, p)
        velocity = killing_eval(k, p).coordinate_velocity()
        for a, b, v in zip(plus.coords(), minus.coords(), velocity):
            assert np.max(np.abs((a - b) / (2 * h) - v)) < 1e-8

    @pytest.mark.parametrize("name", SWEEP_FIELDS)
    def test_metric_preserved(self, name):
        # the flow is affine in the coordinates, so central differences give
        # its differential up to round-off
        k, lam, u, h = SWEEP_FIELDS[name], 2.5, 0.7, 1e-3
        rng = np.random.default_rng(9)

        def push(v):
            p, (vx, vy, vz) = v.base, v.coordinate_velocity()
            plus = killing_flow(k, u, Point(p.x + h * vx, p.y + h * vy, p.z + h * vz))
            minus = killing_flow(k, u, Point(p.x - h * vx, p.y - h * vy, p.z - h * vz))
            q = killing_flow(k, u, p)
            wx, wy, wz = ((a - b) / (2 * h) for a, b in zip(plus.coords(), minus.coords()))
            # coordinate basis to frame: d/dx = X + (y/2) Z, d/dy = Y - (x/2) Z
            return FrameVector(q, wx, wy, wz + 0.5 * q.y * wx - 0.5 * q.x * wy)

        for _ in range(10):
            p = Point(*rng.uniform(-2, 2, 3))
            v = FrameVector(p, *rng.uniform(-1, 1, 3))
            w = FrameVector(p, *rng.uniform(-1, 1, 3))
            assert metric(lam, push(v), push(w)) == pytest.approx(metric(lam, v, w), abs=1e-10)

    def test_shifted_rotation_rejected(self):
        with pytest.raises(ValueError, match="shifted axis"):
            killing_flow(KillingField(a1=1.0, a4=1.0), 0.5, Point(1.0, 2.0, 3.0))
