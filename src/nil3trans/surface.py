"""Fundamental forms, normals and curvatures of surfaces in (Nil3, g_lam).

Two pipelines are provided:

* ``graph_shape`` for horizontal graphs z = u(x, y), using the closed-form
  first/second fundamental form in terms of alpha = u_x + y/2 and
  beta = u_y - x/2;
* ``patch_shape`` for general parametrized patches, from a ``PatchJet``
  holding the frame coefficients of the tangent basis and their parameter
  derivatives.

The mean curvature convention is H = tr(A g^{-1}) (sum of the principal
curvatures).  Normals are oriented along G^{-1}(V1 x V2), where G is the
frame Gram matrix diag(1, 1, lam); for graphs this gives the normal with
positive Z-coefficient.

The kernel is array-valued: every jet field may be a float or a numpy array
(all arrays of one shape, one jet per sample), and every returned quantity
then has that shape.  A float jet is the 0-d case of the same formulas, so
one call shapes a whole sampled profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FrameVector,
    KillingField,
    Point,
    _dot,
    connection_bilinear,
    killing_eval,
    metric,
)


@dataclass(frozen=True)
class GraphJet:
    """Second-order jet of a horizontal graph z = u(x, y) at one point or
    at an array of points."""

    x: float
    y: float
    u: float
    u_x: float
    u_y: float
    u_xx: float
    u_xy: float
    u_yy: float

    @property
    def alpha(self) -> float:
        return self.u_x + 0.5 * self.y

    @property
    def beta(self) -> float:
        return self.u_y - 0.5 * self.x

    @property
    def point(self) -> Point:
        return Point(self.x, self.y, self.u)


@dataclass(frozen=True)
class PatchJet:
    """First-order data of a parametrized patch at one point or at an array
    of points.

    ``v1`` and ``v2`` are the frame coefficients (a_i, b_i, c_i) of the
    tangent basis, ``d1``/``d2`` the derivatives of those coefficients in the
    two parameter directions: d1 = (da1, db1, dc1, da2, db2, dc2)/dv1 etc.
    """

    point: Point
    v1: tuple
    v2: tuple
    d1: tuple
    d2: tuple


@dataclass(frozen=True)
class ShapeData:
    """Induced metric, second fundamental form, mean curvature and unit normal."""

    g: tuple  # ((g11, g12), (g12, g22))
    A: tuple  # ((h11, h12), (h12, h22))
    H: float
    normal: FrameVector


def graph_shape(lam: float, jet: GraphJet) -> ShapeData:
    """Shape data of a horizontal graph from its second-order jet."""
    a, b = jet.alpha, jet.beta
    w2 = 1.0 + lam * (a * a + b * b)
    g = ((1.0 + a * a * lam, a * b * lam), (a * b * lam, 1.0 + b * b * lam))
    s = lam / np.sqrt(lam * w2)
    A = (
        (s * (jet.u_xx + a * b * lam), s * (jet.u_xy + 0.5 * lam * (b * b - a * a))),
        (s * (jet.u_xy + 0.5 * lam * (b * b - a * a)), s * (jet.u_yy - a * b * lam)),
    )
    H = (
        np.sqrt(lam)
        / (w2 * np.sqrt(w2))
        * (
            jet.u_xx * (1.0 + b * b * lam)
            + jet.u_yy * (1.0 + a * a * lam)
            - 2.0 * jet.u_xy * a * b * lam
        )
    )
    nrm = np.sqrt(lam * w2)
    normal = FrameVector(jet.point, -a * lam / nrm, -b * lam / nrm, 1.0 / nrm)
    return ShapeData(g=g, A=A, H=H, normal=normal)


def patch_covariant(lam: float, jet: PatchJet, i: int, j: int) -> FrameVector:
    """Ambient covariant derivative nabla_{V_i} V_j of the tangent basis.

    Indices are 1-based.  Components: the X-coefficient is
    da_j/dv_i + (lam/2)(b_j c_i + b_i c_j), and cyclically per the connection.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("patch indices must be 1 or 2")
    vi = jet.v1 if i == 1 else jet.v2
    vj = jet.v1 if j == 1 else jet.v2
    di = jet.d1 if i == 1 else jet.d2
    dvj = di[0:3] if j == 1 else di[3:6]
    gamma = connection_bilinear(lam, vi, vj)
    return FrameVector(jet.point, *(d + g for d, g in zip(dvj, gamma)))


def patch_shape(lam, jet: PatchJet) -> ShapeData:
    """Shape data of a general patch; normal oriented along G^{-1}(V1 x V2).

    ``lam`` may be an array that broadcasts with the jet, one lambda per
    sample, so that one call shapes samples of different metrics.
    """
    v1, v2 = jet.v1, jet.v2
    g11 = _dot(lam, v1, v1)
    g12 = _dot(lam, v1, v2)
    g22 = _dot(lam, v2, v2)
    det_g = g11 * g22 - g12 * g12
    if np.any(det_g <= 1e-12 * np.maximum(1.0, g11 * g22)):
        raise RuntimeError("tangent basis is (numerically) degenerate")
    w = _cross(v1, v2)
    n = (w[0], w[1], w[2] / lam)
    n_norm = np.sqrt(_dot(lam, n, n))
    n = tuple(c / n_norm for c in n)
    normal = FrameVector(jet.point, *n)
    h = [[_dot(lam, patch_covariant(lam, jet, i, j).coeffs(), n) for j in (1, 2)]
         for i in (1, 2)]
    h12 = 0.5 * (h[0][1] + h[1][0])  # symmetrize round-off
    A = ((h[0][0], h12), (h12, h[1][1]))
    H = (A[0][0] * g22 - 2.0 * A[0][1] * g12 + A[1][1] * g11) / det_g
    return ShapeData(
        g=((g11, g12), (g12, g22)),
        A=A,
        H=H,
        normal=normal,
    )


def _cross(u, w):
    return (
        u[1] * w[2] - u[2] * w[1],
        u[2] * w[0] - u[0] * w[2],
        u[0] * w[1] - u[1] * w[0],
    )


def gaussian_curvature(shape: ShapeData) -> float:
    """Extrinsic Gaussian curvature det(A g^{-1})."""
    (g11, g12), (_, g22) = shape.g
    det_g = g11 * g22 - g12 * g12
    if np.any(det_g == 0.0):
        raise ValueError("singular induced metric")
    (a11, a12), (_, a22) = shape.A
    return (a11 * a22 - a12 * a12) / det_g


def ambient_tangent_curvature(lam: float, jet: GraphJet) -> float:
    """Sectional curvature of the ambient plane tangent to a graph.

    Equals lam*(lam*alpha^2 + lam*beta^2 - 3) / (4*(1 + lam*alpha^2 +
    lam*beta^2)); at a characteristic point (alpha = beta = 0) the tangent
    plane is horizontal and the value reduces to -3*lam/4.
    """
    a, b = jet.alpha, jet.beta
    s = lam * (a * a + b * b)
    return 0.25 * lam * (s - 3.0) / (1.0 + s)


def intrinsic_curvature(lam: float, jet: GraphJet, shape: ShapeData) -> float:
    """Intrinsic (Gauss) curvature via the Gauss equation."""
    return ambient_tangent_curvature(lam, jet) + gaussian_curvature(shape)


def is_characteristic(jet: GraphJet) -> bool:
    """True when the tangent plane coincides with the horizontal distribution,
    to round-off: alpha^2 + beta^2 <= 1e-12."""
    a, b = jet.alpha, jet.beta
    return a * a + b * b <= 1e-12


def translator_residual(lam: float, shape: ShapeData, killing: KillingField) -> float:
    """Soliton defect H - g_lam(normal, V) at the base point of the normal.

    Vanishes exactly on a translator moving along the Killing field V; for
    vertical translators V = lam^{-1/2} Z.
    """
    v = killing_eval(killing, shape.normal.base)
    return shape.H - metric(lam, shape.normal, v)
