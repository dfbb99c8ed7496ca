"""Group structure, metric family, Killing fields and their flows of Nil3.

Nil3 is R^3 with the group law
    (x1,y1,z1) * (x2,y2,z2) = (x1+x2, y1+y2, z1+z2+(x1*y2-x2*y1)/2)
and the left-invariant frame
    X = d/dx - (y/2) d/dz,  Y = d/dy + (x/2) d/dz,  Z = d/dz.
For lam > 0 the metric g_lam is the one making (X, Y, lam^{-1/2} Z)
orthonormal, i.e. <v, w> = cX_v*cX_w + cY_v*cY_w + lam*cZ_v*cZ_w in frame
coefficients.  All tangent vectors in this package are stored as frame
coefficients at a base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point:
    """A point of Nil3 in global coordinates (or arrays of points, one per
    sample, for the array-valued surface kernel and group law)."""

    x: float
    y: float
    z: float

    def coords(self):
        return (self.x, self.y, self.z)


ORIGIN = Point(0.0, 0.0, 0.0)


def group_mul(p: Point, q: Point) -> Point:
    """Group law of Nil3."""
    return Point(
        p.x + q.x,
        p.y + q.y,
        p.z + q.z + 0.5 * (p.x * q.y - q.x * p.y),
    )


def group_inv(p: Point) -> Point:
    """Group inverse; coordinate negation (the cross term cancels)."""
    return Point(-p.x, -p.y, -p.z)


@dataclass(frozen=True)
class FrameVector:
    """Tangent vector at ``base`` in left-invariant frame coefficients (X, Y, Z)."""

    base: Point
    cX: float
    cY: float
    cZ: float

    def coeffs(self):
        return (self.cX, self.cY, self.cZ)

    def coordinate_velocity(self):
        """Components in the coordinate basis (d/dx, d/dy, d/dz)."""
        x, y = self.base.x, self.base.y
        return (
            self.cX,
            self.cY,
            self.cZ - 0.5 * y * self.cX + 0.5 * x * self.cY,
        )


def metric(lam, v: FrameVector, w: FrameVector) -> float:
    """Inner product g_lam(v, w); v and w must share the same base point.

    The frame (X, Y, lam^{-1/2} Z) is orthonormal, hence ||Z||^2 = lam.
    ``lam`` may be an array, one lambda per sample (see ``_lam_value``).
    """
    lam = _lam_value(lam)
    if v.base != w.base:
        raise ValueError("frame vectors have different base points")
    return _dot(lam, v.coeffs(), w.coeffs())


def _lam_value(lam):
    """``lam`` as a float, or as a float array when it is an array (one
    lambda per sample); raises ValueError unless every element is positive
    and finite."""
    if np.ndim(lam) == 0:
        lam = float(lam)
        valid = 0.0 < lam < math.inf
    else:
        lam = np.asarray(lam, dtype=float)
        valid = np.all((0.0 < lam) & (lam < math.inf))
    if not valid:
        raise ValueError("lambda must be positive and finite")
    return lam


def connection_bilinear(lam, v_coeffs, w_coeffs):
    """Pointwise bilinear part of the Levi-Civita connection in frame coefficients.

    For left-invariant extensions of v = (a1,b1,c1) and w = (a2,b2,c2):
        Gamma(v, w) = ( (lam/2)(b2 c1 + b1 c2),
                       -(lam/2)(a2 c1 + a1 c2),
                        (1/2)(a1 b2 - a2 b1) ).
    The full covariant derivative adds the directional derivative of the
    coefficients of w along v.  ``lam`` may be an array that broadcasts with
    the coefficients, one lambda per sample.
    """
    lam = _lam_value(lam)
    a1, b1, c1 = v_coeffs
    a2, b2, c2 = w_coeffs
    return (
        0.5 * lam * (b2 * c1 + b1 * c2),
        -0.5 * lam * (a2 * c1 + a1 * c2),
        0.5 * (a1 * b2 - a2 * b1),
    )


_FRAME_INDEX = {"X": 0, "Y": 1, "Z": 2}


def connection_table(lam, i: str, j: str):
    """Frame coefficients (X, Y, Z) of nabla_{E_i} E_j for E in (X, Y, lam^{-1/2}Z).

    Indices are the strings "X", "Y", "Z", the latter meaning the unit
    vertical direction lam^{-1/2} Z.
    """
    lam = _lam_value(lam)
    s = math.sqrt(lam)
    unit = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0 / s)]
    try:
        vi = unit[_FRAME_INDEX[i]]
        vj = unit[_FRAME_INDEX[j]]
    except KeyError as exc:
        raise ValueError(f"frame index must be X, Y or Z, got {i!r}, {j!r}") from exc
    return connection_bilinear(lam, vi, vj)


def sectional_curvature(lam, v1: FrameVector, v2: FrameVector) -> float:
    """Sectional curvature of the plane spanned by v1, v2.

    Reduces to an orthonormal basis (W1, W2 = a*U + b*lam^{-1/2}Z) with W1, U
    horizontal and returns lam*(b^2 - 3a^2)/4.
    """
    lam = _lam_value(lam)
    if v1.base != v2.base:
        raise ValueError("frame vectors have different base points")
    base = v1.base
    u = list(v1.coeffs())
    w = list(v2.coeffs())
    # Gram-Schmidt under g_lam.
    g11 = _dot(lam, u, u)
    if g11 < 1e-24:
        raise ValueError("degenerate span")
    u = [c / math.sqrt(g11) for c in u]
    proj = _dot(lam, u, w)
    w = [wc - proj * uc for wc, uc in zip(w, u)]
    g22 = _dot(lam, w, w)
    if g22 < 1e-24:
        raise ValueError("degenerate span")
    w = [c / math.sqrt(g22) for c in w]
    # Rotate inside the plane so the first basis vector is horizontal.  The
    # Z-coefficients here are w.r.t. the unit vertical, i.e. sqrt(lam)*cZ.
    zu, zw = math.sqrt(lam) * u[2], math.sqrt(lam) * w[2]
    if abs(zu) > 1e-15 or abs(zw) > 1e-15:
        nrm = math.hypot(zu, zw)
        h = [(zw * uc - zu * wc) / nrm for uc, wc in zip(u, w)]  # horizontal, unit
        v = [(zu * uc + zw * wc) / nrm for uc, wc in zip(u, w)]  # complement in plane
        u, w = h, v
    b = math.sqrt(lam) * w[2]  # component along the unit vertical lam^{-1/2}Z
    a2 = w[0] ** 2 + w[1] ** 2
    return 0.25 * lam * (b * b - 3.0 * a2)


def _dot(lam, u, w):
    return u[0] * w[0] + u[1] * w[1] + lam * u[2] * w[2]


@dataclass(frozen=True)
class KillingField:
    """Linear combination a1*F1 + a2*F2 + a3*F3 + a4*F4 of the Killing basis.

    F1 = X + y Z, F2 = Y - x Z, F3 = Z, F4 = -y X + x Y - ((x^2+y^2)/2) Z.
    """

    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0

    def __call__(self, p: Point) -> FrameVector:
        return killing_eval(self, p)


def vertical_translation_field(lam) -> KillingField:
    """The unit-speed vertical field lam^{-1/2} Z driving vertical translators."""
    return KillingField(a3=1.0 / math.sqrt(_lam_value(lam)))


def killing_eval(k: KillingField, p: Point) -> FrameVector:
    x, y = p.x, p.y
    cX = k.a1 - k.a4 * y
    cY = k.a2 + k.a4 * x
    cZ = k.a1 * y - k.a2 * x + k.a3 - 0.5 * k.a4 * (x * x + y * y)
    return FrameVector(p, cX, cY, cZ)


def killing_flow(k: KillingField, u, p: Point) -> Point:
    """Move ``p`` for time ``u`` along the flow of ``k``; ``u`` and the
    coordinates of ``p`` may be arrays that broadcast.

    With a4 = 0 the flow is the left translation by u*(a1, a2, a3); with
    a1 = a2 = 0 it is the rotation by a4*u about the z-axis, lifted by a3*u.
    The remaining fields rotate about a shifted axis, which no family uses.
    """
    if k.a4 == 0:
        return group_mul(Point(k.a1 * u, k.a2 * u, k.a3 * u), p)
    if k.a1 == 0 and k.a2 == 0:
        angle = k.a4 * u
        c, s = np.cos(angle), np.sin(angle)
        return Point(c * p.x - s * p.y, s * p.x + c * p.y, p.z + k.a3 * u)
    raise ValueError(f"no flow for {k}: rotations about a shifted axis are not supported")


def covariant_derivative_fd(lam, field, v: FrameVector) -> FrameVector:
    """Covariant derivative nabla_v F of a vector field by central differences.

    ``field`` maps Point -> FrameVector.  The coefficient derivative is taken
    along the coordinate straight line with velocity v; step h = 1e-4 balances
    truncation against round-off for 1e-6 test tolerances.  ``lam``, the
    coefficients of v and the coordinates of its base may be arrays, one
    sample per element.
    """
    lam = _lam_value(lam)
    h = 1e-4
    p = v.base
    vx, vy, vz = v.coordinate_velocity()
    pp = Point(p.x + h * vx, p.y + h * vy, p.z + h * vz)
    pm = Point(p.x - h * vx, p.y - h * vy, p.z - h * vz)
    fp, fm = field(pp), field(pm)
    dcoeffs = [(a - b) / (2 * h) for a, b in zip(fp.coeffs(), fm.coeffs())]
    gamma = connection_bilinear(lam, v.coeffs(), field(p).coeffs())
    return FrameVector(p, *(d + g for d, g in zip(dcoeffs, gamma)))
