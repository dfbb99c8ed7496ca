"""Invariant vertical translators of the Heisenberg group Nil3.

Numerical construction and verification of the translating solitons of mean
curvature flow in (Nil3, g_lam) that are invariant under a one-parameter
group of isometries: tilted grim reapers, the bowl, translating catenoids,
helicoidal translators and the planar grim reaper cylinders, together with
their asymptotic expansions and large-lambda limits.
"""

from .core import (
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
from .surface import (
    GraphJet,
    PatchJet,
    ShapeData,
    ambient_tangent_curvature,
    gaussian_curvature,
    graph_shape,
    intrinsic_curvature,
    is_characteristic,
    patch_covariant,
    patch_shape,
    translator_residual,
)
from .ode import (
    OdeProblem,
    Solution,
    Trajectory,
    integrate,
)
from .asymptotics import (
    AsymptoticFit,
    HorizontalLimit,
    LimitReport,
    classify_regime,
    fit_rotational_asymptotics,
    grim_endpoint_fit,
    horizontal_mean_curvature,
    radial_linear_closed_form,
)
from .families import (
    GrimReaperParams,
    HelicoidParams,
    Mesh,
    ProfileCurve,
    SlabData,
    grim_reaper_closed_form,
    grim_reaper_rhs,
    helicoid_curvature,
    planar_grim_reaper,
    rotational_rhs,
    slab,
    solve_bowl,
    solve_catenoid,
    solve_grim_reaper,
    solve_helicoid,
    sweep_surface,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
