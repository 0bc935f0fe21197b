"""catoptrix: specular reflection on the unit-circle mirror.

Computes reflection points for finite source/observer pairs and for a plane
wave arriving along the real axis, the triangular ratio metric of the unit
disk with its maximal-ellipse parameters, and the family of parabola
directrices whose envelope is a limacon of Pascal. Every closed-form path is
paired with an independent brute-force oracle.
"""

from .envelope import (
    LineCoeffs,
    directrix,
    e1_isolated_point,
    envelope_implicit,
    envelope_param,
    limacon_residual,
    mirror_point,
    point_line_distance,
    tangency_point,
    tangent_line,
    valid_arc,
)
from .errors import (
    CatoptrixError,
    CoincidentPoints,
    DegenerateLeadingCoefficient,
    InvalidFocus,
    InvalidObserver,
    NoConvergence,
    NonFinitePoint,
    NoRootOnCircle,
    NotOnCircle,
    PointInsideDomain,
    PointOutsideDomain,
    RootAtOne,
    ShadowRegion,
)
from .infinity import (
    InfinityResult,
    ObserverPolar,
    infinity_quartic_coeffs,
    infinity_reflection,
    mobius_real_image,
    verify_circle_theorem,
)
from .interior import (
    EllipseParams,
    ReflectionResult,
    ellipse_params,
    exterior_reflection,
    interior_quartic_coeffs,
    minimizing_root,
    s_metric,
)
from .numeric import DEFAULT_TOLERANCES, Tolerances, on_unit_circle, unit_from_angle
from .oracle import (
    OracleConfig,
    golden_section_min,
    oracle_infinity_path,
    oracle_quartic_discriminant,
    oracle_smetric,
)
from .quartic import (
    QuarticCoeffs,
    RealQuarticNature,
    RootNature,
    RootSet,
    infinity_real_coeffs,
    polished_roots,
    real_quartic_invariants,
    solve_quartic,
)

__version__ = "0.1.0"

__all__ = [
    "CatoptrixError",
    "CoincidentPoints",
    "DEFAULT_TOLERANCES",
    "DegenerateLeadingCoefficient",
    "EllipseParams",
    "InfinityResult",
    "InvalidFocus",
    "InvalidObserver",
    "LineCoeffs",
    "NoConvergence",
    "NonFinitePoint",
    "NoRootOnCircle",
    "NotOnCircle",
    "ObserverPolar",
    "OracleConfig",
    "PointInsideDomain",
    "PointOutsideDomain",
    "QuarticCoeffs",
    "RealQuarticNature",
    "ReflectionResult",
    "RootAtOne",
    "RootNature",
    "RootSet",
    "ShadowRegion",
    "Tolerances",
    "directrix",
    "e1_isolated_point",
    "ellipse_params",
    "envelope_implicit",
    "envelope_param",
    "exterior_reflection",
    "golden_section_min",
    "infinity_quartic_coeffs",
    "infinity_real_coeffs",
    "infinity_reflection",
    "interior_quartic_coeffs",
    "limacon_residual",
    "minimizing_root",
    "mirror_point",
    "mobius_real_image",
    "on_unit_circle",
    "oracle_infinity_path",
    "oracle_quartic_discriminant",
    "oracle_smetric",
    "point_line_distance",
    "polished_roots",
    "real_quartic_invariants",
    "s_metric",
    "solve_quartic",
    "tangency_point",
    "tangent_line",
    "unit_from_angle",
    "valid_arc",
    "verify_circle_theorem",
]
