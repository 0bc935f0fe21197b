"""catoptrix: specular reflection on the unit-circle mirror.

Computes reflection points for finite source/observer pairs and for a plane
wave arriving along the real axis, the triangular ratio metric of the unit
disk with its maximal-ellipse parameters, and the family of parabola
directrices whose envelope is a limacon of Pascal. Every closed-form path is
paired with an independent brute-force oracle.

``import catoptrix`` loads none of the modules below. Each public name is
imported from the module that defines it on first use (PEP 562), so
``from catoptrix import minimizing_root`` loads only ``interior`` and what
it imports, and a script or CLI command pays only for what it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "envelope": (
        "LineCoeffs", "directrix", "e1_isolated_point", "envelope_implicit",
        "envelope_param", "limacon_residual", "mirror_point",
        "point_line_distance", "tangency_point", "tangent_line", "valid_arc",
    ),
    "errors": (
        "CatoptrixError", "CoincidentPoints", "DegenerateLeadingCoefficient",
        "InvalidFocus", "InvalidObserver", "NoConvergence", "NonFinitePoint",
        "NoRootOnCircle", "NotOnCircle", "PointInsideDomain",
        "PointOutsideDomain", "RootAtOne", "ShadowRegion",
    ),
    "infinity": (
        "InfinityResult", "ObserverPolar", "infinity_quartic_coeffs",
        "infinity_reflection", "mobius_real_image", "verify_circle_theorem",
    ),
    "interior": (
        "EllipseParams", "ReflectionResult", "ellipse_params",
        "exterior_reflection", "interior_quartic_coeffs", "minimizing_root",
        "s_metric",
    ),
    "numeric": ("DEFAULT_TOLERANCES", "Tolerances", "on_unit_circle", "unit_from_angle"),
    "oracle": (
        "OracleConfig", "golden_section_min", "oracle_infinity_path",
        "oracle_quartic_discriminant", "oracle_smetric",
    ),
    "quartic": (
        "QuarticCoeffs", "RealQuarticNature", "RootNature", "RootSet",
        "infinity_real_coeffs", "polished_roots", "real_quartic_invariants",
        "solve_quartic",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
