"""Reflection on the unit-circle mirror for finite source and observer.

Solves the degree-4 reflection equation, selects the minimizing root (the
boundary point minimizing the focal sum |z1 - w| + |z2 - w|), and derives the
triangular ratio metric and the parameters of the maximal inscribed ellipse.
The exterior variant keeps the same equation but additionally requires both
sight segments to clear the mirror. Both select with numeric._argmin_on_circle,
with the focal sum as the cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    CoincidentPoints,
    NonFinitePoint,
    NoRootOnCircle,
    PointInsideDomain,
    PointOutsideDomain,
)
from .numeric import (
    _COINCIDENT_EPS,
    _argmin_on_circle,
    ensure_point,
    on_unit_circle,
    segment_clears_disk,
)
from .quartic import QuarticCoeffs, RootSet, polished_roots, solve_quartic

__all__ = [
    "ReflectionResult",
    "EllipseParams",
    "interior_quartic_coeffs",
    "minimizing_root",
    "s_metric",
    "ellipse_params",
    "exterior_reflection",
]


@dataclass(frozen=True)
class ReflectionResult:
    """Chosen reflection point with full diagnostics.

    w                    selected boundary point (projected onto the circle)
    s_value              |z1 - z2| / focal_sum, in [0, 1]; it rounds to 1 only
                         for a point about an ulp from the rim
    focal_sum            |z1 - w| + |z2 - w|
    candidates           every root of the reflection polynomial
    on_circle_mask       which candidates passed the unit-circle test
    reflection_residual  |Im((z1 - w)(z2 - w) / w^2)|, zero at an exact root
    tie_indices          candidate indices attaining the minimal focal sum
    degree_dropped       true when the polynomial lost its quartic term
    """

    w: complex
    s_value: float
    focal_sum: float
    candidates: RootSet
    on_circle_mask: tuple[bool, ...]
    reflection_residual: float
    tie_indices: tuple[int, ...]
    degree_dropped: bool


@dataclass(frozen=True)
class EllipseParams:
    """Maximal inscribed ellipse with foci z1, z2: focal sum c, semiaxes
    major = c/2 and minor = sqrt(c^2 - |z1 - z2|^2)/2, and eccentricity."""

    focal_sum: float
    major: float
    minor: float
    eccentricity: float


def interior_quartic_coeffs(z1: complex, z2: complex) -> QuarticCoeffs:
    """Reflection equation for finite points:

        conj(z1)*conj(z2)*w^4 - (conj(z1) + conj(z2))*w^3
            + (z1 + z2)*w - z1*z2 = 0.

    Defined for any finite pair; the range checks live in the solvers.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    return QuarticCoeffs(
        c4=z1.conjugate() * z2.conjugate(),
        c3=-(z1.conjugate() + z2.conjugate()),
        c2=0j,
        c1=z1 + z2,
        c0=-z1 * z2,
    )


def _reflection_residual(z1: complex, z2: complex, w: complex) -> float:
    return abs((((z1 - w) * (z2 - w)) / (w * w)).imag)


def _reflect(
    z1: complex, z2: complex, keep: Optional[Callable[[complex], bool]] = None
) -> Optional[ReflectionResult]:
    """The pair's root of least focal sum that keep accepts, or None; the
    callers check the domain."""
    d = abs(z1 - z2)
    if d < _COINCIDENT_EPS:
        raise CoincidentPoints("points coincide")
    q = interior_quartic_coeffs(z1, z2)
    dropped = q.c4 == 0
    if dropped:
        # one point at the origin: the quartic term vanishes and the cubic
        # remainder is exact, so solve it directly instead of perturbing
        roots = polished_roots((q.c3, q.c2, q.c1, q.c0))
    else:
        roots = solve_quartic(q)
    mask = tuple([on_unit_circle(w) for w in roots.roots])
    sel = _argmin_on_circle(roots.roots, mask, lambda wp: abs(z1 - wp) + abs(z2 - wp), keep)
    if sel is None:
        return None
    w, fs, ties = sel
    # the focal sum can round an ulp below |z1 - z2| for a point about an ulp
    # from the rim; the triangle inequality bounds it, so s <= 1 and the
    # ellipse's c^2 - d^2 >= 0 hold exactly
    fs = max(fs, d)
    return ReflectionResult(
        w=w,
        s_value=d / fs,
        focal_sum=fs,
        candidates=roots,
        on_circle_mask=mask,
        reflection_residual=_reflection_residual(z1, z2, w),
        tie_indices=ties,
        degree_dropped=dropped,
    )


def minimizing_root(z1: complex, z2: complex) -> ReflectionResult:
    """Reflection point for two points inside the unit disk.

    Among the on-circle roots of the reflection equation, returns the one
    minimizing the focal sum |z1 - w| + |z2 - w|. Focal sums within 1e-10 of
    the least tie; the tie is broken toward the largest imaginary part, then
    the largest real part, and the whole tie set is reported in tie_indices.

    A point at distance e from the origin gives the equation roots of moduli
    about e, 1, 1 and 1/e. The pair answers for e down to about 1e-77; below
    that, (1/e)^4 overflows float64 in the residual bound and the solve
    raises NoConvergence. A point exactly at the origin drops the quartic
    term and always answers.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        raise PointOutsideDomain("both points must lie in the open unit disk")
    result = _reflect(z1, z2)
    if result is None:
        raise NoRootOnCircle("no root passed the unit-circle test")
    return result


def s_metric(z1: complex, z2: complex) -> float:
    """Triangular ratio metric of the unit disk; 0 for coincident points."""
    try:
        return minimizing_root(z1, z2).s_value
    except CoincidentPoints:
        return 0.0


def ellipse_params(z1: complex, z2: complex) -> EllipseParams:
    """Parameters of the maximal inscribed ellipse with foci z1, z2.

    The eccentricity equals the triangular ratio metric of the pair.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    return _ellipse_of(minimizing_root(z1, z2), z1, z2)


def _ellipse_of(result: ReflectionResult, z1: complex, z2: complex) -> EllipseParams:
    """The maximal inscribed ellipse of a solved pair of validated points,
    without solving again."""
    c = result.focal_sum
    d = abs(z1 - z2)
    # the eccentricity d / c is s itself, so it keeps s's digits
    return EllipseParams(
        focal_sum=c, major=c / 2.0, minor=0.5 * math.sqrt((c - d) * (c + d)), eccentricity=result.s_value
    )


def exterior_reflection(z1: complex, z2: complex) -> Optional[ReflectionResult]:
    """Reflection point for two points outside the closed unit disk.

    Same equation and selection as the interior problem, restricted to roots
    both endpoints can actually see: the open segments [z1, w] and [z2, w]
    must not enter the open unit disk. Returns None when no on-circle root is
    visible (the mirror occludes every candidate path).

    The equation's end coefficients have modulus |z1|*|z2|, so that product
    must stay finite in float64 (at most about 1.8e308); a farther pair
    raises NonFinitePoint naming the pair.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    try:
        r1, r2 = abs(z1), abs(z2)
    except OverflowError:  # a modulus past float64; hypot gives inf instead
        r1, r2 = math.hypot(z1.real, z1.imag), math.hypot(z2.real, z2.imag)
    if r1 <= 1.0 or r2 <= 1.0:
        raise PointInsideDomain("both points must lie outside the closed unit disk")
    if r1 * r2 > sys.float_info.max:
        raise NonFinitePoint(
            f"exterior pair z1={z1!r}, z2={z2!r} is out of float64 range: "
            f"|z1|*|z2| must not exceed {sys.float_info.max!r}"
        )

    def visible(wp: complex) -> bool:
        return segment_clears_disk(z1, wp) and segment_clears_disk(z2, wp)

    return _reflect(z1, z2, visible)
