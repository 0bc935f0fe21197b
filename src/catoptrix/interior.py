"""Reflection on the unit-circle mirror for finite source and observer.

Solves the degree-4 reflection equation, selects the minimizing root (the
boundary point minimizing the focal sum |z1 - w| + |z2 - w|), and derives the
triangular ratio metric and the parameters of the maximal inscribed ellipse.
The exterior variant keeps the same equation but additionally requires both
sight segments to clear the mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import (
    CoincidentPoints,
    NoRootOnCircle,
    PointInsideDomain,
    PointOutsideDomain,
)
from .numeric import (
    DEFAULT_TOLERANCES,
    Tolerances,
    ensure_point,
    on_unit_circle,
    project_to_circle,
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

_COINCIDENT_EPS = 1e-14
_FOCAL_TIE_EPS = 1e-10


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


def _candidate_roots(z1: complex, z2: complex, tol: Tolerances) -> tuple[RootSet, bool]:
    q = interior_quartic_coeffs(z1, z2)
    if q.c4 == 0:
        # one point at the origin: the quartic term vanishes and the cubic
        # remainder is exact, so solve it directly instead of perturbing
        return polished_roots((q.c3, q.c2, q.c1, q.c0), tol), True
    return solve_quartic(q, tol), False


def _select_minimizing(
    z1: complex,
    z2: complex,
    roots: RootSet,
    tol: Tolerances,
    visible: Optional[Callable[[complex], bool]] = None,
) -> Optional[tuple[complex, float, tuple[bool, ...], tuple[int, ...]]]:
    mask = tuple(on_unit_circle(w, tol) for w in roots.roots)
    best: list[tuple[int, complex, float]] = []
    for k, w in enumerate(roots.roots):
        if not mask[k]:
            continue
        wp = project_to_circle(w)
        if visible is not None and not visible(wp):
            continue
        best.append((k, wp, abs(z1 - wp) + abs(z2 - wp)))
    if not best:
        return None
    fs_min = min(t[2] for t in best)
    ties = [t for t in best if t[2] <= fs_min + _FOCAL_TIE_EPS]
    # deterministic pick among equal focal sums: largest Im, then largest Re
    k, w, fs = max(ties, key=lambda t: (t[1].imag, t[1].real))
    return w, fs, mask, tuple(t[0] for t in ties)


def _result(
    z1: complex,
    z2: complex,
    roots: RootSet,
    dropped: bool,
    sel: tuple[complex, float, tuple[bool, ...], tuple[int, ...]],
) -> ReflectionResult:
    w, fs, mask, ties = sel
    # the focal sum can round an ulp below |z1 - z2| for a point about an ulp
    # from the rim; the triangle inequality bounds it, so s <= 1 and the
    # ellipse's c^2 - d^2 >= 0 hold exactly
    d = abs(z1 - z2)
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


def minimizing_root(
    z1: complex, z2: complex, tol: Tolerances = DEFAULT_TOLERANCES
) -> ReflectionResult:
    """Reflection point for two points inside the unit disk.

    Among the on-circle roots of the reflection equation, returns the one
    minimizing the focal sum |z1 - w| + |z2 - w|. Ties are broken toward the
    largest imaginary part, then the largest real part; the whole tie set is
    reported in tie_indices.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        raise PointOutsideDomain("both points must lie in the open unit disk")
    if abs(z1 - z2) < _COINCIDENT_EPS:
        raise CoincidentPoints("points coincide")
    roots, dropped = _candidate_roots(z1, z2, tol)
    sel = _select_minimizing(z1, z2, roots, tol)
    if sel is None:
        raise NoRootOnCircle("no root passed the unit-circle test")
    return _result(z1, z2, roots, dropped, sel)


def s_metric(z1: complex, z2: complex, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Triangular ratio metric of the unit disk; 0 for coincident points."""
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        raise PointOutsideDomain("both points must lie in the open unit disk")
    if abs(z1 - z2) < _COINCIDENT_EPS:
        return 0.0
    return minimizing_root(z1, z2, tol).s_value


def ellipse_params(
    z1: complex, z2: complex, tol: Tolerances = DEFAULT_TOLERANCES
) -> EllipseParams:
    """Parameters of the maximal inscribed ellipse with foci z1, z2.

    The eccentricity equals the triangular ratio metric of the pair.
    """
    return _ellipse_of(minimizing_root(z1, z2, tol), z1, z2)


def _ellipse_of(result: ReflectionResult, z1: complex, z2: complex) -> EllipseParams:
    """The maximal inscribed ellipse of a solved pair, without solving again."""
    c = result.focal_sum
    d = abs(ensure_point(z1) - ensure_point(z2))
    major = c / 2.0
    minor = 0.5 * math.sqrt(c * c - d * d)
    ecc = math.sqrt(1.0 - (minor / major) ** 2)
    return EllipseParams(focal_sum=c, major=major, minor=minor, eccentricity=ecc)


def exterior_reflection(
    z1: complex, z2: complex, tol: Tolerances = DEFAULT_TOLERANCES
) -> Optional[ReflectionResult]:
    """Reflection point for two points outside the closed unit disk.

    Same equation and selection as the interior problem, restricted to roots
    both endpoints can actually see: the open segments [z1, w] and [z2, w]
    must not enter the open unit disk. Returns None when no on-circle root is
    visible (the mirror occludes every candidate path).
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    if abs(z1) <= 1.0 or abs(z2) <= 1.0:
        raise PointInsideDomain("both points must lie outside the closed unit disk")
    if abs(z1 - z2) < _COINCIDENT_EPS:
        raise CoincidentPoints("points coincide")
    roots, dropped = _candidate_roots(z1, z2, tol)

    def visible(wp: complex) -> bool:
        return segment_clears_disk(z1, wp) and segment_clears_disk(z2, wp)

    sel = _select_minimizing(z1, z2, roots, tol, visible)
    if sel is None:
        return None
    return _result(z1, z2, roots, dropped, sel)
