"""Reflection on the unit-circle mirror for finite source and observer.

Inside the disk, minimizing_root solves the degree-4 reflection equation,
selects the minimizing root (the boundary point minimizing the focal sum
|z1 - w| + |z2 - w|) with numeric._argmin_on_circle, and derives the
triangular ratio metric and the parameters of the maximal inscribed
ellipse.

Outside it, the answer is the one zero of the reflection law on the arc
that both points see, and exterior_reflection finds it without the
quartic, with numeric._law_zero. The plane wave is this pair with its
source at infinity, and infinity.py solves it with the same call. A point
z with |z| > 1 sees w = e^{i*phi} iff Re(z*conj(w)) >= 1, that is on its
true visible arc |phi - arg z| <= acos(1/|z|). There
Re((z - w)/w) = Re(z*conj(w)) - 1 >= 0, so with beta_k = arg((z_k - w)/w)
in [-pi/2, pi/2] the law

    Im((z1 - w)(z2 - w)/w^2) = |z1 - w|*|z2 - w|*sin(beta1 + beta2) = 0

holds on the open joint arc only where beta1 + beta2 = 0: the angles of
incidence and reflection are equal, and no anti-reflection zero
(beta1 + beta2 = +-pi) can lie there. The focal sum F has
F' = -(sin(beta1) + sin(beta2)) in phi, which has the sign of
-sin(beta1 + beta2), and F is strictly convex on the joint arc (ROADMAP.md
item 2): each |z - e^{i*phi}| is convex where its point sees e^{i*phi}.
Each end of the joint arc is a tangent end of one point's arc, where that
point's term has slope of size 1, rising outward, and the other term's
slope is at most 1 in size; so F' is at most 0 at the lower end and at
least 0 at the upper one. So a nonempty joint arc holds exactly one zero
of the law, the least focal sum there.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import (
    CoincidentPoints,
    NonFinitePoint,
    NoRootOnCircle,
    PointInsideDomain,
    PointOutsideDomain,
)
from .numeric import (
    _COINCIDENT_EPS,
    VISIBILITY_SLACK,
    _argmin_on_circle,
    _law_zero,
    _Record,
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


# an exterior pair whose true visible arcs miss by more than this has no
# point that VISIBILITY_SLACK lets both see (exterior_reflection)
_GRAZING_GAP = 4.0 * math.acos(1.0 - VISIBILITY_SLACK)


# the one dataclass among the value types: bench/test_bench.py builds
# off-circle answers from a real one with dataclasses.replace, so interior
# still imports dataclasses
@dataclass(frozen=True)
class ReflectionResult:
    """Chosen reflection point with full diagnostics.

    w                    selected boundary point (on the circle)
    s_value              |z1 - z2| / focal_sum, in [0, 1]; it rounds to 1 only
                         for a point about an ulp from the rim
    focal_sum            |z1 - w| + |z2 - w|
    reflection_residual  |Im((z1 - w)(z2 - w) / w^2)|, zero at an exact root
    degree_dropped       true when the polynomial lost its quartic term

    The root picture is not a constructor argument:

    candidates           every root of the reflection polynomial
    on_circle_mask       which candidates passed the unit-circle test
    tie_indices          candidate indices attaining the minimal focal sum;
                         for an exterior pair, the candidate nearest w,
                         which the fixed 1e-9 circle test can reject

    So an exterior result can name a tie that its mask rejects: for the pair
    (0.04903727425770794-0.9987969492255798j,
    0.049242098609155745-0.9987869048168334j) tie_indices is (1,), a root
    1.2e-8 off the circle and 1.2e-8 from w, and the only candidate that
    passes the circle test is antipodal to w.

    minimizing_root keeps the picture it selected from. An exterior pick
    solves no quartic, and the first read of its picture solves once and
    keeps the result; a failed solve is not kept, and the next read solves
    again. Equality compares the fields and the pair, never the picture.
    """

    w: complex
    s_value: float
    focal_sum: float
    reflection_residual: float
    degree_dropped: bool
    _pair: tuple[complex, complex]

    @functools.cached_property
    def candidates(self) -> RootSet:
        return _candidates(interior_quartic_coeffs(*self._pair))

    @functools.cached_property
    def on_circle_mask(self) -> tuple[bool, ...]:
        return tuple([on_unit_circle(w) for w in self.candidates.roots])

    @functools.cached_property
    def tie_indices(self) -> tuple[int, ...]:
        roots = self.candidates.roots
        return (min(range(len(roots)), key=lambda k: abs(roots[k] - self.w)),)


class EllipseParams(_Record):
    """Maximal inscribed ellipse with foci z1, z2: focal sum c, semiaxes
    major = c/2 and minor = sqrt(c^2 - |z1 - z2|^2)/2, and eccentricity."""

    focal_sum: float
    major: float
    minor: float
    eccentricity: float

    def __init__(self, focal_sum: float, major: float, minor: float, eccentricity: float) -> None:
        self.__dict__.update(focal_sum=focal_sum, major=major, minor=minor, eccentricity=eccentricity)


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


def _candidates(q: QuarticCoeffs) -> RootSet:
    if q.c4 == 0:
        # one point at the origin: the quartic term vanishes and the cubic
        # remainder is exact, so solve it directly instead of perturbing
        return polished_roots((q.c3, q.c2, q.c1, q.c0))
    return solve_quartic(q)


def _distance(z1: complex, z2: complex) -> float:
    d = abs(z1 - z2)
    if d < _COINCIDENT_EPS:
        raise CoincidentPoints("points coincide")
    return d


def _result(z1: complex, z2: complex, w: complex, fs: float, d: float, dropped: bool) -> ReflectionResult:
    # the focal sum can round an ulp below |z1 - z2| for a point about an ulp
    # from the rim; the triangle inequality bounds it, so s <= 1 and the
    # ellipse's c^2 - d^2 >= 0 hold exactly
    fs = max(fs, d)
    residual = abs((((z1 - w) * (z2 - w)) / (w * w)).imag)
    return ReflectionResult(w, d / fs, fs, residual, dropped, (z1, z2))


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
    d = _distance(z1, z2)
    q = interior_quartic_coeffs(z1, z2)
    roots = _candidates(q)
    mask = tuple([on_unit_circle(w) for w in roots.roots])
    sel = _argmin_on_circle(roots.roots, mask, lambda wp: abs(z1 - wp) + abs(z2 - wp))
    if sel is None:
        raise NoRootOnCircle("no root passed the unit-circle test")
    result = _result(z1, z2, sel[0], sel[1], d, q.c4 == 0)
    # the picture the pick was made from, so that no read solves again
    vars(result).update(candidates=roots, on_circle_mask=mask, tie_indices=sel[2])
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

    The point w on the circle where the law of reflection holds and both
    endpoints can actually see w: the open segments [z1, w] and [z2, w] must
    not enter the open unit disk, within VISIBILITY_SLACK. Returns None when
    no such point exists (the mirror occludes every path).

    In z1's frame, w = (z1/|z1|)*e^{i*x}, the true visible arcs are
    |x| <= t1 and |x - delta| <= t2, with t = acos(1/|z|) for each point and
    delta = arg(z2/z1). Let a = max(-t1, delta - t2) and b = min(t1,
    delta + t2). The law Im((z1 - w)(z2 - w)/w^2), divided by -|z1|*|z2|, is

        g(x) = sin(2x - delta) + sin(delta - x)/|z1| - sin(x)/|z2|,

    which needs no square root and cannot overflow; as |z1| -> infinity it
    becomes the plane wave's T/r (infinity.py). g has the sign of the focal
    sum's slope on the joint arc, so when a <= b the arcs meet, g runs from
    negative at a to positive at b, and its one zero there (module
    docstring) is the answer, which numeric._law_zero finds, as it does the
    plane wave's.

    When a > b the true arcs miss, and only the slack can let both points
    see one w. It widens each end of each arc by at most 2*acos(1 - s), with
    s = VISIBILITY_SLACK. If [z, w] stays at least 1 - s from the origin for
    w past z's arc, the segment's nearest point lies inside it, as the
    segment leaves w inward, so the line through z and w has distance
    rho >= 1 - s from the origin. Its foot is acos(rho/|z|) from arg z, and
    w, its far crossing of the circle, acos(rho) beyond the foot; acos is
    concave on [0, 1], so acos(rho/|z|) - acos(1/|z|) <= acos(rho). So a pair
    whose gap a - b exceeds 4*acos(1 - s) (about 1.8e-4) returns None; the
    gap round the other side of the circle is the larger, as |delta| <= pi. A
    smaller gap is solved on [b, a], where g ran from negative at b to
    positive at a on every pair probed, and the zero is the answer only if
    both segments to it pass segment_clears_disk.

    The same slack lets a far source light a sliver of the plane wave's
    shadow (infinity.py), where the exterior pair answers and its limit
    does not: the observer ObserverPolar(4.190385547384873,
    -2.900714870036392) lies 3.6e-4 inside the shadow cylinder, and
    infinity_reflection raises ShadowRegion there, while the pair of that
    point and a source R + 0j answers w = -4.4e-5 - 1.0i for R = 1e9, 1e12
    and 1e15 (and None for R = 1e6): the far source sees up to about
    4.5e-5 rad past its tangent point at -i.

    The root picture is computed on first read (ReflectionResult), from the
    reflection quartic, whose end coefficients have modulus |z1|*|z2|. So
    that product must stay finite in float64 (at most about 1.8e308); a
    farther pair raises NonFinitePoint naming the pair.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    # abs of a complex past float64 raises OverflowError; hypot gives inf
    r1, r2 = math.hypot(z1.real, z1.imag), math.hypot(z2.real, z2.imag)
    if r1 <= 1.0 or r2 <= 1.0:
        raise PointInsideDomain("both points must lie outside the closed unit disk")
    if r1 * r2 > sys.float_info.max:
        raise NonFinitePoint(
            f"exterior pair z1={z1!r}, z2={z2!r} is out of float64 range: "
            f"|z1|*|z2| must not exceed {sys.float_info.max!r}"
        )
    d = _distance(z1, z2)
    t1, t2 = math.acos(1.0 / r1), math.acos(1.0 / r2)
    delta = cmath.phase(z2 * z1.conjugate())
    a, b = max(-t1, delta - t2), min(t1, delta + t2)
    if a - b > _GRAZING_GAP:
        return None
    phi = _law_zero(r1, r2, delta, a, b, cmath.phase(z1))
    w = complex(math.cos(phi), math.sin(phi))
    if a > b and not (segment_clears_disk(z1, w) and segment_clears_disk(z2, w)):
        return None
    return _result(z1, z2, w, abs(z1 - w) + abs(z2 - w), d, False)
