"""Reflection on the unit-circle mirror for finite source and observer.

Inside the disk, minimizing_root solves the degree-4 reflection equation,
selects the minimizing root (the boundary point minimizing the focal sum
|z1 - w| + |z2 - w|) with _least_focal_sum, and derives the triangular ratio
metric and the parameters of the maximal inscribed ellipse. The pick reads
the roots in the order the polish left them, since neither the least sum nor
its tie set depends on that order, and it builds no on-circle mask. The
sorted roots, their separation, the tie indices and the mask are computed
when the root picture is first read; ReflectionResult.on_circle_mask is the
mask's one definition.

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
)
from .numeric import (
    _COINCIDENT_EPS,
    VISIBILITY_SLACK,
    _ensure_in_disk,
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

# focal sums within this of the least one count as a tie (minimizing_root)
_TIE_EPS = 1e-10


# a record like the others: _Record gives its constructor, equality, hash
# and repr. It is also declared a dataclass, only for dataclasses.replace and
# FrozenInstanceError, with which bench/test_bench.py builds off-circle
# answers from a real one; so interior still imports dataclasses.
# minimizing_root adds the unread RootSet it picked from as candidates, and
# nothing else: a kept result costs the collector no more objects than
# that, and the mask and ties are computed on first read
@dataclass(frozen=True, init=False, eq=False, repr=False)
class ReflectionResult(_Record):
    """Chosen reflection point with full diagnostics.

    w                    selected boundary point (on the circle)
    s_value              |z1 - z2| / focal_sum, in [0, 1]; it rounds to 1 only
                         for a point about an ulp from the rim
    focal_sum            |z1 - w| + |z2 - w|
    reflection_residual  |Im((z1 - w)(z2 - w) / w^2)|, zero at an exact root
    degree_dropped       true when the polynomial lost its quartic term

    The root picture is not a constructor argument:

    candidates           every root of the reflection polynomial, sorted
    on_circle_mask       which candidates passed the unit-circle test
    tie_indices          for an interior pair, the candidate indices
                         attaining the minimal focal sum, by minimizing_root's
                         rule; for an exterior pair, the candidate nearest w,
                         which the fixed 1e-9 circle test can reject

    So an exterior result can name a tie that its mask rejects: for the pair
    (0.04903727425770794-0.9987969492255798j,
    0.049242098609155745-0.9987869048168334j) tie_indices is (1,), a root
    1.2e-8 off the circle and 1.2e-8 from w, and the only candidate that
    passes the circle test is antipodal to w.

    minimizing_root keeps the roots it selected from, in the order the
    polish left them: the first read sorts them (RootSet), and the mask and
    the ties are computed on their first read from the sorted roots, by the
    rules the pick used, so no read solves again. An exterior pick solves no
    quartic, and the first read of its picture solves once and keeps the
    result; a failed solve is not kept, and the next read solves again.
    Equality compares the fields and the pair, never the picture.
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
        z1, z2 = self._pair
        roots = self.candidates.roots
        if abs(z1) < 1.0:
            # an interior pair: the tie set of minimizing_root's pick, whose
            # rule reads the roots in any order
            return _least_focal_sum(z1, z2, roots)[2]
        return (min(range(len(roots)), key=lambda k: abs(roots[k] - self.w)),)


class EllipseParams(_Record):
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
    # a finite plain complex is what validation returns for it: the solvers
    # pass their validated pair on as it is
    if not (type(z1) is complex and type(z2) is complex and cmath.isfinite(z1) and cmath.isfinite(z2)):
        z1 = ensure_point(z1, "z1")
        z2 = ensure_point(z2, "z2")
    b1, b2 = z1.conjugate(), z2.conjugate()
    # c4, c3, c2, c1, c0
    return QuarticCoeffs(b1 * b2, -(b1 + b2), 0j, z1 + z2, -z1 * z2)


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
    _ensure_in_disk(z1, z2)
    d = _distance(z1, z2)
    q = interior_quartic_coeffs(z1, z2)
    roots = _candidates(q)
    # the least sum and its tie set do not depend on the order of the roots,
    # and tied roots with equal keys are the same w: the polish order picks
    # what the sorted one would, and the set sorts only if the picture is read
    w, fs, _ = _least_focal_sum(z1, z2, roots._any_order)
    result = _result(z1, z2, w, fs, d, q.c4 == 0)
    # the roots the pick was made from, so that no read solves again
    result.__dict__["candidates"] = roots
    return result


def _least_focal_sum(z1: complex, z2: complex, roots: tuple[complex, ...]) -> tuple:
    """(w, focal sum, tie indices) of minimizing_root's pick: the least
    focal sum over the projections w / |w| of the roots that pass
    on_unit_circle. Sums within _TIE_EPS of the least tie, and among the
    tied roots the largest Im w, then the largest Re w, wins. Raises
    NoRootOnCircle when no root passes. The on-circle mask is not built
    here: ReflectionResult.on_circle_mask is its one definition, computed
    from the sorted roots on its first read.
    """
    ties = []
    least = math.inf
    for k, root in enumerate(roots):
        if on_unit_circle(root):
            w = root / abs(root)
            fs = abs(z1 - w) + abs(z2 - w)
            ties.append((fs, k, w))
            if fs < least:
                least = fs
    if not ties:
        raise NoRootOnCircle("no root passed the unit-circle test")
    cut = least + _TIE_EPS
    ties = [t for t in ties if t[0] <= cut]
    if len(ties) == 1:
        fs, k, w = ties[0]
        return w, fs, (k,)
    fs, _, w = max(ties, key=lambda t: (t[2].imag, t[2].real))
    return w, fs, tuple([t[1] for t in ties])


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
    return _ellipse_of(minimizing_root(z1, z2))


def _ellipse_of(result: ReflectionResult) -> EllipseParams:
    """The maximal inscribed ellipse of a solved interior pair, from the
    validated pair the result holds, without solving again."""
    z1, z2 = result._pair
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
    smaller gap is solved on [b, a], and the zero is the answer only if both
    segments to it pass segment_clears_disk. In floats g need not change
    sign on [b, a]. Of 193002 such pairs drawn with random.Random(7), each
    |z| - 1 in 10^U(-12, 3) and each gap below the bound, 26443 had none,
    with |g| at most 3.9e-16 at both ends. What held is the law: each of the
    150315 answers had |Im((z1 - w)(z2 - w)/w^2)| at most 1.6e-15*|z1|*|z2|.

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
