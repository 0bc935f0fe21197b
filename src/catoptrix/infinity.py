"""Reflection of a plane wave arriving along the real axis.

The observer sits at f = r*e^{i*theta}, r > 1, and the wave travels in the
-x direction. At w = e^{i*phi} the mirror sends it on along w^2, so w
reflects the wave to f iff f = w + t*w^2 with t > 0. Write

    T(phi) = r*sin(2*phi - theta) - sin(phi),

so that (f - w)/w^2 = t - i*T(phi) with t = r*cos(2*phi - theta) - cos(phi).
The reflection points are the zeros of T, which on the circle are the roots
of the reflection quartic

    r*e^{-i*theta}*w^4 - w^3 + w - r*e^{i*theta} = 0,

the finite-pair quartic divided by conj(z2) in the limit z2 -> +infinity.

Four brackets. At phi = theta/2 - pi/4 + k*pi/2, T = (-1)^(k+1)*r - sin(phi),
which has the sign of (-1)^(k+1) as r > 1. So each of the four quarter turns
between these points holds a zero of T, and as w^2*T is a quartic in w there
is exactly one in each: all four roots lie on the circle (Bonsall and
Marden, Proc. AMS 3, 1952). The signs hold for every float r > 1, so
verify_circle_theorem does not test them; it evaluates the image quartic's
sign invariants in a closed form in cos(theta) and 1/r whose terms never
cancel, and so returns True on every observer off the axis. The CLI's
--verify block prints the same closed form, scaled back by powers of r.

The plane wave is the exterior pair with its source at infinity. With the
source as z1 = R on the positive real axis, the exterior law of reflection
(interior.exterior_reflection) in z1's frame, at w = e^{i*phi}, is

    g(phi) = sin(2*phi - theta) + sin(theta - phi)/R - sin(phi)/r,

which is T/r at R = infinity; it needs no square root and cannot overflow.
A point at infinity sees the half-circle |phi| <= acos(1/R) = pi/2, which
is the lit half Re w >= 0, and f sees w iff Re(f*conj(w)) >= 1, that is on
its arc |phi - theta| <= acos(1/r). The answer lies on the joint arc
[a, b], a = max(-pi/2, theta - acos(1/r)), b = min(pi/2, theta +
acos(1/r)): it is lit, and a forward ray f = w + t*w^2 with t > 0 has
Re(f*conj(w)) = 1 + t*cos(phi) >= 1.

The joint arc holds exactly one zero. With beta = arg((f - w)/w) in
[-pi/2, pi/2], which f's seeing w gives, T = |f - w|*sin(phi - beta), and
the path functional P = |f - w| - cos(phi) has P' = sin(phi) - sin(beta),
so T has the sign of P' on the open joint arc. P is strictly convex there:
|f - e^{i*phi}| is convex where f sees e^{i*phi} (ROADMAP.md item 2), and
-cos(phi) is convex on |phi| <= pi/2. Each end rises outward: at an end of
the lit half, -cos(phi) has slope of size 1, rising outward, and |f - w|
has slope at most 1 in size; at an end of f's arc the two swap roles. So
P' <= 0 at a and P' >= 0 at b, and P' has one zero on the arc, the least
of P. T has that zero and no other inside the arc; at an end it can also
vanish with phi - beta = +-pi, an anti-reflection, but numeric._law_zero
evaluates g only strictly inside its bracket. Inside the lit half the zero
is forward: t*cos(phi) = Re(f*conj(w)) - 1 >= 0, cos(phi) > 0 and f != w;
the edge is below. So the answer is unique, and it is where |f - w| - Re w
is least over the lit points f sees.

The shadow. For |theta| <= pi/2 the arcs meet at phi = theta. For theta >
pi/2 they meet iff theta - acos(1/r) <= pi/2, that is iff cos(theta - pi/2)
= sin(theta) >= 1/r, as both angles lie in [0, pi/2]: iff Im f = r*sin(theta)
>= 1; theta < -pi/2 is its mirror image. As Re f < 0 there, the observer is
answered iff f lies outside the shadow cylinder Re f < 0, |Im f| < 1. The
edge belongs to the lit side: at |Im f| = 1 the zero is phi = +-pi/2, and
the answer is the grazing ray from w = +-i. The test runs on obs.point as
it is rounded, without slack: at r = 1e15 and theta = math.pi, just below
the true pi, Im f = 0.12, and the true zero lies 4.4e-16 rad past i, unlit.
Near the edge the rounded arc ends can come in either order, which
numeric._law_zero accepts, and the zero is capped at |phi| <= pi/2.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Any, Optional

from .errors import DegenerateLeadingCoefficient, InvalidObserver, RootAtOne, ShadowRegion
from .numeric import _law_zero, _Record, ensure_real, wrap_angle
from .quartic import QuarticCoeffs, RootSet, solve_quartic

__all__ = [
    "ObserverPolar",
    "InfinityResult",
    "infinity_quartic_coeffs",
    "infinity_reflection",
    "mobius_real_image",
    "verify_circle_theorem",
]

_ROOT_AT_ONE_EPS = 1e-12
_INF = math.inf
_HALF_PI = 0.5 * math.pi


def __getattr__(name: str) -> Any:
    # bench/layers.py counts on_unit_circle calls and times
    # real_quartic_invariants by wrapping those names on this module, which
    # no longer calls either. A solve trace built into the library
    # (ROADMAP.md) would delete this, as it would cli.__getattr__.
    if name == "on_unit_circle":
        from .numeric import on_unit_circle

        return on_unit_circle
    if name == "real_quartic_invariants":
        from .quartic import real_quartic_invariants

        return real_quartic_invariants
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ObserverPolar(_Record):
    """Observation point r*e^{i*theta} outside the mirror; theta is stored
    reduced to (-pi, pi]."""

    r: float
    theta: float

    def __init__(self, r: float, theta: float) -> None:
        # a plain float r in (1, inf) and a plain float theta in (-pi, pi]
        # are kept as they are, which is what validation and wrap_angle
        # return for them; anything else converts, raises and wraps
        if not (type(r) is float and type(theta) is float and 1.0 < r < _INF and -math.pi < theta <= math.pi):
            r = ensure_real(r, "r")
            theta = ensure_real(theta, "theta")
            if r <= 1.0:
                raise InvalidObserver(f"observer radius must exceed 1, got {r}")
            theta = wrap_angle(theta)
        fields = self.__dict__
        fields["r"] = r
        fields["theta"] = theta

    @property
    def point(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


class InfinityResult(_Record):
    """Selected reflection point, with the full root picture on first read.

    path_defect is |f - w| - Re w, the plane-wave travel functional up to a
    constant. degenerate_axis marks theta = 0, where the answer is w = 1.

    all_roots, the four roots of the reflection quartic, and mobius_images,
    Re(i*(1 + w_k)/(1 - w_k)) for those roots or None when a root sits at the
    map's pole w = 1 (the on-axis case), are not constructor arguments: the
    first read of either solves the quartic once and keeps the result.
    Selecting w solves no quartic, so a caller that reads only w pays for
    none. The read can raise NoConvergence where w does not, for r beyond
    about 1.7e308, as the quartic's end coefficients have modulus r; a
    failed solve is not kept, and the next read solves again. Equality
    compares the fields and the observer, never the root picture.
    """

    w: complex
    phi: float
    path_defect: float
    reality_residual: float
    degenerate_axis: bool
    _observer: ObserverPolar

    @functools.cached_property
    def all_roots(self) -> RootSet:
        return solve_quartic(infinity_quartic_coeffs(self._observer))

    @functools.cached_property
    def mobius_images(self) -> Optional[tuple[float, ...]]:
        try:
            return mobius_real_image(self.all_roots)
        except RootAtOne:
            return None


def infinity_quartic_coeffs(obs: ObserverPolar) -> QuarticCoeffs:
    """Coefficients r*e^{-i*theta}, -1, 0, 1, -r*e^{i*theta}."""
    phase = cmath.exp(1j * obs.theta)
    return QuarticCoeffs(
        c4=obs.r * phase.conjugate(),
        c3=-1.0 + 0j,
        c2=0j,
        c1=1.0 + 0j,
        c0=-obs.r * phase,
    )


def infinity_reflection(obs: ObserverPolar) -> InfinityResult:
    """Physical reflection point for a plane wave arriving from the +x side.

    Raises ShadowRegion when f = obs.point lies in the shadow cylinder
    Re f < 0, |Im f| < 1, and otherwise returns the one zero of T on the arc
    of lit points f sees, the only lit forward zero (module docstring); on
    the axis, theta = 0, it is w = 1. It is also where the path functional
    |f - w| - Re w is least over the lit points f sees, which the grid oracle
    and a point-by-point scan check in the tests.
    """
    theta, r = obs.theta, obs.r
    f = obs.point
    if f.real < 0.0 and abs(f.imag) < 1.0:
        raise ShadowRegion(f"no physically valid reflection for theta = {theta:.6g}")
    t = math.acos(1.0 / r)
    a, b = theta - t, theta + t
    phi = _law_zero(_INF, r, theta, a if a > -_HALF_PI else -_HALF_PI, b if b < _HALF_PI else _HALF_PI, 0.0)
    # an observer on the cylinder's edge, or rounded onto it, has its zero
    # at |phi| = pi/2 at most
    if phi < -_HALF_PI:
        phi = -_HALF_PI
    elif phi > _HALF_PI:
        phi = _HALF_PI
    w = complex(math.cos(phi), math.sin(phi))
    d = f - w
    return InfinityResult(w, phi, abs(d) - w.real, abs((d / (w * w)).imag), theta == 0.0, obs)


def mobius_real_image(roots: RootSet) -> tuple[float, ...]:
    """Images i*(1 + w)/(1 - w) of the roots; real for roots on the circle.

    Raises RootAtOne when a root sits at the pole of the map.
    """
    out = []
    for w in roots.roots:
        if abs(w - 1.0) < _ROOT_AT_ONE_EPS:
            raise RootAtOne("root at w = 1 has no finite image")
        out.append((1j * (1.0 + w) / (1.0 - w)).real)
    return tuple(out)


def _image_invariants(r: float, theta: float) -> tuple[float, float, float]:
    """(delta, P, D) of the image quartic (quartic.infinity_real_coeffs)
    divided by r,

        sin(t)*z^4 + 2*(2*cos(t) - 1/r)*z^3 - 6*sin(t)*z^2
            - 2*(2*cos(t) + 1/r)*z + sin(t),

    in closed form. Times r^6, r^2 and r^4 they are the invariants of the
    image quartic itself; the CLI's --verify block prints them so.

    With s = sin(theta), c = cos(theta) and rho = 1/r the coefficients are
    a = e = s, b = 2*(2c - rho), C = -6s and d = -2*(2c + rho). Put into
    the invariants of quartic.real_quartic_invariants, with s^2 = 1 - c^2,
    s drops out and

        delta = 256*[(1 - rho^2)*(64 + 16*rho^2 + rho^4) + 27*c^2*rho^4],
        P     = -12*(4 + rho^2 - 4*c*rho),
        D     = -16*[A*c^2 - B*c + K],

    with A = 44*rho^2 + 16, B = (24*rho^2 + 96)*rho and K = 3*rho^4 +
    28*rho^2 + 32. The quadratic has discriminant B^2 - 4*A*K =
    16*(rho^2 - 4)^2*(3*rho^2 - 8), so completing the square gives
    A*c^2 - B*c + K = [(A*c - B/2)^2 + 4*(4 - rho^2)^2*(8 - 3*rho^2)]/A,
    and 4 + rho^2 - 4*c*rho = (2 - rho)^2 + 4*rho*(1 - c).

    These last two forms are what is evaluated, with 1 - rho^2 in delta as
    (r - 1)/r * (r + 1)/r: each is a sum of terms >= 0, so none cancels,
    r - 1 is exact near the rim, where 1 - rho*rho would lose its digits,
    and nothing overflows up to the largest float r. Against the generic
    invariants at 50 digits each value is within 64 ulps, for r - 1 down to
    an ulp, r up to the largest float and theta near 0, +-pi/2 and pi
    (tests/test_infinity.py).
    """
    c = math.cos(theta)
    rho = 1.0 / r
    rr = rho * rho
    delta = 256.0 * ((r - 1.0) / r * ((r + 1.0) / r) * (64.0 + rr * (16.0 + rr)) + 27.0 * c * c * rr * rr)
    t = 2.0 - rho
    p = -12.0 * (t * t + 4.0 * rho * (1.0 - c))
    lead = 44.0 * rr + 16.0
    v = lead * c - (12.0 * rr + 48.0) * rho
    u = 4.0 - rr
    d = -16.0 * (v * v + 4.0 * u * u * (8.0 - 3.0 * rr)) / lead
    return delta, p, d


def verify_circle_theorem(obs: ObserverPolar) -> bool:
    """Check that all four reflection roots lie on the unit circle: the
    real-coefficient image quartic under the Moebius map must classify as
    FourRealDistinct by its sign invariants, delta > 0, P < 0 and D < 0. It
    solves no quartic and builds no record. On the axis, theta = 0 or
    |theta| = pi, the image quartic degenerates, and it raises
    DegenerateLeadingCoefficient.

    The invariants are those of the image quartic divided by r, in the
    closed form of _image_invariants: they are homogeneous in the
    coefficients, so a positive scale keeps their signs, and the form takes
    one cosine and cannot overflow.

    Each sign holds for every float r > 1, in floats. Such an r is at least
    1 + 2^-52, so 1/r is below 1 by more than half an ulp of 1 and rho =
    fl(1/r) < 1; rho*rho <= 1 too, and math.cos gives |c| <= 1.
    - delta: (r - 1)/r and (r + 1)/r are positive normal floats, so the
      first term is at least 64 times a positive product, and the second
      is >= 0: delta > 0.
    - P: 4 + rho^2 - 4*c*rho >= (2 - rho)^2 > 0. In floats 2 - rho rounds
      to at least 1 and 1 - c to at least 0, so the sum is >= 1: P <= -12.
    - D: the bracket is a quadratic in c with discriminant
      16*(3*rho^6 - 32*rho^4 + 112*rho^2 - 128) = 16*(rho^2 - 4)^2*(3*rho^2
      - 8) <= 16*9*(-5) = -720, and A <= 60, so it is at least
      720/(4*60) = 3 for every real c. In floats the completed square is
      >= 0, 4 - rho^2 >= 3 and 8 - 3*rho^2 >= 5, so its second term is at
      least 180, and A rounds to at most 60: D <= -48.

    So verify returns True on its whole off-axis domain, which is the
    theorem. The generic invariants (quartic.real_quartic_invariants) of
    the same quartic are exact for its float coefficients, so their class
    can differ only where rounding the coefficients moved a sign. The three
    forms are still computed and tested, as the documented check.
    """
    theta = obs.theta
    if theta == 0.0 or abs(theta) == math.pi:
        raise DegenerateLeadingCoefficient(
            "theta = 0 (mod pi): the image quartic degenerates"
        )
    delta, p, d = _image_invariants(obs.r, theta)
    return delta > 0.0 and p < 0.0 and d < 0.0
