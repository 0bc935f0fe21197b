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
Marden, Proc. AMS 3, 1952). verify_circle_theorem checks these four signs.

Only the central bracket, |phi - theta/2| < pi/4, can hold the answer.
The wave lights the half Re w >= 0, so an answer has cos(phi) >= 0 and
|phi| <= pi/2. Then r*cos(2*phi - theta) = cos(phi) + t > 0, which leaves
the brackets k = 0 and k = 2. In k = 2, phi - theta/2 lies in (3*pi/4, pi]
or in [-pi, -3*pi/4), as theta is in (-pi, pi]. In the first case phi > pi/4
and theta < -pi/2, so Im f = r*sin(theta) < 0; but the ray starts at Im w =
sin(phi) > 0 and heads along e^{2i*phi} with 2*phi in (pi/2, pi], so it never
descends to f. The second case is its mirror image. A lit forward ray needs
no visibility test: its direction w^2 has Re(w^2*conj(w)) = cos(phi) >= 0,
so it leaves the convex disk and does not come back.

The shadow. The central zero is forward whenever it is lit: |f|^2 - 1 =
t*(t + 2*cos(phi)) > 0, and t < -2*cos(phi) <= 0 would make r*cos(2*phi -
theta) < 0. T runs from negative to positive across the bracket, so for
theta in (0, pi] the zero is lit iff theta <= pi/2 or T(pi/2) = Im f - 1 >= 0,
and for theta < 0 as its mirror image. So the observer is answered iff f
lies outside the shadow cylinder Re f < 0, |Im f| < 1. The edge belongs to
the lit side: at |Im f| = 1 the zero is phi = +-pi/2, and the answer is the
grazing ray from w = +-i. The test runs on obs.point as it is rounded,
without slack: at r = 1e15 and theta = math.pi, just below the true pi,
Im f = 0.12, and the true zero lies 4.4e-16 rad past i, unlit.

The zero is found with a bracketed Newton iteration on T/r, which cannot
overflow, in psi = phi - theta/2. Every observer is solved in the frame of
|theta| and mirrored, as the picture for -theta is the conjugate of the one
for theta.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Any, Optional

from .errors import DegenerateLeadingCoefficient, InvalidObserver, RootAtOne, ShadowRegion
from .numeric import _bracketed_zero, ensure_real, wrap_angle
from .quartic import (
    QuarticCoeffs,
    RealQuarticNature,
    RootNature,
    RootSet,
    real_quartic_invariants,
    solve_quartic,
)

__all__ = [
    "ObserverPolar",
    "InfinityResult",
    "infinity_quartic_coeffs",
    "infinity_reflection",
    "mobius_real_image",
    "verify_circle_theorem",
]

_ROOT_AT_ONE_EPS = 1e-12


def __getattr__(name: str) -> Any:
    # bench/layers.py counts on_unit_circle calls by wrapping that name on
    # this module, which no longer calls it. A solve trace built into the
    # library (ROADMAP.md) would delete this, as it would cli.__getattr__.
    if name == "on_unit_circle":
        from .numeric import on_unit_circle

        return on_unit_circle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ObserverPolar:
    """Observation point r*e^{i*theta} outside the mirror; theta is stored
    reduced to (-pi, pi]."""

    r: float
    theta: float

    def __post_init__(self) -> None:
        r = ensure_real(self.r, "r")
        theta = ensure_real(self.theta, "theta")
        if r <= 1.0:
            raise InvalidObserver(f"observer radius must exceed 1, got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", wrap_angle(theta))

    @property
    def point(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class InfinityResult:
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


def _central_zero(r: float, h: float) -> float:
    """psi in [-pi/4, pi/4] with sin(2*psi) = sin(h + psi)/r, for h in
    (0, pi/2]: the zero of T/r in the central bracket, at phi = h + psi.

    T/r runs from negative at -pi/4 to positive at pi/4. Newton steps start
    from the best of three guesses: the far one, exact as r -> infinity; the
    zero at r = 1, phi = theta or phi = (theta + pi)/3, whichever lies in
    the bracket; and, near the fold at r = 1, theta = pi/2 where those two
    meet, the zero of T's quadratic expansion about phi = pi/2. The steps,
    and the bisection that guards them, are numeric._bracketed_zero's.
    """

    def t_over_r(x: float) -> float:
        return math.sin(2.0 * x) - math.sin(h + x) / r

    def slope(x: float) -> float:
        return 2.0 * math.cos(2.0 * x) - math.cos(h + x) / r

    quarter = 0.25 * math.pi
    tau = 2.0 * h - 0.5 * math.pi
    starts = (
        0.5 * math.asin(math.sin(h) / r),
        h if h < quarter else (math.pi - h) / 3.0,
        quarter + (0.5 * tau - math.sqrt(tau * tau + 6.0 * (r - 1.0))) / 3.0,
    )
    lo, hi = -quarter, quarter
    x, value = 0.0, math.inf
    for start in starts:
        if not lo <= start <= hi:
            continue
        at_start = t_over_r(start)
        lo, hi = (start, hi) if at_start < 0.0 else (lo, start)
        if abs(at_start) < abs(value):
            x, value = start, at_start
    return _bracketed_zero(t_over_r, slope, lo, hi, x, value, h)


def infinity_reflection(obs: ObserverPolar) -> InfinityResult:
    """Physical reflection point for a plane wave arriving from the +x side.

    theta = 0 is the on-axis case, w = 1. Otherwise this raises ShadowRegion
    when f = obs.point lies in the shadow cylinder Re f < 0, |Im f| < 1, and
    returns the zero of T in the central bracket |phi - theta/2| < pi/4 when
    it does not; that zero is lit, its ray points forward, and it is the only
    lit forward zero (module docstring). It is also where the path functional
    |f - w| - Re w is least over the lit points f sees, which the grid oracle
    and a point-by-point scan check in the tests.
    """
    theta = obs.theta
    f = obs.point
    if theta == 0.0:
        w = 1.0 + 0j
        phi = 0.0
    else:
        if f.real < 0.0 and abs(f.imag) < 1.0:
            raise ShadowRegion(f"no physically valid reflection for theta = {theta:.6g}")
        h = 0.5 * abs(theta)
        # an observer on the cylinder's edge, or rounded onto it, has its
        # zero at pi/2 at most
        phi = math.copysign(min(h + _central_zero(obs.r, h), 0.5 * math.pi), theta)
        w = complex(math.cos(phi), math.sin(phi))

    return InfinityResult(
        w=w,
        phi=phi,
        path_defect=abs(f - w) - w.real,
        reality_residual=abs(((f - w) / (w * w)).imag),
        degenerate_axis=theta == 0.0,
        _observer=obs,
    )


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


def verify_circle_theorem(obs: ObserverPolar) -> bool:
    """Check, by two independent routes, that all four reflection roots lie
    on the unit circle: the real-coefficient image quartic must classify as
    FourRealDistinct, and T must alternate in sign at the four bracket ends
    phi = theta/2 - pi/4 + k*pi/2, which puts one zero of T, one root on the
    circle, in each quarter turn between them (module docstring). Neither
    route solves a quartic.

    The image quartic is classified divided by r, as

        sin(t)*z^4 + 2*(2*cos(t) - 1/r)*z^3 - 6*sin(t)*z^2
            - 2*(2*cos(t) + 1/r)*z + sin(t),

    whose coefficients cannot overflow: delta, P and D are homogeneous in the
    coefficients, so a positive scale keeps their signs. Unscaled, delta
    grows like r^6 and overflows from about r = 6e50.
    """
    if obs.theta == 0.0 or abs(obs.theta) == math.pi:
        raise DegenerateLeadingCoefficient(
            "theta = 0 (mod pi): the image quartic degenerates"
        )
    st, ct, inv_r = math.sin(obs.theta), math.cos(obs.theta), 1.0 / obs.r
    nature: RealQuarticNature = real_quartic_invariants(
        st, 2.0 * (2.0 * ct - inv_r), -6.0 * st, -2.0 * (2.0 * ct + inv_r), st
    )
    if nature.classification is not RootNature.FOUR_REAL_DISTINCT:
        return False
    for k in range(4):
        phi = 0.5 * obs.theta + (k - 0.5) * 0.5 * math.pi
        if (-1) ** k * (math.sin(2.0 * phi - obs.theta) - math.sin(phi) / obs.r) >= 0.0:
            return False
    return True
