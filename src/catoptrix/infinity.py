"""Reflection of a plane wave arriving along the real axis.

The observer sits at f = r*e^{i*theta}, r > 1. The reflection point solves

    r*e^{-i*theta}*w^4 - w^3 + w - r*e^{i*theta} = 0,

whose four roots all lie on the unit circle. It is the finite-pair quartic
divided by conj(z2) in the limit z2 -> +infinity, and the path functional
|f - w| - Re w is that limit of the focal sum minus z2, so root selection is
the finite pair's rule, numeric._argmin_on_circle, with the path functional
as the cost. The physics is the filter: the incoming horizontal ray must hit
the lit side first and the reflected segment must clear the mirror, and no
window on the angle is needed (see infinity_reflection).

Every observer is solved in its own frame. The quartic for -theta is the
conjugate of the one for theta, so the answer mirrors with the sign of
theta. infinity_reflection and verify_circle_theorem share the most recent
solve, so verifying the observer just reflected solves no second time.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import DegenerateLeadingCoefficient, InvalidObserver, NoRootOnCircle, RootAtOne, ShadowRegion
from .numeric import (
    DEFAULT_TOLERANCES,
    _argmin_on_circle,
    ensure_real,
    on_unit_circle,
    segment_clears_disk,
    wrap_angle,
)
from .quartic import (
    QuarticCoeffs,
    RealQuarticNature,
    RootNature,
    RootSet,
    infinity_real_coeffs,
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
    """Selected reflection point plus the full root picture.

    mobius_images holds Re(i*(1 + w_k)/(1 - w_k)) for the four roots, or None
    when a root sits at the map's pole w = 1 (the on-axis case).
    path_defect is |f - w| - Re w, the plane-wave travel functional up to a
    constant. degenerate_axis marks theta = 0, where the answer is w = 1.
    """

    w: complex
    phi: float
    all_roots: RootSet
    mobius_images: Optional[tuple[float, float, float, float]]
    path_defect: float
    reality_residual: float
    degenerate_axis: bool


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


def _reality_residual(f: complex, w: complex) -> float:
    return abs(((f - w) / (w * w)).imag)


@functools.lru_cache(maxsize=1)
def _roots(obs: ObserverPolar) -> RootSet:
    """Roots of the reflection quartic of obs, shared by infinity_reflection
    and verify_circle_theorem.

    One entry serves "reflect, then verify" for the same observer. The key,
    the observer, is the only input of the solve, RootSet is immutable, and a
    NoConvergence is not cached: the next call solves again.
    """
    return solve_quartic(infinity_quartic_coeffs(obs))


def infinity_reflection(obs: ObserverPolar) -> InfinityResult:
    """Physical reflection point for a plane wave arriving from the +x side.

    theta = 0 is the on-axis case, w = 1. Otherwise w is the on-circle root of
    least path functional g = |f - w| - Re w that is lit, Re w >= 0, and whose
    reflected segment to f clears the mirror, as for exterior_reflection with
    z2 -> +infinity; ties break as in minimizing_root. With none left this
    raises ShadowRegion for |theta| > pi/2 and NoRootOnCircle within.

    No window on phi is needed. For |theta| <= pi/2, g(phi) = |f - e^{i*phi}|
    - cos(phi) rises outward at both ends of the lit arc f sees: g' = +-1 +
    sin(phi) at the tangent points from f, +-(r*cos(theta)/|f -+ i| + 1) at
    phi = +-pi/2. So its least value there is at a root; and as conj(w) of a
    w of the arc across the axis from f is on the arc, as lit and nearer f,
    phi lies in [0, pi/2] for theta > 0 and in [-pi/2, 0] for theta < 0.
    By the same argument a lit observer always has a kept root in exact
    arithmetic, so its NoRootOnCircle can only come from rounding.
    """
    theta = obs.theta
    roots = _roots(obs)
    f = obs.point

    if theta == 0.0:
        w = 1.0 + 0j
    else:
        lit = -DEFAULT_TOLERANCES.unit_circle_tol

        def keep(wp: complex) -> bool:
            # unlit when the incoming ray hits the far side first
            return wp.real >= lit and segment_clears_disk(wp, f)

        mask = tuple([on_unit_circle(root) for root in roots.roots])
        sel = _argmin_on_circle(roots.roots, mask, lambda wp: abs(f - wp) - wp.real, keep)
        if sel is None:
            if abs(theta) > math.pi / 2.0:
                raise ShadowRegion(f"no physically valid reflection for theta = {theta:.6g}")
            raise NoRootOnCircle("no root passed the physical filters")
        w = sel[0]

    images: Optional[tuple[float, float, float, float]]
    try:
        images = mobius_real_image(roots)
    except RootAtOne:
        images = None

    return InfinityResult(
        w=w,
        phi=cmath.phase(w),
        all_roots=roots,
        mobius_images=images,
        path_defect=abs(f - w) - w.real,
        reality_residual=_reality_residual(f, w),
        degenerate_axis=theta == 0.0,
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
    FourRealDistinct and the solved roots must pass the circle test.

    The circle test runs on the solve that infinity_reflection uses, so
    verifying an observer just reflected costs no second solve.
    """
    if obs.theta == 0.0 or abs(obs.theta) == math.pi:
        raise DegenerateLeadingCoefficient(
            "theta = 0 (mod pi): the image quartic degenerates"
        )
    nature: RealQuarticNature = real_quartic_invariants(
        *infinity_real_coeffs(obs.r, obs.theta)
    )
    if nature.classification is not RootNature.FOUR_REAL_DISTINCT:
        return False
    return all(on_unit_circle(w) for w in _roots(obs).roots)
