"""Shared numeric primitives: tolerances, unit-circle predicates, segment geometry.

All angles are in radians and all lengths are dimensionless (unit mirror
radius). Points of the plane are plain ``complex`` values; the helpers here
validate them at API boundaries so NaN/Inf never propagate into root
polishing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFinitePoint

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "VISIBILITY_SLACK",
    "ensure_point",
    "ensure_real",
    "on_unit_circle",
    "unit_from_angle",
    "project_to_circle",
    "wrap_angle",
    "segment_min_distance_to_origin",
    "segment_clears_disk",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared across the package.

    unit_circle_tol      acceptance band for | |w| - 1 |
    residual_tol         bound on polished polynomial residuals
    oracle_agreement_tol allowed deviation from the brute-force oracles
    """

    unit_circle_tol: float = 1e-9
    residual_tol: float = 1e-10
    oracle_agreement_tol: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("unit_circle_tol", "residual_tol", "oracle_agreement_tol"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be strictly positive, got {v!r}")


DEFAULT_TOLERANCES = Tolerances()

# how far inside the circle a sight segment may dip and still count as
# clearing it; the scalar segment_clears_disk and the oracle's array mask
# both read it, so the two visibility filters agree
VISIBILITY_SLACK = 1e-9


def ensure_point(z: complex, name: str = "point") -> complex:
    """Validate that both components of z are finite and return z as complex."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinitePoint(f"{name} has non-finite component: {z!r}")
    return z


def ensure_real(x: float, name: str = "value") -> float:
    """Validate that x is a finite real number."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFinitePoint(f"{name} must be finite, got {x!r}")
    return x


def on_unit_circle(w: complex, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff | |w| - 1 | <= tol.unit_circle_tol."""
    w = ensure_point(w, "w")
    return abs(abs(w) - 1.0) <= tol.unit_circle_tol


def unit_from_angle(phi: float) -> complex:
    """Point (cos phi, sin phi) on the unit circle."""
    phi = ensure_real(phi, "phi")
    return complex(math.cos(phi), math.sin(phi))


def project_to_circle(w: complex) -> complex:
    """Radial projection w / |w|. w must be nonzero."""
    return w / abs(w)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    t = math.remainder(theta, math.tau)
    if t <= -math.pi:
        t += math.tau
    return t


def segment_min_distance_to_origin(p: complex, q: complex) -> float:
    """Minimum distance from the origin to the closed segment [p, q]."""
    d = q - p
    dd = d.real * d.real + d.imag * d.imag
    if dd == 0.0:
        return abs(p)
    t = -(p.real * d.real + p.imag * d.imag) / dd
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return abs(p + t * d)


def segment_clears_disk(p: complex, q: complex, slack: float = VISIBILITY_SLACK) -> bool:
    """True iff the segment [p, q] does not enter the open unit disk.

    Endpoints on the circle itself count as clearing; slack absorbs the
    numerical drift of projected roots.
    """
    return segment_min_distance_to_origin(p, q) >= 1.0 - slack
