"""Shared numeric primitives: tolerances, unit-circle predicates, segment geometry.

All angles are in radians and all lengths are dimensionless (unit mirror
radius). Points of the plane are plain ``complex`` values; the helpers here
validate them at API boundaries so NaN/Inf never propagate into root
polishing. ``_argmin_on_circle`` is the rule by which the finite pair, interior
or exterior, picks its answer among the on-circle roots of its quartic; the
plane wave needs no such rule, as its answer is the one zero of a bracket
(infinity.py).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import NonFinitePoint

__all__ = [
    "DEFAULT_TOLERANCES",
    "VISIBILITY_SLACK",
    "ensure_point",
    "ensure_real",
    "on_unit_circle",
    "unit_from_angle",
    "wrap_angle",
    "segment_min_distance_to_origin",
    "segment_clears_disk",
]


@dataclass(frozen=True)
class Tolerances:
    """The type of DEFAULT_TOLERANCES, the fixed tolerances the package reads.

    unit_circle_tol      acceptance band for | |w| - 1 |
    residual_tol         polished-residual bound, relative to max |coefficient|
    oracle_agreement_tol allowed deviation from the brute-force oracles (read
                         only by the tests and the benchmark)
    """

    unit_circle_tol: float = 1e-9
    residual_tol: float = 1e-10
    oracle_agreement_tol: float = 1e-6


DEFAULT_TOLERANCES = Tolerances()

# pairs closer than this are CoincidentPoints, in the solvers and the oracle
_COINCIDENT_EPS = 1e-14

# how far inside the circle a sight segment may dip and still count as
# clearing it; segment_clears_disk reads it, and so does the plane-wave
# oracle's closed-form reachable arc, so the two visibility filters agree
VISIBILITY_SLACK = 1e-9

# costs within this of the least one count as a tie
_COST_TIE_EPS = 1e-10


def ensure_point(z: complex, name: str = "point") -> complex:
    """Validate that both components of z are finite and return z as complex."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise NonFinitePoint(f"{name} has non-finite component: {z!r}")
    return z


def ensure_real(x: float, name: str = "value") -> float:
    """Validate that x is a finite real number."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFinitePoint(f"{name} must be finite, got {x!r}")
    return x


def on_unit_circle(w: complex) -> bool:
    """True iff | |w| - 1 | <= DEFAULT_TOLERANCES.unit_circle_tol."""
    if type(w) is not complex or not cmath.isfinite(w):
        w = ensure_point(w, "w")
    return abs(abs(w) - 1.0) <= DEFAULT_TOLERANCES.unit_circle_tol


def unit_from_angle(phi: float) -> complex:
    """Point (cos phi, sin phi) on the unit circle."""
    phi = ensure_real(phi, "phi")
    return complex(math.cos(phi), math.sin(phi))


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    t = math.remainder(theta, math.tau)
    if t <= -math.pi:
        t += math.tau
    return t


def segment_min_distance_to_origin(p: complex, q: complex) -> float:
    """Minimum distance from the origin to the closed segment [p, q]."""
    # measured from the end nearer the origin: from the far end, p + t*d
    # cancels to about ulp(|p|), which for a far pair swamps the distance;
    # dividing by |d| twice keeps |d|^2 of a segment longer than about
    # 1.3e154 from overflowing to inf, which would give t = 0
    if p.real * p.real + p.imag * p.imag > q.real * q.real + q.imag * q.imag:
        p, q = q, p
    d = q - p
    m = math.hypot(d.real, d.imag)
    if m == 0.0:
        return abs(p)
    t = -(p.real * d.real + p.imag * d.imag) / m / m
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return abs(p + t * d)


def segment_clears_disk(p: complex, q: complex) -> bool:
    """True iff the segment [p, q] does not enter the open unit disk.

    Endpoints on the circle itself count as clearing; VISIBILITY_SLACK
    absorbs the numerical drift of projected roots.
    """
    return segment_min_distance_to_origin(p, q) >= 1.0 - VISIBILITY_SLACK


def _argmin_on_circle(
    roots: Sequence[complex],
    mask: Sequence[bool],
    cost: Callable[[complex], float],
    keep: Optional[Callable[[complex], bool]] = None,
) -> Optional[tuple[complex, float, tuple[int, ...]]]:
    """(w, cost, tie_indices) of the least-cost projection w / |w| of a masked
    root that keep accepts, or None when none is left. Costs within _COST_TIE_EPS
    of the least tie; among them the largest Im, then the largest Re, wins.
    """
    best: list[tuple[float, int, complex]] = []
    for k, w in enumerate(roots):
        if mask[k]:
            wp = w / abs(w)
            if keep is None or keep(wp):
                best.append((cost(wp), k, wp))
    if len(best) < 2:
        # nothing to tie
        return (best[0][2], best[0][0], (best[0][1],)) if best else None
    cut = min([t[0] for t in best]) + _COST_TIE_EPS
    ties = [t for t in best if t[0] <= cut]
    if len(ties) == 1:
        c, k, w = ties[0]
        return w, c, (k,)
    c, _, w = max(ties, key=lambda t: (t[2].imag, t[2].real))
    return w, c, tuple([t[1] for t in ties])
