"""Brute-force ground truth, independent of the closed-form solvers.

These routines are deliberately plain: dense boundary grids refined by
golden-section search, and a Sylvester-resultant discriminant. They exist to
be trusted, not to be fast. The grids are scanned in fixed-size numpy blocks,
which picks the same grid point as a point-by-point loop; the scan shares no
code with the closed-form solvers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateLeadingCoefficient,
    InvalidObserver,
    PointOutsideDomain,
)
from .infinity import ObserverPolar
from .numeric import (
    VISIBILITY_SLACK,
    ensure_point,
    ensure_real,
    segment_clears_disk,
    unit_from_angle,
)

__all__ = [
    "OracleConfig",
    "golden_section_min",
    "oracle_smetric",
    "oracle_infinity_path",
    "oracle_quartic_discriminant",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# grid angles per numpy block: enough to amortise numpy's per-call cost, few
# enough that a scan's temporaries stay O(block) for any grid size
_BLOCK = 4096


@dataclass(frozen=True)
class OracleConfig:
    """grid is the number of initial boundary samples; refine_iters the number
    of golden-section steps applied around the best grid cell."""

    grid: int = 100_000
    refine_iters: int = 80

    def __post_init__(self) -> None:
        if self.grid < 1000:
            raise ValueError(f"grid must be >= 1000, got {self.grid}")
        if self.refine_iters < 20:
            raise ValueError(f"refine_iters must be >= 20, got {self.refine_iters}")


DEFAULT_ORACLE_CONFIG = OracleConfig()


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, iters: int
) -> tuple[float, float, float]:
    """Golden-section minimization on [lo, hi], assuming a single local minimum.

    Runs exactly `iters` shrink steps and returns (x, f(x), final bracket width).
    """
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(iters):
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = f(d)
    if yc < yd:
        x = c
        y = yc
    else:
        x = d
        y = yd
    return x, y, b - a


def _grid_argmin(
    start: float,
    step: float,
    k_lo: int,
    k_hi: int,
    values: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[int, float]:
    """First k in [k_lo, k_hi) minimizing values(cos phi, sin phi) at
    phi = start + k*step, or (-1, inf) when every value is inf.

    Scans _BLOCK angles at a time and keeps the first strict minimum across
    blocks, so the pick matches a loop over k that keeps the first of equal
    values.
    """
    best_k, best = -1, math.inf
    for k0 in range(k_lo, k_hi, _BLOCK):
        phi = start + np.arange(k0, min(k0 + _BLOCK, k_hi)) * step
        v = values(np.cos(phi), np.sin(phi))
        j = int(np.argmin(v))
        if v[j] < best:
            best_k, best = k0 + j, float(v[j])
    return best_k, best


def oracle_smetric(
    z1: complex, z2: complex, cfg: OracleConfig = DEFAULT_ORACLE_CONFIG
) -> tuple[complex, float]:
    """Triangular ratio metric by direct maximization of the defining ratio
    |z1 - z2| / (|z1 - w| + |w - z2|) over the boundary circle.

    Returns the maximizing boundary point and the metric value.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        raise PointOutsideDomain("both points must lie in the open unit disk")
    dist = abs(z1 - z2)
    if dist < 1e-14:
        raise CoincidentPoints("points coincide")

    def focal_sum(phi: float) -> float:
        w = cmath.exp(1j * phi)
        return abs(z1 - w) + abs(w - z2)

    def focal_sums(c: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.hypot(z1.real - c, z1.imag - s) + np.hypot(c - z2.real, s - z2.imag)

    # ascending samples -pi + k*step, k = 1..n, of (-pi, pi]
    step = math.tau / cfg.grid
    best_k, best_fs = _grid_argmin(-math.pi, step, 1, cfg.grid + 1, focal_sums)
    phi0 = -math.pi + best_k * step
    phi, fs, _ = golden_section_min(focal_sum, phi0 - step, phi0 + step, cfg.refine_iters)
    if best_fs < fs:
        phi, fs = phi0, best_fs
    return unit_from_angle(phi), dist / fs


def oracle_infinity_path(
    obs: ObserverPolar, cfg: OracleConfig = DEFAULT_ORACLE_CONFIG
) -> tuple[complex, float]:
    """Plane-wave reflection point by direct minimization of the path
    functional |f - w| - Re w over the physically reachable arc.

    The arc is the lit half Re w >= 0 restricted to points whose segment to
    the observer stays out of the open unit disk. Returns (w, path defect).
    """
    if abs(obs.theta) > math.pi / 2.0 + 1e-12:
        raise InvalidObserver("oracle is defined for |theta| <= pi/2")
    f = obs.point

    def defect(phi: float) -> float:
        w = cmath.exp(1j * phi)
        return abs(f - w) - w.real

    def valid(phi: float) -> bool:
        w = cmath.exp(1j * phi)
        return segment_clears_disk(w, f)

    def reachable_defects(c: np.ndarray, s: np.ndarray) -> np.ndarray:
        dx = f.real - c
        dy = f.imag - s
        # segment_clears_disk(w, f) per angle; a zero-length segment (dd == 0)
        # gets t = 0 and so the distance |w|, as in the scalar helper
        dd = dx * dx + dy * dy
        t = np.clip(-(c * dx + s * dy) / np.where(dd == 0.0, 1.0, dd), 0.0, 1.0)
        clear = np.hypot(c + t * dx, s + t * dy) >= 1.0 - VISIBILITY_SLACK
        return np.where(clear, np.hypot(dx, dy) - c, math.inf)

    n = cfg.grid
    step = math.pi / n
    start = -math.pi / 2.0
    best_k, best_g = _grid_argmin(start, step, 0, n + 1, reachable_defects)
    if best_k < 0:
        raise InvalidObserver("no reachable boundary point for this observer")
    lo = start + max(0, best_k - 1) * step
    hi = start + min(n, best_k + 1) * step
    phi, g, _ = golden_section_min(defect, lo, hi, cfg.refine_iters)
    if not valid(phi) or best_g < g:
        phi, g = start + best_k * step, best_g
    return unit_from_angle(phi), g


def oracle_quartic_discriminant(a: float, b: float, c: float, d: float, e: float) -> float:
    """Quartic discriminant as Res(p, p') / a via the 7x7 Sylvester matrix.

    With this row layout the normalization constant is exactly +1: on x^4 - 1
    the determinant route gives -256, matching the closed-form discriminant.
    """
    a = ensure_real(a, "a")
    if a == 0.0:
        raise DegenerateLeadingCoefficient("leading coefficient a is zero")
    b = ensure_real(b, "b")
    c = ensure_real(c, "c")
    d = ensure_real(d, "d")
    e = ensure_real(e, "e")
    s = np.array(
        [
            [a, b, c, d, e, 0, 0],
            [0, a, b, c, d, e, 0],
            [0, 0, a, b, c, d, e],
            [4 * a, 3 * b, 2 * c, d, 0, 0, 0],
            [0, 4 * a, 3 * b, 2 * c, d, 0, 0],
            [0, 0, 4 * a, 3 * b, 2 * c, d, 0],
            [0, 0, 0, 4 * a, 3 * b, 2 * c, d],
        ],
        dtype=float,
    )
    return float(np.linalg.det(s) / a)
