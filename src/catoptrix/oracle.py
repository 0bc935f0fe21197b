"""Brute-force ground truth, independent of the closed-form solvers.

These routines are deliberately plain: dense boundary grids refined by
golden-section search, and a Sylvester-resultant discriminant. They exist to
be trusted, not to be fast. The scan shares no code with the closed-form
solvers, and it picks the same grid point as a point-by-point loop (ties go
to the first), but it skips the grid cells that provably cannot hold the
minimum (Shubert, SIAM J. Numer. Anal. 9, 1972):

- A scanned value is lower(phi) or, where the reachability mask fails, inf;
  lower is finite. Both lowers, the focal sum |z1 - w| + |w - z2| and the
  path defect |f - w| - cos phi, have |d lower / d phi| <= 2, because each
  of their two terms moves at most as fast as w = e^{i phi}, whose speed is 1.
- Take cells of _CELL consecutive grid points. Every point of a cell lies
  within _CELL/2 grid steps of its centre; allow one more step for the
  rounding of phi = start + k*step. So in a cell with centre c,
  value >= lower >= lower(c) - 2*(_CELL/2 + 1)*step.
- The least value up at the cell centres evaluated so far is a grid value,
  so the grid minimum is at most up. A cell whose bound exceeds up, by more
  than a relative 1e-9 that covers the rounding of lower, holds only values
  above up: neither the minimum nor an equal value before it. It is not
  evaluated.

numpy is imported inside the functions that use it, not at module level. Only
these oracles need it, and importing it costs more than the rest of the
package together, so ``import catoptrix`` and every non-oracle CLI command
run without loading it; the first oracle call pays that cost once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .errors import (
    CoincidentPoints,
    DegenerateLeadingCoefficient,
    InvalidObserver,
    PointOutsideDomain,
)
from .infinity import ObserverPolar
from .numeric import (
    _COINCIDENT_EPS,
    VISIBILITY_SLACK,
    ensure_point,
    ensure_real,
    segment_clears_disk,
    unit_from_angle,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OracleConfig",
    "golden_section_min",
    "oracle_smetric",
    "oracle_infinity_path",
    "oracle_quartic_discriminant",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# angles per numpy call, cell centres or the points of scanned cells: enough
# to amortise numpy's per-call cost, few enough that a scan's temporaries stay
# O(block) for any grid size
_BLOCK = 4096
# grid points per cell that the scan keeps or skips whole; fewer cells mean
# fewer centres, smaller ones fewer points kept near the minimum, and of 32,
# 64 and 128 this evaluates the fewest points on uniform pairs and the default grid
_CELL = 64


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
    lower: Callable[[np.ndarray, np.ndarray], np.ndarray],
    clear: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> tuple[int, float]:
    """First k in [k_lo, k_hi) minimizing the value at phi = start + k*step,
    or (-1, inf) when every value is inf. The value is lower(cos phi, sin phi)
    where clear(cos phi, sin phi) holds, inf elsewhere; lower must be finite
    and 2-Lipschitz in phi.

    Cells of _CELL grid points are taken _BLOCK at a time, and a cell is
    scanned only when the bound of the module docstring lets it hold a value
    at most up, the least value at any cell centre so far. The scanned cells
    go in ascending k and the first strict minimum wins, so the pick matches
    a loop over every k that keeps the first of equal values.
    """
    import numpy as np

    def grid_values(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi = start + k * step
        c, s = np.cos(phi), np.sin(phi)
        low = lower(c, s)
        return low, low if clear is None else np.where(clear(c, s), low, math.inf)

    reach = 2.0 * (_CELL // 2 + 1) * step
    offsets = np.arange(_CELL)
    up = math.inf
    best_k, best = -1, math.inf
    for k0 in range(k_lo, k_hi, _BLOCK * _CELL):
        first = np.arange(k0, min(k0 + _BLOCK * _CELL, k_hi), _CELL)
        low, v = grid_values(np.minimum(first + _CELL // 2, k_hi - 1))
        up = min(up, float(np.min(v)))
        kept = first[low - reach - 1e-9 * (1.0 + np.abs(low)) <= up]
        for i in range(0, len(kept), _BLOCK // _CELL):
            k = (kept[i : i + _BLOCK // _CELL, None] + offsets).ravel()
            k = k[k < k_hi]
            v = grid_values(k)[1]
            j = int(np.argmin(v))
            if v[j] < best:
                best_k, best = int(k[j]), float(v[j])
    return best_k, best


def oracle_smetric(
    z1: complex, z2: complex, cfg: OracleConfig = DEFAULT_ORACLE_CONFIG
) -> tuple[complex, float]:
    """Triangular ratio metric by direct maximization of the defining ratio
    |z1 - z2| / (|z1 - w| + |w - z2|) over the boundary circle.

    Returns the maximizing boundary point and the metric value.
    """
    import numpy as np

    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        raise PointOutsideDomain("both points must lie in the open unit disk")
    dist = abs(z1 - z2)
    if dist < _COINCIDENT_EPS:
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
    import numpy as np

    if abs(obs.theta) > math.pi / 2.0 + 1e-12:
        raise InvalidObserver("oracle is defined for |theta| <= pi/2")
    f = obs.point

    def defect(phi: float) -> float:
        w = cmath.exp(1j * phi)
        return abs(f - w) - w.real

    def valid(phi: float) -> bool:
        w = cmath.exp(1j * phi)
        return segment_clears_disk(w, f)

    def defects(c: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.hypot(f.real - c, f.imag - s) - c

    def reachable(c: np.ndarray, s: np.ndarray) -> np.ndarray:
        dx = f.real - c
        dy = f.imag - s
        # segment_clears_disk(w, f) per angle; a zero-length segment (dd == 0)
        # gets t = 0 and so the distance |w|, as in the scalar helper
        dd = dx * dx + dy * dy
        t = np.clip(-(c * dx + s * dy) / np.where(dd == 0.0, 1.0, dd), 0.0, 1.0)
        return np.hypot(c + t * dx, s + t * dy) >= 1.0 - VISIBILITY_SLACK

    n = cfg.grid
    step = math.pi / n
    start = -math.pi / 2.0
    best_k, best_g = _grid_argmin(start, step, 0, n + 1, defects, reachable)
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
    import numpy as np

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
