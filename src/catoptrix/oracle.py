"""Brute-force ground truth, independent of the closed-form solvers.

These routines are deliberately plain: a dense boundary grid refined by
golden-section search, and a Sylvester-resultant discriminant. They exist to
be trusted, not to be fast, and share no code with the closed-form solvers.
Each reflection oracle writes its function of w = e^{i phi} once, in complex
arithmetic that a Python complex (the refine) and a numpy array (the scan)
both evaluate, and hands it to _minimize.

The scan picks the same grid point as a point-by-point loop over the
indices lo..hi (ties go to the first), but it skips the grid cells that
provably cannot hold the minimum (Shubert, SIAM J. Numer. Anal. 9, 1972):

- The scanned function lower is finite and Lipschitz in phi, with
  |d lower / d phi| <= lip.
- Take cells of _CELL consecutive grid points. Every point of a cell lies
  within _CELL/2 grid steps of its centre; allow one more step for the
  rounding of phi = start + k*step, a reach of R = (_CELL/2 + 1)*step. So
  in a cell with centre c, lower >= lower(c) - lip*R.
- The least value up at the cell centres that lie in lo..hi is a grid value
  of the range, so its minimum is at most up. A cell whose bound lower(c) -
  lip*R exceeds up, by more than a relative 1e-9 that covers the rounding
  of lower, holds only values above up: neither the minimum nor an equal
  value before it, so it is not evaluated. Only the first and the last cell
  can reach past the range: their centres bound their cells, count towards
  up only when they lie in it, and only their points in it are scanned.
- The cell starts and the centres' w depend on the grid alone, so each grid
  builds them once, on its first scan, into a read-only table (_centres) of
  about 38 KB at 10^5 points.

The bounds of each oracle:

- The focal sum. Write z = rho*e^{i*alpha} and w = e^{i*(alpha + psi)}; the
  slope of |z - w| in phi is Im(conj(z)*w)/|w - z| = rho*sin(psi)/|w - z|.
  As sin(psi)^2 <= (rho - cos(psi))^2 + sin(psi)^2 = |w - z|^2, the slope
  is at most rho = |z| in size (and at most 1, as |Im(conj(w)*(z - w))| <=
  |w - z|). So lip = |z1| + |z2|, below 2 in the open disk, over the whole
  circle.
- The path defect |f - w| - cos(phi): the first term moves at most as fast
  as w, whose speed is 1, so lip = 2. It is scanned less the constant r - 1,
  as |u - w|^2 / (|f - w|/r + (r - 1)/r) - Re w with u = e^{i*theta} (as
  |f - w|^2 - (r - 1)^2 = r*|u - w|^2): the same lip, but values of size 1,
  not r, so they compare to ulp(1) and the angle keeps its digits as r
  grows, and no term overflows for any finite r.

The plane wave's reachable arc, in closed form. Write s = VISIBILITY_SLACK
and rho0 = 1 - s; a lit w is reachable when dist(0, [w, f]) >= rho0, the
test of numeric.segment_clears_disk.

- For w on the unit circle, dist(0, [w, f]) >= rho0 iff |f - w| <= T, where
  T = sqrt(r^2 - rho0^2) + sqrt(1 - rho0^2). A visible w, r*cos(phi -
  theta) >= 1, has distance 1 and |f - w| <= sqrt(r^2 - 1) <= T. For a
  hidden w the segment contains the midpoint of the chord that its line
  cuts, so |f - w| = sqrt(r^2 - rho^2) + sqrt(1 - rho^2), which falls as
  the line's distance rho from the origin rises.
- |f - w|^2 = r^2 + 1 - 2r*cos(phi - theta) grows with |phi - theta|, so
  the reachable set is |phi - theta| <= alpha, where 4r*sin(alpha/2)^2 =
  (T - (r - 1))*(T + (r - 1)).
- The lit half Re w >= 0 is the grid's own span, [-pi/2, pi/2].
- Written as T - (r - 1) = (2(r - 1) + s(2 - s)) / (sqrt(r - rho0)*sqrt(r
  + rho0) + r - 1) + sqrt(s(2 - s)), nothing cancels; with each sum of
  size r halved, nothing overflows for any finite r.

numpy is imported inside the functions that use it, not at module level. Only
these oracles need it, and importing it costs more than the rest of the
package together, so ``import catoptrix`` and every non-oracle CLI command
run without loading it; the first oracle call pays that cost once, and no
centre table exists until a scan needs it.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import (
    CoincidentPoints,
    DegenerateLeadingCoefficient,
    InvalidObserver,
)
from .infinity import ObserverPolar
from .numeric import (
    _COINCIDENT_EPS,
    VISIBILITY_SLACK,
    _ensure_in_disk,
    ensure_point,
    ensure_real,
    unit_from_angle,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "oracle_smetric",
    "oracle_infinity_path",
    "oracle_quartic_discriminant",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# boundary samples of each reflection oracle
_GRID = 100_000
# grid points per cell that the scan keeps or skips whole; fewer cells mean
# fewer centres, smaller ones fewer points kept near the minimum, and of 32,
# 64 and 128 this evaluates the fewest points on uniform pairs
_CELL = 64
# points of kept cells per numpy call: enough to amortise numpy's per-call
# cost, few enough that a nearly flat function keeps the temporaries small
_BLOCK = 4096
# the golden-section bracket at which the refine stops: 4 ulps of 1, at least
# an ulp of every angle below 8 (so each step still shrinks the bracket), and
# far below the 1e-8 or so to which comparing values can place a minimum
_GOLDEN_STOP = 4.0 * sys.float_info.epsilon

# a function of w = e^{i phi}, on a complex or elementwise on an array
_OnCircle = Callable[[Any], Any]


def _golden_section_min(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(x, f(x)) of golden-section search on [a, b], a <= b, assuming a single
    local minimum there; the bracket shrinks to _GOLDEN_STOP."""
    c = a + _INV_PHI2 * (b - a)
    d = a + _INV_PHI * (b - a)
    yc = f(c)
    yd = f(d)
    while b - a > _GOLDEN_STOP:
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI2 * (b - a)
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


@functools.lru_cache(maxsize=4)
def _centres(start: float, step: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first grid index of each cell of _CELL points, k < n, and w at
    the cell's centre, both read-only: they depend on the grid alone, so
    each grid builds them once (the two oracles' grids, and two more)."""
    import numpy as np

    first = np.arange(0, n, _CELL)
    w = np.exp(1j * (start + np.minimum(first + _CELL // 2, n - 1) * step))
    first.flags.writeable = False
    w.flags.writeable = False
    return first, w


def _grid_argmin(
    start: float, step: float, n: int, lo: int, hi: int, lower: _OnCircle, lip: float
) -> tuple[int, float]:
    """First k in lo..hi (0 <= lo, hi < n) minimizing lower(w) at w =
    e^{i(start + k*step)}, or (-1, inf) when lo > hi; lower must be finite
    and lip-Lipschitz in phi.

    A cell of _CELL grid points is scanned only when the bound of the module
    docstring lets it hold a value at most up, the least value at a cell
    centre in the range. The kept cells go in ascending k and the first
    strict minimum wins, so the pick matches a loop over every k that keeps
    the first of equal values.
    """
    import numpy as np

    if lo > hi:
        return -1, math.inf
    cells = slice(lo // _CELL, hi // _CELL + 1)
    first, w = _centres(start, step, n)
    first, w = first[cells], w[cells]
    low = lower(w)
    bound = low - lip * (_CELL // 2 + 1) * step - 1e-9 * (1.0 + np.abs(low))
    # the centres of all cells but the first and the last lie in the range
    up = float(low[1:-1].min(initial=math.inf))
    for j in (0, -1):
        if lo <= min(int(first[j]) + _CELL // 2, n - 1) <= hi:
            up = min(up, float(low[j]))
    kept = first[bound <= up]
    best_k, best = -1, math.inf
    for i in range(0, len(kept), _BLOCK // _CELL):
        k = (kept[i : i + _BLOCK // _CELL, None] + np.arange(_CELL)).ravel()
        if k[0] < lo or k[-1] > hi:
            k = k[(k >= lo) & (k <= hi)]
        v = lower(np.exp(1j * (start + k * step)))
        j = int(v.argmin())
        if v[j] < best:
            best_k, best = int(k[j]), float(v[j])
    return best_k, best


def _minimize(
    start: float, step: float, n: int, lower: _OnCircle, lip: float, arc: tuple[float, float]
) -> Optional[tuple[float, float]]:
    """(phi, value) least at the grid points phi_k = start + k*step, k < n,
    that lie in arc = (a, b), refined by golden-section search on
    [phi_k - step, phi_k + step] clipped to the arc; None when the arc holds
    no grid point. The grid point stays when the refine is worse. lip goes
    to _grid_argmin."""
    a, b = arc
    lo = math.ceil(max((a - start) / step, 0.0))
    hi = math.floor(min((b - start) / step, n - 1.0))
    k, best = _grid_argmin(start, step, n, lo, hi, lower, lip)
    if k < 0:
        return None
    phi0 = start + k * step
    phi, value = _golden_section_min(
        lambda x: lower(cmath.exp(1j * x)), max(phi0 - step, a), min(phi0 + step, b)
    )
    if best < value:
        return phi0, best
    return phi, value


def oracle_smetric(z1: complex, z2: complex) -> tuple[complex, float]:
    """Triangular ratio metric by direct maximization of the defining ratio
    |z1 - z2| / (|z1 - w| + |w - z2|) over the boundary circle.

    Returns the maximizing boundary point and the metric value.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    _ensure_in_disk(z1, z2)
    dist = abs(z1 - z2)
    if dist < _COINCIDENT_EPS:
        raise CoincidentPoints("points coincide")

    def focal_sum(w: Any) -> Any:
        return abs(z1 - w) + abs(w - z2)

    # the whole circle, so there is always an answer; the slope of each term
    # is at most |z| (module docstring)
    phi, fs = _minimize(0.0, math.tau / _GRID, _GRID, focal_sum, abs(z1) + abs(z2), (-math.inf, math.inf))
    return unit_from_angle(phi), dist / fs


def _reachable_arc(r: float, theta: float) -> tuple[float, float]:
    """The angles phi of the lit points w = e^{i phi} whose segment to the
    observer r*e^{i theta} clears the disk: |phi - theta| <= alpha within
    [-pi/2, pi/2], with alpha from the module docstring."""
    s = VISIBILITY_SLACK
    rho0 = 1.0 - s
    slack = s * (2.0 - s)  # 1 - rho0^2
    # sqrt(r^2 - rho0^2) / 2; each sum is halved, exactly, so none overflows
    far = 0.5 * math.sqrt(r - rho0) * math.sqrt(r + rho0)
    below = (r - 1.0 + 0.5 * slack) / (far + 0.5 * r - 0.5) + math.sqrt(slack)  # T - (r - 1)
    above = far + 0.5 * math.sqrt(slack) + 0.5 * r - 0.5  # (T + (r - 1)) / 2
    alpha = 2.0 * math.asin(min(math.sqrt(0.5 * below * (above / r)), 1.0))
    return max(theta - alpha, -math.pi / 2.0), min(theta + alpha, math.pi / 2.0)


def oracle_infinity_path(obs: ObserverPolar) -> tuple[complex, float]:
    """Plane-wave reflection point by direct minimization of the path
    functional |f - w| - Re w over the physically reachable arc.

    The arc is the lit half Re w >= 0 restricted to points whose segment to
    the observer stays out of the open unit disk; it is one interval of
    angles around theta, computed in closed form. The scan and the refine
    minimize the functional less r - 1 (module docstring). Returns (w, path
    defect), the defect evaluated at w.

    For |theta| <= pi/2 the lit edges never decide the answer, as the
    functional g(phi) = |f - e^{i*phi}| - cos(phi) rises outward at both ends
    of the arc: g' = +-1 + sin(phi) at the tangent points from f, and
    +-(r*cos(theta)/|f -+ i| + 1) at phi = +-pi/2. They bound the lit domain,
    which an oracle for |theta| > pi/2 would need.
    """
    if abs(obs.theta) > math.pi / 2.0 + 1e-12:
        raise InvalidObserver("oracle is defined for |theta| <= pi/2")
    f, r, u = obs.point, obs.r, cmath.exp(1j * obs.theta)
    q = (r - 1.0) / r

    def defect_less_r_minus_1(w: Any) -> Any:
        return abs(u - w) ** 2 / (abs(f - w) / r + q) - w.real

    found = _minimize(
        -math.pi / 2.0, math.pi / _GRID, _GRID + 1, defect_less_r_minus_1, 2.0, _reachable_arc(r, obs.theta)
    )
    if found is None:
        raise InvalidObserver("no reachable boundary point for this observer")
    w = unit_from_angle(found[0])
    return w, abs(f - w) - w.real


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
