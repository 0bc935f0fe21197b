"""Brute-force ground truth, independent of the closed-form solvers.

These routines are deliberately plain: a dense boundary grid refined by
golden-section search, and a Sylvester-resultant discriminant. They exist to
be trusted, not to be fast, and share no code with the closed-form solvers.
Each reflection oracle writes its function of w = e^{i phi} once, in complex
arithmetic that a Python complex (the refine) and a numpy array (the scan)
both evaluate, and hands it to _minimize.

The scan picks the same grid point as a point-by-point loop (ties go to the
first), but it skips the grid cells that provably cannot hold the minimum
(Shubert, SIAM J. Numer. Anal. 9, 1972):

- A scanned value is lower(w) where the clearance margin clear(w) is >= 0,
  and inf elsewhere; lower is finite. Both are Lipschitz in phi, with
  |d lower / d phi| <= lip and |d clear / d phi| <= 1.
- Take cells of _CELL consecutive grid points. Every point of a cell lies
  within _CELL/2 grid steps of its centre; allow one more step for the
  rounding of phi = start + k*step, a reach of R = (_CELL/2 + 1)*step. So
  in a cell with centre c, lower >= lower(c) - lip*R and clear <= clear(c)
  + R.
- The least value up at the cell centres (and at one more grid point that
  the caller names) is a grid value, so the grid minimum is at most up. A
  cell whose bound lower(c) - lip*R exceeds up, by more than a relative 1e-9
  that covers the rounding of lower, holds only values above up: neither
  the minimum nor an equal value before it. A cell whose clear(c) + R is
  below 0, by more than an absolute 1e-9 that covers the rounding of clear
  (|clear| <= 1), holds no clear point and only values inf. Neither is
  evaluated, and the pick is unchanged: clear(w) >= 0 decides as the test
  it stands for, as a - b >= 0 iff a >= b for finite floats.
- clear is evaluated only where a value can still win. The named point
  goes first, and up starts at its value. A centre whose bound exceeds
  that up is skipped whatever its margin, and its value, above the bound,
  cannot lower up; so clear at the other centres alone decides up and the
  kept cells. In a kept cell, a point whose lower(w) exceeds min(up, best),
  best the least value of the cells before it, has a value above the grid
  minimum (at most up) or above an earlier value, so it is neither the
  pick nor an equal value before it: it counts as inf, unevaluated. The
  kept cells and the pick are those of a scan that evaluates clear at every
  point it hands to lower.
- The cell starts and the centres' w depend on the grid alone, so each grid
  builds them once, on its first scan, into a read-only table (_centres) of
  about 38 KB at 10^5 points.

The bounds of each oracle:

- The focal sum. Write z = rho*e^{i*alpha} and w = e^{i*(alpha + psi)}; the
  slope of |z - w| in phi is Im(conj(z)*w)/|w - z| = rho*sin(psi)/|w - z|.
  As sin(psi)^2 <= (rho - cos(psi))^2 + sin(psi)^2 = |w - z|^2, the slope
  is at most rho = |z| in size (and at most 1, as |Im(conj(w)*(z - w))| <=
  |w - z|). So lip = |z1| + |z2|, below 2 in the open disk; every point
  clears.
- The path defect |f - w| - cos(phi): the first term moves at most as fast
  as w, whose speed is 1, so lip = 2. Its margin is min(Re w, dist(0, [w,
  f]) - (1 - VISIBILITY_SLACK)): cos(phi) is 1-Lipschitz, and moving one end
  of a segment by delta moves each of its points, and so its distance from
  the origin, by at most delta.
- The plane wave's named point is the one nearest e^{i*theta}, the foot of
  the perpendicular from f. Its radial segment to f never enters the disk,
  so it is clear whenever the clear arc around theta reaches half a grid
  step from theta, and up is finite even when that arc lies between two
  centres (r - 1 below about 5e-7 at 10^5 points). With VISIBILITY_SLACK
  the arc reaches at least about 9e-5 rad, more than half of the 3.1e-5
  rad step of 10^5 points; on a coarser grid it may miss every grid point,
  and then the margin alone skips the cells away from it.

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
    PointOutsideDomain,
)
from .infinity import ObserverPolar
from .numeric import (
    _COINCIDENT_EPS,
    VISIBILITY_SLACK,
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
    """(x, f(x)) of golden-section search on [a, b], a < b, assuming a single
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
    start: float,
    step: float,
    n: int,
    lower: _OnCircle,
    lip: float,
    clear: Optional[_OnCircle] = None,
    probe: Optional[float] = None,
) -> tuple[int, float]:
    """First k < n minimizing the value at w = e^{i(start + k*step)}, or
    (-1, inf) when every value is inf. The value is lower(w) where clear(w)
    >= 0, inf elsewhere; lower must be finite and lip-Lipschitz in phi, clear
    1-Lipschitz and at most 1 in size.

    A cell of _CELL grid points is scanned only when the bounds of the module
    docstring let it hold a value at most up, the least value at the grid
    point nearest the angle probe and at any cell centre. The kept cells go
    in ascending k and the first strict minimum wins, so the pick matches a
    loop over every k that keeps the first of equal values. clear is
    evaluated only where a value can still win (module docstring).
    """
    import numpy as np

    def masked(w: np.ndarray, low: np.ndarray, cut: float) -> np.ndarray:
        # the values at w, except inf in place of each low above cut
        if clear is None:
            return low
        i = (low <= cut).nonzero()[0]
        v = np.full(len(low), math.inf)
        v[i] = np.where(clear(w[i]) >= 0.0, low[i], math.inf)
        return v

    up = math.inf
    if probe is not None:
        w = np.exp(1j * (start + np.array([min(max(round((probe - start) / step), 0), n - 1)]) * step))
        up = float(masked(w, lower(w), up)[0])
    first, w = _centres(start, step, n)
    low = lower(w)
    reach = (_CELL // 2 + 1) * step
    bound = low - lip * reach - 1e-9 * (1.0 + np.abs(low))
    if clear is None:
        up = min(up, float(low.min()))
        kept = first[bound <= up]
    else:
        # only a centre whose bound is at most up can be kept, and one whose
        # bound exceeds up has a value above it, so the others decide up
        i = (bound <= up).nonzero()[0]
        margin = clear(w[i])
        up = min(up, float(low[i].min(initial=math.inf, where=margin >= 0.0)))
        kept = first[i[(bound[i] <= up) & (margin >= -reach - 1e-9)]]
    best_k, best = -1, math.inf
    for i in range(0, len(kept), _BLOCK // _CELL):
        k = (kept[i : i + _BLOCK // _CELL, None] + np.arange(_CELL)).ravel()
        k = k[k < n]
        w = np.exp(1j * (start + k * step))
        v = masked(w, lower(w), min(up, best))
        j = int(v.argmin())
        if v[j] < best:
            best_k, best = int(k[j]), float(v[j])
    return best_k, best


def _minimize(
    start: float,
    step: float,
    n: int,
    lower: _OnCircle,
    lip: float,
    clear: Optional[_OnCircle] = None,
    probe: Optional[float] = None,
) -> Optional[tuple[float, float]]:
    """(phi, value) least at the grid points phi_k = start + k*step, k < n,
    where clear(w) >= 0, refined by golden-section search on
    [phi_k - step, phi_k + step]; None when no grid point is clear. The grid
    point stays when the refine is worse or its point is not clear. lip and
    probe go to _grid_argmin."""
    k, best = _grid_argmin(start, step, n, lower, lip, clear, probe)
    if k < 0:
        return None
    phi0 = start + k * step
    phi, value = _golden_section_min(lambda x: lower(cmath.exp(1j * x)), phi0 - step, phi0 + step)
    if best < value or (clear is not None and clear(cmath.exp(1j * phi)) < 0.0):
        return phi0, best
    return phi, value


def oracle_smetric(z1: complex, z2: complex) -> tuple[complex, float]:
    """Triangular ratio metric by direct maximization of the defining ratio
    |z1 - z2| / (|z1 - w| + |w - z2|) over the boundary circle.

    Returns the maximizing boundary point and the metric value.
    """
    z1 = ensure_point(z1, "z1")
    z2 = ensure_point(z2, "z2")
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        raise PointOutsideDomain("both points must lie in the open unit disk")
    dist = abs(z1 - z2)
    if dist < _COINCIDENT_EPS:
        raise CoincidentPoints("points coincide")

    def focal_sum(w: Any) -> Any:
        return abs(z1 - w) + abs(w - z2)

    # every grid point clears, so there is always an answer; the slope of
    # each term is at most |z| (module docstring)
    phi, fs = _minimize(0.0, math.tau / _GRID, _GRID, focal_sum, abs(z1) + abs(z2))
    return unit_from_angle(phi), dist / fs


def oracle_infinity_path(obs: ObserverPolar) -> tuple[complex, float]:
    """Plane-wave reflection point by direct minimization of the path
    functional |f - w| - Re w over the physically reachable arc.

    The arc is the lit half Re w >= 0 restricted to points whose segment to
    the observer stays out of the open unit disk. Returns (w, path defect).

    For |theta| <= pi/2 the test Re w >= 0 never decides the answer, as the
    functional rises outward at both lit edges (see infinity_reflection); it
    defines the lit domain, which an oracle for |theta| > pi/2 would need.
    """
    import numpy as np

    if abs(obs.theta) > math.pi / 2.0 + 1e-12:
        raise InvalidObserver("oracle is defined for |theta| <= pi/2")
    f = obs.point

    def defect(w: Any) -> Any:
        return abs(f - w) - w.real

    def lit_and_reachable(w: Any) -> Any:
        # >= 0 iff Re w >= 0 and numeric.segment_clears_disk(w, f), measured
        # from w, the end nearer the origin; |f - w| >= r - 1 > 0, and
        # dividing by it twice keeps a far observer's |f - w|^2 from overflowing
        d = f - w
        m = abs(d)
        t = np.minimum(np.maximum(-(w.real * d.real + w.imag * d.imag) / m / m, 0.0), 1.0)
        return np.minimum(w.real, abs(w + t * d) - (1.0 - VISIBILITY_SLACK))

    # lip 2, and e^{i theta}, the foot point, evaluated before the centres
    found = _minimize(
        -math.pi / 2.0, math.pi / _GRID, _GRID + 1, defect, 2.0, lit_and_reachable, obs.theta
    )
    if found is None:
        raise InvalidObserver("no reachable boundary point for this observer")
    phi, g = found
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
