"""The brute-force oracles themselves: grid search, golden refinement, resultant."""

import cmath
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from catoptrix import (
    ObserverPolar,
    infinity_reflection,
    oracle_infinity_path,
    oracle_quartic_discriminant,
    oracle_smetric,
    real_quartic_invariants,
)
from catoptrix import oracle as oracle_module
from catoptrix.numeric import segment_clears_disk, unit_from_angle
from catoptrix.errors import (
    CoincidentPoints,
    DegenerateLeadingCoefficient,
    InvalidObserver,
    PointOutsideDomain,
)


def test_golden_section_known_minimum():
    x, y = oracle_module._golden_section_min(lambda t: (t - 1.234) ** 2 + 0.5, 0.0, 3.0)
    assert abs(x - 1.234) < 1e-8
    assert abs(y - 0.5) < 1e-15


def test_golden_section_shrinks_default_grid_cell_below_1e12():
    # the refine's bracket, two steps of the finite pair's grid, around a
    # minimum of value 0, where each ulp of the angle changes the value; the
    # stop at 4 ulps of 1 takes about 55 steps
    h = math.tau / oracle_module._GRID
    calls = []

    def f(t):
        calls.append(t)
        return (t - 1e-5) ** 2

    x, _ = oracle_module._golden_section_min(f, -h, h)
    assert abs(x - 1e-5) < 1e-12
    assert len(calls) <= 2 + math.ceil(math.log(2 * h / (4 * 2**-52)) / math.log((1 + 5**0.5) / 2))


_STEP = math.tau / 1000
_TARGET = cmath.exp(0.4j * _STEP)  # the minimum, between grid points 0 and 1


def _distance(w):
    return abs(w - _TARGET)


def test_minimize_returns_none_for_an_arc_with_no_grid_point():
    # on which oracle_infinity_path raises InvalidObserver
    assert oracle_module._minimize(0.0, _STEP, 1000, _distance, 1.0, (0.1 * _STEP, 0.9 * _STEP)) is None


def test_minimize_keeps_the_refine_inside_the_arc():
    # the refine's bracket around grid point 0 is clipped at 0.2 steps, short
    # of the minimum: it ends at the arc's end, better than the grid point
    phi, value = oracle_module._minimize(0.0, _STEP, 1000, _distance, 1.0, (-math.inf, 0.2 * _STEP))
    assert -_STEP <= phi <= 0.2 * _STEP and abs(phi - 0.2 * _STEP) < 1e-9
    assert value < abs(1.0 - _TARGET)
    phi, value = oracle_module._minimize(0.0, _STEP, 1000, _distance, 1.0, (-math.inf, math.inf))
    assert abs(phi - 0.4 * _STEP) < 1e-9 and value < 1e-9


def test_smetric_diametral_pair():
    # ratio maximal where the focal sum is minimal: at the diameter ends
    w, s = oracle_smetric(0.5, -0.5)
    assert abs(s - 0.5) < 1e-9
    assert min(abs(w - 1.0), abs(w + 1.0)) < 1e-4


def test_smetric_collinear_pair():
    w, s = oracle_smetric(0, 0.5)
    assert abs(s - 1.0 / 3.0) < 1e-9
    assert abs(w - 1.0) < 1e-4


def test_smetric_default_resolution_reference_pair():
    # reference values for (0.4, 0.3i); other tests freeze these numbers
    w, s = oracle_smetric(0.4, 0.3j)
    assert abs(cmath.phase(w) - 0.52293227382887064) < 1e-6
    assert abs(s - 0.3180004591443612) < 1e-12


def test_smetric_errors():
    with pytest.raises(PointOutsideDomain):
        oracle_smetric(1.5, 0.2)
    with pytest.raises(CoincidentPoints):
        oracle_smetric(0.2 + 0.1j, 0.2 + 0.1j)


def test_infinity_path_axial():
    w, defect = oracle_infinity_path(ObserverPolar(2.0, 0.0))
    assert abs(w - 1.0) < 1e-6
    assert abs(defect - 0.0) < 1e-9


def test_infinity_path_vertical_reference():
    # the minimizer to 50 digits (mpmath); there g = 0.738 and g'' = 1.302, so
    # a minimizer that compares only values cannot place the angle closer
    # than sqrt(2 ulp(g) / g'') = 1.3e-8
    w, defect = oracle_infinity_path(ObserverPolar(2.0, math.pi / 2))
    assert abs(cmath.phase(w) - 1.0029669538662527) < 1.3e-8
    assert abs(defect - 0.73801745965638088) < 1e-12


def test_infinity_minimizer_satisfies_reality_condition():
    # Fermat stationarity coincides with the reflection law
    for (r, theta) in [(2.0, 0.9), (5.0, 0.3), (1.3, 1.4)]:
        w, _ = oracle_infinity_path(ObserverPolar(r, theta))
        f = r * cmath.exp(1j * theta)
        assert abs(((f - w) / (w * w)).imag) < 1e-6


def test_infinity_path_rejects_shadow_side():
    with pytest.raises(InvalidObserver):
        oracle_infinity_path(ObserverPolar(2.0, 2.0))


def test_discriminant_calibration_points():
    # normalization constant is +1: both routes give -256 on x^4 - 1
    assert abs(oracle_quartic_discriminant(1, 0, 0, 0, -1) - (-256.0)) < 1e-9
    nat = real_quartic_invariants(1, 0, 0, 0, -1)
    assert nat.delta == -256.0
    # four distinct real roots force the full sign pattern
    res = oracle_quartic_discriminant(1, -10, 35, -50, 24)
    nat = real_quartic_invariants(1, -10, 35, -50, 24)
    assert abs(res - 144.0) < 1e-9
    assert nat.delta == 144.0 and nat.p < 0 and nat.d < 0


def test_discriminant_sign_agreement_bulk():
    rng = np.random.default_rng(109)
    checked = 0
    while checked < 10_000:
        a, b, c, d, e = rng.uniform(-2, 2, 5)
        if abs(a) < 0.05:
            continue
        delta = real_quartic_invariants(a, b, c, d, e).delta
        if abs(delta) < 1e-6:
            continue  # skip the near-degenerate band
        res = oracle_quartic_discriminant(a, b, c, d, e)
        assert (res > 0) == (delta > 0)
        checked += 1


def test_discriminant_rejects_degenerate():
    with pytest.raises(DegenerateLeadingCoefficient):
        oracle_quartic_discriminant(0, 1, 2, 3, 4)


def _reference_smetric(z1, z2):
    # the grid point by point, then the refine. The grid values come from one
    # numpy expression, as in the oracle's scan: numpy's complex abs can differ
    # from Python's in the last bit, and on a flat pair that bit is the pick
    def focal_sum(phi):
        w = cmath.exp(1j * phi)
        return abs(z1 - w) + abs(w - z2)

    n = oracle_module._GRID
    step = math.tau / n
    w = np.exp(1j * (np.arange(n) * step))
    values = (np.abs(z1 - w) + np.abs(w - z2)).tolist()
    best_k = min(range(n), key=values.__getitem__)  # the first of equal values
    phi0, best_fs = best_k * step, values[best_k]
    phi, fs = oracle_module._golden_section_min(focal_sum, phi0 - step, phi0 + step)
    if best_fs < fs:
        phi, fs = phi0, best_fs
    return unit_from_angle(phi), abs(z1 - z2) / fs


def _reference_infinity_path(obs):
    # the grid point by point, masked by the scalar visibility test, then the
    # refine clipped to the oracle's arc (which
    # test_reachable_arc_is_the_per_point_set checks against that mask). The
    # function is the oracle's: the path defect less r - 1
    f, u, r = obs.point, cmath.exp(1j * obs.theta), obs.r
    q = (r - 1.0) / r

    def defect_less_r_minus_1(phi):
        w = cmath.exp(1j * phi)
        return abs(u - w) ** 2 / (abs(f - w) / r + q) - w.real

    def lit_and_reachable(phi):
        w = cmath.exp(1j * phi)
        return w.real >= 0.0 and segment_clears_disk(w, f)

    n = oracle_module._GRID
    step = math.pi / n
    phis = (-math.pi / 2.0 + np.arange(n + 1) * step).tolist()
    w = np.exp(1j * np.array(phis))
    values = (np.abs(u - w) ** 2 / (np.abs(f - w) / r + q) - w.real).tolist()
    best_k, best_g = -1, math.inf
    for k, phi in enumerate(phis):
        if values[k] < best_g and lit_and_reachable(phi):
            best_k, best_g = k, values[k]
    if best_k < 0:
        raise InvalidObserver("no reachable boundary point for this observer")
    phi0 = phis[best_k]
    a, b = oracle_module._reachable_arc(r, obs.theta)
    phi, g = oracle_module._golden_section_min(defect_less_r_minus_1, max(phi0 - step, a), min(phi0 + step, b))
    if best_g < g:
        phi = phi0
    w = unit_from_angle(phi)
    return w, abs(f - w) - w.real


# the grid is a private constant; a test sets it to see the scan on grids
# that are no multiple of a cell, or where nothing is clear
@pytest.mark.parametrize("grid", [10_007, 100_000])  # not a multiple of a cell; the default
@pytest.mark.parametrize(
    "oracle, args",
    [
        ("smetric", (0.5, -0.5)),  # two grid minima of equal focal sum
        ("smetric", ((1 - 1e-9) * cmath.exp(0.7j), 0.2 - 0.1j)),  # near the rim
        ("smetric", (1e-9, -1e-9)),  # focal sum 2 to the last bit on most of the grid
        ("infinity", (2.0, math.pi / 2)),
        ("infinity", (1 + 1e-9, 0.4)),  # no reachable point on the coarser grid
    ],
    ids=["diametral", "near-rim", "flat", "theta-half-pi", "r-1e-9"],
)
def test_blocked_scan_matches_reference_loop(oracle, args, grid, monkeypatch):
    monkeypatch.setattr(oracle_module, "_GRID", grid)
    if oracle == "smetric":
        blocked, reference = oracle_smetric, _reference_smetric
    else:
        blocked, reference = oracle_infinity_path, _reference_infinity_path
        args = (ObserverPolar(*args),)

    def outcome(fn):
        try:
            return fn(*args)
        except InvalidObserver as exc:
            return str(exc)

    assert outcome(blocked) == outcome(reference)


def _full_scan(start, step, n, lo, hi, lower, lip):
    # the reference: every grid point of lo..hi, in numpy blocks of 4096; the
    # bound lip only skips, so it needs none
    best_k, best = -1, math.inf
    for k0 in range(lo, hi + 1, 4096):
        v = lower(np.exp(1j * (start + np.arange(k0, min(k0 + 4096, hi + 1)) * step)))
        j = int(np.argmin(v))
        if v[j] < best:
            best_k, best = k0 + j, float(v[j])
    return best_k, best


def _unit(rng):
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _disk_point(rng, r_lo=0.0, r_hi=0.95):
    return rng.uniform(r_lo, r_hi) * _unit(rng)


def _oracle_cases(family, rng):
    """(oracle, args) instances of one family, drawn from rng."""
    if family == "uniform":
        return [("smetric", (_disk_point(rng), _disk_point(rng))) for _ in range(8)]
    if family == "near-rim":
        return [("smetric", ((1 - 10 ** rng.uniform(-12, -3)) * _unit(rng), _disk_point(rng))) for _ in range(8)]
    if family == "near-coincident":
        zs = [_disk_point(rng, 0.0, 0.9) for _ in range(8)]
        return [("smetric", (z, z + 10 ** rng.uniform(-12, -3) * _unit(rng))) for z in zs]
    if family == "near-origin":
        return [("smetric", (10 ** rng.uniform(-15, -2) * _unit(rng), _disk_point(rng))) for _ in range(8)]
    if family == "two-minima":
        # diametral and mirror pairs: two grid minima of equal focal sum
        zs = [_disk_point(rng, 0.05, 0.95) for _ in range(4)]
        return [("smetric", (z, w)) for z in zs for w in (-z, z.conjugate())] + [("smetric", (0.5, -0.5))]
    if family == "flat":
        return [("smetric", (1e-9, -1e-9))]  # focal sum 2 to the last bit on most of the grid
    if family == "tight-slope":
        # a rim point just past a cell's first grid point, where the focal
        # sum has a kink, and a second point whose term there has the
        # largest slope its modulus allows: the neighbour cell's centre is
        # lower, and only a constant of at least about |z1| + |z2| keeps the cell
        cell, grid = oracle_module._CELL, oracle_module._GRID
        out = []
        for off in (0.1, 0.5):
            for rho in (0.9, 0.99):
                alpha = (cell * rng.randrange(1, grid // cell) + off) * (math.tau / grid)
                z2 = rho * cmath.exp(1j * (alpha - math.acos(rho)))
                out.append(("smetric", ((1 - 1e-12) * cmath.exp(1j * alpha), z2)))
        return out
    # lit observers: random ones; r - 1 down to 1e-10, where the arc can hold
    # no grid point (at grids 3000 and 10007); theta at 0 and near +-pi/2;
    # and far ones
    out = [("infinity", (1 + 10 ** rng.uniform(-2, 1.5), rng.uniform(-1.5, 1.5))) for _ in range(6)]
    for r in (1 + 1e-10, 1 + 1e-9, 1 + 1e-7, 1 + 1e-5, 1 + 1e-4, 1 + 1e-3, 2.0, 1e12, 1e15):
        for theta in (0.0, 1e-9, math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-9, rng.uniform(-1.5, 1.5)):
            out.append(("infinity", (r, theta)))
    return out


_SCAN_FAMILIES = [
    "uniform", "near-rim", "near-coincident", "near-origin", "two-minima", "flat", "tight-slope", "observers"
]


@pytest.mark.parametrize("grid", [3000, 10_007, 100_000])
@pytest.mark.parametrize("family", _SCAN_FAMILIES)
def test_skipping_scan_matches_full_scan_bits(family, grid, monkeypatch):
    # every scan an oracle makes returns the full scan's (k, value) bits
    pairs = []
    skipping = oracle_module._grid_argmin

    def both(*args):
        got = skipping(*args)
        pairs.append((got, _full_scan(*args)))
        return got

    monkeypatch.setattr(oracle_module, "_grid_argmin", both)
    monkeypatch.setattr(oracle_module, "_GRID", grid)
    rng = random.Random(f"{family}:{grid}")
    for oracle, args in _oracle_cases(family, rng):
        try:
            if oracle == "smetric":
                oracle_smetric(*args)
            else:
                oracle_infinity_path(ObserverPolar(*args))
        except InvalidObserver:
            assert pairs[-1][1] == (-1, math.inf)
    assert pairs
    for (k, v), (k_ref, v_ref) in pairs:
        assert (k, v.hex()) == (k_ref, v_ref.hex())


def _count_scanned(monkeypatch):
    """Grid points that each scan hands to lower, one [count] per scan: the
    centres of the cells that meet the range, and the kept cells."""
    counts = []
    skipping = oracle_module._grid_argmin

    def counting(start, step, n, lo, hi, lower, lip):
        count = [0]

        def counted(w):
            count[0] += len(w)
            return lower(w)

        counts.append(count)
        return skipping(start, step, n, lo, hi, counted, lip)

    monkeypatch.setattr(oracle_module, "_grid_argmin", counting)
    return counts


def _lit_sweep():
    # r - 1 log-uniform over 12 decades, as the benchmark draws it
    rng = random.Random("lit-sweep")
    return [("infinity", (1 + 10 ** rng.uniform(-9, 3), rng.uniform(-math.pi / 2, math.pi / 2))) for _ in range(200)]


_NEAR_RIM = {
    f"near-rim-{e:.0e}-{name}": (1 + e, theta)
    for e in (1e-9, 1e-7)
    for name, theta in [("0.4", 0.4), ("half-pi-less-1e-9", math.pi / 2 - 1e-9), ("minus-half-pi", -math.pi / 2)]
}


@pytest.mark.parametrize(
    "calls, share",
    [
        ([("smetric", (0.4, 0.3j))], 0.15),
        ([("infinity", (2.5, 0.6))], 0.15),
        # 18395 points with lip = |z1| + |z2|; the constant 2 takes 21211
        ([("smetric", (0.37 + 0.22j, -0.41 + 0.13j))], 0.19),
        # the arc holds a few grid points and no cell centre
        *[([("infinity", args)], 0.05 if args[1] == 0.4 else 0.1) for args in _NEAR_RIM.values()],
        (_lit_sweep(), 0.1),
    ],
    ids=["uniform-pair", "lit-observer", "flat-pair"]
    + list(_NEAR_RIM)
    + ["lit-sweep"],
)
def test_skipping_scan_evaluates_few_grid_points(calls, share, monkeypatch):
    # lower goes to the centres of the cells that meet the range and to the
    # kept cells (8 points at r = 1 + 1e-9, theta = 0.4)
    counts = _count_scanned(monkeypatch)
    for oracle, args in calls:
        if oracle == "smetric":
            oracle_smetric(*args)
        else:
            oracle_infinity_path(ObserverPolar(*args))
        (lower,), = counts
        assert 0 < lower < share * oracle_module._GRID, args
        counts.pop()


@pytest.mark.parametrize("r", [1 + 1e-9, 1 + 1e-10], ids=["1e-9", "1e-10"])
def test_no_reachable_grid_point_raises_unscanned(r, monkeypatch):
    # at grid 10007 the reachable arc around theta = 0.4, about +-9e-5 rad
    # wide with VISIBILITY_SLACK, falls between two grid points 3.1e-4 apart
    # (at 10^5 it always holds one): the oracle raises, and lower sees nothing
    grid = 10_007
    monkeypatch.setattr(oracle_module, "_GRID", grid)
    counts = _count_scanned(monkeypatch)
    obs = ObserverPolar(r, 0.4)
    step = math.pi / grid
    assert not any(segment_clears_disk(unit_from_angle(-math.pi / 2 + k * step), obs.point) for k in range(grid + 1))
    with pytest.raises(InvalidObserver):
        oracle_infinity_path(obs)
    assert counts == [[0]]


def _arc_observers(rng, count):
    # r - 1 from 2.5e-16 up to r = 1e300; theta at 0, +-pi/2, within 1e-15
    # of +-pi/2, or anywhere on the lit side
    out = []
    for _ in range(count):
        r = rng.choice([1 + 10 ** rng.uniform(-15.6, -3), 1 + 10 ** rng.uniform(-3, 3), 10 ** rng.uniform(3, 300)])
        theta = rng.choice([0.0, math.pi / 2, -math.pi / 2, rng.uniform(-math.pi / 2, math.pi / 2)])
        if abs(theta) == math.pi / 2 and rng.random() < 0.5:
            theta -= math.copysign(10 ** rng.uniform(-15.5, -15), theta)
        out.append(ObserverPolar(r, theta))
    return out


@pytest.mark.parametrize("grid, count", [(3000, 60), (100_000, 300)])
def test_reachable_arc_is_the_per_point_set(grid, count, monkeypatch):
    # the index range the scan gets is the set of grid points that are lit
    # and that the scalar visibility test lets the observer see: all of them
    # at grid 3000, the four points around each end at 10^5
    ranges = []
    skipping = oracle_module._grid_argmin

    def capturing(start, step, n, lo, hi, lower, lip):
        ranges.append((lo, hi))
        return skipping(start, step, n, lo, hi, lower, lip)

    monkeypatch.setattr(oracle_module, "_grid_argmin", capturing)
    monkeypatch.setattr(oracle_module, "_GRID", grid)
    step = math.pi / grid
    for obs in _arc_observers(random.Random(f"arc:{grid}"), count):
        f = obs.point
        try:
            oracle_infinity_path(obs)
        except InvalidObserver:
            pass
        (lo, hi), = ranges
        ranges.clear()
        if grid == 3000 or lo > hi:
            ks = range(grid + 1)
        else:
            ks = [k for end in (lo, hi) for k in range(max(end - 2, 0), min(end + 2, grid + 1))]
        for k in ks:
            w = cmath.exp(1j * (-math.pi / 2 + k * step))
            assert (w.real >= 0.0 and segment_clears_disk(w, f)) == (lo <= k <= hi), (obs, k, lo, hi)


@pytest.mark.parametrize("r", [1e4, 1e6, 1e12, 1e16, 1e50, 1e155, 1e300])
def test_infinity_path_keeps_its_digits_far_out(r):
    # the scan compares values of size 1, not r, so the angle stays within
    # the agreement tolerance of the closed form however far the observer
    rng = random.Random(f"far:{r}")
    for _ in range(10):
        obs = ObserverPolar(r, rng.uniform(-1.5, 1.5))
        w, defect = oracle_infinity_path(obs)
        closed = infinity_reflection(obs)
        assert abs(cmath.phase(w * closed.w.conjugate())) <= 1e-6, obs
        assert abs(defect - closed.path_defect) <= 4 * math.ulp(r), obs


@pytest.mark.parametrize("theta", [0.3, -1.18, math.pi / 2])
def test_infinity_path_answers_up_to_the_largest_float(theta):
    # no sum of size r overflows, in the arc or in the scanned function; the
    # far limit of the reflection point is theta/2
    w, defect = oracle_infinity_path(ObserverPolar(sys.float_info.max, theta))
    assert abs(cmath.phase(w) - theta / 2) < 1e-6
    assert defect == sys.float_info.max


def test_centre_table_is_read_only():
    oracle_smetric(0.4, 0.3j)
    first, w = oracle_module._centres(0.0, math.tau / oracle_module._GRID, oracle_module._GRID)
    with pytest.raises(ValueError):
        first[0] = 1
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_import_builds_no_centre_table():
    # a fresh interpreter, as this one has numpy loaded and tables built
    code = (
        "import sys, catoptrix.oracle as oracle\n"
        "assert 'numpy' not in sys.modules\n"
        "assert oracle._centres.cache_info().currsize == 0\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_centre_table_follows_the_grid(monkeypatch):
    # each grid scans with its own table: a table kept from the grid before
    # would skip the wrong cells, and the bits would leave the full scan's
    pairs = []
    skipping = oracle_module._grid_argmin

    def both(*args):
        got = skipping(*args)
        pairs.append((got, _full_scan(*args)))
        return got

    monkeypatch.setattr(oracle_module, "_grid_argmin", both)
    for grid in (10_007, 100_000, 10_007):
        monkeypatch.setattr(oracle_module, "_GRID", grid)
        oracle_smetric(0.4, 0.3j)
        oracle_smetric(-0.6 + 0.1j, 0.2 - 0.5j)
        oracle_infinity_path(ObserverPolar(2.5, 0.6))
        oracle_infinity_path(ObserverPolar(1 + 1e-7, -math.pi / 2))
    assert len(pairs) == 12
    for (k, v), (k_ref, v_ref) in pairs:
        assert (k, v.hex()) == (k_ref, v_ref.hex())


def test_scan_memory_stays_small():
    # a pair that keeps a fifth of the grid, and the flat pair that keeps
    # all of it: the kept cells go _BLOCK points at a time, and nothing is
    # tabulated per grid point
    oracle_smetric(0.4, 0.3j)  # numpy loaded
    for z1, z2 in [(0.37 + 0.22j, -0.41 + 0.13j), (1e-9, -1e-9)]:
        tracemalloc.start()
        try:
            oracle_smetric(z1, z2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (z1, z2)


def _true_minimum(phase, g, dg, scale):
    """The minimizer x of g next to phase (mpmath.findroot on dg), g(x), and
    the angle error of phase checked against its rounding floor. A minimizer
    that compares only values cannot place the angle closer than
    sqrt(2 ulp / g''(x)), ulp that of scale(x), the largest term of g; the
    error may be 8 times that. Returns x, g(x) and the rise g''(x) e^2 / 2
    that the angle error e costs the value."""
    x = mpmath.findroot(dg, mpmath.mpf(phase))
    g2 = mpmath.diff(g, x, 2)
    error = abs(mpmath.mpf(phase) - x)
    assert error <= 8 * mpmath.sqrt(2 * math.ulp(float(scale(x))) / g2), (phase, x)
    return x, g(x), g2 * error**2 / 2


def test_oracles_reach_the_rounding_floor():
    # each value lies within 4 ulps of the true minimum plus its angle's rise
    rng = random.Random("rounding-floor")
    with mpmath.workdps(50):
        expj = mpmath.expj
        for _ in range(20):
            z1, z2 = _disk_point(rng, 0.0, 0.9), _disk_point(rng, 0.0, 0.9)
            w, s = oracle_smetric(z1, z2)
            zs = (mpmath.mpc(z1), mpmath.mpc(z2))

            def focal_sum(x, zs=zs):
                return sum(abs(z - expj(x)) for z in zs)

            def slope(x, zs=zs):
                return sum(mpmath.im(mpmath.conj(z) * expj(x)) / abs(z - expj(x)) for z in zs)

            x, fs, rise = _true_minimum(cmath.phase(w), focal_sum, slope, focal_sum)
            s_true = abs(zs[0] - zs[1]) / fs
            assert abs(s - s_true) <= 4 * math.ulp(float(s_true)) + s_true * rise / fs, (z1, z2)
        for _ in range(20):
            obs = ObserverPolar(1 + 10 ** rng.uniform(-1, 1), rng.uniform(-1.4, 1.4))
            w, defect = oracle_infinity_path(obs)
            f = mpmath.mpc(obs.point)

            def path(x, f=f):
                return abs(f - expj(x)) - mpmath.cos(x)

            def path_slope(x, f=f):
                return mpmath.im(mpmath.conj(f) * expj(x)) / abs(f - expj(x)) + mpmath.sin(x)

            def reach(x, f=f):
                return abs(f - expj(x))

            x, g, rise = _true_minimum(cmath.phase(w), path, path_slope, reach)
            assert abs(defect - g) <= 4 * math.ulp(float(reach(x))) + rise, (obs.r, obs.theta)
