"""The brute-force oracles themselves: grid search, golden refinement, resultant."""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from catoptrix import (
    ObserverPolar,
    OracleConfig,
    golden_section_min,
    oracle_infinity_path,
    oracle_quartic_discriminant,
    oracle_smetric,
    real_quartic_invariants,
)
from catoptrix import oracle as oracle_module
from catoptrix.numeric import segment_clears_disk
from catoptrix.errors import (
    CoincidentPoints,
    DegenerateLeadingCoefficient,
    InvalidObserver,
    PointOutsideDomain,
)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid=999)
    with pytest.raises(ValueError):
        OracleConfig(refine_iters=19)
    cfg = OracleConfig()
    assert cfg.grid == 100_000 and cfg.refine_iters == 80


def test_golden_section_known_minimum():
    x, y, width = golden_section_min(lambda t: (t - 1.234) ** 2 + 0.5, 0.0, 3.0, 80)
    assert abs(x - 1.234) < 1e-8
    assert abs(y - 0.5) < 1e-15
    assert width < 1e-12


def test_golden_section_shrinks_default_grid_cell_below_1e12():
    # bracket of two default grid cells, default iteration count
    h = math.tau / 100_000
    _, _, width = golden_section_min(lambda t: math.cos(t), -h, h, 80)
    assert width < 1e-12


def test_smetric_diametral_pair():
    # ratio maximal where the focal sum is minimal: at the diameter ends
    w, s = oracle_smetric(0.5, -0.5, OracleConfig(grid=10_000, refine_iters=60))
    assert abs(s - 0.5) < 1e-9
    assert min(abs(w - 1.0), abs(w + 1.0)) < 1e-4


def test_smetric_collinear_pair():
    w, s = oracle_smetric(0, 0.5, OracleConfig(grid=10_000, refine_iters=60))
    assert abs(s - 1.0 / 3.0) < 1e-9
    assert abs(w - 1.0) < 1e-4


def test_smetric_default_resolution_reference_pair():
    # reference values for (0.4, 0.3i); other tests freeze these numbers
    w, s = oracle_smetric(0.4, 0.3j)
    assert abs(cmath.phase(w) - 0.52293227382887064) < 1e-6
    assert abs(s - 0.3180004591443612) < 1e-12


def test_smetric_monotone_in_grid():
    best = -1.0
    for grid in (1000, 10_000, 100_000):
        _, s = oracle_smetric(0.37 + 0.22j, -0.41 + 0.13j, OracleConfig(grid=grid, refine_iters=40))
        assert s >= best - 1e-15
        best = s


def test_smetric_errors():
    with pytest.raises(PointOutsideDomain):
        oracle_smetric(1.5, 0.2)
    with pytest.raises(CoincidentPoints):
        oracle_smetric(0.2 + 0.1j, 0.2 + 0.1j)


def test_infinity_path_axial():
    w, defect = oracle_infinity_path(ObserverPolar(2.0, 0.0), OracleConfig(grid=10_000, refine_iters=60))
    assert abs(w - 1.0) < 1e-6
    assert abs(defect - 0.0) < 1e-9


def test_infinity_path_vertical_reference():
    w, defect = oracle_infinity_path(ObserverPolar(2.0, math.pi / 2))
    assert abs(cmath.phase(w) - 1.0029669443899585) < 1e-9
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


def _reference_smetric(z1, z2, cfg):
    # the point-by-point scan the numpy blocks replaced, refinement included
    def focal_sum(phi):
        w = cmath.exp(1j * phi)
        return abs(z1 - w) + abs(w - z2)

    step = math.tau / cfg.grid
    angles = [-math.pi + (k + 1) * step for k in range(cfg.grid)]
    best_k = 0
    best_fs = focal_sum(angles[0])
    for k in range(1, cfg.grid):
        fs = focal_sum(angles[k])
        if fs < best_fs:
            best_fs = fs
            best_k = k
    phi0 = angles[best_k]
    phi, fs, _ = golden_section_min(focal_sum, phi0 - step, phi0 + step, cfg.refine_iters)
    if best_fs < fs:
        phi, fs = phi0, best_fs
    return complex(math.cos(phi), math.sin(phi)), abs(z1 - z2) / fs


def _reference_infinity_path(obs, cfg):
    f = obs.point

    def defect(phi):
        w = cmath.exp(1j * phi)
        return abs(f - w) - w.real

    def valid(phi):
        return segment_clears_disk(cmath.exp(1j * phi), f)

    n = cfg.grid
    step = math.pi / n
    angles = [-math.pi / 2.0 + k * step for k in range(n + 1)]
    best_k = -1
    best_g = math.inf
    for k, phi in enumerate(angles):
        if not valid(phi):
            continue
        g = defect(phi)
        if g < best_g:
            best_g = g
            best_k = k
    if best_k < 0:
        raise InvalidObserver("no reachable boundary point for this observer")
    lo = angles[max(0, best_k - 1)]
    hi = angles[min(n, best_k + 1)]
    phi, g, _ = golden_section_min(defect, lo, hi, cfg.refine_iters)
    if not valid(phi) or best_g < g:
        phi, g = angles[best_k], best_g
    return complex(math.cos(phi), math.sin(phi)), g


@pytest.mark.parametrize("grid", [10_007, 100_000])  # not a multiple of the block; the default
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
def test_blocked_scan_matches_reference_loop(oracle, args, grid):
    cfg = OracleConfig(grid=grid)
    if oracle == "smetric":
        blocked, reference = oracle_smetric, _reference_smetric
    else:
        blocked, reference = oracle_infinity_path, _reference_infinity_path
        args = (ObserverPolar(*args),)

    def outcome(fn):
        try:
            return fn(*args, cfg)
        except InvalidObserver as exc:
            return str(exc)

    assert outcome(blocked) == outcome(reference)


def _full_scan(start, step, k_lo, k_hi, lower, clear=None):
    # the reference: every grid point, in numpy blocks of 4096
    best_k, best = -1, math.inf
    for k0 in range(k_lo, k_hi, 4096):
        phi = start + np.arange(k0, min(k0 + 4096, k_hi)) * step
        c, s = np.cos(phi), np.sin(phi)
        v = lower(c, s)
        if clear is not None:
            v = np.where(clear(c, s), v, math.inf)
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
    # lit observers: random ones; r - 1 down to 1e-9, where every grid point
    # can be masked; theta at 0 and near +-pi/2; and far ones, whose defects
    # round to steps far above a cell's Lipschitz reach
    out = [("infinity", (1 + 10 ** rng.uniform(-2, 1.5), rng.uniform(-1.5, 1.5))) for _ in range(6)]
    for r in (1 + 1e-9, 1 + 1e-7, 1 + 1e-5, 1 + 1e-4, 1 + 1e-3, 2.0, 1e12, 1e15):
        for theta in (0.0, 1e-9, math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-9, rng.uniform(-1.5, 1.5)):
            out.append(("infinity", (r, theta)))
    return out


_SCAN_FAMILIES = ["uniform", "near-rim", "near-coincident", "near-origin", "two-minima", "flat", "observers"]


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
    cfg = OracleConfig(grid=grid)
    rng = random.Random(f"{family}:{grid}")
    for oracle, args in _oracle_cases(family, rng):
        try:
            if oracle == "smetric":
                oracle_smetric(*args, cfg)
            else:
                oracle_infinity_path(ObserverPolar(*args), cfg)
        except InvalidObserver:
            assert pairs[-1][1] == (-1, math.inf)
    assert pairs
    for (k, v), (k_ref, v_ref) in pairs:
        assert (k, v.hex()) == (k_ref, v_ref.hex())


@pytest.mark.parametrize(
    "oracle, args",
    [("smetric", (0.4, 0.3j)), ("infinity", (2.5, 0.6))],
    ids=["uniform-pair", "lit-observer"],
)
def test_skipping_scan_evaluates_few_grid_points(oracle, args, monkeypatch):
    evaluated = []
    skipping = oracle_module._grid_argmin

    def counting(start, step, k_lo, k_hi, lower, clear=None):
        def counted(c, s):
            evaluated.append(len(c))
            return lower(c, s)

        return skipping(start, step, k_lo, k_hi, counted, clear)

    monkeypatch.setattr(oracle_module, "_grid_argmin", counting)
    if oracle == "smetric":
        oracle_smetric(*args)
    else:
        oracle_infinity_path(ObserverPolar(*args))
    assert 0 < sum(evaluated) < 0.15 * OracleConfig().grid


@pytest.mark.parametrize("grid", [2_000_000, 20_000_000])
def test_scan_memory_does_not_grow_with_the_grid(grid):
    oracle_smetric(0.37 + 0.22j, -0.41 + 0.13j, OracleConfig(grid=3000))  # numpy loaded
    tracemalloc.start()
    try:
        oracle_smetric(0.37 + 0.22j, -0.41 + 0.13j, OracleConfig(grid=grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
