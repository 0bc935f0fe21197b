"""The brute-force oracles themselves: grid search, golden refinement, resultant."""

import cmath
import math

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
