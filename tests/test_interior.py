"""Finite-source reflection: minimizing root, metric, ellipse, exterior variant."""

import cmath
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from catoptrix import (
    OracleConfig,
    Tolerances,
    ellipse_params,
    exterior_reflection,
    interior_quartic_coeffs,
    minimizing_root,
    oracle_smetric,
    s_metric,
)
from catoptrix.cli import main as cli_main
from catoptrix.errors import (
    CoincidentPoints,
    NoRootOnCircle,
    PointInsideDomain,
    PointOutsideDomain,
)
from catoptrix.numeric import segment_clears_disk, unit_from_angle

# boundary-grid oracle values for (0.4, 0.3i), grid 10^6 with golden refinement
ORACLE_PHI_04_03I = 0.52293227382887064
ORACLE_S_04_03I = 0.3180004591443612


def _random_pairs(rng, n, max_mod=0.98):
    out = []
    while len(out) < n:
        v = rng.uniform(-1, 1, 4)
        z1 = complex(v[0], v[1])
        z2 = complex(v[2], v[3])
        if abs(z1) < max_mod and abs(z2) < max_mod and abs(z1 - z2) > 1e-3:
            out.append((z1, z2))
    return out


def test_quartic_coefficients_antipodal():
    q = interior_quartic_coeffs(0.5, -0.5)
    assert q.as_tuple() == (-0.25 + 0j, 0j, 0j, 0j, 0.25 + 0j)


def test_quartic_coefficients_origin_degenerates():
    q = interior_quartic_coeffs(0, 0.5)
    assert q.as_tuple() == (0j, -0.5 + 0j, 0j, 0.5 + 0j, 0j)


def test_quartic_coefficients_coincident_substitution():
    z = 0.3 + 0.2j
    q = interior_quartic_coeffs(z, z)
    w = z / abs(z)
    assert abs(q(w)) < 1e-12


def test_minimizing_root_diametral_pair():
    # focal sum on the circle is minimal at the circle points on the diameter
    # through the pair; the tie {1, -1} breaks toward the larger real part
    res = minimizing_root(0.5, -0.5)
    assert abs(res.w - 1.0) < 1e-12
    assert abs(res.s_value - 0.5) < 1e-14
    assert abs(res.focal_sum - 2.0) < 1e-14
    assert len(res.tie_indices) == 2
    tied = {res.candidates.roots[k] for k in res.tie_indices}
    assert {round(w.real) for w in tied} == {1, -1}


def test_minimizing_root_collinear_with_origin():
    res = minimizing_root(0, 0.5)
    assert res.degree_dropped
    assert abs(res.w - 1.0) < 1e-12
    assert abs(res.s_value - 1.0 / 3.0) < 1e-14
    assert len(res.candidates.roots) == 3  # cubic: the fourth root is absent


def test_minimizing_root_matches_boundary_oracle():
    res = minimizing_root(0.4, 0.3j)
    assert abs(cmath.phase(res.w) - ORACLE_PHI_04_03I) < 1e-6
    assert abs(res.s_value - ORACLE_S_04_03I) < 1e-9


# pairs near the origin where a closed-form root lands just off the circle
# or two polish starts share one basin; a polish that misses this raises
# NoRootOnCircle on the first and returns the focal-sum maximum on the others
NEAR_ORIGIN_PAIRS = [
    (0.0002307166302938166 - 0.001243391230998268j, 0.00023052382670505484 - 0.0012424099936283312j),
    (0.0017212669998022568 + 0.0003389481429941294j, 0.0017216517438242204 + 0.0003387569078024896j),
    (1.9211273177963823e-08 - 2.1641075130671792e-08j, -0.2480138666847906 + 0.6694455923896773j),
]


@pytest.mark.parametrize("z1, z2", NEAR_ORIGIN_PAIRS)
def test_minimizing_root_near_the_origin_matches_oracle(z1, z2):
    _, s_oracle = oracle_smetric(z1, z2)
    assert abs(minimizing_root(z1, z2).s_value - s_oracle) <= 1e-9 * s_oracle


# a point about an ulp from the rim, where the focal sum rounds an ulp below
# |z1 - z2|: s came out 1.0000000000000002 and the ellipse raised a bare
# ValueError from sqrt(c^2 - d^2 < 0)
RIM_PAIRS = [
    (0.9924792859046481 + 0.12241269154054134j, 0.7667998832700993 - 0.6183106449829997j),
    (0.34507686275857363 - 0.9385744290085365j, -0.8757947356047254 - 0.39138451097350324j),
]


@pytest.mark.parametrize("z1, z2", RIM_PAIRS)
def test_minimizing_root_an_ulp_from_the_rim(z1, z2):
    res = minimizing_root(z1, z2)
    assert res.s_value <= 1.0
    _, s_oracle = oracle_smetric(z1, z2)
    assert abs(res.s_value - s_oracle) <= 1e-15
    assert ellipse_params(z1, z2).eccentricity == res.s_value
    argv = ["interior", "--z1", f"{z1.real!r},{z1.imag!r}", "--z2", f"{z2.real!r},{z2.imag!r}"]
    with redirect_stdout(io.StringIO()) as out:
        assert cli_main(argv) == 0
    assert json.loads(out.getvalue())["results"]["s"] == res.s_value


def _polar(rng, rho):
    return rho * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _assert_finds_the_minimum(z1, z2):
    # the focal sum is smooth on the circle, so its minimum and maximum are
    # both on-circle roots; a dense grid bounds the minimum from above
    res = minimizing_root(z1, z2)
    assert sum(res.on_circle_mask) >= 2, (z1, z2)
    w = np.exp(1j * np.linspace(-math.pi, math.pi, 8192, endpoint=False))
    grid_min = float(np.min(np.abs(z1 - w) + np.abs(z2 - w)))
    assert res.focal_sum <= grid_min + 1e-12, (z1, z2)


def test_minimizing_root_with_a_point_next_to_the_origin():
    rng = np.random.default_rng(97)
    for _ in range(500):
        z1 = _polar(rng, 10.0 ** rng.uniform(-12.0, -1.0))
        z2 = _polar(rng, math.sqrt(rng.uniform(0.0, 0.98 ** 2)))
        _assert_finds_the_minimum(z1, z2)


def test_minimizing_root_near_coincident_near_the_origin():
    rng = np.random.default_rng(101)
    for _ in range(500):
        rho = 10.0 ** rng.uniform(-4.0, -1.0)
        z1 = _polar(rng, rho)
        z2 = z1 + _polar(rng, rho * 10.0 ** rng.uniform(-4.0, -1.0))
        _assert_finds_the_minimum(z1, z2)


def test_minimizing_root_domain_errors():
    with pytest.raises(PointOutsideDomain):
        minimizing_root(1.2, 0.5)
    with pytest.raises(PointOutsideDomain):
        minimizing_root(0.5, 1 + 0j)  # boundary itself is rejected
    with pytest.raises(CoincidentPoints):
        minimizing_root(0.3 + 0.2j, 0.3 + 0.2j)


def test_no_root_on_circle_with_absurd_tolerance():
    with pytest.raises(NoRootOnCircle):
        minimizing_root(0.31 + 0.17j, -0.2 + 0.43j, Tolerances(unit_circle_tol=1e-30))


def test_s_metric_symmetric_family():
    # s(t, -t) = t: the minimal focal sum is exactly 2, attained at +-1
    for t in np.linspace(0.01, 0.99, 50):
        assert abs(s_metric(t, -t) - t) < 1e-12


def test_s_metric_collinear_family():
    for x in np.linspace(0.01, 0.99, 50):
        assert abs(s_metric(0, x) - x / (2.0 - x)) < 1e-12


def test_s_metric_coincident_is_zero():
    assert s_metric(0.3 + 0.2j, 0.3 + 0.2j) == 0.0


def test_s_metric_in_unit_interval():
    rng = np.random.default_rng(23)
    for z1, z2 in _random_pairs(rng, 300):
        s = s_metric(z1, z2)
        assert 0.0 < s < 1.0


def test_reflection_law_reality():
    rng = np.random.default_rng(29)
    for z1, z2 in _random_pairs(rng, 300):
        res = minimizing_root(z1, z2)
        assert res.reflection_residual <= 1e-10
        assert abs(res.s_value * res.focal_sum - abs(z1 - z2)) <= 1e-12


def test_rotation_equivariance():
    rng = np.random.default_rng(31)
    for z1, z2 in _random_pairs(rng, 200):
        u = unit_from_angle(float(rng.uniform(-math.pi, math.pi)))
        base = minimizing_root(z1, z2)
        rot = minimizing_root(u * z1, u * z2)
        assert abs(rot.s_value - base.s_value) < 1e-10
        # w is equivariant up to the tie set
        tied = [base.candidates.roots[k] for k in base.tie_indices]
        assert min(abs(rot.w - u * w / abs(w)) for w in tied) < 1e-8


def test_conjugation_equivariance():
    rng = np.random.default_rng(37)
    for z1, z2 in _random_pairs(rng, 200):
        base = minimizing_root(z1, z2)
        conj = minimizing_root(z1.conjugate(), z2.conjugate())
        assert abs(conj.s_value - base.s_value) < 1e-10
        tied = [base.candidates.roots[k] for k in base.tie_indices]
        assert min(abs(conj.w - (w / abs(w)).conjugate()) for w in tied) < 1e-8


def test_oracle_agreement_random_pairs():
    rng = np.random.default_rng(41)
    cfg = OracleConfig(grid=3000, refine_iters=70)
    for z1, z2 in _random_pairs(rng, 1000):
        _, s_oracle = oracle_smetric(z1, z2, cfg)
        assert abs(s_metric(z1, z2) - s_oracle) <= 1e-9


def test_ellipse_diametral_pair():
    ep = ellipse_params(0.5, -0.5)
    assert abs(ep.focal_sum - 2.0) < 1e-14
    assert abs(ep.major - 1.0) < 1e-14
    assert abs(ep.minor - math.sqrt(3.0) / 2.0) < 1e-14
    assert abs(ep.eccentricity - 0.5) < 1e-12


def test_ellipse_eccentricity_equals_metric():
    rng = np.random.default_rng(43)
    for z1, z2 in _random_pairs(rng, 300):
        ep = ellipse_params(z1, z2)
        assert abs(ep.eccentricity - s_metric(z1, z2)) < 1e-12
        assert ep.minor <= ep.major


def test_exterior_symmetric_quarter_turn():
    # stationary focal sum at e^{i*pi/4}, which both points can see
    res = exterior_reflection(2.0, 2.0j)
    assert res is not None
    assert abs(res.w - cmath.exp(1j * math.pi / 4)) < 1e-9
    assert abs(res.focal_sum - 2.9472515164158013) < 1e-6
    assert res.reflection_residual < 1e-10


def test_exterior_matches_visible_arc_oracle():
    # brute force over the jointly visible arc
    z1, z2 = 2.0, 2.0j
    best_phi, best_fs = None, math.inf
    n = 200_000
    for k in range(n):
        phi = -math.pi + math.tau * (k + 1) / n
        w = unit_from_angle(phi)
        if not (segment_clears_disk(z1, w) and segment_clears_disk(z2, w)):
            continue
        fs = abs(z1 - w) + abs(z2 - w)
        if fs < best_fs:
            best_phi, best_fs = phi, fs
    res = exterior_reflection(z1, z2)
    assert abs(cmath.phase(res.w) - best_phi) < 1e-4  # grid-limited oracle
    assert abs(res.focal_sum - best_fs) < 1e-8


def test_exterior_collinear_same_side():
    res = exterior_reflection(2.0, 3.0)
    assert res is not None
    assert abs(res.w - 1.0) < 1e-9


def test_exterior_occluded_pair_has_no_solution():
    assert exterior_reflection(2.0, -2.0) is None


def test_exterior_domain_errors():
    with pytest.raises(PointInsideDomain):
        exterior_reflection(0.5, 2.0)
    with pytest.raises(PointInsideDomain):
        exterior_reflection(2.0, 1.0 + 0j)  # the circle itself is excluded
    with pytest.raises(CoincidentPoints):
        exterior_reflection(2.0 + 1j, 2.0 + 1j)
