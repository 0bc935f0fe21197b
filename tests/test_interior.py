"""Finite-source reflection: minimizing root, metric, ellipse, exterior variant."""

import cmath
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catoptrix.interior as interior_module
from catoptrix import (
    ellipse_params,
    exterior_reflection,
    interior_quartic_coeffs,
    minimizing_root,
    on_unit_circle,
    oracle_smetric,
    s_metric,
    solve_quartic,
)
from catoptrix.cli import main as cli_main
from catoptrix.errors import (
    CoincidentPoints,
    NoConvergence,
    NonFinitePoint,
    NoRootOnCircle,
    PointInsideDomain,
    PointOutsideDomain,
)
from catoptrix.numeric import VISIBILITY_SLACK, segment_clears_disk, unit_from_angle

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


# a point at distance eps from the origin: the quartic's roots have moduli
# about eps, 1, 1 and 1/eps, and s tends to |z2|/(2 - |z2|) as eps -> 0
EPS_PARTNER = -0.2480138666847906 + 0.6694455923896773j
EPS_LIMIT_S = 0.5551017904368151


@pytest.mark.parametrize("eps", [1e-16, 1e-20, 1e-25, 1e-30, 1e-40, 1e-50, 1e-60])
def test_minimizing_root_with_a_point_eps_from_the_origin(eps):
    assert EPS_LIMIT_S == abs(EPS_PARTNER) / (2.0 - abs(EPS_PARTNER))
    res = minimizing_root(eps * cmath.exp(0.7j), EPS_PARTNER)
    assert sum(res.on_circle_mask) >= 2
    assert abs(res.s_value - EPS_LIMIT_S) <= 1e-12 * EPS_LIMIT_S


@pytest.mark.parametrize("eps", [1e-80, 1e-100, 1e-200])
def test_minimizing_root_too_close_to_the_origin_raises_no_convergence(eps):
    # the root near 1/eps has a fourth power beyond float64, so the residual
    # bound overflows: a typed error, not a wrong answer
    with pytest.raises(NoConvergence, match="float overflow"):
        minimizing_root(eps * cmath.exp(0.7j), EPS_PARTNER)


def test_minimizing_root_domain_errors():
    with pytest.raises(PointOutsideDomain):
        minimizing_root(1.2, 0.5)
    with pytest.raises(PointOutsideDomain):
        minimizing_root(0.5, 1 + 0j)  # boundary itself is rejected
    with pytest.raises(CoincidentPoints):
        minimizing_root(0.3 + 0.2j, 0.3 + 0.2j)


def test_no_root_on_circle_with_absurd_tolerance(monkeypatch):
    # a circle test that rejects every root: the interior pair has no answer;
    # the exterior pick does not test roots, and its picture shows none kept
    monkeypatch.setattr(interior_module, "on_unit_circle", lambda w: False)
    with pytest.raises(NoRootOnCircle):
        minimizing_root(0.31 + 0.17j, -0.2 + 0.43j)
    res = exterior_reflection(1.5 + 0j, 2j)
    assert res is not None
    assert res.on_circle_mask == (False,) * 4


def test_s_metric_symmetric_family():
    # s(t, -t) = t: the minimal focal sum is exactly 2, attained at +-1
    for t in np.linspace(0.01, 0.99, 50):
        assert abs(s_metric(t, -t) - t) < 1e-12


def test_s_metric_collinear_family():
    for x in np.linspace(0.01, 0.99, 50):
        assert abs(s_metric(0, x) - x / (2.0 - x)) < 1e-12


@pytest.mark.parametrize(
    "z,expected",
    [(0.3 + 0.2j, 0.0), (1.2 + 0j, PointOutsideDomain), (complex(math.nan, 0.2), NonFinitePoint)],
    ids=["inside", "outside", "nan"],
)
def test_s_metric_coincident_points(z, expected):
    if expected == 0.0:
        assert s_metric(z, z) == 0.0
    else:
        with pytest.raises(expected):
            s_metric(z, z)


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
    for z1, z2 in _random_pairs(rng, 1000):
        _, s_oracle = oracle_smetric(z1, z2)
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


def test_ellipse_eccentricity_is_the_metric_of_a_near_coincident_pair():
    # 1 - (minor/major)^2 cancels for a close pair: 0.0 in place of 7.8e-9
    rng = np.random.default_rng(47)
    for z1, _ in _random_pairs(rng, 50, max_mod=0.9):
        for gap in (1e-8, 1e-6 * cmath.exp(1j * rng.uniform(-3, 3))):
            res = minimizing_root(z1, z1 + gap)
            assert ellipse_params(z1, z1 + gap).eccentricity == res.s_value > 0.0


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


def _exterior_pairs(rng, n):
    # |z| - 1 log-uniform in [1e-6, 10], directions uniform, and the true
    # visible arcs |phi - arg z| <= acos(1/|z|) of the two points at least
    # 1e-6 from meeting or from missing each other
    out = []
    while len(out) < n:
        z1, z2 = ((1.0 + float(10.0 ** rng.uniform(-6.0, 1.0))) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                  for _ in range(2))
        t1, t2 = math.acos(1.0 / abs(z1)), math.acos(1.0 / abs(z2))
        delta = cmath.phase(z2 / z1)
        if abs(max(-t1, delta - t2) - min(t1, delta + t2)) > 1e-6:
            out.append((z1, z2))
    return out


def _scan_joint_minimum(z1, z2, n=501, levels=6, few=8):
    """(phi, step) of the least focal sum over the grid points w whose segments
    to z1 and to z2 both pass segment_clears_disk, or None when no grid point
    passes. A set of fewer than few points is scanned again, n points between
    its outer neighbours; an empty set n points between the neighbours of the
    grid point whose nearer segment comes closest to clearing, which brackets
    a joint set narrower than a step. Once the set is large enough, one last
    scan between the neighbours of its least point sharpens the answer.
    """
    from catoptrix.numeric import segment_clears_disk, segment_min_distance_to_origin

    lo, hi = -math.pi, math.pi
    seen = []
    for level in range(levels):
        grid = np.linspace(lo, hi, n)
        step = float(grid[1] - grid[0])
        seen, best = [], (-math.inf, 0.0)
        for phi in map(float, grid):
            w = complex(math.cos(phi), math.sin(phi))
            if segment_clears_disk(z1, w) and segment_clears_disk(z2, w):
                seen.append((abs(z1 - w) + abs(z2 - w), phi))
            elif not seen:
                clear = min(segment_min_distance_to_origin(z1, w), segment_min_distance_to_origin(z2, w))
                best = max(best, (clear, phi))
        if len(seen) >= few:
            phi = min(seen)[1]
            if step < 1e-6:
                return phi, step
            lo, hi = phi - step, phi + step
        elif seen:
            lo, hi = seen[0][1] - step, seen[-1][1] + step
        else:
            lo, hi = best[1] - step, best[1] + step
    return (min(seen)[1], step) if seen else None


def test_exterior_decision_matches_a_joint_visibility_scan():
    # an exterior pair is answered exactly when some point of the circle is
    # seen from both points, decided point by point; the answer is the least
    # focal sum over those points
    rng = np.random.default_rng(211)
    answered = 0
    for z1, z2 in _exterior_pairs(rng, 60):
        scanned = _scan_joint_minimum(z1, z2)
        res = exterior_reflection(z1, z2)
        if scanned is None:
            assert res is None, (z1, z2)
            continue
        phi, step = scanned
        assert res is not None, (z1, z2)
        assert abs(cmath.phase(res.w * cmath.exp(-1j * phi))) <= 2 * step, (z1, z2)
        answered += 1
    assert 10 <= answered <= 50  # both decisions are exercised


def _law_zero_50_digits(z1, z2):
    # the zero of Im((z1 - w)(z2 - w)/w^2) on the arc of the circle between
    # the two points' true visible arcs, in z1's frame, to 50 digits
    import mpmath

    with mpmath.workdps(50):
        z1, z2 = mpmath.mpc(z1), mpmath.mpc(z2)
        u1 = z1 / abs(z1)
        v = z2 / abs(z2) / u1
        t1, t2 = mpmath.acos(1 / abs(z1)), mpmath.acos(1 / abs(z2))
        delta = mpmath.arg(v)
        a, b = max(-t1, delta - t2), min(t1, delta + t2)
        c = 1 / abs(z2) + v / abs(z1)
        x = mpmath.findroot(lambda x: mpmath.im(v * mpmath.expj(-2 * x) - c * mpmath.expj(-x)),
                            (min(a, b), max(a, b)), solver="anderson")
        return mpmath.arg(u1) + x, a - b


# seed-1 benchmark exterior pairs 5288 and 7484: their true visible arcs miss
# each other by 1.3e-5 and 1.1e-5 rad, and VISIBILITY_SLACK lets both points
# see the reflection point in the gap
GRAZING_PAIRS = [
    (0.8845714342206823 + 0.7327530244356987j, 1.0950286964075882 - 0.441145756054372j),
    (2.8071166842147535 + 1.0335046750069157j, -0.8891013558124188 - 2.039739317983885j),
]


@pytest.mark.parametrize("z1, z2", GRAZING_PAIRS)
def test_exterior_grazing_pair_matches_a_50_digit_zero(z1, z2):
    phi, gap = _law_zero_50_digits(z1, z2)
    assert 1e-5 < gap < 2e-5
    res = exterior_reflection(z1, z2)
    assert res is not None
    assert abs(cmath.phase(res.w) - float(phi)) <= 1e-15
    assert segment_clears_disk(z1, res.w) and segment_clears_disk(z2, res.w)
    assert res.reflection_residual <= 1e-14


def test_exterior_pair_the_slack_cannot_bridge_is_occluded():
    # seed-9 benchmark exterior pair 8352: its true arcs miss by 1.2e-4 rad,
    # close enough to be solved, but no point of the circle, the law's zero
    # included, is seen from both points within VISIBILITY_SLACK
    z1, z2 = 3.1333556996922853 + 1.6116497956089488j, -1.5322024853756304 + 0.7272489708461546j
    assert 1e-4 < float(_law_zero_50_digits(z1, z2)[1]) < 4.0 * math.acos(1.0 - VISIBILITY_SLACK)
    assert _scan_joint_minimum(z1, z2) is None
    assert exterior_reflection(z1, z2) is None


def test_exterior_pair_next_to_the_circle_sees_its_reflection_point():
    # |z| - 1 = 2.4e-11 and 3.3e-8: the quartic's roots cluster and miss the
    # 1e-9 circle test by up to 1.2e-8, which once returned None here,
    # though the true visible arcs overlap by 1.4e-5 rad
    z1, z2 = 0.04903727425770794 - 0.9987969492255798j, 0.049242098609155745 - 0.9987869048168334j
    phi, gap = _law_zero_50_digits(z1, z2)
    assert -2e-5 < gap < -1e-5
    res = exterior_reflection(z1, z2)
    assert res is not None
    assert abs(cmath.phase(res.w) - float(phi)) <= 1e-12
    assert segment_clears_disk(z1, res.w) and segment_clears_disk(z2, res.w)
    assert res.reflection_residual <= 1e-14


def test_exterior_tie_index_is_the_candidate_nearest_w_even_off_the_circle():
    # the same pair's picture: the quartic's roots near w miss the fixed
    # 1e-9 circle test, and the tie index names the nearest of them all the
    # same; the one candidate that passes lies across the circle from w
    z1, z2 = 0.04903727425770794 - 0.9987969492255798j, 0.049242098609155745 - 0.9987869048168334j
    res = exterior_reflection(z1, z2)
    roots = res.candidates.roots
    assert res.tie_indices == (1,)
    assert 1e-8 < abs(abs(roots[1]) - 1.0) < 1.3e-8 and 1e-8 < abs(roots[1] - res.w) < 1.3e-8
    assert res.on_circle_mask == (False, False, False, True)
    assert abs(roots[3] + res.w) < 1e-3


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    log_gap1=st.floats(-9.0, 3.0),
    log_gap2=st.floats(-9.0, 3.0),
    arg1=st.floats(-math.pi, math.pi),
    arg2=st.floats(-math.pi, math.pi),
)
def test_exterior_answer_exactly_where_the_arcs_meet(log_gap1, log_gap2, arg1, arg2):
    # answered when the true visible arcs meet, None when they miss by more
    # than the slack can bridge; an answer lies between the arc ends, both
    # points see it, and the law of reflection holds there
    z1 = (1.0 + 10.0 ** log_gap1) * cmath.exp(1j * arg1)
    z2 = (1.0 + 10.0 ** log_gap2) * cmath.exp(1j * arg2)
    if abs(z1 - z2) < 1e-14:
        return
    t1, t2 = math.acos(1.0 / abs(z1)), math.acos(1.0 / abs(z2))
    delta = cmath.phase(z2 / z1)
    a, b = max(-t1, delta - t2), min(t1, delta + t2)
    res = exterior_reflection(z1, z2)
    if a <= b:
        assert res is not None
    elif a - b > 4.0 * math.acos(1.0 - VISIBILITY_SLACK):
        assert res is None
    if res is None:
        return
    x = cmath.phase(res.w * (z1 / abs(z1)).conjugate())
    assert min(a, b) - 1e-15 <= x <= max(a, b) + 1e-15
    assert segment_clears_disk(z1, res.w) and segment_clears_disk(z2, res.w)
    assert res.reflection_residual <= 1e-13 * max(1.0, abs(z1) * abs(z2))


def test_exterior_collinear_same_side():
    res = exterior_reflection(2.0, 3.0)
    assert res is not None
    assert abs(res.w - 1.0) < 1e-9


def test_exterior_occluded_pair_has_no_solution():
    assert exterior_reflection(2.0, -2.0) is None


def test_exterior_far_pair_sees_its_reflection_point():
    # measured from the far end, a sight segment's distance from the origin
    # carries an error near ulp(|z|), which can hide the reflection point
    for e in range(1, 155):
        res = exterior_reflection(10.0**e, 10.0**e * 1j)
        assert res is not None, e
        assert abs(res.w - cmath.exp(0.25j * math.pi)) < 1e-9, e
    # far and asymmetric: the reflection point is near the bisector of the
    # two directions, and the law of reflection holds there
    z1, z2 = 3e9, -2e11j
    res = exterior_reflection(z1, z2)
    assert res is not None
    assert abs(res.w - cmath.exp(-0.25j * math.pi)) < 1e-8
    u1 = (z1 - res.w) / abs(z1 - res.w)
    u2 = (z2 - res.w) / abs(z2 - res.w)
    assert abs((res.w.conjugate() * u1).imag + (res.w.conjugate() * u2).imag) < 1e-9
    assert segment_clears_disk(z1, res.w) and segment_clears_disk(z2, res.w)


def test_exterior_pair_beyond_float64_names_the_pair():
    # |z1|*|z2| = 2e400 overflows: the error names the pair and the limit,
    # not the quartic coefficient that overflowed
    with pytest.raises(NonFinitePoint, match=r"z1=\(1e\+200\+0j\), z2=2e\+200j .*float64.*1\.79"):
        exterior_reflection(1e200, 2e200j)
    with pytest.raises(NonFinitePoint, match="float64"):
        exterior_reflection(complex(1.7e308, 1.7e308), 2.0)
    exterior_reflection(1e150, 1e150j)  # |z1|*|z2| = 1e300 is in range


def test_exterior_domain_errors():
    with pytest.raises(PointInsideDomain):
        exterior_reflection(0.5, 2.0)
    with pytest.raises(PointInsideDomain):
        exterior_reflection(2.0, 1.0 + 0j)  # the circle itself is excluded
    with pytest.raises(CoincidentPoints):
        exterior_reflection(2.0 + 1j, 2.0 + 1j)


def _count_solves(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return solve_quartic(q)

    monkeypatch.setattr(interior_module, "solve_quartic", counting)

    def solves(*steps):
        before = len(calls)
        for step in steps:
            step()
        return len(calls) - before

    return solves


def test_exterior_root_picture_is_solved_once_on_first_read(monkeypatch):
    solves = _count_solves(monkeypatch)
    z1, z2 = 2.0 + 0.5j, -0.25 + 1.75j
    res = exterior_reflection(z1, z2)
    assert solves(lambda: res.w, lambda: res.focal_sum, lambda: res == exterior_reflection(z1, z2)) == 0
    assert solves(lambda: res.on_circle_mask) == 1
    assert solves(lambda: res.candidates, lambda: res.tie_indices, lambda: res.on_circle_mask) == 0
    # the picture is the one a direct solve gives, bit for bit, and its tie
    # set is the root the pick lies on
    direct = solve_quartic(interior_quartic_coeffs(z1, z2))
    assert res.candidates == direct
    assert res.on_circle_mask == tuple(on_unit_circle(w) for w in direct.roots)
    (k,) = res.tie_indices
    assert res.on_circle_mask[k] and abs(direct.roots[k] - res.w) < 1e-12
    # the interior pick keeps the picture it selected from, and the CLI
    # interior command solves once
    inner = minimizing_root(0.3 + 0.1j, -0.2 + 0.4j)
    assert solves(lambda: inner.candidates, lambda: inner.on_circle_mask, lambda: inner.tie_indices) == 0
    with redirect_stdout(io.StringIO()):
        assert solves(lambda: cli_main(["interior", "--z1", "0.3,0.1", "--z2", "-0.2,0.4"])) == 1


def test_exterior_failed_solve_is_not_kept(monkeypatch):
    calls = []

    def failing(q):
        calls.append(q)
        raise NoConvergence("forced")

    monkeypatch.setattr(interior_module, "solve_quartic", failing)
    res = exterior_reflection(2.0, 2.0j)  # the pick solves nothing
    for read in ("candidates", "on_circle_mask", "tie_indices"):
        with pytest.raises(NoConvergence):
            getattr(res, read)
    assert len(calls) == 3
    monkeypatch.setattr(interior_module, "solve_quartic", solve_quartic)
    assert len(res.candidates.roots) == 4
