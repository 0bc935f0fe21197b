"""Finite-source reflection: minimizing root, metric, ellipse, exterior variant."""

import cmath
import io
import json
import math
import sys
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
from catoptrix.interior import _least_focal_sum
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


@pytest.mark.parametrize("bad", [complex(math.nan, 0.2), complex(0.1, math.inf), math.nan, -math.inf])
def test_quartic_coefficients_reject_a_non_finite_point_naming_it(bad):
    for z1, z2, name in ((bad, 0.3 + 0.1j, "z1"), (0.3 + 0.1j, bad, "z2")):
        with pytest.raises(NonFinitePoint, match=f"^{name} has non-finite component"):
            interior_quartic_coeffs(z1, z2)


def test_quartic_coefficients_of_real_and_numpy_points_equal_those_of_complex():
    cases = [(1, -2), (0.5, -0.25), (np.complex128(0.3 + 0.1j), np.complex128(-0.2 + 0.4j)), (np.float64(0.7), 1j)]
    for z1, z2 in cases:
        got = interior_quartic_coeffs(z1, z2).as_tuple()
        want = interior_quartic_coeffs(complex(z1), complex(z2)).as_tuple()
        assert [(c.real.hex(), c.imag.hex()) for c in got] == [(c.real.hex(), c.imag.hex()) for c in want]
        assert all(type(c) is complex for c in got)


def test_quartic_coefficients_reject_an_overflowing_product_naming_it():
    # conj(z1)*conj(z2) overflows to -inf*i: the coefficient is named, as
    # QuarticCoeffs names a non-finite field
    for z1 in (1e200, 1e200 + 0j):
        with pytest.raises(NonFinitePoint, match=r"^c4 has non-finite component: -infj$"):
            interior_quartic_coeffs(z1, 1e200j)


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


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="the three roots near the pair polish to 1.75e-9 to 3.5e-9 off the circle, the fixed 1e-9 "
    "circle test rejects them, and the antipodal root, the focal-sum maximum, is the one kept",
)
def test_minimizing_root_of_a_close_pair_near_the_rim_matches_an_arc_scan():
    # both points about 2e-12 inside the rim and 3.6e-4 apart; the least
    # focal sum lies on the short arc between their arguments, and a scan of
    # that arc gives s above 1 - 1e-11, and oracle_smetric 0.9999999999985
    z1 = 0.14629573629124584 - 0.9892408996498246j
    z2 = 0.1459440035179728 - 0.9892928524110235j
    a1, a2 = cmath.phase(z1), cmath.phase(z2)
    arc = (cmath.exp(1j * (a1 + (a2 - a1) * k / 2000)) for k in range(2001))
    scanned = abs(z1 - z2) / min(abs(z1 - w) + abs(z2 - w) for w in arc)
    assert scanned > 0.99999999999
    assert abs(minimizing_root(z1, z2).s_value - scanned) <= 1e-9


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
    with pytest.raises(PointOutsideDomain):
        minimizing_root(1 + 0j, 0.5j)  # as either point
    with pytest.raises(CoincidentPoints):
        minimizing_root(0.3 + 0.2j, 0.3 + 0.2j)
    with pytest.raises(CoincidentPoints):
        minimizing_root(0.3 + 0.2j, 0.3 + 1e-15 + 0.2j)  # closer than 1e-14
    minimizing_root(0.5 + 0j, 0.5 + 1e-14j)  # exactly 1e-14 apart answers


def test_no_root_on_circle_with_absurd_tolerance(monkeypatch):
    # a circle test that rejects every root: the interior pair has no answer;
    # the exterior pick does not test roots, and its picture shows none kept
    monkeypatch.setattr(interior_module, "on_unit_circle", lambda w: False)
    with pytest.raises(NoRootOnCircle):
        minimizing_root(0.31 + 0.17j, -0.2 + 0.43j)
    res = exterior_reflection(1.5 + 0j, 2j)
    assert res is not None
    assert res.on_circle_mask == (False,) * 4


def test_least_focal_sum_raises_when_no_root_passes():
    # roots off the circle, one just outside the 1e-9 band: nothing to pick
    roots = (0.5j, 2.0 + 0j, (1.0 + 2e-9) * cmath.exp(0.3j))
    with pytest.raises(NoRootOnCircle):
        _least_focal_sum(0.3 + 0j, -0.2j, roots)


def test_least_focal_sum_takes_the_least_sum_of_the_projections():
    # both points lie toward target, where the focal sum is least; the root
    # nearest it is off the circle, so it is masked out although its
    # projection would cost less, and the sum is taken at the projections
    # of roots inside the band, not at the roots
    target = complex(0.6, 0.8)
    z1, z2 = 0.9 * target, 0.8 * target
    roots = ((1.0 + 8e-10) + 0j, (1.0 - 8e-10) * cmath.exp(1.4j), -(1.0 + 5e-10) + 0j, 0.999 * target)
    w, fs, ties = _least_focal_sum(z1, z2, roots)
    assert tuple(on_unit_circle(r) for r in roots) == (True, True, True, False)
    assert w == roots[1] / abs(roots[1]) and w != roots[1]
    assert fs == abs(z1 - w) + abs(z2 - w) and ties == (1,)
    assert abs(z1 - target) + abs(z2 - target) < fs


def test_least_focal_sum_ties_within_1e_10_prefer_largest_im_then_re():
    # for the pair (0.5, -0.5) the focal sum is 2 at w = -1 and about
    # 2 + phi^2/3 at e^{i*phi}: sums 3e-11 and 9e-11 above the least tie
    # with it, and the largest Im among them wins; a sum 2e-10 above does
    # not tie, though its Im is larger still
    z1, z2 = 0.5 + 0j, -0.5 + 0j
    roots = tuple(cmath.exp(1j * math.sqrt(3.0 * d)) for d in (3e-11, 9e-11, 2e-10)) + (-1.0 + 0j,)
    sums = [abs(z1 - w) + abs(z2 - w) for w in roots]
    assert sums[3] == 2.0 and sums[1] - 2.0 < 1e-10 < sums[2] - 2.0
    w, fs, ties = _least_focal_sum(z1, z2, roots)
    assert ties == (0, 1, 3) and w == roots[1] and fs == sums[1]
    # equal Im: the larger Re wins
    roots = (complex(-0.6, 0.8), complex(0.6, 0.8))
    w, _, ties = _least_focal_sum(0.3 + 0j, -0.3 + 0j, roots)
    assert ties == (0, 1) and w == complex(0.6, 0.8)
    # the band includes its edge: this projection's sum is exactly 2 + 1e-10
    w, fs, ties = _least_focal_sum(z1, z2, (cmath.exp(1.7320481551115725e-05j), -1.0 + 0j))
    assert fs == 2.0 + 1e-10 and ties == (0, 1)


# (solver, z1, z2, Re w, Im w, s, focal sum, tie_indices), the reals as
# float.hex, pinned from the pick as numeric._argmin_on_circle made it: the
# first seed-1 benchmark pair of the uniform, near_rim, near_coincident and
# near_coincident_origin families, a near_origin pair that takes the Newton
# polygon's starts, the origin cubic, the diametral tie, a symmetric tie,
# a point 1e-70 from the origin, an exterior pair and both grazing pairs.
# The last two, seed-1 exterior pairs, pin _law_zero's stop: the first
# moves by an ulp without the bisection fallback or without the width stop,
# and the second by 2.2e-16 rad if the stop reads ulps of |x| alone and not
# of the angle base + x
PINNED_PAIRS = [
    ("minimizing_root", -0.43452816556302326 - 0.32998967730928713j, 0.32761416406021754 - 0.9162632269170236j,
     "0x1.47ea93fd9d0a4p-2", "-0x1.e509b0ecb440ap-1", "0x1.e8e16a2cab470p-1", "0x1.01cc2fa291e13p+0", (2,)),
    ("minimizing_root", 0.06090608078274884 + 0.9981419592440539j, -0.11679177057497178 + 0.24124679948589395j,
     "0x1.f2f0f42c26610p-5", "0x1.ff0caa96fde99p-1", "0x1.ffff7d0b5b2c9p-1", "0x1.8e118d9cbcb15p-1", (1,)),
    ("minimizing_root", -0.2799000883214061 + 0.515804480402409j, 1.763720099174818e-11 + 2.227777551011906e-11j,
     "-0x1.e8657c4ff52f2p-2", "0x1.c20331e579d6ep-1", "0x1.a93fd2f728409p-2", "0x1.69c3e59dcb78ap+0", (3,)),
    ("minimizing_root", 0j, 0.5 + 0j,
     "0x1.0000000000000p+0", "0x1.0000000000000p-53", "0x1.5555555555555p-2", "0x1.8000000000000p+0", (1,)),
    ("minimizing_root", 0.5 + 0j, -0.5 + 0j,
     "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+1", (1, 3)),
    ("minimizing_root", -0.8032522755834922 + 0.5308845264617177j, 0.8032522755834922 - 0.5308845264617177j,
     "-0x1.ab23b67376fa6p-1", "0x1.1a4df564b652bp-1", "0x1.ecf8cd41f01dep-1", "0x1.0000000000000p+1", (1, 3)),
    ("minimizing_root", 0.023447935412646226 + 0.3057634359507971j, 0.02344793521006707 + 0.3057634354782582j,
     "0x1.39303e7142fa6p-4", "0x1.fe8049351a285p-1", "0x1.97a916977637cp-32", "0x1.62fd4e0444a72p+0", (1,)),
    ("minimizing_root", 0.0025868277088522537 + 0.0013536825173323754j,
     0.0026773870262672044 + 0.0013910646626231335j,
     "0x1.c5febe5321e32p-1", "0x1.d96c6ba81d0a3p-2", "0x1.9c254a63b3a22p-15", "0x1.fe7aed0660706p+0", (1,)),
    ("minimizing_root", 1e-70 * cmath.exp(0.7j), EPS_PARTNER,
     "-0x1.63bd515593fe4p-2", "0x1.e01c5b30be737p-1", "0x1.1c364d47c11bfp-1", "0x1.493d286dec7d6p+0", (3,)),
    ("exterior_reflection", 1.850662448884409 - 1.334356488822503j, 0.05456170642033646 + 2.2349717569942134j,
     "0x1.c97011787f1fdp-1", "0x1.cbfa16d9e4c75p-2", "0x1.ffd1435c2a120p-1", "0x1.ffa3b3bfbc6f0p+1", (2,)),
    ("exterior_reflection", 0.8845714342206823 + 0.7327530244356987j, 1.0950286964075882 - 0.441145756054372j,
     "0x1.f7f70521d6ad4p-1", "0x1.6967bb126416ap-3", "0x1.ffffffffd3c13p-1", "0x1.314f37eff06dcp+0", (2,)),
    ("exterior_reflection", 2.8071166842147535 + 1.0335046750069157j, -0.8891013558124188 - 2.039739317983885j,
     "0x1.4756751bc9668p-1", "-0x1.89b15aca67f2ep-1", "0x1.ffffffffddf8cp-1", "0x1.33a53810b16a7p+2", (1,)),
    ("exterior_reflection", 1.030661730617544 + 0.15109230967741644j, 3.688944390859664 - 2.6627075013129535j,
     "0x1.fd96249104c6bp-1", "0x1.8d3d1f7127fadp-4", "0x1.f9748ff988ad3p-1", "0x1.f5e44df8864ffp+1", (1,)),
    ("exterior_reflection", -0.04182122732444714 + 1.0257828296898728j, 1.0796287979345804 + 1.501658805422255j,
     "0x1.54822fb2f2416p-7", "0x1.fff8ec4b3706fp-1", "0x1.f7476806a65e2p-1", "0x1.3d460b0c20dc1p+0", (2,)),
]


@pytest.mark.parametrize("solver, z1, z2, re_w, im_w, s, fs, ties", PINNED_PAIRS)
def test_pair_answers_are_pinned_bit_for_bit(solver, z1, z2, re_w, im_w, s, fs, ties):
    res = getattr(interior_module, solver)(z1, z2)
    assert (res.w.real.hex(), res.w.imag.hex(), res.s_value.hex(), res.focal_sum.hex()) == (re_w, im_w, s, fs)
    assert res.tie_indices == ties


# the root picture of each pair above, and of two more seed-2 benchmark
# pairs: a near_coincident_origin pair whose four roots take one polish step
# each, and a near_origin pair on the Newton polygon's starts. (solver, z1,
# z2, candidates as "Re Im" float.hex, residuals as float.hex,
# polish_iterations, min_separation as float.hex, on_circle_mask)
PINNED_PICTURES = [
    ("minimizing_root", (-0.43452816556302326-0.32998967730928713j), (0.32761416406021754-0.9162632269170236j),
     "-0x1.19d5492e5e2b6p-2 -0x1.7184f43467f10p-2, -0x1.5614dc28ab2aap+0 -0x1.c0833c22f14e8p+0, "
     "0x1.47ea93fd9d0a4p-2 -0x1.e509b0ecb440ap-1, 0x1.6bded3ef9f540p-3 0x1.f7daa270c0575p-1",
     "0x1.1e3779b97f4a8p-53 0x1.465655f122ff6p-51 0x1.f3db2174e7468p-52 0x1.0000000000000p-53",
     (0, 0, 0, 0), "0x1.abeb89ecd5708p-1", (False, False, True, True)),
    ("minimizing_root", (0.06090608078274884+0.9981419592440539j), (-0.11679177057497178+0.24124679948589395j),
     "0x1.7069aa61e9ba8p-4 -0x1.fdecbc6a2cf20p-1, 0x1.f2f0f42c26610p-5 0x1.ff0caa96fde99p-1, "
     "-0x1.a224d7ef2c028p+0 0x1.094b62622fd9dp+2, -0x1.51077783638a4p-4 0x1.aba9473cf8d78p-3",
     "0x1.bdb55b550fdbcp-51 0x1.4000000000000p-53 0x1.6d2041e7f68bdp-47 0x1.4e16fdacff937p-53",
     (0, 0, 0, 0), "0x1.9abae2247965fp-1", (True, True, False, False)),
    ("minimizing_root", (-0.2799000883214061+0.515804480402409j), (1.763720099174818e-11+2.227777551011906e-11j),
     "0x1.e8657c4ff52f1p-2 -0x1.c20331e579d6cp-1, 0x1.4585020da1500p+34 0x1.9b2afea39e2f2p+34, "
     "0x1.3646e44d8cc4bp-36 0x1.87ea2e75f9621p-36, -0x1.e8657c4ff52f2p-2 0x1.c20331e579d6ep-1",
     "0x1.0dbd83cb74988p-35 0x1.131807ae7fa7ep+52 0x1.07e0f66afed07p-88 0x1.0dbd46be97d40p-35",
     (0, 0, 0, 0), "0x1.ffffffffe770bp-1", (True, False, False, True)),
    ("minimizing_root", 0j, (0.5+0j),
     "-0x1.0000000000000p-52 -0x1.0000000000000p-53, 0x1.0000000000000p+0 0x1.0000000000000p-53, "
     "-0x1.fffffffffffffp-1 0x1.0000000000000p-54",
     "0x1.1e3779b97f4a8p-53 0x1.0000000000000p-53 0x1.1e3779b97f4a7p-53",
     (0, 0, 0), "0x1.ffffffffffffdp-1", (False, True, True)),
    ("minimizing_root", (0.5+0j), (-0.5+0j),
     "-0x0.0p+0 -0x1.0000000000000p+0, 0x1.0000000000000p+0 0x0.0p+0, "
     "0x0.0p+0 0x1.0000000000000p+0, -0x1.0000000000000p+0 0x0.0p+0",
     "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
     (0, 0, 0, 0), "0x1.6a09e667f3bcdp+0", (True, True, True, True)),
    ("minimizing_root", (-0.8032522755834922+0.5308845264617177j), (0.8032522755834922-0.5308845264617177j),
     "-0x1.1a4df564b652bp-1 -0x1.ab23b67376fa6p-1, 0x1.ab23b67376fa6p-1 -0x1.1a4df564b652bp-1, "
     "0x1.1a4df564b652bp-1 0x1.ab23b67376fa6p-1, -0x1.ab23b67376fa6p-1 0x1.1a4df564b652bp-1",
     "0x1.94c583ada5b53p-52 0x1.94c583ada5b53p-52 0x1.94c583ada5b53p-52 0x1.94c583ada5b53p-52",
     (0, 0, 0, 0), "0x1.6a09e667f3bccp+0", (True, True, True, True)),
    ("minimizing_root", (0.023447935412646226+0.3057634359507971j), (0.02344793521006707+0.3057634354782582j),
     "-0x1.39303e7142f9cp-4 -0x1.fe8049351a28cp-1, 0x1.39303e7142fa8p-4 0x1.fe8049351a289p-1, "
     "0x1.f2573cc431dd6p-2 0x1.96269ee7624e2p+2, 0x1.89a783b2f9798p-7 0x1.40d4ad91ec9b0p-3",
     "0x1.6b51c56c6b990p-50 0x1.a2891949784dcp-52 0x1.408f7fd32db32p-48 0x1.69e24b28248aap-52",
     (0, 0, 0, 0), "0x1.af8e8b044d1bfp-1", (True, True, False, False)),
    ("minimizing_root", (0.0025868277088522537+0.0013536825173323754j), (0.0026773870262672044+0.0013910646626231335j),
     "-0x1.c5febc19d909bp-1 -0x1.d96c742fcd418p-2, 0x1.c5febe5321e32p-1 0x1.d96c6ba81d0a3p-2, "
     "0x1.58e52aeae0355p-10 0x1.67b27b5033e35p-11, 0x1.2ac9c008baf38p+9 0x1.379c7df898a46p+8",
     "0x1.eb7e6ffb3281fp-61 0x1.1b0c36031dfe2p-62 0x0.0p+0 0x1.40199f47b69b1p-35",
     (1, 1, 1, 0), "0x1.ff3d83c00a7ecp-1", (True, True, False, False)),
    ("minimizing_root", 1e-70 * cmath.exp(0.7j), EPS_PARTNER,
     "0x1.63bd515593fe3p-2 -0x1.e01c5b30be736p-1, 0x1.0e4596f5e3743p-233 0x1.c74b2cc5848a9p-234, "
     "0x1.1bb21ba89fc55p+232 0x1.dde840fbe5a4bp+231, -0x1.63bd515593fe4p-2 0x1.e01c5b30be737p-1",
     "0x1.07e0f66afed06p-53 0x0.0p+0 0x1.91537e729b162p+644 0x1.0000000000000p-55",
     (0, 0, 0, 0), "0x1.fffffffffffffp-1", (True, False, False, True)),
    ("exterior_reflection", (1.850662448884409-1.334356488822503j), (0.05456170642033646+2.2349717569942134j),
     "-0x1.cb55a82404767p-1 -0x1.c45a46ba1d80ap-2, 0x1.3d27197b4c4f3p-1 -0x1.91f165eb31a37p-1, "
     "0x1.c97011787f1fdp-1 0x1.cbfa16d9e4c71p-2, -0x1.fe8df92d2449ap-3 0x1.efd5c477a6624p-1",
     "0x1.cd82b446159f3p-50 0x1.027ce7b7ea376p-47 0x1.ad5336963eefcp-49 0x1.cd82b446159f3p-49",
     (0, 0, 0, 0), "0x1.41522ecfc7a15p+0", (True, True, True, True)),
    ("exterior_reflection", (0.8845714342206823+0.7327530244356987j), (1.0950286964075882-0.441145756054372j),
     "-0x1.fa2d86765f708p-1 -0x1.33f95c124f933p-3, 0x1.a7b007e5a7ed4p-1 -0x1.1f758f1baf99bp-1, "
     "0x1.f7f70521d6ad2p-1 0x1.6967bb1264178p-3, 0x1.44116f716d27bp-1 0x1.8c637654180b5p-1",
     "0x1.cd82b446159f3p-51 0x1.99ccc999fff00p-51 0x1.cd82b446159f3p-52 0x1.cd82b446159f3p-52",
     (0, 0, 0, 0), "0x1.62feca829c839p-1", (True, True, True, True)),
    ("exterior_reflection", (2.8071166842147535+1.0335046750069157j), (-0.8891013558124188-2.039739317983885j),
     "-0x1.365c5ae5d2709p-1 -0x1.9735d3b9bcf86p-1, 0x1.4756751bc9667p-1 -0x1.89b15aca67f30p-1, "
     "0x1.a3c0038ec162cp-1 0x1.252dcf2196e24p-1, -0x1.700cdaffd676dp-1 0x1.63ecf49b82652p-1",
     "0x1.cd82b446159f3p-50 0x1.58a68a4a8d9f3p-48 0x1.6a09e667f3bcdp-50 0x1.1e3779b97f4a8p-50",
     (0, 0, 0, 0), "0x1.3eebbe0a99e20p+0", (True, True, True, True)),
    ("minimizing_root", (-0.0007362385710865847+0.0018231697563211653j), (-0.0007350082952413489+0.001823056172906383j),
     "0x1.7f2a95564b55ep-2 -0x1.dace1b6e4cc84p-1, -0x1.81adc98975b09p-12 0x1.ddeb2b50844eep-11, "
     "-0x1.7cab87e3e9b20p+8 0x1.d7b63edf790e2p+9, -0x1.7f2a9558cfdd8p-2 0x1.dace1b6dcabfcp-1",
     "0x1.421e34a537096p-64 0x1.0000000000000p-71 0x1.d770613bff50cp-32 0x1.3bba668333525p-61",
     (1, 1, 1, 1), "0x1.ff7f29202b2c1p-1", (True, False, False, True)),
    ("minimizing_root", (0.7055033645946416+0.2143309197844021j), (-5.514846766822455e-13-1.2371885172932213e-12j),
     "-0x1.e9e45477ee170p-1 -0x1.29a82ce104868p-2, -0x1.36755161f36ffp-41 -0x1.5c3cd3f3113dap-40, "
     "-0x1.17ee768d1ab17p+38 -0x1.39fefde4cf698p+39, 0x1.e9e45477ee170p-1 0x1.29a82ce104867p-2",
     "0x1.a8d6d6eaaec32p-40 0x0.0p+0 0x1.faf70c228c166p+38 0x1.a8d66d7971d2fp-40",
     (0, 0, 0, 0), "0x1.fffffffffe0c8p-1", (True, False, False, True)),
]


@pytest.mark.parametrize("solver, z1, z2, roots, residuals, iterations, separation, mask", PINNED_PICTURES)
def test_pair_pictures_are_pinned_bit_for_bit(solver, z1, z2, roots, residuals, iterations, separation, mask):
    res = getattr(interior_module, solver)(z1, z2)
    picture = res.candidates
    assert ", ".join(f"{w.real.hex()} {w.imag.hex()}" for w in picture.roots) == roots
    assert " ".join(x.hex() for x in picture.residuals) == residuals
    assert picture.polish_iterations == iterations
    assert picture.min_separation.hex() == separation
    assert res.on_circle_mask == mask


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


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="near the rim the three terms of the law cancel to about (|z| - 1)*x, so rounding moves its "
    "zero by about u*x/(|z| - 1): 8.0e-11 rad here (ROADMAP item 2)",
)
def test_exterior_pair_within_1e_10_of_the_circle_matches_a_50_digit_zero():
    # |z| - 1 is 6.0e-11 and 1.0e-12, and the true visible arcs overlap by
    # 2.1e-6 rad; the angle should be the 50-digit zero to 4 ulps of 1, which
    # ROADMAP item 2's product form of the law met on every row it measured
    z1, z2 = 0.8980712965599453 + 0.4398499135107619j, 0.8980758024601084 + 0.43984071325612545j
    phi, gap = _law_zero_50_digits(z1, z2)
    assert -3e-6 < gap < -1e-6
    res = exterior_reflection(z1, z2)
    assert res is not None
    assert abs(cmath.phase(res.w) - float(phi)) <= 4 * math.ulp(1.0)


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
    exterior_reflection(2.0, complex(0.0, sys.float_info.max / 2.0))  # and so is exactly the largest float


def test_exterior_domain_errors():
    with pytest.raises(PointInsideDomain):
        exterior_reflection(0.5, 2.0)
    with pytest.raises(PointInsideDomain):
        exterior_reflection(2.0, 1.0 + 0j)  # the circle itself is excluded
    with pytest.raises(PointInsideDomain):
        exterior_reflection(1.0 + 0j, 2j)  # as either point
    with pytest.raises(CoincidentPoints):
        exterior_reflection(2.0 + 1j, 2.0 + 1j)
    with pytest.raises(CoincidentPoints):
        exterior_reflection(2.0 + 1j, 2.0 + 1e-15 + 1j)  # closer than 1e-14
    assert exterior_reflection(2.0 + 0j, 2.0 + 1e-14j) is not None  # exactly 1e-14 apart


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


def test_reflection_result_is_a_frozen_dataclass_whose_picture_is_no_field(monkeypatch):
    import copy
    import dataclasses
    import pickle

    solves = _count_solves(monkeypatch)
    res = minimizing_root(0.3 + 0.1j, -0.2 + 0.4j)
    text = (
        "ReflectionResult(w=(-1.1102230246251565e-16+1j), s_value=0.36878177829171555, "
        "focal_sum=1.5811388300841895, reflection_residual=5.551115123125788e-18, degree_dropped=False, "
        "_pair=((0.3+0.1j), (-0.2+0.4j)))"
    )
    assert dataclasses.is_dataclass(res) and repr(res) == text
    for name in ("w", "_pair", "candidates", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(res, name, 0)
    for name in ("w", "s_value"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(res, name)
    # replace builds a result with no picture, which its first read solves,
    # once; equality and hash compare the fields and the pair only
    moved = dataclasses.replace(res, w=res.w * 1.01)
    assert "candidates" not in vars(moved) and moved != res
    same = dataclasses.replace(res)
    assert "candidates" not in vars(same) and same == res and hash(same) == hash(res)
    assert solves(lambda: same.candidates, lambda: same.on_circle_mask, lambda: same.tie_indices) == 1
    assert same.candidates == res.candidates and same.on_circle_mask == res.on_circle_mask
    assert same == res and hash(same) == hash(res) and repr(same) == text
    # a copy or a pickle round trip keeps the fields and the picture
    clones = [copy.copy(res), copy.deepcopy(res)]
    clones += [pickle.loads(pickle.dumps(res, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is type(res) and clone == res and hash(clone) == hash(res) and repr(clone) == text
        assert vars(clone) == vars(res)
    assert solves(*[lambda c=c: (c.candidates, c.on_circle_mask, c.tie_indices) for c in clones]) == 0


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


def test_the_pick_from_the_polish_order_is_the_pick_from_the_sorted_roots(monkeypatch, interior_family_pairs):
    # the least sum and its tie set do not depend on the order of the roots:
    # minimizing_root picks from the polish order, and the picture read
    # afterwards sorts the same roots and takes its mask and ties from them
    from catoptrix import polished_roots

    calls = []

    def counting(solver):
        def solve(*args):
            calls.append(args)
            return solver(*args)

        return solve

    monkeypatch.setattr(interior_module, "solve_quartic", counting(solve_quartic))
    monkeypatch.setattr(interior_module, "polished_roots", counting(polished_roots))
    pairs = [(z1, z2) for _, z1, z2 in interior_family_pairs(2, 40)]
    # both golden pairs, the diametral one the symmetric tie
    pairs += [(0.5 + 0j, -0.5 + 0j), (0j, 0.5 + 0j)]
    ties = dropped = 0
    for z1, z2 in pairs:
        before = len(calls)
        res = minimizing_root(z1, z2)
        assert len(calls) == before + 1
        candidates = res.candidates
        assert "roots" not in vars(candidates)
        order = candidates._any_order
        w, fs, _ = _least_focal_sum(z1, z2, order)
        sorted_w, sorted_fs, tie_set = _least_focal_sum(z1, z2, candidates.roots)
        assert sorted(order, key=lambda r: (cmath.phase(r), abs(r))) == list(candidates.roots)
        assert (w.real.hex(), w.imag.hex(), fs.hex()) == (sorted_w.real.hex(), sorted_w.imag.hex(), sorted_fs.hex())
        assert (res.w.real.hex(), res.w.imag.hex()) == (w.real.hex(), w.imag.hex())
        assert res.focal_sum == max(fs, abs(z1 - z2))
        assert res.tie_indices == tie_set
        assert res.on_circle_mask == tuple(on_unit_circle(r) for r in candidates.roots)
        assert len(calls) == before + 1, "reading the picture solved again"
        ties += len(tie_set) > 1
        dropped += res.degree_dropped
    # most symmetric pairs tie; every fourth near_origin pair and the golden
    # origin pair drop the quartic term
    assert ties >= 25 and dropped == 11
