"""Quartic solving, root classification, and the image-quartic coefficients.

The independent root oracles used here are numpy's companion-matrix solver
and, for quartics whose roots spread over orders of magnitude, mpmath's
polyroots at 50 digits.
"""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from catoptrix import (
    ObserverPolar,
    QuarticCoeffs,
    RootNature,
    infinity_quartic_coeffs,
    infinity_real_coeffs,
    polished_roots,
    real_quartic_invariants,
    solve_quartic,
)
from catoptrix.errors import (
    DegenerateLeadingCoefficient,
    InvalidObserver,
    NoConvergence,
    NonFinitePoint,
    ShadowRegion,
)
from catoptrix.oracle import oracle_quartic_discriminant


def _match_multisets(got, expected, tol):
    expected = list(expected)
    for g in got:
        best = min(range(len(expected)), key=lambda k: abs(expected[k] - g))
        assert abs(expected[best] - g) < tol, (g, expected)
        expected.pop(best)


def test_fourth_roots_of_unity():
    rs = solve_quartic(QuarticCoeffs(1, 0, 0, 0, -1))
    _match_multisets(rs.roots, [1, -1, 1j, -1j], 1e-14)
    assert all(r <= 1e-14 for r in rs.residuals)


def test_constructed_product_1234():
    rs = solve_quartic(QuarticCoeffs(1, -10, 35, -50, 24))
    _match_multisets(rs.roots, [1, 2, 3, 4], 1e-10)


def test_roots_sorted_by_principal_argument():
    rs = solve_quartic(QuarticCoeffs(1, 0, 0, 0, -1))
    phases = [cmath.phase(w) for w in rs.roots]
    assert phases == sorted(phases)


def test_residuals_recomputed_from_coefficients():
    q = QuarticCoeffs(2 - 1j, 0.3j, -1.0, 0.7 + 0.2j, 1.5)
    rs = solve_quartic(q)
    for w, res in zip(rs.roots, rs.residuals):
        assert res == abs(q(w))


def test_degenerate_leading_coefficient():
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_quartic(QuarticCoeffs(0, 1, 0, 0, -1))
    with pytest.raises(DegenerateLeadingCoefficient):
        polished_roots((0j, 1 + 0j))


@pytest.mark.parametrize(
    "coeffs",
    [
        (1e-100, 1e100, 0, 0, 1),  # a root near -1e200: |root|^4 overflows
        (1, 1e80, 0, 0, 1),  # a root near -1e80: |root|^4 overflows
    ],
)
def test_badly_scaled_coefficients_raise_no_convergence(coeffs):
    with pytest.raises(NoConvergence):
        solve_quartic(QuarticCoeffs(*coeffs))
    with pytest.raises(NoConvergence):
        polished_roots(coeffs)


def _mpmath_roots(coeffs):
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in coeffs], maxsteps=200, extraprec=400)
        return [complex(r) for r in roots]


def _max_relative_error(got, expected):
    expected = list(expected)
    worst = 0.0
    for g in got:
        best = min(range(len(expected)), key=lambda k: abs(expected[k] - g) / abs(expected[k]))
        worst = max(worst, abs(expected[best] - g) / abs(expected[best]))
        expected.pop(best)
    return worst


def test_a_badly_scaled_quartic_solves_from_polygon_starts():
    # Ferrari's starts overflowed p(root) to inf here; the polygon's edges
    # give three roots of modulus 10^(-110/3) and one near -1e70
    coeffs = (1e40 + 0j, 1e110 + 0j, 0j, 0j, 1 + 0j)
    expected = _mpmath_roots(coeffs)
    for rs in (solve_quartic(QuarticCoeffs(*coeffs)), polished_roots(coeffs)):
        assert _max_relative_error(rs.roots, expected) <= 1e-12


def test_polish_stops_at_a_nan_start_root(monkeypatch):
    # Newton cannot leave NaN: the first non-finite p(w) ends the polish
    from catoptrix import quartic

    calls = []
    horner_pair = quartic._horner_pair

    def counting(coeffs, w):
        calls.append(w)
        return horner_pair(coeffs, w)

    monkeypatch.setattr(quartic, "_horner_pair", counting)
    with pytest.raises(NoConvergence, match="stalled at residual inf"):
        quartic._polish((1 + 0j, 0j, 0j, 0j, -1 + 0j), [complex(math.nan, math.nan)] * 4, 1e-10)
    assert len(calls) <= 1


def test_zero_trailing_coefficients_give_exact_zero_roots():
    # w^4 + 1e5*w^3 and w^4 + 1e5*w^2: the polygon starts below its lowest
    # nonzero coefficient at exactly 0, which p(0) = 0 accepts as it is
    cases = [((1, 1e5, 0, 0, 0), [-1e5]), ((1, 0, 1e5, 0, 0), [-316.22776601683796j, 316.22776601683796j])]
    for coeffs, nonzero in cases:
        for rs in (solve_quartic(QuarticCoeffs(*coeffs)), polished_roots(coeffs)):
            assert [w for w in rs.roots if w == 0] == [0j] * (4 - len(nonzero))
            _match_multisets([w for w in rs.roots if w != 0], nonzero, 1e-9)


def _poly_from_roots(roots):
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    return coeffs


# root-modulus exponents, times k: one root next to the origin with its
# mirror image (the reflection quartic's shape), two tight pairs, and
# lopsided sets with one root far from the other three
SPREAD_SHAPES = [(-1, 0, 0, 1), (-1, -1, 1, 1), (-1, 0, 1, 1), (-2, -1, 1, 2), (-1, 0, 0, 0), (0, 0, 0, 1)]


def _spread_quartics(seed, ks, per_k):
    rng = random.Random(seed)
    out = []
    for shape in SPREAD_SHAPES:
        for k in ks:
            for _ in range(per_k):
                roots = [10.0 ** (e * k) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for e in shape]
                scale = 10.0 ** rng.uniform(-3.0, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                out.append(tuple(scale * c for c in _poly_from_roots(roots)))
    return out


def _takes_polygon_starts(coeffs):
    from catoptrix import quartic

    return quartic._spread(*map(abs, coeffs))


def test_spread_quartics_match_mpmath():
    # root moduli 10^(±k·e): k = 0.25, 0.5 keep Ferrari's starts, k = 16, 20
    # take the Newton polygon's; each root agrees with a 50-digit reference
    quartics = _spread_quartics(14, (0.25, 0.5, 16.0, 20.0), 8)
    assert len(quartics) == 192
    assert sum(map(_takes_polygon_starts, quartics)) == 96
    for coeffs in quartics:
        got = solve_quartic(QuarticCoeffs(*coeffs)).roots
        assert _max_relative_error(got, _mpmath_roots(coeffs)) <= 1e-12, coeffs


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="the residual bound is normwise, relative to max|c|, so a start off by much more than "
    "1e-12 relative can pass it at step 0; a componentwise bound would hold such a root back",
)
def test_spread_quartics_between_the_bands_match_mpmath():
    # the same shapes for k from 2 to 12, on both paths: most quartics here
    # answer to 1e-12, but a small or unit root can be returned with a
    # relative error up to about 1e-4 that the bound does not see
    for coeffs in _spread_quartics(15, (2.0, 4.0, 6.0, 8.0, 10.0, 12.0), 2):
        got = solve_quartic(QuarticCoeffs(*coeffs)).roots
        assert _max_relative_error(got, _mpmath_roots(coeffs)) <= 1e-12, coeffs


def test_common_family_quartics_take_ferrari_starts(monkeypatch):
    # with both points at least 0.01 from the origin, |c3|/|c4| of the
    # reflection quartic is at most 1/|z1| + 1/|z2| <= 200, and 1/r < 1 for
    # a plane-wave observer: neither reaches the polygon path
    from catoptrix import exterior_reflection, infinity_reflection, minimizing_root, quartic

    def refuse(coeffs, mods):
        raise AssertionError(f"polygon starts for {coeffs}")

    monkeypatch.setattr(quartic, "_polygon_starts", refuse)
    rng = random.Random(16)

    def disk(rmin=0.0):
        r = math.sqrt(rng.uniform(rmin * rmin, 1.0))
        return r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))

    for _ in range(300):
        z1, z2 = disk(0.01), disk(0.01)
        rim = (1.0 - 10.0 ** rng.uniform(-12.0, -1.0)) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        for a, b in ((z1, z2), (rim, z2), (z1, z1 + 1e-6 * disk()), (z1, -z1.conjugate())):
            if abs(b) < 1.0 and abs(a - b) > 1e-14:
                minimizing_root(a, b)
        exterior = exterior_reflection(z1 / abs(z1) * (1.0 + 4.0 * rng.random()), 3.0 * z2 / abs(z2))
        if exterior is not None:
            exterior.candidates  # the pick solves no quartic; its picture does
        theta = rng.uniform(-math.pi, math.pi)
        try:
            infinity_reflection(ObserverPolar(1.0 + 10.0 ** rng.uniform(-9.0, 3.0), theta))
        except ShadowRegion:
            pass


def test_polish_skips_an_exact_duplicate_start():
    # four identical starts: every other root equals the first one moved, so
    # its repel sum is empty; nothing divides by w - w, and the later roots
    # are repelled from the ones already moved in the same step
    from catoptrix import quartic

    roots, residuals, iters = quartic._polish((1 + 0j, 0j, 0j, 0j, -1 + 0j), [0.3 + 0.2j] * 4, 1e-10)
    assert roots == [
        -5.169878828456423e-26 - 1j,
        1 + 0j,
        -1.000000000000001 - 7.969631356762041e-15j,
        3.1763735522036263e-22 + 0.9999999999999999j,
    ]
    assert residuals == [2.0679515313825692e-25, 0.0, 3.2186362112445835e-14, 4.440892098518802e-16]
    assert iters == [9, 9, 8, 8]


class _ComplexSubclass(complex):
    pass


@pytest.mark.parametrize(
    "value",
    [2, 2.5, np.float64(-1.5), np.complex128(2 - 1j), _ComplexSubclass(2, -1), 2 - 1j],
    ids=["int", "float", "float64", "complex128", "complex-subclass", "complex"],
)
def test_quartic_coeffs_store_plain_complex(value):
    q = QuarticCoeffs(value, value, value, value, value)
    for c in q.as_tuple():
        assert type(c) is complex
        assert c == complex(value)


@pytest.mark.parametrize("field", ["c4", "c3", "c2", "c1", "c0"])
def test_quartic_coeffs_reject_non_finite_naming_the_field(field):
    for bad in (complex(math.nan, 0.0), complex(0.0, -math.inf), math.inf, np.complex128(complex(1.0, math.nan))):
        coeffs = dict(c4=1 + 0j, c3=0j, c2=0j, c1=0j, c0=-1 + 0j)
        coeffs[field] = bad
        with pytest.raises(NonFinitePoint, match=f"^{field} has non-finite component"):
            QuarticCoeffs(**coeffs)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 4) for k in range(n + 1)])
def test_polished_roots_rejects_non_finite_naming_the_coefficient(n, k, bad):
    # coefficient k of (c_n, ..., c_0) is c_(n-k), the name QuarticCoeffs gives it
    coeffs = [1 + 0j] + [0j] * (n - 1) + [-1 + 0j]
    coeffs[k] = bad
    with pytest.raises(NonFinitePoint, match=f"^c{n - k} has non-finite component"):
        polished_roots(tuple(coeffs))


def test_infinity_quartic_roots_match_companion_oracle():
    # observer r=2, theta=pi/3: all roots on the circle, values cross-checked
    obs = ObserverPolar(2.0, math.pi / 3)
    q = infinity_quartic_coeffs(obs)
    rs = solve_quartic(q)
    for w in rs.roots:
        assert abs(abs(w) - 1.0) < 1e-9
    oracle = np.roots([q.c4, q.c3, q.c2, q.c1, q.c0])
    _match_multisets(rs.roots, list(oracle), 1e-9)


def test_scaling_invariance():
    rng = np.random.default_rng(7)
    base = QuarticCoeffs(1.2 - 0.4j, -0.3 + 1j, 2.0, -1.5j, 0.8 + 0.8j)
    ref = solve_quartic(base).roots
    for _ in range(200):
        mag = rng.uniform(0.1, 10.0)
        lam = mag * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        scaled = QuarticCoeffs(*(lam * c for c in base.as_tuple()))
        _match_multisets(solve_quartic(scaled).roots, ref, 1e-9)


def test_vieta_closure_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        vals = rng.standard_normal(10)
        q = QuarticCoeffs(
            complex(vals[0] + 1.0, vals[1]),  # keep the leading term away from 0
            complex(vals[2], vals[3]),
            complex(vals[4], vals[5]),
            complex(vals[6], vals[7]),
            complex(vals[8], vals[9]),
        )
        rs = solve_quartic(q)
        mono = np.poly(np.array(rs.roots))
        target = np.array(q.as_tuple()) / q.c4
        scale = max(1.0, np.max(np.abs(target)))
        assert np.max(np.abs(mono - target)) / scale < 1e-8


def test_close_pair_diagnostic():
    # (w - 1)^2 (w - 2) (w - 3): a genuine double root
    coeffs = np.poly([1.0, 1.0, 2.0, 3.0])
    rs = solve_quartic(QuarticCoeffs(*coeffs))
    assert rs.has_close_pair
    assert rs.min_separation < 1e-7
    assert len(rs.roots) == 4  # both near-equal roots reported, no deflation
    rs2 = solve_quartic(QuarticCoeffs(1, -10, 35, -50, 24))
    assert not rs2.has_close_pair


def test_real_invariants_classification():
    nat = real_quartic_invariants(1, 0, 0, 0, 1)  # x^4 + 1: no real roots
    assert nat.classification is RootNature.NOT_FOUR_REAL_DISTINCT
    nat = real_quartic_invariants(1, -10, 35, -50, 24)
    assert nat.classification is RootNature.FOUR_REAL_DISTINCT
    assert nat.delta > 0 and nat.p < 0 and nat.d < 0
    # double root at 1: delta vanishes
    nat = real_quartic_invariants(*np.poly([1.0, 1.0, 2.0, 3.0]))
    assert nat.classification is RootNature.DEGENERATE
    with pytest.raises(DegenerateLeadingCoefficient):
        real_quartic_invariants(0, 1, 1, 1, 1)


@pytest.mark.parametrize("k", [-500, -200, -100, 0, 1, 60, 100, 150, 300, 1000])
def test_real_invariants_of_coefficients_scaled_by_a_power_of_two(k):
    # delta, p and d are homogeneous in the coefficients, of degrees 6, 2 and
    # 4: coefficients scaled by 2^k keep the classification and scale each
    # value by 2^(degree*k) exactly, or give +-inf where that overflows, and
    # 0 or a subnormal where it underflows (delta from k = -200, d at -500)
    base = infinity_real_coeffs(2.0, 0.3)
    ref = real_quartic_invariants(*base)
    nat = real_quartic_invariants(*[math.ldexp(c, k) for c in base])
    assert nat.classification is ref.classification is RootNature.FOUR_REAL_DISTINCT
    for got, value, degree in ((nat.delta, ref.delta, 6), (nat.p, ref.p, 2), (nat.d, ref.d, 4)):
        fits = math.frexp(value)[1] + degree * k <= 1024
        assert got == (math.ldexp(value, degree * k) if fits else math.copysign(math.inf, value))


def test_delta_equals_resultant_discriminant():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b, c, d, e = rng.uniform(-2, 2, 5)
        if abs(a) < 0.1:
            continue
        delta = real_quartic_invariants(a, b, c, d, e).delta
        res = oracle_quartic_discriminant(a, b, c, d, e)
        assert abs(delta - res) <= 1e-9 * max(1.0, abs(delta))


def test_image_quartic_coefficients():
    # direct substitution; the z-coefficient carries 2r*cos(theta) + 1
    a, b, c, d, e = infinity_real_coeffs(2.0, math.pi / 2)
    assert (a, b, c, d, e) == pytest.approx((2.0, -2.0, -12.0, -2.0, 2.0), abs=1e-12)
    a, b, c, d, e = infinity_real_coeffs(2.0, 0.0)
    assert (a, b, c, d, e) == pytest.approx((0.0, 6.0, 0.0, -10.0, 0.0), abs=1e-12)
    with pytest.raises(InvalidObserver):
        infinity_real_coeffs(1.0, 0.3)


def test_image_quartic_palindromic_ends():
    rng = np.random.default_rng(17)
    for _ in range(100):
        r = float(rng.uniform(1.0001, 50.0))
        theta = float(rng.uniform(-math.pi, math.pi))
        a, b, c, d, e = infinity_real_coeffs(r, theta)
        assert a == e
        assert abs(c + 6.0 * a) < 1e-12 * max(1.0, abs(c))


def test_image_quartic_roots_are_mobius_images():
    # the defining property of the image polynomial, checked numerically
    for (r, theta) in [(2.0, math.pi / 4), (1.5, 1.2), (10.0, 0.3), (3.0, math.pi / 2)]:
        wk = np.roots([r * np.exp(-1j * theta), -1, 0, 1, -r * np.exp(1j * theta)])
        zk = np.sort((1j * (1 + wk) / (1 - wk)).real)
        zr = np.sort(np.roots(infinity_real_coeffs(r, theta)).real)
        assert np.max(np.abs(zk - zr)) < 1e-9


def test_image_quartic_four_real_distinct_sampled():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        r = float(1.0 + 99.0 * rng.random())
        theta = float(rng.uniform(1e-9, math.pi / 2))
        nat = real_quartic_invariants(*infinity_real_coeffs(r, theta))
        assert nat.classification is RootNature.FOUR_REAL_DISTINCT
