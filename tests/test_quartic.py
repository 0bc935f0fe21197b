"""Quartic solving, root classification, and the image-quartic coefficients.

The independent root oracles used here are numpy's companion-matrix solver
and, for quartics whose roots spread over orders of magnitude, mpmath's
polyroots at 50 digits.
"""

import cmath
import math
import random
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from catoptrix import (
    ObserverPolar,
    QuarticCoeffs,
    RootNature,
    RootSet,
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
from conftest import textbook_invariants


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
    with pytest.raises(ValueError, match="degree 5 not supported"):
        polished_roots((1, 0, 0, 0, 0, 1))


def test_polished_roots_takes_degree_one():
    # the lowest degree it accepts: 2w - 1 has the one root 0.5
    assert polished_roots((2.0, -1.0)).roots == (0.5 + 0j,)


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


def test_polish_steps_down_to_a_derivative_of_1e_290():
    # s*(w^4 - 1) from a start at 1.1, where |p'| = 5.3*s: at s = 1e-289 the
    # root steps and reaches 1, and at s = 1e-292 it cannot step
    from catoptrix import quartic

    starts = [1.1 + 0j, 1j, -1 + 0j, -1j]
    roots, _, iterations = quartic._polish((1e-289 + 0j, 0j, 0j, 0j, -1e-289 + 0j), starts, 1e-299)
    assert abs(roots[0] - 1.0) <= 1e-15 and iterations[0] == 1
    with pytest.raises(NoConvergence, match=re.escape("stalled at residual 4.641e-293")):
        quartic._polish((1e-292 + 0j, 0j, 0j, 0j, -1e-292 + 0j), starts, 1e-302)


@pytest.mark.parametrize(
    "name,args,message",
    [
        # p'(0) = 0 at a start above its bound: that root cannot step
        ("_polish", ((1 + 0j, 0j, 0j, 0j, -1 + 0j), [0j, 1 + 0j, 1j, -1 + 0j], 1e-10),
         "residual 1.000e+00 (bound 1.000e-10)"),
        # p(1e3) overflows to inf under a finite bound, 1e290*(1e3)^4: the
        # start raises at that evaluation
        ("_polish", ((1e300 + 0j, 0j, 0j, 0j, -1 + 0j), [1e3 + 0j, 1j, -1 + 0j, -1j], 1e290),
         "residual inf (bound 1.000e+302)"),
        # one root still above its bound after the 50th step
        ("polished_roots", ((
            -3.6482513417253646e+55 - 2.8304627597536388e-136j, 1.7612664010399393e+65 + 3.884550704505777e-105j,
            1.9513873572770606e-144 + 1.2811478205133073e-131j, -2.68069143762841e+55 - 3.9093246808235286e-90j),),
         "residual 3.272e+55 (bound 1.761e+55)"),
        # two roots above their bounds after the 50th step: the lower index raises
        ("polished_roots", ((
            1.0751259593156582e-136 - 1.503275438612133e+128j, 5.119964968717576e+132 + 1.5327735270738273e-20j,
            -2.463568080582824e-112 + 760.2909829176144j, 6.825919653765659e+43 + 1.4207447922107872e-15j,
            4.605099138816744e-44 + 5.879658496064775e+123j),),
         "residual 5.878e+123 (bound 5.120e+122)"),
    ],
    ids=["derivative-stall", "overflowing-residual", "step-cap", "two-at-the-cap"],
)
def test_a_root_that_cannot_step_raises_with_its_residual_and_bound(name, args, message):
    from catoptrix import quartic

    with pytest.raises(NoConvergence, match=re.escape(f"root polishing stalled at {message}")):
        getattr(quartic, name)(*args)


def test_zero_trailing_coefficients_give_exact_zero_roots():
    # w^4 + 1e5*w^3 and w^4 + 1e5*w^2: the polygon starts below its lowest
    # nonzero coefficient at exactly 0, which p(0) = 0 accepts as it is
    cases = [((1, 1e5, 0, 0, 0), [-1e5]), ((1, 0, 1e5, 0, 0), [-316.22776601683796j, 316.22776601683796j])]
    for coeffs, nonzero in cases:
        for rs in (solve_quartic(QuarticCoeffs(*coeffs)), polished_roots(coeffs)):
            assert [w for w in rs.roots if w == 0] == [0j] * (4 - len(nonzero))
            _match_multisets([w for w in rs.roots if w != 0], nonzero, 1e-9)


def test_pure_powers_give_exact_zero_roots():
    # w^3 and w^2: Cardano's cube root of 0 and its u == 0 roots, and the
    # quadratic whose q is 0; p(0) = 0 accepts each as it is
    for coeffs in ((1, 0, 0, 0), (1, 0, 0)):
        rs = polished_roots(coeffs)
        n = len(coeffs) - 1
        assert rs.roots == (0j,) * n and rs.residuals == (0.0,) * n and rs.polish_iterations == (0,) * n


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


def test_a_quartic_with_a_small_odd_term_keeps_its_digits():
    # the depressed quartic's odd term is 7.8e-14 of its scale here, above
    # the 1e-14 at which Ferrari drops it: the resolvent cubic keeps it, and
    # every residual is within 2e-16 of max|c|. Dropped, the starts already
    # pass the polish bound with residuals about 300 times larger
    c = (4113.909045444745 - 4195.490403449601j, -0.5028335610446475 + 0j, 0j, 0j,
         404.00272437724976 - 1325.2400486229114j)
    rs = solve_quartic(QuarticCoeffs(*c))
    assert max(rs.residuals) <= 1e-14 * max(abs(x) for x in c)


def test_a_quartic_with_a_negligible_odd_term_is_pinned_bit_for_bit():
    # the depressed quartic's odd term is 1.3e-15 of its scale here, below
    # the 1e-14 at which Ferrari drops it, and the biquadratic roots pass
    # the polish bound as they start: the roots as "Re Im" float.hex
    c = (3.7270090672767675 + 11.720181423996609j, -0.00020421926805750144 - 0.0001862006624769173j, 0j, 0j,
         -13.252307914823552 + 0j)
    rs = solve_quartic(QuarticCoeffs(*c))
    assert [f"{w.real.hex()} {w.imag.hex()}" for w in rs.roots] == [
        "-0x1.43f2c6e828453p-2 -0x1.efde07c4d06c8p-1",
        "0x1.efde4cc276bc3p-1 -0x1.43f4c9e9c2939p-2",
        "0x1.43f553e2ce0c5p-2 0x1.efdd4b419a05ep-1",
        "-0x1.efdd064523d8bp-1 0x1.43f350e355c65p-2",
    ]
    assert rs.polish_iterations == (0, 0, 0, 0)


def test_spread_takes_a_middle_point_strictly_above_the_band():
    # a middle coefficient exactly a factor 1e3 above the geometric
    # interpolation of |c4| and |c0| does not make the quartic spread; any
    # more does
    from catoptrix.quartic import _spread

    for k in (1, 2, 3):
        mods = [1.0, 0.0, 0.0, 0.0, 1.0]
        mods[k] = 1e3
        assert not _spread(*mods)
        mods[k] = 1.000001e3
        assert _spread(*mods)


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
    # a pair is close strictly below a separation of 1e-7
    for sep, close in ((1e-6, False), (1e-7, False), (1e-8, True)):
        assert RootSet((0j, complex(sep, 0.0)), (0.0, 0.0), (0, 0), sep).has_close_pair is close


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
    # a tiny but nonzero leading coefficient never raises: the exact
    # invariants are dominated by delta ~ -27*b^4*e^2, P = -3*b^2 and
    # D ~ -3*b^4, all far past the largest float, and delta < 0 gives two
    # real and two non-real roots
    nat = real_quartic_invariants(1e-300, 1e300, 0, 0, 1)
    assert (nat.delta, nat.p, nat.d) == (-math.inf, -math.inf, -math.inf)
    assert nat.classification is RootNature.NOT_FOUR_REAL_DISTINCT
    # delta underflows: each value is the exact one rounded once, and the
    # class is that of the exact invariants, delta = 256*0.75^3*e^3 > 0 and
    # P = 0: four distinct non-real roots
    nat = real_quartic_invariants(0.75, 0.0, 0.0, 0.0, 1e-300)
    assert (nat.delta, nat.p, nat.d) == (0.0, 0.0, 64.0 * 0.75 ** 3 * 1e-300)
    assert nat.classification is RootNature.NOT_FOUR_REAL_DISTINCT


def _image_quartic_over_r(r, theta):
    s, c = math.sin(theta), math.cos(theta)
    return s, 2 * (2 * c - 1 / r), -6 * s, -2 * (2 * c + 1 / r), s


_SPREAD_PAST_1E51 = (
    -1416305829088414.8, -4.1236013537161915e-185, 3.6599049447530384e182, 7.175298981565731e126,
    7.506250638885653e-13,
)


@pytest.mark.parametrize(
    "coeffs,values",
    [
        # spread past 1e51: delta overflows, and the exact D is about
        # -4.3e396; the exact signs are delta > 0, P < 0 and D < 0, and the
        # 600-digit roots +-5.08e83, -1.96e-56 and -1.05e-139 are four
        # distinct reals
        (_SPREAD_PAST_1E51, (math.inf, -4.1468357657305927e198, -math.inf)),
        # the image quartic divided by r, an ulp from the rim near a quarter
        # turn: its float delta rounds to 0.0, where verify_circle_theorem
        # proves four real roots (tests/test_infinity.py); the exact delta of
        # the float coefficients is about 2.96e-12
        (
            _image_quartic_over_r(1.0000000000000002, 1.5707963079004843),
            (2.963827919737452e-12, -59.9999990930682, -1007.9999637227282),
        ),
    ],
    ids=["spread-past-1e51", "image-quartic-at-the-rim"],
)
def test_real_invariants_out_of_the_normal_range_classify_by_their_exact_signs(coeffs, values):
    # each value is the exact invariant of the same float coefficients
    # rounded once, and the class is that of the exact signs
    nat = real_quartic_invariants(*coeffs)
    assert (nat.delta, nat.p, nat.d) == values
    assert nat.classification is RootNature.FOUR_REAL_DISTINCT


# the least rational that rounds to +inf: the largest float plus half its ulp
_PAST_MAX = Fraction(sys.float_info.max) + Fraction(math.ulp(sys.float_info.max)) / 2


def _is_nearest_float(v, x):
    """Whether the float v is a nearest float to the rational x: +-inf from
    _PAST_MAX on, else no neighbour of v is closer to x."""
    if math.isinf(v):
        return x >= _PAST_MAX if v > 0 else x <= -_PAST_MAX
    err = abs(Fraction(v) - x)
    neighbours = (math.nextafter(v, -math.inf), math.nextafter(v, math.inf))
    return abs(x) < _PAST_MAX and all(math.isinf(n) or abs(Fraction(n) - x) >= err for n in neighbours)


@pytest.mark.parametrize("k", [-500, -200, -100, 0, 1, 60, 100, 150, 300, 1000])
def test_real_invariants_of_coefficients_scaled_by_a_power_of_two(k):
    # delta, p and d are homogeneous in the coefficients, of degrees 6, 2 and
    # 4: coefficients scaled by 2^k keep the classification. Where all three
    # scaled values stay normal, each is the base value scaled by
    # 2^(degree*k) bit for bit. Elsewhere (k = -500, -200, 300 and 1000) each
    # is the base's exact invariant times 2^(degree*k) rounded once: +-inf
    # past the largest float, 0 or a subnormal below the normal range
    base = infinity_real_coeffs(2.0, 0.3)
    ref = real_quartic_invariants(*base)
    nat = real_quartic_invariants(*[math.ldexp(c, k) for c in base])
    assert nat.classification is ref.classification is RootNature.FOUR_REAL_DISTINCT
    got = (nat.delta, nat.p, nat.d)
    scaled = [(v, g * k) for v, g in zip((ref.delta, ref.p, ref.d), (6, 2, 4))]
    if all(-1021 <= math.frexp(v)[1] + n <= 1024 for v, n in scaled):
        assert got == tuple(math.ldexp(v, n) for v, n in scaled)
    else:
        exact = textbook_invariants(*map(Fraction, base))
        for v, x, (_, n) in zip(got, exact, scaled):
            assert _is_nearest_float(v, x * Fraction(2) ** n), (v, x, n)


def test_real_invariants_match_the_exact_ones_on_wide_coefficients():
    # coefficients +-10^U(-300, 300) and the named cases above: no set
    # raises, the class is the sign class of the exact invariants, and
    # every value is the exact one rounded once, in the normal range too
    rng = random.Random(34)
    sets = [tuple(rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-300, 300) for _ in range(5)) for _ in range(300)]
    base = infinity_real_coeffs(2.0, 0.3)
    sets += [(1e-300, 1e300, 0.0, 0.0, 1.0), (0.75, 0.0, 0.0, 0.0, 1e-300), _SPREAD_PAST_1E51]
    sets += [_image_quartic_over_r(1.0000000000000002, 1.5707963079004843)]
    sets += [tuple(math.ldexp(c, k) for c in base) for k in (-500, -200, 300, 1000)]
    for coeffs in sets:
        nat = real_quartic_invariants(*coeffs)
        got = (nat.delta, nat.p, nat.d)
        exact = textbook_invariants(*map(Fraction, coeffs))
        delta, p, d = exact
        sign_class = (
            RootNature.DEGENERATE if delta == 0
            else RootNature.FOUR_REAL_DISTINCT if delta > 0 and p < 0 and d < 0
            else RootNature.NOT_FOUR_REAL_DISTINCT
        )
        assert nat.classification is sign_class, coeffs
        for v, x in zip(got, exact):
            assert _is_nearest_float(v, x), (coeffs, v)


def test_real_invariants_whose_float_terms_cancel_classify_by_their_exact_signs():
    # the image quartic divided by r, an ulp from the rim near a quarter
    # turn: all three invariants are normal, but a float evaluation of delta
    # cancels to about -4.5e-13, the wrong sign. The exact delta of these
    # float coefficients is about +2.72e-12, and verify_circle_theorem
    # proves four real roots there
    nat = real_quartic_invariants(*_image_quartic_over_r(1.0000000000000002, 1.570796308135573))
    assert (nat.delta, nat.p, nat.d) == (2.719738773537748e-12, -59.99999910435245, -1007.9999641740983)
    assert nat.classification is RootNature.FOUR_REAL_DISTINCT


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


@pytest.mark.parametrize("theta", [0.5, 0.0, -3.0])
def test_image_quartic_coefficients_past_float64_raise_naming_the_observer(theta):
    # past r of about 3.0e307, -6*r overflows: the c coefficient is inf or
    # NaN for every theta, and the call raises rather than return it
    assert all(math.isfinite(c) for c in infinity_real_coeffs(2.99e307, theta))
    with pytest.raises(NonFinitePoint, match=rf"^observer r=1e\+308, theta={re.escape(repr(theta))}: "):
        infinity_real_coeffs(1e308, theta)


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


def _unread_solves(interior_family_pairs):
    """(label, solve) pairs whose solve returns a fresh RootSet on each call:
    seeded reflection quartics of the six interior families, the
    degree-dropped cubic of a point at the origin, and plane-wave all_roots."""
    from catoptrix import infinity_reflection, interior_quartic_coeffs

    out = []
    for family, z1, z2 in interior_family_pairs(1, 12):
        q = interior_quartic_coeffs(z1, z2)
        if q.c4 == 0:
            out.append((f"dropped {z1!r} {z2!r}", lambda q=q: polished_roots((q.c3, q.c2, q.c1, q.c0))))
        else:
            out.append((f"{family} {z1!r} {z2!r}", lambda q=q: solve_quartic(q)))
    rng = random.Random(31)
    for _ in range(8):
        # a lit observer, |theta| < pi/2, always has an answer
        obs = ObserverPolar(1.0 + 10.0 ** rng.uniform(-6.0, 2.0), rng.uniform(-1.5, 1.5))
        out.append((f"plane wave {obs!r}", lambda obs=obs: infinity_reflection(obs).all_roots))
    return out


def test_a_root_set_filled_on_first_read_is_the_eager_one(interior_family_pairs):
    import copy
    import pickle

    from catoptrix import RootSet

    solves = _unread_solves(interior_family_pairs)
    assert sum(label.startswith("dropped") for label, _ in solves) >= 3
    for label, solve in solves:
        lazy = solve()
        assert "roots" not in vars(lazy), label
        polished = list(zip(*vars(lazy)["_polished"]))
        assert [t[0] for t in polished] == list(lazy._any_order)
        # the first read sorts the polish order by phase, then modulus (a
        # stable sort, as the index key is), each root with its residual and
        # step count, and finds the least distance between two roots
        roots = lazy.roots
        assert list(zip(roots, lazy.residuals, lazy.polish_iterations)) == sorted(
            polished, key=lambda t: (cmath.phase(t[0]), abs(t[0]))
        ), label
        assert lazy.min_separation == min(abs(a - b) for k, a in enumerate(roots) for b in roots[k + 1:]), label
        eager = RootSet(roots, lazy.residuals, lazy.polish_iterations, lazy.min_separation)
        assert lazy == eager and hash(lazy) == hash(eager) and vars(lazy) == vars(eager), label
        assert lazy._any_order == roots
        text = repr(eager)
        # each of these, taken from a set no field of which has been read,
        # gives the same fields
        assert repr(solve()) == text, label
        assert solve().has_close_pair == eager.has_close_pair, label
        for clone in [copy.copy(solve()), copy.deepcopy(solve())] + [
            pickle.loads(pickle.dumps(solve(), protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]:
            assert type(clone) is RootSet and "roots" not in vars(clone), label
            assert repr(clone) == text and clone == eager and hash(clone) == hash(eager), label
    # no other name reads as a field, read or unread
    with pytest.raises(AttributeError):
        solve().extra
    with pytest.raises(AttributeError):
        eager.extra
