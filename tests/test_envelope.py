"""Tangent lines, directrices, and the limacon envelope."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from catoptrix import (
    LineCoeffs,
    directrix,
    e1_isolated_point,
    envelope_implicit,
    envelope_param,
    limacon_residual,
    mirror_point,
    point_line_distance,
    tangency_point,
    tangent_line,
    valid_arc,
)
from catoptrix.errors import InvalidFocus, NonFinitePoint, NotOnCircle
from catoptrix.numeric import unit_from_angle

FOCI = [1.5, 2.0, 3.0, 10.0]


def _random_units(rng, n):
    return [unit_from_angle(float(p)) for p in rng.uniform(-math.pi, math.pi, n)]


def test_tangent_line_hand_values():
    line = tangent_line(1 + 0j)
    assert line.real_form() == pytest.approx((1.0, 0.0, -1.0), abs=1e-15)  # Re z = 1
    line = tangent_line(1j)
    assert line.real_form() == pytest.approx((0.0, 1.0, -1.0), abs=1e-15)  # Im z = 1


def test_tangent_line_vanishes_at_contact():
    rng = np.random.default_rng(79)
    for w in _random_units(rng, 1000):
        assert abs(tangent_line(w)(w)) < 1e-14


def test_tangent_line_rejects_off_circle():
    with pytest.raises(NotOnCircle):
        tangent_line(0.5 + 0j)


def test_mirror_point_hand_values():
    assert mirror_point(2.0, 1 + 0j) == 0j
    assert abs(mirror_point(2.0, 1j) - (2 + 2j)) < 1e-15
    # a real w is a point of the plane too: the result is complex
    assert type(mirror_point(3.0, -1)) is complex and mirror_point(3.0, -1) == -5 + 0j


def test_mirror_point_is_reflection_across_tangent():
    rng = np.random.default_rng(83)
    for _ in range(1000):
        a = float(rng.uniform(1.001, 10.0))
        w = unit_from_angle(float(rng.uniform(-math.pi, math.pi)))
        ast = mirror_point(a, w)
        line = tangent_line(w)
        mid = (a + ast) / 2.0
        assert abs(line(mid)) < 1e-10  # midpoint on the tangent
        # a - a* is parallel to the line's normal direction w
        cross = (a - ast) / w
        assert abs(cross.imag) < 1e-10


def test_directrix_hand_values():
    # a=2, w=1: the directrix is the imaginary axis
    line = directrix(2.0, 1 + 0j)
    assert line.real_form() == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    # a=2, w=i: 2x + y = 6
    line = directrix(2.0, 1j)
    assert line.real_form() == pytest.approx((1.0, 0.5, -3.0), abs=1e-12)


def test_directrix_focus_distance_property():
    rng = np.random.default_rng(89)
    for _ in range(1000):
        a = float(rng.uniform(1.001, 10.0))
        w = unit_from_angle(float(rng.uniform(-math.pi, math.pi)))
        line = directrix(a, w)
        assert abs(point_line_distance(w, line) - abs(w - a)) < 1e-9


def test_directrix_rejects_bad_inputs():
    with pytest.raises(InvalidFocus):
        directrix(1.0, 1j)
    with pytest.raises(NotOnCircle):
        directrix(2.0, 0.5 + 0j)


@pytest.mark.parametrize(
    "fn, args",
    [
        (directrix, (1j,)),
        (envelope_implicit, (0.5j,)),
        (envelope_param, (0.3,)),
        (tangency_point, (1j,)),
        (limacon_residual, (0.5, 0.5)),
        (e1_isolated_point, ()),
        (valid_arc, ()),
    ],
    ids=["directrix", "envelope_implicit", "envelope_param", "tangency_point", "limacon_residual",
         "e1_isolated_point", "valid_arc"],
)
def test_every_focus_function_rejects_a_focus_on_the_circle(fn, args):
    # the focus lies outside the mirror, a > 1: a = 1 is rejected too
    with pytest.raises(InvalidFocus):
        fn(1.0, *args)


def test_envelope_implicit_hand_values():
    assert envelope_implicit(2.0, 0j) == 0.0
    assert envelope_implicit(2.0, -4 + 0j) == 0.0


def test_envelope_param_hand_values():
    assert envelope_param(2.0, 0.0) == 0j
    assert abs(envelope_param(2.0, math.pi) - (-4 + 0j)) < 1e-14
    assert abs(envelope_param(2.0, math.pi / 2) - (2 + 2j)) < 1e-14


def test_parametric_point_on_implicit_curve():
    z = envelope_param(3.0, 1.0)
    assert abs(envelope_implicit(3.0, z)) < 1e-9


def test_envelope_closure_sampled():
    rng = np.random.default_rng(97)
    for a in FOCI:
        for theta in rng.uniform(-math.pi, math.pi, 2500):
            z = envelope_param(a, float(theta))
            assert abs(envelope_implicit(a, z)) < 1e-9 * max(1.0, abs(z) ** 4)


def test_tangency_point_hand_values():
    assert tangency_point(2.0, 1 + 0j) == 0j
    tp = tangency_point(2.0, 1j)
    assert abs(tp - (2 + 2j)) < 1e-14
    # lies on the directrix 2x + y = 6
    assert abs(2 * tp.real + tp.imag - 6.0) < 1e-12


def test_tangency_point_on_line_and_curve():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        a = float(rng.uniform(1.001, 10.0))
        w = unit_from_angle(float(rng.uniform(-math.pi, math.pi)))
        tp = tangency_point(a, w)
        assert point_line_distance(tp, directrix(a, w)) < 1e-9
        assert abs(envelope_implicit(a, tp)) < 1e-9 * max(1.0, abs(tp) ** 4)


def test_limacon_hand_values():
    assert limacon_residual(2.0, 0.0, 0.0) == 0.0
    assert limacon_residual(2.0, -4.0, 0.0) == 0.0


def test_residuals_past_float64_raise_non_finite_point():
    # a^4 in the implicit form, and the outer square in the limacon form,
    # overflow float64 for these foci
    with pytest.raises(NonFinitePoint, match="overflows float64"):
        envelope_implicit(2e77, envelope_param(2e77, 0.5))
    with pytest.raises(NonFinitePoint, match="overflows float64"):
        limacon_residual(1e100, 1.0, 0.0)
    # a point too far out for its squared modulus to fit
    with pytest.raises(NonFinitePoint, match="overflows float64"):
        envelope_implicit(2.0, 1e200 + 0j)


def test_limacon_identity_with_implicit_form():
    rng = np.random.default_rng(103)
    for a in FOCI:
        lo, hi = -a - 3.0, a + 3.0
        for _ in range(500):
            x = float(rng.uniform(lo, hi))
            y = float(rng.uniform(lo, hi))
            z = complex(x, y)
            tol = 1e-9 * max(1.0, abs(z) ** 4)
            assert abs(limacon_residual(a, x, y) - envelope_implicit(a, z)) < tol


def test_e1_isolated_point():
    p = e1_isolated_point(2.0)
    assert abs(p - complex(6.0 / 11.0, 0.0)) < 1e-15
    p = e1_isolated_point(3.0)
    assert abs(p - complex(27.0 / 73.0, 0.0)) < 1e-15


def test_e1_branch_is_positive_off_point():
    def e1(a, x, y):
        return (a * a - 1.0) * ((8 * a * a + 1) * x - 9 * a) ** 2 + (4 * a * a - 1.0) ** 3 * y * y

    rng = np.random.default_rng(107)
    for a in FOCI:
        p = e1_isolated_point(a)
        assert e1(a, p.real, p.imag) < 1e-18
        for _ in range(100):
            dx, dy = rng.uniform(-1, 1, 2)
            if abs(dx) + abs(dy) < 1e-3:
                continue
            assert e1(a, p.real + dx, p.imag + dy) > 0.0


def test_valid_arc_values():
    assert abs(valid_arc(math.sqrt(2.0)) - math.pi / 4) < 1e-15
    assert valid_arc(1.0 + 1e-9) < 1e-4  # closes as a -> 1+
    assert valid_arc(1e9) > math.pi / 2 - 1e-4  # opens to a quarter turn
    with pytest.raises(InvalidFocus):
        valid_arc(0.9)


@pytest.mark.parametrize("a", [1 + 1e-8, 1e8])
def test_valid_arc_keeps_its_digits(a):
    with mpmath.workdps(50):
        exact = float(mpmath.acos(1 / mpmath.mpf(a)))
    assert abs(valid_arc(a) - exact) <= 4 * math.ulp(exact)


def test_inner_loop_double_point():
    # the parametric curve self-intersects at +-theta* with cos(theta*) = 1/a,
    # which is exactly the reachable-arc bound
    for a in FOCI:
        lo, hi = 1e-9, math.pi / 2
        for _ in range(200):  # bisection on Im z(theta) = 0 (theta > 0 branch)
            mid = 0.5 * (lo + hi)
            if 1.0 - a * math.cos(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        theta_star = 0.5 * (lo + hi)
        assert abs(envelope_param(a, theta_star) - envelope_param(a, -theta_star)) < 1e-9
        assert theta_star <= valid_arc(a) + 1e-6
        assert abs(theta_star - valid_arc(a)) < 1e-6


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_line_coeffs_hold_a_real_line_to_1e_9(scale):
    # the constructor holds |beta| to |alpha| within 1e-9*max(1, |alpha|);
    # normalized() holds beta to conj(alpha) within 1e-9*|alpha|, the tighter
    # for |alpha| < 1, and Im gamma to 0 within 1e-9*max(1, |gamma|). An
    # offset of 1e-11 of the scale passes each check, and one of 1e-7 fails it
    u = cmath.exp(0.4j)
    m = max(1.0, scale)
    for passes, off in ((True, 1e-11), (False, 1e-7)):
        for make in (
            lambda: LineCoeffs(scale * u, (scale + off * m) * u.conjugate(), 0j),
            lambda: LineCoeffs(scale * u, scale * (1.0 + off) * u.conjugate(), 0j).normalized(),
            lambda: LineCoeffs(scale * u, scale * u.conjugate(), complex(scale, off * m)).normalized(),
        ):
            if passes:
                make()
            else:
                with pytest.raises(ValueError, match="real line"):
                    make()


def test_line_coeffs_tolerance_bands_include_their_edges():
    # an offset of exactly 1e-9 of the scale passes each check: |beta| - |alpha|
    # at |alpha| = 1e-9, beta - conj(alpha) = 2^-10 = 1e-9*|alpha| at
    # alpha = 976562.5, and Im gamma at |gamma| = 0.5
    LineCoeffs(1e-9, 2e-9, 0j)
    LineCoeffs(976562.5, 976562.5 + 2.0 ** -10, 0j).normalized()
    LineCoeffs(1.0, 1.0, 0.5 + 1e-9j).normalized()


def test_line_coeffs_validation_and_normalization():
    with pytest.raises(ValueError):
        LineCoeffs(alpha=1.0 + 0j, beta=2.0 + 0j, gamma=0j)  # |beta| != |alpha|
    with pytest.raises(ValueError):
        LineCoeffs(alpha=0j, beta=0j, gamma=1.0 + 0j)
    line = directrix(3.0, unit_from_angle(0.7))
    norm = line.normalized()
    assert abs(norm.beta - norm.alpha.conjugate()) < 1e-12
    assert norm.gamma.imag == 0.0
    # normalization preserves the zero set
    z = tangency_point(3.0, unit_from_angle(0.7))
    assert abs(norm(z)) < 1e-9
    # |beta| = |alpha|, but gamma is not real in the normalized form
    with pytest.raises(ValueError, match="do not describe a real line"):
        LineCoeffs(1 + 0j, 1 + 0j, 1j).normalized()
    # the first significant of (A, B) comes out negative and is flipped
    assert LineCoeffs(-1 + 0.1j, -1 - 0.1j, 0.5).real_form() == (1.0, 0.1, -0.25)
    # an A of at most 1e-15 of max(|A|, |B|) is not significant, so B's sign
    # decides; a larger A's own sign does
    for a, b, flipped in ((1e-16, -1.0, True), (1e-15, -1.0, True), (1e-13, -1.0, False),
                          (-1e-16, 1.0, False), (-1e-15, 1.0, False), (-1e-13, 1.0, True)):
        form = (-a, -b, -0.5) if flipped else (a, b, 0.5)
        assert LineCoeffs(complex(a / 2, -b / 2), complex(a / 2, b / 2), 0.5).real_form() == form
