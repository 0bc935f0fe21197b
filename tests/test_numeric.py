"""Tolerances, unit-circle predicates, and segment geometry."""

import cmath
import math

import numpy as np
import pytest

from catoptrix import DEFAULT_TOLERANCES, on_unit_circle, unit_from_angle
from catoptrix.errors import NonFinitePoint
from catoptrix.numeric import (
    VISIBILITY_SLACK,
    ensure_point,
    segment_clears_disk,
    segment_min_distance_to_origin,
    wrap_angle,
)


def test_on_unit_circle_basic():
    assert on_unit_circle(1j)
    assert not on_unit_circle(0.5 + 0j)
    assert on_unit_circle(complex(1 + 5e-10, 0))


def test_on_unit_circle_respects_tolerance():
    # the band is the fixed 1e-9 on either side of the circle, in any direction
    for phi in (0.0, 0.7, -2.5):
        u = unit_from_angle(phi)
        for delta in (0.99e-9, -0.99e-9):
            assert on_unit_circle((1.0 + delta) * u)
        for delta in (1.01e-9, -1.01e-9, 5e-7):
            assert not on_unit_circle((1.0 + delta) * u)


@pytest.mark.parametrize(
    "phi,expected",
    [(0.0, 1 + 0j), (math.pi / 2, 1j), (math.pi, -1 + 0j)],
)
def test_unit_from_angle_cardinal(phi, expected):
    w = unit_from_angle(phi)
    assert abs(w - expected) < 1e-15


def test_unit_from_angle_always_on_circle():
    rng = np.random.default_rng(42)
    for phi in rng.uniform(-math.pi, math.pi, 100_000):
        assert on_unit_circle(unit_from_angle(float(phi)))


def test_tolerances_must_be_positive():
    assert DEFAULT_TOLERANCES.unit_circle_tol == 1e-9
    assert DEFAULT_TOLERANCES.residual_tol == 1e-10
    assert DEFAULT_TOLERANCES.oracle_agreement_tol == 1e-6


def test_non_finite_points_rejected():
    with pytest.raises(NonFinitePoint):
        ensure_point(complex(float("nan"), 0.0))
    with pytest.raises(NonFinitePoint):
        ensure_point(complex(0.0, float("inf")))
    for bad in (
        complex(float("inf"), 0.0),
        complex(0.0, float("-inf")),
        complex(float("nan"), 0.0),
        complex(1.0, float("nan")),
        np.complex128(complex(float("nan"), 1.0)),
        float("inf"),
    ):
        with pytest.raises(NonFinitePoint):
            on_unit_circle(bad)


@pytest.mark.parametrize(
    "value,expected",
    [
        (1, True),
        (0, False),
        (-1.0, True),
        (0.5, False),
        (np.int64(-1), True),
        (np.float64(2.0), False),
        (np.complex128(1j), True),
        (np.complex128(0.5j), False),
    ],
)
def test_on_unit_circle_accepts_real_and_numpy_scalars(value, expected):
    assert on_unit_circle(value) is expected


def test_wrap_angle_principal_interval():
    assert wrap_angle(0.3) == 0.3
    assert abs(wrap_angle(math.tau + 0.3) - 0.3) < 1e-15
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(3 * math.pi) - math.pi) < 1e-15


def test_segment_distance_hand_cases():
    # chord from 2 to -2 passes through the origin
    assert segment_min_distance_to_origin(2 + 0j, -2 + 0j) == 0.0
    # vertical segment at x = 2
    assert abs(segment_min_distance_to_origin(2 - 1j, 2 + 1j) - 2.0) < 1e-15
    # foot of perpendicular outside the segment: closest endpoint wins
    assert abs(segment_min_distance_to_origin(2 + 1j, 3 + 1j) - abs(2 + 1j)) < 1e-15
    # degenerate segment
    assert segment_min_distance_to_origin(3 + 4j, 3 + 4j) == 5.0
    # a far segment leaving the circle outward: either order gives 1
    w = cmath.exp(0.25j * math.pi)
    assert abs(segment_min_distance_to_origin(w, 1e14 + 0j) - 1.0) < 1e-15
    assert abs(segment_min_distance_to_origin(1e14 + 0j, w) - 1.0) < 1e-15


def test_segment_distance_of_a_segment_too_long_to_square():
    # |d|^2 overflows past a length of about 1.3e154; the segment still
    # passes through the origin, from either end
    assert segment_min_distance_to_origin(-1 + 0j, 1e160 + 0j) == 0.0
    assert segment_min_distance_to_origin(1e160 + 0j, -1 + 0j) == 0.0
    assert not segment_clears_disk(-1 + 0j, 1e300 + 0j)


def test_segment_distance_when_both_squared_norms_overflow():
    # neither end compares nearer, the projection overflows to t = inf, and
    # the clamp at t = 1 gives the far end's modulus
    q = 1e199 + 1e199j
    assert segment_min_distance_to_origin(1e200 + 0j, q) == abs(q)


def test_segment_clears_disk():
    assert segment_clears_disk(2 + 0j, 1 + 0j)  # touches the circle at its endpoint
    assert not segment_clears_disk(2 + 0j, -1 + 0j)  # crosses the disk
    assert segment_clears_disk(2 + 2j, -2 + 2j)  # passes above
    # the slack is inclusive: a segment whose nearest point is exactly
    # 1 - VISIBILITY_SLACK from the origin clears the disk
    x = 1.0 - VISIBILITY_SLACK
    assert segment_min_distance_to_origin(complex(x, 5.0), complex(x, -5.0)) == x
    assert segment_clears_disk(complex(x, 5.0), complex(x, -5.0))
