"""Fixtures shared by the test modules."""

import cmath
import math
import random

import pytest


def textbook_invariants(a, b, c, d, e):
    """(delta, P, D) of a*x^4 + b*x^3 + c*x^2 + d*x + e, with delta the
    discriminant in its expanded textbook form, in the coefficients' own
    arithmetic: exact on Fractions, to working precision on mpmath numbers.
    quartic.real_quartic_invariants evaluates delta in the I/J form instead,
    so this reference shares no formula for it with the code under test."""
    delta = (
        256 * e ** 3 * a ** 3
        + (-192 * e * e * d * b - 128 * e * e * c * c + 144 * e * d * d * c - 27 * d ** 4) * a * a
        + (
            (144 * e * e * c - 6 * e * d * d) * b * b
            + (-80 * e * d * c * c + 18 * d ** 3 * c) * b
            + 16 * e * c ** 4
            - 4 * d * d * c ** 3
        ) * a
        - 27 * e * e * b ** 4
        + (18 * e * d * c - 4 * d ** 3) * b ** 3
        + (-4 * e * c ** 3 + d * d * c * c) * b * b
    )
    p = 8 * a * c - 3 * b * b
    dd = 64 * a ** 3 * e - 16 * a * a * c * c + 16 * a * b * b * c - 16 * a * a * d * b - 3 * b ** 4
    return delta, p, dd

# the six interior pair families of the benchmark (bench/families.py), drawn
# here the same way so that the tests need not import the benchmark
INTERIOR_FAMILIES = ("uniform", "near_rim", "near_origin", "near_coincident", "near_coincident_origin", "symmetric")


def _polar(r, phi):
    return r * cmath.exp(1j * phi)


def _angle(rng):
    return rng.uniform(-math.pi, math.pi)


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


def _in_disk(rng, rmin=0.0):
    # area-uniform in the annulus rmin <= |z| < 1
    while True:
        r = math.sqrt(rng.uniform(rmin * rmin, 1.0))
        if r < 1.0:
            return _polar(r, _angle(rng))


def _draw(rng, family, k):
    if family == "uniform":
        return _in_disk(rng), _in_disk(rng)
    if family == "near_rim":
        z1 = _polar(1.0 - _log_uniform(rng, -12.0, -1.0), _angle(rng))
        z2 = _polar(1.0 - _log_uniform(rng, -12.0, -1.0), _angle(rng)) if k % 2 else _in_disk(rng)
        return z1, z2
    if family == "near_origin":
        # every fourth pair has a point exactly at the origin: the degree drops
        z1 = 0j if k % 4 == 0 else _polar(_log_uniform(rng, -12.0, -1.0), _angle(rng))
        z2 = _in_disk(rng, rmin=0.1)
        return (z2, z1) if k % 2 else (z1, z2)
    if family == "near_coincident":
        z1 = _in_disk(rng, rmin=1e-2)
        return z1, z1 + _polar(_log_uniform(rng, -12.0, -3.0), _angle(rng))
    if family == "near_coincident_origin":
        z1 = _polar(_log_uniform(rng, -3.0, -2.0), _angle(rng))
        return z1, z1 + _polar(abs(z1) * _log_uniform(rng, -6.0, -1.0), _angle(rng))
    # symmetric: diametral and mirror-image pairs, whose focal sums tie
    z = _in_disk(rng, rmin=1e-3)
    return z, (-z, z.conjugate(), -z.conjugate())[k % 3]


@pytest.fixture
def interior_family_pairs():
    """pairs(seed, n): (family, z1, z2) for n seeded pairs of each interior
    family, each pair in the open disk and at least 1e-12 apart."""

    def pairs(seed, n):
        out = []
        for family in INTERIOR_FAMILIES:
            rng = random.Random(f"{family}-{seed}")
            k = 0
            while k < n:
                z1, z2 = _draw(rng, family, k)
                if abs(z1) < 1.0 and abs(z2) < 1.0 and abs(z1 - z2) >= 1e-12:
                    out.append((family, z1, z2))
                    k += 1
        return out

    return pairs
