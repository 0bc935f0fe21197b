"""Seeded instance families for the benchmark workloads.

Every family is an endless stream drawn from its own ``random.Random``,
seeded from (seed, workload, family), so the n-th instance of a family
depends only on the seed and never on how many instances of other families
a run has consumed. Workloads interleave families round-robin, which keeps
each family at a fixed share of the operations however long a run lasts.

An instance is ``(family, *params)``: ``(family, z1, z2)`` for a pair,
``(family, r, theta)`` for a plane-wave observer, ``(family, argv)`` for a
cli command.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Callable, Iterator

_COINCIDENT_EPS = 1e-14  # the library rejects closer pairs as CoincidentPoints


def _angle(rng: random.Random) -> float:
    return rng.uniform(-math.pi, math.pi)


def _polar(r: float, phi: float) -> complex:
    return r * cmath.exp(1j * phi)


def _in_disk(rng: random.Random, rmin: float = 0.0) -> complex:
    # area-uniform in the annulus rmin <= |z| < 1
    while True:
        r = math.sqrt(rng.uniform(rmin * rmin, 1.0))
        if r < 1.0:
            return _polar(r, _angle(rng))


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


# --- interior and exterior pairs -------------------------------------------


def _uniform(rng: random.Random, k: int) -> tuple[complex, complex]:
    return _in_disk(rng), _in_disk(rng)


def _near_rim(rng: random.Random, k: int) -> tuple[complex, complex]:
    z1 = _polar(1.0 - _log_uniform(rng, -12.0, -1.0), _angle(rng))
    if k % 2:
        z2 = _polar(1.0 - _log_uniform(rng, -12.0, -1.0), _angle(rng))
    else:
        z2 = _in_disk(rng)
    return z1, z2


def _near_origin(rng: random.Random, k: int) -> tuple[complex, complex]:
    # every fourth pair has a point exactly at the origin: the quartic term
    # vanishes and the library takes its degree-dropped path
    z1 = 0j if k % 4 == 0 else _polar(_log_uniform(rng, -12.0, -1.0), _angle(rng))
    z2 = _in_disk(rng, rmin=0.1)
    return (z2, z1) if k % 2 else (z1, z2)


def _near_coincident(rng: random.Random, k: int) -> tuple[complex, complex]:
    while True:
        z1 = _in_disk(rng, rmin=1e-2)
        z2 = z1 + _polar(_log_uniform(rng, -12.0, -3.0), _angle(rng))
        if abs(z2) < 1.0:  # the offset can carry a point near the rim outside
            return z1, z2


def _near_coincident_origin(rng: random.Random, k: int) -> tuple[complex, complex]:
    # |z| in [1e-3, 1e-2) with a relative separation of 1e-6 .. 1e-1: the
    # regime of the known NoRootOnCircle defect
    r = _log_uniform(rng, -3.0, -2.0)
    z1 = _polar(r, _angle(rng))
    z2 = z1 + _polar(r * _log_uniform(rng, -6.0, -1.0), _angle(rng))
    return z1, z2


def _symmetric(rng: random.Random, k: int) -> tuple[complex, complex]:
    # diametral and mirror-image pairs: their focal sums tie between roots
    while True:
        z = _in_disk(rng, rmin=1e-3)
        kind = k % 3
        if kind == 0:
            partner = -z
        elif kind == 1:
            partner = z.conjugate()
        else:
            partner = -z.conjugate()
        if abs(z - partner) >= 1e-6:
            return z, partner


def _exterior(rng: random.Random, k: int) -> tuple[complex, complex]:
    def point() -> complex:
        while True:
            r = 1.0 + 4.0 * rng.random()
            if 1.0 < r < 5.0:
                return _polar(r, _angle(rng))

    return point(), point()


# --- plane-wave observers --------------------------------------------------


def _radius(rng: random.Random) -> float:
    # r - 1 log-uniform in [1e-9, 999], so the r -> 1+ edge is covered
    return 1.0 + _log_uniform(rng, -9.0, math.log10(999.0))


def _sign(k: int) -> float:
    return 1.0 if k % 2 == 0 else -1.0


def _theta_uniform(rng: random.Random, k: int) -> tuple[float, float]:
    theta = rng.uniform(-math.pi, math.pi)
    return _radius(rng), (theta if theta > -math.pi else math.pi)


def _theta_axis(rng: random.Random, k: int) -> tuple[float, float]:
    return _radius(rng), (0.0 if k % 2 == 0 else math.pi)


def _theta_near_zero(rng: random.Random, k: int) -> tuple[float, float]:
    return _radius(rng), _sign(k) * _log_uniform(rng, -12.0, -1.0)


def _theta_near_half_pi(rng: random.Random, k: int) -> tuple[float, float]:
    offset = _sign(k // 2) * _log_uniform(rng, -12.0, -1.0)
    return _radius(rng), _sign(k) * (math.pi / 2.0 + offset)


def _theta_near_pi(rng: random.Random, k: int) -> tuple[float, float]:
    return _radius(rng), _sign(k) * (math.pi - _log_uniform(rng, -12.0, -1.0))


def _distinct(maker: Callable[[random.Random, int], tuple[complex, complex]]):
    def make(rng: random.Random, k: int) -> tuple[complex, complex]:
        while True:
            z1, z2 = maker(rng, k)
            if abs(z1 - z2) >= _COINCIDENT_EPS:
                return z1, z2

    return make


# --- crosscheck and cli inputs ---------------------------------------------


def _lit_observer(rng: random.Random, k: int) -> tuple[float, float]:
    # |theta| <= pi/2, the domain of the plane-wave oracle
    return _radius(rng), rng.uniform(-math.pi / 2.0, math.pi / 2.0)


def _image_quartic_observer(rng: random.Random, k: int) -> tuple[float, float]:
    # the image quartic degenerates at theta = 0 (mod pi)
    while True:
        theta = rng.uniform(-math.pi, math.pi)
        if math.sin(theta) != 0.0:
            return _radius(rng), theta


def _cli_point(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _cli_interior(rng: random.Random, k: int) -> tuple[list[str]]:
    z1, z2 = _distinct(_uniform)(rng, k)
    return (["interior", "--z1", _cli_point(z1), "--z2", _cli_point(z2)],)


def _cli_infinity(rng: random.Random, k: int) -> tuple[list[str]]:
    # lit side and off the axis, where --verify has an answer (exit code 0)
    r, theta = _image_quartic_observer(rng, k)
    theta = math.copysign(min(abs(theta), math.pi - abs(theta)), theta)
    return (["infinity", "--r", repr(r), "--theta", repr(theta), "--verify"],)


def _cli_envelope(rng: random.Random, k: int) -> tuple[list[str]]:
    return (["envelope", "--a", repr(1.0 + _log_uniform(rng, -3.0, 1.0)), "--samples", "720"],)


def _cli_directrix(rng: random.Random, k: int) -> tuple[list[str]]:
    a = 1.0 + _log_uniform(rng, -3.0, 1.0)
    return (["directrix", "--a", repr(a), "--phi", repr(_angle(rng))],)


Maker = Callable[[random.Random, int], tuple]

FAMILIES: dict[str, dict[str, Maker]] = {
    "interior": {
        "uniform": _distinct(_uniform),
        "near_rim": _distinct(_near_rim),
        "near_origin": _distinct(_near_origin),
        "near_coincident": _distinct(_near_coincident),
        "near_coincident_origin": _distinct(_near_coincident_origin),
        "symmetric": _distinct(_symmetric),
        "exterior": _distinct(_exterior),
    },
    "plane-wave": {
        "uniform": _theta_uniform,
        "axis": _theta_axis,
        "near_zero": _theta_near_zero,
        "near_half_pi": _theta_near_half_pi,
        "near_pi": _theta_near_pi,
    },
    "crosscheck": {
        "smetric": _distinct(_uniform),
        "infinity_path": _lit_observer,
        "discriminant": _image_quartic_observer,
    },
    "cli": {
        "interior": _cli_interior,
        "infinity": _cli_infinity,
        "envelope": _cli_envelope,
        "directrix": _cli_directrix,
    },
}


def family_stream(seed: int, workload: str, family: str) -> Iterator[tuple]:
    """Endless stream of one family's instances, ``(family, *params)``."""
    maker = FAMILIES[workload][family]
    rng = random.Random(f"{seed}:{workload}:{family}")
    k = 0
    while True:
        yield (family, *maker(rng, k))
        k += 1


def round_robin(seed: int, workload: str) -> Iterator[tuple]:
    """Endless round-robin over a workload's families, one instance each in turn."""
    streams = [family_stream(seed, workload, f) for f in FAMILIES[workload]]
    while True:
        for stream in streams:
            yield next(stream)
