"""Tangent lines, parabola directrices, and their limacon envelope.

For a fixed observer a > 1 on the real axis, each mirror point w carries the
directrix of the parabola tangent to the circle at w with focus a. As w runs
over the circle the directrices envelope a limacon of Pascal with an inner
teardrop loop; only the arc |arg w| <= asin(sqrt(a^2 - 1)/a) is reachable by
rays that do not pass through the mirror.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidFocus, NonFinitePoint, NotOnCircle
from .numeric import _Record, ensure_point, ensure_real, on_unit_circle

__all__ = [
    "LineCoeffs",
    "tangent_line",
    "mirror_point",
    "directrix",
    "envelope_implicit",
    "envelope_param",
    "tangency_point",
    "limacon_residual",
    "e1_isolated_point",
    "valid_arc",
    "point_line_distance",
]


class LineCoeffs(_Record):
    """A real line written as alpha*z + beta*conj(z) + gamma = 0.

    The stored coefficients may carry a common complex factor; normalized()
    rescales so beta = conj(alpha) and gamma is real, which is the form the
    distance formula below assumes.
    """

    alpha: complex
    beta: complex
    gamma: complex

    def __init__(self, alpha: complex, beta: complex, gamma: complex) -> None:
        alpha = ensure_point(alpha, "alpha")
        beta = ensure_point(beta, "beta")
        gamma = ensure_point(gamma, "gamma")
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        scale = abs(alpha)
        if abs(abs(beta) - scale) > 1e-9 * max(1.0, scale):
            raise ValueError("coefficients do not describe a real line (|beta| != |alpha|)")
        self.__dict__.update(alpha=alpha, beta=beta, gamma=gamma)

    def __call__(self, z: complex) -> complex:
        return self.alpha * z + self.beta * z.conjugate() + self.gamma

    def normalized(self) -> "LineCoeffs":
        """Equivalent representation with beta = conj(alpha) and gamma real."""
        mu = cmath.exp(-0.5j * (cmath.phase(self.alpha) + cmath.phase(self.beta)))
        alpha = mu * self.alpha
        beta = mu * self.beta
        gamma = mu * self.gamma
        if abs(beta - alpha.conjugate()) > 1e-9 * abs(alpha) or abs(gamma.imag) > 1e-9 * max(
            1.0, abs(gamma)
        ):
            raise ValueError("coefficients do not describe a real line")
        return LineCoeffs(alpha=alpha, beta=alpha.conjugate(), gamma=complex(gamma.real, 0.0))

    def real_form(self) -> tuple[float, float, float]:
        """Canonical (A, B, C) with A*x + B*y + C = 0, scaled so
        max(|A|, |B|) = 1 and the first significant of (A, B) is positive."""
        n = self.normalized()
        a = 2.0 * n.alpha.real
        b = -2.0 * n.alpha.imag
        c = n.gamma.real
        s = max(abs(a), abs(b))
        a, b, c = a / s, b / s, c / s
        if a < -1e-15 or (abs(a) <= 1e-15 and b < 0.0):
            a, b, c = -a, -b, -c
        return (a, b, c)


def point_line_distance(p: complex, line: LineCoeffs) -> float:
    """Distance from p to the line: |alpha*p + conj(alpha*p) + gamma| / (2|alpha|)
    in the normalized representation."""
    p = ensure_point(p, "p")
    n = line.normalized()
    v = n.alpha * p
    return abs(v + v.conjugate() + n.gamma) / (2.0 * abs(n.alpha))


def _check_on_circle(w: complex) -> complex:
    w = complex(w)
    if not on_unit_circle(w):
        raise NotOnCircle(f"|w| = {abs(w)!r} is not on the unit circle")
    return w


def _check_focus(a: float) -> float:
    a = ensure_real(a, "a")
    if a <= 1.0:
        raise InvalidFocus(f"focus must satisfy a > 1, got {a}")
    return a


def tangent_line(w: complex) -> LineCoeffs:
    """Tangent to the unit circle at w: z + w^2*conj(z) - 2w = 0."""
    w = _check_on_circle(w)
    return LineCoeffs(alpha=1.0 + 0j, beta=w * w, gamma=-2.0 * w)


def mirror_point(a: float, w: complex) -> complex:
    """Reflection a* = w*(2 - a*w) of the real point a across tangent_line(w)."""
    a = ensure_real(a, "a")
    w = _check_on_circle(w)
    return w * (2.0 - a * w)


def directrix(a: float, w: complex) -> LineCoeffs:
    """Directrix of the parabola tangent to the circle at w with focus a:

        (a - w)*z + w^3*(w*a - 1)*conj(z) + 2w^2*a^2 - 3w*(w^2 + 1)*a + 4w^2 = 0.
    """
    a = _check_focus(a)
    w = _check_on_circle(w)
    return LineCoeffs(
        alpha=a - w,
        beta=w ** 3 * (w * a - 1.0),
        gamma=2.0 * w * w * a * a - 3.0 * w * (w * w + 1.0) * a + 4.0 * w * w,
    )


def envelope_implicit(a: float, z: complex) -> float:
    """Residual of the envelope equation

        (z*conj(z))^2 - 2(a^2 + 2)*z*conj(z) + 4a*(z + conj(z)) + a^4 - 4a^2,

    or NonFinitePoint where it overflows float64, from about a = 1e77.
    """
    a = _check_focus(a)
    z = ensure_point(z, "z")
    zz = z.real * z.real + z.imag * z.imag
    try:
        value = zz * zz - 2.0 * (a * a + 2.0) * zz + 4.0 * a * (2.0 * z.real) + a ** 4 - 4.0 * a * a
    except OverflowError:  # a ** 4 past float64
        value = math.inf
    return _finite_residual(value, a, z)


def envelope_param(a: float, theta: float) -> complex:
    """Parametric envelope point z = 2*e^{i*theta} - a*e^{2i*theta}."""
    a = _check_focus(a)
    theta = ensure_real(theta, "theta")
    return 2.0 * cmath.exp(1j * theta) - a * cmath.exp(2j * theta)


def tangency_point(a: float, w: complex) -> complex:
    """Contact point z = 2w - a*w^2 between the envelope and directrix(a, w)."""
    a = _check_focus(a)
    w = _check_on_circle(w)
    return 2.0 * w - a * w * w


def limacon_residual(a: float, x: float, y: float) -> float:
    """Residual of the limacon form

        ((x - a)^2 + y^2 + 2a*(x - a))^2 - 4*((x - a)^2 + y^2),

    algebraically identical to envelope_implicit at z = x + i*y, or
    NonFinitePoint where it overflows float64.
    """
    a = _check_focus(a)
    x = ensure_real(x, "x")
    y = ensure_real(y, "y")
    try:
        u = (x - a) ** 2 + y * y
        value = (u + 2.0 * a * (x - a)) ** 2 - 4.0 * u
    except OverflowError:  # a square past float64
        value = math.inf
    return _finite_residual(value, a, complex(x, y))


def _finite_residual(value: float, a: float, z: complex) -> float:
    # an overflowed residual is inf, or nan where two infinite terms meet
    if not math.isfinite(value):
        raise NonFinitePoint(f"the residual at a = {a!r}, z = {z!r} overflows float64")
    return value


def e1_isolated_point(a: float) -> complex:
    """The spurious elimination branch
        (a^2 - 1)*((8a^2 + 1)x - 9a)^2 + (4a^2 - 1)^3 * y^2
    vanishes only at the single point (9a/(8a^2 + 1), 0); diagnostic only."""
    a = _check_focus(a)
    return complex(9.0 * a / (8.0 * a * a + 1.0), 0.0)


def valid_arc(a: float) -> float:
    """Largest |arg w| reachable by rays that do not cross the mirror:
    acos(1/a), in (0, pi/2), written as atan(sqrt((a - 1)(a + 1))), which
    keeps its digits as a -> 1+ and as a grows."""
    a = _check_focus(a)
    return math.atan(math.sqrt((a - 1.0) * (a + 1.0)))
