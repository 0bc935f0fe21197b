"""Shared numeric primitives: the value-type base, tolerances, unit-circle
predicates, segment geometry.

All angles are in radians and all lengths are dimensionless (unit mirror
radius). Points of the plane are plain ``complex`` values; the helpers here
validate them at API boundaries so NaN/Inf never propagate into root
polishing. The answer of the exterior pair and of the plane wave is the one
zero of the law of reflection on the arc that both points see (interior.py,
infinity.py), and ``_law_zero`` finds it for both, the plane wave being the
exterior pair with its source at infinity. The interior pair's rule, the
least focal sum among the on-circle roots of its quartic with its tie band,
lives beside its one caller in interior.py.
"""

from __future__ import annotations

import cmath
import math

from .errors import NonFinitePoint, PointOutsideDomain

__all__ = [
    "DEFAULT_TOLERANCES",
    "VISIBILITY_SLACK",
    "ensure_point",
    "ensure_real",
    "on_unit_circle",
    "unit_from_angle",
    "wrap_angle",
    "segment_min_distance_to_origin",
    "segment_clears_disk",
]


class _Record:
    """Base of the package's immutable value types.

    A subclass declares its fields once, as annotations, in constructor
    order. Unless it writes its own __init__, as the types that validate or
    coerce their inputs do, the base compiles one for it, as
    collections.namedtuple and dataclasses do: one parameter per field, and
    each value stored in the instance dict item by item. update(**kw) builds
    a keyword dict first, and a generic __init__(self, *values) takes about
    twice as long per record. On CPython 3.11 and 3.12 a field of a dict
    filled item by item reads in about 33 ns, against 10 ns for one filled
    by update; so the hot paths read no tolerance from DEFAULT_TOLERANCES
    per call, but bind each one they use once at import.

    The base gives what a frozen dataclass would: a record equals only a
    record of the same class with equal fields (never a tuple of them),
    equal records hash equal, the repr is ClassName(field=value, ...), and
    assigning or deleting an attribute raises AttributeError. Pickle and
    copy restore the instance dict without calling __init__. A value a
    cached_property keeps in the dict is no field: equality, hash and repr
    never compute it.

    Only ReflectionResult is also declared a dataclass, for
    dataclasses.replace and FrozenInstanceError; the others are not, so that
    a process that builds no ReflectionResult loads neither dataclasses nor
    inspect.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__annotations__)
        if "__init__" not in cls.__dict__:
            stores = "".join([f"\n    fields[{name!r}] = {name}" for name in fields])
            namespace = {"__name__": cls.__module__}  # the function's __module__
            exec(f"def __init__(self, {', '.join(fields)}):\n    fields = self.__dict__{stores}", namespace)
            cls.__init__ = init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__annotations__ = {**cls.__annotations__, "return": "None"}

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Tolerances(_Record):
    """The type of DEFAULT_TOLERANCES, the fixed tolerances the package reads.

    unit_circle_tol      acceptance band for | |w| - 1 |
    residual_tol         polished-residual bound, relative to max |coefficient|
    oracle_agreement_tol allowed deviation from the brute-force oracles (read
                         only by the tests and the benchmark)
    """

    unit_circle_tol: float
    residual_tol: float
    oracle_agreement_tol: float


DEFAULT_TOLERANCES = Tolerances(1e-9, 1e-10, 1e-6)
# bound once: on_unit_circle runs about four times per interior solve
_UNIT_CIRCLE_TOL = DEFAULT_TOLERANCES.unit_circle_tol

# pairs closer than this are CoincidentPoints, in the solvers and the oracle
_COINCIDENT_EPS = 1e-14

# how far inside the circle a sight segment may dip and still count as
# clearing it; segment_clears_disk reads it, and so do the plane-wave
# oracle's closed-form reachable arc, so the two visibility filters agree,
# and the exterior pair's bound on how far its visible arcs may miss
VISIBILITY_SLACK = 1e-9

# Newton and bisection steps of _law_zero; an exterior pair's joint arc
# reaches width pi, and bisection alone needs about 54 steps to narrow that
# to an ulp of an angle near 1
_MAX_STEPS = 100


def ensure_point(z: complex, name: str = "point") -> complex:
    """Validate that both components of z are finite and return z as complex."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise NonFinitePoint(f"{name} has non-finite component: {z!r}")
    return z


def ensure_real(x: float, name: str = "value") -> float:
    """Validate that x is a finite real number."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFinitePoint(f"{name} must be finite, got {x!r}")
    return x


def _ensure_in_disk(z1: complex, z2: complex) -> None:
    """Raise PointOutsideDomain unless both finite points lie in the open
    unit disk. A modulus past float64, where abs raises OverflowError, lies
    outside; hypot would round some finite moduli differently from abs."""
    try:
        if abs(z1) < 1.0 and abs(z2) < 1.0:
            return
    except OverflowError:
        pass
    raise PointOutsideDomain("both points must lie in the open unit disk")


def on_unit_circle(w: complex) -> bool:
    """True iff | |w| - 1 | <= DEFAULT_TOLERANCES.unit_circle_tol."""
    if type(w) is not complex or not cmath.isfinite(w):
        w = ensure_point(w, "w")
    return abs(abs(w) - 1.0) <= _UNIT_CIRCLE_TOL


def unit_from_angle(phi: float) -> complex:
    """Point (cos phi, sin phi) on the unit circle."""
    phi = ensure_real(phi, "phi")
    return complex(math.cos(phi), math.sin(phi))


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the principal interval (-pi, pi]."""
    t = math.remainder(theta, math.tau)
    if t <= -math.pi:
        t += math.tau
    return t


def segment_min_distance_to_origin(p: complex, q: complex) -> float:
    """Minimum distance from the origin to the closed segment [p, q]."""
    # measured from the end nearer the origin: from the far end, p + t*d
    # cancels to about ulp(|p|), which for a far pair swamps the distance;
    # dividing by |d| twice keeps |d|^2 of a segment longer than about
    # 1.3e154 from overflowing to inf, which would give t = 0
    if p.real * p.real + p.imag * p.imag > q.real * q.real + q.imag * q.imag:
        p, q = q, p
    d = q - p
    m = math.hypot(d.real, d.imag)
    if m == 0.0:
        return abs(p)
    t = -(p.real * d.real + p.imag * d.imag) / m / m
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return abs(p + t * d)


def segment_clears_disk(p: complex, q: complex) -> bool:
    """True iff the segment [p, q] does not enter the open unit disk.

    Endpoints on the circle itself count as clearing; VISIBILITY_SLACK
    absorbs the numerical drift of projected roots.
    """
    return segment_min_distance_to_origin(p, q) >= 1.0 - VISIBILITY_SLACK


def _law_zero(r1: float, r2: float, delta: float, a: float, b: float, base: float) -> float:
    """base + x for the zero x, between a and b, of the law of reflection

        g(x) = sin(2x - delta) + sin(delta - x)/r1 - sin(x)/r2

    for points r1*e^{i*base} and r2*e^{i*(base + delta)} outside the unit
    circle, at w = e^{i*(base + x)}; r1 may be math.inf, for a plane wave
    arriving from the direction base. The ends may come in either order; g
    runs from negative at the lesser to positive at the greater.

    Newton steps start from the midpoint, and a step that would leave the
    bracket, or a slope that is not positive away from an exact zero, bisects
    it instead. The iteration stops when a step, or the bracket, falls below
    an ulp of max(|base + x|, |x|): base + x is the angle itself, and |x|
    keeps an angle near 0 from asking for ulps of an offset far larger than
    it.

    An infinite r1 drops the source terms sin(delta - x)/r1 and
    cos(delta - x)/r1 from g and its slope instead of evaluating them. Each
    is a finite sine or cosine over inf, a signed zero, and adding a zero to
    a nonzero term changes no bit; sin(2x - delta) is zero only at 2x =
    delta, where it is +0 (x is -0 only in a bracket of width 0), and +0
    plus either zero is +0. So every value, slope and step, and the angle
    returned, keeps its bits.
    """
    sin, cos = math.sin, math.cos
    far = r1 == math.inf
    lo, hi = (a, b) if a < b else (b, a)
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        u = 2.0 * x - delta
        if far:
            value = sin(u) - sin(x) / r2
            slope = 2.0 * cos(u) - cos(x) / r2
        else:
            v = delta - x
            value = sin(u) + sin(v) / r1 - sin(x) / r2
            slope = 2.0 * cos(u) - cos(v) / r1 - cos(x) / r2
        if value < 0.0:
            lo = x
        else:
            hi = x
        step = value / slope if slope > 0.0 else (math.inf if value else 0.0)
        scale = abs(base + x)
        if abs(x) > scale:
            scale = abs(x)
        nx = x - step
        if abs(step) <= 2.0 ** -52 * scale:
            return base + nx
        if lo < nx < hi:
            x = nx
        else:
            x = 0.5 * (lo + hi)
            if hi - lo <= 2.0 ** -51 * scale:
                break
    return base + x
