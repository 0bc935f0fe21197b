"""Closed-form quartic solving with joint root polishing, and real-quartic root classification.

The solver starts from closed-form roots in complex arithmetic (so complex
coefficients are first class), then polishes all roots together with
Aberth-Ehrlich steps on the original polynomial. Closed form alone loses
digits near repeated roots; the polish restores them, and polishing the
roots jointly keeps two starts from converging onto one root.

The starts are the Cardano-Ferrari roots, unless the coefficient moduli say
that the roots spread over orders of magnitude: then each edge of the Newton
polygon, the upper convex hull of (k, log|c_k|), starts its own roots from
its own coefficients (Bini, Numer. Algorithms 13, 1996). Ferrari's shift by
c3/(4*c4) would cost such small roots their digits, and the polish, whose
bound is relative to the largest coefficient, would not win them back.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math

from .errors import DegenerateLeadingCoefficient, InvalidObserver, NoConvergence, NonFinitePoint
from .numeric import DEFAULT_TOLERANCES, _Record, ensure_point, ensure_real

__all__ = [
    "QuarticCoeffs",
    "RootSet",
    "RootNature",
    "RealQuarticNature",
    "solve_quartic",
    "polished_roots",
    "real_quartic_invariants",
    "infinity_real_coeffs",
]

_MAX_POLISH_ITERATIONS = 50
_CLOSE_PAIR_THRESHOLD = 1e-7
# a quartic takes Newton-polygon starts when a middle point of its polygon
# lies more than log(_SPREAD) above the chord between the end points, and the
# polygon merges edges whose root moduli differ by less than _SPREAD. The
# reflection quartic of the benchmark's pair families away from the origin
# reaches at most about 205 there (|c3|/|c4|, seeds 1 and 2): 1e3 keeps their
# Ferrari starts and sends a point within about 1e-3 of the origin to the
# polygon
_SPREAD = 1e3
_SPREAD2 = _SPREAD ** 2
_SPREAD4 = _SPREAD ** 4
_LOG_SPREAD = math.log(_SPREAD)
# primitive cube roots of unity, for Cardano's second and third roots
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
_OMEGA2 = _OMEGA.conjugate()


class QuarticCoeffs(_Record):
    """Coefficients of c4*w^4 + c3*w^3 + c2*w^2 + c1*w + c0.

    c4 may be zero here; degeneracy is rejected at solve time so callers can
    build degree-dropped instances and route them to the reduced solver.
    """

    c4: complex
    c3: complex
    c2: complex
    c1: complex
    c0: complex

    def __init__(self, c4: complex, c3: complex, c2: complex, c1: complex, c0: complex) -> None:
        # a finite plain complex is stored as given; anything else is coerced
        # or rejected, which also catches a builder's product that overflowed
        coeffs = (c4, c3, c2, c1, c0)
        for c in coeffs:
            if type(c) is not complex or not cmath.isfinite(c):
                c4, c3, c2, c1, c0 = [ensure_point(c, f"c{4 - k}") for k, c in enumerate(coeffs)]
                break
        self.__dict__.update(c4=c4, c3=c3, c2=c2, c1=c1, c0=c0)

    def as_tuple(self) -> tuple[complex, complex, complex, complex, complex]:
        return (self.c4, self.c3, self.c2, self.c1, self.c0)

    def __call__(self, w: complex) -> complex:
        return _horner_pair(self.as_tuple(), w)[0]


class RootSet(_Record):
    """Polished roots sorted by ascending principal argument, ties by modulus.

    residuals[k] is |p(roots[k])| recomputed from the coefficients the set was
    solved from. min_separation flags clustered (near-multiple) roots; no
    deflation is attempted for them.

    The constructor takes the fields as given. A set that solve_quartic or
    polished_roots returns keeps the roots in the order the polish left them
    and computes its fields when one of them is first read: it sorts the
    roots and finds min_separation then, once. A caller that reads the roots
    in any order, as minimizing_root's pick does, pays for neither. Equality,
    hash, repr, has_close_pair, pickle and copy give the same fields either
    way.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    polish_iterations: tuple[int, ...]
    min_separation: float

    def __init__(
        self,
        roots: tuple[complex, ...],
        residuals: tuple[float, ...],
        polish_iterations: tuple[int, ...],
        min_separation: float,
    ) -> None:
        self.__dict__.update(
            roots=roots, residuals=residuals, polish_iterations=polish_iterations, min_separation=min_separation
        )

    def __getattr__(self, name: str) -> object:
        # runs only for a name the instance dict lacks: a field of a set that
        # _polished_rootset made, on its first read, or no field at all
        fields = self.__dict__
        if name not in self._fields or "_polished" not in fields:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ws, res, its = fields.pop("_polished")
        # by phase, then modulus; the index keeps roots with equal keys in their
        # polish order
        keyed = sorted([(cmath.phase(w), abs(w), k) for k, w in enumerate(ws)])
        rs = tuple([ws[t[2]] for t in keyed])
        min_sep = math.inf
        for a, b in itertools.combinations(rs, 2):
            d = abs(a - b)
            if d < min_sep:
                min_sep = d
        RootSet.__init__(self, rs, tuple([res[t[2]] for t in keyed]), tuple([its[t[2]] for t in keyed]), min_sep)
        return fields[name]

    @property
    def _any_order(self) -> tuple[complex, ...]:
        """The roots in the order the polish left them while the fields are
        unread, else the sorted roots: for a reader that needs no order."""
        polished = self.__dict__.get("_polished")
        return self.roots if polished is None else polished[0]

    @property
    def has_close_pair(self) -> bool:
        return self.min_separation < _CLOSE_PAIR_THRESHOLD


class RootNature(enum.Enum):
    FOUR_REAL_DISTINCT = "FourRealDistinct"
    NOT_FOUR_REAL_DISTINCT = "NotFourRealDistinct"
    DEGENERATE = "Degenerate"


class RealQuarticNature(_Record):
    """Sign invariants of a real quartic: four real distinct roots iff
    delta > 0, p < 0 and d < 0."""

    delta: float
    p: float
    d: float
    classification: RootNature

    def __init__(self, delta: float, p: float, d: float, classification: RootNature) -> None:
        self.__dict__.update(delta=delta, p=p, d=d, classification=classification)


def _horner_pair(coeffs: tuple[complex, ...], w: complex) -> tuple[complex, complex]:
    """Value and derivative in one pass."""
    b = coeffs[0]
    c = 0j
    for a in coeffs[1:]:
        c = c * w + b
        b = b * w + a
    return b, c


def _cbrt(z: complex) -> complex:
    """Principal complex cube root via polar form; a zero z gives a zero,
    which _solve_monic_cubic's u == 0 test catches."""
    return abs(z) ** (1.0 / 3.0) * cmath.exp(1j * cmath.phase(z) / 3.0)


def _solve_monic_quadratic(b: complex, c: complex) -> tuple[complex, complex]:
    """Roots of x^2 + b*x + c, cancellation-safe."""
    s = cmath.sqrt(b * b - 4.0 * c)
    # pick the sign that avoids subtracting nearly equal quantities
    if (b.conjugate() * s).real < 0.0:
        s = -s
    q = -0.5 * (b + s)
    if q == 0:
        return 0j, -b
    return q, c / q


def _solve_monic_cubic(b: complex, c: complex, d: complex) -> tuple[complex, complex, complex]:
    """Roots of x^3 + b*x^2 + c*x + d by Cardano.

    The two cube roots must satisfy u*v = -p/3; taking independent principal
    roots breaks that, so v is derived from u.
    """
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    s = cmath.sqrt(disc)
    u3a = -q / 2.0 + s
    u3b = -q / 2.0 - s
    u = _cbrt(u3a) if abs(u3a) >= abs(u3b) else _cbrt(u3b)
    if u == 0:
        return -shift, -shift, -shift
    v = -p / (3.0 * u)
    return (u + v - shift, _OMEGA * u + _OMEGA2 * v - shift, _OMEGA2 * u + _OMEGA * v - shift)


def _ferrari(coeffs: tuple[complex, ...]) -> list[complex]:
    """Closed-form roots of a degree-4 polynomial, leading coefficient nonzero."""
    c4, c3, c2, c1, c0 = coeffs
    A = c3 / c4
    B = c2 / c4
    C = c1 / c4
    D = c0 / c4
    shift = A / 4.0
    # depressed quartic y^4 + p*y^2 + q*y + r
    p = B - 3.0 * A * A / 8.0
    q = C + A * A * A / 8.0 - A * B / 2.0
    r = D - 3.0 * A ** 4 / 256.0 + A * A * B / 16.0 - A * C / 4.0

    scale = max(1.0, abs(p), abs(r))
    if abs(q) <= 1e-14 * scale:
        z1, z2 = _solve_monic_quadratic(p, r)
        s1 = cmath.sqrt(z1)
        s2 = cmath.sqrt(z2)
        ys = [s1, -s1, s2, -s2]
    else:
        m_roots = _solve_monic_cubic(-p / 2.0, -r, p * r / 2.0 - q * q / 8.0)
        # the square-root argument 2m - p must stay far from zero; the
        # resolvent root maximizing it avoids catastrophic cancellation; of
        # equal maxima the first wins
        m = m_roots[0]
        best = abs(2.0 * m - p)
        for mm in m_roots[1:]:
            cand = abs(2.0 * mm - p)
            if cand > best:
                m, best = mm, cand
        alpha = cmath.sqrt(2.0 * m - p)
        beta = -q / (2.0 * alpha)
        y1, y2 = _solve_monic_quadratic(-alpha, m - beta)
        y3, y4 = _solve_monic_quadratic(alpha, m + beta)
        ys = [y1, y2, y3, y4]
    return [y - shift for y in ys]


def _stalled(residual: float, w: complex, base_bound: float, degree: int) -> NoConvergence:
    bound = base_bound * max(1.0, abs(w)) ** degree
    return NoConvergence(f"root polishing stalled at residual {residual:.3e} (bound {bound:.3e})")


def _polish(
    coeffs: tuple[complex, ...], roots: list[complex], base_bound: float
) -> tuple[list[complex], list[float], list[int]]:
    """Polish all roots together; returns (roots, residuals, iterations used),
    each root its last iterate, each residual that iterate's |p| and each
    iteration count the step of that evaluation.

    Each pass evaluates every pending root, and one rule decides for each:
    - a root within its bound is done: it does not move and is not
      evaluated or tested again;
    - a root above its bound takes an Aberth-Ehrlich step,
      N / (1 - N * sum_{j != k} 1/(w_k - w_j)), N = p(w_k)/p'(w_k);
    - a root above its bound that cannot step, because |p'| < 1e-290 or the
      50th step has been taken, raises NoConvergence at once.
    The repel sum keeps two starts in one basin from converging onto the
    same root, as independent Newton steps can (Aberth, Math. Comp. 27,
    1973). A root that cannot step would never move again, so a later test
    of it could only repeat the one it failed: the first such root in index
    order, in the first pass that has one, raises there.

    The acceptance bound grows with |root|^degree: below that, float64 cannot
    even evaluate the polynomial, so a flat bound would be unreachable for
    roots far outside the unit disk. A non-finite residual never passes it,
    and it ends the polish at once: no step can leave inf or NaN. Every
    NoConvergence reports the root's bound and a residual: that of the
    failing iterate, or for a non-finite one the root's last finite residual,
    inf for a start.

    The repel sum is accumulated left to right over the current roots,
    starting from the integer 0; roots moved earlier in the same step count
    at their new places.
    """
    deriv_stall = 1e-290
    degree = len(coeffs) - 1
    cur = list(roots)
    resid = [math.inf] * len(cur)
    iters = [0] * len(cur)
    pending = range(len(cur))
    step = 0
    while True:
        moving = []
        for k in pending:
            w = cur[k]
            f, df = _horner_pair(coeffs, w)
            res = abs(f)
            if not res < math.inf:
                raise _stalled(resid[k], w, base_bound, degree)
            resid[k] = res
            iters[k] = step
            a = abs(w)
            if not res <= base_bound * (a if a > 1.0 else 1.0) ** degree:
                if step == _MAX_POLISH_ITERATIONS or abs(df) < deriv_stall:
                    raise _stalled(res, w, base_bound, degree)
                moving.append((k, f / df))
        if not moving:
            return cur, resid, iters
        step += 1
        for k, newton in moving:
            w = cur[k]
            repel = 0
            for v in cur:
                # an exact duplicate start is skipped: it would divide by zero
                if v != w:
                    repel += 1.0 / (w - v)
            denom = 1.0 - newton * repel
            cur[k] = w - (newton / denom if denom != 0 else newton)
        pending = [k for k, _ in moving]


def _polished_rootset(coeffs: tuple[complex, ...], roots: list[complex], cmax: float) -> RootSet:
    ws, res, its = _polish(coeffs, roots, DEFAULT_TOLERANCES.residual_tol * cmax)
    # tuples, not lists: a kept set then costs the collector no work once its
    # tuples are untracked; RootSet.__getattr__ sorts them on the first read
    rootset = RootSet.__new__(RootSet)
    rootset.__dict__["_polished"] = (tuple(ws), tuple(res), tuple(its))
    return rootset


def _closed_form(coeffs: tuple[complex, ...]) -> list[complex]:
    """Closed-form roots of a polynomial of degree 1..4, leading coefficient nonzero."""
    deg = len(coeffs) - 1
    if deg == 4:
        return _ferrari(coeffs)
    lead = coeffs[0]
    if deg == 1:
        return [-coeffs[1] / lead]
    if deg == 2:
        return list(_solve_monic_quadratic(coeffs[1] / lead, coeffs[2] / lead))
    return list(_solve_monic_cubic(coeffs[1] / lead, coeffs[2] / lead, coeffs[3] / lead))


def _polygon_starts(coeffs: tuple[complex, ...], mods: list[float]) -> list[complex]:
    """Starts from the Newton polygon, the upper convex hull of the points
    (k, log|c_k|) of the nonzero coefficients c_k of w^k.

    An edge from power i to power j holds j - i roots of modulus about
    (|c_i|/|c_j|)^(1/(j-i)); the closed-form roots of the edge's own
    coefficients, c_j*w^(j-i) + ... + c_i, start them (Bini, Numer.
    Algorithms 13, 1996). A zero c_0 .. c_(i-1) below the lowest hull point
    i puts i exact roots at 0.
    """
    n = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for k in range(n + 1):
        if mods[n - k] == 0:
            continue
        y = math.log(mods[n - k])
        # drop the last point unless the edges on either side of it give root
        # moduli more than _SPREAD apart
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (k - k1) - (y - y1) * (k1 - k0) > _LOG_SPREAD * (k1 - k0) * (k - k1):
                break
            hull.pop()
        hull.append((k, y))
    starts = [0j] * hull[0][0]
    for (i, _), (j, _) in zip(hull, hull[1:]):
        starts += _closed_form(coeffs[n - j : n - i + 1])
    return starts


def _spread(m4: float, m3: float, m2: float, m1: float, m0: float) -> bool:
    """Whether a middle point (k, log m_k) of the Newton polygon lies more
    than log(_SPREAD) above the chord between its end points; then the
    polygon has edges whose root moduli are more than _SPREAD apart."""
    return (
        m3 * m3 * m3 * m3 > _SPREAD4 * m4 * m4 * m4 * m0
        or m2 * m2 > _SPREAD2 * m4 * m0
        or m1 * m1 * m1 * m1 > _SPREAD4 * m4 * m0 * m0 * m0
    )


def _solve(coeffs: tuple[complex, ...]) -> RootSet:
    """Closed-form starts for degree 1..4, then the joint polish; float
    overflow on the way becomes NoConvergence.

    A quartic whose Newton polygon has a middle point more than
    log(_SPREAD) above the chord between its end points starts from the
    polygon instead of Ferrari: its roots spread over orders of magnitude,
    and Ferrari's shift by c3/(4*c4) would cost the small roots their digits.
    """
    try:
        mods = list(map(abs, coeffs))
        cmax = max(mods)
        m4, m0 = mods[0], mods[-1]
        # the chord lies nowhere below min(|c4|, |c0|): a cheap first test
        if len(mods) == 5 and cmax > _SPREAD * (m4 if m4 < m0 else m0) and _spread(*mods):
            raw = _polygon_starts(coeffs, mods)
        else:
            raw = _closed_form(coeffs)
        return _polished_rootset(coeffs, raw, cmax)
    except OverflowError as exc:
        raise NoConvergence(f"float overflow while solving: {exc}") from exc


def solve_quartic(q: QuarticCoeffs) -> RootSet:
    """Solve a complex-coefficient quartic; q.c4 must be nonzero.

    A root is accepted when |p(root)| <= 1e-10 * max|c| * max(1, |root|)^4,
    the fixed DEFAULT_TOLERANCES.residual_tol relative to the largest
    coefficient magnitude. The polish starts from Ferrari's roots, or from
    the Newton polygon's when a middle coefficient lies more than a factor
    1e3 above the geometric interpolation of |c4| and |c0|, as for the
    reflection quartic of a point within about 1e-3 of the origin. The
    returned set sorts its roots and finds min_separation when a field is
    first read (RootSet).

    Raises
    ------
    DegenerateLeadingCoefficient if q.c4 == 0. NoConvergence, "root polishing
    stalled at residual ... (bound ...)", for the first root in index order
    whose residual is still above its bound when it cannot step: its
    derivative vanishes or 50 polish steps are taken. It reports that root's
    residual and bound; a residual that turns inf or NaN raises the same way
    with the root's last finite residual, inf for a start. NoConvergence,
    "float overflow while solving: ...", if the coefficients are so badly
    scaled that float64 overflows on the way.
    """
    if q.c4 == 0:
        raise DegenerateLeadingCoefficient("quartic leading coefficient is zero")
    return _solve(q.as_tuple())


def polished_roots(coeffs: tuple[complex, ...]) -> RootSet:
    """Roots of a polynomial of degree 1..4 given as (c_n, ..., c_0), c_n != 0.

    Used for the degree-dropped instances of the reflection quartics; the
    degree-4 case routes through the Ferrari chain. The returned set is
    ordered on first read, as solve_quartic's is. Raises NonFinitePoint as
    QuarticCoeffs does, and NoConvergence as solve_quartic does.
    """
    deg = len(coeffs) - 1
    coeffs = tuple([ensure_point(c, f"c{deg - k}") for k, c in enumerate(coeffs)])
    if not coeffs or coeffs[0] == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if not 1 <= deg <= 4:
        raise ValueError(f"degree {deg} not supported")
    return _solve(coeffs)


def _formulas(a: int, b: int, c: int, d: int, e: int) -> tuple[int, int, int]:
    """(delta, p, d) of a*x^4 + b*x^3 + c*x^2 + d*x + e for integer
    coefficients, exactly. delta is the discriminant in the classical I/J
    form, (4*I^3 - J^2)/27 with I = 12ae - 3bd + c^2 and J = 72ace + 9bcd
    - 2c^3 - 27ad^2 - 27eb^2, and the division is exact, since delta is an
    integer polynomial in the coefficients; p = 8ac - 3b^2 and d = 64a^3e
    - 16a^2c^2 + 16ab^2c - 16a^2bd - 3b^4. Each is written over shared
    products, which saves big-integer multiplications."""
    ae, bd, cc, bb = a * e, b * d, c * c, b * b
    i = 12 * ae - 3 * bd + cc
    j = (72 * ae + 9 * bd - 2 * cc) * c - 27 * (a * d * d + bb * e)
    p = 8 * a * c - 3 * bb
    dd = 16 * a * (4 * a * ae - a * cc + bb * c - a * bd) - 3 * bb * bb
    return (4 * i * i * i - j * j) // 27, p, dd


def _rounded(n: int, m: int) -> float:
    """n / m rounded once to the nearest float, +-inf past the largest."""
    try:
        return n / m
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _nature(delta: float, p: float, d: float) -> RootNature:
    """The classification by the signs of the invariants."""
    if delta == 0.0:
        return RootNature.DEGENERATE
    if delta > 0.0 and p < 0.0 and d < 0.0:
        return RootNature.FOUR_REAL_DISTINCT
    return RootNature.NOT_FOUR_REAL_DISTINCT


def real_quartic_invariants(a: float, b: float, c: float, d: float, e: float) -> RealQuarticNature:
    """Discriminant-family invariants of a*x^4 + b*x^3 + c*x^2 + d*x + e.

    The quartic has four distinct real roots iff delta > 0, p < 0 and d < 0;
    delta == 0 marks repeated roots (classified Degenerate).

    The invariants are exact: each coefficient is n/q, q the largest of
    their power-of-two denominators, so _formulas on the integers n gives
    delta, p and d exactly over q^6, q^2 and q^4. Each value is that
    quotient rounded once to the nearest float, +-inf past the largest, and
    the classification is that of the exact signs. So any finite
    coefficients with a != 0 get an answer, and its class is never that of
    a rounded value whose terms cancelled.
    """
    a = ensure_real(a, "a")
    b = ensure_real(b, "b")
    c = ensure_real(c, "c")
    d = ensure_real(d, "d")
    e = ensure_real(e, "e")
    if a == 0.0:
        raise DegenerateLeadingCoefficient("leading coefficient a is zero")
    ratios = [x.as_integer_ratio() for x in (a, b, c, d, e)]
    q = max([m for _, m in ratios])
    exact = _formulas(*[n * (q // m) for n, m in ratios])
    q2 = q * q
    delta, p, dd = map(_rounded, exact, (q2 * q2 * q2, q2, q2 * q2))
    return RealQuarticNature(delta=delta, p=p, d=dd, classification=_nature(*exact))


def infinity_real_coeffs(r: float, theta: float) -> tuple[float, float, float, float, float]:
    """Real-coefficient quartic whose roots are the Moebius images
    i*(1 + w_k)/(1 - w_k) of the source-at-infinity reflection roots w_k.

    Expanding (z + i)^4 * p((z - i)/(z + i)) for the reflection quartic p and
    dividing by -2i gives

        r*sin(t)*z^4 + 2*(2r*cos(t) - 1)*z^3 - 6r*sin(t)*z^2
            - 2*(2r*cos(t) + 1)*z + r*sin(t) = 0.

    The leading coefficient vanishes for theta = 0 (mod pi), where the map
    degenerates. Past r of about 3.0e307, where 6r overflows float64, a
    coefficient is not finite for any theta, and the call raises
    NonFinitePoint naming r and theta.
    """
    r = ensure_real(r, "r")
    theta = ensure_real(theta, "theta")
    if r <= 1.0:
        raise InvalidObserver(f"observer radius must exceed 1, got {r}")
    st = math.sin(theta)
    ct = math.cos(theta)
    a = r * st
    b = 2.0 * (2.0 * r * ct - 1.0)
    c = -6.0 * r * st
    d = -2.0 * (2.0 * r * ct + 1.0)
    e = r * st
    # each one tested, not their sum, which can overflow where each one fits
    if not (math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise NonFinitePoint(f"observer r={r!r}, theta={theta!r}: its image quartic's coefficients overflow float64")
    return (a, b, c, d, e)
