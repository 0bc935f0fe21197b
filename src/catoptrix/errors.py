"""Exception hierarchy. Every error carries a machine-readable code (the class name)."""


class CatoptrixError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NonFinitePoint(CatoptrixError, ValueError):
    """A coordinate was NaN or infinite, an exterior pair lies so far out
    that |z1|*|z2| overflows float64, an envelope residual overflows, or the
    image quartic's coefficients (quartic.infinity_real_coeffs) overflow
    float64 past r of about 3.0e307."""


class DegenerateLeadingCoefficient(CatoptrixError):
    """Leading coefficient vanishes; the polynomial drops degree."""


class NoConvergence(CatoptrixError):
    """Root polishing failed to reach the residual bound."""


class PointOutsideDomain(CatoptrixError):
    """An input point lies outside the open unit disk."""


class PointInsideDomain(CatoptrixError):
    """An input point lies inside the closed unit disk."""


class CoincidentPoints(CatoptrixError):
    """The two input points lie within 1e-14 of each other, the one threshold
    that the solvers and the oracle share (numeric._COINCIDENT_EPS)."""


class NoRootOnCircle(CatoptrixError):
    """No candidate root of an interior pair passed the unit-circle test.

    Every interior pair has at least two on-circle roots, the minimum and the
    maximum of the focal sum, so for minimizing_root this marks roots polished
    outside the fixed 1e-9 circle band, not a property of the pair."""


class InvalidObserver(CatoptrixError):
    """Observer radius must exceed the mirror radius (r > 1)."""


class ShadowRegion(CatoptrixError):
    """Observer lies behind the mirror and no physically valid root exists."""


class RootAtOne(CatoptrixError):
    """A root coincides with w = 1, the pole of the Moebius map."""


class NotOnCircle(CatoptrixError):
    """Expected a point on the unit circle."""


class InvalidFocus(CatoptrixError):
    """Focus must lie on the real axis with a > 1."""
