"""Error taxonomy.

Every error raised by this package derives from :class:`AmpleToriError` and
carries the name of the module it originates from, so the CLI can map any
failure to exactly one JSON error object and exit code.
"""

from __future__ import annotations


class AmpleToriError(Exception):
    """Base class for all package errors."""

    module = "ampletori"


class ZeroPolynomialError(AmpleToriError):
    """The zero polynomial was passed where a nonzero one is required."""

    module = "polynomials"


class NonMonicError(AmpleToriError):
    module = "polynomials"


class CompositeModulusError(AmpleToriError):
    """A composite number was passed where a prime is required."""

    module = "polynomials"


class SingularMatrixError(AmpleToriError):
    module = "linalg"


class NotAnOrderError(AmpleToriError):
    """The supplied basis does not span an order; carries the witness."""

    module = "etale"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RamifiedPlaceError(AmpleToriError):
    """p divides disc(f); the artifact refuses to guess in the ramified case."""

    module = "places"

    def __init__(self, p, disc):
        super().__init__(f"prime {p} divides disc(f) = {disc}; ramified places are not supported")
        self.p = p
        self.disc = disc


class NoSuchElementError(AmpleToriError):
    """The Galois group contains no element of the required cycle type."""

    module = "places"


class UnsupportedError(AmpleToriError):
    """Input outside the supported range (degree cap, tag set, block pattern)."""

    module = "ampletori"


class BudgetExceededError(AmpleToriError):
    """A bounded search was asked to exceed its configured budget."""

    module = "units"


class IndependenceUndecidedError(AmpleToriError):
    """The top of the precision ladder reached without certifying independence.

    Distinct from a disproof: no multiplicative relation was found either.
    """

    module = "units"


class InvalidUnitSystemError(AmpleToriError):
    """A claimed unit system fails integrality, norm or torsion checks."""

    module = "units"


class InputError(AmpleToriError):
    """Malformed request/JSON input; carries a pointer into the JSON path."""

    module = "cli"

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path
