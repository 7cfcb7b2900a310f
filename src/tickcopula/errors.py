"""Exception types shared across the package."""


class TickCopulaError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedInput(TickCopulaError):
    """Input file or array violates the documented format."""


class InsufficientData(TickCopulaError):
    """Not enough observations to carry out the requested operation."""


class NoOverlap(TickCopulaError):
    """The two tick series have disjoint time supports."""


class InvalidParameter(TickCopulaError):
    """A numeric argument is outside its admissible range."""


class DegeneratePairing(TickCopulaError):
    """A paired series has a non-positive overlap interval.

    This signals misuse of a synchronization scheme, e.g. previous-tick
    output with repeated ticks fed into an estimator that assumes strictly
    advancing pairs.
    """


class FitFailure(TickCopulaError):
    """Pseudo-likelihood optimization failed for a copula family."""

    def __init__(self, family, message=""):
        self.family = family
        super().__init__(f"{family}: {message}" if message else family)


class CalibrationFailure(TickCopulaError):
    """Calibration curve unusable (non-monotone fit or empty inversion)."""
