"""Exception types shared across the package."""


class FloquetTlsError(Exception):
    """Base class for all package errors."""


class DomainError(FloquetTlsError, ValueError):
    """Argument outside the supported domain of an operation."""


class IntegrationError(FloquetTlsError):
    """An integration's error estimate stayed above its tolerance at the
    most Magnus steps allowed."""


class DegenerateMonodromyError(FloquetTlsError):
    """Monodromy has a non-simple eigenvalue 1; no unique periodic orbit."""


class SouthPoleError(FloquetTlsError):
    """Orbit passes within 1e-3 R of the pole of its section, where chi is singular.

    ``quasienergy_classical`` averages an orbit near the south pole on the
    +z section and adds omega times the counter-clockwise turns of
    arg(X + iY), which keeps the branch of the -z section.
    """


class ResonanceError(FloquetTlsError):
    """Leading minor vanishes; the unit-z0 Fourier solution does not exist."""


class BracketNotFoundError(FloquetTlsError):
    """Root bracketing failed; typically the truncation order is too small."""

    def __init__(self, message, suggested_n=None):
        super().__init__(message)
        self.suggested_n = suggested_n


class SeriesInstabilityError(FloquetTlsError):
    """Series coefficients did not stabilize under a truncation increase."""


class ContinuityWarning(UserWarning):
    """Branch continuation jump exceeded the safe threshold."""
