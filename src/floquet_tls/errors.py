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


class BracketNotFoundError(FloquetTlsError):
    """A resonance needs a higher truncation order N; ``suggested_n`` names one.

    Raised when det A^(N) does not change sign within 1e-12 relative of an
    eigen root, or when the resonance index exceeds the (N + 1) // 2 odd
    modes of the truncation.
    """

    def __init__(self, message, suggested_n=None):
        super().__init__(message)
        self.suggested_n = suggested_n


class SeriesInstabilityError(FloquetTlsError):
    """Series coefficients did not stabilize under a truncation increase."""


class ContinuityWarning(UserWarning):
    """Branch continuation jump exceeded the safe threshold."""
