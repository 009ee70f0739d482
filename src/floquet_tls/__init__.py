"""Floquet toolkit for periodically driven two-level systems.

Computes periodic classical solutions on the Bloch sphere, Floquet states,
quasienergies with their geometric/dynamical split, resonance curves and
exact-rational Bloch-Siegert shift coefficients for the Rabi problems with
linear, elliptic and circular polarization, cross-validated by independent
computational routes (time-domain ODE, frequency-domain tridiagonal solve,
closed forms, asymptotic series).

The command line lives in :mod:`floquet_tls.cli` (``python -m floquet_tls``);
it is not imported with the package.
"""

from . import (
    bloch_dynamics,
    exact_models,
    fourier_rpl,
    quasienergy,
    resonance,
    series_limits,
    specfun,
)
from .errors import (
    BracketNotFoundError,
    ContinuityWarning,
    DegenerateMonodromyError,
    DomainError,
    FloquetTlsError,
    IntegrationError,
    SeriesInstabilityError,
    SouthPoleError,
)

__all__ = [
    "bloch_dynamics",
    "exact_models",
    "fourier_rpl",
    "quasienergy",
    "resonance",
    "series_limits",
    "specfun",
    "BracketNotFoundError",
    "ContinuityWarning",
    "DegenerateMonodromyError",
    "DomainError",
    "FloquetTlsError",
    "IntegrationError",
    "SeriesInstabilityError",
    "SouthPoleError",
]

__version__ = "0.1.0"
