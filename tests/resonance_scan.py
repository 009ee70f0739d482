"""Determinant-scan reference for the resonances of floquet_tls.resonance.

``root`` finds the n-th resonance at one amplitude without the odd-mode
eigenproblem.  The sign of det A^(N)(omega), each from the scalar minors
ladder ``minors(build_system(...)).slog2()``, is scanned down a log grid
to its n-th sign change, and that bracket is refined by
``scipy.optimize.brentq``.  The package takes every resonance from the
eigen route; both must give the same roots.
"""

import functools

import numpy as np
from scipy.optimize import brentq

from floquet_tls.bloch_dynamics import DriveParams
from floquet_tls.fourier_rpl import build_system, minors
from floquet_tls.resonance import resonance_interpolation


def _slog2(f_amp, omega0, n_trunc, omega):
    params = DriveParams(omega0=omega0, F=f_amp, G=0.0, omega=omega)
    return minors(build_system(params, n_trunc)).slog2()


def _refine(f_amp, omega0, n_trunc, lo, hi):
    """The root of det A^(N) in the sign-change bracket [lo, hi], to 1e-12 absolute.

    Brent's method reads det A^(N) over |det A^(N)(lo)|, its exponent
    clamped to +-1000 so that no value overflows or underflows to zero.
    """
    ref = _slog2(f_amp, omega0, n_trunc, lo)[1]

    def det(omega):
        sign, log2_abs = _slog2(f_amp, omega0, n_trunc, omega)
        return sign * 2.0 ** min(max(log2_abs - ref, -1000.0), 1000.0)

    return brentq(det, lo, hi, xtol=1e-12, rtol=4 * np.finfo(float).eps)


@functools.cache
def root(n, f_amp, omega0=1.0, n_trunc=50):
    """The n-th largest positive root of det A^(N)(omega) at amplitude f_amp.

    The grid has max(1200, 250 (n + 2)) log-spaced points.  It runs from
    0.45 omega0/(2n+1), below the (n+1)-th curve, up to 1.8 times the first
    curve's interpolation F/j_{0,1} + omega0, above every curve, and is
    scanned from the top.  A grid point where the sign is 0 is a root.
    """
    lo = 0.45 * omega0 / (2 * n + 1)
    hi = 1.8 * resonance_interpolation(1, f_amp, omega0)
    grid = np.geomspace(lo, hi, max(1200, 250 * (n + 2))).tolist()
    found, above, above_sign = 0, None, 0.0
    for omega in reversed(grid):
        sign = _slog2(f_amp, omega0, n_trunc, omega)[0]
        if sign == 0.0 or above_sign * sign < 0:
            found += 1
            if found == n:
                return omega if sign == 0.0 else _refine(f_amp, omega0, n_trunc, omega, above)
        above, above_sign = omega, sign
    raise AssertionError(f"{found} roots of det A^(N) on [{lo}, {hi}], resonance {n} wanted")
