"""Closed-form oracles: circular polarization, a reverse-engineered control,
and the spin-s quasienergy lift.

For circular polarization (G = F) the rotating frame gives the two periodic
solutions X_pm(t) = +-(F cos wt, F sin wt, w0 - w) with quasienergies
(w +- Omega)/2, Omega = sqrt(F^2 + (w0 - w)^2), and explicit Floquet
spinors.  The second model prescribes the closed orbit

    X(t) = (cos wt sin g, sin wt sin g, cos g),  g = f sin^2(wt/2),

and reverse-engineers the field h = X x X'; the phase function and its
Fourier coefficients come out in Bessel functions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bloch_dynamics import GeneralDrive
from .errors import DomainError
from .specfun import bessel_j


def _require_rpc(params):
    if params.G != params.F:
        raise DomainError(f"circular polarization requires G = F, got G={params.G}, F={params.F}")


def rabi_frequency(params):
    return math.hypot(params.F, params.omega0 - params.omega)


def rpc_trajectory(params, sign=+1):
    """Closed-form periodic orbit, a vectorized callable t -> (..., 3).

    The orbit has radius Omega (it is not normalized to the unit sphere).
    """
    _require_rpc(params)
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    f_amp, w, w0 = params.F, params.omega, params.omega0

    def orbit(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (3,))
        out[..., 0] = sign * f_amp * np.cos(w * t)
        out[..., 1] = sign * f_amp * np.sin(w * t)
        out[..., 2] = sign * (w0 - w)
        return out

    return orbit


@dataclass(frozen=True)
class RpcQuasienergies:
    """Quasienergies of the circular problem with their split.

    eps_d/eps_g belong to the + orbit with the spherical cap measured from
    the north pole; the alternative orientation (natural when the orbit
    circles the southern hemisphere, Z = w0 - w < 0) differs by -omega,
    the same quasienergy mod omega.
    """

    omega: float
    eps_plus: float
    eps_minus: float
    eps_d: float
    eps_g: float


def rpc_quasienergies(params):
    """(eps_plus, eps_minus) = ((w + Omega)/2, (w - Omega)/2) with split."""
    _require_rpc(params)
    w, w0, f_amp = params.omega, params.omega0, params.F
    big_omega = rabi_frequency(params)
    if big_omega == 0:
        raise DomainError("Omega = 0: degenerate circular problem")
    eps_plus = 0.5 * (w + big_omega)
    eps_minus = 0.5 * (w - big_omega)
    # split of eps_plus: energy average and omega/(4 pi) x solid angle
    eps_d = (f_amp**2 + w0 * (w0 - w)) / (2.0 * big_omega)
    eps_g = w * (big_omega - w0 + w) / (2.0 * big_omega)
    return RpcQuasienergies(
        omega=w, eps_plus=eps_plus, eps_minus=eps_minus, eps_d=eps_d, eps_g=eps_g
    )


def rpc_floquet_states(params, t):
    """The two Floquet spinors psi_pm(t); orthonormal for every t."""
    _require_rpc(params)
    big_omega = rabi_frequency(params)
    if big_omega == 0:
        raise DomainError("Omega = 0: degenerate circular problem")
    w, w0, f_amp = params.omega, params.omega0, params.F
    t = np.asarray(t, dtype=float)
    dp = big_omega + w0 - w  # = Omega - (w - w0) >= 0
    dm = big_omega - w0 + w
    if dp <= 0 or dm <= 0:
        raise DomainError("degenerate spinor normalization (F = 0 on one side)")
    psi_p = np.empty(t.shape + (2,), dtype=complex)
    psi_m = np.empty(t.shape + (2,), dtype=complex)
    psi_p[..., 0] = math.sqrt(dp / (2.0 * big_omega)) * np.exp(-0.5j * t * (w + big_omega))
    psi_p[..., 1] = f_amp / math.sqrt(2.0 * big_omega * dp) * np.exp(0.5j * t * (w - big_omega))
    psi_m[..., 0] = math.sqrt(dm / (2.0 * big_omega)) * np.exp(-0.5j * t * (w - big_omega))
    psi_m[..., 1] = -f_amp / math.sqrt(2.0 * big_omega * dm) * np.exp(0.5j * t * (w + big_omega))
    return psi_p, psi_m


@dataclass(frozen=True)
class ToyExample:
    """Reverse-engineered control with Bessel-function phase data."""

    f: float
    omega: float

    @property
    def drive(self):
        return GeneralDrive(field_fn=self.field, omega=self.omega)

    def orbit(self, t):
        t = np.asarray(t, dtype=float)
        g = self.f * np.sin(0.5 * self.omega * t) ** 2
        out = np.empty(t.shape + (3,))
        out[..., 0] = np.cos(self.omega * t) * np.sin(g)
        out[..., 1] = np.sin(self.omega * t) * np.sin(g)
        out[..., 2] = np.cos(g)
        return out

    def field(self, t):
        """h = X x X', from the analytic derivative of the orbit."""
        t = np.asarray(t, dtype=float)
        w, f = self.omega, self.f
        wt = w * t
        g = f * np.sin(0.5 * wt) ** 2
        out = np.empty(t.shape + (3,))
        out[..., 0] = -0.5 * w * (f * np.sin(wt) ** 2 + np.cos(wt) * np.sin(2.0 * g))
        out[..., 1] = 0.5 * w * np.sin(wt) * (f * np.cos(wt) - np.sin(2.0 * g))
        out[..., 2] = w * np.sin(g) ** 2
        return out

    def chi(self, t):
        t = np.asarray(t, dtype=float)
        g = self.f * np.sin(0.5 * self.omega * t) ** 2
        return self.omega * np.sin(0.5 * g) ** 2

    @property
    def epsilon(self):
        half_f = 0.5 * self.f
        return 0.5 * self.omega * (1.0 - math.cos(half_f) * bessel_j(0, half_f))

    def b_coefficient(self, n):
        """cos(n w t) Fourier coefficient of chi, n >= 1."""
        if n < 1 or int(n) != n:
            raise DomainError(f"harmonic index must be a positive integer: {n}")
        n = int(n)
        half_f = 0.5 * self.f
        jn = bessel_j(n, half_f)
        if n % 2:
            return self.omega * jn * (-1.0) ** ((n + 1) // 2) * math.sin(half_f)
        return self.omega * jn * (-1.0) ** ((n + 2) // 2) * math.cos(half_f)


def toy_example(f, omega):
    """Closed-orbit model with reverse-engineered field; h . X = 0."""
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    return ToyExample(f=float(f), omega=float(omega))


def lift_spectrum(s, epsilon, omega):
    """Quasienergies {2 eps m mod omega : m = -s..s} of the spin-s lift."""
    two_s = 2 * s
    if two_s < 0 or int(round(two_s)) != two_s:
        raise DomainError(f"spin must be a non-negative half-integer, got {s}")
    two_s = int(round(two_s))
    ms = [(-two_s + 2 * k) / 2.0 for k in range(two_s + 1)]
    return sorted((2.0 * epsilon * m) % omega for m in ms)
