"""Quasienergies and Floquet states reconstructed from periodic orbits.

A normalized T-periodic solution X(t) of the classical equation of motion
determines a Floquet solution of the two-level Schroedinger equation.  The
section

    phi(t) = (R + Z, X + iY)^T / sqrt(2 R (R + Z))

differs from a true solution by the phase exp(-i alpha(t)) with
alpha' = chi(X(t)) = (h3 + (h1 X + h2 Y)/(R + Z)) / 2, and the quasienergy
is the time average of chi.  chi splits pointwise into a dynamical part
(h . X)/(2R) (energy expectation) and a geometric part
(X Y' - Y X')/(2R(R+Z)) whose average is omega/(4 pi) times the solid angle
enclosed by the orbit.

Orbits are passed as vectorized callables t -> (..., 3); trajectories from
the ODE route, truncated Fourier solutions and closed-form orbits all
qualify.  An orbit that also has a method ``sample(m)``, such as a truncated
Fourier solution (one inverse FFT in place of a harmonic sum per time) or a
periodic orbit of the ODE route (a grid shared by its batch), is sampled
through it.  Every average over the orbit (the quasienergy, its split and
the Floquet state's phase) reads one settled uniform grid, spectrally
accurate for smooth periodic integrands and sampled once: 2048 points,
doubled up to 65536 only while the mean of chi still differs by 1e-10 from
its mean on the grid of half the size; a grid still unsettled at 65536
raises SeriesInstabilityError.  eps_d, the mean of a trigonometric
polynomial of degree N + 1, is exact on such a grid for N + 1 < 2048.  The
gradients, which do not involve chi, read X/R on 2048 points.

chi is singular at the south pole, R + Z = 0.  :func:`quasienergy_classical`
averages an orbit that comes within 1e-3 R of it on the section with its pole
at +z, chi_+ = ((h1 X + h2 Y)/(R - Z) - h3) / 2, and reports the -z branch
mean(chi_+) + n omega, n the counter-clockwise turns of arg(X + iY) over one
period.  :func:`chi_series`, :func:`split_geometric_dynamic` and
:func:`floquet_state` keep the -z section and raise SouthPoleError.

Sweeps (:func:`sweep_branches`) on the ODE route integrate their periodic
orbits in batches in s = omega t (:func:`bloch_dynamics.periodic_orbits`);
a point that fails is reported on its own and leaves the other points'
values unchanged.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bloch_dynamics import DriveParams, periodic_orbit, periodic_orbits
from . import fourier_rpl
from .errors import (
    ContinuityWarning,
    DomainError,
    FloquetTlsError,
    SeriesInstabilityError,
    SouthPoleError,
)

_SOUTH_POLE_MARGIN = 1e-3
_A0_SETTLE = 1e-10
_MIN_GRID = 1024
_MAX_GRID = 1 << 16


@dataclass
class TrigSeries:
    """Finite real trigonometric series a0 + sum c_n cos + s_n sin (n w t)."""

    omega: float
    a0: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        n = np.arange(1, len(self.cos_coeffs) + 1)
        ang = np.multiply.outer(t, n * self.omega)
        return self.a0 + np.cos(ang) @ self.cos_coeffs + np.sin(ang) @ self.sin_coeffs


@dataclass
class QuasienergyResult:
    """Quasienergy with branch bookkeeping and its geometric/dynamical split."""

    epsilon: float
    epsilon_mod: float
    eps_g: float
    eps_d: float
    branch: int
    method: str
    omega: float = 0.0

    @classmethod
    def from_raw(cls, eps_raw, eps_d, omega, method):
        branch = math.floor(eps_raw / omega)
        return cls(eps_raw, eps_raw - branch * omega, eps_raw - eps_d, eps_d, branch, method, omega)

    def shifted(self, k):
        """Same physical state reported on the branch epsilon + k omega.

        The shift is carried by the geometric part so epsilon = g + d and
        d(eps)/d(omega) = eps_g / omega keep holding on the new branch.
        """
        shift = k * self.omega
        return replace(
            self, epsilon=self.epsilon + shift, eps_g=self.eps_g + shift, branch=self.branch + k
        )

    def mirrored(self):
        """Branch data of the mirrored orbit -X(t): eps -> -eps, d -> -d."""
        return QuasienergyResult.from_raw(-self.epsilon, -self.eps_d, self.omega, self.method)


@dataclass
class FloquetState:
    """Periodic factor u(t) of a Floquet solution psi = u exp(-i eps t).

    ``times`` is the settled grid of the orbit's chi (see the module notes).
    """

    times: np.ndarray
    u: np.ndarray  # shape (M, 2), u at the sample times
    epsilon: float
    omega: float
    residual: float = 0.0  # max pointwise Schroedinger residual


def _orbit_grid(orbit, period, m):
    ts = np.arange(m) * (period / m)
    sample = getattr(orbit, "sample", None)
    xs = np.asarray(sample(m) if sample is not None else orbit(ts), dtype=float)
    if xs.shape != (m, 3):
        raise DomainError(f"orbit must map (m,) times to (m, 3) states, got {xs.shape}")
    return ts, xs


def _chi_samples(orbit, drive, m, pole=-1):
    """(ts, xs, hs, R, chi, pole): chi at m samples on the section with its pole
    at pole * z; +z negates Z and h3.  pole=None takes +z if these samples come
    within 1e-3 R of -z, and -z otherwise."""
    ts, xs = _orbit_grid(orbit, drive.T, m)
    hs = np.asarray(drive.field(ts), dtype=float)
    radius = np.linalg.norm(xs, axis=-1).mean()
    if pole is None:
        pole = 1 if (radius + xs[..., 2]).min() <= _SOUTH_POLE_MARGIN * radius else -1
    z, h3 = (xs[..., 2], hs[..., 2]) if pole < 0 else (-xs[..., 2], -hs[..., 2])
    denom = radius + z
    if denom.min() <= _SOUTH_POLE_MARGIN * radius:
        raise SouthPoleError(
            f"orbit passes within {_SOUTH_POLE_MARGIN:g} R of the "
            f"{'south' if pole < 0 else 'north'} pole, where its section is singular"
        )
    chi = 0.5 * (h3 + (hs[..., 0] * xs[..., 0] + hs[..., 1] * xs[..., 1]) / denom)
    return ts, xs, hs, radius, chi, pole


def _turns(orbit, period, xs):
    """Counter-clockwise turns of arg(X + iY) over one period, on the grid xs doubled
    until every step is below pi/2; SeriesInstabilityError if one is not at 65536 samples."""
    while True:
        angle = np.arctan2(xs[:, 1], xs[:, 0])
        steps = np.diff(angle, append=angle[0])  # closed: the raw steps sum to 0
        wraps = np.round(steps / (2.0 * math.pi))  # crossings of the branch cut at pi
        if np.abs(steps - 2.0 * math.pi * wraps).max() < 0.5 * math.pi:
            return -int(wraps.sum())
        if len(xs) >= _MAX_GRID:
            raise SeriesInstabilityError(f"winding of arg(X + iY) unresolved on {len(xs)} samples")
        _, xs = _orbit_grid(orbit, period, 2 * len(xs))


def _series_from_samples(values, omega, harmonics):
    m = len(values)
    spec = np.fft.rfft(values) / m
    nmax = min(harmonics, m // 2 - 1)
    cos = 2.0 * spec[1 : nmax + 1].real
    sin = -2.0 * spec[1 : nmax + 1].imag
    return TrigSeries(omega=omega, a0=spec[0].real, cos_coeffs=cos, sin_coeffs=sin)


def _settled_samples(orbit, drive, m, pole=-1):
    """``_chi_samples`` of the first grid of m, 2m, ... 65536 samples on which the
    mean of chi is within 1e-10 of its mean over every second sample.

    The settle test compares means on one grid, so with pole=None each grid
    may choose its own section.  Raises SeriesInstabilityError if the
    65536-sample grid has not settled.
    """
    samples = _chi_samples(orbit, drive, m, pole)
    while (delta := abs(samples[4].mean() - samples[4][::2].mean())) >= _A0_SETTLE:
        if m >= _MAX_GRID:
            raise SeriesInstabilityError(
                f"mean of chi unsettled on {m} samples: "
                f"{delta:.3g} from its mean over every second sample"
            )
        m *= 2
        samples = _chi_samples(orbit, drive, m, pole)
    return samples


def _eps_d(xs, hs, radius):
    """eps_d, the mean of (h . X)/(2R) on a uniform grid."""
    return float(np.mean(np.sum(hs * xs, axis=-1)) / (2.0 * radius))


def chi_series(orbit, drive, harmonics=64):
    """Fourier series of chi along the orbit, constant term = quasienergy.

    Read off the settled grid, starting at 2 max(1024, 4 harmonics) samples.
    """
    chi = _settled_samples(orbit, drive, 2 * max(_MIN_GRID, 4 * harmonics))[4]
    return _series_from_samples(chi, float(drive.omega), harmonics)


def _ddt(values, period):
    """Spectral time derivative, along axis 0, of uniform samples over one period."""
    m = len(values)
    freqs = 2j * math.pi * np.fft.fftfreq(m, d=period / m)
    return np.fft.ifft(np.fft.fft(values, axis=0) * freqs[:, None], axis=0)


def split_geometric_dynamic(orbit, drive):
    """Time averages of the geometric and dynamical parts of chi.

    eps_d averages (h . X)/(2R); eps_g averages (X Y' - Y X')/(2R(R+Z))
    with the derivatives taken spectrally, both on the settled grid of chi.
    Their sum reproduces the quasienergy of :func:`chi_series` up to
    quadrature error.
    """
    _, xs, hs, radius, *_ = _settled_samples(orbit, drive, 2 * _MIN_GRID)
    dx, dy = _ddt(xs[:, :2], drive.T).real.T
    num = xs[:, 0] * dy - xs[:, 1] * dx
    eps_g = float(np.mean(num / (2.0 * radius * (radius + xs[:, 2]))))
    return eps_g, _eps_d(xs, hs, radius)


def quasienergy_classical(orbit, drive, method="ode"):
    """Quasienergy of a periodic classical orbit, with split attached.

    Both averages come from one settled grid: on the +z section, taken to the
    -z branch by the winding of arg(X + iY), if the grid passes within 1e-3 R
    of the south pole, where chi needs ever finer grids to settle.  Each grid
    is sampled once.
    """
    omega = float(drive.omega)
    _, xs, hs, radius, chi, pole = _settled_samples(orbit, drive, 2 * _MIN_GRID, pole=None)
    eps = float(chi.mean())
    if pole > 0:
        eps += _turns(orbit, drive.T, xs) * omega
    return QuasienergyResult.from_raw(eps, _eps_d(xs, hs, radius), omega, method)


def floquet_state(orbit, drive):
    """Floquet solution u(t) exp(-i eps t) reconstructed from the orbit.

    On the settled grid of chi: eps = mean(chi), and the phase of u is the
    spectral integral of chi - eps, zero at t = 0, applied to the
    Bloch-sphere section.  Reports the maximal pointwise Schroedinger
    residual, checked by spectral differentiation.
    """
    ts, xs, hs, radius, chi, _ = _settled_samples(orbit, drive, 2 * _MIN_GRID)
    m = len(ts)
    eps = float(chi.mean())
    spec = np.fft.rfft(chi)
    spec[0] = 0.0
    spec[1:] /= 2j * math.pi * np.fft.rfftfreq(m, d=drive.T / m)[1:]
    osc = np.fft.irfft(spec, n=m)
    denom = radius + xs[:, 2]
    phi = np.stack([denom, xs[:, 0] + 1j * xs[:, 1]], axis=-1)  # the section, unnormalized
    u = (np.exp(-1j * (osc - osc[0])) / np.sqrt(2.0 * radius * denom))[:, None] * phi

    # residual of (H - eps) u - i u'
    hu = np.empty_like(u)
    hu[:, 0] = 0.5 * (hs[:, 2] * u[:, 0] + (hs[:, 0] - 1j * hs[:, 1]) * u[:, 1])
    hu[:, 1] = 0.5 * ((hs[:, 0] + 1j * hs[:, 1]) * u[:, 0] - hs[:, 2] * u[:, 1])
    res = hu - eps * u - 1j * _ddt(u, drive.T)
    residual = float(np.linalg.norm(res, axis=-1).max())
    return FloquetState(times=ts, u=u, epsilon=eps, omega=float(drive.omega), residual=residual)


def _unit_modes(orbit, drive):
    """Mean and first harmonic 2 <X e^(-i w t)> / R of the orbit on 2048 samples."""
    _, xs = _orbit_grid(orbit, drive.T, 2 * _MIN_GRID)
    spec = np.fft.rfft(xs / np.linalg.norm(xs, axis=-1).mean(), axis=0) / len(xs)
    return spec[0].real, 2.0 * spec[1]


def grad_omega0(orbit, drive):
    """d(eps)/d(omega0) = mean(Z) / (2R) along the periodic orbit."""
    return float(_unit_modes(orbit, drive)[0][2] / 2.0)


def grad_f(orbit, drive):
    """d(eps)/dF = x_c / 4, the cos(wt) coefficient of X(t)/R."""
    return float(_unit_modes(orbit, drive)[1][0].real / 4.0)


def grad_g(orbit, drive):
    """d(eps)/dG = y_s / 4, the sin(wt) coefficient of Y(t)/R."""
    return float(-_unit_modes(orbit, drive)[1][1].imag / 4.0)


def grad_omega(result):
    """d(eps)/d(omega) = eps_g / omega on the reported branch."""
    return result.eps_g / result.omega


def shirley_probability(d_eps_d_omega0):
    """Time-averaged transition probability 1/2 (1 - 4 (d eps/d omega0)^2)."""
    d = float(d_eps_d_omega0)
    if abs(d) > 0.5:
        raise DomainError(
            f"|d eps/d omega0| = {abs(d)} exceeds 1/2; orbit is not normalized"
        )
    return 0.5 * (1.0 - 4.0 * d * d)


def euler_residual(params, grads, epsilon):
    """|eps - (w0 d/dw0 + F d/dF + G d/dG + w d/dw) eps| (degree-1 homogeneity)."""
    total = (
        params.omega0 * grads["omega0"]
        + params.F * grads["F"]
        + params.G * grads["G"]
        + params.omega * grads["omega"]
    )
    return abs(epsilon - total)


def _route(params, method):
    """'fourier' or 'ode' for ``method`` at ``params``, 'auto' resolved by G."""
    if method == "auto":
        return "fourier" if params.G == 0 else "ode"
    if method not in ("fourier", "ode"):
        raise DomainError(f"unknown method {method!r}")
    if method == "fourier" and params.G != 0:
        raise DomainError("fourier route requires G = 0")
    return method


def quasienergy_at(params, method="auto", n_trunc=20, tol=1e-12):
    """Quasienergy at a single parameter point.

    method 'fourier' (linear drive only) evaluates the truncated Fourier
    solution; 'ode' integrates the equation of motion; 'auto' picks
    'fourier' for G = 0 and 'ode' otherwise.
    """
    if _route(params, method) == "fourier":
        sol = fourier_rpl.solve_auto(params, "phi1", start=n_trunc).normalized()
        return quasienergy_classical(sol, params, method="fourier")
    return quasienergy_classical(periodic_orbit(params, tol=tol), params, method="ode")


def sweep_branches(
    params_base, omega_grid, method="auto", n_trunc=20, tol=1e-12, on_error=None
):
    """Quasienergies along an omega sweep, continued into smooth branches.

    On the ODE route the periodic orbits of the whole grid are integrated in
    batches in s = omega t (:func:`bloch_dynamics.periodic_orbits`); on the
    Fourier route each point is solved by :func:`quasienergy_at`.  The
    reported branch is chosen from the candidates {eps_mod + k w} and
    {-eps_mod + k w}, k = -2..2, nearest to the previous point (minimal
    jump).  A ContinuityWarning is issued when the smallest jump exceeds
    omega/4.

    Failures are reported per point.  With ``on_error``, a point that
    raises a FloquetTlsError is None in the returned list,
    ``on_error(omega, exc)`` is called for it in grid order, and the
    continuation goes on from the last point that succeeded.  Without it
    the first such error is raised.  An unknown method, or G != 0 on the
    Fourier route, raises DomainError before any point.
    """
    method = _route(params_base, method)
    if method == "fourier" and n_trunc < 2:
        raise DomainError(f"truncation order must be >= 2, got {n_trunc}")
    omegas = [float(w) for w in omega_grid]
    results = []
    prev = None
    for omega, point in zip(omegas, _sweep_points(params_base, omegas, method, n_trunc, tol)):
        if isinstance(point, FloquetTlsError):
            if on_error is None:
                raise point
            on_error(omega, point)
            results.append(None)
            continue
        if prev is not None:
            point = continue_branch(point, prev)
        results.append(point)
        prev = point
    return results


def _sweep_points(base, omegas, method, n_trunc, tol):
    """Each point's QuasienergyResult or FloquetTlsError, in grid order."""
    if method == "ode":
        orbits = periodic_orbits(base.omega0, base.F, base.G, omegas, tol=tol)
    else:
        orbits = [None] * len(omegas)  # solved point by point below
    for omega, orbit in zip(omegas, orbits):
        if isinstance(orbit, FloquetTlsError):
            yield orbit
            continue
        try:
            params = DriveParams(base.omega0, base.F, base.G, omega)
            if orbit is None:
                point = quasienergy_at(params, method=method, n_trunc=n_trunc, tol=tol)
            else:
                point = quasienergy_classical(orbit, params, method="ode")
        except FloquetTlsError as exc:
            point = exc
        yield point


def continue_branch(point, prev):
    """Representative of ``point`` (own or mirrored family) nearest ``prev``."""
    best = None
    best_dist = math.inf
    for cand_base in (point, point.mirrored()):
        base_k = math.floor((prev.epsilon - cand_base.epsilon) / cand_base.omega + 0.5)
        for k in range(base_k - 2, base_k + 3):
            cand = cand_base.shifted(k)
            dist = abs(cand.epsilon - prev.epsilon)
            if dist < best_dist:
                best, best_dist = cand, dist
    if best_dist > point.omega / 4.0:
        warnings.warn(
            f"branch continuation jump {best_dist:.3e} exceeds omega/4",
            ContinuityWarning,
        )
    return best
