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
through it on the uniform grids.  Fourier averages are taken on uniform
grids (spectrally accurate for smooth periodic integrands), with the grid
doubled until the constant term settles.

Sweeps (:func:`sweep_branches`) on the ODE route integrate their periodic
orbits in batches in s = omega t (:func:`bloch_dynamics.periodic_orbits`);
a point that fails is reported on its own and leaves the other points'
values unchanged.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch_dynamics import DriveParams, periodic_orbit, periodic_orbits
from . import fourier_rpl
from .errors import ContinuityWarning, DomainError, FloquetTlsError, SouthPoleError

_SOUTH_POLE_MARGIN = 1e-6
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

    def phase_integral(self, t):
        """Oscillating part of int_0^t of the series (a0 term excluded)."""
        t = np.asarray(t, dtype=float)
        n = np.arange(1, len(self.cos_coeffs) + 1)
        ang = np.multiply.outer(t, n * self.omega)
        nw = n * self.omega
        value = np.sin(ang) @ (self.cos_coeffs / nw) - np.cos(ang) @ (self.sin_coeffs / nw)
        # integration constant: vanish at t = 0
        return value + np.sum(self.sin_coeffs / nw)


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
        return cls(
            epsilon=eps_raw,
            epsilon_mod=eps_raw - branch * omega,
            eps_g=eps_raw - eps_d,
            eps_d=eps_d,
            branch=branch,
            method=method,
            omega=omega,
        )

    def shifted(self, k):
        """Same physical state reported on the branch epsilon + k omega.

        The shift is carried by the geometric part so epsilon = g + d and
        d(eps)/d(omega) = eps_g / omega keep holding on the new branch.
        """
        return QuasienergyResult(
            epsilon=self.epsilon + k * self.omega,
            epsilon_mod=self.epsilon_mod,
            eps_g=self.eps_g + k * self.omega,
            eps_d=self.eps_d,
            branch=self.branch + k,
            method=self.method,
            omega=self.omega,
        )

    def mirrored(self):
        """Branch data of the antipodal orbit: eps -> -eps, d -> -d."""
        return QuasienergyResult.from_raw(-self.epsilon, -self.eps_d, self.omega, self.method)


@dataclass
class FloquetState:
    """Periodic factor u(t) of a Floquet solution psi = u exp(-i eps t)."""

    times: np.ndarray
    u: np.ndarray  # shape (M, 2), u at the sample times
    epsilon: float
    omega: float
    residual: float = 0.0  # max pointwise Schroedinger residual


def _drive_omega(drive):
    return float(drive.omega)


def _orbit_grid(orbit, period, m):
    ts = np.arange(m) * (period / m)
    sample = getattr(orbit, "sample", None)
    xs = np.asarray(sample(m) if sample is not None else orbit(ts), dtype=float)
    if xs.shape != (m, 3):
        raise DomainError(f"orbit must map (m,) times to (m, 3) states, got {xs.shape}")
    return ts, xs


def _chi_samples(orbit, drive, m):
    ts, xs = _orbit_grid(orbit, drive.T, m)
    hs = np.asarray(drive.field(ts), dtype=float)
    r = np.linalg.norm(xs, axis=-1)
    radius = r.mean()
    denom = radius + xs[..., 2]
    if denom.min() <= _SOUTH_POLE_MARGIN * radius:
        raise SouthPoleError(
            "orbit passes within 1e-6 R of the south pole; "
            "use the antipodal orbit -X(t) and map eps -> -eps mod omega"
        )
    chi = 0.5 * (hs[..., 2] + (hs[..., 0] * xs[..., 0] + hs[..., 1] * xs[..., 1]) / denom)
    return ts, xs, hs, radius, chi


def _series_from_samples(values, omega, harmonics):
    m = len(values)
    spec = np.fft.rfft(values) / m
    nmax = min(harmonics, m // 2 - 1)
    cos = 2.0 * spec[1 : nmax + 1].real
    sin = -2.0 * spec[1 : nmax + 1].imag
    return TrigSeries(omega=omega, a0=spec[0].real, cos_coeffs=cos, sin_coeffs=sin)


def chi_series(orbit, drive, harmonics=64):
    """Fourier series of chi along the orbit, constant term = quasienergy.

    The sampling grid is doubled until the constant term changes by less
    than 1e-10.
    """
    m = max(_MIN_GRID, 4 * harmonics)
    _, _, _, _, chi = _chi_samples(orbit, drive, m)
    series = _series_from_samples(chi, _drive_omega(drive), harmonics)
    while m < _MAX_GRID:
        m *= 2
        _, _, _, _, chi = _chi_samples(orbit, drive, m)
        refined = _series_from_samples(chi, _drive_omega(drive), harmonics)
        if abs(refined.a0 - series.a0) < _A0_SETTLE:
            return refined
        series = refined
    return series


def split_geometric_dynamic(orbit, drive, grid=4096):
    """Time averages of the geometric and dynamical parts of chi.

    eps_d averages (h . X)/(2R); eps_g averages (X Y' - Y X')/(2R(R+Z))
    with the derivatives taken spectrally.  Their sum reproduces the
    quasienergy of :func:`chi_series` up to quadrature error.
    """
    ts, xs, hs, radius, _ = _chi_samples(orbit, drive, grid)
    eps_d = float(np.mean(np.sum(hs * xs, axis=-1)) / (2.0 * radius))
    m = grid
    freqs = 2j * math.pi * np.fft.rfftfreq(m, d=drive.T / m)
    dx = np.fft.irfft(np.fft.rfft(xs[:, 0]) * freqs, n=m)
    dy = np.fft.irfft(np.fft.rfft(xs[:, 1]) * freqs, n=m)
    num = xs[:, 0] * dy - xs[:, 1] * dx
    eps_g = float(np.mean(num / (2.0 * radius * (radius + xs[:, 2]))))
    return eps_g, eps_d


def quasienergy_classical(orbit, drive, method="ode", harmonics=64):
    """Quasienergy of a periodic classical orbit, with split attached.

    If the orbit passes too close to the south pole the antipodal orbit is
    used instead and the result mapped back (eps -> -eps, eps_d -> -eps_d).
    """
    try:
        series = chi_series(orbit, drive, harmonics=harmonics)
        _, eps_d = split_geometric_dynamic(orbit, drive)
        return QuasienergyResult.from_raw(series.a0, eps_d, _drive_omega(drive), method)
    except SouthPoleError:
        if hasattr(orbit, "antipode"):
            flipped = orbit.antipode()
        else:
            def flipped(t):
                return -np.asarray(orbit(t))

        series = chi_series(flipped, drive, harmonics=harmonics)
        _, eps_d = split_geometric_dynamic(flipped, drive)
        res = QuasienergyResult.from_raw(series.a0, eps_d, _drive_omega(drive), method)
        return res.mirrored()


def floquet_state(orbit, drive, grid=4096, harmonics=256):
    """Floquet solution u(t) exp(-i eps t) reconstructed from the orbit.

    Builds the Bloch-sphere section, integrates the chi series for the
    phase, and reports the maximal pointwise Schroedinger residual checked
    by spectral differentiation.
    """
    ts, xs, hs, radius, chi = _chi_samples(orbit, drive, grid)
    series = _series_from_samples(chi, _drive_omega(drive), harmonics)
    denom = radius + xs[:, 2]
    phi = np.empty((grid, 2), dtype=complex)
    norm = 1.0 / np.sqrt(2.0 * radius * denom)
    phi[:, 0] = norm * denom
    phi[:, 1] = norm * (xs[:, 0] + 1j * xs[:, 1])
    osc = series.phase_integral(ts)
    u = np.exp(-1j * osc)[:, None] * phi
    eps = series.a0

    # residual of (H - eps) u - i u' via spectral differentiation
    freqs = 2j * math.pi * np.fft.fftfreq(grid, d=drive.T / grid)
    du = np.stack(
        [np.fft.ifft(np.fft.fft(u[:, j]) * freqs) for j in (0, 1)], axis=-1
    )
    hu = np.empty_like(u)
    hu[:, 0] = 0.5 * (hs[:, 2] * u[:, 0] + (hs[:, 0] - 1j * hs[:, 1]) * u[:, 1])
    hu[:, 1] = 0.5 * ((hs[:, 0] + 1j * hs[:, 1]) * u[:, 0] - hs[:, 2] * u[:, 1])
    res = hu - eps * u - 1j * du
    residual = float(np.linalg.norm(res, axis=-1).max())
    return FloquetState(times=ts, u=u, epsilon=eps, omega=_drive_omega(drive), residual=residual)


def grad_omega0(orbit, drive, grid=4096):
    """d(eps)/d(omega0) = mean(Z) / (2R) along the periodic orbit."""
    _, xs = _orbit_grid(orbit, drive.T, grid)
    radius = np.linalg.norm(xs, axis=-1).mean()
    return float(xs[:, 2].mean() / (2.0 * radius))


def grad_f(orbit, drive, grid=4096):
    """d(eps)/dF = x_c / 4, the cos(wt) coefficient of X(t)/R."""
    _, xs = _orbit_grid(orbit, drive.T, grid)
    radius = np.linalg.norm(xs, axis=-1).mean()
    spec = np.fft.rfft(xs[:, 0] / radius) / grid
    return float(2.0 * spec[1].real / 4.0)


def grad_g(orbit, drive, grid=4096):
    """d(eps)/dG = y_s / 4, the sin(wt) coefficient of Y(t)/R."""
    _, xs = _orbit_grid(orbit, drive.T, grid)
    radius = np.linalg.norm(xs, axis=-1).mean()
    spec = np.fft.rfft(xs[:, 1] / radius) / grid
    return float(-2.0 * spec[1].imag / 4.0)


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


def quasienergy_at(params, method="auto", n_trunc=20, tol=1e-12):
    """Quasienergy at a single parameter point.

    method 'fourier' (linear drive only) evaluates the truncated Fourier
    solution; 'ode' integrates the equation of motion; 'auto' picks
    'fourier' for G = 0 and 'ode' otherwise.
    """
    if method == "auto":
        method = "fourier" if params.G == 0 else "ode"
    if method == "fourier" and params.G != 0:
        raise DomainError("fourier route requires G = 0")
    if method not in ("fourier", "ode"):
        raise DomainError(f"unknown method {method!r}")
    if method == "fourier":
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
    the first such error is raised.
    """
    if method == "auto":
        method = "fourier" if params_base.G == 0 else "ode"
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
