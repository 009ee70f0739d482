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
qualify.  An orbit that also has a method ``sample(m)``, such as a periodic
orbit of the ODE route (a grid shared by its batch), is sampled through it,
and truncated Fourier solutions by one inverse FFT
(:func:`fourier_rpl.sample_grid`).  Every average over an orbit (the
quasienergy, its split and the Floquet state's phase) reads one settled
uniform grid, spectrally accurate for smooth periodic integrands and sampled
once.  The grid starts at 2048 points, and a quasienergy of a truncated
Fourier solution of order N at the smallest power of two >= 8 (N + 1),
clamped to [64, 2048]; it doubles up to 65536 only while the mean of chi
still differs by 1e-10 from its mean on the grid of half the size, and a
grid still unsettled at 65536 raises SeriesInstabilityError.  Every grid is
sampled afresh, so an orbit that settles only on 2048 points or more gives
the same values whatever its start.  eps_d, the mean of a trigonometric
polynomial of degree N + 1, is exact on any grid of more than N + 1 points,
so on every grid of a Fourier solution.  The gradients, which do not
involve chi, read X/R on 2048 points.

The drive (F cos wt, G sin wt, omega0) obeys h(t + T/2) = R_z(pi) h(t),
R_z(pi) = diag(-1, -1, 1), and so do its periodic orbits, so chi and h . X
have period T/2.  A quasienergy of a truncated Fourier solution or of an ODE
periodic orbit in such a drive reads the first half period, the m/2 samples
t_j = j T / m, j < m/2, with m still counting samples per period.  Other
orbits, and chi_series, the split and the Floquet state, read whole periods.

chi is singular at the south pole, R + Z = 0.  :func:`quasienergy_classical`
averages an orbit that comes within 1e-3 R of it on the section with its pole
at +z, chi_+ = ((h1 X + h2 Y)/(R - Z) - h3) / 2, and reports the -z branch
mean(chi_+) + n omega, n the counter-clockwise turns of arg(X + iY) over one
period.  :func:`chi_series`, :func:`split_geometric_dynamic` and
:func:`floquet_state` keep the -z section and raise SouthPoleError.

One loop settles every average (:func:`_settle`), on grids of shape
(rows, 3, m): a lone orbit is a block of one row, and a sweep
(:func:`sweep_branches`) a sequence of blocks.  On the ODE route a block is
one batch of up to 16 orbits integrated in s = omega t
(:func:`bloch_dynamics.periodic_orbits`); on the Fourier route it is up to
256 points whose truncations are solved together
(:func:`fourier_rpl._solve_sweep`: one array ladder for the points that share
a probe order) and whose grids come from inverse FFTs.  A row joins
the doubling at its own start, and only the rows that have not settled
double their grid, at most 16 x 2048 samples at a time.  A row's values are
reductions over its own samples, and a Fourier solution is its point's own
whether it came from an array ladder or not, so a sweep row equals
:func:`quasienergy_at` at its point bit for bit, and a point that fails is
reported on its own.  chi and eps_d do not change when X
is scaled by a positive factor, so a Fourier solution is averaged
unnormalized.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch_dynamics import BATCH_SIZE, DriveParams, PeriodicOrbit, periodic_orbits
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
# the smallest grid a quasienergy of a truncated Fourier solution starts on
_MIN_START = 64
# the most points of a Fourier sweep solved, held and averaged at once
_SOLVE_CHUNK = 16 * BATCH_SIZE


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
        return QuasienergyResult(self.epsilon + shift, self.epsilon_mod, self.eps_g + shift,
                                 self.eps_d, self.branch + k, self.method, self.omega)

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
    """The orbit's states (3, m) at t_j = j T / m, j = 0..m-1."""
    sample = getattr(orbit, "sample", None)
    xs = sample(m) if sample is not None else orbit(np.arange(m) * (period / m))
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (m, 3):
        raise DomainError(f"orbit must map (m,) times to (m, 3) states, got {xs.shape}")
    return xs.T


def _grids(orbits, period=None, half=False):
    """(grid, starts): grid(rows, m), the states (len(rows), 3, n) of orbits[k], k in rows,
    at t_j = j T / m, j < n, and starts[k], the grid orbit k's quasienergy starts on.

    n = m: one inverse FFT for truncated Fourier solutions, else :func:`_orbit_grid`.
    With ``half`` the orbits known to obey X(t + T/2) = R_z(pi) X(t), truncated Fourier
    solutions and ODE periodic orbits, give the first half period, n = m/2.
    A truncated Fourier solution of order N starts on the smallest power of two
    >= 8 (N + 1), clamped to [64, 2048]; every other orbit on 2048.
    """
    starts = [
        min(2 * _MIN_GRID, max(_MIN_START, 1 << (8 * orbit.N + 7).bit_length()))
        if isinstance(orbit, fourier_rpl.RplFourierSolution)
        else 2 * _MIN_GRID
        for orbit in orbits
    ]
    if all(isinstance(orbit, fourier_rpl.RplFourierSolution) for orbit in orbits):
        sample = fourier_rpl.sample_half_grid if half else fourier_rpl.sample_grid
        return (lambda rows, m: sample([orbits[k] for k in rows], m)), starts
    if half and all(isinstance(orbit, PeriodicOrbit) for orbit in orbits):
        return (
            lambda rows, m: np.stack([orbits[k].batch.half_sample(m, orbits[k].index) for k in rows])
        ), starts
    return (lambda rows, m: np.stack([_orbit_grid(orbits[k], period, m) for k in rows])), starts


def _field(drive):
    """(m, n) -> the field (3, n) of drive at t_j = j T / m, j < n."""
    return lambda m, n: np.asarray(drive.field(np.arange(n) * (drive.T / m)), dtype=float).T


def _chi_samples(grid, rows, m, field, flip):
    """(xs, hs, radius, pole, chi, near) of the orbits ``rows`` of grid on m samples.

    The states xs (rows, 3, n) of the grid, n = m or m/2, and the field hs (3, n)
    give each row's mean radius R and chi on the section with its pole at pole * z (+z negates Z
    and h3): -z, or with ``flip`` +z for a row within 1e-3 R of -z.  ``near``
    marks the rows within 1e-3 R of their pole, where chi is not to be used.
    Every reduction runs over the last axis, so a row's values do not depend
    on the other rows.
    """
    xs = grid(rows, m)
    hs = field(m, xs.shape[-1])
    radius = np.sqrt(np.sum(xs * xs, axis=-2)).mean(axis=-1)
    near = (radius[:, None] + xs[:, 2]).min(axis=-1) <= _SOUTH_POLE_MARGIN * radius
    pole = np.where(near & flip, 1.0, -1.0)
    denom = radius[:, None] - pole[:, None] * xs[:, 2]
    near = denom.min(axis=-1) <= _SOUTH_POLE_MARGIN * radius
    with np.errstate(divide="ignore", invalid="ignore"):  # only where near
        chi = 0.5 * ((hs[0] * xs[:, 0] + hs[1] * xs[:, 1]) / denom - pole[:, None] * hs[2])
    return xs, hs, radius, pole, chi, near


def _turns(grid, k, xs, half=False):
    """Counter-clockwise turns of arg(X + iY) of orbit k of grid over one period, on
    its states xs (3, m) doubled until every step is below pi/2;
    SeriesInstabilityError if one is not at 65536 samples.  With ``half`` xs is the
    first half period, closed onto R_z(pi) of its first state, a step of pi mod 2 pi,
    and the period winds twice the half: 1 - 2 (wraps) times, an odd count.
    """
    while True:
        angle = np.arctan2(xs[1], xs[0])
        steps = np.diff(angle, append=angle[0] + math.pi if half else angle[0])  # sum pi or 0
        wraps = np.round(steps / (2.0 * math.pi))  # crossings of the branch cut at pi
        if np.abs(steps - 2.0 * math.pi * wraps).max() < 0.5 * math.pi:
            return 1 - 2 * int(wraps.sum()) if half else -int(wraps.sum())
        m = xs.shape[-1] * (2 if half else 1)
        if m >= _MAX_GRID:
            raise SeriesInstabilityError(f"winding of arg(X + iY) unresolved on {m} samples")
        xs = grid([k], 2 * m)[0]


def _settle(grid, starts, field, flip=False):
    """Yield (k, (xs, hs, radius, chi, turns, mean, eps_d)) for each orbit k of grid once its
    grid has settled, or (k, the FloquetTlsError of orbit k).

    Orbit k's grid of starts[k], 2 starts[k], ... 65536 samples has settled when
    the mean of chi on it is within 1e-10 of its mean over every second sample.
    On each size the orbits starting there and those that have not settled on
    the size below are sampled together, so the starts are min(starts) times
    powers of two.  Each grid is sampled once and chooses its section as
    :func:`_chi_samples`; ``turns`` is the winding of a +z row and 0 on -z;
    ``mean`` and ``eps_d``, the means of chi and (h . X)/(2R), are reduced for
    a whole chunk at once.  At most max(1, 16 * 2048 / m) orbits are sampled at
    once, so a request never holds more than 16 grids of 2048 samples.  An
    orbit with R = 0, the zero solution, fails with DomainError.
    """
    rows, m = [], min(starts, default=0)
    while rows or any(start >= m for start in starts):
        rows = sorted(rows + [k for k, start in enumerate(starts) if start == m])
        later = []
        size = max(1, BATCH_SIZE * 2 * _MIN_GRID // m)
        for chunk in (rows[lo : lo + size] for lo in range(0, len(rows), size)):
            xs, hs, radius, pole, chi, near = _chi_samples(grid, chunk, m, field, flip)
            mean = chi.mean(axis=-1)
            delta = np.abs(mean - chi[:, ::2].mean(axis=-1))
            with np.errstate(invalid="ignore"):  # NaN only where R = 0
                eps_d = _eps_d(xs, hs, radius)
            for i, k in enumerate(chunk):
                if radius[i] == 0:
                    yield k, DomainError("orbit is the zero solution, R = 0, where chi is undefined")
                elif near[i]:
                    yield k, SouthPoleError(
                        f"orbit passes within {_SOUTH_POLE_MARGIN:g} R of the "
                        f"{'south' if pole[i] < 0 else 'north'} pole, where its section is singular"
                    )
                elif delta[i] < _A0_SETTLE:
                    try:
                        turns = _turns(grid, k, xs[i], xs.shape[-1] < m) if pole[i] > 0 else 0
                    except FloquetTlsError as exc:
                        yield k, exc
                    else:
                        yield k, (xs[i], hs, radius[i], chi[i], turns, mean[i], eps_d[i])
                elif m >= _MAX_GRID:
                    yield k, SeriesInstabilityError(
                        f"mean of chi unsettled on {m} samples: "
                        f"{delta[i]:.3g} from its mean over every second sample"
                    )
                else:
                    later.append(k)
        rows, m = later, 2 * m


def _settled(orbit, drive, m=2 * _MIN_GRID):
    """(xs, hs, radius, chi, turns, mean, eps_d) of the settled -z grid of a lone orbit over
    its whole period, starting on m samples; raises its error."""
    ((_, got),) = _settle(_grids([orbit], drive.T)[0], [m], _field(drive))
    if isinstance(got, FloquetTlsError):
        raise got
    return got


def _quasienergies(orbits, field, omegas, method, period=None, half=False):
    """QuasienergyResult or FloquetTlsError of each orbit, in order, each averaged from
    its own start on the grids of :func:`_grids`."""
    grid, starts = _grids(orbits, period, half)
    points = [None] * len(omegas)
    for k, got in _settle(grid, starts, field, flip=True):
        if not isinstance(got, FloquetTlsError):
            *_, turns, mean, eps_d = got
            got = QuasienergyResult.from_raw(
                float(mean) + turns * omegas[k], float(eps_d), omegas[k], method
            )
        points[k] = got
    return points


def _series_from_samples(values, omega, harmonics):
    m = len(values)
    spec = np.fft.rfft(values) / m
    nmax = min(harmonics, m // 2 - 1)
    cos = 2.0 * spec[1 : nmax + 1].real
    sin = -2.0 * spec[1 : nmax + 1].imag
    return TrigSeries(omega=omega, a0=spec[0].real, cos_coeffs=cos, sin_coeffs=sin)


def _eps_d(xs, hs, radius):
    """eps_d, the mean of (h . X)/(2R), of orbit grids xs (..., 3, m) in the field hs (3, m)."""
    return np.mean(np.sum(hs * xs, axis=-2), axis=-1) / (2.0 * radius)


def chi_series(orbit, drive, harmonics=64):
    """Fourier series of chi along the orbit, constant term = quasienergy.

    Read off the settled grid, starting at 2 max(1024, 4 harmonics) samples.
    """
    chi = _settled(orbit, drive, 2 * max(_MIN_GRID, 4 * harmonics))[3]
    return _series_from_samples(chi, float(drive.omega), harmonics)


def _ddt(values, period):
    """Spectral time derivative, along the last axis, of uniform samples over one period."""
    m = values.shape[-1]
    freqs = 2j * math.pi * np.fft.fftfreq(m, d=period / m)
    return np.fft.ifft(np.fft.fft(values, axis=-1) * freqs, axis=-1)


def split_geometric_dynamic(orbit, drive):
    """Time averages of the geometric and dynamical parts of chi.

    eps_d averages (h . X)/(2R); eps_g averages (X Y' - Y X')/(2R(R+Z))
    with the derivatives taken spectrally, both on the settled grid of chi.
    Their sum reproduces the quasienergy of :func:`chi_series` up to
    quadrature error.
    """
    xs, hs, radius, *_, eps_d = _settled(orbit, drive)
    dx, dy = _ddt(xs[:2], drive.T).real
    num = xs[0] * dy - xs[1] * dx
    eps_g = float(np.mean(num / (2.0 * radius * (radius + xs[2]))))
    return eps_g, float(eps_d)


def quasienergy_classical(orbit, drive, method="ode"):
    """Quasienergy of a periodic classical orbit, with split attached.

    The orbit is averaged as a block of one row (see the module notes).
    Both averages come from one settled grid: on the +z section, taken to the
    -z branch by the winding of arg(X + iY), if the grid passes within 1e-3 R
    of the south pole, where chi needs ever finer grids to settle.
    """
    (point,) = _quasienergies(
        [orbit], _field(drive), [float(drive.omega)], method, drive.T, isinstance(drive, DriveParams)
    )
    if isinstance(point, FloquetTlsError):
        raise point
    return point


def floquet_state(orbit, drive):
    """Floquet solution u(t) exp(-i eps t) reconstructed from the orbit.

    On the settled grid of chi: eps = mean(chi), and the phase of u is the
    spectral integral of chi - eps, zero at t = 0, applied to the
    Bloch-sphere section.  Reports the maximal pointwise Schroedinger
    residual, checked by spectral differentiation.
    """
    xs, hs, radius, chi, _, eps, _ = _settled(orbit, drive)
    m = len(chi)
    ts = np.arange(m) * (drive.T / m)
    eps = float(eps)
    spec = np.fft.rfft(chi)
    spec[0] = 0.0
    spec[1:] /= 2j * math.pi * np.fft.rfftfreq(m, d=drive.T / m)[1:]
    osc = np.fft.irfft(spec, n=m)
    denom = radius + xs[2]
    phi = np.stack([denom, xs[0] + 1j * xs[1]])  # the section, unnormalized
    u = np.exp(-1j * (osc - osc[0])) / np.sqrt(2.0 * radius * denom) * phi

    # residual of (H - eps) u - i u'
    hu = 0.5 * np.stack(
        [
            hs[2] * u[0] + (hs[0] - 1j * hs[1]) * u[1],
            (hs[0] + 1j * hs[1]) * u[0] - hs[2] * u[1],
        ]
    )
    res = hu - eps * u - 1j * _ddt(u, drive.T)
    residual = float(np.linalg.norm(res, axis=0).max())
    return FloquetState(times=ts, u=u.T, epsilon=eps, omega=float(drive.omega), residual=residual)


def _unit_modes(orbit, drive):
    """Mean and first harmonic 2 <X e^(-i w t)> / R of the orbit on 2048 samples."""
    xs = _orbit_grid(orbit, drive.T, 2 * _MIN_GRID)
    spec = np.fft.rfft(xs / np.linalg.norm(xs, axis=0).mean(), axis=-1) / xs.shape[-1]
    return spec[:, 0].real, 2.0 * spec[:, 1]


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
    (point,) = _sweep_points(params, [params.omega], _route(params, method), n_trunc, tol)
    if isinstance(point, FloquetTlsError):
        raise point
    return point


def sweep_branches(
    params_base, omega_grid, method="auto", n_trunc=20, tol=1e-12, on_error=None
):
    """Quasienergies along an omega sweep, continued into smooth branches.

    The orbits are averaged in blocks (see the module notes): up to 16 rows
    on the ODE route, up to 256 on the Fourier route, where each point's
    truncation order is the one :func:`fourier_rpl.solve_auto` chooses, found
    for a block's points at once by :func:`fourier_rpl._solve_sweep`.  Before
    continuation a row equals :func:`quasienergy_at` at its point bit for
    bit.  The reported branch is the candidate nearest to the previous point
    (minimal jump) among +-epsilon + k w, k within two of the branch nearest
    that point (:func:`continue_branch`).  A ContinuityWarning is issued when
    the smallest jump exceeds omega/4.

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
    """Each point's QuasienergyResult or FloquetTlsError, in grid order.

    The orbits are averaged a block at a time by :func:`_quasienergies`, each
    row from its own start (:func:`_grids`): a Fourier row from the grid its
    truncation order gives, an ODE row from 2048 samples.  On the grid
    s_j = 2 pi j / m every row sees the same field (F cos s_j, G sin s_j,
    omega0), that of the drive at omega = 1.  A block is solved when it is
    reached: BATCH_SIZE ODE orbits integrated as one batch, or the
    truncations of _SOLVE_CHUNK Fourier points found by one
    :func:`fourier_rpl._solve_sweep`.
    """
    size = BATCH_SIZE if method == "ode" else _SOLVE_CHUNK
    field = _field(DriveParams(base.omega0, base.F, base.G, 1.0))
    for start in range(0, len(omegas), size):
        chunk = omegas[start : start + size]
        if method == "ode":
            block = list(periodic_orbits(base.omega0, base.F, base.G, chunk, tol=tol))
        else:
            block = fourier_rpl._solve_sweep(base, chunk, n_trunc)
        rows = [k for k, orbit in enumerate(block) if not isinstance(orbit, FloquetTlsError)]
        points = _quasienergies(
            [block[k] for k in rows], field, [chunk[k] for k in rows], method, half=True
        )
        for k, point in zip(rows, points):
            block[k] = point
        yield from block


def continue_branch(point, prev):
    """Representative of ``point`` (own or mirrored family) nearest ``prev``.

    The ten candidates +-epsilon + k omega, k within two of the branch
    nearest ``prev``, are compared as floats; only the chosen one is built.
    """
    omega = point.omega
    best, best_dist = None, math.inf
    for sign in (1.0, -1.0):
        eps = sign * point.epsilon
        base_k = math.floor((prev.epsilon - eps) / omega + 0.5)
        for k in range(base_k - 2, base_k + 3):
            dist = abs(eps + k * omega - prev.epsilon)
            if dist < best_dist:
                best, best_dist = (sign, k), dist
    if best_dist > omega / 4.0:
        warnings.warn(
            f"branch continuation jump {best_dist:.3e} exceeds omega/4 at omega={omega:g}",
            ContinuityWarning,
        )
    sign, k = best
    return (point if sign > 0 else point.mirrored()).shifted(k)
