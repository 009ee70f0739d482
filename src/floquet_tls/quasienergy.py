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
qualify.  The periodic orbits of both routes are rows of one holder of
harmonics (:class:`harmonics.Orbits`), sampled by one inverse FFT, or an ODE
orbit on a grid that divides 2048 by a stride of the states it keeps; any
other orbit is sampled through its method ``sample(m)`` if it has one, or
called on the grid (:func:`_grids`).  A holder's orbit averaged over a drive
of another omega raises DomainError.  Every average over an orbit (the
quasienergy, its split and the Floquet state's phase) reads one settled
uniform grid, spectrally accurate for smooth periodic integrands and sampled
once.  The grid starts at 2048 points, and a quasienergy of a holder's row
of width w (N // 2 + 1 for a truncation of order N, S/4 + 1 for an ODE
orbit of S steps) at the smallest power of two >= 16 w, clamped to
[64, 2048]; it doubles up to 65536 only while the mean of chi still differs
by 1e-10 from its mean on the grid of half the size, and a grid still
unsettled at 65536 raises SeriesInstabilityError.  Every grid is sampled
afresh, so an orbit that settles only on 2048 points or more gives the same
values whatever its start.  eps_d, the mean of a trigonometric polynomial of
degree N + 1, is exact on any grid of more than N + 1 points, so on every
grid of a Fourier solution.  The gradients, which do not involve chi, read
X/R on 2048 points.

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
period, counted on the settled grid with every step of pi/2 or more refined
locally (:func:`_turns`).  :func:`chi_series`, :func:`split_geometric_dynamic`
and :func:`floquet_state` keep the -z section and raise SouthPoleError.

One loop settles every average (:func:`_settle`), on grids of shape
(rows, 3, m): a lone orbit is a block of one row, and a sweep
(:func:`sweep_branches`) a sequence of blocks, each one holder.  On the ODE
route a block is up to 16 orbits integrated in s = omega t, each on its own
S (:func:`bloch_dynamics._orbit_block`); on the Fourier route it is up to
256 points whose truncations are solved together
(:func:`fourier_rpl._solve_sweep`: one array ladder for the points that share
a probe order).  A row joins the doubling at its own start, and only the
rows that have not settled double their grid, at most 16 x 2048 samples at a
time.  A row's values are reductions over its own samples, and its orbit is
its point's own whether it came from an array ladder or not, or from a batch
or not, so on both routes a sweep row equals :func:`quasienergy_at` at its
point bit for bit, and a point that fails is reported on its own.  chi and
eps_d do not change when X is scaled by a positive factor, so a Fourier
solution is averaged unnormalized.

A sweep is carried as columns, with no object per row: each block's
averages come back as arrays of the -z branch means and of eps_d, with the
error of each failing row (:func:`_quasienergies`), and the branch
continuation runs on those floats in grid order (:func:`_continued`), with
the operation order of QuasienergyResult.from_raw, mirrored and shifted.
:func:`continue_branch` is that continuation for one row, and
:func:`sweep_branches` and the command line read the same columns
(:func:`_sweep_table`).
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bloch_dynamics, fourier_rpl, harmonics
from .bloch_dynamics import BATCH_SIZE, DriveParams
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
        """The result of the raw quasienergy eps_raw on branch floor(eps_raw / omega).

        A sweep forms the same fields on columns (:func:`_from_raw`), in this order.
        """
        branch = math.floor(eps_raw / omega)
        return cls(eps_raw, eps_raw - branch * omega, eps_raw - eps_d, eps_d, branch, method, omega)

    def shifted(self, k):
        """Same physical state reported on the branch epsilon + k omega.

        The shift is carried by the geometric part so epsilon = g + d and
        d(eps)/d(omega) = eps_g / omega keep holding on the new branch.  Sweeps and
        :func:`continue_branch` shift on columns (:func:`_continued`), in this order;
        this form serves single results.
        """
        shift = k * self.omega
        return QuasienergyResult(self.epsilon + shift, self.epsilon_mod, self.eps_g + shift,
                                 self.eps_d, self.branch + k, self.method, self.omega)

    def mirrored(self):
        """Branch data of the mirrored orbit -X(t): eps -> -eps, d -> -d.

        Sweeps and :func:`continue_branch` mirror on columns (:func:`_continued`),
        with this formula.
        """
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


def _held(orbits):
    """A list of rows of :class:`harmonics.Orbits` (orbits with ``held``: truncated Fourier
    solutions and ODE periodic orbits) as one; any other orbits as they are."""
    held = [getattr(orbit, "held", None) for orbit in orbits] if isinstance(orbits, list) else []
    return harmonics.Orbits.stack(held) if held and None not in held else orbits


def _grids(orbits, period=None, half=False):
    """(grid, starts): grid(rows, m), the states (len(rows), 3, n) of the orbits ``rows``
    (an index array) at t_j = j T / m, j < n, and starts[k], the grid orbit k's
    quasienergy starts on.

    ``orbits`` is a :class:`harmonics.Orbits` or a list of orbits, read as one holder where
    :func:`_held` reads it so.  A holder's orbits obey X(t + T/2) = R_z(pi) X(t), and with
    ``half`` n = m/2, their first half period; a row of width w starts on the smallest
    power of two >= 16 w, clamped to [64, 2048].  With ``period``, the drive's, a holder
    row of another frequency raises DomainError.  Any other orbit, such as a closed form
    or a Trajectory, is sampled by :func:`_orbit_grid` over whole periods (n = m) from 2048.
    """
    orbits = _held(orbits)
    if not isinstance(orbits, harmonics.Orbits):
        grid = lambda rows, m: np.stack([_orbit_grid(orbits[k], period, m) for k in rows])
        return grid, [2 * _MIN_GRID] * len(orbits)
    if period is not None:
        omega = 2.0 * math.pi / period
        off = orbits.omega[np.abs(orbits.omega - omega) > 1e-12 * omega]
        if off.size:
            raise DomainError(f"orbit of omega {off[0]:g} averaged over a drive of omega {omega:g}")
    starts = [
        min(2 * _MIN_GRID, max(_MIN_START, 1 << (16 * (n // 2 + 1) - 1).bit_length()))
        for n in orbits.N.tolist()
    ]
    return (orbits.half_grid if half else orbits.grid), starts


def _field(drive):
    """(m, n) -> the field (3, n) of drive at t_j = j T / m, j < n."""
    return lambda m, n: np.asarray(drive.field(np.arange(n) * (drive.T / m)), dtype=float).T


def _chi_samples(grid, rows, m, field, flip):
    """(xs, hs, radius, pole, chi, near, planar) of the orbits ``rows`` of grid on m samples.

    The states xs (rows, 3, n) of the grid, n = m or m/2, and the field hs (3, n)
    give each row's mean radius R and chi on the section with its pole at pole * z (+z negates Z
    and h3): -z, or with ``flip`` +z for a row within 1e-3 R of -z.  ``near``
    marks the rows within 1e-3 R of their pole, where chi is not to be used.
    ``planar`` (rows, n) is chi's numerator h1 X + h2 Y.  Every reduction runs over
    the last axis, so a row's values do not depend on the other rows.
    """
    xs = grid(rows, m)
    hs = field(m, xs.shape[-1])
    radius = _mean(np.sqrt(np.sum(xs * xs, axis=-2)))
    near = (radius[:, None] + xs[:, 2]).min(axis=-1) <= _SOUTH_POLE_MARGIN * radius
    pole = np.where(near & flip, 1.0, -1.0)
    denom = radius[:, None] - pole[:, None] * xs[:, 2]
    near = denom.min(axis=-1) <= _SOUTH_POLE_MARGIN * radius
    planar = hs[0] * xs[:, 0] + hs[1] * xs[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # only where near
        chi = 0.5 * (planar / denom - pole[:, None] * hs[2])
    return xs, hs, radius, pole, chi, near, planar


def _turns(orbit, period, xs):
    """Counter-clockwise turns of arg(X + iY) of orbit over its period, from (X, Y) of its
    states xs (2 or 3, m) at t_j = j T / m.  Each step of arg(X + iY) of pi/2 or more is
    split into eight, the orbit evaluated at the seven new times, until none is left;
    SeriesInstabilityError if one spans less than 1e-15 T.
    """
    angle = np.arctan2(xs[1], xs[0])
    angle, ts = np.append(angle, angle[0]), None  # X(T) = X(0); the times once needed
    while True:
        steps = np.diff(angle)
        wraps = np.round(steps / (2.0 * math.pi))  # crossings of the branch cut at pi
        wide = np.flatnonzero(np.abs(steps - 2.0 * math.pi * wraps) >= 0.5 * math.pi)
        if not wide.size:
            return -int(wraps.sum())
        if ts is None:
            ts = np.arange(xs.shape[-1] + 1) * (period / xs.shape[-1])
        span = ts[wide + 1] - ts[wide]
        if span.min() < 1e-15 * period:
            raise SeriesInstabilityError(
                f"winding of arg(X + iY) unresolved on a step of {span.min() / period:.3g} T"
            )
        new = (ts[wide, None] + span[:, None] * (np.arange(1, 8) / 8.0)).ravel()
        at, xy = np.repeat(wide + 1, 7), orbit(new)[:, :2].T
        ts, angle = np.insert(ts, at, new), np.insert(angle, at, np.arctan2(xy[1], xy[0]))


def _settle(grid, starts, field, winding=None):
    """Settle the grid of each orbit k of grid; yield, for each chunk of rows sampled together,
    (chunk, ok, (xs, hs, radius, chi, turns, mean, eps_d), errors).

    ``chunk`` is an index array of the orbits sampled, ``ok`` marks those that settled
    on this grid, the arrays hold every row of the chunk (``hs`` is shared), and
    ``errors`` lists (k, FloquetTlsError) of the rows that failed on it.

    Orbit k's grid of starts[k], 2 starts[k], ... 65536 samples has settled when
    the mean of chi on it is within 1e-10 of its mean over every second sample.
    On each size the orbits starting there and those that have not settled on
    the size below are sampled together, so the starts are min(starts) times
    powers of two.  Each grid is sampled once and chooses its section as
    :func:`_chi_samples`, +z only with ``winding``; ``turns`` is 0 on -z, and on
    +z winding(k, xy), the turns of orbit k from (X, Y) (2, m) of its settled
    grid, a half period completed by R_z(pi).  ``mean`` and ``eps_d``, the means
    of chi and (h . X)/(2R), are reduced for a whole chunk at once.  At most
    max(1, 16 * 2048 / m) orbits are sampled at once, so a request never holds
    more than 16 grids of 2048 samples.  An orbit with R = 0, the zero solution,
    fails with DomainError.
    """
    starts, flip = np.asarray(starts), winding is not None
    rows, m = starts[:0], int(starts.min()) if starts.size else 0
    while rows.size or (starts >= m).any():
        joining = starts == m
        joining[rows] = True
        rows = joining.nonzero()[0]
        later = [rows[:0]]
        size = max(1, BATCH_SIZE * 2 * _MIN_GRID // m)
        for chunk in (rows[lo : lo + size] for lo in range(0, len(rows), size)):
            xs, hs, radius, pole, chi, near, planar = _chi_samples(grid, chunk, m, field, flip)
            mean = _mean(chi)
            delta = np.abs(mean - _mean(chi[:, ::2]))
            with np.errstate(invalid="ignore"):  # NaN only where R = 0
                eps_d = _eps_d(planar + hs[2] * xs[:, 2], radius)
            zero = radius == 0
            ok = (delta < _A0_SETTLE) & ~zero & ~near
            errors = []
            if not ok.all():
                near &= ~zero
                unsettled = ~ok & ~zero & ~near
                errors += [
                    (k, DomainError("orbit is the zero solution, R = 0, where chi is undefined"))
                    for k in chunk[zero].tolist()
                ]
                errors += [
                    (k, SouthPoleError(
                        f"orbit passes within {_SOUTH_POLE_MARGIN:g} R of the "
                        f"{'south' if side < 0 else 'north'} pole, where its section is singular"
                    ))
                    for k, side in zip(chunk[near].tolist(), pole[near].tolist())
                ]
                if m >= _MAX_GRID:
                    errors += [
                        (k, SeriesInstabilityError(
                            f"mean of chi unsettled on {m} samples: "
                            f"{gap:.3g} from its mean over every second sample"
                        ))
                        for k, gap in zip(chunk[unsettled].tolist(), delta[unsettled].tolist())
                    ]
                else:
                    later.append(chunk[unsettled])
            turns = np.zeros(len(chunk), dtype=np.int64)
            for i in np.flatnonzero(ok & (pole > 0)).tolist():
                half = [-xs[i, :2]] if xs.shape[-1] < m else []
                try:
                    turns[i] = winding(int(chunk[i]), np.concatenate([xs[i, :2], *half], axis=-1))
                except FloquetTlsError as exc:
                    errors.append((int(chunk[i]), exc))
                    ok[i] = False
            yield chunk, ok, (xs, hs, radius, chi, turns, mean, eps_d), errors
        rows, m = np.concatenate(later), 2 * m


def _settled(orbit, drive, m=2 * _MIN_GRID):
    """(xs, hs, radius, chi, turns, mean, eps_d) of the settled -z grid of a lone orbit over
    its whole period, starting on m samples; raises its error."""
    for _, (ok,), (xs, hs, radius, chi, turns, mean, eps_d), errors in _settle(
        _grids([orbit], drive.T)[0], [m], _field(drive)
    ):
        if errors:
            raise errors[0][1]
        if ok:
            return xs[0], hs, radius[0], chi[0], turns[0], mean[0], eps_d[0]


def _quasienergies(orbits, field, omegas, period=None, half=False):
    """(eps, eps_d, errors) of orbits, each averaged from its own start on the grids of
    :func:`_grids`: the -z branch quasienergy mean(chi) + turns omega and the mean of
    (h . X)/(2R) of each row, NaN where it fails, and {row: its FloquetTlsError}.

    omegas holds each row's drive frequency, the period of its winding.
    """
    orbits = _held(orbits)
    grid, starts = _grids(orbits, period, half)
    omegas = np.asarray(omegas, dtype=float)

    def winding(k, xy):
        return _turns(orbits[k], 2.0 * math.pi / omegas[k], xy)

    mean, eps_d = np.full(len(omegas), math.nan), np.full(len(omegas), math.nan)
    turns = np.zeros(len(omegas), dtype=np.int64)
    errors = {}
    for chunk, ok, samples, failed in _settle(grid, starts, field, winding):
        rows = chunk[ok]
        turns[rows], mean[rows], eps_d[rows] = (column[ok] for column in samples[4:])
        errors.update(failed)
        del samples  # the chunk's grids, not to be held while the next is sampled
    return mean + turns * omegas, eps_d, errors


def _series_from_samples(values, omega, harmonics):
    m = len(values)
    spec = np.fft.rfft(values) / m
    nmax = min(harmonics, m // 2 - 1)
    cos = 2.0 * spec[1 : nmax + 1].real
    sin = -2.0 * spec[1 : nmax + 1].imag
    return TrigSeries(omega=omega, a0=spec[0].real, cos_coeffs=cos, sin_coeffs=sin)


def _eps_d(dot, radius):
    """eps_d, the mean of (h . X)/(2R), of the samples dot (..., m) of h . X on orbits of
    mean radius R.  :func:`_settle` forms h . X as chi's numerator h1 X + h2 Y plus h3 Z,
    the order in which a sum over the three components adds them."""
    return _mean(dot) / (2.0 * radius)


def _mean(values):
    """The mean over the last axis, bit for bit np.mean's: the sum over the count.

    np.mean's own per-call work shows on the one- and two-row chunks of strong-drive
    sweeps, which reduce four means each.
    """
    return values.sum(axis=-1) / values.shape[-1]


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
    omega = float(drive.omega)
    (eps,), (eps_d,), errors = _quasienergies(
        [orbit], _field(drive), [omega], drive.T, isinstance(drive, DriveParams)
    )
    if errors:
        raise errors[0]
    return QuasienergyResult.from_raw(float(eps), float(eps_d), omega, method)


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
    method = _route(params, method)
    ((eps, eps_d, errors),) = _sweep_blocks(params, [params.omega], method, n_trunc, tol)
    if errors:
        raise errors[0]
    return QuasienergyResult.from_raw(float(eps[0]), float(eps_d[0]), params.omega, method)


def sweep_branches(
    params_base, omega_grid, method="auto", n_trunc=20, tol=1e-12, on_error=None
):
    """Quasienergies along an omega sweep, continued into smooth branches.

    The orbits are averaged in blocks (see the module notes): up to 16 rows
    on the ODE route, up to 256 on the Fourier route, where each point's
    truncation order is the one :func:`fourier_rpl.solve_auto` chooses, found
    for a block's points at once by :func:`fourier_rpl._solve_sweep`, and on
    the ODE route each point's own number of Magnus steps.  Before
    continuation a row equals :func:`quasienergy_at` at its point bit for
    bit, on both routes.  The reported branch is the candidate nearest to the previous point
    (minimal jump) among +-epsilon + k w, k within one of the branch nearest
    that point (:func:`continue_branch`).  A ContinuityWarning is issued when
    the smallest jump exceeds omega/4.

    Failures are reported per point.  With ``on_error``, a point that
    raises a FloquetTlsError is None in the returned list,
    ``on_error(omega, exc)`` is called for it in grid order, and the
    continuation goes on from the last point that succeeded.  Without it
    the first such error is raised.  An unknown method, or G != 0 on the
    Fourier route, raises DomainError before any point.

    The rows are :func:`_sweep_table`'s columns, one QuasienergyResult each.
    """
    method = _route(params_base, method)
    omegas, columns, failed = _sweep_table(params_base, omega_grid, method, n_trunc, tol, on_error)
    rows = zip(omegas.tolist(), failed.tolist(), *(column.tolist() for column in columns))
    return [None if bad else QuasienergyResult(*row, method, omega) for omega, bad, *row in rows]


def _sweep_table(base, omega_grid, method, n_trunc, tol, on_error=None):
    """(omegas, columns, failed) of a sweep continued into smooth branches, as
    :func:`sweep_branches` describes it: the float omegas, the columns
    (epsilon, epsilon_mod, eps_g, eps_d, branch) over them, NaN and branch 0 where
    ``failed``, and the mask of the points that fail.  No object is built per row.
    """
    method = _route(base, method)
    if method == "fourier" and n_trunc < 2:
        raise DomainError(f"truncation order must be >= 2, got {n_trunc}")
    omegas = np.array([float(w) for w in omega_grid], dtype=float)
    blocks, failed, prev, start = [], np.zeros(len(omegas), dtype=bool), None, 0
    for eps, eps_d, errors in _sweep_blocks(base, omegas.tolist(), method, n_trunc, tol):
        omega = omegas[start : start + len(eps)]
        block, prev = _continued(_from_raw(eps, eps_d, omega), omega, prev, errors, on_error)
        blocks.append(block)
        failed[[start + j for j in errors]] = True
        start += len(eps)
    columns = [np.concatenate(c) for c in zip(*blocks)] if blocks else [np.empty(0)] * 5
    columns[4] = np.where(failed, 0.0, columns[4]).astype(np.int64)
    return omegas, columns, failed


def _sweep_blocks(base, omegas, method, n_trunc, tol):
    """Yield (eps, eps_d, errors) of each block of a sweep, in grid order: the -z branch
    quasienergy and eps_d of each of its points, NaN at a point that fails, and
    {point of the block: its FloquetTlsError}.

    A block is solved when it is reached, as one :class:`harmonics.Orbits`: BATCH_SIZE
    ODE orbits integrated together (:func:`bloch_dynamics._orbit_block`), or the
    truncations of _SOLVE_CHUNK Fourier points (:func:`fourier_rpl._solve_sweep`).
    Its rows are averaged as they are by :func:`_quasienergies`, each from its own
    start (:func:`_grids`).  On the grid s_j = 2 pi j / m every row sees the same
    field (F cos s_j, G sin s_j, omega0), that of the drive at omega = 1.
    """
    if method == "ode":
        size = BATCH_SIZE
        solve = functools.partial(bloch_dynamics._orbit_block, base.omega0, base.F, base.G, tol=tol)
    else:
        size, solve = _SOLVE_CHUNK, lambda chunk: fourier_rpl._solve_sweep(base, chunk, n_trunc)
    field = _field(DriveParams(base.omega0, base.F, base.G, 1.0))
    for start in range(0, len(omegas), size):
        chunk = omegas[start : start + size]
        orbits = solve(chunk)
        errors = dict(orbits.errors)
        eps, eps_d = np.full(len(chunk), math.nan), np.full(len(chunk), math.nan)
        rows = orbits.rows
        if rows.size:
            eps[rows], eps_d[rows], failed = _quasienergies(orbits, field, orbits.omega, half=True)
            errors.update({int(rows[k]): exc for k, exc in failed.items()})
        yield eps, eps_d, errors


def _from_raw(eps, eps_d, omega):
    """QuasienergyResult.from_raw's (epsilon, epsilon_mod, eps_g, eps_d, branch) as columns,
    in its operation order; the branch as floats."""
    branch = np.floor(eps / omega)
    return eps, eps - branch * omega, eps - eps_d, eps_d, branch


def _continued(own, omega, prev, errors=None, on_error=None):
    """Rows continued into one smooth branch, as columns, and the last epsilon.

    ``own`` holds QuasienergyResult's (epsilon, epsilon_mod, eps_g, eps_d, branch) of
    each row at omega, the branch as floats.  Each row becomes the representative
    nearest the epsilon of the row before (``prev`` before the first; a first row
    with ``prev`` None is kept as it is): its own family, or the mirrored one,
    QuasienergyResult.from_raw(-epsilon, -eps_d), shifted by k omega as
    QuasienergyResult.shifted shifts it.  Per family, eps + k omega with
    k = floor((prev - eps) / omega + 1/2) lies within omega/2 of prev, so k +- 2,
    at least 1.5 omega away, never win: the six candidates +-eps + k omega, k
    within one of that branch, are compared as floats, the first of equals
    winning, and a ContinuityWarning is issued when the nearest is more than
    omega/4 away.  A row in ``errors`` is passed to ``on_error(omega, exc)`` in
    row order, or raised without it; its columns stay NaN, as :func:`_sweep_blocks`
    gives them.
    """
    epsilon, errors = own[0], errors or {}
    mirror, ks, first = [False] * len(epsilon), [0] * len(epsilon), None
    for j, (eps, w) in enumerate(zip(epsilon.tolist(), omega.tolist())):
        if j in errors:
            if on_error is None:
                raise errors[j]
            on_error(w, errors[j])
            continue
        if prev is None:
            prev, first = eps, j
            continue
        best_dist = math.inf
        for flip, signed in ((False, eps), (True, -eps)):
            k = math.floor((prev - signed) / w + 0.5) - 1
            for k in (k, k + 1, k + 2):
                value = signed + k * w
                dist = abs(value - prev)
                if dist < best_dist:
                    best_dist, best = dist, (flip, k, value)
        if best_dist > w / 4.0:
            warnings.warn(
                f"branch continuation jump {best_dist:.3e} exceeds omega/4 at omega={w:g}",
                ContinuityWarning,
            )
        mirror[j], ks[j], prev = best
    base = own
    if any(mirror):
        mirror = np.asarray(mirror)
        base = [np.where(mirror, m, o) for o, m in zip(own, _from_raw(-epsilon, -own[3], omega))]
    ks = np.asarray(ks, dtype=float)
    shift = ks * omega
    out = (base[0] + shift, base[1], base[2] + shift, base[3], base[4] + ks)
    if first is not None:  # the row kept as it is, unshifted
        out[0][first], out[2][first] = base[0][first], base[2][first]
    return out, prev


def continue_branch(point, prev):
    """Representative of ``point`` (own or mirrored family) nearest ``prev``.

    Per family, eps + k omega with k = floor((prev - eps) / omega + 1/2) lies
    within omega/2 of ``prev``, so k +- 2, at least 1.5 omega away, never
    win.  The six candidates +-epsilon + k omega, k within one of that
    branch, are compared as floats; only the chosen one is built.  This is
    the continuation of a sweep (:func:`_continued`) for one row.
    """
    fields = (point.epsilon, point.epsilon_mod, point.eps_g, point.eps_d, point.branch)
    own = tuple(np.array([float(v)]) for v in fields)
    columns, _ = _continued(own, np.array([float(point.omega)]), prev.epsilon)
    epsilon, epsilon_mod, eps_g, eps_d, branch = (column.item() for column in columns)
    return QuasienergyResult(
        epsilon, epsilon_mod, eps_g, eps_d, int(branch), point.method, point.omega
    )
