"""Periodic orbits of the Rabi drive as harmonic rows: one sampler and one evaluator.

The drive obeys h(s + pi) = R_z(pi) h(s) and h(-s) = P h(s), s = omega t,
R_z(pi) = diag(-1, -1, 1), P = diag(1, -1, 1), and so do its periodic
orbits.  An orbit is therefore

    X = sum_p x_p cos((2p + 1) s),  Y = sum_p y_p sin((2p + 1) s),
    Z = sum_q z_q cos(2q s),

three real rows: z of the even harmonics 0, 2, 4, ..., x and y of the odd
ones 1, 3, 5, ....  Both routes hand their orbits over as these rows, held
as the columns of one :class:`Orbits`: a truncated Fourier solution forms them
from its coefficients (``fourier_rpl``), and an ODE periodic orbit reads them
off its half-period step grid with one FFT (:func:`half_grid_rows`).  Every
grid of either route comes from :func:`sample_half_grid` and
:func:`sample_grid`, or for an ODE orbit on a grid that divides 2048 from the
states it keeps, and every other time from :func:`_series`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# R_z(pi) = diag(-1, -1, 1), which maps an orbit over one half period onto the next
_HALF_TURN = np.array([-1.0, -1.0, 1.0])

# products of a time and a harmonic per block of _series: its temporaries stay near 8 MB
_SERIES_BLOCK = 1 << 20


@functools.lru_cache(maxsize=None)
def _twiddle(n):
    """e^(i pi j / n), j = 0..n-1: the shift by half a bin of the odd harmonics on n samples."""
    return np.exp(1j * math.pi / n * np.arange(n))


def _fold(coeffs, n):
    """Sums (..., n) of coeffs[..., q] over q mod n."""
    size = coeffs.shape[-1]
    padded = np.zeros(coeffs.shape[:-1] + (-(-size // n) * n,), dtype=coeffs.dtype)
    padded[..., :size] = coeffs
    if size <= n:  # one group of n: nothing to fold
        return padded
    return padded.reshape(coeffs.shape[:-1] + (-1, n)).sum(axis=-2)


def sample_half_grid(z, x, y, m):
    """Bloch vectors (P, 3, m/2) of P orbits at s_j = 2 pi j / m, j < m/2, for even m: the
    first half period, which gives the second by X(s + pi) = R_z(pi) X(s).

    Row i of z (P, Wz), x and y (P, W) holds orbit i's rows, zero-padded.  With
    n = m/2 and s_j = pi j / n, the odd modes 2p + 1 make X + iY = e^(i s_j) times
    sum_p (c+_p e^(2 pi i p j / n) + c-_p e^(-2 pi i (p + 1) j / n)),
    c+-_p = (x_p +- y_p) / 2: one complex inverse FFT of length n and a twiddle.
    Z, the cosine series of the even modes 2q, is one inverse real FFT of length n.
    Harmonics fold onto their bins mod n, so any n is exact.
    """
    n = m // 2
    # c-_p goes to bin -p-1 mod n, that is n - 1 - (p mod n)
    spec = _fold(0.5 * (x + y), n) + _fold(0.5 * (x - y), n)[:, ::-1]
    xy = np.fft.ifft(spec, axis=-1, norm="forward") * _twiddle(n)
    z = _fold(z, n)
    # bin q above n/2 is bin n - q; an unscaled irfft doubles every bin but 0 and n/2
    z[:, 1 : (n + 1) // 2] = 0.5 * (z[:, 1 : (n + 1) // 2] + z[:, : n // 2 : -1])
    z = np.fft.irfft(z[:, : n // 2 + 1], n=n, axis=-1, norm="forward")
    return np.stack([xy.real, xy.imag, z], axis=1)


def sample_grid(half_grid, m):
    """Bloch vectors (P, 3, m) at s_j = 2 pi j / m from half_grid(n), the first half
    period of the grid of n = m samples, or of 2m for odd m: completed by the half-wave
    symmetry, for odd m every second sample of the grid of 2m."""
    xs = half_grid(m if m % 2 == 0 else 2 * m)
    xs = np.concatenate([xs, xs * _HALF_TURN[:, None]], axis=-1)
    return xs if m % 2 == 0 else xs[..., ::2]


def half_grid_rows(states):
    """Rows (z, x, y) of P orbits from their states (3, P, n) at s_j = pi j / n, j < n,
    n even: :func:`sample_half_grid` of n samples inverted.

    One complex FFT of X + iY, shifted back by half a bin, holds c+_p in bin p and
    c-_p in bin n - 1 - p, p < n/2, so x and y have the harmonics 1, 3, ..., n - 1; one
    real FFT of Z gives z of the harmonics 0, 2, ..., n.  The imaginary parts, zero
    by the orbits' symmetries up to rounding, are dropped.
    """
    n = states.shape[-1]
    xy = np.empty(states.shape[1:], dtype=complex)
    xy.real, xy.imag = states[0], states[1]
    xy *= _twiddle(n).conj()
    c = np.fft.fft(xy, axis=-1, norm="forward")
    plus, minus = c[:, : n // 2].real, c[:, : n // 2 - 1 : -1].real
    z = np.fft.rfft(states[2], axis=-1, norm="forward").real
    z[:, 1 : n // 2] *= 2.0
    return z, plus + minus, plus - minus


@dataclass
class Orbits:
    """Periodic orbits of the points of a sweep, as columns of harmonic rows.

    Row i, the orbit ``orbit(i)`` (also ``orbits[i]``), is the point ``rows[i]`` of
    the sweep at ``omega[i]``: its rows ``z[i]``, ``x[i]`` and ``y[i]`` hold the
    harmonics up to ``N[i]``, a width of N[i] // 2 + 1, zero-padded to the widest
    row.  ``errors`` maps each point of the sweep that has no orbit to its
    FloquetTlsError.  ``states`` (len, 3, n/2), if given, holds each orbit on the
    first half period of the grid of n samples: a grid of m samples where m
    divides n is a stride of them, and every other grid comes from the rows.
    """

    rows: np.ndarray
    N: np.ndarray
    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    omega: np.ndarray
    errors: dict
    states: np.ndarray = None

    @classmethod
    def stack(cls, parts, errors=None):
        """One Orbits of the rows ``at`` (an index list) of each (orbits, at) of ``parts``, in
        order, zero-padded to the widest, with their states where every part has them."""
        width = max(orbits.z.shape[-1] for orbits, _ in parts)

        def column(name):
            return np.concatenate([getattr(orbits, name)[at] for orbits, at in parts])

        def padded(name):
            rows = (getattr(orbits, name)[at] for orbits, at in parts)
            return np.concatenate([np.pad(r, ((0, 0), (0, width - r.shape[-1]))) for r in rows])

        states = None if any(orbits.states is None for orbits, _ in parts) else column("states")
        rows = (column(name) for name in ("rows", "N"))
        return cls(*rows, *map(padded, "zxy"), column("omega"), errors or {}, states)

    def orbit(self, k):
        """t -> the Bloch vectors (..., 3) of row k at times t, by :func:`_series`."""
        n = int(self.N[k])
        odd = slice((n + 1) // 2)
        return functools.partial(
            _series, self.z[k, : n // 2 + 1], self.x[k, odd], self.y[k, odd], self.omega[k]
        )

    __getitem__ = orbit

    def half_grid(self, rows, m):
        """Bloch vectors (len(rows), 3, m/2) of the rows ``rows`` (an index array) at
        t_j = j T / m, j < m/2, for even m: a stride of ``states`` where m divides their
        grid, else :func:`sample_half_grid` of the rows, cut to the width of the widest
        among them."""
        if self.states is not None and 2 * self.states.shape[-1] % m == 0:
            return self.states[rows, :, :: 2 * self.states.shape[-1] // m]
        width = int(self.N[rows].max()) // 2 + 1
        return sample_half_grid(*(row[rows, :width] for row in (self.z, self.x, self.y)), m)

    def grid(self, rows, m):
        """Bloch vectors (len(rows), 3, m) of the rows ``rows`` at t_j = j T / m, each on the
        period of its own omega (:func:`sample_grid`)."""
        return sample_grid(functools.partial(self.half_grid, rows), m)


def _series(z, x, y, omega, t):
    """Bloch vector(s) (..., 3) at time(s) t of the rows z, x and y of one orbit at omega."""
    t = np.asarray(t, dtype=float)
    odd = np.arange(1, 2 * len(x), 2) * omega
    even = np.arange(2, 2 * len(z) - 1, 2) * omega
    ts = t.ravel()
    out = np.empty((ts.size, 3))
    step = max(1, _SERIES_BLOCK // max(1, len(odd) + len(even)))
    for lo in range(0, ts.size, step):
        wt = np.multiply.outer(ts[lo : lo + step], odd)
        out[lo : lo + step, 0] = (np.cos(wt) * x).sum(axis=-1)
        out[lo : lo + step, 1] = (np.sin(wt) * y).sum(axis=-1)
        wt = np.multiply.outer(ts[lo : lo + step], even)
        out[lo : lo + step, 2] = z[0] + (np.cos(wt) * z[1:]).sum(axis=-1)
    return out.reshape(t.shape + (3,))
