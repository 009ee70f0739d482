"""Frequency-domain route for the linearly polarized Rabi problem (G = 0).

The periodic-solution ansatz

    X(t) = sum_n omega0 x_{2n+1} cos((2n+1) w t)
    Y(t) = sum_n x_{2n+1} (2n+1) w sin((2n+1) w t)
    Z(t) = z0 + sum_n x_{2n} cos(2n w t)

turns the equation of motion into a tridiagonal linear system A x = f with
f = (-F z0, 0, ...).  Truncating at order N, the first column of the inverse
is expressed through the co-leading principal minors phi_n (determinants of
the trailing blocks rows/columns n..N), which satisfy a two-term downward
recursion.  phi_1 = det A^(N) vanishes exactly at the resonance frequencies.

Minors grow roughly like prod_k (k w)^2, so the ladder carries only the
ratios r_k = phi_k / phi_{k+1}, which cannot overflow: the continued fraction
r_k = a_k + b_k / r_{k+1}, Gautschi's backward recurrence (SIAM Rev. 9,
1967).
"""

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .bloch_dynamics import _HALF_TURN, DriveParams, _orientation
from .errors import DomainError, SeriesInstabilityError

# stands in for a vanishing trailing minor when the next ratio divides by it
# (Lentz's guard for continued fractions); keeps r_k * r_{k+1} = b_k intact
_TINY = 1e-150

# the fewest points of a sweep at one probe order that _solve_sweep solves as one
# array ladder: below it the array kernel's per-group cost exceeds the scalar
# ladder's per-point cost
_ARRAY_MIN = 12

# solve_auto's tail test: N is converged once max(|x_N|, |x_{N-1}|) <= _COEFF_TOL max_n |x_n|
_COEFF_TOL = 1e-10


@dataclass
class TridiagonalSystem:
    """Truncated coefficient matrix of the Fourier ansatz, rows 1..N."""

    N: int
    diag: list
    sup: list  # entries (n, n+1), n = 1..N-1
    sub: list  # entries (n+1, n), n = 1..N-1
    params: DriveParams


def build_system(params, n_trunc):
    """Assemble the order-N truncation of the tridiagonal system, in floats."""
    if params.G != 0:
        raise DomainError("the Fourier ansatz requires G = 0 (linear drive)")
    n_trunc = int(n_trunc)
    if n_trunc < 2:
        raise DomainError(f"truncation order must be >= 2, got {n_trunc}")
    diag, sup, sub = _entries(float(params.omega0), float(params.F), float(params.omega), n_trunc)
    return TridiagonalSystem(N=n_trunc, diag=diag, sup=sup, sub=sub, params=params)


def _entries(w0, f_amp, w, n_trunc):
    """(diag, sup, sub) of :func:`build_system` at (omega0, F, omega) = (w0, f_amp, w), as lists."""
    half = 0.5
    # odd rows n sit at even list positions, even rows at odd ones
    diag = [None] * n_trunc
    diag[0::2] = [n * n * w * w - w0 * w0 for n in range(1, n_trunc + 1, 2)]
    diag[1::2] = [-n * w for n in range(2, n_trunc + 1, 2)]
    sup = [half * f_amp] * (n_trunc - 1)  # row n odd
    sub = [half * f_amp] * (n_trunc - 1)  # row n+1 odd
    sup[1::2] = [-(n + 1) * half * f_amp * w for n in range(2, n_trunc, 2)]  # row n even, column n+1
    sub[0::2] = [-n * half * f_amp * w for n in range(1, n_trunc, 2)]  # row n+1 even, column n
    return diag, sup, sub


@dataclass
class MinorsLadder:
    """Co-leading principal minors phi_1..phi_N of a truncated system.

    The ladder stores the ratios r_k = phi_k / phi_{k+1} (phi_{N+1} = 1):
    ``phi(k)`` multiplies them out (inf on overflow), ``slog2()`` never
    overflows.
    """

    N: int
    _values: list = field(repr=False, default=None)  # r_k

    def phi(self, k):
        if not 1 <= k <= self.N:
            raise DomainError(f"minor index out of range 1..{self.N}: {k}")
        return math.prod(self._values[k - 1 :])

    @property
    def det(self):
        """phi_1 = det A^(N)."""
        return self.phi(1)

    def slog2(self):
        """sign(det A^(N)) = prod sign(r_k) and log2|det A^(N)| = sum log2|r_k|."""
        if 0.0 in self._values:
            return 0.0, -math.inf
        sign = math.prod(map(math.copysign, repeat(1.0), self._values))
        return sign, sum(map(math.log2, map(abs, self._values)))


def minors(sys):
    """Evaluate the minors ladder downward, as ratios."""
    return MinorsLadder(N=sys.N, _values=_ratios(sys.diag, sys.sup, sys.sub))


def _ratios(diag, sup, sub):
    """The ratios r_k = phi_k / phi_{k+1} of the entries of an order-N system, k = 1..N."""
    n_ = len(diag)
    values = [None] * n_
    r = values[n_ - 1] = diag[n_ - 1]
    for k in range(n_ - 1, 0, -1):
        b = -sup[k - 1] * sub[k - 1]
        if b and r == 0.0:
            r = values[k] = _TINY
        r = values[k - 1] = diag[k - 1] + (b / r if b else 0.0)
    return values


@dataclass
class RplFourierSolution:
    """Coefficients of a truncated periodic solution of the linear problem."""

    N: int
    z0: float
    x: list  # x_1..x_N
    params: DriveParams
    norm_spread: float = 0.0

    def evaluate(self, t):
        """Bloch vector(s) at time(s) t from the truncated series."""
        x = np.asarray([float(v) for v in self.x])
        return _series(float(self.z0), x, float(self.params.omega0), float(self.params.omega), t)

    __call__ = evaluate

    def sample(self, m):
        """Bloch vectors (m, 3) at t_j = j T / m, j = 0..m-1, from :func:`sample_grid`."""
        sols = Truncations.of([self])
        return sample_grid(sols.coeffs, sols.omega0, sols.omega, m)[0].T

    def normalized(self):
        """Rescale onto the unit sphere by the mean radius on 256 samples."""
        norms = np.linalg.norm(self.sample(256), axis=-1)
        r_bar = norms.mean()
        if r_bar == 0:
            raise DomainError("cannot normalize the zero solution")
        scale = 1.0 / r_bar
        return replace(
            self,
            z0=float(self.z0) * scale,
            x=[float(v) * scale for v in self.x],
            norm_spread=(norms.max() - norms.min()) / r_bar,
        )


def _series(z0, x, omega0, omega, t):
    """Bloch vector(s) at time(s) t of the truncated series of z0 and x (N,), in floats."""
    t = np.asarray(t, dtype=float)
    n_ = len(x)
    odd = np.arange(1, n_ + 1, 2)
    even = np.arange(2, n_ + 1, 2)
    wt = np.multiply.outer(t, np.arange(1, n_ + 1) * omega)
    out = np.empty(t.shape + (3,))
    out[..., 0] = (np.cos(wt[..., odd - 1]) * (omega0 * x[odd - 1])).sum(axis=-1)
    out[..., 1] = (np.sin(wt[..., odd - 1]) * (odd * omega * x[odd - 1])).sum(axis=-1)
    out[..., 2] = z0 + (np.cos(wt[..., even - 1]) * x[even - 1]).sum(axis=-1)
    return out


@dataclass
class Truncations:
    """Truncated solutions of the points of a sweep, as columns.

    Row i is the point ``rows[i]`` of the sweep, of order ``N[i]`` at
    (``omega0[i]``, ``omega[i]``), with ``coeffs[i]`` = (z0, x_1, ..., x_N),
    zero-padded to the even width of the largest order plus two.  ``errors``
    maps each point of the sweep that has no solution to its FloquetTlsError.
    """

    rows: np.ndarray
    N: np.ndarray
    coeffs: np.ndarray
    omega0: np.ndarray
    omega: np.ndarray
    errors: dict

    @classmethod
    def of(cls, sols):
        """The columns of a list of RplFourierSolution, row i for sols[i]."""
        top = max(sol.N for sol in sols)
        coeffs = np.zeros((len(sols), top + 2 - top % 2))
        for row, sol in zip(coeffs, sols):
            row[0] = float(sol.z0)
            row[1 : sol.N + 1] = np.asarray(sol.x, dtype=float)
        omega0, omega = np.array([[float(s.params.omega0), float(s.params.omega)] for s in sols]).T
        orders = np.array([sol.N for sol in sols])
        return cls(np.arange(len(sols)), orders, coeffs, omega0, omega, {})

    def solution(self, i, params):
        """Row i as the RplFourierSolution of params."""
        n_ = int(self.N[i])
        z0, x = float(self.coeffs[i, 0]), self.coeffs[i, 1 : n_ + 1].tolist()
        return RplFourierSolution(n_, z0, x, params)

    def orbit(self, i):
        """t -> the Bloch vectors of row i at times t, as ``evaluate`` of its solution."""
        n_ = self.N[i]
        row = self.coeffs[i]
        return functools.partial(_series, row[0], row[1 : n_ + 1], self.omega0[i], self.omega[i])


def sample_grid(coeffs, omega0, omega, m):
    """Bloch vectors (P, 3, m) of P truncated solutions at t_j = j T / m, each on the
    period of its own omega: :func:`sample_half_grid` completed by the half-wave
    symmetry, for odd m every second sample of the grid of 2m.
    """
    xs = sample_half_grid(coeffs, omega0, omega, m if m % 2 == 0 else 2 * m)
    xs = np.concatenate([xs, xs * _HALF_TURN[:, None]], axis=-1)
    return xs if m % 2 == 0 else xs[..., ::2]


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


def sample_half_grid(coeffs, omega0, omega, m):
    """Bloch vectors (P, 3, m/2) of P truncated solutions at t_j = j T / m, j < m/2, for even
    m: the first half period, which gives the second by X(t + T/2) = R_z(pi) X(t).

    Row i of coeffs (P, W), W even, holds (z0, x_1, x_2, ...) of the solution at
    (omega0[i], omega[i]), zero-padded as :class:`Truncations` holds it.  With
    n = m/2 and s_j = pi j / n, the odd modes 2p + 1 make X + iY = e^(i s_j) times
    sum_p (c+_p e^(2 pi i p j / n) + c-_p e^(-2 pi i (p + 1) j / n)),
    c+-_p = (omega0 +- (2p + 1) omega) x_(2p+1) / 2: one complex inverse FFT of length n
    and a twiddle.  Z, the cosine series of the even modes 2q, is one inverse real FFT of
    length n.  Harmonics fold onto their bins mod n, so any n is exact.
    """
    n = m // 2
    odd = coeffs[:, 1::2]
    a = omega0[:, None] * odd
    b = np.arange(1, 2 * odd.shape[-1], 2) * omega[:, None] * odd
    # c-_p goes to bin -p-1 mod n, that is n - 1 - (p mod n)
    spec = _fold(0.5 * (a + b), n) + _fold(0.5 * (a - b), n)[:, ::-1]
    xy = np.fft.ifft(spec, axis=-1, norm="forward") * _twiddle(n)
    z = _fold(coeffs[:, 0::2], n)
    # bin q above n/2 is bin n - q; an unscaled irfft doubles every bin but 0 and n/2
    z[:, 1 : (n + 1) // 2] = 0.5 * (z[:, 1 : (n + 1) // 2] + z[:, : n // 2 : -1])
    z = np.fft.irfft(z[:, : n // 2 + 1], n=n, axis=-1, norm="forward")
    return np.stack([xy.real, xy.imag, z], axis=1)


def solve_coefficients(sys):
    """Fourier coefficients from the first column of the inverse, with z0 = phi_1.

    z0 = phi_1 cancels the 1/phi_1 pole, so the coefficients are polynomial
    in (F, omega, omega0) and exist at a resonance too; they are divided by
    phi_2, to stay representable, and by the sign that
    ``bloch_dynamics._orientation`` gives their X(0) (see :func:`_start`).
    """
    omega0, f_amp = float(sys.params.omega0), float(sys.params.F)
    z0, x = _coefficients(omega0, f_amp, minors(sys)._values, sys.sub)
    return RplFourierSolution(N=sys.N, z0=z0, x=x, params=sys.params)


def _coefficients(omega0, f_amp, r, sub):
    """(z0, [x_1..x_N]) of :func:`solve_coefficients` from the ratios r and the entries
    A_{k+1,k} of an order-N system at (omega0, F) = (omega0, f_amp)."""
    # on the ratios r_k = phi_k / phi_{k+1}, the coefficients over phi_2 are
    # z0 = r_1, x_1 = -F and x_i = x_{i-1} (-A_{i,i-1}) / r_i
    x = -f_amp
    xs = [x]
    for i in range(2, len(r) + 1):
        x = x * -sub[i - 2] / r[i - 1] if x else 0.0
        xs.append(x)
    sign = float(_orientation(_start(omega0, r[0], xs)))
    return sign * r[0], [sign * x for x in xs]


def _start(omega0, z0, x):
    """X(0) = (omega0 sum x_odd, 0, z0 + sum x_even) of coefficients x (N, ...), summed
    row by row in order: a column of an array has its list's sums."""
    return omega0 * sum(x[0::2]), 0.0, z0 + sum(x[1::2])


def _ratio_block(omega0, f_amp, omegas, n_trunc):
    """The ratios r_k (N, P) of :func:`minors` and the entries A_{k+1,k} (N - 1, P) of
    :func:`build_system` at P points at once, each column bit for bit that point's ladder.

    omega0, f_amp and omegas are scalars or arrays of the P points.  The entries are
    written as ``build_system`` writes them, and the ladder runs down the rows in the
    scalar order, one division and one addition per row, with the scalar ladder's two
    branches: r_k = a_k + 0.0 for b_k = 0, and Lentz's ``_TINY`` for a vanishing
    r_{k+1} that b_k != 0 divides.
    """
    w0, f, w = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (omega0, f_amp, omegas)))
    ns = np.arange(1, n_trunc + 1)
    diag = np.empty((n_trunc, w.size))
    diag[0::2] = (ns[0::2] * ns[0::2])[:, None] * w * w - w0 * w0
    diag[1::2] = -ns[1::2][:, None] * w
    # A_{k+1,k} = -k F w / 2 for k odd, A_{k,k+1} = -(k + 1) F w / 2 for k even; the rest F / 2
    hf = 0.5 * f
    sub = (-0.5 * (ns[:-1] | 1))[:, None] * f * w
    b = -hf * sub  # -A_{k,k+1} A_{k+1,k}
    sub[1::2] = hf
    r = np.empty_like(diag)
    r[-1] = diag[-1]
    live = b != 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(n_trunc - 2, -1, -1):
            r[k + 1] = np.where(live[k] & (r[k + 1] == 0.0), _TINY, r[k + 1])
            r[k] = diag[k] + np.where(live[k], b[k] / r[k + 1], 0.0)
    return r, sub


def _solve_block(omega0, f_amp, omegas, n_trunc):
    """``solve_coefficients(build_system(p, n_trunc))`` at P points p = (omega0, F, 0,
    omega) at once, bit for bit, from one :func:`_ratio_block`: z0 (P,) and x (P, N).
    omega0, f_amp and omegas are scalars or arrays of the P points.

    Each column keeps the scalar operation order, x_i = (x_{i-1} (-A_{i,i-1})) / r_i,
    its branch x_i = 0.0 once an earlier x vanishes and the sums of its X(0).
    """
    r, sub = _ratio_block(omega0, f_amp, omegas, n_trunc)
    w0 = np.asarray(omega0, dtype=float)
    x = np.empty_like(r)
    x[0] = -np.asarray(f_amp, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        prev = x[0]
        for neg_sub, r_i, x_i in zip(-sub, r[1:], x[1:]):
            prev = np.divide(prev * neg_sub, r_i, out=x_i)
        x[1:][np.logical_or.accumulate(x[:-1] == 0.0, axis=0)] = 0.0
        sign = _orientation(_start(w0, r[0], x))
    return sign * r[0], (sign * x).T


def _probe(omega0, f_amp, omega, n_trunc):
    """(z0, [x_1..x_N]) of ``solve_coefficients(build_system(p, n_trunc))`` at the point
    p = (omega0, F, 0, omega), on the scalar ladder."""
    diag, sup, sub = _entries(omega0, f_amp, omega, n_trunc)
    return _coefficients(omega0, f_amp, _ratios(diag, sup, sub), sub)


def _tail_test(x):
    """(converged, tail ratio) of solve_auto's test on each coefficient row x (P, N):
    converged when max(|x_N|, |x_{N-1}|) <= _COEFF_TOL max_n |x_n|.
    """
    mags = np.abs(x)
    last, prev = mags[:, -1], mags[:, -2]
    tail = np.where(prev > last, prev, last)  # a NaN |x_{N-1}| is passed over
    peak = mags.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return tail <= _COEFF_TOL * peak, np.where(peak != 0.0, tail / peak, 0.0)


def solve_auto(params, start=20):
    """Truncation order N = start + 8 k whose top coefficient is negligible, found stepwise.

    N is converged once max(|x_N|, |x_{N-1}|) <= _COEFF_TOL max_n |x_n|, with
    _COEFF_TOL = 1e-10.  The coefficients fall off like the Bessel functions
    J_n(f), f = |F / omega|, so the search starts at the step of the
    Jacobi-Anger estimate N = f + 8 f^(1/3) + 2 and moves one step at a time:
    down while the order below is still converged, or up to the first
    converged order.  So N converges and N - 8, if a candidate, does not;
    where the tail falls monotonically in N, N is the smallest converged
    order.  A probe builds and solves one ladder, O(N) in Python; the
    estimate is within one step of the answer for the drives the commands
    meet, so a point costs one to three probes.  The cap grows with f on the
    Jacobi-Anger scale, beyond which J_n(f) falls off faster than
    exponentially: max(400, start, ceil(f + 12 f^(1/3) + 25) + 8).  An order
    still unconverged at the cap raises SeriesInstabilityError.

    A lone point is a sweep of one: the row of :func:`_solve_sweep` at
    params.omega, or its error raised.
    """
    sols = _solve_sweep(params, [params.omega], start)
    if sols.errors:
        raise sols.errors[0]
    return sols.solution(0, params)


def _solve_sweep(base, omegas, start):
    """The truncations :func:`solve_auto` chooses at the points p = base at each omega of a
    sweep, as :class:`Truncations`, with the FloquetTlsError of each point that has none.

    The omegas are checked at once, with the errors ``DriveParams`` raises, and the
    start and cap of every point's search come from one array pass.  The searches
    then step together, each point's step k and direction held in flat lists.  At
    each step the points pending at the same probe order N are solved together: a
    group of at least ``_ARRAY_MIN`` points as one array ladder (:func:`_solve_block`),
    a smaller one point by point on the scalar ladder (:func:`_probe`).  Either way a
    point's coefficients are ``solve_coefficients(build_system(p, N))`` bit for bit,
    so they do not depend on the sweep around it.  With G != 0 every point fails with the
    DomainError of ``build_system``, and so does every point that probes an order
    below 2.
    """
    w = np.asarray(omegas, dtype=float)
    valid = np.isfinite(w) & (w > 0.0)
    errors = {}
    for i in np.flatnonzero(~valid).tolist():
        v = omegas[i]
        reason = "finite" if not math.isfinite(v) else "positive"
        errors[i] = DomainError(f"omega must be {reason}, got {v}")
    live = np.flatnonzero(valid)
    if base.G != 0:
        for i in live.tolist():
            errors[i] = DomainError("the Fourier ansatz requires G = 0 (linear drive)")
        live = live[:0]
    w0, f_amp, w = float(base.omega0), float(base.F), w[live]

    # the search start and cap of each point, in solve_auto's scalar arithmetic: the
    # cube roots come from math.pow, which numpy's power need not match to the last bit
    step = 8
    f = np.abs(f_amp / w)
    cbrt = np.array(list(map(math.pow, f.tolist(), repeat(1 / 3))), dtype=float)
    n_max = np.maximum(max(400, start), np.ceil(f + 12 * cbrt + 25).astype(np.int64) + step)
    k_max = -(-(n_max - start) // step)
    k = np.floor((f + 8 * cbrt + 2 - start) / step).astype(np.int64)
    k = np.minimum(k_max, np.maximum(0, k))

    # each point's search: its step k, probing order start + 8 k, and the direction it
    # moves in: 0 before its first probe, -1 stepping down, +1 stepping up
    k, k_max, direction = k.tolist(), k_max.tolist(), [0] * len(w)
    settled = []  # (N, points, z0, x) of the converged rows of each group solved, in order
    failed = []  # the points whose search ends in an error, converged probes or not
    pending = range(len(w))
    while pending:
        groups = {}
        for i in pending:
            groups.setdefault(start + step * k[i], []).append(i)
        pending = []
        for n_trunc, at in groups.items():
            if n_trunc < 2:
                reason = f"truncation order must be >= 2, got {n_trunc}"
                for i in at:
                    errors[int(live[i])] = DomainError(reason)
                failed += at
                continue
            if len(at) >= _ARRAY_MIN:
                z0, x = _solve_block(w0, f_amp, w[at], n_trunc)
            else:
                z0, x = zip(*(_probe(w0, f_amp, omega, n_trunc) for omega in w[at].tolist()))
                z0, x = np.array(z0), np.array(x)
            converged, tail = _tail_test(x)
            settled.append((n_trunc, np.array(at)[converged], z0[converged], x[converged]))
            # converged: step down while the order below may still converge; not
            # converged: step up, unless already stepping down (the order above is the
            # answer) or at the cap
            for j, (i, ok) in enumerate(zip(at, converged.tolist())):
                moving = direction[i]
                if ok and moving <= 0 and k[i] > 0:
                    moving = -1
                elif ok or moving < 0:
                    continue
                elif k[i] == k_max[i]:
                    errors[int(live[i])] = SeriesInstabilityError(
                        f"truncation N = {n_trunc} unconverged at its cap: "
                        f"tail ratio {tail[j]:.3g} > coeff_tol {_COEFF_TOL:g}"
                    )
                    failed.append(i)
                    continue
                else:
                    moving = 1
                direction[i] = moving
                k[i] += moving
                pending.append(i)

    # each point's last converged probe, written over its earlier ones; none for a point
    # that failed
    found = np.zeros(len(w), dtype=np.int64)
    settled = [entry for entry in settled if entry[1].size]
    top = max((n_trunc for n_trunc, *_ in settled), default=0)
    coeffs = np.zeros((len(w), top + 2 - top % 2))
    for n_trunc, at, z0, x in settled:
        found[at] = n_trunc
        coeffs[at, 0] = z0
        coeffs[at, 1 : n_trunc + 1] = x
        coeffs[at, n_trunc + 1 :] = 0.0
    found[failed] = 0
    solved = found.nonzero()[0]
    omega0 = np.full(len(solved), w0)
    return Truncations(live[solved], found[solved], coeffs[solved], omega0, w[solved], errors)
