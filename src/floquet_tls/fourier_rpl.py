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

Minors grow roughly like prod_k (k w)^2, so the float path carries only the
ratios r_k = phi_k / phi_{k+1}, which cannot overflow: the continued fraction
r_k = a_k + b_k / r_{k+1}, Gautschi's backward recurrence (SIAM Rev. 9,
1967).  With rational inputs an exact Fraction path reproduces the
polynomial closed forms.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import repeat

import numpy as np

from .bloch_dynamics import _HALF_TURN, DriveParams
from .errors import DomainError, FloquetTlsError, ResonanceError, SeriesInstabilityError

# stands in for a vanishing trailing minor when the next ratio divides by it
# (Lentz's guard for continued fractions); keeps r_k * r_{k+1} = b_k intact
_TINY = 1e-150

# the fewest points of a sweep at one probe order that _solve_sweep solves as one
# array ladder: below it the array kernel's per-group cost exceeds the scalar
# ladder's per-point cost
_ARRAY_MIN = 12


@dataclass
class TridiagonalSystem:
    """Truncated coefficient matrix of the Fourier ansatz, rows 1..N."""

    N: int
    diag: list
    sup: list  # entries (n, n+1), n = 1..N-1
    sub: list  # entries (n+1, n), n = 1..N-1
    params: DriveParams
    exact: bool = False

    def dense(self):
        """Dense matrix, mainly for cross-checks against LU determinants."""
        a = np.zeros((self.N, self.N))
        for i in range(self.N):
            a[i, i] = float(self.diag[i])
        for i in range(self.N - 1):
            a[i, i + 1] = float(self.sup[i])
            a[i + 1, i] = float(self.sub[i])
        return a


def build_system(params, n_trunc, exact=False):
    """Assemble the order-N truncation of the tridiagonal system.

    With ``exact=True`` the entries are Fractions and all downstream
    operations stay exact (parameters must be rational-valued).
    """
    if params.G != 0:
        raise DomainError("the Fourier ansatz requires G = 0 (linear drive)")
    n_trunc = int(n_trunc)
    if n_trunc < 2:
        raise DomainError(f"truncation order must be >= 2, got {n_trunc}")
    if exact:
        w = Fraction(params.omega)
        w0 = Fraction(params.omega0)
        f_amp = Fraction(params.F)
        half = Fraction(1, 2)
    else:
        w = float(params.omega)
        w0 = float(params.omega0)
        f_amp = float(params.F)
        half = 0.5

    # odd rows n sit at even list positions, even rows at odd ones
    diag = [None] * n_trunc
    diag[0::2] = [n * n * w * w - w0 * w0 for n in range(1, n_trunc + 1, 2)]
    diag[1::2] = [-n * w for n in range(2, n_trunc + 1, 2)]
    sup = [half * f_amp] * (n_trunc - 1)  # row n odd
    sub = [half * f_amp] * (n_trunc - 1)  # row n+1 odd
    sup[1::2] = [-(n + 1) * half * f_amp * w for n in range(2, n_trunc, 2)]  # row n even, column n+1
    sub[0::2] = [-n * half * f_amp * w for n in range(1, n_trunc, 2)]  # row n+1 even, column n
    return TridiagonalSystem(N=n_trunc, diag=diag, sup=sup, sub=sub, params=params, exact=exact)


@dataclass
class MinorsLadder:
    """Co-leading principal minors phi_1..phi_N of a truncated system.

    The float path stores the ratios r_k = phi_k / phi_{k+1} (phi_{N+1} = 1):
    ``phi(k)`` multiplies them out (inf on overflow), ``slog2()`` never
    overflows.  In exact mode the values are the minors, as Fractions.
    """

    N: int
    exact: bool
    _values: list = field(repr=False, default=None)  # exact: phi_k; float: r_k

    def phi(self, k):
        if not 1 <= k <= self.N:
            raise DomainError(f"minor index out of range 1..{self.N}: {k}")
        return self._values[k - 1] if self.exact else math.prod(self._values[k - 1 :])

    @property
    def det(self):
        """phi_1 = det A^(N)."""
        return self.phi(1)

    def slog2(self):
        """sign(det A^(N)) = prod sign(r_k) and log2|det A^(N)| = sum log2|r_k|."""
        if self.exact:
            raise DomainError("slog2 reads the float ratios; use det on the exact path")
        if 0.0 in self._values:
            return 0.0, -math.inf
        sign = math.prod(map(math.copysign, repeat(1.0), self._values))
        return sign, sum(map(math.log2, map(abs, self._values)))


def minors(sys):
    """Evaluate the minors ladder downward, on the float path as ratios."""
    n_ = sys.N
    values = [None] * n_
    if sys.exact:
        phi_next, phi_next2 = Fraction(1), Fraction(0)
        for k in range(n_, 0, -1):
            a = sys.diag[k - 1]
            b = -sys.sup[k - 1] * sys.sub[k - 1] if k < n_ else Fraction(0)
            cur = a * phi_next + b * phi_next2
            values[k - 1] = cur
            phi_next, phi_next2 = cur, phi_next
        return MinorsLadder(N=n_, exact=True, _values=values)
    diag, sup, sub = sys.diag, sys.sup, sys.sub
    r = values[n_ - 1] = diag[n_ - 1]
    for k in range(n_ - 1, 0, -1):
        b = -sup[k - 1] * sub[k - 1]
        if b and r == 0.0:
            r = values[k] = _TINY
        r = values[k - 1] = diag[k - 1] + (b / r if b else 0.0)
    return MinorsLadder(N=n_, exact=False, _values=values)


@dataclass
class RplFourierSolution:
    """Coefficients of a truncated periodic solution of the linear problem."""

    N: int
    z0: object
    x: list  # x_1..x_N
    params: DriveParams
    normalization: str = "raw"
    norm_spread: float = 0.0
    exact: bool = False

    def evaluate(self, t):
        """Bloch vector(s) at time(s) t from the truncated series."""
        t = np.asarray(t, dtype=float)
        w = float(self.params.omega)
        w0 = float(self.params.omega0)
        x = np.asarray([float(v) for v in self.x])
        odd = np.arange(1, self.N + 1, 2)
        even = np.arange(2, self.N + 1, 2)
        wt = np.multiply.outer(t, np.arange(1, self.N + 1) * w)
        out = np.empty(t.shape + (3,))
        out[..., 0] = (np.cos(wt[..., odd - 1]) * (w0 * x[odd - 1])).sum(axis=-1)
        out[..., 1] = (np.sin(wt[..., odd - 1]) * (odd * w * x[odd - 1])).sum(axis=-1)
        out[..., 2] = float(self.z0) + (np.cos(wt[..., even - 1]) * x[even - 1]).sum(axis=-1)
        return out

    __call__ = evaluate

    def sample(self, m):
        """Bloch vectors (m, 3) at t_j = j T / m, j = 0..m-1, from :func:`sample_grid`."""
        return sample_grid([self], m)[0].T

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
            normalization="unit-sphere",
            norm_spread=(norms.max() - norms.min()) / r_bar,
            exact=False,
        )


def sample_grid(sols, m):
    """Bloch vectors (len(sols), 3, m) of truncated solutions at t_j = j T / m, each on
    the period of its own parameters: :func:`sample_half_grid` completed by the
    half-wave symmetry, for odd m every second sample of the grid of 2m.
    """
    xs = sample_half_grid(sols, m if m % 2 == 0 else 2 * m)
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
    return padded.reshape(coeffs.shape[:-1] + (-1, n)).sum(axis=-2)


def sample_half_grid(sols, m):
    """Bloch vectors (len(sols), 3, m/2) of truncated solutions at t_j = j T / m, j < m/2, for
    even m: the first half period, which gives the second by X(t + T/2) = R_z(pi) X(t).

    With n = m/2 and s_j = pi j / n, the odd modes 2p + 1 make X + iY = e^(i s_j) times
    sum_p (c+_p e^(2 pi i p j / n) + c-_p e^(-2 pi i (p + 1) j / n)),
    c+-_p = (omega0 +- (2p + 1) omega) x_(2p+1) / 2: one complex inverse FFT of length n
    and a twiddle.  Z, the cosine series of the even modes 2q, is one inverse real FFT of
    length n.  Harmonics fold onto their bins mod n, so any n is exact.
    """
    n = m // 2
    top = max(sol.N for sol in sols)
    coeffs = np.zeros((len(sols), top + 2 - top % 2))  # z0, x_1, x_2, ...
    for row, sol in zip(coeffs, sols):
        row[0] = float(sol.z0)
        row[1 : sol.N + 1] = np.asarray(sol.x, dtype=float)
    odd = coeffs[:, 1::2]
    omega0, omega = np.array([[float(s.params.omega0), float(s.params.omega)] for s in sols]).T
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


def solve_coefficients(sys, z0_choice="unit"):
    """Fourier coefficients from the first column of the inverse.

    ``z0_choice='unit'`` fixes z0 = 1 and requires phi_1 != 0;
    ``z0_choice='phi1'`` cancels the 1/phi_1 pole and yields coefficients
    polynomial in (F, omega, omega0); on the float path those are divided
    by |phi_2| to stay representable (overall scale is free anyway).
    """
    if z0_choice not in ("unit", "phi1"):
        raise DomainError(f"unknown z0 choice: {z0_choice!r}")
    lad = minors(sys)
    n_ = sys.N

    if sys.exact:
        f_amp = Fraction(sys.params.F)
        phi = [lad.phi(k) for k in range(1, n_ + 1)] + [Fraction(1)]
        if z0_choice == "unit":
            if phi[0] == 0:
                raise ResonanceError("phi_1 = 0: unit-z0 solution undefined")
            z0 = Fraction(1)
            denom = phi[0]
        else:
            z0 = phi[0]
            denom = Fraction(1)
        xs = []
        prod = Fraction(1)  # prod_{k=2..i} A_{k,k-1}
        sign = 1
        for i in range(1, n_ + 1):
            if i > 1:
                prod *= sys.sub[i - 2]
                sign = -sign
            # x_i = -F z0 (-1)^(i+1) prod_i phi_{i+1} / phi_1
            xs.append(-f_amp * sign * prod * phi[i] / denom)
        return RplFourierSolution(N=n_, z0=z0, x=xs, params=sys.params, exact=True)

    # float path, on the ratios r_k = phi_k / phi_{k+1}: the phi1 coefficients
    # over phi_2 are z0 = r_1, x_1 = -F and x_i = x_{i-1} (-A_{i,i-1}) / r_i,
    # the unit ones those over r_1.  Dividing by |phi_2| instead keeps the
    # orientation of the orbit, which fixes the sign of its quasienergy.
    f_amp = float(sys.params.F)
    r = lad._values
    if z0_choice == "unit":
        with np.errstate(divide="ignore"):
            log2_phi = np.cumsum(np.log2(np.abs(r[::-1])))  # log2|phi_k|, k = N..1
        if log2_phi[-1] < log2_phi.max() + math.log2(1e-12):
            raise ResonanceError(
                "phi_1 is below 1e-12 of the ladder scale; "
                "near a resonance use z0_choice='phi1'"
            )
        z0, x = 1.0, -f_amp / r[0]
    else:
        # sign(phi_2): the parity of the ratios r_2..r_N with their sign bit set
        sign = -1.0 if np.count_nonzero(np.signbit(r)[1:]) % 2 else 1.0
        z0, x = sign * r[0], -sign * f_amp
    xs = [x]
    for i in range(2, n_ + 1):
        x = x * -sys.sub[i - 2] / r[i - 1] if x else 0.0
        xs.append(x)
    return RplFourierSolution(N=n_, z0=z0, x=xs, params=sys.params)


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


def _solve_block(params, n_trunc):
    """``solve_coefficients(build_system(p, n_trunc), "phi1")`` for every p of params
    (G = 0), bit for bit, from one :func:`_ratio_block`: z0 (P,) and x (P, N).

    Each column keeps the scalar operation order, x_i = (x_{i-1} (-A_{i,i-1})) / r_i,
    and its branch x_i = 0.0 once an earlier x vanishes.
    """
    f = np.array([float(p.F) for p in params])
    r, sub = _ratio_block(
        [float(p.omega0) for p in params], f, [float(p.omega) for p in params], n_trunc
    )
    # sign(phi_2): the parity of the ratios r_2..r_N with their sign bit set
    sign = np.where(np.count_nonzero(np.signbit(r[1:]), axis=0) % 2, -1.0, 1.0)
    x = np.empty_like(r)
    x[0] = -sign * f
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        prev = x[0]
        for neg_sub, r_i, x_i in zip(-sub, r[1:], x[1:]):
            prev = np.divide(prev * neg_sub, r_i, out=x_i)
    x[1:][np.logical_or.accumulate(x[:-1] == 0.0, axis=0)] = 0.0
    return sign * r[0], x.T


def _tail_test(x, coeff_tol):
    """(converged, tail ratio) of solve_auto's test on each coefficient row x (P, N):
    converged when max(|x_N|, |x_{N-1}|) <= coeff_tol max_n |x_n|.
    """
    mags = np.abs(x)
    last, prev = mags[:, -1], mags[:, -2]
    tail = np.where(prev > last, prev, last)  # a NaN |x_{N-1}| is passed over
    peak = mags.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return tail <= coeff_tol * peak, np.where(peak != 0.0, tail / peak, 0.0)


def solve_auto(params, z0_choice="phi1", start=20, step=8, coeff_tol=1e-10, n_max=400):
    """Smallest truncation order N = start + step k whose top coefficient is negligible.

    N is converged once max(|x_N|, |x_{N-1}|) <= coeff_tol max_n |x_n|.  The
    coefficients fall off like the Bessel functions J_n(f), f = |F / omega|,
    so the search starts at the step of the Jacobi-Anger estimate
    N = f + 8 f^(1/3) + 2.  From there it gallops 1, 2, 4, ... steps away,
    upward while unconverged and downward while converged, and then bisects
    back to the first converged order.  A probe builds and solves one ladder,
    O(N) in Python.  A point whose first converged step lies d steps from the
    estimate costs at most 2 ceil(log2(d + 1)) + 2 probes; the estimate is
    within one step for strong drives, which then cost two or three.  The
    cap grows with f on the Jacobi-Anger scale, beyond which J_n(f) falls off
    faster than exponentially: max(n_max, start, ceil(f + 12 f^(1/3) + 25) +
    step).  An order still unconverged at the cap raises
    SeriesInstabilityError.  The search itself is :func:`_search`, which
    :func:`_solve_sweep` drives for many points at once.
    """
    search = _search(abs(params.F / params.omega), start, step, coeff_tol, n_max)
    n_trunc = next(search)
    while True:
        try:
            n_trunc = search.send(_probe(params, n_trunc, z0_choice, coeff_tol))
        except StopIteration as done:
            return done.value


def _probe(params, n_trunc, z0_choice, coeff_tol):
    """(solution, converged, tail ratio) of one scalar ladder, as :func:`_search` takes it."""
    sol = solve_coefficients(build_system(params, n_trunc), z0_choice)
    mags = np.abs(np.asarray(sol.x, dtype=float))
    tail, peak = max(mags[-1], mags[-2]), mags.max()
    return sol, tail <= coeff_tol * peak, tail / peak if peak else 0.0


def _solve_sweep(base, omegas, start, coeff_tol=1e-10):
    """``solve_auto(p, "phi1", start, coeff_tol=coeff_tol)`` at each omega of a sweep,
    p = base at that omega, or the FloquetTlsError that point raises, in order.

    Every point runs its own :func:`_search`.  At each step the points pending at the
    same probe order N are solved together: a group of at least ``_ARRAY_MIN`` points
    as one array ladder (:func:`_solve_block`), whose solutions hold rows of one
    coefficient array, a smaller one point by point.  Either way each solution equals
    :func:`solve_auto`'s at its point bit for bit.  With G != 0 every point goes to the
    scalar ladder, whose ``build_system`` raises the DomainError of a point.
    """
    out = [None] * len(omegas)
    pending = {}  # point -> (params, search, probe order)
    for i, omega in enumerate(omegas):
        try:
            params = DriveParams(base.omega0, base.F, base.G, omega)
            # solve_auto's default step and cap
            search = _search(abs(params.F / params.omega), start, 8, coeff_tol, 400)
            pending[i] = params, search, next(search)
        except FloquetTlsError as exc:
            out[i] = exc
    while pending:
        groups = {}
        for i, (*_, n_trunc) in pending.items():
            groups.setdefault(n_trunc, []).append(i)
        for n_trunc, rows in groups.items():
            block = [pending.pop(i)[:2] for i in rows]
            probes = [None] * len(rows)
            # an order below 2 is left to build_system, which rejects it point by point
            if len(rows) >= _ARRAY_MIN and n_trunc >= 2 and base.G == 0:
                params = [p for p, _ in block]
                z0, x = _solve_block(params, n_trunc)
                sols = [RplFourierSolution(n_trunc, *sol) for sol in zip(z0, x, params)]
                probes = list(zip(sols, *_tail_test(x, coeff_tol)))
            for i, (params, search), probe in zip(rows, block, probes):
                try:
                    if probe is None:
                        probe = _probe(params, n_trunc, "phi1", coeff_tol)
                    pending[i] = params, search, search.send(probe)
                except StopIteration as done:
                    out[i] = done.value
                except FloquetTlsError as exc:
                    out[i] = exc
    return out


def _search(f, start, step, coeff_tol, n_max):
    """The search of :func:`solve_auto` at a point of drive ratio f = |F / omega|.

    Yields each probe order N = start + step k and is sent back that probe's
    (solution, converged, tail ratio).  Returns the solution it settles on,
    or raises SeriesInstabilityError at the cap.
    """
    n_max = max(n_max, start, math.ceil(f + 12 * f ** (1 / 3) + 25) + step)
    k_max = -(-(n_max - start) // step)
    guess = min(k_max, max(0, math.floor((f + 8 * f ** (1 / 3) + 2 - start) / step)))
    sol, converged, tail = yield start + step * guess
    # the first converged step lies in (lo, hi]: lo unconverged, hi converged
    if converged:
        lo, hi, dist = -1, guess, 1
        while hi > 0:
            k = max(guess - dist, 0)
            k_sol, converged, _ = yield start + step * k
            if not converged:
                lo = k
                break
            hi, sol, dist = k, k_sol, 2 * dist
    else:
        lo, hi, dist = guess, guess, 1
        while not converged:
            if hi == k_max:
                raise SeriesInstabilityError(
                    f"truncation N = {sol.N} unconverged at its cap: "
                    f"tail ratio {tail:.3g} > coeff_tol {coeff_tol:g}"
                )
            lo, hi, dist = hi, min(guess + dist, k_max), 2 * dist
            sol, converged, tail = yield start + step * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_sol, converged, _ = yield start + step * mid
        if converged:
            hi, sol = mid, mid_sol
        else:
            lo = mid
    return sol
