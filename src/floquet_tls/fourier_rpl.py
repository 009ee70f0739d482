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

Minors grow roughly like prod_k (k w)^2, so the float path carries them in
scaled form (mantissa, base-2 exponent).  With rational inputs an exact
Fraction path reproduces the polynomial closed forms.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bloch_dynamics import DriveParams
from .errors import DomainError, ResonanceError

# ---------------------------------------------------------------------------
# scaled (mantissa, exponent) arithmetic for the float ladder


def _s_from(x):
    m, e = math.frexp(x)
    return (m, e)


def _s_mul(a, b):
    m, e = math.frexp(a[0] * b[0])
    return (m, a[1] + b[1] + e)


def _s_combine(a, sa, b, sb):
    """a*sa + b*sb for plain floats a, b and scaled sa, sb."""
    if b == 0.0 or sb[0] == 0.0:
        if a == 0.0 or sa[0] == 0.0:
            return (0.0, 0)
        m, e = math.frexp(a * sa[0])
        return (m, sa[1] + e)
    if a == 0.0 or sa[0] == 0.0:
        m, e = math.frexp(b * sb[0])
        return (m, sb[1] + e)
    e0 = max(sa[1], sb[1])
    v = a * sa[0] * 2.0 ** (sa[1] - e0) + b * sb[0] * 2.0 ** (sb[1] - e0)
    if v == 0.0:
        return (0.0, 0)
    m, e = math.frexp(v)
    return (m, e0 + e)


def _s_float(s):
    try:
        return math.ldexp(s[0], s[1])
    except OverflowError:
        return math.inf if s[0] > 0 else -math.inf


def _s_log2(s):
    if s[0] == 0.0:
        return -math.inf
    return math.log2(abs(s[0])) + s[1]


# ---------------------------------------------------------------------------


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

    diag = []
    for n in range(1, n_trunc + 1):
        if n % 2:
            diag.append(n * n * w * w - w0 * w0)
        else:
            diag.append(-n * w)
    sup = []
    sub = []
    for n in range(1, n_trunc):
        if n % 2:
            sup.append(half * f_amp)  # row n odd
            sub.append(-n * half * f_amp * w)  # row n+1 even, column n
        else:
            sup.append(-(n + 1) * half * f_amp * w)  # row n even, column n+1
            sub.append(half * f_amp)  # row n+1 odd
    return TridiagonalSystem(N=n_trunc, diag=diag, sup=sup, sub=sub, params=params, exact=exact)


@dataclass
class MinorsLadder:
    """Co-leading principal minors phi_1..phi_N of a truncated system.

    ``phi(k)`` returns phi_k as a float (inf when it overflows; the scaled
    pair is always available via ``scaled(k)``).  In exact mode the values
    are Fractions.
    """

    N: int
    exact: bool
    _values: list = field(repr=False, default=None)

    def phi(self, k):
        if not 1 <= k <= self.N:
            raise DomainError(f"minor index out of range 1..{self.N}: {k}")
        v = self._values[k - 1]
        return v if self.exact else _s_float(v)

    def scaled(self, k):
        if self.exact:
            raise DomainError("scaled form only exists on the float path")
        return self._values[k - 1]

    @property
    def det(self):
        """phi_1 = det A^(N)."""
        return self.phi(1)

    @property
    def overflowed(self):
        if self.exact:
            return False
        return any(not math.isfinite(_s_float(v)) for v in self._values)

    @property
    def max_log2(self):
        return max(_s_log2(v) for v in self._values)


def minors(sys):
    """Evaluate the minors ladder by the downward two-term recursion."""
    n_  = sys.N
    values = [None] * n_
    if sys.exact:
        phi_next, phi_next2 = Fraction(1), Fraction(0)
        for k in range(n_, 0, -1):
            a = sys.diag[k - 1]
            b = -sys.sup[k - 1] * sys.sub[k - 1] if k < n_ else Fraction(0)
            cur = a * phi_next + b * phi_next2
            values[k - 1] = cur
            phi_next, phi_next2 = cur, phi_next
    else:
        phi_next, phi_next2 = _s_from(1.0), (0.0, 0)
        for k in range(n_, 0, -1):
            a = float(sys.diag[k - 1])
            b = -float(sys.sup[k - 1]) * float(sys.sub[k - 1]) if k < n_ else 0.0
            cur = _s_combine(a, phi_next, b, phi_next2)
            values[k - 1] = cur
            phi_next, phi_next2 = cur, phi_next
    return MinorsLadder(N=n_, exact=sys.exact, _values=values)


def det_a(params, n_trunc):
    """det A^(N) as a float; may overflow to +-inf for large N."""
    return minors(build_system(params, n_trunc)).det


def det_a_scaled(params, n_trunc):
    """det A^(N) as a scaled pair (mantissa, base-2 exponent)."""
    return minors(build_system(params, n_trunc)).scaled(1)


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
        """Bloch vectors at t_j = j T / m, j = 0..m-1, by one inverse FFT.

        On the uniform grid harmonic n lands exactly in bin n mod m, so any
        m >= 1 is valid, m < 2N included.
        """
        w = float(self.params.omega)
        w0 = float(self.params.omega0)
        x = np.asarray([float(v) for v in self.x])
        n = np.arange(1, self.N + 1)
        odd = n % 2 == 1
        coeffs = np.zeros((3, self.N), dtype=complex)
        coeffs[0, odd] = w0 * x[odd]
        coeffs[1, odd] = -1j * (n[odd] * w * x[odd])
        coeffs[2, ~odd] = x[~odd]
        spec = np.zeros((3, m), dtype=complex)
        np.add.at(spec, (slice(None), n % m), coeffs)
        out = np.fft.ifft(spec, axis=-1).real * m
        out[2] += float(self.z0)
        return out.T

    def mean_norm(self, samples=256):
        norms = np.linalg.norm(self.sample(samples), axis=-1)
        return norms.mean(), (norms.max() - norms.min())

    def normalized(self, samples=256):
        """Rescale onto the unit sphere by the mean sampled radius."""
        r_bar, spread = self.mean_norm(samples)
        if r_bar == 0:
            raise DomainError("cannot normalize the zero solution")
        scale = 1.0 / r_bar
        return RplFourierSolution(
            N=self.N,
            z0=float(self.z0) * scale,
            x=[float(v) * scale for v in self.x],
            params=self.params,
            normalization="unit-sphere",
            norm_spread=spread / r_bar,
            exact=False,
        )

    def antipode(self):
        """The mirrored periodic solution -X(t)."""
        return RplFourierSolution(
            N=self.N,
            z0=-self.z0,
            x=[-v for v in self.x],
            params=self.params,
            normalization=self.normalization,
            norm_spread=self.norm_spread,
            exact=self.exact,
        )


def solve_coefficients(sys, z0_choice="unit"):
    """Fourier coefficients from the first column of the inverse.

    ``z0_choice='unit'`` fixes z0 = 1 and requires phi_1 != 0;
    ``z0_choice='phi1'`` cancels the 1/phi_1 pole and yields coefficients
    polynomial in (F, omega, omega0); on the float path those are rescaled
    by a power of two to stay representable (overall scale is free anyway).
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
    f_amp = float(sys.params.F)

    # float path, scaled arithmetic throughout
    phi_scaled = [lad.scaled(k) for k in range(1, n_ + 1)] + [_s_from(1.0)]
    log_scale = lad.max_log2
    if z0_choice == "unit":
        if _s_log2(phi_scaled[0]) < log_scale + math.log2(1e-12):
            raise ResonanceError(
                "phi_1 is below 1e-12 of the ladder scale; "
                "near a resonance use z0_choice='phi1'"
            )
    prod = _s_from(1.0)
    sign = 1.0
    xs_scaled = []
    for i in range(1, n_ + 1):
        if i > 1:
            prod = _s_mul(prod, _s_from(float(sys.sub[i - 2])))
            sign = -sign
        num = _s_mul(prod, phi_scaled[i])
        xs_scaled.append((-f_amp * sign * num[0], num[1]))
    if z0_choice == "unit":
        e1 = phi_scaled[0]
        xs = [_s_float((m / e1[0], e - e1[1])) for (m, e) in xs_scaled]
        return RplFourierSolution(N=n_, z0=1.0, x=xs, params=sys.params)
    # z0 = phi_1: shift everything by a common exponent so max magnitude ~ 1
    all_scaled = [phi_scaled[0]] + [(m, e) for (m, e) in xs_scaled]
    exponents = [int(_s_log2(s)) for s in all_scaled if s[0] != 0.0]
    e_ref = max(exponents) if exponents else 0
    vals = [_s_float((m, e - e_ref)) for (m, e) in all_scaled]
    return RplFourierSolution(N=n_, z0=vals[0], x=vals[1:], params=sys.params)


def solve_auto(params, z0_choice="phi1", start=20, step=8, coeff_tol=1e-10, n_max=400):
    """Grow the truncation order until the top coefficient is negligible.

    Stops once |x_N| / max_n |x_n| < coeff_tol (checked on the normalized
    magnitudes), growing N by ``step`` from ``start``.
    """
    n_ = start
    while True:
        sol = solve_coefficients(build_system(params, n_), z0_choice)
        mags = np.array([abs(float(v)) for v in sol.x])
        top = max(mags[-1], mags[-2] if n_ >= 2 else 0.0)
        if top <= coeff_tol * mags.max():
            return sol
        if n_ >= n_max:
            return sol
        n_ += step
