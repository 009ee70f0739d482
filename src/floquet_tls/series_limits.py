"""Asymptotic expansions of the linear Rabi problem in its three corners.

Small drive (Fourier-Taylor series in F), slow drive (adiabatic expansion in
omega with elliptic-integral quasienergy), weak static field (exact pendulum
solution plus its first correction), fast drive (series in 1/omega), and the
strong-static-field consistency limit.

Series arithmetic is done on truncated sequences of trigonometric
polynomials (power series in F or 1/omega whose coefficients are TrigPolys):
a product is the Cauchy sum, and a series with a constant, nonzero leading
term is inverted by the term-by-term recurrence of ``series_inv``.
Coefficients may be floats or exact Fractions; equality of the
rational-function coefficients printed by the recursions is certified by
evaluation at rational points rather than by symbolic algebra.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bloch_dynamics import DriveParams
from .errors import DomainError
from .specfun import bessel_j, elliptic_e, elliptic_k

HALF = Fraction(1, 2)


class RationalSeries:
    """Name only, which nothing in the package uses: perfbench/tracer.py wraps
    ``RationalSeries.__mul__``, and ROADMAP.md item 18 drops it with the
    tracer's wrapping."""

    def __mul__(self, other):
        raise NotImplementedError("series_limits.RationalSeries is gone; series are lists of TrigPolys")

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# trigonometric polynomials and truncated power series of them


class TrigPoly:
    """cos/sin polynomial in a fundamental angle; dict harmonic -> coeff.

    Coefficients are whatever ring the caller uses (float or Fraction);
    exact zeros are dropped so support stays finite.
    """

    __slots__ = ("cos", "sin")

    def __init__(self, cos=None, sin=None):
        self.cos = {m: c for m, c in (cos or {}).items() if c != 0}
        self.sin = {m: c for m, c in (sin or {}).items() if c != 0 and m != 0}

    @classmethod
    def const(cls, c):
        return cls(cos={0: c})

    def __add__(self, other):
        cos = dict(self.cos)
        for m, c in other.cos.items():
            cos[m] = cos.get(m, 0) + c
        sin = dict(self.sin)
        for m, c in other.sin.items():
            sin[m] = sin.get(m, 0) + c
        return TrigPoly(cos, sin)

    def __neg__(self):
        return TrigPoly({m: -c for m, c in self.cos.items()}, {m: -c for m, c in self.sin.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        return TrigPoly(
            {m: a * c for m, c in self.cos.items()}, {m: a * c for m, c in self.sin.items()}
        )

    def __mul__(self, other):
        cos, sin = {}, {}

        def addc(m, v):
            if m < 0:
                m = -m
            cos[m] = cos.get(m, 0) + v

        def adds(m, v):
            if m == 0:
                return
            if m < 0:
                m, v = -m, -v
            sin[m] = sin.get(m, 0) + v

        for a, ca in self.cos.items():
            for b, cb in other.cos.items():
                v = HALF * (ca * cb)
                addc(a - b, v)
                addc(a + b, v)
            for b, cb in other.sin.items():
                v = HALF * (ca * cb)
                adds(a + b, v)
                adds(b - a, v)
        for a, ca in self.sin.items():
            for b, cb in other.cos.items():
                v = HALF * (ca * cb)
                adds(a + b, v)
                adds(a - b, v)
            for b, cb in other.sin.items():
                v = HALF * (ca * cb)
                addc(a - b, v)
                addc(a + b, -v)
        return TrigPoly(cos, sin)

    @property
    def constant(self):
        return self.cos.get(0, 0)

    def is_constant(self, tol=0.0):
        mags = [abs(c) for m, c in self.cos.items() if m != 0]
        mags += [abs(c) for c in self.sin.values()]
        if not mags:
            return True
        return max(float(m) for m in mags) <= tol


def _zero_series(k):
    return [TrigPoly() for _ in range(k + 1)]


def series_mul(a, b, k):
    out = _zero_series(k)
    for i, ai in enumerate(a[: k + 1]):
        if not (ai.cos or ai.sin):
            continue
        for j in range(k + 1 - i):
            bj = b[j]
            if bj.cos or bj.sin:
                out[i + j] = out[i + j] + ai * bj
    return out


def series_scale(a, c):
    return [t.scale(c) for t in a]


def series_add(a, b):
    return [x + y for x, y in zip(a, b)]


def series_inv(a, k):
    """Inverse b of a series whose order-0 term is an invertible constant.

    b_0 = 1/a_0 and b_n = -(a_1 b_{n-1} + ... + a_n b_0)/a_0.
    """
    c0 = a[0].constant
    if c0 == 0 or not a[0].is_constant():
        raise DomainError("series inverse requires a constant leading term")
    inv0 = 1.0 / c0 if isinstance(c0, float) else Fraction(1) / Fraction(c0)
    out = [TrigPoly.const(inv0)]
    for n in range(1, k + 1):
        acc = TrigPoly()
        for j in range(1, n + 1):
            aj, bj = a[j], out[n - j]
            if (aj.cos or aj.sin) and (bj.cos or bj.sin):
                acc = acc + aj * bj
        out.append(acc.scale(-inv0))
    return out


def series_sqrt_consts(a, k):
    """sqrt of a series of constants with leading term 1."""
    if a[0].constant != 1:
        raise DomainError("sqrt expects leading coefficient 1")
    u = [t.constant for t in a]
    s = [1.0 if any(isinstance(c, float) for c in u) else Fraction(1)]
    for j in range(1, k + 1):  # s^2 = u: 2 s_j = u_j - sum_{i=1}^{j-1} s_i s_{j-i}
        s.append(HALF * (u[j] - sum(s[i] * s[j - i] for i in range(1, j))))
    return [TrigPoly.const(c) for c in s]


def _check_constant_radius(r2, rel=1e-8):
    scale = 1.0
    for term in r2:
        for c in list(term.cos.values()) + list(term.sin.values()):
            scale = max(scale, abs(float(c)))
    for order, term in enumerate(r2):
        if not term.is_constant(rel * scale):
            raise DomainError(
                f"norm^2 acquired time dependence at series order {order}; ansatz violated"
            )


def _quasienergy_terms(x_ser, y_ser, z_ser, omega0, k, numerator):
    """Constant Fourier terms of chi and chi_d given trajectory series.

    ``numerator`` is the series of h1(t) X(t) (drive-dependent); chi is
    (omega0 + numerator/(R+Z))/2 and chi_d is (numerator + omega0 Z)/(2R).
    """
    r2 = series_add(
        series_mul(x_ser, x_ser, k),
        series_add(series_mul(y_ser, y_ser, k), series_mul(z_ser, z_ser, k)),
    )
    _check_constant_radius(r2)
    r_ser = series_sqrt_consts(r2, k)
    inv_rz = series_inv(series_add(r_ser, z_ser), k)
    chi = series_scale(series_mul(numerator, inv_rz, k), HALF)
    chi[0] = chi[0] + TrigPoly.const(HALF * omega0)
    inv_r = series_inv(r_ser, k)
    chi_d = series_scale(
        series_mul(series_add(numerator, series_scale(z_ser, omega0)), inv_r, k), HALF
    )
    eps = [t.constant for t in chi]
    eps_d = [t.constant for t in chi_d]
    eps_g = [a - b for a, b in zip(eps, eps_d)]
    return eps, eps_d, eps_g


# ---------------------------------------------------------------------------
# small-F Fourier-Taylor solution


@dataclass
class FourierTaylorSeries:
    """Trajectory tables of the small-F expansion at fixed (omega, omega0).

    r_table[(n, m)] is the cos((2m+1) w t) coefficient at order F^(2n+1) of
    X; s_table[(n, m)] the cos(2m w t) coefficient at order F^(2n) of Z.
    Y is determined by Y = -X'/omega0.  Support is triangular: m <= n.
    """

    omega: object
    omega0: object
    max_order: int
    r_table: dict = field(repr=False)
    s_table: dict = field(repr=False)

    def evaluate(self, f_amp, t):
        """Bloch vector(s) of the truncated series at drive amplitude F."""
        t = np.asarray(t, dtype=float)
        w = float(self.omega)
        w0 = float(self.omega0)
        x = np.zeros(t.shape)
        y = np.zeros(t.shape)
        z = np.zeros(t.shape)
        for n in range(self.max_order + 1):
            for m in range(n + 1):
                r = float(self.r_table[(n, m)])
                xterm = f_amp ** (2 * n + 1) * r
                x += xterm * np.cos((2 * m + 1) * w * t)
                y += xterm * (2 * m + 1) * w / w0 * np.sin((2 * m + 1) * w * t)
                s = float(self.s_table[(n, m)])
                z += f_amp ** (2 * n) * s * np.cos(2 * m * w * t)
        return np.stack([x, y, z], axis=-1)


def _check_small_f_denominators(max_order, omega, omega0):
    for m in range(max_order + 1):
        if (2 * m + 1) ** 2 * omega * omega == omega0 * omega0:
            raise DomainError(
                f"resonant denominator: (2m+1) omega = omega0 at m = {m}; "
                "the small-F expansion does not exist there"
            )


def ft_solution_small_F(max_order, omega, omega0):
    """Tables R_{n,m}, S_{n,m} of the small-F trajectory expansion.

    Exact when omega/omega0 are Fractions, floating otherwise.  Requires
    (2m+1) omega != omega0 for all m <= max_order.
    """
    exact = isinstance(omega, Fraction) or isinstance(omega0, Fraction)
    if exact:
        omega, omega0 = Fraction(omega), Fraction(omega0)
    _check_small_f_denominators(max_order, omega, omega0)
    one = Fraction(1) if exact else 1.0
    r_table = {}
    s_table = {(0, 0): one}
    r_table[(0, 0)] = -omega0 / ((omega - omega0) * (omega + omega0)) * one
    for n in range(1, max_order + 1):
        s_table[(n, 0)] = 0 * one
        for m in range(1, n + 1):
            prev = r_table.get((n - 1, m), 0 * one)
            prev_lower = r_table.get((n - 1, m - 1), 0 * one)
            s_table[(n, m)] = (
                -((2 * m + 1) * prev + (2 * m - 1) * prev_lower) / (4 * m * omega0)
            )
        for m in range(0, n + 1):
            s_here = s_table.get((n, m), 0 * one)
            s_up = s_table.get((n, m + 1), 0 * one)
            r_table[(n, m)] = -omega0 * (s_here + s_up) / (
                2 * ((2 * m + 1) ** 2 * omega**2 - omega0**2)
            )
    return FourierTaylorSeries(
        omega=omega, omega0=omega0, max_order=max_order, r_table=r_table, s_table=s_table
    )


def _small_f_terms(max_order, omega, omega0):
    """(eps, eps_d, eps_g) coefficients of F^0 ... F^(2 max_order)."""
    ft = ft_solution_small_F(max_order, omega, omega0)
    k = 2 * max_order
    x_ser = _zero_series(k)
    y_ser = _zero_series(k)
    z_ser = _zero_series(k)
    for n in range(max_order + 1):
        for m in range(n + 1):
            if 2 * n + 1 <= k:
                r = ft.r_table[(n, m)]
                x_ser[2 * n + 1] = x_ser[2 * n + 1] + TrigPoly(cos={2 * m + 1: r})
                y_ser[2 * n + 1] = y_ser[2 * n + 1] + TrigPoly(
                    sin={2 * m + 1: r * (2 * m + 1) * omega / omega0}
                )
            s = ft.s_table[(n, m)]
            if 2 * n <= k:
                z_ser[2 * n] = z_ser[2 * n] + TrigPoly(cos={2 * m: s})
    # h1 X = F cos(wt) X(t): multiply by cos and shift one power of F
    cosw = _zero_series(k)
    cosw[1] = TrigPoly(cos={1: 1 if isinstance(omega, Fraction) else 1.0})
    numerator = series_mul(cosw, x_ser, k)
    return _quasienergy_terms(x_ser, y_ser, z_ser, omega0, k, numerator)


def quasienergy_series_small_F(max_order, omega, omega0):
    """Coefficients [c_0, c_1, ...] of eps = sum_k c_k F^(2k)."""
    eps, _, _ = _small_f_terms(max_order, omega, omega0)
    return eps[0 : 2 * max_order + 1 : 2]


def small_F_split_check(omega, omega0):
    """F^2 coefficients of the geometric and dynamical parts of eps.

    Returns (eps_g_coeff, [eps_d_order0, eps_d_coeff]); the sum of the two
    F^2 coefficients is the F^2 coefficient of the full quasienergy.
    """
    _, eps_d, eps_g = _small_f_terms(2, omega, omega0)
    return eps_g[2], [eps_d[0], eps_d[2]]


# ---------------------------------------------------------------------------
# pendulum limit (omega0 -> 0)


def _check_pendulum_f(f):
    if not (0 < f < math.pi):
        raise DomainError(f"pendulum ratio f = F/omega must lie in (0, pi), got {f}")


def pendulum_orbit(f, omega):
    """Exact zero-static-field orbit (0, -sin(f sin wt), cos(f sin wt))."""
    _check_pendulum_f(f)

    def orbit(t):
        t = np.asarray(t, dtype=float)
        arg = f * np.sin(omega * t)
        out = np.empty(t.shape + (3,))
        out[..., 0] = 0.0
        out[..., 1] = -np.sin(arg)
        out[..., 2] = np.cos(arg)
        return out

    return orbit


def pendulum_x1(f, omega, n_terms=None):
    """First-order x-correction X_1(t) = -(2/w) sum_odd J_n(f) cos(n w t)/n."""
    _check_pendulum_f(f)
    if n_terms is None:
        n_terms = 5
        while abs(bessel_j(n_terms, f)) > 1e-18 and n_terms < 120:
            n_terms += 2
    ns = np.arange(1, n_terms + 1, 2)
    js = np.array([bessel_j(int(n), f) for n in ns])

    def x1(t):
        t = np.asarray(t, dtype=float)
        ang = np.multiply.outer(t, ns * omega)
        return -(2.0 / omega) * (np.cos(ang) @ (js / ns))

    return x1


def pendulum_solution(f, omega, t):
    """Pendulum Bloch vector and the correction X_1 at time(s) t."""
    return pendulum_orbit(f, omega)(t), pendulum_x1(f, omega)(t)


def quasienergy_small_omega0(f_amp, omega):
    """Linear-in-omega0 quasienergy law eps = (omega0/2) J_0(F/omega).

    Returns the coefficients of omega0 in (eps, eps_g, eps_d):
    J_0(f)/2, (f/2) J_1(f), (J_0(f) - f J_1(f))/2.
    """
    f = f_amp / omega
    _check_pendulum_f(f)
    j0 = bessel_j(0, f)
    j1 = bessel_j(1, f)
    eps = 0.5 * j0
    eps_g = 0.5 * f * j1
    eps_d = 0.5 * (j0 - f * j1)
    return eps, eps_g, eps_d


# ---------------------------------------------------------------------------
# adiabatic limit (omega -> 0)


@dataclass
class AdiabaticExpansion:
    """Trajectory terms X_0, X_1, X_2 and quasienergy terms eps_0, eps_2, eps_4."""

    params: DriveParams
    order: int
    eps0: float
    eps2: float = 0.0
    eps4: float = 0.0

    def x0(self, t):
        p = self.params
        t = np.asarray(t, dtype=float)
        h1 = p.F * np.cos(p.omega * t)
        norm = np.sqrt(p.omega0**2 + h1 * h1)
        out = np.empty(t.shape + (3,))
        out[..., 0] = h1 / norm
        out[..., 1] = 0.0
        out[..., 2] = p.omega0 / norm
        return out

    def x1(self, t):
        p = self.params
        t = np.asarray(t, dtype=float)
        u = p.F**2 * np.cos(p.omega * t) ** 2 + p.omega0**2
        out = np.zeros(t.shape + (3,))
        out[..., 1] = p.F * p.omega0 * np.sin(p.omega * t) / u**1.5
        return out

    def x2(self, t):
        p = self.params
        t = np.asarray(t, dtype=float)
        c, s = np.cos(p.omega * t), np.sin(p.omega * t)
        u = p.F**2 * c * c + p.omega0**2
        # d/dt X1_y carries one factor omega; X2 = (X1' x h)/(w |h|^2) + lam2 h
        dy1_over_w = p.F * p.omega0 * c * (u + 3 * p.F**2 * s * s) / u**2.5
        lam2 = -(p.F**2 * p.omega0**2 * s * s) / (2 * u**3.5)
        out = np.empty(t.shape + (3,))
        out[..., 0] = dy1_over_w * p.omega0 / u + lam2 * p.F * c
        out[..., 1] = 0.0
        out[..., 2] = -dy1_over_w * p.F * c / u + lam2 * p.omega0
        return out


def adiabatic_expansion(params, order=2):
    """Slow-drive expansion; breaks down at omega0 = 0."""
    if params.omega0 <= 0:
        raise DomainError("the adiabatic expansion requires omega0 > 0")
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, got {order}")
    w0, f_amp = params.omega0, params.F
    eps0 = w0 / math.pi * elliptic_e(-(f_amp**2) / w0**2)
    exp = AdiabaticExpansion(params=params, order=order, eps0=eps0)
    if order >= 1:
        m = f_amp**2 / (f_amp**2 + w0**2)
        ee, kk = elliptic_e(m), elliptic_k(m)
        exp.eps2 = ((2 * f_amp**2 + w0**2) * ee - w0**2 * kk) / (
            6 * math.pi * w0**2 * math.sqrt(f_amp**2 + w0**2)
        )
    if order >= 2:
        m = f_amp**2 / (f_amp**2 + w0**2)
        ee, kk = elliptic_e(m), elliptic_k(m)
        pref = 1.0 / (60 * math.pi * w0**6 * (f_amp**2 + w0**2) ** 2.5)
        e_part = (
            64 * f_amp**8
            + 200 * f_amp**6 * w0**2
            + 231 * f_amp**4 * w0**4
            + 137 * f_amp**2 * w0**6
            - 14 * w0**8
        ) / 6.0
        k_part = (
            16 * f_amp**6 + 36 * f_amp**4 * w0**2 + 27 * f_amp**2 * w0**4 - 7 * w0**6
        ) / 3.0
        exp.eps4 = pref * (e_part * ee - w0**2 * k_part * kk)
    return exp


# ---------------------------------------------------------------------------
# fast drive (series in 1/omega)


@dataclass
class HighFrequencySeries:
    """Trajectory and quasienergy series in 1/omega at fixed (F, omega0).

    x_table[(n, m)]: coefficient of (1/w)^n cos(m w t) in X; y_table the
    sin coefficients of Y; z_table the cos coefficients of Z (Z starts at
    1).  eps_coeffs[k] multiplies (1/w)^k in the quasienergy.
    """

    f_amp: object
    omega0: object
    max_order: int
    x_table: dict = field(repr=False)
    y_table: dict = field(repr=False)
    z_table: dict = field(repr=False)
    eps_coeffs: list = field(default_factory=list)

    def epsilon(self, omega):
        return sum(float(c) / omega**k for k, c in enumerate(self.eps_coeffs))

    def evaluate(self, omega, t):
        t = np.asarray(t, dtype=float)
        x = np.zeros(t.shape)
        y = np.zeros(t.shape)
        z = np.ones(t.shape)
        for (n, m), c in self.x_table.items():
            x += float(c) / omega**n * np.cos(m * omega * t)
        for (n, m), c in self.y_table.items():
            y += float(c) / omega**n * np.sin(m * omega * t)
        for (n, m), c in self.z_table.items():
            z += float(c) / omega**n * np.cos(m * omega * t)
        return np.stack([x, y, z], axis=-1)


def high_frequency_series(f_amp, omega0, max_order=6):
    """Fast-drive trajectory and quasienergy series to (1/omega)^max_order.

    Exact with Fraction inputs.  The trajectory ansatz keeps Z(t) = 1 at
    order zero and is not normalized; the quasienergy machinery divides by
    the (constant) radius series.
    """
    one = Fraction(1) if isinstance(f_amp, Fraction) or isinstance(omega0, Fraction) else 1.0
    f_amp = f_amp * one
    omega0 = omega0 * one
    k = max_order
    x_table, y_table, z_table = {}, {}, {}
    z0 = {0: one}  # harmonic -> coeff of the order-0 Z term

    def y_at(n, m):
        return y_table.get((n, m), 0 * one)

    def x_at(n, m):
        return x_table.get((n, m), 0 * one)

    def z_at(n, m):
        if n == 0:
            return z0.get(m, 0 * one)
        return z_table.get((n, m), 0 * one)

    for n in range(0, k):
        # order T^n of the three equations determines tables at n+1
        for m in range(1, n + 3, 2):  # odd harmonics of Y at order n+1
            if m > n + 1:
                continue
            ztilde_low = z_at(n, m - 1) * (2 if m == 1 else 1)
            coeff = omega0 * x_at(n, m) - f_amp * HALF * (ztilde_low + z_at(n, m + 1))
            if coeff != 0:
                y_table[(n + 1, m)] = coeff / m
        for m in range(1, n + 2, 2):  # odd harmonics of X at order n+1
            coeff = omega0 * y_at(n, m)
            if coeff != 0:
                x_table[(n + 1, m)] = coeff / m
        for m in range(2, n + 2, 2):  # even harmonics of Z at order n+1
            coeff = -f_amp * HALF * (y_at(n, m - 1) + y_at(n, m + 1))
            if coeff != 0:
                z_table[(n + 1, m)] = coeff / m

    x_ser = _zero_series(k)
    y_ser = _zero_series(k)
    z_ser = _zero_series(k)
    z_ser[0] = TrigPoly.const(one)
    for (n, m), c in x_table.items():
        if n <= k:
            x_ser[n] = x_ser[n] + TrigPoly(cos={m: c})
    for (n, m), c in y_table.items():
        if n <= k:
            y_ser[n] = y_ser[n] + TrigPoly(sin={m: c})
    for (n, m), c in z_table.items():
        if n <= k:
            z_ser[n] = z_ser[n] + TrigPoly(cos={m: c})

    cosw = _zero_series(k)
    cosw[0] = TrigPoly(cos={1: f_amp})
    numerator = series_mul(cosw, x_ser, k)
    eps, _, _ = _quasienergy_terms(x_ser, y_ser, z_ser, omega0, k, numerator)
    return HighFrequencySeries(
        f_amp=f_amp,
        omega0=omega0,
        max_order=max_order,
        x_table=x_table,
        y_table=y_table,
        z_table=z_table,
        eps_coeffs=eps,
    )


def omega0_large_limit(f_amp, omega, omega0):
    """Strong-static-field quasienergy w0/2 + F^2/(8 w0), error O(F^3, w^2)."""
    return 0.5 * omega0 + f_amp**2 / (8.0 * omega0)
