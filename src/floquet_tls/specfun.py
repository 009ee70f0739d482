"""Self-contained special functions for the closed-form limit cases.

Bessel functions J_n of integer order, zeros of J_0, and complete elliptic
integrals K(m), E(m) in the parameter convention

    K(m) = int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt,

valid for m < 1 including negative m.

Algorithms:
  * J_n via the ascending power series for |x| <= 12 and Miller's downward
    recurrence with even-order normalization otherwise.
  * Zeros of J_0 from a two-term McMahon asymptotic guess refined by Newton
    iteration (J_0' = -J_1) until its step stops shrinking.
  * K, E by one arithmetic-geometric mean of 1 and sqrt(1 - m) with
    c_0^2 = m, for every m < 1, negative m included (Abramowitz & Stegun
    17.6); at m = 0 it returns pi/2 for both.

All functions are pure; bessel_j0_zero memoizes its results, because the
resonance search asks for the same few zeros at every amplitude.
"""

import functools
import math

from .errors import DomainError

_SERIES_CUTOFF = 12.0
_MAX_ORDER = 200
_MAX_ARG = 1.0e4
_MAX_J0_ZERO = 400


def _bessel_series(n, x):
    """Ascending series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!), x >= 0."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    half = 0.5 * x
    # seed (x/2)^n / n! in log form; underflow means J_n is zero to 1e-12
    log_t0 = n * math.log(half) - math.lgamma(n + 1)
    if log_t0 < -745.0:
        return 0.0
    term = math.exp(log_t0)
    total = term
    q = half * half
    for k in range(1, 400):
        term *= -q / (k * (n + k))
        total += term
        if abs(term) <= 1e-18 * abs(total) + 1e-300:
            break
    return total


def _bessel_miller(n, x):
    """Downward recurrence normalized by J_0 + 2 sum J_{2k} = 1 (x > 0)."""
    m_start = int(x + 12.0 * x ** (1.0 / 3.0) + 25.0)
    m_start = max(m_start, n + 25)
    if m_start % 2:
        m_start += 1
    jp = 0.0
    jc = 1e-300
    norm = 0.0
    result = 0.0
    for m in range(m_start, 0, -1):
        jm = (2.0 * m / x) * jc - jp
        jp = jc
        jc = jm
        if m - 1 == n:
            result = jc
        if (m - 1) % 2 == 0:
            norm += jc if m - 1 == 0 else 2.0 * jc
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            result *= 1e-250
    return result / norm


def bessel_j(n, x):
    """Bessel function of the first kind and integer order n >= 0.

    Supported domain: 0 <= n <= 200, |x| <= 1e4; absolute error <= 1e-12.
    """
    if int(n) != n:
        raise DomainError(f"order must be a non-negative integer, got {n}")
    n = int(n)
    if n < 0 or n > _MAX_ORDER:
        raise DomainError(f"order out of range [0, {_MAX_ORDER}]: {n}")
    x = float(x)
    if not math.isfinite(x) or abs(x) > _MAX_ARG:
        raise DomainError(f"argument out of range |x| <= {_MAX_ARG}: {x}")
    sign = -1.0 if (x < 0 and n % 2) else 1.0
    ax = abs(x)
    if ax <= _SERIES_CUTOFF:
        return sign * _bessel_series(n, ax)
    return sign * _bessel_miller(n, ax)


@functools.lru_cache(maxsize=None)
def bessel_j0_zero(n):
    """n-th positive zero of J_0, 1 <= n <= 400, absolute error <= 1e-10."""
    if int(n) != n or not (1 <= int(n) <= _MAX_J0_ZERO):
        raise DomainError(f"zero index out of range [1, {_MAX_J0_ZERO}]: {n}")
    n = int(n)
    beta = (n - 0.25) * math.pi
    x = beta + 1.0 / (8.0 * beta)  # McMahon guess, error O(beta^-3)
    last = math.inf
    for _ in range(60):
        step = bessel_j(0, x) / -bessel_j(1, x)
        if abs(step) >= last:  # Newton has reached the roundoff of x
            break
        x -= step
        last = abs(step)
    return x


def _elliptic_pair(m):
    """K(m) and E(m) for m < 1 by the AGM with the c-sum correction."""
    m = float(m)
    if not m < 1.0:
        raise DomainError(f"elliptic parameter must satisfy m < 1, got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    csum = 0.5 * m  # 2^(-1) c_0^2 with c_0^2 = m
    pow2 = 0.5
    for _ in range(40):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        pow2 *= 2.0
        csum += pow2 * c * c
        if abs(c) <= 2e-16 * a:
            break
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - csum)


def elliptic_k(m):
    """Complete elliptic integral of the first kind, parameter m < 1."""
    return _elliptic_pair(m)[0]


def elliptic_e(m):
    """Complete elliptic integral of the second kind, parameter m < 1."""
    return _elliptic_pair(m)[1]
