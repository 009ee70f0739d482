"""Special-function tests against independent oracles.

Bessel values are checked against the integral representation
J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt evaluated by fine trapezoid
sums, and against scipy.special; elliptic integrals against adaptive
quadrature of their defining integrals.
"""

import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from floquet_tls import specfun
from floquet_tls.errors import DomainError
from floquet_tls.specfun import bessel_j, bessel_j0_zero, elliptic_e, elliptic_k


def bessel_integral(n, x, grid=20001):
    theta = np.linspace(0.0, math.pi, grid)
    vals = np.cos(n * theta - x * np.sin(theta))
    return np.trapezoid(vals, theta) / math.pi


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def test_bessel_first_root_of_j0():
    # bracketed root of the power-series evaluation of J0
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j(0, lo) * bessel_j(0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 2.404825557695773) < 1e-12
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-10


def test_bessel_against_integral_representation():
    for n, x in [(0, 0.5), (1, 3.0), (4, 7.7), (2, 11.0), (0, 25.0), (9, 40.0)]:
        assert abs(bessel_j(n, x) - bessel_integral(n, x)) < 1e-11


def test_bessel_against_scipy_random():
    rng = np.random.default_rng(7)
    for _ in range(250):
        n = int(rng.integers(0, 201))
        x = float(rng.uniform(0.0, 1e4))
        assert abs(bessel_j(n, x) - scipy.special.jv(n, x)) < 1e-12


def test_bessel_negative_argument_parity():
    for n in range(6):
        assert bessel_j(n, -3.7) == pytest.approx((-1.0) ** n * bessel_j(n, 3.7), abs=1e-15)


def test_bessel_recurrence_property():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        x = float(rng.uniform(0.5, 80.0))
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        assert abs(lhs - 2.0 * n / x * bessel_j(n, x)) < 1e-11


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(201, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, 1.5e4)


def test_j0_zeros_frozen_values():
    assert abs(bessel_j0_zero(1) - 2.404825557695773) < 1e-10
    assert abs(bessel_j0_zero(2) - 5.520078110286311) < 1e-10


def test_j0_zeros_are_roots_and_increasing():
    zeros = [bessel_j0_zero(n) for n in range(1, 51)]
    for z in zeros:
        assert abs(bessel_j(0, z)) < 1e-10
    assert all(b > a for a, b in zip(zeros, zeros[1:]))
    # spacing approaches pi
    assert abs((zeros[49] - zeros[48]) - math.pi) < 1e-3


def test_j0_zeros_match_scipy_up_to_400():
    ref = scipy.special.jn_zeros(0, 400)
    ours = np.array([bessel_j0_zero(n) for n in range(1, 401)])
    assert np.abs(ours - ref).max() < 1e-12


def test_j0_zero_newton_stops_at_roundoff(monkeypatch):
    # the stop test once was |step| < 1e-13: j_{0,4} took 29 iterations, and
    # n = 329, 336, 348 ... 395 ran all 60 without meeting it
    calls = []

    def counting(n, x):
        calls.append(n)
        return bessel_j(n, x)

    monkeypatch.setattr(specfun, "bessel_j", counting)
    bessel_j0_zero.cache_clear()
    try:
        for n in range(1, 401):
            calls.clear()
            bessel_j0_zero(n)
            assert len(calls) <= 2 * 8, n  # J_0 and J_1 per Newton iteration
    finally:
        bessel_j0_zero.cache_clear()


def test_j0_zero_is_memoized():
    assert bessel_j0_zero(3) is bessel_j0_zero(3)


def test_j0_zero_domain():
    with pytest.raises(DomainError):
        bessel_j0_zero(0)
    with pytest.raises(DomainError):
        bessel_j0_zero(401)
    with pytest.raises(DomainError):
        bessel_j0_zero(2.5)


def test_elliptic_trivial():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert elliptic_e(0.0) == pytest.approx(math.pi / 2, abs=1e-15)


def test_elliptic_negative_parameter_printed_value():
    assert abs(elliptic_e(-0.25) / math.pi - 0.52992) < 5e-6


def test_elliptic_against_quadrature():
    for m in (-9.5, -2.0, -0.25, -1e-8, 0.3, 0.8, 0.99):
        k_ref = quad(lambda t: (1 - m * math.sin(t) ** 2) ** -0.5, 0, math.pi / 2,
                     epsabs=1e-13, epsrel=1e-13)[0]
        e_ref = quad(lambda t: (1 - m * math.sin(t) ** 2) ** 0.5, 0, math.pi / 2,
                     epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(elliptic_k(m) - k_ref) < 1e-12
        assert abs(elliptic_e(m) - e_ref) < 1e-12


def test_elliptic_e_vs_k_ordering():
    # E < K on (0, 1) where the integrand dips below one; the order is
    # reversed for negative parameter where the integrand exceeds one
    for m in np.linspace(0.01, 0.99, 20):
        assert elliptic_e(m) < elliptic_k(m)
    for m in np.linspace(-9.9, -0.01, 20):
        assert elliptic_e(m) > elliptic_k(m)
    assert elliptic_e(0.0) == elliptic_k(0.0)


def test_elliptic_domain():
    with pytest.raises(DomainError):
        elliptic_k(1.0)
    with pytest.raises(DomainError):
        elliptic_e(1.5)


def test_jacobi_anger_identity():
    tau = np.linspace(0.0, 2.0 * math.pi, 257)
    for f in (0.5, 2.0, 5.0, 10.0):
        series = bessel_j(0, f) * np.ones_like(tau)
        for n in range(2, 61, 2):
            series += 2.0 * bessel_j(n, f) * np.cos(n * tau)
        assert np.abs(np.cos(f * np.sin(tau)) - series).max() < 1e-10
