"""Asymptotic expansions: exact coefficients and cross-limit consistency."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest

from floquet_tls.bloch_dynamics import DriveParams, periodic_orbit
from floquet_tls.errors import DomainError
from floquet_tls.series_limits import (
    RationalSeries,
    TrigPoly,
    adiabatic_expansion,
    ft_solution_small_F,
    high_frequency_series,
    omega0_large_limit,
    pendulum_orbit,
    pendulum_solution,
    pendulum_x1,
    quasienergy_series_small_F,
    quasienergy_small_omega0,
    series_inv,
    series_mul,
    small_F_split_check,
)
from floquet_tls.specfun import bessel_j, bessel_j0_zero

RATIONAL_POINTS = [
    (Q(3, 2), Q(5, 7)),
    (Q(2), Q(1)),
    (Q(7, 3), Q(4, 5)),
    (Q(5, 2), Q(2, 3)),
    (Q(9, 4), Q(1, 2)),
]


def exact_poly_coeffs(fn, degree, xs=None):
    """Exact interpolation of a polynomial given by evaluation at Fractions."""
    xs = xs or [Q(i) for i in range(1, degree + 2)]
    rows = [[x**j for j in range(degree + 1)] for x in xs]
    rhs = [fn(x) for x in xs]
    # Gaussian elimination over Fractions
    size = degree + 1
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Q(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


# ---------------------------------------------------------------------------
# series plumbing


def test_rational_series_is_a_placeholder():
    # only the benchmark tracer still names RationalSeries.__mul__
    with pytest.raises(NotImplementedError):
        RationalSeries() * 1


def random_series(rng, k):
    """k + 1 exact TrigPolys: a nonzero constant, then harmonics up to 3."""

    def frac():
        return Q(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    a0 = Q(int(rng.choice([-3, -2, -1, 1, 2, 3])), int(rng.integers(1, 4)))
    series = [TrigPoly.const(a0)]
    for _ in range(k):
        series.append(TrigPoly(
            cos={int(m): frac() for m in rng.choice(4, size=2, replace=False)},
            sin={int(m): frac() for m in rng.choice(np.arange(1, 4), size=1)},
        ))
    return series


def geometric_inverse(a, k):
    """1/a = (1/a_0) sum_p (-w)^p with w = (a - a_0)/a_0: the reference form."""
    inv0 = 1 / Q(a[0].constant)
    w = [TrigPoly()] + [t.scale(inv0) for t in a[1:]]
    out = [TrigPoly.const(inv0)] + [TrigPoly() for _ in range(k)]
    power = [TrigPoly.const(Q(1))] + [TrigPoly() for _ in range(k)]
    for p in range(1, k + 1):
        power = series_mul(power, w, k)
        out = [o + t.scale((-1) ** p * inv0) for o, t in zip(out, power)]
    return out


def same(a, b):
    return all(x.cos == y.cos and x.sin == y.sin for x, y in zip(a, b, strict=True))


def as_float(series):
    return [TrigPoly({m: float(c) for m, c in t.cos.items()}, {m: float(c) for m, c in t.sin.items()})
            for t in series]


@pytest.mark.parametrize("seed", range(4))
def test_series_inv_recurrence(seed):
    rng = np.random.default_rng(seed)
    for k in (0, 1, 2, 5, 10):
        a = random_series(rng, k)
        inv = series_inv(a, k)
        unit = [TrigPoly.const(Q(1))] + [TrigPoly() for _ in range(k)]
        assert same(series_mul(a, inv, k), unit)
        assert same(inv, geometric_inverse(a, k))
        got = series_inv(as_float(a), k)
        for x, y in zip(got, as_float(inv), strict=True):
            scale = max([1.0] + [abs(c) for c in (*y.cos.values(), *y.sin.values())])
            for mine, ref in ((x.cos, y.cos), (x.sin, y.sin)):
                for m in mine.keys() | ref.keys():
                    assert abs(mine.get(m, 0.0) - ref.get(m, 0.0)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# small-F Fourier-Taylor solution


def test_ft_low_order_tables_exact():
    for w, w0 in RATIONAL_POINTS:
        ft = ft_solution_small_F(2, w, w0)
        assert ft.r_table[(0, 0)] == -w0 / ((w - w0) * (w + w0))
        assert ft.s_table[(1, 1)] == 1 / (4 * (w**2 - w0**2))
        assert ft.r_table[(1, 1)] == -w0 / (8 * (9 * w**2 - w0**2) * (w**2 - w0**2))
        assert ft.r_table[(1, 0)] == -w0 / (8 * (w**2 - w0**2) ** 2)
        assert ft.s_table[(2, 1)] == (3 * w**2 - w0**2) / (
            8 * (w**2 - w0**2) ** 2 * (9 * w**2 - w0**2)
        )
        assert ft.s_table[(2, 2)] == 3 / (64 * (w**2 - w0**2) * (9 * w**2 - w0**2))


def test_ft_triangular_support():
    ft = ft_solution_small_F(5, 2.0, 1.0)
    for (n, m) in ft.r_table:
        assert m <= n
    for (n, m) in ft.s_table:
        assert m <= n


def test_ft_scaling_covariance():
    lam = 2.0
    a = ft_solution_small_F(4, 1.7, 0.6)
    b = ft_solution_small_F(4, lam * 1.7, lam * 0.6)
    for (n, m), val in a.r_table.items():
        if val == 0.0:
            continue
        assert abs(b.r_table[(n, m)] * lam ** (2 * n + 1) - val) < 1e-12 * abs(val)
    for (n, m), val in a.s_table.items():
        if val == 0.0:
            continue
        assert abs(b.s_table[(n, m)] * lam ** (2 * n) - val) < 1e-12 * abs(val)


def test_ft_resonance_denominator_error():
    with pytest.raises(DomainError):
        ft_solution_small_F(3, 1.0, 3.0)  # 3 omega = omega0


def test_ft_trajectory_matches_ode_route():
    p = DriveParams(1.0, 0.05, 0.0, 2.0)
    ft = ft_solution_small_F(4, p.omega, p.omega0)
    orbit = periodic_orbit(p)
    ts = np.linspace(0.0, p.T, 200)
    approx = ft.evaluate(p.F, ts)
    norm = np.linalg.norm(approx, axis=-1).mean()
    assert np.abs(approx / norm - orbit(ts)).max() < 1e-6


def test_quasienergy_series_small_f_exact():
    for w, w0 in RATIONAL_POINTS:
        eps = quasienergy_series_small_F(3, w, w0)
        assert eps[0] == w0 / 2
        assert eps[1] == -w0 / (8 * (w**2 - w0**2))
        assert eps[2] == w0 * (w**2 + 3 * w0**2) / (128 * (w**2 - w0**2) ** 3)
        assert eps[3] == -w0 * (
            -5 * w0**6 + 35 * w**2 * w0**4 + 33 * w**4 * w0**2 + w**6
        ) / (512 * (w**2 - w0**2) ** 5 * (9 * w**2 - w0**2))


def test_small_f_split_coefficients_exact():
    for w, w0 in RATIONAL_POINTS:
        eg2, (ed0, ed2) = small_F_split_check(w, w0)
        assert eg2 == w**2 * w0 / (4 * (w**2 - w0**2) ** 2)
        assert ed0 == w0 / 2
        assert ed2 == w0 * (w0**2 - 3 * w**2) / (8 * (w**2 - w0**2) ** 2)
        assert eg2 + ed2 == -w0 / (8 * (w**2 - w0**2))


# ---------------------------------------------------------------------------
# pendulum limit


def test_pendulum_values():
    state, x1 = pendulum_solution(1.0, 1.0, 0.0)
    assert np.allclose(state, [0.0, 0.0, 1.0])
    assert np.isfinite(x1)
    with pytest.raises(DomainError):
        pendulum_orbit(3.5, 1.0)
    with pytest.raises(DomainError):
        pendulum_orbit(0.0, 1.0)


def test_pendulum_mean_z_is_j0():
    f, w = 1.5, 1.1
    ts = np.arange(8192) * (2 * math.pi / w / 8192)
    mean_z = pendulum_orbit(f, w)(ts)[:, 2].mean()
    assert abs(mean_z - bessel_j(0, f)) < 1e-12


def test_pendulum_first_order_residual():
    f, w, w0 = 1.5, 1.1, 1e-4
    orbit = pendulum_orbit(f, w)
    x1 = pendulum_x1(f, w)

    def traj(t):
        v = orbit(t).copy()
        v[..., 0] = w0 * x1(t)
        return v

    ts = np.linspace(0.05, 5.5, 113)
    dt = 1e-6
    deriv = (traj(ts + dt) - traj(ts - dt)) / (2 * dt)
    h = np.stack([f * w * np.cos(w * ts), np.zeros_like(ts), np.full_like(ts, w0)], axis=-1)
    assert np.abs(deriv - np.cross(h, traj(ts))).max() < 1e-7


def test_small_omega0_law():
    eps, eps_g, eps_d = quasienergy_small_omega0(1.0, 1.0)
    assert abs(eps - 0.5 * bessel_j(0, 1.0)) < 1e-15
    assert abs(eps_g - 0.5 * bessel_j(1, 1.0)) < 1e-15
    assert abs(eps - eps_g - eps_d) < 1e-15
    # resonance: coefficient vanishes at f = j_{0,1}
    j01 = bessel_j0_zero(1)
    eps_res, _, _ = quasienergy_small_omega0(j01, 1.0)
    assert abs(eps_res) < 1e-13
    # f -> 0 recovers the static value 1/2
    eps_small, _, _ = quasienergy_small_omega0(1e-6, 1.0)
    assert abs(eps_small - 0.5) < 1e-9


def test_small_omega0_slope_identity():
    # d(eps)/d(omega) of (w0/2) J0(F/w) equals eps_g / omega
    f_amp, w = 1.0, 1.3
    delta = 1e-6
    hi = quasienergy_small_omega0(f_amp, w + delta)[0]
    lo = quasienergy_small_omega0(f_amp, w - delta)[0]
    _, eps_g, _ = quasienergy_small_omega0(f_amp, w)
    assert abs((hi - lo) / (2 * delta) - eps_g / w) < 1e-8


# ---------------------------------------------------------------------------
# adiabatic limit


def test_adiabatic_printed_values():
    p = DriveParams(1.0, 0.5, 0.0, 0.01)
    exp = adiabatic_expansion(p, 2)
    assert abs(exp.eps0 - 0.52992) < 5e-6
    assert abs(exp.eps2 - 0.0272334) < 5e-7
    assert abs(exp.eps4 - 0.0249063) < 5e-7


def test_adiabatic_requires_static_field():
    with pytest.raises(DomainError):
        adiabatic_expansion(DriveParams(0.0, 0.5, 0.0, 0.1), 1)


def test_adiabatic_trajectory_orders():
    # residual of the truncated expansion drops by w^2 per order
    w = 0.05
    p = DriveParams(1.0, 0.5, 0.0, w)
    exp = adiabatic_expansion(p, 2)
    ts = np.linspace(0.0, p.T, 57)
    dt = 1e-6

    def residual(traj):
        deriv = (traj(ts + dt) - traj(ts - dt)) / (2 * dt)
        h = np.stack(
            [p.F * np.cos(w * ts), np.zeros_like(ts), np.full_like(ts, p.omega0)], axis=-1
        )
        return np.abs(deriv - np.cross(h, traj(ts))).max()

    r0 = residual(lambda t: exp.x0(t))
    r1 = residual(lambda t: exp.x0(t) + w * exp.x1(t))
    r2 = residual(lambda t: exp.x0(t) + w * exp.x1(t) + w * w * exp.x2(t))
    assert r1 < 0.15 * r0
    assert r2 < 0.15 * r1


def test_adiabatic_eps0_is_field_average():
    p = DriveParams(0.8, 1.3, 0.0, 0.02)
    exp = adiabatic_expansion(p, 0)
    ts = np.arange(16384) * (p.T / 16384)
    avg = 0.5 * np.sqrt(p.omega0**2 + (p.F * np.cos(p.omega * ts)) ** 2).mean()
    assert abs(exp.eps0 - avg) < 1e-10


# ---------------------------------------------------------------------------
# fast drive


def test_high_frequency_exact_coefficients():
    for f_amp, w0 in [(Q(2, 3), Q(5, 7)), (Q(1, 2), Q(1)), (Q(3, 2), Q(2, 5))]:
        hf = high_frequency_series(f_amp, w0, 6)
        assert hf.eps_coeffs[0] == w0 / 2
        assert hf.eps_coeffs[2] == -(f_amp**2) * w0 / 8
        assert hf.eps_coeffs[4] == f_amp**2 * w0 * (f_amp**2 - 16 * w0**2) / 128
        assert hf.x_table[(2, 1)] == -f_amp * w0
        assert hf.y_table[(1, 1)] == -f_amp
        assert hf.z_table[(2, 2)] == f_amp**2 / 4


def test_high_frequency_matches_bessel_law_linearly_in_omega0():
    # the part of eps linear in omega0 is (omega0/2) J0(F/omega)
    f_amp = Q(3, 4)
    for k in (1, 2, 3):
        def coeff(w0):
            return high_frequency_series(f_amp, w0, 2 * k).eps_coeffs[2 * k]

        poly = exact_poly_coeffs(coeff, 2 * k + 1)
        linear = poly[1]
        expect = Q(1, 2) * (-1) ** k * f_amp ** (2 * k) / (Q(4) ** k * math.factorial(k) ** 2)
        assert linear == expect


def test_high_frequency_vs_small_f_cross_terms():
    # F^2 parts of the 1/w^2 and 1/w^4 coefficients match the Laurent
    # expansion of the small-F coefficient -w0/(8(w^2-w0^2))
    w0 = Q(2, 3)

    def c2(f_amp):
        return high_frequency_series(f_amp, w0, 2).eps_coeffs[2]

    def c4(f_amp):
        return high_frequency_series(f_amp, w0, 4).eps_coeffs[4]

    poly2 = exact_poly_coeffs(c2, 4, xs=[Q(1), Q(2), Q(3), Q(4), Q(5)])
    poly4 = exact_poly_coeffs(c4, 4, xs=[Q(1), Q(2), Q(3), Q(4), Q(5)])
    assert poly2[2] == -w0 / 8
    assert poly4[2] == -(w0**3) / 8


def test_quasienergy_series_limit_to_strong_field():
    # omega -> 0 limit of the small-F coefficients matches w0/2 + F^2/(8 w0)
    w0 = Q(3, 2)
    eps = quasienergy_series_small_F(2, Q(1, 10**4), w0)
    assert abs(float(eps[1]) - float(1 / (8 * w0))) < 1e-7
    assert abs(float(eps[2]) - float(-3 / (128 * w0**3))) < 1e-7


def test_omega0_large_limit():
    assert omega0_large_limit(0.0, 0.1, 2.0) == 1.0
    val = omega0_large_limit(0.1, 0.01, 10.0)
    assert abs(val - (5.0 + 0.1**2 / 80.0)) < 1e-12
    # against the integrated route
    from floquet_tls.quasienergy import quasienergy_at

    p = DriveParams(10.0, 0.1, 0.0, 0.01)
    res = quasienergy_at(p, method="fourier")
    assert abs(res.epsilon - val) < 1e-4
