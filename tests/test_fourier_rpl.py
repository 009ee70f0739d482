"""Frequency-domain route: tridiagonal system, minors, coefficients."""

import math
import re
from dataclasses import replace
from fractions import Fraction as Q

import numpy as np
import pytest
import rational_ladder
from sweep_rows import sweep_rows

from floquet_tls.bloch_dynamics import DriveParams, periodic_orbit
from floquet_tls import cli, fourier_rpl
from floquet_tls.errors import DomainError, SeriesInstabilityError
from floquet_tls.fourier_rpl import (
    build_system,
    minors,
    solve_auto,
    solve_coefficients,
)
from floquet_tls.quasienergy import quasienergy_classical


def rpl(omega0, F, omega):
    return DriveParams(omega0=omega0, F=F, G=0.0, omega=omega)


def dense(sys_):
    """The truncated system as a dense matrix, for cross-checks against LU determinants."""
    return np.diag(sys_.diag) + np.diag(sys_.sup, 1) + np.diag(sys_.sub, -1)


def test_build_system_rejects_elliptic():
    with pytest.raises(DomainError):
        build_system(DriveParams(1.0, 1.0, 0.5, 1.0), 6)


def test_order_six_matrix_entries():
    w0, f_amp, w = 1.0, 1.0, 1.0
    sys6 = build_system(rpl(w0, f_amp, w), 6)
    a = dense(sys6)
    assert a[0, 0] == w * w - w0 * w0 == 0.0
    assert a[1, 2] == -3 * f_amp * w / 2 == -1.5
    expected = np.array(
        [
            [w**2 - w0**2, f_amp / 2, 0, 0, 0, 0],
            [-f_amp * w / 2, -2 * w, -3 * f_amp * w / 2, 0, 0, 0],
            [0, f_amp / 2, 9 * w**2 - w0**2, f_amp / 2, 0, 0],
            [0, 0, -3 * f_amp * w / 2, -4 * w, -5 * f_amp * w / 2, 0],
            [0, 0, 0, f_amp / 2, 25 * w**2 - w0**2, f_amp / 2],
            [0, 0, 0, 0, -5 * f_amp * w / 2, -6 * w],
        ]
    )
    assert np.array_equal(a, expected)


def test_zero_drive_decouples():
    a = dense(build_system(rpl(1.0, 0.0, 0.7), 8))
    assert np.abs(a - np.diag(np.diag(a))).max() == 0.0


def test_minors_two_by_two():
    p = rpl(0.7, 0.9, 1.3)
    det = minors(build_system(p, 2)).det
    expect = (1.3**2 - 0.7**2) * (-2 * 1.3) - (0.9 / 2) * (-0.9 * 1.3 / 2)
    assert abs(det - expect) < 1e-14


def test_minors_recursion_residual():
    p = rpl(1.2, 0.8, 0.9)
    sys_ = build_system(p, 16)
    lad = minors(sys_)
    for k in range(1, 15):
        a = sys_.diag[k - 1]
        b = -sys_.sup[k - 1] * sys_.sub[k - 1]
        lhs = lad.phi(k)
        rhs = a * lad.phi(k + 1) + b * (lad.phi(k + 2) if k + 2 <= 16 else 1.0)
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)


def test_minors_against_lu_determinant():
    rng = np.random.default_rng(5)
    for _ in range(100):
        w0, f_amp, w = rng.uniform(0.05, 5.0, 3)
        n = int(rng.integers(2, 25))
        sys_ = build_system(rpl(w0, f_amp, w), n)
        det_lad = minors(sys_).det
        sign, logdet = np.linalg.slogdet(dense(sys_))
        det_ref = sign * math.exp(logdet)
        assert abs(det_lad - det_ref) <= 1e-8 * max(abs(det_ref), 1e-12)


def test_ladder_sign_and_log_determinant_match_slogdet():
    rng = np.random.default_rng(5)  # the systems of test_minors_against_lu_determinant
    cases = []
    for _ in range(100):
        w0, f_amp, w = rng.uniform(0.05, 5.0, 3)
        cases.append((rpl(w0, f_amp, w), int(rng.integers(2, 25))))
    cases.append((rpl(1.0, 0.5, 40.0), 80))  # float det overflows here
    for p, n in cases:
        sys_ = build_system(p, n)
        sign, log2_abs = minors(sys_).slog2()
        ref_sign, ref_log = np.linalg.slogdet(dense(sys_))
        assert sign == ref_sign
        assert abs(log2_abs - ref_log / math.log(2)) <= 1e-13 * max(1.0, abs(log2_abs))


@pytest.mark.parametrize(
    "omega0, F, omega, n_trunc",
    [
        (Q(1), Q(1, 2), Q(2), 12),
        (Q(1), Q(3, 4), Q(5, 8), 30),
        (Q(3, 2), Q(5, 4), Q(1, 4), 48),
        (Q(1), Q(4), Q(1, 8), 64),
        (Q(1), Q(21, 8), Q(7, 16), 80),
    ],
)
def test_float_phi1_coefficients_match_exact(omega0, F, omega, n_trunc):
    # dyadic inputs, so the float ladder and the Fraction reference solve the same matrix
    z0, xs = rational_ladder.coefficients(rpl(omega0, F, omega), n_trunc)
    approx = solve_coefficients(build_system(rpl(float(omega0), float(F), float(omega)), n_trunc))
    # each side rescaled by its own signed x_1, exactly on the Fraction side: the
    # float ladder orients the orbit by X(0), the reference keeps z0 = phi_1
    ref = np.array([float(v / xs[0]) for v in [z0] + xs])
    got = np.array([approx.z0] + approx.x) / approx.x[0]
    assert np.all(ref != 0.0)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_vanishing_trailing_minor():
    # phi_3 = a_3 = 9 omega^2 - omega0^2 = 0 exactly with F != 0, so the
    # ratio r_2 = a_2 + b_2 / r_3 cannot be formed as written
    float_sys = build_system(rpl(3.0, 1.0, 1.0), 3)
    det = float(rational_ladder.minors(*rational_ladder.entries(rpl(Q(3), Q(1), Q(1)), 3))[0])
    lad = minors(float_sys)
    assert det == -6.0 and abs(lad.det - det) <= 1e-14 * abs(det)
    sign, log2_abs = lad.slog2()  # log2 r_2 and log2 r_3 are about +-500 here
    assert sign == -1.0 and abs(log2_abs - math.log2(6.0)) <= 1e-12
    z0, xs = rational_ladder.coefficients(rpl(Q(3), Q(1), Q(1)), 3)
    approx = solve_coefficients(float_sys)
    ref = np.array([float(v / xs[0]) for v in [z0] + xs])
    got = np.array([approx.z0] + approx.x) / approx.x[0]
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# the loop formulas of the float ladder as first written, kept as the oracle
# of the list-built entries and the leaner minors, slog2 and coefficients


def _loop_entries(params, n_trunc, exact):
    if exact:
        w, w0, f_amp = Q(params.omega), Q(params.omega0), Q(params.F)
        half = Q(1, 2)
    else:
        w, w0, f_amp = float(params.omega), float(params.omega0), float(params.F)
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
            sup.append(half * f_amp)
            sub.append(-n * half * f_amp * w)
        else:
            sup.append(-(n + 1) * half * f_amp * w)
            sub.append(half * f_amp)
    return diag, sup, sub


def _loop_ratios(diag, sup, sub):
    n_ = len(diag)
    values = [None] * n_
    r = values[n_ - 1] = float(diag[n_ - 1])
    for k in range(n_ - 1, 0, -1):
        b = -float(sup[k - 1]) * float(sub[k - 1])
        if b and r == 0.0:
            r = values[k] = fourier_rpl._TINY
        r = values[k - 1] = float(diag[k - 1]) + (b / r if b else 0.0)
    return values


def _loop_slog2(values):
    if 0.0 in values:
        return 0.0, -math.inf
    sign = math.prod(math.copysign(1.0, r) for r in values)
    return sign, sum(math.log2(abs(r)) for r in values)


def _loop_phi1_coefficients(sub, r, f_amp, omega0):
    x = -f_amp
    xs = [x]
    for i in range(2, len(r) + 1):
        x = x * -float(sub[i - 2]) / r[i - 1] if x else 0.0
        xs.append(x)
    # X(0) oriented to z > 0, or x > 0 then y >= 0 (Y(0) = 0) within 1e-9 |X(0)|
    x_0, z_0 = 0.0, r[0]
    for i, x in enumerate(xs):
        if i % 2:
            z_0 += x
        else:
            x_0 += x
    x_0 *= omega0
    tie = 1e-9 * math.hypot(x_0, z_0)
    sign = -1.0 if z_0 < -tie or (abs(z_0) <= tie and x_0 < -tie) else 1.0
    return sign * r[0], [sign * x for x in xs]


def _hexes(values):
    return [float(v).hex() for v in values]


_LADDER_CASES = [
    (n_trunc, omega0, F, omega)
    for n_trunc in (2, 3, 50, 51)
    for omega0, F, omega in ((1.0, 0.7, 0.83), (1.3, 0.0, 0.41), (0.9, 12.5, 0.37))
] + [(3, 3.0, 1.0, 1.0)]  # a_3 = 0: r_2 divides by _TINY


@pytest.mark.parametrize("n_trunc, omega0, F, omega", _LADDER_CASES)
def test_float_ladder_is_bit_identical_to_the_loop_formulas(n_trunc, omega0, F, omega):
    p = rpl(omega0, F, omega)
    sys_ = build_system(p, n_trunc)
    diag, sup, sub = _loop_entries(p, n_trunc, exact=False)
    for got, want in ((sys_.diag, diag), (sys_.sup, sup), (sys_.sub, sub)):
        assert all(type(v) is float for v in got)
        assert _hexes(got) == _hexes(want)
    lad = minors(sys_)
    ratios = _loop_ratios(diag, sup, sub)
    assert _hexes(lad._values) == _hexes(ratios)
    if (omega0, F, omega) == (3.0, 1.0, 1.0):
        assert ratios[2] == fourier_rpl._TINY
    assert _hexes(lad.slog2()) == _hexes(_loop_slog2(ratios))
    sol = solve_coefficients(sys_)
    z0, xs = _loop_phi1_coefficients(sub, ratios, F, omega0)
    assert _hexes([sol.z0] + sol.x) == _hexes([z0] + xs)


@pytest.mark.parametrize("n_trunc", [2, 3, 50, 51])
@pytest.mark.parametrize("omega0, F, omega", [(Q(1), Q(7, 10), Q(83, 100)), (Q(13, 10), Q(0), Q(41, 100))])
def test_exact_entries_equal_the_loop_formulas(n_trunc, omega0, F, omega):
    entries = rational_ladder.entries(rpl(omega0, F, omega), n_trunc)
    assert entries == _loop_entries(rpl(omega0, F, omega), n_trunc, exact=True)
    assert all(type(v) is Q for v in sum(entries, []))


def test_zero_drive_resonance_roots():
    for n in (1, 2, 3):
        lad = minors(build_system(rpl(1.0, 0.0, 1.0 / (2 * n - 1)), 12))
        assert lad.det == 0.0
        assert lad.slog2() == (0.0, -math.inf)


def test_det_scan_brackets_resonance():
    p0 = 1.0
    grid = np.linspace(0.9, 1.12, 23)
    ladders = [minors(build_system(rpl(p0, 0.1, w), 20)) for w in grid]
    vals = [lad.det for lad in ladders]
    changes = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
    assert changes == 1  # exactly the first resonance in this window
    assert [lad.slog2()[0] for lad in ladders] == [math.copysign(1.0, v) for v in vals]


def test_scaled_determinant_survives_overflowing_orders():
    p = rpl(1.0, 0.5, 2.0)
    sign, log2_abs = minors(build_system(p, 50)).slog2()
    assert sign in (-1.0, 1.0)
    # log magnitude around 1e118 at these parameters
    assert 100 < log2_abs * math.log10(2) < 140


def test_phi1_solution_zero_drive_at_undriven_resonance():
    # F = 0 and a_3 = 9 omega^2 - omega0^2 = 0: the undriven orbit is a pole
    sol = solve_coefficients(build_system(rpl(1.0, 0.0, 1.0 / 3.0), 12))
    assert max(abs(v) for v in sol.x) == 0.0
    assert np.abs(np.abs(sol.normalized().evaluate(0.0)) - [0.0, 0.0, 1.0]).max() <= 1e-15


def test_evaluate_periodicity():
    p = rpl(1.0, 0.5, 2.0)
    sol = solve_coefficients(build_system(p, 12))
    ts = np.linspace(0.0, p.T, 17)
    assert np.abs(sol.evaluate(ts) - sol.evaluate(ts + p.T)).max() < 1e-12 * max(
        abs(float(v)) for v in sol.x
    )


def test_order_four_closed_forms_exact():
    rng_points = [
        (Q(3, 2), Q(5, 7), Q(2, 3)),
        (Q(2), Q(1), Q(1, 2)),
        (Q(7, 3), Q(4, 5), Q(1)),
        (Q(5, 4), Q(1, 3), Q(3, 2)),
        (Q(1, 2), Q(6, 5), Q(2)),
    ]
    for w, w0, f_amp in rng_points:
        params = DriveParams(omega0=w0, F=f_amp, G=Q(0), omega=w)
        z0, x = rational_ladder.coefficients(params, 4)
        assert x[0] == Q(1, 2) * f_amp * w**2 * (9 * f_amp**2 + 16 * (w0**2 - 9 * w**2))
        assert x[1] == -Q(1, 8) * f_amp**2 * w**2 * (3 * f_amp**2 + 16 * (w0**2 - 9 * w**2))
        assert x[2] == -(f_amp**3) * w**2
        assert x[3] == 3 * f_amp**4 * w**2 / 8
        assert z0 == Q(1, 16) * w**2 * (
            3 * f_amp**4
            - 8 * f_amp**2 * (27 * w**2 - 11 * w0**2)
            + 128 * (w**2 - w0**2) * (9 * w**2 - w0**2)
        )


def test_fourier_route_matches_ode_route():
    p = rpl(1.0, 0.5, 2.0)
    sol = solve_coefficients(build_system(p, 20)).normalized()
    orbit = periodic_orbit(p)
    ts = np.linspace(0.0, p.T, 257)
    a = sol.evaluate(ts)
    b = orbit(ts)
    if float(np.dot(a[0], b[0])) < 0:
        b = -b
    assert np.abs(a - b).max() < 1e-6


def test_ode_residual_decreases_with_truncation():
    p = rpl(1.0, 1.2, 1.7)
    ts = np.linspace(0.0, p.T, 400)
    dt = 1e-6
    residuals = []
    for n in (8, 12, 16, 20):
        sol = solve_coefficients(build_system(p, n)).normalized()
        deriv = (sol.evaluate(ts + dt) - sol.evaluate(ts - dt)) / (2 * dt)
        h = np.stack(
            [p.F * np.cos(p.omega * ts), np.zeros_like(ts), np.full_like(ts, p.omega0)],
            axis=-1,
        )
        residuals.append(np.abs(deriv - np.cross(h, sol.evaluate(ts))).max())
    assert residuals[-1] < 1e-6
    assert residuals[0] > residuals[-1]
    assert all(b <= a * 1.5 for a, b in zip(residuals, residuals[1:]))


def test_solve_auto_growth_rule():
    p = rpl(1.0, 5.0, 0.5)  # strong drive populates high harmonics
    sol = solve_auto(p)
    mags = np.array([abs(float(v)) for v in sol.x])
    assert sol.N > 20
    assert max(mags[-1], mags[-2]) <= 1e-10 * mags.max()
    # already-converged cases stay at the starting order
    assert solve_auto(rpl(1.0, 0.5, 2.0)).N == 20


def _linear_scan_order(p, start, step=8, coeff_tol=1e-10):
    """Reference for solve_auto: the first converged order N = start + step k, k = 0, 1, 2, ..."""
    n = start
    while True:
        sol = solve_coefficients(build_system(p, n))
        mags = np.abs(np.asarray(sol.x, dtype=float))
        if max(mags[-1], mags[-2]) <= coeff_tol * mags.max():
            return n
        n += step


class _ProbeCounter:
    """Wrappers on both ladders of the truncation search recording every order it probes,
    once per point: ``orders`` of a lone point, ``by_omega`` of each point of a sweep."""

    def __init__(self, monkeypatch):
        self.orders = []
        self.by_omega = {}
        real_probe, real_block = fourier_rpl._probe, fourier_rpl._solve_block

        def record(omegas, n_trunc):
            for omega in np.atleast_1d(omegas).tolist():
                self.orders.append(n_trunc)
                self.by_omega.setdefault(omega, []).append(n_trunc)

        def probe(omega0, f_amp, omega, n_trunc):
            record(omega, n_trunc)
            return real_probe(omega0, f_amp, omega, n_trunc)

        def block(omega0, f_amp, omegas, n_trunc):
            record(omegas, n_trunc)
            return real_block(omega0, f_amp, omegas, n_trunc)

        monkeypatch.setattr(fourier_rpl, "_probe", probe)
        monkeypatch.setattr(fourier_rpl, "_solve_block", block)


def _converged(p, n_trunc):
    """Whether solve_auto's tail test passes at order n_trunc."""
    _, x = fourier_rpl._probe(p.omega0, p.F, p.omega, n_trunc)
    return bool(fourier_rpl._tail_test(np.array([x]))[0][0])


def _estimate_order(f, start=20):
    """solve_auto's first probe order: the step of the Jacobi-Anger estimate f + 8 f^(1/3) + 2."""
    return start + 8 * max(0, math.floor((f + 8 * f ** (1 / 3) + 2 - start) / 8))


def _steps_from_the_estimate(orders, f, start=20):
    """Whether probe orders are consecutive steps of 8, all up or all down, from the estimate."""
    steps = {b - a for a, b in zip(orders, orders[1:])}
    return orders[0] == _estimate_order(f, start) and steps in (set(), {8}, {-8})


@pytest.mark.parametrize("start", [7, 20, 33])
def test_solve_auto_matches_linear_scan(start, monkeypatch):
    for F in (0.05, 0.7, 3.0, 9.0):
        for omega in (0.09, 0.35, 1.3, 2.7):
            p = rpl(1.0, F, omega)
            n_ref = _linear_scan_order(p, start)
            ref = solve_coefficients(build_system(p, n_ref))
            builds = _ProbeCounter(monkeypatch)
            sol = solve_auto(p, start=start)
            assert sol.N == n_ref
            assert _bits(sol.z0, sol.x) == _bits(ref.z0, ref.x)
            assert _steps_from_the_estimate(builds.orders, F / omega, start)
            assert len(builds.orders) <= abs(n_ref - builds.orders[0]) // 8 + 2
            monkeypatch.undo()


# the (F, omega start, omega stop) strong-drive sweeps of perfbench/workloads.py
_STRONG_SWEEPS = ((4.0, 0.2, 0.1), (7.0, 0.07, 0.05), (9.0, 0.045, 0.036), (12.0, 0.04, 0.04 * 12 / 13))
_STRONG_POINTS = (
    [(1.0, 15.0, 0.05), (1.0, 20.0, 0.05)]
    + [(1.0, F, omega) for F, *omegas in _STRONG_SWEEPS for omega in omegas]
    + [(omega0, f * 0.06, 0.06) for omega0 in (1.0, 1.3) for f in (20, 35, 60, 100, 170, 280, 400)]
)


@pytest.mark.parametrize("omega0, F, omega", _STRONG_POINTS)
def test_solve_auto_starts_strong_drives_at_the_jacobi_anger_order(omega0, F, omega, monkeypatch):
    # F / omega from 20 to 400: the estimate f + 8 f^(1/3) + 2 lies within a
    # step of the answer, so the search moves at most one step from it
    p = rpl(omega0, F, omega)
    n_ref = _linear_scan_order(p, 20)
    builds = _ProbeCounter(monkeypatch)
    assert solve_auto(p).N == n_ref
    assert _steps_from_the_estimate(builds.orders, F / omega) and len(builds.orders) <= 3


def test_sweep_probes_step_from_the_jacobi_anger_order(monkeypatch, tmp_path):
    # every point of a fourier_sweep workload command, on the array ladder or the scalar one
    probes = _ProbeCounter(monkeypatch)
    argv = ["quasienergy", "--omega0", "1", "--f", "1.8", "--omega-sweep", "0.25:2.2:80",
            "--method", "fourier", "-o", str(tmp_path / "sweep.csv")]
    assert cli.main(argv) == 0
    assert len(probes.by_omega) == 80
    assert {len(orders) for orders in probes.by_omega.values()} == {1, 2}
    assert all(_steps_from_the_estimate(orders, 1.8 / omega) for omega, orders in probes.by_omega.items())


@pytest.mark.parametrize("coeff_tol", [1e-2, 1e-4, 1e-6])
def test_solve_auto_steps_down_from_an_overshooting_estimate(coeff_tol, monkeypatch):
    # a loose tolerance converges below the Jacobi-Anger order, so the search
    # starts above the answer and steps down to the first unconverged order
    monkeypatch.setattr(fourier_rpl, "_COEFF_TOL", coeff_tol)
    builds = _ProbeCounter(monkeypatch)
    for F, omega in ((4.0, 0.1), (7.0, 0.05), (9.0, 0.036), (12.0, 0.04), (20.0, 0.05)):
        p = rpl(1.0, F, omega)
        builds.orders.clear()
        n_trunc = solve_auto(p).N
        assert 20 < n_trunc < _estimate_order(F / omega)
        assert builds.orders == list(range(_estimate_order(F / omega), n_trunc - 9, -8))
        if coeff_tol == 1e-2:
            # the tail ratio is not monotone in N near the Bessel turning point, so
            # the first converged order of a linear scan can lie further down
            assert _converged(p, n_trunc) and not _converged(p, n_trunc - 8)
        else:
            assert n_trunc == _linear_scan_order(p, 20, coeff_tol=coeff_tol)


def test_solve_auto_cap_grows_with_drive(monkeypatch):
    # a negative tolerance: no order converges, so the search ends at its cap
    monkeypatch.setattr(fourier_rpl, "_COEFF_TOL", -1.0)
    builds = _ProbeCounter(monkeypatch)
    caps = []
    for f in (10.0, 400.0, 1000.0, 3000.0):
        builds.orders.clear()
        with pytest.raises(SeriesInstabilityError):
            solve_auto(rpl(1.0, f * 0.05, 0.05))
        caps.append(max(builds.orders))
        assert caps[-1] >= f + 12 * f ** (1 / 3) + 25
    assert caps[0] == 404  # the fixed cap n_max = 400, rounded up to a candidate order
    assert caps == sorted(set(caps))


def test_solve_auto_unconverged_at_cap_raises(monkeypatch):
    p = rpl(1.0, 20.0, 0.05)
    monkeypatch.setattr(fourier_rpl, "_COEFF_TOL", 1e-40)
    # the scaled cap, N = 524, leaves a tail ratio of 3.4e-30
    with pytest.raises(SeriesInstabilityError, match=r"N = 524 unconverged .* tail ratio 3\.44e-30"):
        solve_auto(p)


def _bits(z0, x):
    return np.concatenate([[z0], np.asarray(x, dtype=float)]).tobytes()


@pytest.mark.parametrize("n_trunc", [25, 28])
def test_array_ladder_matches_scalar_ladder(n_trunc):
    # at (1, 0.5, 0.04) a_25 = 625 omega^2 - omega0^2 = 0: at N = 25 it is the
    # last row, whose vanishing ratio takes Lentz's guard; F = 0 takes the
    # branches b_k = 0 and x = 0, at (3, 0, 1) with r_3 = a_3 = 0 below r_2
    params = [rpl(1.0, 0.5, omega) for omega in (0.04, 0.05, 0.3, 2.0)]
    params += [rpl(1.0, 0.0, 0.7), rpl(3.0, 0.0, 1.0)]
    assert build_system(params[0], n_trunc).diag[24] == 0.0
    z0, x = fourier_rpl._solve_block(
        [p.omega0 for p in params], [p.F for p in params], [p.omega for p in params], n_trunc
    )
    assert x.shape == (len(params), n_trunc)
    for p, z0_p, x_p in zip(params, z0, x):
        ref = solve_coefficients(build_system(p, n_trunc))
        assert _bits(z0_p, x_p) == _bits(ref.z0, ref.x)


def test_solve_sweep_matches_solve_auto_across_the_array_threshold(monkeypatch):
    # the same points solved in one group of _ARRAY_MIN, on the array ladder, and
    # in one group fewer, point by point
    groups = []
    real_block = fourier_rpl._solve_block

    def counting_block(omega0, f_amp, omegas, n_trunc):
        groups.append(len(omegas))
        return real_block(omega0, f_amp, omegas, n_trunc)

    monkeypatch.setattr(fourier_rpl, "_solve_block", counting_block)
    base = rpl(1.0, 1.0, 1.0)
    omegas = [float(w) for w in np.linspace(0.3, 2.0, fourier_rpl._ARRAY_MIN)]
    full = fourier_rpl._solve_sweep(base, omegas, 20)
    assert groups and groups[0] == len(omegas)
    groups.clear()
    fewer = fourier_rpl._solve_sweep(base, omegas[1:], 20)
    assert groups == []
    assert full.rows.tolist() == list(range(len(omegas))) and not full.errors
    for i, omega in enumerate(omegas[1:]):
        p = rpl(1.0, 1.0, omega)
        sol, other = full.solution(i + 1, p), fewer.solution(i, p)
        n_ref = _linear_scan_order(p, 20)
        ref = solve_coefficients(build_system(p, n_ref))
        assert sol.N == other.N == n_ref
        assert _bits(sol.z0, sol.x) == _bits(other.z0, other.x) == _bits(ref.z0, ref.x)
    rows = sweep_rows(base, omegas, "fourier")
    assert rows[1:] == sweep_rows(base, omegas[1:], "fourier")


def test_solve_sweep_rejects_elliptic_drive_at_every_point():
    # a group large enough for the array ladder still fails each point as build_system does
    base = DriveParams(omega0=1.0, F=1.0, G=0.5, omega=1.0)
    omegas = [0.5 + 0.1 * k for k in range(fourier_rpl._ARRAY_MIN)]
    sols = fourier_rpl._solve_sweep(base, omegas, 20)
    assert sols.rows.size == 0 and sorted(sols.errors) == list(range(len(omegas)))
    for omega, sol in zip(omegas, (sols.errors[i] for i in range(len(omegas)))):
        assert isinstance(sol, DomainError)
        with pytest.raises(DomainError, match=re.escape(str(sol))):
            build_system(DriveParams(omega0=1.0, F=1.0, G=0.5, omega=omega), 20)


def test_solve_sweep_keeps_no_row_of_a_failed_point(monkeypatch):
    # from start 0 a loose tolerance converges at N = 8 and steps down to N = 0,
    # which fails: the converged probe must not leave the point a row
    monkeypatch.setattr(fourier_rpl, "_COEFF_TOL", 1e-2)
    sols = fourier_rpl._solve_sweep(rpl(1.0, 0.5, 1.0), [0.5, 1.0, 2.0, 3.0], 0)
    assert sorted(sols.errors) == [0, 1, 2, 3]
    assert all("truncation order must be >= 2, got 0" in str(exc) for exc in sols.errors.values())
    assert sols.rows.size == sols.N.size == len(sols.coeffs) == sols.omega.size == 0


def test_normalized_solution_unit_sphere():
    p = rpl(1.0, 0.8, 2.3)
    sol = solve_auto(p).normalized()
    ts = np.linspace(0.0, p.T, 300)
    norms = np.linalg.norm(sol.evaluate(ts), axis=-1)
    assert abs(norms.mean() - 1.0) < 1e-9
    assert sol.norm_spread < 1e-8


def test_overflow_flag_and_scaled_path():
    # the order-80 determinant exceeds double range at fast drive
    lad = minors(build_system(rpl(1.0, 0.5, 40.0), 80))
    assert lad.det in (float("inf"), float("-inf"))
    sign, log2_abs = lad.slog2()
    assert sign == math.copysign(1.0, lad.det)
    assert 1024 < log2_abs < math.inf


def test_y_determined_by_x_derivative():
    p = rpl(1.0, 0.8, 1.7)
    sol = solve_coefficients(build_system(p, 14)).normalized()
    ts = np.linspace(0.0, p.T, 64)
    dt = 1e-7
    dx = (sol.evaluate(ts + dt)[:, 0] - sol.evaluate(ts - dt)[:, 0]) / (2 * dt)
    assert np.abs(dx + p.omega0 * sol.evaluate(ts)[:, 1]).max() < 1e-6


@pytest.mark.parametrize(
    "omega0, F, omega, n_trunc", [(1.0, 0.8, 1.7, 20), (1.0, 20.0, 0.05, 404)]
)
def test_sample_matches_evaluate_on_uniform_grid(omega0, F, omega, n_trunc):
    p = rpl(omega0, F, omega)
    sol = solve_coefficients(build_system(p, n_trunc)).normalized()
    assert sol.N == n_trunc
    # m = 256 < 2N at N = 404: harmonics fold onto bins n mod m
    for m in (256, 1024, 4096, 65536):
        ref = sol.evaluate(np.arange(m) * (p.T / m))
        got = sol.sample(m)
        assert got.shape == (m, 3)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_half_grid_is_the_first_half_period():
    # a block of mixed N, and N = 404 on m = 256, where harmonics fold onto bins mod m/2
    block = [solve_auto(rpl(1.0, F, omega)) for F, omega in ((0.3, 1.0), (5.0, 0.3), (1.8, 0.4))]
    block.append(solve_coefficients(build_system(rpl(1.0, 20.0, 0.05), 404)))
    assert sorted({sol.N for sol in block}) == [20, 44, 404]
    sols = fourier_rpl.Truncations.of(block)
    for m in (256, 2048, 6):
        half = fourier_rpl.sample_half_grid(sols.coeffs, sols.omega0, sols.omega, m)
        assert half.shape == (len(block), 3, m // 2)
        for sol, got in zip(block, half):
            ref = sol.evaluate(np.arange(m // 2) * (sol.params.T / m)).T
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        full = fourier_rpl.sample_grid(sols.coeffs, sols.omega0, sols.omega, m)
        assert np.abs(half - full[..., : m // 2]).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("m", [1, 3, 255, 1001])
def test_sample_on_odd_grids(m):
    # every second sample of the grid of 2m
    p = rpl(1.0, 5.0, 0.3)
    sol = solve_auto(p)
    ref = sol.evaluate(np.arange(m) * (p.T / m))
    assert np.abs(sol.sample(m) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sample_exact_coefficients():
    p = rpl(Q(1), Q(1, 2), Q(2))
    sol = fourier_rpl.RplFourierSolution(8, *rational_ladder.coefficients(p, 8), p)
    ref = sol.evaluate(np.arange(64) * (p.T / 64))
    assert np.abs(sol.sample(64) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize(
    "F, omega, flip", [(0.8, 1.7, False), (4.0, 0.2, False), (1e-4, 1.7, True)]
)
def test_quasienergy_same_through_sample_and_evaluate(F, omega, flip):
    # the mirrored weak-drive orbit -X(t) hugs the south pole, so with flip
    # both calls average it on the +z section
    p = rpl(1.0, F, omega)
    sol = solve_auto(p).normalized()
    if flip:
        sol = replace(sol, z0=-sol.z0, x=[-v for v in sol.x])
    via_sample = quasienergy_classical(sol, p, method="fourier")
    via_evaluate = quasienergy_classical(sol.evaluate, p, method="fourier")
    assert abs(via_sample.epsilon - via_evaluate.epsilon) <= 1e-12
    assert abs(via_sample.eps_d - via_evaluate.eps_d) <= 1e-12
