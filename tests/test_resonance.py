"""Resonance curves, Bloch-Siegert rationals, triangle coordinates."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest

from floquet_tls.bloch_dynamics import DriveParams
from floquet_tls.errors import BracketNotFoundError, DomainError, SeriesInstabilityError
from floquet_tls.resonance import (
    bloch_siegert_coefficients,
    bloch_siegert_shift,
    find_resonance,
    from_triangle,
    general_form_check,
    general_form_exponents,
    large_f_fit,
    resonance_curve,
    resonance_interpolation,
    sigma_closed_form,
    to_triangle,
)
from floquet_tls.specfun import bessel_j0_zero


def rpl(omega0, F, omega):
    return DriveParams(omega0=omega0, F=F, G=0.0, omega=omega)


# ---------------------------------------------------------------------------
# triangle coordinates


def test_triangle_centroid():
    tc = to_triangle(rpl(1.0, 1.0, 1.0))
    assert abs(tc.x) < 1e-15
    assert abs(tc.y - math.sqrt(3.0) / 6.0) < 1e-15


def test_triangle_f_half():
    tc = to_triangle(rpl(1.0, 2.0, 1.0))
    assert abs(tc.f_scaled - 0.5) < 1e-15
    assert abs(tc.y - math.sqrt(3.0) / 4.0) < 1e-15


def test_triangle_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        w0, f_amp, w = rng.uniform(0.05, 4.0, 3)
        tc = to_triangle(rpl(w0, f_amp, w))
        back = from_triangle(tc.x, tc.y)
        assert abs(back.omega0_scaled - tc.omega0_scaled) < 1e-14
        assert abs(back.omega_scaled - tc.omega_scaled) < 1e-14
        assert abs(back.f_scaled - tc.f_scaled) < 1e-14
        assert abs(back.omega0_scaled + back.omega_scaled + back.f_scaled - 1.0) < 1e-14


def test_triangle_vertex_limit_and_boundary():
    # the omega vertex maps to (1/2, 0); boundary points are rejected
    tc = to_triangle(rpl(1e-9, 1e-9, 1.0))
    assert abs(tc.x - 0.5) < 1e-8
    assert abs(tc.y) < 1e-8
    with pytest.raises(DomainError):
        from_triangle(0.5, 0.0)
    with pytest.raises(DomainError):
        to_triangle(rpl(1.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# interpolation formula


def test_resonance_interpolation_limits():
    assert resonance_interpolation(3, 0.0, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert resonance_interpolation(2, 1.0, 0.0) == pytest.approx(
        1.0 / bessel_j0_zero(2), abs=1e-14
    )
    assert resonance_interpolation(1, 1.0, 1.0) == pytest.approx(1.41583, abs=1e-5)


# ---------------------------------------------------------------------------
# det A roots


def test_find_resonance_small_drive_endpoints():
    for n in (1, 2, 3):
        pt = find_resonance(n, 1e-6, 1.0, 50)
        assert abs(pt.omega_res - 1.0 / (2 * n - 1)) < 1e-5


def test_resonance_curve_monotone_for_first_resonance():
    fs = np.linspace(0.1, 3.0, 12)
    pts = resonance_curve(1, fs, omega0=1.0, n_trunc=50)
    omegas = [p.omega_res for p in pts]
    assert all(b > a for a, b in zip(omegas, omegas[1:]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_matches_root_for_small_drive(n):
    sig = bloch_siegert_coefficients(n, 8)
    for f_amp in (0.1, 0.3, 0.5):
        shift = sum(float(s) * f_amp ** (2 * m) for m, s in enumerate(sig, 1))
        series = 1.0 / (2 * n - 1) + shift
        root = find_resonance(n, f_amp, 1.0, 50).omega_res
        assert abs(series - root) < 1e-6


def test_resonance_point_satisfies_resonance_condition():
    from floquet_tls import fourier_rpl
    from floquet_tls.quasienergy import grad_omega0

    pt = find_resonance(1, 0.5, 1.0, 50)
    p = rpl(1.0, 0.5, pt.omega_res)
    sol = fourier_rpl.solve_auto(p, "phi1").normalized()
    assert abs(sol.z0) < 1e-8  # z0 = phi_1 = 0 at the root
    assert abs(grad_omega0(sol.evaluate, p)) < 1e-6


def test_bracket_not_found_reports_suggestion():
    with pytest.raises(BracketNotFoundError) as err:
        find_resonance(5, 0.1, 1.0, n_trunc=6)
    assert err.value.suggested_n > 6


def test_warm_start_tracks_root():
    fs = np.linspace(0.5, 2.0, 7)
    pts = resonance_curve(2, fs, omega0=1.0, n_trunc=50)
    for f_amp, pt in zip(fs, pts):
        fresh = find_resonance(2, float(f_amp), 1.0, 50)
        assert abs(pt.omega_res - fresh.omega_res) < 1e-9


# ---------------------------------------------------------------------------
# Bloch-Siegert coefficients


def test_first_resonance_low_orders():
    sig = bloch_siegert_coefficients(1, 3)
    assert sig == [Q(1, 16), Q(1, 1024), Q(-35, 131072)]


def test_second_resonance_low_orders():
    sig = bloch_siegert_coefficients(2, 2)
    assert sig == [Q(3, 32), Q(-135, 8192)]


def test_third_resonance_leading_order():
    assert bloch_siegert_coefficients(3, 1) == [Q(5, 96)]


# the tables the benchmark's resonance workload and the README print, pinned
# digit for digit so a change of method cannot alter them
GOLDEN_TABLES = {
    (1, 8): [
        "1/16", "1/1024", "-35/131072", "103/8388608", "1873/805306368",
        "-1577257/3710851743744", "67429531/17099604835172352",
        "304008125947/39397489540237099008",
    ],
    (3, 8): [
        "5/96", "-2125/221184", "1146875/254803968", "-3244765625/1174136684544",
        "2045715078125/1352605460594688", "-558332576171875/1038800993736720384",
        "-147308657861328125/1196698744784701882368",
        "5336168146954345703125/11028775631935812547903488",
    ],
    (2, 12): [
        "3/32", "-135/8192", "2133/1048576", "588789/536870912", "-98579025/68719476736",
        "19157942853/17592186044416", "-7366346590257/11258999068426240",
        "3554433354578481/11529215046068469760",
        "-126814284501549453/1475739525896764129280",
        "-287875038812532160941/9444732965739290427392000",
        "124202023470713015792631/1692496147460480844588646400",
        "-319552975851525137346833781/4332790137498830962146934784000",
    ],
}
GOLDEN_TABLES[(2, 8)] = GOLDEN_TABLES[(2, 12)][:8]


@pytest.mark.parametrize("n, max_m", sorted(GOLDEN_TABLES))
def test_coefficient_tables_are_pinned(n, max_m):
    assert bloch_siegert_coefficients(n, max_m) == [Q(s) for s in GOLDEN_TABLES[(n, max_m)]]


def test_closed_forms_match_recursion():
    for n in range(2, 11):
        assert bloch_siegert_coefficients(n, 1)[0] == sigma_closed_form(n, 1)


def test_closed_form_values():
    assert sigma_closed_form(2, 1) == Q(3, 32)
    assert sigma_closed_form(10, 1) == Q(19, 1440)
    assert sigma_closed_form(3, 2) == Q(-2125, 221184)
    with pytest.raises(DomainError):
        sigma_closed_form(1, 1)
    with pytest.raises(DomainError):
        sigma_closed_form(2, 3)


def test_instability_detected_for_small_truncation():
    with pytest.raises((SeriesInstabilityError, DomainError)):
        bloch_siegert_coefficients(3, 6, n_trunc=8)
    # odd N: the top odd mode has no even neighbour above it, so sigma_6
    # differs from N + 4 (it would not if that missing coupling were kept)
    with pytest.raises(SeriesInstabilityError):
        bloch_siegert_coefficients(1, 3, n_trunc=3)


def test_shift_series_evaluation():
    val = bloch_siegert_shift(1, 0.5, 1.0, max_m=3)
    assert abs(val - (1 + 0.25 / 16 + 0.0625 / 1024 - 35.0 * 0.015625 / 131072)) < 1e-15


def test_general_form_structure():
    assert general_form_exponents(1) == ([1, 1], 0)
    assert general_form_exponents(2) == ([3, 3], 1)
    assert general_form_exponents(3) == ([1, 5, 5, 1], 3)


def test_general_form_reproduces_closed_forms():
    coeffs, mism = general_form_check(1, list(range(2, 10)))
    assert mism == []
    coeffs, mism = general_form_check(2, list(range(2, 10)))
    assert mism == []
    coeffs, mism = general_form_check(3, list(range(3, 12)))
    assert mism == []


# ---------------------------------------------------------------------------
# large drive


def test_large_f_fit_first_resonance():
    coeffs = large_f_fit(1, points=15)
    assert abs(coeffs[0] - 0.415831) < 1e-3
    assert abs(coeffs[1] - 0.87256) < 1e-3


def test_large_f_ratio_approaches_bessel_zero():
    pt = find_resonance(1, 50.0, 1.0, 50)
    ratio = 50.0 / pt.omega_res
    assert abs(ratio - bessel_j0_zero(1)) / bessel_j0_zero(1) < 1e-2


def test_coarse_log_grid_tracking_never_jumps_curves():
    # a wide log grid drifts each root by ~25% per step; tracking must not
    # lock onto a neighbouring curve (they are ~20% apart at large F)
    fs = np.geomspace(0.01, 100.0, 14)
    curves = {n: resonance_curve(n, fs, omega0=1.0, n_trunc=50) for n in (1, 2, 3, 4)}
    for i in range(len(fs)):
        omegas = [curves[n][i].omega_res for n in (1, 2, 3, 4)]
        assert all(a > b for a, b in zip(omegas, omegas[1:]))
    # spot check against fresh global scans
    for n in (2, 4):
        for i in (5, 9, 13):
            fresh = find_resonance(n, float(fs[i]), 1.0, 50)
            assert abs(curves[n][i].omega_res - fresh.omega_res) < 1e-8 * fresh.omega_res
