"""Resonance curves, Bloch-Siegert rationals, triangle coordinates."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest
import rational_series
import resonance_scan

from floquet_tls import resonance
from floquet_tls.bloch_dynamics import DriveParams
from floquet_tls.errors import BracketNotFoundError, DomainError, SeriesInstabilityError
from floquet_tls.fourier_rpl import build_system, minors
from floquet_tls.resonance import (
    _det_signs,
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
    sol = fourier_rpl.solve_auto(p).normalized()
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
        fresh = resonance_scan.root(2, float(f_amp), 1.0, 50)
        assert abs(pt.omega_res - fresh) < 1e-9


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(resonance, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(resonance, name, counted)
    return calls


def test_curves_solve_one_eigenproblem_and_one_sign_pass(monkeypatch):
    # the curves of the benchmark's resonance workload: no lone-point call,
    # one array pass of the determinant signs per curve
    points = _count_calls(monkeypatch, "find_resonance")
    passes = _count_calls(monkeypatch, "_det_signs")
    fs = np.geomspace(0.02, 8.0, 60)
    for n in (1, 2, 3):
        assert len(resonance_curve(n, fs, omega0=1.0, n_trunc=50)) == 60
    assert len(points) == 0
    assert len(passes) == 3


@pytest.mark.parametrize("n_trunc, omega0", [(6, 1.0), (21, 0.37), (50, 2.5)])
def test_curve_rows_match_global_scans(n_trunc, omega0):
    # every positive root of det A^(N) comes from one of the ceil(N/2) odd
    # modes; a lone point is the row of its curve
    fs = [0.005, 0.07, 0.9, 6.0, 60.0]
    modes = (n_trunc + 1) // 2
    assert len(resonance_curve(modes, fs, omega0, n_trunc)) == len(fs)
    for n in sorted({*range(1, 7), modes + 1}):
        if n > modes:
            searches = (
                lambda: resonance_curve(n, fs, omega0, n_trunc),
                lambda: find_resonance(n, 0.9, omega0, n_trunc),
            )
            for search in searches:
                with pytest.raises(BracketNotFoundError) as err:
                    search()
                assert err.value.suggested_n == n_trunc + 16
            continue
        for f_amp, pt in zip(fs, resonance_curve(n, fs, omega0, n_trunc)):
            fresh = resonance_scan.root(n, f_amp, omega0, n_trunc)
            assert (pt.n, pt.F, pt.N) == (n, f_amp, n_trunc)
            assert abs(pt.omega_res - fresh) <= 5e-12 * fresh
            assert find_resonance(n, f_amp, omega0, n_trunc) == pt


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weak_drive_curve_rows_match_bloch_siegert_series(n):
    # at F <= 0.05 the sixth-order series is exact to rounding, a bound that
    # a determinant scan refined to an absolute xtol of 1e-12 does not meet
    fs = np.geomspace(1e-4, 0.05, 9)
    for f_amp, pt in zip(fs, resonance_curve(n, fs, omega0=1.0, n_trunc=50)):
        series = bloch_siegert_shift(n, float(f_amp), max_m=6)
        assert abs(pt.omega_res - series) <= 1e-15 * series


def _raises_on_row(n, f_amp, curves):
    with pytest.raises(BracketNotFoundError) as err:
        curves()
    assert f"resonance {n} at F = {f_amp}" in str(err.value)
    assert err.value.suggested_n == 50 + 16


@pytest.mark.parametrize("fault", ["no sign change", "root off by 1e-9"])
def test_curve_row_failing_the_sign_check_raises(monkeypatch, fault):
    fs = np.geomspace(0.1, 5.0, 7)
    plain = resonance_curve(2, fs, omega0=1.0, n_trunc=50)
    if fault == "no sign change":
        original = resonance._det_signs

        def faulty(f_amp, omega0, n_trunc, omegas):
            signs = original(f_amp, omega0, n_trunc, omegas)
            signs[3 + len(fs)] = signs[3]  # row k below its root, row k + P above
            return signs

        monkeypatch.setattr(resonance, "_det_signs", faulty)
    else:
        original = resonance._eigen_roots

        def faulty(n, f_amps, omega0, n_trunc):
            roots, residuals = original(n, f_amps, omega0, n_trunc)
            if len(roots) == len(fs):
                roots[3] = plain[3].omega_res * (1 + 1e-9)
            return roots, residuals

        monkeypatch.setattr(resonance, "_eigen_roots", faulty)
    _raises_on_row(2, fs[3], lambda: resonance_curve(2, fs, omega0=1.0, n_trunc=50))


def test_shared_curves_raise_on_the_row_failing_the_sign_check(monkeypatch):
    fs = np.geomspace(0.1, 5.0, 7)
    original = resonance._det_signs

    def faulty(f_amp, omega0, n_trunc, omegas):
        # the ends below every (n, F) root come first, n-major, then those above
        signs = original(f_amp, omega0, n_trunc, omegas)
        signs[len(signs) // 2 + 2 * len(fs) + 4] = signs[2 * len(fs) + 4]  # n = 2, F = fs[4]
        return signs

    monkeypatch.setattr(resonance, "_det_signs", faulty)
    curves = resonance.resonance_curves
    _raises_on_row(2, fs[4], lambda: curves([3, 1, 2], fs, omega0=1.0, n_trunc=50))


@pytest.mark.parametrize("n_trunc", [6, 21, 50, 120])
def test_sign_check_fails_only_on_the_unresolved_top_index_of_odd_n(n_trunc):
    # over F/omega0 from 3e-5 to 670 every eigen root has its sign change of
    # det A^(N), except at the top index of an odd N once F/omega0 passes
    # about 190: that mode has no even neighbour above it, and its eigen root
    # is off by a few 1e-12 relative.  N resolves none of those rows (residual
    # above 1), and each passes at the suggested N
    fs = np.geomspace(1e-4, 200.0, 40)
    top = (n_trunc + 1) // 2
    failing = {}
    for omega0 in (0.3, 1.0, 3.0):
        assert len(resonance.resonance_curves(range(1, top), fs, omega0, n_trunc)) == top - 1
        for f_amp in fs.tolist():
            try:
                find_resonance(top, f_amp, omega0, n_trunc)
            except BracketNotFoundError as err:
                failing.setdefault(omega0, []).append(f_amp)
                _, residual = resonance._eigen_roots(top, [f_amp], omega0, n_trunc)
                assert residual[0] > 1
                find_resonance(top, f_amp, omega0, err.suggested_n)
    assert failing == ({0.3: fs[-2:].tolist()} if n_trunc == 21 else {})


@pytest.mark.parametrize(
    "n, fs",
    [(1, [0.5, 0.5, 0.5]), (2, [1.3] * 4), (1, np.geomspace(8.0, 0.02, 30)), (2, np.geomspace(8.0, 0.02, 30))],
)
def test_curve_on_repeated_and_decreasing_grids_matches_fresh_scans(n, fs):
    # a repeated amplitude leaves the secant undefined; the drift seed stands in
    pts = resonance_curve(n, fs, omega0=1.0, n_trunc=50)
    assert [p.F for p in pts] == [float(f) for f in fs]
    for f_amp, pt in zip(fs, pts):
        fresh = resonance_scan.root(n, float(f_amp), 1.0, 50)
        assert abs(pt.omega_res - fresh) <= 2e-12


# ---------------------------------------------------------------------------
# the array pass of the global scan against the scalar ladder


def _scalar_signs(f_amp, omega0, n_trunc, grid):
    return np.array([minors(build_system(rpl(omega0, f_amp, w), n_trunc)).slog2()[0] for w in grid])


@pytest.mark.parametrize("f_amp, n_trunc", [(0.01, 50), (0.5, 50), (10.0, 80), (30.0, 120), (0.0, 50)])
def test_det_signs_match_scalar_ladder_on_scan_grid(f_amp, n_trunc):
    # a scan grid of tests/resonance_scan.py at n = 3, and the undriven ladder
    hi = 1.8 * resonance_interpolation(1, f_amp, 1.0)
    grid = np.geomspace(0.45 / 7, hi, 1200)
    signs = _det_signs(f_amp, 1.0, n_trunc, grid)
    assert np.array_equal(signs, _scalar_signs(f_amp, 1.0, n_trunc, grid))
    assert np.array_equal(_det_signs(np.full(grid.shape, f_amp), 1.0, n_trunc, grid), signs)
    assert set(np.unique(signs)) == {-1.0, 1.0}


def test_det_signs_at_a_vanishing_trailing_minor():
    # omega0 = 3, omega = 1, N = 3: a_3 = 9 omega^2 - omega0^2 = 0.  Driven,
    # the ladder substitutes _TINY for r_3 and det A^(3) = -6 is not zero;
    # undriven, nothing couples the rows and the zero stands
    grid = np.array([0.5, 1.0, 1.5])
    assert minors(build_system(rpl(3.0, 1.0, 1.0), 3)).slog2()[0] == -1.0
    assert list(_det_signs(1.0, 3.0, 3, grid)) == list(_scalar_signs(1.0, 3.0, 3, grid))
    assert list(_det_signs(0.0, 3.0, 3, grid)) == list(_scalar_signs(0.0, 3.0, 3, grid))
    assert _det_signs(0.0, 3.0, 3, grid)[1] == 0.0


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


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_recursion_equals_fraction_reference(n):
    # at the default truncation of bloch_siegert_coefficients and at N + 4
    for max_m in range(1, 13):
        n_trunc = 2 * max_m + 2 * n + 4
        for big_n in (n_trunc, n_trunc + 4):
            assert resonance._shift_series(n, max_m, big_n) == rational_series.shift_series(
                n, max_m, big_n
            )


@pytest.mark.parametrize("n, max_m, n_trunc", [(3, 6, 8), (1, 3, 3), (2, 4, 3), (1, 5, 1)])
def test_integer_recursion_equals_fraction_reference_at_small_truncations(n, max_m, n_trunc):
    # small and odd N, where the series still differs between N and N + 4:
    # (3, 6, 8) and (1, 3, 3) are test_instability_detected_for_small_truncation's
    for big_n in (n_trunc, n_trunc + 4):
        assert resonance._shift_series(n, max_m, big_n) == rational_series.shift_series(
            n, max_m, big_n
        )


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
            fresh = resonance_scan.root(n, float(fs[i]), 1.0, 50)
            assert abs(curves[n][i].omega_res - fresh) < 1e-8 * fresh
