"""Orbit -> Floquet-state reconstruction, splits, gradients, sweeps."""

import dataclasses
import functools
import math
import re
import struct
import warnings

import dop853
from sweep_rows import rows_of, sweep_rows
import numpy as np
import pytest

from floquet_tls import bloch_dynamics, fourier_rpl, harmonics
from floquet_tls import quasienergy
from floquet_tls.bloch_dynamics import (
    DriveParams,
    monodromy_su2,
    periodic_orbit,
    quasienergy_from_monodromy,
)
from floquet_tls.errors import (
    ContinuityWarning,
    DomainError,
    FloquetTlsError,
    IntegrationError,
    SeriesInstabilityError,
    SouthPoleError,
)
from floquet_tls.exact_models import rpc_quasienergies, rpc_trajectory, toy_example
from floquet_tls.quasienergy import (
    QuasienergyResult,
    chi_series,
    euler_residual,
    floquet_state,
    grad_f,
    grad_g,
    grad_omega,
    grad_omega0,
    quasienergy_at,
    quasienergy_classical,
    shirley_probability,
    split_geometric_dynamic,
    sweep_branches,
)


def rpc(omega0=1.0, F=0.5, omega=1.0):
    return DriveParams(omega0=omega0, F=F, G=F, omega=omega)


def rpl(omega0, F, omega):
    return DriveParams(omega0=omega0, F=F, G=0.0, omega=omega)


def fourier_orbit(params, n_trunc=20):
    return fourier_rpl.solve_auto(params, start=n_trunc).normalized().evaluate


def test_rpc_chi_is_constant():
    p = rpc()
    series = chi_series(rpc_trajectory(p, +1), p)
    assert abs(series.a0 - 0.75) < 1e-12
    assert max(np.abs(series.cos_coeffs).max(), np.abs(series.sin_coeffs).max()) < 1e-10


def test_toy_example_series():
    toy = toy_example(1.0, 1.0)
    series = chi_series(toy.orbit, toy.drive, harmonics=12)
    assert abs(series.a0 - 0.5 * (1.0 - math.cos(0.5) * 0.9384698072408129)) < 1e-12
    # even-harmonic branch of the closed form, n = 2
    assert abs(series.cos_coeffs[1] - toy.b_coefficient(2)) < 1e-12
    for n in range(1, 11):
        assert abs(series.cos_coeffs[n - 1] - toy.b_coefficient(n)) < 1e-10


def test_rpc_split_closed_forms():
    p = rpc(omega0=1.0, F=0.7, omega=1.4)
    eg, ed = split_geometric_dynamic(rpc_trajectory(p, +1), p)
    big = math.hypot(p.F, p.omega0 - p.omega)
    # at omega0 = 1 the energy average reduces to (F^2 - w + w0)/(2 R)
    assert abs(ed - (p.F**2 - p.omega + p.omega0) / (2 * big)) < 1e-12
    assert abs(eg - p.omega * (big - p.omega0 + p.omega) / (2 * big)) < 1e-12
    ref = rpc_quasienergies(p)
    assert abs(eg + ed - ref.eps_plus) < 1e-12


def test_toy_dynamical_part_vanishes():
    toy = toy_example(1.0, 1.0)
    eg, ed = split_geometric_dynamic(toy.orbit, toy.drive)
    assert abs(ed) < 1e-10
    assert abs(eg - toy.epsilon) < 1e-10


def test_quasienergy_result_bookkeeping():
    res = QuasienergyResult.from_raw(2.3, 1.0, omega=1.0, method="ode")
    assert res.branch == 2
    assert 0.0 <= res.epsilon_mod < 1.0
    assert abs(res.epsilon - res.eps_g - res.eps_d) < 1e-15
    shifted = res.shifted(3)
    assert abs(shifted.epsilon - res.epsilon - 3.0) < 1e-15
    assert abs(shifted.epsilon - shifted.eps_g - shifted.eps_d) < 1e-15
    mirrored = res.mirrored()
    assert abs(mirrored.epsilon + res.epsilon) < 1e-15
    assert abs(mirrored.eps_d + res.eps_d) < 1e-15


def _bits(row):
    """A sweep row with every float as its 8 bytes, signed zeros and NaN payloads
    included, or the type and message of its error."""
    if isinstance(row, FloquetTlsError):
        return type(row), str(row)
    return tuple(
        (type(v), struct.pack("<d", v) if isinstance(v, float) else v)
        for v in dataclasses.astuple(row)
    )


def _replace_shifted(point, k):
    """QuasienergyResult.shifted written with dataclasses.replace."""
    shift = k * point.omega
    return dataclasses.replace(
        point, epsilon=point.epsilon + shift, eps_g=point.eps_g + shift, branch=point.branch + k
    )


_SHIFT_POINTS = [
    QuasienergyResult.from_raw(2.3, 1.0, omega=1.0, method="ode"),
    QuasienergyResult.from_raw(-0.7368, 0.25, omega=0.7368, method="fourier"),
    QuasienergyResult(-0.0, 0.0, -0.0, 0.0, 0, "fourier", 1.0),  # signed zeros
    QuasienergyResult(0.0, 0.0, -0.0, 0.0, 0, "ode", 0.5),
    QuasienergyResult(-0.0, -0.0, 0.0, -0.0, -1, "fourier", 2.0),
    QuasienergyResult.from_raw(0.1 + 0.2, 1e-300, omega=0.1, method="fourier"),
]


@pytest.mark.parametrize("point", _SHIFT_POINTS)
def test_shifted_matches_dataclasses_replace_bit_for_bit(point):
    for family in (point, point.mirrored()):
        for k in range(-2, 3):
            got, ref = family.shifted(k), _replace_shifted(family, k)
            assert type(got) is QuasienergyResult
            assert _bits(got) == _bits(ref)


def test_continue_branch_matches_dataclasses_replace_bit_for_bit(monkeypatch):
    # prev sits near each candidate +-epsilon + k omega, k = -2..2, in turn,
    # so both families and every one of these shifts k are chosen
    omegas = [float(w) for w in np.linspace(0.25, 2.2, 40)]
    points = sweep_branches(rpl(1.0, 1.0, 1.0), omegas, method="fourier")
    pairs = [(b, a) for a, b in zip(points, points[1:])]
    for point in points[::7] + _SHIFT_POINTS[:2]:
        for sign in (1.0, -1.0):
            for k in range(-2, 3):
                eps = sign * point.epsilon + k * point.omega + 0.01 * point.omega
                pairs.append((point, QuasienergyResult.from_raw(eps, 0.0, point.omega, "fourier")))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ContinuityWarning)
        got = [quasienergy.continue_branch(point, prev) for point, prev in pairs]
        monkeypatch.setattr(QuasienergyResult, "shifted", _replace_shifted)
        ref = [quasienergy.continue_branch(point, prev) for point, prev in pairs]
    assert list(map(_bits, got)) == list(map(_bits, ref))
    shifts = {(g.eps_d == p.eps_d, g.branch - (p if g.eps_d == p.eps_d else p.mirrored()).branch)
              for g, (p, _) in zip(got, pairs)}
    assert {(own, k) for own in (True, False) for k in range(-2, 3)} <= shifts


def _ten_candidate_branch(point, prev):
    """continue_branch as it compared ten candidates, k within two of the nearest branch."""
    best, best_dist = None, math.inf
    for sign in (1.0, -1.0):
        eps = sign * point.epsilon
        base_k = math.floor((prev.epsilon - eps) / point.omega + 0.5)
        for k in range(base_k - 2, base_k + 3):
            dist = abs(eps + k * point.omega - prev.epsilon)
            if dist < best_dist:
                best, best_dist = (sign, k), dist
    sign, k = best
    return (point if sign > 0 else point.mirrored()).shifted(k)


def test_continue_branch_matches_ten_candidates_bit_for_bit():
    # eps + k omega, k the branch nearest prev, lies within omega/2 of prev, so
    # k +- 2 never win: prev sits on each candidate +-epsilon + k omega,
    # k = -3..3, and omega/2 to either side of it, each to within one ulp
    omegas = [float(w) for w in np.linspace(0.25, 2.2, 40)]
    points = sweep_branches(rpl(1.0, 1.0, 1.0), omegas, method="fourier")[::7] + _SHIFT_POINTS
    pairs = []
    for point in points:
        for sign in (1.0, -1.0):
            for k in range(-3, 4):
                for offset in (-0.5, 0.0, 0.5):
                    at = sign * point.epsilon + k * point.omega + offset * point.omega
                    for eps in (np.nextafter(at, -math.inf), at, np.nextafter(at, math.inf)):
                        prev = QuasienergyResult.from_raw(float(eps), 0.0, point.omega, "fourier")
                        pairs.append((point, prev))
    # at omega/2 float rounding can put the winner one above the nearest branch
    rounded = [(-0.628, 0.628, 0.942), (0.477, 0.954, -0.954)]
    for eps, omega, at in rounded:
        pairs.append((QuasienergyResult.from_raw(eps, 0.1, omega, "fourier"),
                      QuasienergyResult.from_raw(at, 0.0, omega, "fourier")))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ContinuityWarning)
        got = [quasienergy.continue_branch(point, prev) for point, prev in pairs]
        ref = [_ten_candidate_branch(point, prev) for point, prev in pairs]
    assert list(map(_bits, got)) == list(map(_bits, ref))
    for (eps, omega, at), (point, _), row in zip(rounded, pairs[-2:], got[-2:]):
        assert row.eps_d == point.eps_d
        assert row.branch == point.branch + math.floor((at - eps) / omega + 0.5) + 1
    shifts = {(g.eps_d == p.eps_d, g.branch - (p if g.eps_d == p.eps_d else p.mirrored()).branch)
              for g, (p, _) in zip(got, pairs)}
    assert {(own, k) for own in (True, False) for k in range(-3, 4)} <= shifts


def test_rpc_quasienergy_classical():
    p = rpc(omega0=1.0, F=0.5, omega=1.0)
    res = quasienergy_classical(rpc_trajectory(p, +1), p)
    assert abs(res.epsilon - 0.75) < 1e-10
    assert abs(res.epsilon_mod - 0.75) < 1e-10
    assert abs(res.epsilon - res.eps_g - res.eps_d) < 1e-8


def test_small_static_field_bessel_law():
    p = rpl(1e-3, 2.0, 1.0)
    res = quasienergy_at(p, method="ode")
    from floquet_tls.specfun import bessel_j

    expect = 0.5 * 1e-3 * bessel_j(0, 2.0)
    assert abs(res.epsilon - expect) < 1e-5


def test_antipodal_orbits_mirror():
    p = rpl(1.0, 0.6, 1.9)
    orbit = fourier_orbit(p)
    plus = quasienergy_classical(orbit, p)
    minus = quasienergy_classical(lambda t: -orbit(t), p)
    d = (plus.epsilon + minus.epsilon) % p.omega
    assert min(d, p.omega - d) < 1e-8


def test_fourier_family_does_not_depend_on_the_truncation():
    # at (1, 0.5, 0.04) row 25 of the ladder has a_25 = 0 and r_25 < 0: the sign of phi_2
    # changes from N = 20 to N = 28, and with it the family that sign once chose
    p = rpl(1.0, 0.5, 0.04)
    eps = {quasienergy_at(p, method="fourier", n_trunc=n).epsilon for n in (20, 28, 36, 44)}
    assert len(eps) == 1
    assert abs(eps.pop() - quasienergy_at(p, method="ode").epsilon) < 1e-11


def test_lone_points_report_one_family_on_both_routes():
    # seeded audit of 200 lone G = 0 points, F log-uniform in [0.05, 20], omega log-uniform
    # in [0.05, 3], F / omega <= 150; about 0.5 s on both routes.  A mirrored point lies
    # nearer -eps than eps of the other route, mod omega; the nearest is within 1e-9.
    # No point fails: (1, 17.3446, 0.36957) failed on both routes while the winding of
    # arg(X + iY) was resolved by doubling the whole grid.
    rng = np.random.default_rng(30)
    points = []
    while len(points) < 200:
        f, omega = np.exp(rng.uniform(np.log([0.05, 0.05]), np.log([20.0, 3.0])))
        if f / omega <= 150:
            points.append(rpl(1.0, float(f), float(omega)))

    def dist(d, omega):
        return abs((d + 0.5 * omega) % omega - 0.5 * omega)

    mirrored, failed, worst = 0, [], 0.0
    for p in points:
        eps = []
        for method in ("fourier", "ode"):
            try:
                eps.append(quasienergy_at(p, method=method).epsilon)
            except SeriesInstabilityError:
                failed.append((method, p.F, p.omega))
        if len(eps) == 2:
            same, mirror = dist(eps[0] - eps[1], p.omega), dist(eps[0] + eps[1], p.omega)
            mirrored += mirror < same
            worst = max(worst, same)
    assert mirrored == 0
    assert worst <= 1e-9
    assert failed == []


@pytest.mark.parametrize("F, omega", [(17.3446, 0.36957), (10.3722, 0.11465)])
def test_near_axis_winding_is_resolved_on_both_routes(F, omega):
    # +z rows whose X + iY passes so near 0 that arg(X + iY) turns by pi/2 or more
    # between samples of 65536 per period; both routes agree on eps and its branch
    p = rpl(1.0, F, omega)
    fourier, ode = (quasienergy_at(p, method=method) for method in ("fourier", "ode"))
    assert fourier.branch == ode.branch
    assert abs(fourier.epsilon - ode.epsilon) <= 1e-11


def test_south_pole_flip():
    # circular-drive orbit circling just above the south pole
    p = rpc(omega0=1.0, F=1e-3, omega=3.0)
    big = math.hypot(p.F, p.omega0 - p.omega)

    def orbit(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (3,))
        out[..., 0] = p.F * np.cos(p.omega * t) / big
        out[..., 1] = p.F * np.sin(p.omega * t) / big
        out[..., 2] = (p.omega0 - p.omega) / big
        return out

    with pytest.raises(SouthPoleError):
        chi_series(orbit, p)
    # averaged on the +z section (mean -1/2 + O(F^2)) and taken back by its
    # one counter-clockwise turn: the -z branch itself, not only mod omega
    res = quasienergy_classical(orbit, p)
    eps_plus = 0.5 * (p.omega + big)
    assert abs(res.epsilon - eps_plus) < 1e-12
    assert res.branch == 0


def test_near_pole_branch_is_that_of_minus_z_section(monkeypatch):
    # a Fourier orbit passing 7.6e-4 R from the south pole: its -z mean,
    # resolved on a fine grid once the margin is lifted, is the reported epsilon
    p = rpl(1.0, 3.652, 0.4056)
    sol = fourier_rpl.solve_auto(p).normalized()
    res = quasienergy_classical(sol, p, method="fourier")
    # (1, 15, 0.05) passes 1.7e-5 R from the pole; its branch was once -97
    assert quasienergy_at(rpl(1.0, 15.0, 0.05), method="fourier").branch == -92
    monkeypatch.setattr(quasienergy, "_SOUTH_POLE_MARGIN", 0.0)
    assert abs(res.epsilon - chi_series(sol, p).a0) <= 1e-10


def test_turns_refines_until_steps_are_below_quarter_turn():
    p = rpc(omega0=1.0, F=1e-3, omega=3.0)
    orbit = _south_pole_orbit(p)
    calls = []

    def recorded(t):
        calls.append(np.size(t))
        return orbit(t)

    ts = np.arange(8) * (p.T / 8)
    xs = orbit(ts).T  # states (3, m), steps of exactly pi/4
    assert quasienergy._turns(recorded, p.T, xs) == 1 and calls == []
    assert quasienergy._turns(recorded, p.T, xs[:, ::2]) == 1  # steps of exactly pi/2
    assert calls == [28]  # each of the four steps split into eight
    calls.clear()
    xs[:, 3] = orbit(4.2 * p.T / 8)  # steps of 0.55 pi and -0.05 pi around sample 3
    assert quasienergy._turns(recorded, p.T, xs) == 1
    assert calls == [7]  # only the 0.55 pi step is split

    def reverse(t):
        return orbit(-np.asarray(t))

    assert quasienergy._turns(reverse, p.T, reverse(ts[::2]).T) == -1

    def through_the_axis(t):
        # X + iY crosses 0: arg(X + iY) jumps by pi however fine the step
        wt = p.omega * np.asarray(t)
        return np.stack([np.cos(wt), np.zeros_like(wt), np.sin(wt)], axis=-1)

    with pytest.raises(SeriesInstabilityError, match=r"unresolved on a step of [0-9.e-]+ T"):
        quasienergy._turns(through_the_axis, p.T, through_the_axis(ts).T)


@pytest.mark.parametrize("method, omega", [("fourier", 0.05), ("ode", 2.2)])
def test_half_period_winding_is_the_whole_period_winding(method, omega):
    # +z rows: (1, 15, 0.05) passes 1.7e-5 R from the south pole, (1, 7, 2.2) 1.3e-5 R
    F = 15.0 if method == "fourier" else 7.0
    p = rpl(1.0, F, omega)
    orbit = fourier_rpl.solve_auto(p) if method == "fourier" else periodic_orbit(p)
    whole, _ = quasienergy._grids([orbit], p.T)
    half, _ = quasienergy._grids([orbit], p.T, half=True)
    for m in (256, 2048):
        xs = half([0], m)[0]
        assert xs.shape == (3, m // 2)
        # the half period completed by X(t + T/2) = R_z(pi) X(t), as _settle completes it
        xs = np.concatenate([xs, xs * bloch_dynamics._HALF_TURN[:, None]], axis=-1)
        assert np.abs(xs - whole([0], m)[0]).max() <= 1e-12
        turns = quasienergy._turns(orbit, p.T, xs)
        assert turns % 2 == 1 and abs(turns) > 1  # a half period winds an odd number of half turns
        assert turns == quasienergy._turns(orbit, p.T, whole([0], m)[0])


@pytest.mark.parametrize("omega", [0.5, 0.756, 1.333, 2.038])
def test_strong_drive_half_period_averages_match_dop853(omega, monkeypatch):
    # (1, 20): the ODE route, and the Fourier route once its tail is below
    # 1e-13, against the DOP853 eigenphase mod omega (either family)
    p = rpl(1.0, 20.0, omega)
    ref = quasienergy_from_monodromy(dop853.monodromy_su2(p, 3e-14), p.T)
    monkeypatch.setattr(fourier_rpl, "_COEFF_TOL", 1e-13)
    sol = fourier_rpl.solve_auto(p)
    for res in (quasienergy_classical(sol, p, method="fourier"), quasienergy_at(p, method="ode")):
        d = [(res.epsilon_mod - sign * ref) % omega for sign in (1, -1)]
        assert min(min(v, omega - v) for v in d) <= 1e-12


def test_ode_orbit_near_south_pole_uses_batch_grid(monkeypatch):
    # the ODE orbit at (1, 7, 2.2) passes 1.3e-5 R from the south pole; its grids
    # come from the batch, and dense output only gives the times of _turns's
    # refinement, seven for each step it splits
    p = rpl(1.0, 7.0, 2.2)
    orbit = periodic_orbit(p)
    calls = []
    real = bloch_dynamics.Trajectory.__call__

    def dense_output(self, t):
        calls.append(np.size(t))
        return real(self, t)

    monkeypatch.setattr(bloch_dynamics.Trajectory, "__call__", dense_output)
    with pytest.raises(SouthPoleError):
        chi_series(orbit, p)
    assert calls == []
    res = quasienergy_classical(orbit, p, method="ode")
    assert all(n % 7 == 0 for n in calls)
    assert abs(res.epsilon - quasienergy_at(p, method="fourier").epsilon) <= 1e-9


@pytest.mark.parametrize("sweep", [(0.0875, 0.12, 16), (0.05, 0.5, 16)])
def test_ode_sweep_rows_equal_their_lone_points(sweep):
    # F/omega up to 80: the points of one batch need different numbers of Magnus
    # steps, and each keeps its own, so no row depends on its neighbours
    base = DriveParams(1.0, 7.0, 0.0, 1.0)
    omegas = np.linspace(*sweep).tolist()
    steps = {2 * int(periodic_orbit(DriveParams(1.0, 7.0, 0.0, w)).orbits.N[0]) for w in omegas}
    assert len(steps) > 1
    rows = sweep_rows(base, omegas, "ode")
    for omega, row in zip(omegas, rows):
        assert _bits(row) == _bits(quasienergy_at(DriveParams(1.0, 7.0, 0.0, omega), method="ode"))


def _tail_ratio(orbit):
    """The largest harmonic of one orbit's rows in the top eighth of its step grid's, over
    its largest, from its rows up to the harmonic S/2."""
    block, n = orbit.orbits, int(orbit.orbits.N[orbit.index]) // 2
    rows = [block.z[orbit.index, : n + 1], block.x[orbit.index, :n], block.y[orbit.index, :n]]
    top = n - n // 8
    tail = max(np.abs(row[top:]).max() for row in rows)
    return tail / max(np.abs(row).max() for row in rows)


def test_unresolved_ode_orbit_fails_alone(monkeypatch):
    # every orbit's tail is tested when its batch is built: once the limit is below
    # the largest tail of these 16 points, that point fails, alone or in its batch
    base = DriveParams(1.0, 7.0, 0.0, 1.0)
    omegas = np.linspace(0.0875, 0.12, 16).tolist()
    orbits = [periodic_orbit(DriveParams(1.0, 7.0, 0.0, w)) for w in omegas]
    ratios = [_tail_ratio(orbit) for orbit in orbits]
    k = int(np.argmax(ratios))
    assert ratios[k] < 1e-15 < bloch_dynamics.TAIL_TOL
    limit = 0.5 * (ratios[k] + max(r for i, r in enumerate(ratios) if i != k))
    monkeypatch.setattr(bloch_dynamics, "TAIL_TOL", limit)
    steps = 2 * int(orbits[k].orbits.N[0])
    message = f"tail ratio {ratios[k]:.3g} of its harmonics above {limit:g} at S = {steps} Magnus"
    with pytest.raises(IntegrationError, match=message):
        periodic_orbit(DriveParams(1.0, 7.0, 0.0, omegas[k]))
    rows = sweep_rows(base, omegas, "ode")
    assert isinstance(rows[k], IntegrationError) and message in str(rows[k])
    for i, (omega, row) in enumerate(zip(omegas, rows)):
        if i != k:
            # its neighbours, in its batch, are bit for bit what they are alone
            assert _bits(row) == _bits(quasienergy_at(DriveParams(1.0, 7.0, 0.0, omega), method="ode"))


def test_orbit_of_another_frequency_is_refused():
    # an orbit is sampled at s_j = 2 pi j / m on its own period and the field on the
    # drive's: averaged against a drive of another omega, it gave the quasienergy of
    # its own omega, reported at the drive's
    for orbit, p in (
        (periodic_orbit(DriveParams(1.0, 0.5, 0.3, 1.3)), DriveParams(1.0, 0.5, 0.3, 1.3)),
        (fourier_rpl.solve_auto(rpl(1.0, 0.5, 1.3)), rpl(1.0, 0.5, 1.3)),
    ):
        eps = quasienergy_classical(orbit, p).epsilon
        near = dataclasses.replace(p, omega=1.3 * (1.0 + 1e-13))
        assert abs(quasienergy_classical(orbit, near).epsilon - eps) <= 1e-12
        averages = (quasienergy_classical, chi_series, split_geometric_dynamic, floquet_state)
        for omega in (1.0, 2.6):
            message = f"orbit of omega 1.3 averaged over a drive of omega {omega:g}"
            for average in averages:
                with pytest.raises(DomainError, match=message):
                    average(orbit, dataclasses.replace(p, omega=omega))


def test_floquet_state_static_field():
    p = DriveParams(1.0, 0.0, 0.0, 2.0)

    def north(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (3,))
        out[..., 2] = 1.0
        return out

    fs = floquet_state(north, p)
    assert abs(fs.epsilon - 0.5) < 1e-12
    assert np.abs(fs.u - fs.u[0]).max() < 1e-12
    assert fs.residual < 1e-8


def test_floquet_state_rpc_recovery():
    from floquet_tls.exact_models import rpc_floquet_states

    p = rpc(omega0=1.0, F=0.5, omega=1.0)
    fs = floquet_state(rpc_trajectory(p, +1), p)
    assert fs.residual < 1e-6
    psi = fs.u * np.exp(-1j * fs.epsilon * fs.times)[:, None]
    psi_plus, _ = rpc_floquet_states(p, fs.times)
    overlap = np.sum(np.conj(psi) * psi_plus, axis=-1)
    assert np.abs(np.abs(overlap) - 1.0).max() < 1e-9
    phases = np.angle(overlap)
    assert phases.max() - phases.min() < 1e-9  # constant phase only
    # norms stay unit and u is periodic on the grid
    assert np.abs(np.linalg.norm(fs.u, axis=-1) - 1.0).max() < 1e-8


def test_floquet_monodromy_property():
    from floquet_tls.bloch_dynamics import monodromy_su2

    p = rpl(1.0, 0.7, 1.7)
    fs = floquet_state(fourier_orbit(p), p)
    # U(T) psi(0) = exp(-i eps T) psi(0): reconstruction vs the propagator
    propagated = monodromy_su2(p) @ fs.u[0]
    expect = np.exp(-1j * fs.epsilon * p.T) * fs.u[0]
    assert np.abs(propagated - expect).max() < 1e-6


@pytest.mark.parametrize("F, omega, bound", [(20.0, 0.05, 1e-9), (5.0, 0.2, 1e-10)])
def test_floquet_state_and_split_read_the_settled_grid(F, omega, bound):
    # on a fixed 4096-point grid with 256 phase harmonics the residuals were
    # 7.7 and 0.12, and at (1, 20, 0.05) both epsilons were 9.6e-9 off
    p = rpl(1.0, F, omega)
    orbit = fourier_rpl.solve_auto(p).normalized()
    fs = floquet_state(orbit, p)
    assert fs.residual <= bound
    assert fs.u.shape == (len(fs.times), 2)
    ref = quasienergy_classical(orbit, p, method="fourier").epsilon
    for eps in (fs.epsilon, sum(split_geometric_dynamic(orbit, p))):
        d = (eps - ref) % omega
        assert min(d, omega - d) <= 1e-12


def test_minus_z_averages_raise_near_south_pole():
    p = rpc(omega0=1.0, F=1e-3, omega=3.0)
    orbit = _south_pole_orbit(p)
    for average in (chi_series, split_geometric_dynamic, floquet_state):
        with pytest.raises(SouthPoleError):
            average(orbit, p)


def test_grad_omega0_rpc():
    p = rpc(omega0=1.0, F=0.5, omega=0.7)
    big = math.hypot(p.F, p.omega0 - p.omega)
    got = grad_omega0(rpc_trajectory(p, +1), p)
    assert abs(got - (p.omega0 - p.omega) / (2 * big)) < 1e-12


def test_grad_omega_rpc():
    p = rpc(omega0=1.0, F=0.5, omega=1.3)
    res = quasienergy_classical(rpc_trajectory(p, +1), p)
    big = math.hypot(p.F, p.omega0 - p.omega)
    expect = 0.5 * (1.0 + (p.omega - p.omega0) / big)
    assert abs(grad_omega(res) - expect) < 1e-10


def test_small_drive_grad_omega_law():
    p = rpl(1.0, 0.05, 2.0)
    res = quasienergy_at(p, method="fourier")
    expect = p.F**2 * p.omega * p.omega0 / (4 * (p.omega**2 - p.omega0**2) ** 2)
    assert abs(grad_omega(res) - expect) < 1e-6


def test_gradients_against_finite_differences():
    p = rpl(1.0, 0.5, 2.0)
    delta = 1e-4

    def eps(params):
        return quasienergy_at(params, method="fourier").epsilon

    orbit = fourier_orbit(p)
    res = quasienergy_at(p, method="fourier")
    fd_w0 = (eps(rpl(1.0 + delta, 0.5, 2.0)) - eps(rpl(1.0 - delta, 0.5, 2.0))) / (2 * delta)
    fd_f = (eps(rpl(1.0, 0.5 + delta, 2.0)) - eps(rpl(1.0, 0.5 - delta, 2.0))) / (2 * delta)
    fd_w = (eps(rpl(1.0, 0.5, 2.0 + delta)) - eps(rpl(1.0, 0.5, 2.0 - delta))) / (2 * delta)
    assert abs(fd_w0 - grad_omega0(orbit, p)) < 1e-5
    assert abs(fd_f - grad_f(orbit, p)) < 1e-5
    assert abs(fd_w - grad_omega(res)) < 1e-5


def test_grad_omega0_vanishes_at_resonance():
    from floquet_tls.resonance import find_resonance

    w_res = find_resonance(1, 0.4, 1.0, 40).omega_res
    p = rpl(1.0, 0.4, w_res)
    orbit = fourier_orbit(p, 40)
    assert abs(grad_omega0(orbit, p)) < 1e-6


def test_shirley_probability_values():
    assert shirley_probability(0.0) == 0.5
    assert shirley_probability(0.5) == 0.0
    assert abs(shirley_probability(0.25) - 3.0 / 8.0) < 1e-15
    with pytest.raises(DomainError):
        shirley_probability(0.6)


def test_euler_residual_rpc_closed_forms():
    p = rpc(omega0=1.0, F=0.8, omega=1.7)
    big = math.hypot(p.F, p.omega0 - p.omega)
    grads = {
        "omega0": (p.omega0 - p.omega) / (2 * big),
        "F": p.F / (4 * big),
        "G": p.F / (4 * big),
        "omega": 0.5 * (1.0 + (p.omega - p.omega0) / big),
    }
    eps_plus = 0.5 * (p.omega + big)
    assert euler_residual(p, grads, eps_plus) < 1e-12


def test_euler_residual_rpl():
    p = rpl(1.0, 0.5, 2.0)
    orbit = fourier_orbit(p)
    res = quasienergy_at(p, method="fourier")
    grads = {
        "omega0": grad_omega0(orbit, p),
        "F": grad_f(orbit, p),
        "G": grad_g(orbit, p),
        "omega": grad_omega(res),
    }
    assert euler_residual(p, grads, res.epsilon) < 1e-5


def test_homogeneity_scaling():
    p = rpl(1.0, 0.5, 1.9)
    base = quasienergy_at(p, method="fourier").epsilon
    for lam in (0.5, 2.0, 10.0):
        scaled = quasienergy_at(p.scaled(lam), method="fourier").epsilon
        assert abs(scaled - lam * base) / lam < 1e-8


def test_sweep_rpc_matches_closed_form():
    base = rpc(omega0=1.0, F=0.5, omega=1.0)
    grid = np.linspace(0.6, 1.8, 25)
    results = sweep_branches(base, grid, method="ode")
    for omega, res in zip(grid, results):
        p = rpc(omega0=1.0, F=0.5, omega=float(omega))
        ref = rpc_quasienergies(p)
        d = (res.epsilon - ref.eps_plus) % p.omega
        d = min(d, p.omega - d)
        d2 = (res.epsilon + ref.eps_plus) % p.omega
        d2 = min(d2, p.omega - d2)
        assert min(d, d2) < 1e-8
        assert abs(res.epsilon - res.eps_g - res.eps_d) < 1e-8


def test_sweep_continuity():
    base = rpl(1.0, 0.5, 1.0)
    grid = np.linspace(0.8, 1.3, 41)
    results = sweep_branches(base, grid, method="fourier")
    eps = np.array([r.epsilon for r in results])
    assert np.abs(np.diff(eps)).max() < 0.06  # smooth across the first resonance
    for r, w in zip(results, grid):
        assert 0.0 <= r.epsilon_mod < w
        assert abs(r.epsilon - r.branch * w - r.epsilon_mod) < 1e-10


def _row_key(row):
    """A sweep row, or the type and message of its error, for comparisons."""
    return (type(row), str(row)) if isinstance(row, FloquetTlsError) else row


def _check_sweep_rows(omega0, F, G, omegas, method, failed=0, n_trunc=20):
    """Check a sweep's rows against their points alone; exactly ``failed`` of them fail."""
    base = DriveParams(omega0, F, G, 1.0)
    rows = sweep_rows(base, omegas, method, n_trunc)
    errors = [w for w, row in zip(omegas, rows) if isinstance(row, FloquetTlsError)]
    assert len(errors) == failed
    alone = functools.partial(quasienergy_at, method=method, n_trunc=n_trunc)
    for omega, row in zip(omegas, rows):
        # before continuation a row is its point alone, bit for bit, failures included
        if isinstance(row, FloquetTlsError):
            with pytest.raises(type(row), match=re.escape(str(row))):
                alone(DriveParams(omega0, F, G, omega))
        else:
            assert row == alone(DriveParams(omega0, F, G, omega))
    reported = []
    # without on_error the first failure would raise
    on_error = (lambda omega, exc: reported.append(omega)) if failed else None
    points = sweep_branches(base, omegas, method=method, n_trunc=n_trunc, on_error=on_error)
    assert reported == errors
    prev = None
    for row, point in zip(rows, points):
        if isinstance(row, FloquetTlsError):
            assert point is None
            continue
        prev = row if prev is None else quasienergy.continue_branch(row, prev)
        assert point == prev
    if method == "fourier":
        # one point fewer moves every row to another place in its block
        moved = sweep_rows(base, omegas[1:], method, n_trunc)
        assert list(map(_row_key, rows[1:])) == list(map(_row_key, moved))


@pytest.mark.parametrize(
    "F, G, sweep, method",
    [
        (0.3, 0.0, (0.25, 2.2, 80), "fourier"),
        (1.0, 0.0, (0.25, 2.2, 80), "fourier"),
        (1.8, 0.0, (0.25, 2.2, 80), "fourier"),
        (15.0, 0.0, (0.05, 0.08, 2), "fourier"),  # near-pole and unsettled rows
        (0.5, 0.3, (0.4, 2.0, 20), "ode"),  # two blocks
        pytest.param(
            4.0, 0.0, (0.1, 2.0, 60), "fourier",  # orders from 20 past 60, galloping up and down
            marks=pytest.mark.filterwarnings("ignore::floquet_tls.errors.ContinuityWarning"),
        ),
    ],
)
def test_sweep_blocks_match_per_point_results(F, G, sweep, method):
    _check_sweep_rows(1.0, F, G, [float(w) for w in np.linspace(*sweep)], method)


@pytest.mark.parametrize(
    "F, sweep, failed, method",
    [
        # b_k = 0: x = 0, r_k = a_k; every F = 0 orbit is oriented onto the north pole
        pytest.param(0.0, (0.45, 1.95, 16), 0, "fourier", id="0.0-sweep0-0"),
        # DomainError rows at omega <= 0
        pytest.param(0.5, (-1.0, 2.0, 31), 11, "fourier", id="0.5-sweep1-11"),
        # S from 2048 to 65536 Magnus steps, and 4 rows whose mean of chi is unsettled
        # on 65536 samples
        pytest.param(
            20.0, (0.05, 0.5, 200), 4, "ode", id="20.0-sweep2-4-ode",
            marks=pytest.mark.filterwarnings("ignore::floquet_tls.errors.ContinuityWarning"),
        ),
    ],
)
def test_sweep_blocks_with_failed_rows_match_per_point_results(F, sweep, failed, method):
    _check_sweep_rows(1.0, F, 0.0, [float(w) for w in np.linspace(*sweep)], method, failed)


def test_sweep_rows_through_lentz_guard_match_per_point_results(monkeypatch):
    # (omega0, F) = (3, 0.5) from n_trunc = 3: every point first probes N = 3, and
    # at omega = 1 the last row a_3 = 9 omega^2 - omega0^2 vanishes, so the array
    # ladder stores Lentz's _TINY for r_3
    guarded = []
    real = fourier_rpl._ratio_block

    def recording(*args):
        r, sub = real(*args)
        guarded.append(int((r == fourier_rpl._TINY).sum()))
        return r, sub

    monkeypatch.setattr(fourier_rpl, "_ratio_block", recording)
    omegas = [float(w) for w in np.linspace(0.9, 1.1, 21)]
    _check_sweep_rows(3.0, 0.5, 0.0, omegas, "fourier", n_trunc=3)
    assert any(guarded)


def test_fourier_sweep_solves_its_truncations_chunk_by_chunk(monkeypatch):
    # each chunk is solved when its first block is reached, and the rows do not
    # depend on where the chunks are cut
    base = DriveParams(1.0, 1.0, 0.0, 1.0)
    omegas = [float(w) for w in np.linspace(0.25, 2.2, 80)]
    whole = sweep_rows(base, omegas, "fourier")
    chunks = []
    real = fourier_rpl._solve_sweep

    def recording(base, omegas, *args):
        chunks.append(len(omegas))
        return real(base, omegas, *args)

    monkeypatch.setattr(fourier_rpl, "_solve_sweep", recording)
    monkeypatch.setattr(quasienergy, "_SOLVE_CHUNK", 32)
    blocks = quasienergy._sweep_blocks(base, omegas, "fourier", 20, 1e-12)
    first = next(blocks)
    assert chunks == [32]
    assert rows_of([first, *blocks], omegas, "fourier") == whole
    assert chunks == [32, 32, 16]


def _fourier_rows_in_blocks_of_16(base, omegas, n_trunc=20):
    """A Fourier sweep's rows with each solve chunk averaged 16 rows at a time."""
    size = quasienergy._SOLVE_CHUNK
    orbits = []
    for i in range(0, len(omegas), size):
        sols = fourier_rpl._solve_sweep(base, omegas[i : i + size], n_trunc)
        at = {int(k): row for row, k in enumerate(sols.rows)}
        for k, omega in enumerate(omegas[i : i + size]):
            if k in at:
                orbits.append(sols.solution(at[k], DriveParams(base.omega0, base.F, base.G, omega)))
            else:
                orbits.append(sols.errors[k])
    field = quasienergy._field(DriveParams(base.omega0, base.F, base.G, 1.0))
    for start in range(0, len(omegas), 16):
        rows = [k for k in range(start, min(start + 16, len(omegas)))
                if not isinstance(orbits[k], FloquetTlsError)]
        eps, eps_d, errors = quasienergy._quasienergies(
            [orbits[k] for k in rows], field, [omegas[k] for k in rows], half=True
        )
        for i, k in enumerate(rows):
            orbits[k] = errors.get(i) or QuasienergyResult.from_raw(
                float(eps[i]), float(eps_d[i]), omegas[k], "fourier"
            )
    return orbits


@pytest.mark.parametrize(
    "F, sweep, failed, plus_z",
    [
        (0.0, (0.45, 1.95, 40), 0, 0),  # F = 0: every orbit is the north pole
        (0.5, (-1.0, 2.0, 31), 11, 0),  # DomainError rows at omega <= 0
        (15.0, (0.05, 2.0, 40), 0, 8),  # near-pole rows, 0.05 among them, on +z
        (1.8, (0.05, 3.0, 700), 0, 9),  # three solve chunks: 256 + 256 + 188
    ],
)
def test_fourier_sweep_averaged_per_chunk_matches_blocks_of_16(monkeypatch, F, sweep, failed, plus_z):
    base = rpl(1.0, F, 1.0)
    omegas = [float(w) for w in np.linspace(*sweep)]
    ref = _fourier_rows_in_blocks_of_16(base, omegas)
    calls, turns = [], []
    real_quasienergies, real_turns = quasienergy._quasienergies, quasienergy._turns

    def quasienergies(orbits, field, omegas, *args, **kwargs):
        calls.append(len(omegas))
        return real_quasienergies(orbits, field, omegas, *args, **kwargs)

    def recording_turns(orbit, *args):
        turns.append(orbit)
        return real_turns(orbit, *args)

    monkeypatch.setattr(quasienergy, "_quasienergies", quasienergies)
    monkeypatch.setattr(quasienergy, "_turns", recording_turns)
    requests = _record_chi_samples(monkeypatch)
    rows = sweep_rows(base, omegas, "fourier")
    assert list(map(_bits, rows)) == list(map(_bits, ref))
    assert sum(isinstance(row, FloquetTlsError) for row in rows) == failed
    assert len(turns) == plus_z  # rows averaged on the +z section
    assert len(calls) == math.ceil(len(omegas) / 256)  # one average per solve chunk
    assert all(len(ks) <= max(1, 16 * 2048 // m) for ks, m in requests)


def test_unsettled_sweep_row_samples_each_grid_once(monkeypatch):
    # both rows settle only on grids finer than 2048; the row at 0.05 passes
    # 1.7e-5 R from the south pole and is averaged on the +z section
    # sweep rows are sampled on half a period; m counts samples per period
    requests = []  # (omegas of the rows, m) of every Fourier grid request
    real = harmonics.Orbits.half_grid

    def half_grid(sols, rows, m):
        requests.append((sols.omega[rows].tolist(), m))
        return real(sols, rows, m)

    monkeypatch.setattr(harmonics.Orbits, "half_grid", half_grid)
    base = rpl(1.0, 15.0, 1.0)
    rows = sweep_rows(base, [0.05, 0.08], "fourier")
    assert rows[0].branch == -92
    for w in (0.05, 0.08):
        grids = [m for ws, m in requests for v in ws if v == w]
        assert len(grids) >= 2 and grids[0] == 2048 and grids[-1] < 65536
        assert all(b == 2 * a for a, b in zip(grids, grids[1:]))  # strictly doubling, each once


def _fourier_start(n):
    """The grid a quasienergy of a truncated Fourier solution of order n starts on."""
    return min(2048, max(64, 2 ** math.ceil(math.log2(8 * (n + 1)))))


def _record_chi_samples(monkeypatch):
    """(rows, m) of every grid request of quasienergy._settle, in order."""
    requests = []
    real = quasienergy._chi_samples

    def chi_samples(grid, rows, m, field, flip):
        requests.append((list(rows), m))
        return real(grid, rows, m, field, flip)

    monkeypatch.setattr(quasienergy, "_chi_samples", chi_samples)
    return requests


@pytest.mark.parametrize("method, G", [("fourier", 0.0), ("ode", 0.3)])
def test_grid_requests_hold_at_most_sixteen_grids_of_2048(monkeypatch, method, G):
    # with the settle threshold at 0 no row settles, so every row doubles
    # its grid from its own start up to the cap together with the others
    requests = _record_chi_samples(monkeypatch)
    monkeypatch.setattr(quasienergy, "_A0_SETTLE", 0.0)
    monkeypatch.setattr(quasienergy, "_MAX_GRID", 16384)
    omegas = [float(w) for w in np.linspace(0.5, 2.0, 16)]
    rows = sweep_rows(DriveParams(1.0, 0.5, G, 1.0), omegas, method)
    assert all(isinstance(r, SeriesInstabilityError) for r in rows)
    assert all("unsettled on 16384 samples" in str(r) for r in rows)
    if method == "fourier":
        starts = [_fourier_start(fourier_rpl.solve_auto(rpl(1.0, 0.5, w)).N) for w in omegas]
        assert max(starts) < 2048
    else:
        starts = [2048] * len(omegas)
    for k, start in enumerate(starts):  # one block: row k is omegas[k]
        grids = [m for ks, m in requests if k in ks]
        assert grids[0] == start and grids[-1] == 16384
        assert all(b == 2 * a for a, b in zip(grids, grids[1:]))  # each row once per grid
    assert all(len(ks) <= max(1, 16 * 2048 // m) for ks, m in requests)


def test_mixed_orders_in_a_block_start_on_their_own_grids(monkeypatch):
    # one block of truncations of orders 3 to 300: each row starts on the grid
    # its own order gives and equals its orbit averaged alone, bit for bit
    orders = [3, 12, 20, 40, 100, 300]
    omegas = [2.0, 1.5, 1.0, 0.7, 0.4, 0.3]
    sols = [
        fourier_rpl.solve_coefficients(fourier_rpl.build_system(rpl(1.0, 0.5, w), n))
        for n, w in zip(orders, omegas)
    ]
    field = quasienergy._field(rpl(1.0, 0.5, 1.0))
    requests = _record_chi_samples(monkeypatch)
    eps, eps_d, errors = quasienergy._quasienergies(sols, field, omegas, half=True)
    firsts = [min(m for ks, m in requests if k in ks) for k in range(len(sols))]
    assert firsts == [64, 128, 256, 512, 1024, 2048] == [_fourier_start(n) for n in orders]
    assert not errors
    for k, (sol, w) in enumerate(zip(sols, omegas)):
        alone = quasienergy._quasienergies([sol], field, [w], half=True)
        assert (eps[k], eps_d[k], {}) == (alone[0][0], alone[1][0], alone[2])
    # one start rule, the smallest power of two >= 16 w for a row of width w = N // 2 + 1,
    # clamped to [64, 2048], is the rule 8 (N + 1) of every order
    orders = range(2, 405)
    sols = [fourier_rpl.solve_coefficients(fourier_rpl.build_system(rpl(1.0, 0.5, 0.7), n))
            for n in orders]
    assert quasienergy._grids(sols, half=True)[1] == [_fourier_start(n) for n in orders]
    # an ODE block of F = 20 points on S = 2048, 4096 and 8192 Magnus steps: every row,
    # of width S/4 + 1, starts on 2048
    omegas = [0.5, 0.1, 0.05]
    block = bloch_dynamics._orbit_block(1.0, 20.0, 0.0, omegas, 1e-12)
    assert (2 * block.N).tolist() == [2048, 4096, 8192] and block.rows.tolist() == [0, 1, 2]
    assert quasienergy._grids(block, half=True)[1] == [2048] * 3
    requests.clear()
    quasienergy._quasienergies(block, quasienergy._field(rpl(1.0, 20.0, 1.0)), omegas, half=True)
    assert [min(m for ks, m in requests if k in ks) for k in range(3)] == [2048] * 3


def test_rows_starting_on_2048_do_not_depend_on_the_smaller_starts(monkeypatch):
    # (1, 15): orders 356 and 236 at omega = 0.05 and 0.08 start on 2048 and
    # share a block with orders 28 to 60, which start on 256 and 512
    base = rpl(1.0, 15.0, 1.0)
    omegas = [0.05, 0.08, 0.5, 1.0, 2.0]
    orders = [fourier_rpl.solve_auto(rpl(1.0, 15.0, w)).N for w in omegas]
    assert orders[0] >= 255 and min(orders) < 127
    rows = sweep_rows(base, omegas, "fourier")
    monkeypatch.setattr(quasienergy, "_MIN_START", 2048)  # every row starts on 2048
    forced = sweep_rows(base, omegas, "fourier")
    for n, row, ref in zip(orders, rows, forced):
        if _fourier_start(n) == 2048:
            assert row == ref


def test_weak_sweep_rows_match_rows_started_on_2048(monkeypatch):
    # the weak fourier sweeps of the benchmark: rows that settle below 2048
    # samples move by roundoff only, on the same branch
    omegas = [float(w) for w in np.linspace(0.25, 2.2, 80)]
    for F in (0.3, 1.0, 1.8):
        base = rpl(1.0, F, 1.0)
        monkeypatch.setattr(quasienergy, "_MIN_START", 64)
        rows = sweep_branches(base, omegas, method="fourier")
        monkeypatch.setattr(quasienergy, "_MIN_START", 2048)
        forced = sweep_branches(base, omegas, method="fourier")
        assert rows != forced  # some rows did settle below 2048
        for row, ref in zip(rows, forced):
            assert row.branch == ref.branch
            for name in ("epsilon", "epsilon_mod", "eps_g", "eps_d"):
                v, r = getattr(row, name), getattr(ref, name)
                assert abs(v - r) <= 1e-13 * max(1.0, abs(r))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_solution_fails_its_own_row_without_a_warning():
    # F = 0 at omega = omega0: every coefficient vanishes and R = 0
    with pytest.raises(DomainError, match="zero solution"):
        quasienergy_at(rpl(1.0, 0.0, 1.0), method="fourier")
    failed = []
    omegas = [float(w) for w in np.linspace(1.0, 3.0, 21)]
    points = sweep_branches(rpl(1.0, 0.0, 1.0), omegas, method="fourier",
                            on_error=lambda w, exc: failed.append((w, type(exc))))
    assert failed == [(1.0, DomainError)]
    assert all(abs(p.epsilon_mod - 0.5) < 1e-15 for p in points[1:])


def test_sweep_rejects_unknown_method_once():
    errors = []
    with pytest.raises(DomainError, match="unknown method 'bogus'"):
        sweep_branches(rpl(1.0, 0.5, 1.0), [0.5, 1.0, 1.5], method="bogus",
                       on_error=lambda w, exc: errors.append(w))
    assert errors == []


def test_continuation_warns_on_large_jump():
    from floquet_tls.errors import ContinuityWarning
    from floquet_tls.quasienergy import continue_branch

    prev = QuasienergyResult.from_raw(0.875, 0.4, omega=1.0, method="ode")
    point = QuasienergyResult.from_raw(0.5, 0.2, omega=1.0, method="ode")
    with pytest.warns(ContinuityWarning):
        continue_branch(point, prev)


def test_elliptic_drive_gradients():
    # the G-derivative identity checked on a genuinely elliptic drive
    from floquet_tls.bloch_dynamics import periodic_orbit

    p = DriveParams(1.0, 0.8, 0.3, 1.9)
    res = quasienergy_at(p, method="ode")
    orbit = periodic_orbit(p)
    delta = 1e-4

    def eps(pp):
        return quasienergy_at(pp, method="ode").epsilon

    fd_g = (
        eps(DriveParams(1.0, 0.8, 0.3 + delta, 1.9))
        - eps(DriveParams(1.0, 0.8, 0.3 - delta, 1.9))
    ) / (2 * delta)
    assert abs(fd_g - grad_g(orbit, p)) < 1e-6
    grads = {
        "omega0": grad_omega0(orbit, p),
        "F": grad_f(orbit, p),
        "G": grad_g(orbit, p),
        "omega": grad_omega(res),
    }
    assert euler_residual(p, grads, res.epsilon) < 1e-6
    assert abs(res.epsilon - res.eps_g - res.eps_d) < 1e-8


class _GridRecorder:
    """Orbit wrapper recording the size of every grid it is sampled on through ``sample``;
    calls at other times, such as the refinement of a winding, are not recorded."""

    def __init__(self, orbit, grids=None):
        self.orbit = orbit
        self.grids = [] if grids is None else grids
        if hasattr(orbit, "sample"):
            self.sample = self._sample

    def _sample(self, m):
        self.grids.append(m)
        return self.orbit.sample(m)

    def __call__(self, t):
        return self.orbit(t)


@pytest.mark.parametrize("route", ["fourier", "ode"])
def test_settled_orbit_is_sampled_once(route):
    p = rpl(1.0, 0.8, 1.7)
    if route == "fourier":
        orbit = fourier_rpl.solve_auto(p).normalized()
    else:
        orbit = periodic_orbit(p)
    rec = _GridRecorder(orbit)
    quasienergy_classical(rec, p, method=route)
    assert rec.grids == [2048]
    assert hasattr(rec, "sample")


def test_unsettled_orbit_doubles_without_resampling():
    # a strong-drive orbit passing 1.7e-5 R from the south pole: its first
    # grid chooses the +z section, where a0 settles only on a grid finer
    # than 2048
    p = rpl(1.0, 15.0, 0.05)
    rec = _GridRecorder(fourier_rpl.solve_auto(p).normalized())
    quasienergy_classical(rec, p, method="fourier")
    grids = rec.grids
    assert len(grids) >= 2 and grids[0] == 2048
    assert all(b == 2 * a for a, b in zip(grids, grids[1:]))  # strictly doubling, each once
    assert grids[-1] < 65536


def test_unsettled_at_grid_cap_raises(monkeypatch):
    # the (1, 15, 0.05) orbit settles on the +z section only on 32768 samples
    monkeypatch.setattr(quasienergy, "_MAX_GRID", 4096)
    p = rpl(1.0, 15.0, 0.05)
    orbit = fourier_rpl.solve_auto(p).normalized()
    with pytest.raises(SeriesInstabilityError, match="unsettled on 4096 samples"):
        quasienergy_classical(orbit, p, method="fourier")


@pytest.mark.parametrize("F, omega", [(20.0, 0.05), (15.0, 0.05), (7.0, 0.0875)])
def test_strong_drive_fourier_matches_su2_eigenphase(F, omega):
    # once wrong by 4.4e-3, 2.8e-5 and 1.1e-5: an unconverged truncation
    # and two orbits passing within 2e-5 R of the south pole
    p = rpl(1.0, F, omega)
    eps = quasienergy_at(p, method="fourier").epsilon_mod
    ref = quasienergy_from_monodromy(monodromy_su2(p, tol=1e-13), p.T)
    d = [(eps - sign * ref) % omega for sign in (1, -1)]
    assert min(min(v, omega - v) for v in d) <= 1e-10


def _south_pole_orbit(p):
    big = math.hypot(p.F, p.omega0 - p.omega)

    def orbit(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (3,))
        out[..., 0] = p.F * np.cos(p.omega * t) / big
        out[..., 1] = p.F * np.sin(p.omega * t) / big
        out[..., 2] = (p.omega0 - p.omega) / big
        return out

    return orbit


@pytest.mark.parametrize("kind", ["rpc", "fourier", "ode", "south_pole"])
def test_quasienergy_classical_matches_series_and_split(kind):
    if kind == "rpc":
        p = rpc(omega0=1.0, F=0.7, omega=1.4)
        orbit = rpc_trajectory(p, +1)
    elif kind == "fourier":
        p = rpl(1.0, 0.8, 1.7)
        orbit = fourier_rpl.solve_auto(p).normalized()
    elif kind == "ode":
        p = DriveParams(1.0, 0.5, 0.3, 1.3)
        orbit = periodic_orbit(p)
    else:
        p = rpc(omega0=1.0, F=1e-3, omega=3.0)
        orbit = _south_pole_orbit(p)
    res = quasienergy_classical(orbit, p)
    sign = 1.0
    if kind == "south_pole":
        # the reference routes keep the -z section: hand them -X(t), whose
        # mean is that of the +z section of X, negated; the branch is
        # held by test_south_pole_flip
        sign, orbit = -1.0, (lambda t, o=orbit: -o(t))
        d = (res.epsilon + chi_series(orbit, p).a0) % p.omega
        assert min(d, p.omega - d) <= 1e-12
    else:
        assert abs(res.epsilon - chi_series(orbit, p).a0) <= 1e-12
    assert abs(res.eps_d - sign * split_geometric_dynamic(orbit, p)[1]) <= 1e-14


def test_sample_folds_onto_any_grid():
    for p, n_trunc, grids in (
        (rpl(1.0, 0.8, 1.7), 20, (1, 2, 3, 255, 40, 41)),
        (rpl(1.0, 1.2, 0.9), 21, (1, 2, 3, 255, 42, 43)),
        (rpl(1.0, 20.0, 0.05), 404, (256,)),  # harmonics 128, 384, ... on bin m/2
    ):
        sol = fourier_rpl.solve_coefficients(fourier_rpl.build_system(p, n_trunc)).normalized()
        assert sol.N == n_trunc
        for m in grids:
            got = sol.sample(m)
            assert got.shape == (m, 3)
            assert np.abs(got - sol.evaluate(np.arange(m) * (p.T / m))).max() <= 1e-12
