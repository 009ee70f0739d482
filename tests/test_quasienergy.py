"""Orbit -> Floquet-state reconstruction, splits, gradients, sweeps."""

import math

import dop853
import numpy as np
import pytest

from floquet_tls import bloch_dynamics, fourier_rpl
from floquet_tls import quasienergy
from floquet_tls.bloch_dynamics import (
    DriveParams,
    monodromy_su2,
    periodic_orbit,
    quasienergy_from_monodromy,
)
from floquet_tls.errors import DomainError, SeriesInstabilityError, SouthPoleError
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
    return fourier_rpl.solve_auto(params, "phi1", start=n_trunc).normalized().evaluate


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
    sol = fourier_rpl.solve_auto(p, "phi1").normalized()
    res = quasienergy_classical(sol, p, method="fourier")
    # (1, 15, 0.05) passes 1.7e-5 R from the pole; its branch was once -97
    assert quasienergy_at(rpl(1.0, 15.0, 0.05), method="fourier").branch == -92
    monkeypatch.setattr(quasienergy, "_SOUTH_POLE_MARGIN", 0.0)
    assert abs(res.epsilon - chi_series(sol, p).a0) <= 1e-10


def test_turns_refines_until_steps_are_below_quarter_turn(monkeypatch):
    p = rpc(omega0=1.0, F=1e-3, omega=3.0)
    orbit = _south_pole_orbit(p)
    grid = quasienergy._grids([orbit], p.T)  # row 0 of a block of one
    ts = np.arange(4) * (p.T / 4)
    coarse = orbit(ts).T  # states (3, m), steps of exactly pi/2
    assert quasienergy._turns(grid, 0, coarse) == 1

    def reverse(t):
        return orbit(-np.asarray(t))

    assert quasienergy._turns(quasienergy._grids([reverse], p.T), 0, reverse(ts).T) == -1
    monkeypatch.setattr(quasienergy, "_MAX_GRID", 4)
    with pytest.raises(SeriesInstabilityError, match="unresolved on 4 samples"):
        quasienergy._turns(grid, 0, coarse)


@pytest.mark.parametrize("method, omega", [("fourier", 0.05), ("ode", 2.2)])
def test_half_period_winding_is_the_whole_period_winding(method, omega):
    # +z rows: (1, 15, 0.05) passes 1.7e-5 R from the south pole, (1, 7, 2.2) 1.3e-5 R
    F = 15.0 if method == "fourier" else 7.0
    p = rpl(1.0, F, omega)
    orbit = fourier_rpl.solve_auto(p, "phi1") if method == "fourier" else periodic_orbit(p)
    whole, half = quasienergy._grids([orbit], p.T), quasienergy._grids([orbit], p.T, half=True)
    for m in (256, 2048):
        xs = half([0], m)[0]
        assert xs.shape == (3, m // 2)
        turns = quasienergy._turns(half, 0, xs, half=True)
        assert turns % 2 == 1 and abs(turns) > 1
        assert turns == quasienergy._turns(whole, 0, whole([0], m)[0])


@pytest.mark.parametrize("omega", [0.5, 0.756, 1.333, 2.038])
def test_strong_drive_half_period_averages_match_dop853(omega):
    # (1, 20): the ODE route, and the Fourier route once its tail is below
    # 1e-13, against the DOP853 eigenphase mod omega (either family)
    p = rpl(1.0, 20.0, omega)
    ref = quasienergy_from_monodromy(dop853.monodromy_su2(p, 3e-14), p.T)
    sol = fourier_rpl.solve_auto(p, "phi1", coeff_tol=1e-13)
    for res in (quasienergy_classical(sol, p, method="fourier"), quasienergy_at(p, method="ode")):
        d = [(res.epsilon_mod - sign * ref) % omega for sign in (1, -1)]
        assert min(min(v, omega - v) for v in d) <= 1e-12


def test_ode_orbit_near_south_pole_uses_batch_grid(monkeypatch):
    # the ODE orbit at (1, 7, 2.2) passes 1.3e-5 R from the south pole
    p = rpl(1.0, 7.0, 2.2)
    orbit = periodic_orbit(p)

    def dense_output(self, t):
        raise AssertionError("dense output called")

    monkeypatch.setattr(bloch_dynamics.Trajectory, "__call__", dense_output)
    with pytest.raises(SouthPoleError):
        chi_series(orbit, p)
    res = quasienergy_classical(orbit, p, method="ode")
    assert abs(res.epsilon - quasienergy_at(p, method="fourier").epsilon) <= 1e-9


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
    orbit = fourier_rpl.solve_auto(p, "phi1").normalized()
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


@pytest.mark.parametrize(
    "F, G, sweep, method",
    [
        (0.3, 0.0, (0.25, 2.2, 80), "fourier"),
        (1.0, 0.0, (0.25, 2.2, 80), "fourier"),
        (1.8, 0.0, (0.25, 2.2, 80), "fourier"),
        (15.0, 0.0, (0.05, 0.08, 2), "fourier"),  # near-pole and unsettled rows
        (0.5, 0.3, (0.4, 2.0, 20), "ode"),  # two blocks
    ],
)
def test_sweep_blocks_match_per_point_results(F, G, sweep, method):
    base = DriveParams(1.0, F, G, 1.0)
    omegas = [float(w) for w in np.linspace(*sweep)]
    rows = list(quasienergy._sweep_points(base, omegas, method, 20, 1e-12))
    for omega, row in zip(omegas, rows):
        # before continuation a row is its point alone, bit for bit
        assert row == quasienergy_at(DriveParams(1.0, F, G, omega), method=method)
    prev = None
    for row, point in zip(rows, sweep_branches(base, omegas, method=method)):
        prev = row if prev is None else quasienergy.continue_branch(row, prev)
        assert point == prev
    if method == "fourier":
        # one point fewer moves every row to another place in its block
        moved = quasienergy._sweep_points(base, omegas[1:], method, 20, 1e-12)
        assert rows[1:] == list(moved)


def test_unsettled_sweep_row_samples_each_grid_once(monkeypatch):
    # both rows settle only on grids finer than 2048; the row at 0.05 passes
    # 1.7e-5 R from the south pole and is averaged on the +z section
    # sweep rows are sampled on half a period; m counts samples per period
    requests = []  # (omegas of the rows, m) of every Fourier grid request
    real = fourier_rpl.sample_half_grid

    def sample_half_grid(sols, m):
        requests.append(([sol.params.omega for sol in sols], m))
        return real(sols, m)

    monkeypatch.setattr(fourier_rpl, "sample_half_grid", sample_half_grid)
    base = rpl(1.0, 15.0, 1.0)
    rows = list(quasienergy._sweep_points(base, [0.05, 0.08], "fourier", 20, 1e-12))
    assert rows[0].branch == -92
    for w in (0.05, 0.08):
        grids = [m for ws, m in requests for v in ws if v == w]
        assert len(grids) >= 2 and grids[0] == 2048 and grids[-1] < 65536
        assert all(b == 2 * a for a, b in zip(grids, grids[1:]))  # strictly doubling, each once


@pytest.mark.parametrize("method, G", [("fourier", 0.0), ("ode", 0.3)])
def test_grid_requests_hold_at_most_sixteen_grids_of_2048(monkeypatch, method, G):
    # with the settle threshold at 0 no row settles, so every row doubles
    # its grid up to the cap together with the others
    requests = []
    real = quasienergy._chi_samples

    def chi_samples(grid, rows, m, field, flip):
        requests.append((len(rows), m))
        return real(grid, rows, m, field, flip)

    monkeypatch.setattr(quasienergy, "_chi_samples", chi_samples)
    monkeypatch.setattr(quasienergy, "_A0_SETTLE", 0.0)
    monkeypatch.setattr(quasienergy, "_MAX_GRID", 16384)
    omegas = [float(w) for w in np.linspace(0.5, 2.0, 16)]
    rows = list(quasienergy._sweep_points(DriveParams(1.0, 0.5, G, 1.0), omegas, method, 20, 1e-12))
    assert all(isinstance(r, SeriesInstabilityError) for r in rows)
    assert all("unsettled on 16384 samples" in str(r) for r in rows)
    for m in (2048, 4096, 8192, 16384):
        sizes = [n for n, mm in requests if mm == m]
        assert sum(sizes) == 16  # each row once per grid
        assert max(sizes) <= max(1, 16 * 2048 // m)
    assert {m for _, m in requests} == {2048, 4096, 8192, 16384}


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
    """Orbit wrapper recording the size of every grid it is sampled on."""

    def __init__(self, orbit, grids=None):
        self.orbit = orbit
        self.grids = [] if grids is None else grids
        if hasattr(orbit, "sample"):
            self.sample = self._sample

    def _sample(self, m):
        self.grids.append(m)
        return self.orbit.sample(m)

    def __call__(self, t):
        self.grids.append(np.size(t))
        return self.orbit(t)


@pytest.mark.parametrize("route", ["fourier", "ode"])
def test_settled_orbit_is_sampled_once(route):
    p = rpl(1.0, 0.8, 1.7)
    if route == "fourier":
        orbit = fourier_rpl.solve_auto(p, "phi1").normalized()
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
    rec = _GridRecorder(fourier_rpl.solve_auto(p, "phi1").normalized())
    quasienergy_classical(rec, p, method="fourier")
    grids = rec.grids
    assert len(grids) >= 2 and grids[0] == 2048
    assert all(b == 2 * a for a, b in zip(grids, grids[1:]))  # strictly doubling, each once
    assert grids[-1] < 65536


def test_unsettled_at_grid_cap_raises(monkeypatch):
    # the (1, 15, 0.05) orbit settles on the +z section only on 32768 samples
    monkeypatch.setattr(quasienergy, "_MAX_GRID", 4096)
    p = rpl(1.0, 15.0, 0.05)
    orbit = fourier_rpl.solve_auto(p, "phi1").normalized()
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
        orbit = fourier_rpl.solve_auto(p, "phi1").normalized()
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
        sol = fourier_rpl.solve_coefficients(fourier_rpl.build_system(p, n_trunc), "phi1").normalized()
        assert sol.N == n_trunc
        for m in grids:
            got = sol.sample(m)
            assert got.shape == (m, 3)
            assert np.abs(got - sol.evaluate(np.arange(m) * (p.T / m))).max() <= 1e-12
