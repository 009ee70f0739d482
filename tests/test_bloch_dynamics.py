"""Time-domain route: integration, monodromies, eigenphases."""

import math
import warnings

import dop853
import numpy as np
import pytest

from floquet_tls import bloch_dynamics
from floquet_tls.bloch_dynamics import (
    BATCH_SIZE,
    MIN_STEPS,
    TOL_MIN,
    DriveParams,
    adjoint_rotation,
    evolve_classical,
    field_at,
    monodromy_so3,
    monodromy_su2,
    periodic_initial_state,
    periodic_orbit,
    periodic_orbits,
    quasienergy_from_monodromy,
    so3_angle,
)
from floquet_tls.errors import DegenerateMonodromyError, DomainError, IntegrationError
from floquet_tls.exact_models import rpc_trajectory
from floquet_tls.quasienergy import sweep_branches


def rpc_params(omega0=1.0, F=0.5, omega=1.0):
    return DriveParams(omega0=omega0, F=F, G=F, omega=omega)


def axis_angle_rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def test_field_at_examples():
    p = DriveParams(1.0, 0.5, 0.0, 1.0)
    assert np.allclose(field_at(p, 0.0), [0.5, 0.0, 1.0])
    assert np.allclose(field_at(p, math.pi / 2), [0.0, 0.0, 1.0], atol=1e-15)
    p = DriveParams(1.0, 2.0, 2.0, 3.0)
    assert np.allclose(field_at(p, math.pi / 6), [0.0, 2.0, 1.0], atol=1e-14)


def test_drive_params_validation():
    with pytest.raises(DomainError):
        DriveParams(1.0, 0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        DriveParams(1.0, -0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        DriveParams(float("nan"), 0.5, 0.0, 1.0)


def test_tolerance_domain():
    p = DriveParams(1.0, 0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        evolve_classical(p, [0, 0, 1], 0.0, 1.0, tol=1e-3)


def test_orbit_tolerance_range_is_fixed():
    # every integration takes [TOL_MIN, 1e-6], whatever the batch size
    p = DriveParams(1.0, 0.5, 0.3, 1.0)
    assert TOL_MIN == 5e-14
    integrations = (
        lambda tol: evolve_classical(p, [0.0, 0.0, 1.0], 0.0, p.T, tol),
        lambda tol: evolve_classical(p, [0.0, 0.0, 1.0], 1.0, 1.0, tol),
        lambda tol: monodromy_so3(p, tol),
        lambda tol: monodromy_su2(p, tol),
        lambda tol: periodic_orbit(p, tol),
        lambda tol: periodic_orbits(1.0, 0.5, 0.3, [1.0], tol),
    )
    for integrate in integrations:
        for tol in (0.99 * TOL_MIN, 1.01e-6):
            with pytest.raises(DomainError, match=r"tolerance must lie in \[5e-14, 1e-6\]"):
                integrate(tol)
        integrate(TOL_MIN)
        integrate(1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbits = list(periodic_orbits(1.0, 0.5, 0.3, np.linspace(0.5, 2.0, BATCH_SIZE), TOL_MIN))
    assert len(orbits) == BATCH_SIZE


def test_larmor_precession():
    p = DriveParams(omega0=1.3, F=0.0, G=0.0, omega=2.0)
    traj = evolve_classical(p, [1.0, 0.0, 0.0], 0.0, p.T)
    th = p.omega0 * p.T
    assert np.allclose(traj(p.T), [math.cos(th), math.sin(th), 0.0], atol=1e-10)


def test_rpc_orbit_matches_closed_form():
    p = rpc_params(omega0=1.0, F=1.0, omega=1.3)
    x0 = np.array([p.F, 0.0, p.omega0 - p.omega])
    traj = evolve_classical(p, x0, 0.0, p.T)
    ts = np.linspace(0.0, p.T, 50)
    ref = np.stack(
        [p.F * np.cos(p.omega * ts), p.F * np.sin(p.omega * ts),
         np.full_like(ts, p.omega0 - p.omega)],
        axis=-1,
    )
    assert np.abs(traj(ts) - ref).max() < 1e-8


def test_norm_conservation_long_run():
    p = DriveParams(1.0, 2.0, 0.7, 1.3)
    traj = evolve_classical(p, [0.6, 0.0, 0.8], 0.0, 10 * p.T)
    norms = np.linalg.norm(traj(np.linspace(0.0, 10 * p.T, 400)), axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_monodromy_so3_static_field():
    p = DriveParams(omega0=0.9, F=0.0, G=0.0, omega=1.1)
    m = monodromy_so3(p)
    assert np.allclose(m, axis_angle_rotation([0, 0, 1], p.omega0 * p.T), atol=1e-10)


def test_monodromy_so3_group_membership():
    p = DriveParams(1.0, 1.7, 0.4, 0.9)
    m = monodromy_so3(p)
    assert np.abs(m @ m.T - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(m) - 1.0) < 1e-9


def test_rpc_eigenangle_is_rabi_angle():
    # Omega = 1 at these parameters; the eigenangle folds Omega T mod 2 pi
    p = rpc_params(omega0=1.0, F=1.0, omega=1.0)
    rho = so3_angle(monodromy_so3(p))
    assert abs(rho - 0.0) < 1e-9  # Omega T = 2 pi folds to zero
    p = rpc_params(omega0=1.0, F=1.0, omega=1.4)
    big_omega = math.hypot(p.F, p.omega0 - p.omega)
    folded = (big_omega * p.T) % (2 * math.pi)
    folded = min(folded, 2 * math.pi - folded)
    assert abs(so3_angle(monodromy_so3(p)) - folded) < 1e-9


def test_su2_static_field():
    p = DriveParams(omega0=1.3, F=0.0, G=0.0, omega=1.0)
    u = monodromy_su2(p)
    expect = np.diag(
        [np.exp(-0.5j * p.omega0 * p.T), np.exp(0.5j * p.omega0 * p.T)]
    )
    assert np.abs(u - expect).max() < 1e-10


def test_su2_unitarity_and_rpc_phase():
    p = rpc_params(omega0=1.0, F=0.5, omega=1.0)
    u = monodromy_su2(p)
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-9
    eps = quasienergy_from_monodromy(u, p.T)
    # eps_pm = (omega +- Omega)/2 = 0.75, 0.25; representative in [0, w/2]
    assert abs(eps - 0.25) < 1e-10


def test_su2_so3_eigenphase_relation():
    p = DriveParams(1.0, 0.8, 0.3, 1.7)
    rho = so3_angle(monodromy_so3(p))
    theta = quasienergy_from_monodromy(monodromy_su2(p), p.T) * p.T
    diff = (rho - 2.0 * theta) % (2 * math.pi)
    assert min(diff, 2 * math.pi - diff) < 1e-8


def test_adjoint_consistency():
    p = DriveParams(1.0, 0.8, 0.3, 1.7)
    assert np.abs(adjoint_rotation(monodromy_su2(p)) - monodromy_so3(p)).max() < 1e-7


def test_periodic_initial_state_identity_degenerate():
    with pytest.raises(DegenerateMonodromyError):
        periodic_initial_state(np.eye(3))


def test_periodic_initial_state_zero_static_family():
    # omega0 = 0 linear drive: the one-period rotation is the identity
    p = DriveParams(omega0=0.0, F=1.0, G=0.0, omega=1.0)
    with pytest.raises(DegenerateMonodromyError):
        periodic_initial_state(monodromy_so3(p))


def test_periodic_initial_state_recovers_rotation_axis():
    rng = np.random.default_rng(3)
    for _ in range(25):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(0.2, 2.9))
        got = periodic_initial_state(axis_angle_rotation(axis, angle))
        if axis[2] < 0:
            axis = -axis
        assert np.abs(got - axis).max() < 1e-9
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_periodic_initial_state_rpc():
    p = rpc_params(omega0=1.0, F=0.5, omega=0.6)
    got = periodic_initial_state(monodromy_so3(p))
    expect = np.array([p.F, 0.0, p.omega0 - p.omega])
    expect /= np.linalg.norm(expect)
    assert np.abs(got - expect).max() < 1e-8


def test_periodicity_of_periodic_orbit():
    p = DriveParams(1.0, 0.7, 0.2, 1.9)
    traj = periodic_orbit(p)
    assert np.abs(traj(0.0) - traj(p.T)).max() < 1e-7


def test_quasienergy_identity_monodromy():
    assert quasienergy_from_monodromy(np.eye(2, dtype=complex), 2 * math.pi) == 0.0
    assert quasienergy_from_monodromy(np.eye(3), 2 * math.pi) == 0.0


def test_quasienergy_t0_invariance():
    p = DriveParams(1.0, 0.8, 0.3, 1.7)
    e0 = quasienergy_from_monodromy(monodromy_su2(p, t0=0.0), p.T)
    e1 = quasienergy_from_monodromy(monodromy_su2(p, t0=0.73), p.T)
    assert abs(e0 - e1) < 1e-9


@pytest.mark.parametrize("F, G, omega, t0", [(3.0, 1.0, 0.3, 0.9), (5.0, 1.5, 0.5, 0.4)])
def test_elliptic_monodromy_su2_matches_dop853(F, G, omega, t0):
    # a one-period error estimate, not a per-step tolerance: DOP853 at the
    # default 1e-12 is 1.4e-12 and 1.6e-12 off at these points
    p = DriveParams(1.0, F, G, omega)
    ref = dop853.monodromy_su2(p, 3e-14, t0)
    assert np.abs(monodromy_su2(p, t0=t0) - ref).max() < 1e-12
    assert np.abs(monodromy_so3(p, t0=t0) - adjoint_rotation(ref)).max() < 1e-12


def test_evolve_classical_matches_dop853():
    rng = np.random.default_rng(11)
    for periods in (3.0, 6.5, -4.0, 0.0):
        p = DriveParams(1.0, float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.0, 0.3)),
                        float(rng.uniform(0.5, 2.0)))
        x0 = rng.normal(size=3)
        x0 /= np.linalg.norm(x0)
        t0 = float(rng.uniform(-2.0, 2.0))
        t1 = t0 + periods * p.T
        traj = evolve_classical(p, x0, t0, t1)
        ts = np.linspace(t0, t1, 301)
        if periods:
            ref = dop853.evolve_classical(p, x0, t0, t1, 3e-14)(ts)
        else:
            ref = np.tile(x0, (len(ts), 1))
        assert np.abs(traj(ts) - ref).max() < 2e-12
        assert np.array_equal(traj(t0), x0)


def test_monodromy_step_cap_raises(monkeypatch):
    # F/omega = 80: 2048 steps leave an estimate of 2.1e-12 above 1e-12
    monkeypatch.setattr(bloch_dynamics, "MAX_STEPS", MIN_STEPS)
    p = DriveParams(1.0, 7.0, 0.0, 0.0875)
    with pytest.raises(IntegrationError, match="above tol 1e-12 at S = 2048 Magnus steps"):
        monodromy_so3(p)
    monodromy_so3(p, tol=1e-11)


def test_quasienergy_from_monodromy_shape_check():
    with pytest.raises(DomainError):
        quasienergy_from_monodromy(np.eye(4), 1.0)


@pytest.mark.parametrize(
    "F, G, grid",
    [
        (0.5, 0.0, np.linspace(1.35, 2.5, 5)),
        (0.5, 0.3, np.linspace(0.4, 2.0, BATCH_SIZE + 2)),  # crosses a batch boundary
        (0.5, 0.5, np.linspace(0.6, 1.8, 5)),
    ],
)
def test_periodic_orbits_match_single_point_integration(F, G, grid):
    orbits = list(periodic_orbits(1.0, F, G, grid))
    assert len(orbits) == len(grid)
    for omega, orbit in zip(grid, orbits):
        p = DriveParams(1.0, F, G, float(omega))
        x0 = periodic_initial_state(dop853.monodromy_so3(p, 1e-13))
        ref = dop853.evolve_classical(p, x0, 0.0, p.T, 1e-13)
        ts = np.linspace(0.0, p.T, 101)
        assert orbit.period == p.T
        assert np.abs(orbit(ts) - ref(ts)).max() < 1e-10


def test_batched_orbits_are_no_less_accurate_than_lone_ones():
    # the step count of a batch meets every member's error estimate, so the
    # points that set it (the lowest omegas) are no worse off than alone
    grid = np.linspace(0.3, 2.0, BATCH_SIZE)
    orbits = list(periodic_orbits(1.0, 0.5, 0.3, grid))
    for omega, orbit in zip(grid[:4], orbits):
        p = DriveParams(1.0, 0.5, 0.3, float(omega))
        x0 = periodic_initial_state(dop853.monodromy_so3(p, 3e-14))
        ref = dop853.evolve_classical(p, x0, 0.0, p.T, 3e-14)
        ts = np.linspace(0.0, p.T, 101)
        lone = np.abs(periodic_orbit(p)(ts) - ref(ts)).max()
        assert np.abs(orbit(ts) - ref(ts)).max() <= lone


def test_lone_orbit_accuracy_gap():
    # the periodic_orbit docstring: a lone orbit passes the same error test
    # as the same point inside a batch, and both are 1.2e-15 off
    omega = 0.7368
    p = rpc_params(omega0=1.0, F=0.5, omega=omega)
    ts = np.linspace(0.0, p.T, 201)
    ref = rpc_trajectory(p)(ts)
    ref /= np.linalg.norm(ref, axis=-1, keepdims=True)
    grid = omega + 0.1 * np.arange(-4, 12)
    in_batch = list(periodic_orbits(1.0, 0.5, 0.5, grid))[4]
    assert np.abs(periodic_orbit(p)(ts) - ref).max() <= 1e-13
    assert np.abs(in_batch(ts) - ref).max() <= 1e-13


def test_no_integration_calls_solve_ivp(monkeypatch):
    # every integration is a Magnus product; bloch_dynamics.solve_ivp stays
    # only as a name the benchmark tracer probes
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    monkeypatch.setattr(bloch_dynamics, "solve_ivp", refuse)
    p = DriveParams(1.0, 0.5, 0.3, 1.0)
    grid = np.linspace(0.5, 2.0, BATCH_SIZE + 1)
    assert len(list(periodic_orbits(1.0, 0.5, 0.3, grid))) == BATCH_SIZE + 1
    periodic_orbit(p)
    monodromy_so3(p)
    monodromy_su2(p)
    evolve_classical(p, [0.0, 0.0, 1.0], 0.0, p.T)


def test_periodic_orbit_sample_matches_call():
    grid = np.linspace(0.5, 1.7, 3)
    orbits = list(periodic_orbits(1.0, 0.8, 0.3, grid))
    first = orbits[0].sample(1024).copy()  # evaluated directly
    for orbit in orbits:
        # 4096 replaces the cached grid, 1024 and 2048 stride it, 1000 does
        # not divide it
        for m in (1024, 4096, 2048, 1000):
            ts = np.arange(m) * (orbit.period / m)
            got = orbit.sample(m)
            assert got.shape == (m, 3)
            assert np.abs(got - orbit(ts)).max() < 1e-12
    # a power-of-two stride of the cached grid is bit-identical to a direct
    # evaluation, so results do not depend on which member sampled first
    assert np.array_equal(orbits[0].sample(1024), first)


def test_periodic_orbit_is_a_batch_of_one():
    p = DriveParams(1.0, 0.7, 0.2, 1.9)
    (member,) = periodic_orbits(p.omega0, p.F, p.G, [p.omega])
    ts = np.linspace(0.0, p.T, 50)
    assert np.array_equal(periodic_orbit(p)(ts), member(ts))


def test_periodic_orbits_report_failures_per_point(monkeypatch):
    # at omega = 0.01 the field is about 100 omega, and 2048 Magnus steps
    # leave an error estimate above 1e-12
    monkeypatch.setattr(bloch_dynamics, "MAX_STEPS", MIN_STEPS)
    grid = [0.6, 0.9, 0.01, -1.0, 1.5]
    orbits = list(periodic_orbits(1.0, 0.5, 0.3, grid))
    assert isinstance(orbits[2], IntegrationError)
    assert "above tol 1e-12 at S = 2048 Magnus steps" in str(orbits[2])
    assert isinstance(orbits[3], DomainError)  # omega must be positive
    for i in (0, 1, 4):
        p = DriveParams(1.0, 0.5, 0.3, grid[i])
        ts = np.linspace(0.0, p.T, 50)
        # the failed point leaves its neighbours as they are alone
        assert np.array_equal(orbits[i](ts), periodic_orbit(p)(ts))


def test_step_count_search_meets_the_tolerance():
    # F/omega = 80: 2048 steps leave an estimate of 2.1e-12, 4096 meet 1e-12
    p = DriveParams(1.0, 7.0, 0.0, 0.0875)
    orbit = periodic_orbit(p)
    assert orbit.batch.grid.shape[-1] == 2 * MIN_STEPS
    mono = dop853.monodromy_so3(p, 3e-14)
    x0 = orbit(0.0)
    assert np.abs(mono @ x0 - x0).max() < 1e-11


def test_elliptic_sweep_matches_su2_eigenphase():
    base = DriveParams(1.0, 0.8, 0.3, 1.0)
    grid = np.linspace(0.5, 2.2, 20)
    for omega, res in zip(grid, sweep_branches(base, grid, method="ode")):
        p = DriveParams(1.0, 0.8, 0.3, float(omega))
        eps = quasienergy_from_monodromy(dop853.monodromy_su2(p, 1e-12), p.T)
        dist = min(
            min(d, p.omega - d)
            for d in ((res.epsilon - eps) % p.omega, (res.epsilon + eps) % p.omega)
        )
        assert dist < 1e-9


def test_longest_products_keep_their_norm(monkeypatch):
    # the norm of a product of S steps drifts by about 1e-16 per step, 2e-12
    # at MAX_STEPS, unless the products are normalized
    monkeypatch.setattr(bloch_dynamics, "MIN_STEPS", bloch_dynamics.MAX_STEPS)
    grid = [0.6, 0.8]
    for omega, orbit in zip(grid, periodic_orbits(1.0, 0.5, 0.5, grid)):
        p = rpc_params(omega0=1.0, F=0.5, omega=omega)
        states = orbit.sample(bloch_dynamics.MAX_STEPS)
        assert np.abs(np.linalg.norm(states, axis=-1) - 1.0).max() < 1e-14
        ts = np.arange(0, bloch_dynamics.MAX_STEPS, 997) * (p.T / bloch_dynamics.MAX_STEPS)
        ref = rpc_trajectory(p)(ts)
        ref /= np.linalg.norm(ref, axis=-1, keepdims=True)
        assert np.abs(states[::997] - ref).max() < 1e-13


def test_strong_drive_sweep_matches_su2_eigenphase():
    # F/omega = 80 at the first point: its batch needs more than MIN_STEPS steps
    base = DriveParams(1.0, 7.0, 0.0, 1.0)
    grid = np.linspace(0.0875, 0.12, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sweep jumps branches further on
        res = sweep_branches(base, grid, method="ode")[0]
    p = DriveParams(1.0, 7.0, 0.0, float(grid[0]))
    eps = quasienergy_from_monodromy(dop853.monodromy_su2(p, 1e-13), p.T)
    dist = min(
        min(d, p.omega - d) for d in ((res.epsilon - eps) % p.omega, (res.epsilon + eps) % p.omega)
    )
    assert dist <= 1e-10
