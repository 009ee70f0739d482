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
from floquet_tls.quasienergy import quasienergy_at, sweep_branches


def adjoint_rotation(u):
    """Rotation transporting Bloch vectors under the SU(2) element u.

    Spin expectations of psi -> u psi transform with the matrix
    R_ij = 2 tr(s_i u s_j u*); this is the SO(3) propagator matching
    monodromy_so3 (the index order matters: the map with conjugation read
    the other way is its transpose).
    """
    u = np.asarray(u, dtype=complex)
    r = np.empty((3, 3))
    for j in range(3):
        m = u @ dop853._SPIN[j] @ u.conj().T
        for i in range(3):
            # tr(s_i s_k) = delta_ik / 2
            r[i, j] = 2.0 * np.trace(dop853._SPIN[i] @ m).real
    return r


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


def _inline_rule(axis):
    """The sign of periodic_initial_state before it called _orientation."""
    tie = 1e-9
    if axis[2] < -tie:
        return -1.0
    if abs(axis[2]) <= tie and (axis[0] < -tie or (abs(axis[0]) <= tie and axis[1] < 0)):
        return -1.0
    return 1.0


def _circular_rule(x0):
    """The signs of the circular closed form's x0 (3, P) before it called _orientation."""
    sign = np.ones(x0.shape[1])
    sign[x0[2] < -1e-9] = -1.0
    return sign


def test_orientation_matches_the_rules_it_replaces():
    # around the tie of 1e-9 |v|: z = +-2e-9, +-5e-10 and 0, x = +-1e-8, +-5e-10 and 0, y = +-1
    ends = (2e-9, -2e-9, 5e-10, -5e-10, 0.0)
    cases = np.array([(x, y, z) for z in ends for x in (1e-8, -1e-8) + ends[2:] for y in (1.0, -1.0)]).T
    rng = np.random.default_rng(7)
    cases = np.concatenate([cases, rng.normal(size=(3, 40))], axis=1)
    stack = bloch_dynamics._orientation(cases)
    assert stack.shape == (cases.shape[1],)
    for v, sign in zip(cases.T, stack):
        unit = v / np.linalg.norm(v)
        assert bloch_dynamics._orientation(v) == sign == _inline_rule(unit)
        for scale in (1e-3, 1e3):  # the tie scales with |v|
            assert bloch_dynamics._orientation(scale * v) == sign
    # the circular closed form's x0 = (F, 0, omega0 - omega) / |x0| has x > 0 and y = 0
    right = cases[:, cases[0] > 0] * [[1.0], [0.0], [1.0]]
    right = right / np.linalg.norm(right, axis=0)
    assert np.array_equal(bloch_dynamics._orientation(right), _circular_rule(right))
    assert set(stack) == {-1.0, 1.0}


def test_orientation_of_the_zero_vector_is_plus_one_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bloch_dynamics._orientation(np.zeros(3)) == 1.0
        assert np.array_equal(bloch_dynamics._orientation(np.zeros((3, 2))), [1.0, 1.0])


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


def test_evolve_classical_refuses_times_outside_its_span():
    # 3T over [0, T] was once answered by one partial Magnus step off the end
    p = DriveParams(1.0, 0.5, 0.3, 1.0)
    for t0, t1 in ((0.0, p.T), (p.T, 0.0), (1.0, 1.0)):
        traj = evolve_classical(p, [0.0, 0.0, 1.0], t0, t1)
        traj(np.linspace(t0, t1, 5))
        traj(max(t0, t1) * (1.0 + 1e-15))  # rounding at the end
        for t in (3.0 * p.T, min(t0, t1) - 1e-3, [t0, max(t0, t1) + 1e-3]):
            with pytest.raises(DomainError, match="outside the span"):
                traj(t)
    orbit = periodic_orbit(p)  # periodic orbits wrap s mod 2 pi
    assert np.abs(orbit(3.0 * p.T) - orbit(0.0)).max() < 1e-12


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


def test_half_sample_is_the_first_half_of_sample():
    orbits = list(periodic_orbits(1.0, 7.0, 0.0, [2.2, 2.3]))
    batch = orbits[0].orbits
    # 2048 strides the S/2 = 1024 step starts, 4096 and 6 do not
    assert 2 * batch.N[0] == 2048
    for orbit in orbits:
        for m in (2048, 4096, 6):
            half = batch.half_grid([orbit.index], m)[0]
            assert np.array_equal(half, orbit.sample(m)[: m // 2].T)
            ts = np.arange(m // 2) * (orbit.period / m)
            assert np.abs(half - orbit(ts).T).max() < 1e-12


def _one_fixed_point(m):
    """The fixed point of one rotation m (3, 3) as it was taken one matrix at a time,
    or the text of its DegenerateMonodromyError."""
    axis_sin = 0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    rho = math.atan2(np.linalg.norm(axis_sin), 0.5 * (np.trace(m) - 1.0))
    if rho < bloch_dynamics.DEGENERACY_ANGLE:
        return f"rotation angle {rho:.3e} below 1e-07; eigenvalue-1 space is not one-dimensional"
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    axis = v[:, np.argmax(w)]
    axis = axis / np.linalg.norm(axis)
    return axis * bloch_dynamics._orientation(axis)


def _seeded_rotations():
    """(3, 3, 640) rotations: 400 of random axes and angles, 16 identities, 32 half
    turns, 16 each at 1 - 1e-3, 1 - 1e-6, 1 + 1e-6 and 1 + 1e-3 times
    DEGENERACY_ANGLE, 64 at random angles below 3 DEGENERACY_ANGLE, and 64 built
    from random unit quaternions as a batch builds its half maps."""
    rng = np.random.default_rng(34)
    limit = bloch_dynamics.DEGENERACY_ANGLE
    angles = np.concatenate([
        rng.uniform(0.0, math.pi, 400),
        [0.0] * 16,
        [math.pi] * 32,
        limit * (1.0 + np.repeat([-1e-3, -1e-6, 1e-6, 1e-3], 16)),
        rng.uniform(0.0, 3.0 * limit, 64),
    ])
    axes = rng.normal(size=(len(angles), 3))
    mats = [axis_angle_rotation(a, t) for a, t in zip(axes, angles)]
    q = rng.normal(size=(4, 64))
    quats = (q[0] + 1j * q[3], q[2] - 1j * q[1])  # (a, b) of w + (x, y, z)
    built = bloch_dynamics._rotation_matrices(np.array(quats))
    return np.concatenate([np.stack(mats, axis=-1), built], axis=-1)


def test_batched_fixed_points_equal_the_one_matrix_formula():
    maps = _seeded_rotations()
    size = maps.shape[-1]
    assert size >= 500
    ref = [_one_fixed_point(maps[..., k]) for k in range(size)]
    failing = {k for k, r in enumerate(ref) if isinstance(r, str)}
    # the identities and the angles just below the limit fail, the half turns and
    # the angles just above it do not
    assert set(range(400, 416)) | set(range(448, 480)) <= failing
    assert not failing & (set(range(416, 448)) | set(range(480, 512)))
    # the degeneracy angles of a stack, one rotation at a time through so3_angle
    for k in range(size):
        m = maps[..., k]
        rho = math.atan2(
            np.linalg.norm(0.5 * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])),
            0.5 * (np.trace(m) - 1.0),
        )
        assert so3_angle(m) == rho
    # stacks of a batch's size, and one stack of all
    for lo, hi in [(i, i + BATCH_SIZE) for i in range(0, size, BATCH_SIZE)] + [(0, size)]:
        x0, errors = bloch_dynamics._fixed_points(maps[..., lo:hi])
        for k in range(lo, hi):
            if isinstance(ref[k], str):
                assert isinstance(errors[k - lo], DegenerateMonodromyError)
                assert str(errors[k - lo]) == ref[k]
                assert not x0[:, k - lo].any()
            else:
                assert errors[k - lo] is None
                assert x0[:, k - lo].tobytes() == ref[k].tobytes()
    for k in range(size):
        if isinstance(ref[k], str):
            with pytest.raises(DegenerateMonodromyError) as info:
                periodic_initial_state(maps[..., k])
            assert str(info.value) == ref[k]
        else:
            assert periodic_initial_state(maps[..., k]).tobytes() == ref[k].tobytes()


def test_batched_fixed_points_test_the_squares_first():
    # a member fails on the first stack that turns by less than the limit: the tested
    # squares, then the maps, each with its own angle in its text
    maps = _seeded_rotations()[..., :BATCH_SIZE]
    squares = np.einsum("ijk,jlk->ilk", maps, maps)
    squares[..., 3] = np.eye(3)
    maps[..., 5] = np.eye(3)
    x0, errors = bloch_dynamics._fixed_points(maps, squares)
    assert str(errors[3]) == _one_fixed_point(np.eye(3)) == str(errors[5])
    assert "rotation angle 0.000e+00 below 1e-07" in str(errors[3])
    tilted = axis_angle_rotation([1.0, 2.0, 3.0], 5e-8)
    squares[..., 7] = tilted
    x0, errors = bloch_dynamics._fixed_points(maps, squares)
    assert str(errors[7]) == _one_fixed_point(tilted)
    for k in set(range(BATCH_SIZE)) - {3, 5, 7}:
        assert errors[k] is None
        assert x0[:, k].tobytes() == _one_fixed_point(maps[..., k]).tobytes()


def _prefix_by_fix_up(q):
    """_prefix with the fix-ups of each level taken one step position at a time."""
    n = q.shape[-1]
    b = min(n, bloch_dynamics._BLOCK)
    view = q.reshape(q.shape[:-1] + (n // b, b))
    blocks = np.moveaxis(view, -1, 1).copy()
    for i in range(1, b):
        blocks[:, i] = bloch_dynamics._su2_mul(blocks[:, i], blocks[:, i - 1])
    if n > b:
        totals = _prefix_by_fix_up(blocks[:, -1].copy())
        for i in range(b - 1):
            blocks[:, i, ..., 1:] = bloch_dynamics._su2_mul(blocks[:, i, ..., 1:], totals[..., :-1])
        blocks[:, -1] = totals
    view[...] = np.moveaxis(blocks, 1, -1)
    return q


@pytest.mark.parametrize("size", [1, BATCH_SIZE])
@pytest.mark.parametrize("n", [1, 2, 16, 32, 512, 4096])
def test_prefix_equals_the_fix_up_loop(size, n):
    omegas = np.linspace(0.3, 2.5, size)
    coef = np.stack([1.5 / omegas, 0.7 / omegas, 1.0 / omegas])
    q = bloch_dynamics._steps(coef, 0.0, 0.5 * math.pi, n)
    want = _prefix_by_fix_up(q.copy())
    assert bloch_dynamics._prefix(q).tobytes() == want.tobytes()


def test_half_samples_equal_the_one_member_samples():
    omegas = [0.45, 0.9, 1.3, 1.75, 2.2]
    orbits = list(periodic_orbits(1.0, 1.5, 0.7, omegas))
    batch = orbits[0].orbits
    assert all(orbit.orbits is batch for orbit in orbits)
    members = [3, 0, 4]
    # each point alone: a batch of one, with its own step grid and rows
    alone = [periodic_orbit(DriveParams(1.0, 1.5, 0.7, w)).orbits for w in omegas]
    # 2048 and 1024 stride the S/2 = 1024 step starts; 4096, 1000 and 6 come from the rows
    for m in (2048, 1024, 4096, 1000, 6):
        got = batch.half_grid(members, m)
        assert got.shape == (len(members), 3, m // 2) and got.flags.c_contiguous
        for row, k in zip(got, members):
            assert row.tobytes() == alone[k].half_grid([0], m)[0].tobytes()
            assert row.tobytes() == batch.half_grid([k], m)[0].tobytes()


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
    # S per period: the grid holds the S/2 states of the half period
    assert 2 * orbit.orbits.N[orbit.index] == 2 * MIN_STEPS == 4096
    mono = dop853.monodromy_so3(p, 3e-14)
    x0 = orbit(0.0)
    assert np.abs(mono @ x0 - x0).max() < 1e-11


@pytest.mark.parametrize(
    "F, G, omega, bound",
    [
        (0.5, 0.0, 1.3, 1e-12),
        (0.8, 0.3, 1.1, 1e-12),
        (0.5, 0.5, 0.9, 1e-12),
        (7.0, 0.0, 0.0875, 5e-12),  # F/omega = 80: S = 4096 > MIN_STEPS
    ],
)
def test_reflected_half_period_matches_dop853(F, G, omega, bound):
    # the orbit is integrated over [0, T/2]; [T/2, T] is R_z(pi) times the first half
    p = DriveParams(1.0, F, G, omega)
    orbit = periodic_orbit(p)
    x0 = periodic_initial_state(dop853.monodromy_so3(p, 3e-14))
    ts = np.linspace(0.5 * p.T, p.T, 201)
    ref = dop853.evolve_classical(p, x0, 0.0, p.T, 3e-14)(ts)
    assert np.abs(orbit(ts) - ref).max() < bound
    steps = 2 * int(orbit.orbits.N[orbit.index])
    for m in (steps, 2 * steps, 1001):
        got = orbit.sample(m)
        assert got.shape == (m, 3)
        assert np.abs(got - orbit(np.arange(m) * (p.T / m))).max() < 1e-12


@pytest.mark.parametrize(
    "F, G, omega, steps, bound",
    [
        (0.5, 0.0, 1.3, MIN_STEPS, 1e-12),
        (0.8, 0.3, 1.1, MIN_STEPS, 1e-12),
        (0.5, 0.5, 0.9, MIN_STEPS, 1e-12),
        (7.0, 0.0, 0.0875, 2 * MIN_STEPS, 5e-12),  # F/omega = 80
    ],
)
def test_mirrored_quarter_period_matches_dop853(F, G, omega, steps, bound):
    # the orbit is integrated over [0, T/4]; [T/4, T/2] is the mirror
    # X(T/2 - t) = R_z(pi) P X(t) of the first quarter, P = diag(1, -1, 1)
    p = DriveParams(1.0, F, G, omega)
    orbit = periodic_orbit(p)
    assert 2 * orbit.orbits.N[orbit.index] == steps
    x0 = periodic_initial_state(dop853.monodromy_so3(p, 3e-14))
    ts = np.linspace(0.25 * p.T, 0.5 * p.T, 201)
    ref = dop853.evolve_classical(p, x0, 0.0, p.T, 3e-14)(ts)
    assert np.abs(orbit(ts) - ref).max() < bound
    # time reversal: X(T - t) = P X(t), on and off the step grid, up to the
    # rounding of omega (T - t) times the speed of the orbit, about F / omega
    for ts in (np.arange(steps) * (p.T / steps), np.linspace(0.0, p.T, 1001)):
        err = np.abs(orbit(p.T - ts) - orbit(ts) * [1.0, -1.0, 1.0]).max()
        assert err < 3e-15 * (1.0 + F / omega)
    # the half map from the quarter, P Q^T P R_z(pi) Q, is the half-period product
    coef = np.array([[F / omega], [G / omega], [1.0 / omega]])
    _, quarter, _, _ = bloch_dynamics._products(coef, 0.0, 0.5 * math.pi, 1e-12, quarter=True)
    prop = bloch_dynamics._prefix(bloch_dynamics._steps(coef, 0.0, math.pi, steps // 2))
    half = np.diag([-1.0, -1.0, 1.0]) @ bloch_dynamics._rotation_matrices(prop[:, 0, -1])
    assert np.abs(quarter[..., 0] - half).max() < 1e-14


def test_fixed_point_comes_from_the_half_map():
    # M(2 pi) = A^2 turns by 2.6e-3 here, so its axis is ill conditioned: x0
    # from A puts eps within 1e-15 of the eigenphase, x0 from A^2 7.8e-12 off
    p = DriveParams(1.0, 3.0, 1.5, 0.1 + 378 * 2.9 / 399)
    eps = quasienergy_from_monodromy(dop853.monodromy_su2(p, 3e-14), p.T)
    got = quasienergy_at(p, method="ode").epsilon
    dist = min(min(d, p.omega - d) for d in ((got - eps) % p.omega, (got + eps) % p.omega))
    assert dist <= 1e-13


def test_batch_integrates_a_quarter_period(monkeypatch):
    # S/4 steps over [0, pi/2] and S/8 for the Richardson estimate, where a full
    # period took S + S/2; sampling and calls take no further step grid
    real_steps = bloch_dynamics._steps
    counts = []

    def counting_steps(coef, s0, span, steps):
        counts.append(steps)
        return real_steps(coef, s0, span, steps)

    monkeypatch.setattr(bloch_dynamics, "_steps", counting_steps)
    grid = np.linspace(0.5, 2.0, BATCH_SIZE)
    orbits = list(periodic_orbits(1.0, 0.5, 0.3, grid))
    for orbit in orbits:
        orbit.sample(1000)
        orbit(np.linspace(0.0, orbit.period, 7))
    assert counts == [MIN_STEPS // 8, MIN_STEPS // 4]
    assert 2 * orbits[0].orbits.N[orbits[0].index] == MIN_STEPS
    # S follows the estimate of M(2 pi) = A^2, as for a full period: at S = 2048
    # the estimate of the half map A is 6.9e-13 here, that of A^2 1.8e-12
    p = DriveParams(1.0, 7.0, 3.0, 0.19)
    counts.clear()
    monodromy_so3(p)
    assert counts == [1024, 2048, 4096]
    counts.clear()
    periodic_orbit(p)
    assert counts == [256, 512, 1024]


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
