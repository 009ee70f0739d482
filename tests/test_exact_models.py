"""Closed-form oracle models."""

import math

import numpy as np
import pytest

from floquet_tls.bloch_dynamics import DriveParams, monodromy_so3, so3_angle
from floquet_tls.errors import DomainError
from floquet_tls.exact_models import (
    lift_spectrum,
    rpc_floquet_states,
    rpc_quasienergies,
    rpc_trajectory,
    toy_example,
)
from floquet_tls.specfun import bessel_j


def rpc(omega0=1.0, F=0.5, omega=1.0):
    return DriveParams(omega0=omega0, F=F, G=F, omega=omega)


def test_rpc_trajectory_requires_circular():
    with pytest.raises(DomainError):
        rpc_trajectory(DriveParams(1.0, 1.0, 0.5, 1.0))


def test_rpc_trajectory_values():
    p = rpc(omega0=1.0, F=0.7, omega=1.2)
    orbit = rpc_trajectory(p, +1)
    assert np.allclose(orbit(0.0), [0.7, 0.0, -0.2], atol=1e-15)
    # omega = omega0: equatorial circle of radius F
    p2 = rpc(omega0=1.0, F=0.7, omega=1.0)
    ts = np.linspace(0.0, p2.T, 33)
    states = rpc_trajectory(p2, +1)(ts)
    assert np.abs(states[:, 2]).max() == 0.0
    assert np.abs(np.hypot(states[:, 0], states[:, 1]) - 0.7).max() < 1e-15


def test_rpc_trajectory_solves_equation_of_motion():
    p = rpc(omega0=1.0, F=0.7, omega=1.2)
    orbit = rpc_trajectory(p, -1)
    ts = np.linspace(0.0, 2 * p.T, 100)
    w = p.omega
    deriv = np.stack(
        [
            -p.F * w * np.sin(w * ts),
            p.F * w * np.cos(w * ts),
            np.zeros_like(ts),
        ],
        axis=-1,
    ) * (-1.0)
    h = np.stack(
        [p.F * np.cos(w * ts), p.F * np.sin(w * ts), np.full_like(ts, p.omega0)], axis=-1
    )
    assert np.abs(deriv - np.cross(h, orbit(ts))).max() < 1e-12


def test_rpc_quasienergies_values():
    p = rpc(omega0=1.0, F=0.5, omega=1.0)
    ref = rpc_quasienergies(p)
    assert ref.eps_plus == pytest.approx(0.75, abs=1e-15)
    assert ref.eps_minus == pytest.approx(0.25, abs=1e-15)
    d = (ref.eps_minus - (-ref.eps_plus)) % p.omega
    assert min(d, p.omega - d) < 1e-15
    assert abs(ref.eps_d + ref.eps_g - ref.eps_plus) < 1e-15


def test_rpc_floquet_states_orthonormal():
    rng = np.random.default_rng(4)
    p = rpc(omega0=1.0, F=0.8, omega=1.6)
    ts = rng.uniform(0.0, 5 * p.T, 100)
    psi_p, psi_m = rpc_floquet_states(p, ts)
    assert np.abs(np.sum(np.conj(psi_p) * psi_m, axis=-1)).max() < 1e-12
    assert np.abs(np.linalg.norm(psi_p, axis=-1) - 1.0).max() < 1e-12
    assert np.abs(np.linalg.norm(psi_m, axis=-1) - 1.0).max() < 1e-12


def test_rpc_floquet_state_schroedinger_residual():
    p = rpc(omega0=1.0, F=0.8, omega=1.6)
    big = math.hypot(p.F, p.omega0 - p.omega)
    ts = np.linspace(0.0, p.T, 64)
    psi_p, _ = rpc_floquet_states(p, ts)
    # analytic time derivative: the two components rotate at fixed rates
    dpsi = np.empty_like(psi_p)
    dpsi[:, 0] = -0.5j * (p.omega + big) * psi_p[:, 0]
    dpsi[:, 1] = 0.5j * (p.omega - big) * psi_p[:, 1]
    h1 = p.F * np.cos(p.omega * ts)
    h2 = p.F * np.sin(p.omega * ts)
    h_psi = np.empty_like(psi_p)
    h_psi[:, 0] = 0.5 * (p.omega0 * psi_p[:, 0] + (h1 - 1j * h2) * psi_p[:, 1])
    h_psi[:, 1] = 0.5 * ((h1 + 1j * h2) * psi_p[:, 0] - p.omega0 * psi_p[:, 1])
    assert np.abs(h_psi - 1j * dpsi).max() < 1e-12


def test_rpc_floquet_state_projects_to_orbit():
    p = rpc(omega0=1.0, F=0.8, omega=1.6)
    big = math.hypot(p.F, p.omega0 - p.omega)
    ts = np.linspace(0.0, p.T, 16)
    psi_p, _ = rpc_floquet_states(p, ts)
    orbit = rpc_trajectory(p, +1)(ts) / big
    x = 2.0 * (np.conj(psi_p[:, 0]) * psi_p[:, 1]).real
    y = 2.0 * (np.conj(psi_p[:, 0]) * psi_p[:, 1]).imag
    z = (np.abs(psi_p[:, 0]) ** 2 - np.abs(psi_p[:, 1]) ** 2)
    assert np.abs(np.stack([x, y, z], axis=-1) - orbit).max() < 1e-12


def test_rpc_degenerate_rejected():
    with pytest.raises(DomainError):
        rpc_floquet_states(DriveParams(1.0, 0.0, 0.0, 1.0), 0.0)


def test_toy_example_epsilon_value():
    toy = toy_example(1.0, 1.0)
    assert abs(toy.epsilon - 0.5 * (1.0 - math.cos(0.5) * bessel_j(0, 0.5))) < 1e-15
    # eps depends linearly on omega
    assert abs(toy_example(1.0, 2.5).epsilon - 2.5 * toy.epsilon) < 1e-14


def test_toy_example_b1_sign_rule():
    toy = toy_example(1.0, 1.0)
    assert abs(toy.b_coefficient(1) - (-bessel_j(1, 0.5) * math.sin(0.5))) < 1e-15


def test_toy_field_is_reverse_engineered_control():
    toy = toy_example(1.3, 0.9)
    ts = np.linspace(0.05, 12.0, 211)
    dt = 1e-6
    deriv = (toy.orbit(ts + dt) - toy.orbit(ts - dt)) / (2 * dt)
    assert np.abs(np.cross(toy.orbit(ts), deriv) - toy.field(ts)).max() < 1e-9
    # h . X = 0 identically
    assert np.abs(np.sum(toy.field(ts) * toy.orbit(ts), axis=-1)).max() < 1e-12


def test_toy_orbit_normalized_and_periodic():
    toy = toy_example(2.0, 1.4)
    ts = np.linspace(0.0, 2 * math.pi / 1.4, 97)
    assert np.abs(np.linalg.norm(toy.orbit(ts), axis=-1) - 1.0).max() < 1e-12
    assert np.abs(toy.orbit(ts) - toy.orbit(ts + 2 * math.pi / 1.4)).max() < 1e-12


def test_toy_chi_closed_form():
    toy = toy_example(1.0, 1.0)
    ts = np.linspace(0.0, 6.0, 50)
    g = toy.f * np.sin(0.5 * toy.omega * ts) ** 2
    assert np.abs(toy.chi(ts) - toy.omega * np.sin(0.5 * g) ** 2).max() == 0.0


def test_lift_spectrum_half():
    vals = lift_spectrum(0.5, 0.75, 1.0)
    assert np.allclose(vals, sorted([0.75 % 1.0, (-0.75) % 1.0]))


def test_lift_spectrum_three_halves():
    vals = lift_spectrum(1.5, 0.2, 1.0)
    expect = sorted((2 * 0.2 * m) % 1.0 for m in (-1.5, -0.5, 0.5, 1.5))
    assert np.allclose(vals, expect)


def test_lift_spectrum_matches_so3():
    p = rpc(omega0=1.0, F=0.5, omega=1.0)
    eps = rpc_quasienergies(p).eps_plus
    lifted = lift_spectrum(1, eps, p.omega)
    rho = so3_angle(monodromy_so3(p))
    # a list, not a set: at rho = pi (here) the two nonzero phases coincide
    so3_phases = sorted([0.0, (rho / p.T) % p.omega, (-rho / p.T) % p.omega])
    assert len(lifted) == 3
    for a, b in zip(lifted, so3_phases):
        d = (a - b) % p.omega
        assert min(d, p.omega - d) < 1e-8


def test_lift_spectrum_domain():
    with pytest.raises(DomainError):
        lift_spectrum(0.3, 0.1, 1.0)
