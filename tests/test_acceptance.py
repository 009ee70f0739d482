"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with the measured figure of merit once its
assertions hold, so `pytest -s tests/test_acceptance.py` gives a one-line
verdict per criterion.
"""

import time
from fractions import Fraction as Q

import numpy as np
import rational_ladder

from floquet_tls import cli, fourier_rpl, quasienergy, resonance, series_limits
from floquet_tls.bloch_dynamics import (
    DriveParams,
    monodromy_su2,
    periodic_orbit,
    quasienergy_from_monodromy,
)
from floquet_tls.exact_models import rpc_quasienergies, rpc_trajectory, toy_example
from floquet_tls.specfun import bessel_j, bessel_j0_zero


def circ(a, b, omega):
    d = (a - b) % omega
    return min(d, omega - d)


def report(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def test_criterion_01_rpc_closed_form():
    """Both routes match the circular closed form on a 10x10 grid."""
    start = time.time()
    worst_classical = worst_monodromy = 0.0
    for f_amp in np.linspace(0.3, 3.0, 10):
        for omega in np.linspace(0.3, 3.0, 10):
            p = DriveParams(1.0, float(f_amp), float(f_amp), float(omega))
            ref = rpc_quasienergies(p).eps_plus
            res = quasienergy.quasienergy_classical(rpc_trajectory(p, +1), p)
            worst_classical = max(worst_classical, circ(res.epsilon, ref, p.omega))
            ev = quasienergy_from_monodromy(monodromy_su2(p), p.T)
            worst_monodromy = max(
                worst_monodromy, min(circ(ev, ref, p.omega), circ(ev, -ref, p.omega))
            )
    elapsed = time.time() - start
    assert worst_classical < 1e-8
    assert worst_monodromy < 1e-8
    assert elapsed < 30.0
    report(1, f"classical {worst_classical:.2e}, monodromy {worst_monodromy:.2e}, {elapsed:.1f}s")


TABLE_1 = [
    Q(1, 16), Q(1, 1024), Q(-35, 131072), Q(103, 8388608), Q(1873, 805306368),
    Q(-1577257, 3710851743744), Q(67429531, 17099604835172352),
    Q(304008125947, 39397489540237099008),
]
TABLE_2 = [
    Q(3, 32), Q(-135, 8192), Q(2133, 1048576), Q(588789, 536870912),
    Q(-98579025, 68719476736), Q(19157942853, 17592186044416),
]
TABLE_3 = [
    Q(5, 96), Q(-2125, 221184), Q(1146875, 254803968), Q(-3244765625, 1174136684544),
    Q(2045715078125, 1352605460594688), Q(-558332576171875, 1038800993736720384),
]
TABLE_4 = {
    1: [Q(1, 16), Q(1, 1024), Q(-35, 131072)],
    2: [Q(3, 32), Q(-135, 8192), Q(2133, 1048576)],
    3: [Q(5, 96), Q(-2125, 221184), Q(1146875, 254803968)],
    4: [Q(7, 192), Q(-12005, 1769472), Q(120892751, 40768634880)],
    5: [Q(9, 320), Q(-43011, 8192000), Q(235598949, 104857600000)],
    6: [Q(11, 480), Q(-118459, 27648000), Q(10123182707, 5573836800000)],
    7: [Q(13, 672), Q(-274625, 75866112), Q(32687521841, 21412451450880)],
    8: [Q(15, 896), Q(-563625, 179830784), Q(23778534375, 18046378835968)],
    9: [Q(17, 1152), Q(-1056295, 382205952), Q(2573069114971, 2219118333788160)],
    10: [Q(19, 1440), Q(-1845071, 746496000), Q(2204002956989, 2128409395200000)],
}


def test_criterion_02_bloch_siegert_tables(tmp_path):
    """cmd_bloch_siegert reproduces the shift tables as exact rationals."""
    import json

    start = time.time()

    def via_cli(n, max_m):
        out = tmp_path / f"bs_{n}_{max_m}.json"
        rc = cli.main(
            ["bloch-siegert", "--n", str(n), "--max-m", str(max_m),
             "--format", "json", "-o", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        return [
            Q(int(c["numerator"]), int(c["denominator"])) for c in payload["coefficients"]
        ]

    assert via_cli(1, 8) == TABLE_1
    assert via_cli(2, 6) == TABLE_2
    assert via_cli(3, 6) == TABLE_3
    for n, expect in TABLE_4.items():
        assert via_cli(n, 3) == expect
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(2, f"tables 1-4 bit-exact, {elapsed:.1f}s")


def test_criterion_03_closed_form_sigmas():
    """Rational recursion equals the closed forms exactly."""
    for n in range(2, 11):
        assert bloch_siegert(n, 1) == resonance.sigma_closed_form(n, 1)
    for n in range(2, 7):
        assert bloch_siegert(n, 2) == resonance.sigma_closed_form(n, 2)
    for n in range(3, 7):
        assert bloch_siegert(n, 3) == resonance.sigma_closed_form(n, 3)
    report(3, "recursion == closed forms (m=1 n2-10, m=2 n2-6, m=3 n3-6)")


def bloch_siegert(n, m):
    return resonance.bloch_siegert_coefficients(n, m)[m - 1]


def test_criterion_04_resonance_endpoints():
    """Both edges of the resonance curves and the large-F asymptotics."""
    for n in range(1, 11):
        pt = resonance.find_resonance(n, 1e-6, 1.0, 50)
        assert abs(pt.omega_res - 1.0 / (2 * n - 1)) < 1e-5
    for n in (1, 2, 3):
        j0n = bessel_j0_zero(n)
        devs = []
        for f_amp in (10.0, 30.0, 100.0):
            pt = resonance.find_resonance(n, f_amp, 1.0, 50)
            devs.append(abs(f_amp / pt.omega_res - j0n) / j0n)
        # the ratio converges onto the Bessel zero across [10, 100]
        assert devs[0] > devs[1] > devs[2]
        assert devs[1] < 1e-2 and devs[2] < 1e-2
    coeffs = resonance.large_f_fit(1, points=25)
    assert abs(coeffs[0] - 0.415831) < 1e-3
    assert abs(coeffs[1] - 0.87256) < 1e-3
    report(4, f"endpoints ok; fitted {coeffs[0]:.6f} F + {coeffs[1]:.5f}/F")


def test_criterion_05_adiabatic_quasienergy(tmp_path):
    """Elliptic-integral coefficients and the small-omega envelope."""
    p = DriveParams(1.0, 0.5, 0.0, 0.01)
    exp = series_limits.adiabatic_expansion(p, 2)
    assert abs(exp.eps0 - 0.52992) < 5e-6
    assert abs(exp.eps2 - 0.0272334) < 5e-7
    assert abs(exp.eps4 - 0.0249063) < 5e-7

    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["quasienergy", "--omega0", "1", "--f", "0.5",
         "--omega-sweep", "0.04:0.2:81", "-o", str(out)]
    )
    assert rc == 0
    import csv

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    worst = 0.0
    minima = 0
    eps = [float(r[1]) for r in rows]
    omegas = [float(r[0]) for r in rows]
    for i, (w, e) in enumerate(zip(omegas, eps)):
        asy = exp.eps0 + exp.eps2 * w * w + exp.eps4 * w**4
        worst = max(worst, abs(e - asy))
        if 0 < i < len(eps) - 1 and eps[i] <= eps[i - 1] and eps[i] <= eps[i + 1]:
            minima += 1
    assert worst < 2e-3
    report(5, f"eps0/2/4 match; envelope deviation {worst:.2e} over omega <= 0.2")


def test_criterion_06_small_static_field_law():
    """Monodromy eigenphases follow (omega0/2) J0(F/omega)."""
    worst = 0.0
    for f in (0.5, 1.0, 2.0, 3.0):
        p = DriveParams(1e-4, f, 0.0, 1.0)
        ev = quasienergy_from_monodromy(monodromy_su2(p, tol=1e-13), p.T)
        worst = max(worst, abs(ev - abs(0.5e-4 * bessel_j(0, f))))
    assert worst < 1e-9
    report(6, f"eigenphase vs Bessel law, worst {worst:.2e}")


def test_criterion_07_gradient_identities():
    """Assertions about the gradient of eps at 20 random regular points."""
    rng = np.random.default_rng(42)
    delta = 1e-4
    worst = dict(w0=0.0, f=0.0, w=0.0, euler=0.0, scale=0.0)

    def eps_at(p):
        sol = fourier_rpl.solve_auto(p).normalized()
        return quasienergy.quasienergy_classical(sol.evaluate, p, method="fourier").epsilon

    for _ in range(20):
        f_amp = float(rng.uniform(0.1, 1.5))
        omega = float(rng.uniform(1.35, 3.0))  # above every resonance curve
        p = DriveParams(1.0, f_amp, 0.0, omega)
        sol = fourier_rpl.solve_auto(p).normalized()
        res = quasienergy.quasienergy_classical(sol.evaluate, p, method="fourier")
        fd = (
            eps_at(DriveParams(1.0 + delta, f_amp, 0.0, omega))
            - eps_at(DriveParams(1.0 - delta, f_amp, 0.0, omega))
        ) / (2 * delta)
        worst["w0"] = max(worst["w0"], abs(fd - quasienergy.grad_omega0(sol.evaluate, p)))
        fd = (
            eps_at(DriveParams(1.0, f_amp + delta, 0.0, omega))
            - eps_at(DriveParams(1.0, f_amp - delta, 0.0, omega))
        ) / (2 * delta)
        worst["f"] = max(worst["f"], abs(fd - quasienergy.grad_f(sol.evaluate, p)))
        fd = (
            eps_at(DriveParams(1.0, f_amp, 0.0, omega + delta))
            - eps_at(DriveParams(1.0, f_amp, 0.0, omega - delta))
        ) / (2 * delta)
        worst["w"] = max(worst["w"], abs(fd - quasienergy.grad_omega(res)))
        grads = {
            "omega0": quasienergy.grad_omega0(sol.evaluate, p),
            "F": quasienergy.grad_f(sol.evaluate, p),
            "G": quasienergy.grad_g(sol.evaluate, p),
            "omega": quasienergy.grad_omega(res),
        }
        worst["euler"] = max(worst["euler"], quasienergy.euler_residual(p, grads, res.epsilon))
        worst["scale"] = max(
            worst["scale"], abs(eps_at(p.scaled(2.0)) - 2.0 * res.epsilon) / 2.0
        )
    assert worst["w0"] < 1e-5 and worst["f"] < 1e-5 and worst["w"] < 1e-5
    assert worst["euler"] < 1e-5
    assert worst["scale"] < 1e-8
    report(7, f"gradients {max(worst['w0'], worst['f'], worst['w']):.1e}, "
              f"euler {worst['euler']:.1e}, scaling {worst['scale']:.1e}")


def test_criterion_08_route_equivalence():
    """Fourier (N=20) vs ODE trajectories on the resonance-curve orbits,
    plus exact order-4 closed forms."""
    worst = 0.0
    for f_amp in (0.1, 0.5, 1.0, 2.0):
        w_res = resonance.find_resonance(1, f_amp, 1.0, 50).omega_res
        p = DriveParams(1.0, f_amp, 0.0, w_res)
        sol = fourier_rpl.solve_coefficients(fourier_rpl.build_system(p, 20))
        ts = np.linspace(0.0, p.T, 300)
        a = sol.normalized().evaluate(ts)
        b = periodic_orbit(p)(ts)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst < 1e-6

    points = [
        (Q(3, 2), Q(5, 7), Q(2, 3)), (Q(2), Q(1), Q(1, 2)), (Q(7, 3), Q(4, 5), Q(1)),
        (Q(5, 4), Q(1, 3), Q(3, 2)), (Q(1, 2), Q(6, 5), Q(2)),
    ]
    for w, w0, f_amp in points:
        params = DriveParams(omega0=w0, F=f_amp, G=Q(0), omega=w)
        z0, x = rational_ladder.coefficients(params, 4)
        assert x[0] == Q(1, 2) * f_amp * w**2 * (9 * f_amp**2 + 16 * (w0**2 - 9 * w**2))
        assert x[1] == -Q(1, 8) * f_amp**2 * w**2 * (3 * f_amp**2 + 16 * (w0**2 - 9 * w**2))
        assert x[2] == -(f_amp**3) * w**2
        assert x[3] == 3 * f_amp**4 * w**2 / 8
        assert z0 == Q(1, 16) * w**2 * (
            3 * f_amp**4 - 8 * f_amp**2 * (27 * w**2 - 11 * w0**2)
            + 128 * (w**2 - w0**2) * (9 * w**2 - w0**2)
        )
    report(8, f"sup-norm route gap {worst:.2e}; order-4 closed forms exact at 5 points")


def test_criterion_09_toy_example_oracle():
    """Phase-function Fourier data against the Bessel closed forms."""
    worst = 0.0
    worst_d = 0.0
    for f in (0.5, 1.0, 2.0):
        toy = toy_example(f, 1.0)
        series = quasienergy.chi_series(toy.orbit, toy.drive, harmonics=12)
        worst = max(worst, abs(series.a0 - toy.epsilon))
        for n in range(1, 11):
            worst = max(worst, abs(series.cos_coeffs[n - 1] - toy.b_coefficient(n)))
        _, eps_d = quasienergy.split_geometric_dynamic(toy.orbit, toy.drive)
        worst_d = max(worst_d, abs(eps_d))
    assert worst < 1e-9
    assert worst_d < 1e-10
    report(9, f"coefficients within {worst:.2e}, eps_d < {worst_d:.2e}")


def test_criterion_10_avoided_crossing():
    """Continued branches keep a positive gap near the second resonance."""
    pt = resonance.find_resonance(2, 0.5, 1.0, 50)
    assert abs(pt.omega_res - 0.355776) < 1e-5
    base = DriveParams(1.0, 0.5, 0.0, 1.0)
    grid = np.linspace(pt.omega_res - 0.01, pt.omega_res + 0.01, 200)
    results = quasienergy.sweep_branches(base, grid, method="fourier")
    eps1 = np.array([r.epsilon for r in results])
    eps2 = 3.0 * grid - eps1
    gap = np.abs(eps2 - eps1)
    assert gap.min() > 0.0
    # the continued curve is smooth through the crossing
    assert np.abs(np.diff(eps1)).max() < 5e-3
    report(10, f"resonance at {pt.omega_res:.6f}, minimal branch gap {gap.min():.2e}")
