"""Command-line surface emitting CSV/JSON artifacts.

Subcommands: solve (trajectories), quasienergy (branch-continued sweeps),
resonance (resonance curves with triangle coordinates), bloch-siegert
(exact rational shift tables), validate (cross-check suite).

Exit codes: 0 success, 1 usage error, 2 math-domain failure, 3 validation
failure.  Identical configuration and seed produce byte-identical output.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import exact_models, fourier_rpl, quasienergy, resonance
from .bloch_dynamics import (
    TOL_MIN,
    DriveParams,
    monodromy_so3,
    monodromy_su2,
    periodic_orbit,
    quasienergy_from_monodromy,
    so3_angle,
)
from .errors import FloquetTlsError

SCHEMA_VERSION = "1"

_TOL_HELP = (
    f"ODE-route tolerance in [{TOL_MIN:.3g}, 1e-6]: bound on the estimated "
    "one-period error of each periodic orbit's propagator"
)


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageExit(message)


def _parse_sweep(text):
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise _UsageExit(f"sweep must be start:stop:count, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageExit(f"sweep ends must be finite, got {text!r}")
    if count < 2:
        raise _UsageExit("sweep count must be at least 2")
    return start, stop, count


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header, columns):
    """CSV with CRLF line ends, written column by column: floats as .17g, NaN as NaN,
    every other cell by str.

    No cell the commands write holds a comma, a quote or a line break, so none is quoted.
    """
    cells = [_cells(column) for column in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return "\r\n".join(lines) + "\r\n"


def _cells(column):
    """The CSV cells of one column, a list or an ndarray."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return [
        (format(v, ".17g") if v == v else "NaN") if isinstance(v, float) else str(v)
        for v in column
    ]


def _transpose(rows, width):
    """The columns of ``width`` cells each of rows."""
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(width)]


def _json_safe(obj):
    """Copy of ``obj`` with non-finite floats replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _json_text(payload):
    text = json.dumps(
        _json_safe(payload), indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False
    )
    return text + "\n"


def _resolved_config(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _emit(args, header, columns, payload_extra, config_keys):
    """Write the table of ``columns`` under ``header`` as CSV, or as JSON with its rows."""
    if args.format == "csv":
        _write_text(args.output, _csv_text(header, columns))
    else:
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": _resolved_config(args, config_keys),
            "columns": list(header),
            "rows": [list(row) for row in zip(*columns)],
        }
        payload.update(payload_extra or {})
        _write_text(args.output, _json_text(payload))


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args):
    params = DriveParams(omega0=args.omega0, F=args.f, G=args.g, omega=args.omega)
    m = args.samples
    if m < 1:
        raise _UsageExit(f"--samples must be positive, got {m}")
    ts = np.arange(m) * (params.T / m)

    def solve(method):
        """The route's states (m, 3) and, on the Fourier route, its harmonics."""
        if method == "ode":
            return periodic_orbit(params, tol=args.tol).sample(m), None
        sol = fourier_rpl.solve_auto(params, start=args.n_trunc).normalized()
        return sol.sample(m), {"z0": sol.z0, "x": [float(v) for v in sol.x]}

    states, harmonics = solve(args.method)
    compare_dev = None
    if args.compare:
        other, _ = solve("fourier" if args.method == "ode" else "ode")
        compare_dev = float(np.abs(states - other).max())
    norms = np.linalg.norm(states, axis=-1)
    extra = {}
    if harmonics is not None:
        extra["harmonics"] = harmonics
    if compare_dev is not None:
        extra["compare_max_deviation"] = compare_dev
        print(f"max deviation between routes: {compare_dev:.3e}", file=sys.stderr)
    _emit(
        args,
        ["t", "X", "Y", "Z", "norm"],
        [ts.tolist(), *states.T.tolist(), norms.tolist()],
        extra,
        ["omega0", "f", "g", "omega", "method", "n_trunc", "samples", "tol", "seed"],
    )
    return 0


# ---------------------------------------------------------------------------
# quasienergy sweep


def cmd_quasienergy(args):
    params_base = DriveParams(omega0=args.omega0, F=args.f, G=args.g, omega=1.0)
    start, stop, count = _parse_sweep(args.omega_sweep)
    grid = np.linspace(start, stop, count)

    def report(omega, exc):
        print(f"omega={omega:g}: {exc}", file=sys.stderr)

    def show(message, *_):
        print(f"warning: {message}", file=sys.stderr)

    # the warning filters still apply; a warning they let through is one line
    with warnings.catch_warnings():
        warnings.showwarning = show
        omegas, columns, failed = quasienergy._sweep_table(
            params_base, grid, args.method, args.n_trunc, args.tol, on_error=report
        )
    _emit(
        args,
        ["omega", "epsilon", "epsilon_mod", "eps_g", "eps_d", "branch"],
        [omegas, *columns],
        {},
        ["omega0", "f", "g", "omega_sweep", "method", "n_trunc", "tol", "seed"],
    )
    return 0 if failed.sum() <= 0.05 * len(grid) else 2


# ---------------------------------------------------------------------------
# resonance curves


def cmd_resonance(args):
    try:
        n_list = [int(v) for v in args.n_list.split(",") if v]
    except ValueError:
        n_list = []
    if not n_list:
        raise _UsageExit(f"--n-list takes comma-separated integers, got {args.n_list!r}")
    start, stop, count = _parse_sweep(args.f_grid)
    if args.log_grid:
        if min(start, stop) <= 0:
            raise _UsageExit(f"--log-grid needs positive ends, got {args.f_grid!r}")
        grid = np.geomspace(start, stop, count)
    else:
        grid = np.linspace(start, stop, count)

    rows = []
    curves = resonance.resonance_curves(n_list, grid, omega0=args.omega0, n_trunc=args.n_trunc)
    for n, curve in zip(n_list, curves):
        for pt in curve:
            p = DriveParams(omega0=args.omega0, F=pt.F, G=0.0, omega=pt.omega_res)
            tri = resonance.to_triangle(p)
            rows.append([n, pt.F, pt.omega_res, pt.residual, tri.x, tri.y])
    _emit(
        args,
        ["n", "F", "omega_res", "residual", "tri_x", "tri_y"],
        _transpose(rows, 6),
        {},
        ["omega0", "n_list", "f_grid", "log_grid", "n_trunc", "seed"],
    )
    return 0


# ---------------------------------------------------------------------------
# Bloch-Siegert table


def cmd_bloch_siegert(args):
    sigmas = resonance.bloch_siegert_coefficients(args.n, args.max_m, args.n_trunc)
    rows = [
        [args.n, 2 * (m + 1), str(s.numerator), str(s.denominator)]
        for m, s in enumerate(sigmas)
    ]
    extra = {
        "coefficients": [
            {"two_m": 2 * (m + 1), "numerator": str(s.numerator), "denominator": str(s.denominator)}
            for m, s in enumerate(sigmas)
        ],
        "n": args.n,
    }
    _emit(
        args,
        ["n", "two_m", "numerator", "denominator"],
        _transpose(rows, 4),
        extra,
        ["n", "max_m", "n_trunc", "seed"],
    )
    return 0


# ---------------------------------------------------------------------------
# validation suite


def _check_rpc_oracle(rng):
    worst = 0.0
    for f_amp in (0.3, 1.1, 2.4):
        for omega in (0.6, 1.0, 1.9):
            p = DriveParams(1.0, f_amp, f_amp, omega)
            ref = exact_models.rpc_quasienergies(p)
            res = quasienergy.quasienergy_classical(exact_models.rpc_trajectory(p, +1), p)
            worst = max(worst, abs(res.epsilon - ref.eps_plus))
            em_val = quasienergy_from_monodromy(monodromy_su2(p), p.T)
            dev = min(
                _circ_dist(em_val, ref.eps_plus, omega), _circ_dist(em_val, -ref.eps_plus, omega)
            )
            worst = max(worst, dev)
    return worst, 1e-8


def _circ_dist(a, b, omega):
    d = (a - b) % omega
    return min(d, omega - d)


def _check_toy_oracle(rng):
    worst = 0.0
    for f in (0.5, 1.0, 2.0):
        toy = exact_models.toy_example(f, 1.0)
        series = quasienergy.chi_series(toy.orbit, toy.drive, harmonics=12)
        worst = max(worst, abs(series.a0 - toy.epsilon))
        for n in range(1, 11):
            worst = max(worst, abs(series.cos_coeffs[n - 1] - toy.b_coefficient(n)))
    return worst, 1e-9


def _random_nonresonant_points(rng, count):
    pts = []
    while len(pts) < count:
        f_amp = float(rng.uniform(0.1, 1.5))
        omega = float(rng.uniform(1.35, 3.0))
        pts.append(DriveParams(1.0, f_amp, 0.0, omega))
    return pts


def _check_gradients(rng):
    worst = 0.0
    delta = 1e-4

    def eps_at(params):
        return quasienergy.quasienergy_at(params, method="fourier").epsilon

    for p in _random_nonresonant_points(rng, 5):
        sol = fourier_rpl.solve_auto(p).normalized()
        res = quasienergy.quasienergy_classical(sol, p, method="fourier")
        for field, grad in (
            ("omega0", quasienergy.grad_omega0(sol, p)),
            ("F", quasienergy.grad_f(sol, p)),
            ("omega", quasienergy.grad_omega(res)),
        ):
            x = getattr(p, field)
            fd = (
                eps_at(dataclasses.replace(p, **{field: x + delta}))
                - eps_at(dataclasses.replace(p, **{field: x - delta}))
            ) / (2 * delta)
            worst = max(worst, abs(fd - grad))
    return worst, 1e-5


def _check_homogeneity(rng):
    worst = 0.0
    for p in _random_nonresonant_points(rng, 3):
        res = quasienergy.quasienergy_at(p, method="fourier")
        for lam in (0.5, 2.0, 10.0):
            scaled = quasienergy.quasienergy_at(p.scaled(lam), method="fourier").epsilon
            worst = max(worst, abs(scaled - lam * res.epsilon) / lam)
        sol = fourier_rpl.solve_auto(p).normalized()
        grads = {
            "omega0": quasienergy.grad_omega0(sol, p),
            "F": quasienergy.grad_f(sol, p),
            "G": quasienergy.grad_g(sol, p),
            "omega": quasienergy.grad_omega(res),
        }
        worst = max(worst, quasienergy.euler_residual(p, grads, res.epsilon))
    return worst, 1e-5


def _check_split(rng):
    """eps_g / omega against a central difference d(eps)/d(omega).

    epsilon = eps_g + eps_d holds by construction, so the split is checked
    through the derivative identity, with both neighbours continued onto
    the branch of the centre point.
    """
    worst = 0.0
    rel = 1e-5
    for p in _random_nonresonant_points(rng, 4):
        res = quasienergy.quasienergy_at(p, method="fourier")
        eps = []
        for sign in (1, -1):
            q = DriveParams(p.omega0, p.F, p.G, p.omega * (1 + sign * rel))
            near = quasienergy.quasienergy_at(q, method="fourier")
            eps.append(quasienergy.continue_branch(near, res).epsilon)
        slope = (eps[0] - eps[1]) / (2 * rel * p.omega)
        worst = max(worst, abs(quasienergy.grad_omega(res) - slope))
    return worst, 1e-6


def _check_fourier_vs_ode(rng):
    worst = 0.0
    for f_amp in (0.1, 0.5):
        p = DriveParams(1.0, f_amp, 0.0, 2.0)
        sol = fourier_rpl.solve_coefficients(fourier_rpl.build_system(p, 20))
        states = sol.normalized().evaluate(np.linspace(0, p.T, 200))
        orbit = periodic_orbit(p, tol=1e-12)(np.linspace(0, p.T, 200))
        worst = max(worst, float(np.abs(states - orbit).max()))
    return worst, 1e-6


def _check_lift(rng):
    worst = 0.0
    p = DriveParams(1.0, 0.5, 0.5, 1.0)
    eps = exact_models.rpc_quasienergies(p).eps_plus
    lifted = exact_models.lift_spectrum(1, eps, p.omega)
    m3 = monodromy_so3(p)
    rho = so3_angle(m3)
    # a list, not a set: at rho = pi the two nonzero phases coincide
    so3_phases = sorted([0.0, (rho / p.T) % p.omega, (-rho / p.T) % p.omega])
    for a, b in zip(lifted, so3_phases, strict=True):
        worst = max(worst, _circ_dist(a, b, p.omega))
    return worst, 1e-8


def _check_bloch_siegert(rng):
    """Exact series against closed forms: sigma_2, sigma_4 for n = 2..8, sigma_6 for n = 3..8."""
    worst = 0.0
    for n in range(2, 9):
        sigmas = resonance.bloch_siegert_coefficients(n, 3 if n > 2 else 2)
        for m, sigma in enumerate(sigmas, start=1):
            worst = max(worst, abs(float(sigma - resonance.sigma_closed_form(n, m))))
    return worst, 0.0


_CHECKS = {
    "rpc_oracle": _check_rpc_oracle,
    "toy_oracle": _check_toy_oracle,
    "gradients": _check_gradients,
    "homogeneity": _check_homogeneity,
    "split": _check_split,
    "fourier_vs_ode": _check_fourier_vs_ode,
    "lift": _check_lift,
    "bloch_siegert": _check_bloch_siegert,
}


def cmd_validate(args):
    names = list(_CHECKS)
    if args.only is not None:
        wanted = [v for v in args.only.split(",") if v]
        if not wanted:
            raise _UsageExit(f"--only names no check: {args.only!r}")
        unknown = [v for v in wanted if v not in _CHECKS]
        if unknown:
            raise _UsageExit(f"unknown checks: {', '.join(unknown)}")
        names = wanted
    rng = np.random.default_rng(args.seed)
    checks = []
    all_passed = True
    for name in names:
        try:
            worst, tol = _CHECKS[name](rng)
            passed = bool(worst <= tol)
            checks.append({"name": name, "passed": passed, "worst": worst, "tolerance": tol})
        except FloquetTlsError as exc:
            passed = False
            checks.append({"name": name, "passed": False, "error": str(exc)})
        all_passed = all_passed and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}", file=sys.stderr)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {"only": args.only, "seed": args.seed},
        "checks": checks,
        "all_passed": all_passed,
    }
    _write_text(args.output, _json_text(payload))
    return 0 if all_passed else 3


# ---------------------------------------------------------------------------


def _add_common(sub, output_default="-"):
    sub.add_argument("--output", "-o", default=output_default, help="output path, - for stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser():
    """The argument parser of every command, built on the first call and then shared.

    Each :func:`main` call parses into a fresh namespace, so nothing carries
    over between calls.  Callers must not mutate the returned parser (add
    arguments, change defaults): the change would reach every later call in
    the process.
    """
    parser = _Parser(prog="floquet-tls", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("solve", help="periodic trajectory at one parameter point")
    sp.add_argument("--omega0", type=float, required=True)
    sp.add_argument("--f", type=float, required=True)
    sp.add_argument("--g", type=float, default=0.0)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--method", choices=("ode", "fourier"), default="ode")
    sp.add_argument("--n-trunc", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-12, help=_TOL_HELP)
    sp.add_argument("--samples", type=int, default=1024)
    sp.add_argument("--compare", action="store_true", help="cross-check both routes")
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = subs.add_parser("quasienergy", help="branch-continued quasienergy sweep")
    sp.add_argument("--omega0", type=float, required=True)
    sp.add_argument("--f", type=float, required=True)
    sp.add_argument("--g", type=float, default=0.0)
    sp.add_argument("--omega-sweep", required=True, help="start:stop:count")
    sp.add_argument("--method", choices=("auto", "ode", "fourier"), default="auto")
    sp.add_argument("--n-trunc", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-12, help=_TOL_HELP)
    _add_common(sp)
    sp.set_defaults(func=cmd_quasienergy)

    sp = subs.add_parser("resonance", help="resonance curves det A^(N) = 0")
    sp.add_argument("--n-list", default="1", help="comma-separated resonance indices")
    sp.add_argument("--f-grid", required=True, help="start:stop:count")
    sp.add_argument("--log-grid", action="store_true")
    sp.add_argument("--omega0", type=float, default=1.0)
    sp.add_argument("--n-trunc", type=int, default=50)
    _add_common(sp)
    sp.set_defaults(func=cmd_resonance)

    sp = subs.add_parser("bloch-siegert", help="exact rational shift coefficients")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-m", type=int, required=True)
    sp.add_argument("--n-trunc", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_bloch_siegert)

    sp = subs.add_parser("validate", help="cross-check suite")
    sp.add_argument("--only", default=None, help="comma-separated check names")
    _add_common(sp)
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit:
        return 1
    try:
        return args.func(args)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloquetTlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
