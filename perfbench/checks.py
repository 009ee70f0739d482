"""Checks of the program's CSV outputs against ``reference``.

Each output row is one operation.  A row fails when it is missing, holds
no value, or disagrees with the benchmark's own computation; the checks
never compare against a stored copy of earlier output.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import reference

EPS_TOL = 1e-8  # quasienergy against the SU(2) eigenphase, in units of omega0
DERIV_TOL = 1e-5  # eps_g / omega against d(eps)/d(omega)
DERIV_STEP = 1e-5  # relative step of the central difference in omega
FOLD_MARGIN = 0.05  # skip the derivative where theta is this close to 0 or pi
DET_STEP = 1e-7  # relative offset at which det A^(N) must change sign
TRI_TOL = 1e-12
SHIRLEY_TOL = 1e-6  # |mean z|: transition probability (1 - m^2)/2 within 5e-13 of 1/2
SERIES_TERM = 1e-11  # size of the first omitted Bloch-Siegert terms at the test amplitude
SERIES_N_TRUNC = 40


@dataclass
class Report:
    rows: int = 0
    failed: list = field(default_factory=list)  # (key, reason); key None when not a known fault
    notes: list = field(default_factory=list)

    def fail(self, key, reason):
        self.failed.append((key, reason))


def _flags(argv):
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--") and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[tok[2:]] = argv[i + 1]
    return out


def _rows(text):
    """Data rows of a CSV output, without its header."""
    return list(csv.reader(io.StringIO(text)))[1:]


def expected_rows(argv):
    flags = _flags(argv)
    if argv[0] == "quasienergy":
        return int(flags["omega-sweep"].split(":")[2])
    if argv[0] == "resonance":
        return len(flags["n-list"].split(",")) * int(flags["f-grid"].split(":")[2])
    if argv[0] == "bloch-siegert":
        return int(flags["max-m"])
    raise ValueError(f"no row count for command {argv[0]!r}")


def check(workload, texts, known_faults):
    """Check every output of one round; ``texts[i]`` is the CSV of command i."""
    report = Report()
    sweeps = []
    for argv, text in zip(workload.commands, texts):
        want = expected_rows(argv)
        report.rows += want
        rows = _rows(text)
        if len(rows) != want:
            for _ in range(want - len(rows)):
                report.fail(None, f"{argv[0]}: row missing")
            rows = rows[:want]
        if argv[0] == "quasienergy":
            sweeps.append((argv, rows))
        elif argv[0] == "resonance":
            _check_resonance(argv, rows, report)
        else:
            _check_bloch_siegert(argv, rows, report)
    if sweeps:
        _check_quasienergy(sweeps, workload.derivative_check, known_faults, report)
    return report


# ---------------------------------------------------------------------------
# quasienergy sweeps


def _check_quasienergy(sweeps, derivative_check, known_faults, report):
    points = []  # (known-fault key or None, omega0, F, G, omega, epsilon, eps_g)
    for argv, rows in sweeps:
        flags = _flags(argv)
        omega0, f_amp, g_amp = float(flags["omega0"]), float(flags["f"]), float(flags.get("g", 0))
        for row in rows:
            try:
                omega, eps, eps_mod, eps_g, _eps_d, branch = (float(v) for v in row)
            except ValueError:
                report.fail(None, f"malformed quasienergy row {row}")
                continue
            key = (omega0, f_amp, g_amp, omega)
            key = key if key in known_faults else None
            if not all(math.isfinite(v) for v in (eps, eps_mod, eps_g)):
                report.fail(key, f"no quasienergy at {omega0, f_amp, g_amp, omega}")
                continue
            if not (0 <= eps_mod < omega and abs(eps - branch * omega - eps_mod) <= 1e-9 * omega0):
                report.fail(key, f"branch bookkeeping broken at omega={omega}")
                continue
            points.append((key, omega0, f_amp, g_amp, omega, eps, eps_g))
    if not points:
        return
    key = [p[0] for p in points]
    w0, f_amp, g_amp, omega, eps, eps_g = (np.array(c) for c in list(zip(*points))[1:])
    h = DERIV_STEP * omega
    theta = reference.eigenphase(
        np.concatenate([w0] * 3),
        np.concatenate([f_amp] * 3),
        np.concatenate([g_amp] * 3),
        np.concatenate([omega, omega + h, omega - h]),
    )
    size = len(omega)
    theta0, theta_p, theta_m = theta[:size], theta[size : 2 * size], theta[2 * size :]
    e0 = theta0 * omega / (2 * math.pi)
    dev = reference.distance_to_pair(eps, e0, omega)
    skipped = 0
    for i in range(size):
        if dev[i] > EPS_TOL * w0[i]:
            point = tuple(float(a[i]) for a in (w0, f_amp, g_amp, omega))
            report.fail(key[i], f"epsilon off by {dev[i]:.2e} at (omega0, F, G, omega) = {point}")
            continue
        if not derivative_check:
            continue
        if min(theta0[i], math.pi - theta0[i]) < FOLD_MARGIN:
            skipped += 1
            continue
        # epsilon = s e(omega) + k omega on the reported branch
        sign = 1.0 if reference.circular_distance(eps[i], e0[i], omega[i]) <= dev[i] else -1.0
        k = round((eps[i] - sign * e0[i]) / omega[i])
        e_p = theta_p[i] * (omega[i] + h[i]) / (2 * math.pi)
        e_m = theta_m[i] * (omega[i] - h[i]) / (2 * math.pi)
        slope = sign * (e_p - e_m) / (2 * h[i]) + k
        if abs(eps_g[i] / omega[i] - slope) > DERIV_TOL:
            report.fail(
                key[i],
                f"eps_g/omega {eps_g[i] / omega[i]:.9g} vs d(eps)/d(omega) {slope:.9g} at omega={omega[i]}",
            )
    if derivative_check:
        report.notes.append(f"derivative check skipped at {skipped} fold points")


# ---------------------------------------------------------------------------
# resonance curves


def _check_resonance(argv, rows, report):
    flags = _flags(argv)
    omega0 = float(flags["omega0"])
    n_trunc = int(flags["n-trunc"])
    table = []
    for row in rows:
        try:
            n, f_amp, omega, _res, tri_x, tri_y = (float(v) for v in row)
        except ValueError:
            report.fail(None, f"malformed resonance row {row}")
            continue
        if not all(math.isfinite(v) for v in (f_amp, omega, tri_x, tri_y)):
            report.fail(None, f"no resonance for n={n:g} at F={f_amp}")
            continue
        table.append((int(n), f_amp, omega, tri_x, tri_y))
    bad = set()
    for idx, (n, f_amp, omega, tri_x, tri_y) in enumerate(table):
        below = reference.det_sign(omega0, f_amp, omega * (1 - DET_STEP), n_trunc)
        above = reference.det_sign(omega0, f_amp, omega * (1 + DET_STEP), n_trunc)
        if below == above:
            bad.add(idx)
            report.fail(None, f"det A^({n_trunc}) keeps its sign across n={n} F={f_amp} omega={omega}")
            continue
        total = omega0 + omega + f_amp
        if (
            abs(tri_x - 0.5 * (omega - omega0) / total) > TRI_TOL
            or abs(tri_y - 0.5 * math.sqrt(3) * f_amp / total) > TRI_TOL
        ):
            bad.add(idx)
            report.fail(None, f"triangle coordinates wrong at n={n} F={f_amp}")
    # at each F the curves are ordered n = 1 > 2 > ...
    by_f = {}
    for idx, (n, f_amp, omega, _x, _y) in enumerate(table):
        by_f.setdefault(f_amp, []).append((n, omega, idx))
    for f_amp, curve in by_f.items():
        curve.sort()
        for (n1, w1, _i1), (n2, w2, i2) in zip(curve, curve[1:]):
            if not w1 > w2 and i2 not in bad:
                bad.add(i2)
                report.fail(None, f"curves out of order at F={f_amp}: n={n1} {w1} <= n={n2} {w2}")
    # Shirley: on the resonance the time-averaged transition probability is 1/2
    subset = [
        i
        for i, (n, f_amp, _w, _x, _y) in enumerate(table)
        if n <= 2 and 0.1 <= f_amp / omega0 <= 2.0 and i not in bad
    ][::3]
    if subset:
        m = reference.mean_floquet_z(
            omega0, np.array([table[i][1] for i in subset]), np.array([table[i][2] for i in subset])
        )
        for i, mi in zip(subset, m):
            if abs(mi) > SHIRLEY_TOL:
                n, f_amp, omega = table[i][:3]
                report.fail(None, f"Shirley probability {(1 - mi * mi) / 2:.15f} != 1/2 at n={n} F={f_amp}")
        report.notes.append(f"Shirley probability checked on {len(subset)} rows")


# ---------------------------------------------------------------------------
# Bloch-Siegert tables


def _check_bloch_siegert(argv, rows, report):
    n = int(_flags(argv)["n"])
    sigmas = []
    for i, row in enumerate(rows):
        try:
            n_row, two_m, num, den = (int(v) for v in row)
            sigma = Fraction(num, den)
        except (ValueError, ZeroDivisionError):
            n_row = two_m = None
        if n_row != n or two_m != 2 * (len(sigmas) + 1):
            for _ in rows[i:]:
                report.fail(None, f"bloch-siegert n={n}: unexpected row {row}")
            return
        sigmas.append(sigma)
    problems = {}  # order m -> reason; one failed row each
    for m, sigma in enumerate(sigmas, start=1):
        closed = reference.sigma_closed_form(n, 2 * m)
        if closed is not None and sigma != closed:
            problems[m] = f"sigma_{2 * m}^({n}) = {sigma} differs from the closed form {closed}"
    # The partial sum to order m must match the numeric curve to within its
    # first omitted terms, taken from the table itself: at the amplitude
    # where the larger of the next two terms is SERIES_TERM, the root of
    # the benchmark's det A^(N) differs from the partial sum by at most
    # twice their sum.  An error d in sigma_2m would add d F^2m.
    values = [float(s) for s in sigmas]
    for m in range(1, len(values)):
        nxt = [(j, values[j - 1]) for j in (m + 1, m + 2) if j <= len(values) and values[j - 1]]
        if not nxt:
            continue
        f_amp = min((SERIES_TERM / abs(v)) ** (1.0 / (2 * j)) for j, v in nxt)
        partial = 1.0 / (2 * n - 1) + sum(v * f_amp ** (2 * j) for j, v in enumerate(values[:m], 1))
        bound = 2.0 * sum(abs(v) * f_amp ** (2 * j) for j, v in nxt)
        root = reference.resonance_root(1.0, f_amp, partial, SERIES_N_TRUNC)
        if abs(root - partial) > bound:
            problems.setdefault(
                m,
                f"bloch-siegert n={n}: numeric root - partial sum to order {2 * m} = "
                f"{root - partial:.3e} at F={f_amp:.3g}, beyond {bound:.3e}",
            )
    for reason in problems.values():
        report.fail(None, reason)
