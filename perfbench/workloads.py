"""The benchmark's workloads: ``floquet-tls`` command lines made from a seed.

Every seeded input is scaled by a common factor lam, drawn from the seed,
on all of (omega0, F, omega).  Quasienergies and resonance frequencies are
homogeneous of degree one, so the scaled problem has the same orbit shapes,
truncation orders and sampling grids as the unscaled one: the inputs change
with the seed while the work per point stays the same, which keeps the
timings comparable across seeds.  Small extra jitter on F/omega0 and on the
sweep ends varies the points themselves where that does not change the
work (the ODE sweeps and the resonance grid).

Two inputs do not depend on the seed: the strong-drive points
(omega0, F, omega) = (1, 15, 0.05) and (1, 20, 0.05), where the program
returns a wrong quasienergy at this commit.  They are listed in
KNOWN_FAULTS and counted as failed operations.
"""

from dataclasses import dataclass

import numpy as np

NAMES = ("fourier_sweep", "fourier_strong", "ode_sweep", "resonance")

# (omega0, F, G, omega) of rows that fail every time, whatever the seed
KNOWN_FAULTS = frozenset({(1.0, 15.0, 0.0, 0.05), (1.0, 20.0, 0.0, 0.05)})

RESONANCE_N = (1, 2, 3)
RESONANCE_N_TRUNC = 50
BLOCH_SIEGERT_MAX_M = 8


@dataclass
class Workload:
    commands: list  # argv lists for floquet_tls.cli.main, without --output
    setup_commands: list  # the smallest command(s), run in a fresh interpreter
    derivative_check: bool = True  # eps_g / omega against d(eps)/d(omega)


def _num(x):
    return format(float(x), ".17g")


def _sweep(omega0, f_amp, g_amp, start, stop, count):
    argv = ["quasienergy", "--omega0", _num(omega0), "--f", _num(f_amp)]
    if g_amp:
        argv += ["--g", _num(g_amp)]
    argv += ["--omega-sweep", f"{_num(start)}:{_num(stop)}:{count}"]
    return argv


def _smallest(argv):
    """The same sweep cut to its first two points."""
    out = list(argv)
    i = out.index("--omega-sweep") + 1
    start, stop, count = out[i].split(":")
    step = (float(stop) - float(start)) / (int(count) - 1)
    out[i] = f"{start}:{_num(float(start) + step)}:2"
    return out


def _lam(rng):
    return float(np.exp(rng.uniform(-0.1, 0.1)))


def _jitter(rng, value, rel):
    return value * (1.0 + rng.uniform(-rel, rel))


def fourier_sweep(rng):
    # weak to moderate drive; omega from 0.25 to 2.2 crosses the n = 1, 2
    # resonances and, for the stronger drives, approaches n = 3.  Only lam
    # varies: a sweep point that lands near a south-pole passage makes
    # chi_series double its grid to 65536 samples, and one such seed in
    # about thirty costs 15 % more time and 30 MB more memory.
    lam = _lam(rng)
    cmds = [
        _sweep(lam, lam * f_amp, 0.0, lam * 0.25, lam * 2.2, 80) + ["--method", "fourier"]
        for f_amp in (0.3, 1.0, 1.8)
    ]
    return Workload(cmds, [_smallest(cmds[0])])


# strong-drive sweeps at omega0 = 1 before scaling: (F, omega start, omega stop)
_STRONG = ((4.0, 0.2, 0.1), (7.0, 0.07, 0.05), (9.0, 0.045, 0.036), (12.0, 0.04, 0.04 * 12 / 13))


def fourier_strong(rng):
    # F/omega from 20 to 400 (the fixed (1, 20, 0.05) point): truncation
    # orders 44 to 404 and chi grids up to the 65536-sample cap.  The two
    # fixed sweeps start at the known faults.
    lam = _lam(rng)
    cmds = [
        _sweep(lam, lam * f_amp, 0.0, lam * start, lam * stop, 2) + ["--method", "fourier"]
        for f_amp, start, stop in _STRONG
    ]
    fixed = [
        _sweep(1.0, f_amp, 0.0, 0.05, 0.08, 2) + ["--method", "fourier"] for f_amp in (15.0, 20.0)
    ]
    return Workload(
        cmds + fixed,
        [cmds[0]],
        # the split is sampled on a fixed 4096-point grid, too coarse for
        # hundreds of harmonics, so eps_g is not held to the derivative here
        derivative_check=False,
    )


def ode_sweep(rng):
    # elliptic drive 0 < G < F: only the ODE route applies
    lam = _lam(rng)
    cmds = []
    for f_base, g_base, start, stop in ((0.5, 0.3, 0.4, 2.0), (1.5, 0.7, 0.5, 2.5)):
        f_amp = _jitter(rng, f_base, 0.04)
        g_amp = _jitter(rng, g_base, 0.04)
        cmds.append(
            _sweep(
                lam,
                lam * f_amp,
                lam * g_amp,
                lam * _jitter(rng, start, 0.02),
                lam * _jitter(rng, stop, 0.02),
                14,
            )
        )
    return Workload(cmds, [_smallest(cmds[0])])


def resonance(rng):
    lam = _lam(rng)
    f_lo = lam * _jitter(rng, 0.02, 0.05)
    f_hi = lam * _jitter(rng, 8.0, 0.05)
    curves = [
        "resonance",
        "--n-list",
        ",".join(str(n) for n in RESONANCE_N),
        "--f-grid",
        f"{_num(f_lo)}:{_num(f_hi)}:60",
        "--log-grid",
        "--omega0",
        _num(lam),
        "--n-trunc",
        str(RESONANCE_N_TRUNC),
    ]
    tables = [
        ["bloch-siegert", "--n", str(n), "--max-m", str(BLOCH_SIEGERT_MAX_M)] for n in RESONANCE_N
    ]
    smallest = [
        [
            "resonance",
            "--n-list",
            "1",
            "--f-grid",
            f"{_num(f_lo)}:{_num(2 * f_lo)}:2",
            "--log-grid",
            "--omega0",
            _num(lam),
            "--n-trunc",
            str(RESONANCE_N_TRUNC),
        ],
        ["bloch-siegert", "--n", "1", "--max-m", "1"],
    ]
    return Workload([curves] + tables, smallest)


def make(name, seed):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return globals()[name](rng)
