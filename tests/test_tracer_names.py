"""The benchmark tracer (perfbench/tracer.py) wraps package functions by name.

A traced name that disappears from the package makes ``Tracer.install``
raise ``AttributeError``; this test makes that a test failure instead of a
broken ``--trace 1`` run.  A second test pins what the tracer's probes read
of the functions they wrap.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import floquet_tls
import floquet_tls.cli  # noqa: F401  (the tracer spans cli.main)
from floquet_tls import fourier_rpl, quasienergy, resonance
from floquet_tls.bloch_dynamics import DriveParams
from floquet_tls.errors import SouthPoleError

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # leaves no bytecode next to the tracer
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _namespaces():
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "floquet_tls"]
    classes = [v for m in mods for v in vars(m).values() if isinstance(v, type)]
    return {id(o): dict(vars(o)) for o in mods + classes}


def test_tracer_install_and_uninstall():
    tracer = _load_tracer()
    before = _namespaces()
    t = tracer.Tracer(floquet_tls)
    t.install()
    try:
        for name in ("brentq", "_scan_roots", "_track_root", "bessel_j0_zero"):
            assert getattr(resonance, name) is not before[id(resonance)][name]
        assert fourier_rpl.minors is not before[id(fourier_rpl)]["minors"]
        resonance.find_resonance(1, 0.5, n_trunc=20)
        metrics = t.take()
    finally:
        t.uninstall()
    assert set(metrics) == set(tracer.METRICS)
    after = _namespaces()
    for key, names in before.items():
        assert all(after[key].get(k) is v for k, v in names.items())


def test_tracer_reads_chi_samples_contract():
    # the tracer takes m from args[2] of quasienergy._chi_samples and chi
    # from index 4 of its result, and counts a SouthPoleError of chi_series
    tracer = _load_tracer()
    p = DriveParams(1.0, 0.5, 0.5, 1.4)

    def circle(z):
        def orbit(t):
            t = np.asarray(t, dtype=float)
            r = np.sqrt(1.0 - z * z)
            return np.stack([r * np.cos(p.omega * t), r * np.sin(p.omega * t), np.full(t.shape, z)], -1)

        return orbit

    t = tracer.Tracer(floquet_tls)
    t.install()
    try:
        quasienergy.chi_series(circle(0.5), p)
        metrics = t.take()
        with pytest.raises(SouthPoleError):
            quasienergy.chi_series(circle(-1.0 + 1e-6), p)
        flipped = t.take()
    finally:
        t.uninstall()
    assert metrics["quasienergy.chi_series.samples"] > 0
    assert metrics["quasienergy.chi_series.calls"] == 1
    assert metrics["quasienergy.chi_series.flips"] == 0
    assert flipped["quasienergy.chi_series.flips"] == 1
