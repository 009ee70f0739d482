"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces public functions of the ``floquet_tls`` modules
with timing wrappers at run time, in every module namespace that holds a
reference to them, and ``uninstall`` puts the originals back; the package's
source is not touched.  A span's self time is its wall time minus the time
of the wrapped calls made inside it.  A few private helpers get probes that
only count (samples drawn, scans run, fallbacks taken) and open no span.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path) of every span; the metric prefix is module.function.
# The first five below cli.main are every library call the commands make, so
# the self time of cli.main is the CLI's own overhead.
SPANS = (
    ("cli", "main"),
    ("quasienergy", "quasienergy_at"),
    ("quasienergy", "continue_branch"),
    ("quasienergy", "chi_series"),
    ("quasienergy", "split_geometric_dynamic"),
    ("fourier_rpl", "solve_auto"),
    ("fourier_rpl", "build_system"),
    ("fourier_rpl", "minors"),
    ("fourier_rpl", "RplFourierSolution.evaluate"),
    ("bloch_dynamics", "periodic_orbit"),
    ("bloch_dynamics", "monodromy_so3"),
    ("bloch_dynamics", "evolve_classical"),
    ("bloch_dynamics", "Trajectory.__call__"),
    ("resonance", "resonance_curve"),
    ("resonance", "to_triangle"),
    ("resonance", "find_resonance"),
    ("resonance", "brentq"),
    ("resonance", "bloch_siegert_coefficients"),
    ("series_limits", "RationalSeries.__mul__"),
    ("specfun", "bessel_j0_zero"),
)

# per-layer metrics: name -> unit; every traced run reports all of them
METRICS = {
    "fourier_rpl.solve_auto.calls": "count",
    "fourier_rpl.solve_auto.s": "s",
    "fourier_rpl.solve_auto.rebuilds_per_call": "count/call",
    "fourier_rpl.solve_auto.N_mean": "count",
    "fourier_rpl.minors.calls": "count",
    "fourier_rpl.minors.s": "s",
    "fourier_rpl.build_system.s": "s",
    "fourier_rpl.evaluate.s": "s",
    "fourier_rpl.evaluate.harmonic_evals": "count",
    "quasienergy.chi_series.calls": "count",
    "quasienergy.chi_series.s": "s",
    "quasienergy.chi_series.samples": "count",
    "quasienergy.chi_series.capped": "count",
    "quasienergy.chi_series.flips": "count",
    "quasienergy.split_geometric_dynamic.calls": "count",
    "quasienergy.split_geometric_dynamic.s": "s",
    "quasienergy.continue_branch.s": "s",
    "cli.overhead_s": "s",
    "bloch_dynamics.monodromy_so3.calls": "count",
    "bloch_dynamics.monodromy_so3.s": "s",
    "bloch_dynamics.evolve_classical.calls": "count",
    "bloch_dynamics.evolve_classical.s": "s",
    "bloch_dynamics.periodic_orbit.calls": "count",
    "bloch_dynamics.periodic_orbit.s": "s",
    "bloch_dynamics.rhs_evals": "count",
    "bloch_dynamics.dense_samples": "count",
    "resonance.find_resonance.scan_calls": "count",
    "resonance.find_resonance.tracked_calls": "count",
    "resonance.find_resonance.s": "s",
    "resonance.det_evals_per_point": "count/point",
    "resonance.brentq.calls": "count",
    "resonance.track_fallbacks": "count",
    "resonance.bloch_siegert_coefficients.calls": "count",
    "resonance.bloch_siegert_coefficients.s": "s",
    "series_limits.RationalSeries.mul.calls": "count",
    "series_limits.RationalSeries.mul.s": "s",
    "specfun.bessel_j0_zero.calls": "count",
    "specfun.bessel_j0_zero.s": "s",
}

_SPAN_NAMES = {
    "fourier_rpl.RplFourierSolution.evaluate": "fourier_rpl.evaluate",
    "series_limits.RationalSeries.__mul__": "series_limits.RationalSeries.mul",
    "bloch_dynamics.Trajectory.__call__": "bloch_dynamics.Trajectory.call",
}


class _Frame:
    __slots__ = ("name", "child", "data")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.data = None


class Tracer:
    """Spans and counters of one round; ``take`` returns them and resets."""

    def __init__(self, package):
        self.package = package
        self.stack = []
        self.patches = []
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, t0)
                if after is not None:
                    after(frame, args, kwargs, None, exc)
                raise
            self._close(frame, t0)
            if after is not None:
                after(frame, args, kwargs, result, None)
            return result

        return wrapper

    def _close(self, frame, t0):
        dt = time.perf_counter() - t0
        self.stack.pop()
        self.calls[frame.name] += 1
        self.self_s[frame.name] += dt - frame.child
        if self.stack:
            self.stack[-1].child += dt

    def _probe(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def _within(self, name):
        return any(f.name == name for f in self.stack)

    # -- counters -------------------------------------------------------------

    def _after_solve_auto(self, frame, args, kwargs, result, exc):
        if result is not None:
            self.count["solve_auto.N_sum"] += result.N

    def _after_build_system(self, frame, args, kwargs, result, exc):
        if self.stack and self.stack[-1].name == "fourier_rpl.solve_auto":
            self.count["solve_auto.builds"] += 1

    def _after_minors(self, frame, args, kwargs, result, exc):
        if self._within("resonance.find_resonance"):
            self.count["find_resonance.dets"] += 1

    def _after_evaluate(self, frame, args, kwargs, result, exc):
        sol, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
        self.count["evaluate.harmonic_evals"] += np.size(t) * sol.N

    def _after_dense(self, frame, args, kwargs, result, exc):
        self.count["dense_samples"] += np.size(args[1] if len(args) > 1 else kwargs["t"])

    def _after_chi_series(self, frame, args, kwargs, result, exc):
        if exc is not None:
            if type(exc).__name__ == "SouthPoleError":
                self.count["chi_series.flips"] += 1
            return
        # capped: the grid reached its cap with a0 still moving by the
        # settle threshold between the last two grids
        grids = frame.data or []
        q = self.package.quasienergy
        if len(grids) >= 2 and grids[-1][0] >= q._MAX_GRID:
            if abs(grids[-1][1] - grids[-2][1]) >= q._A0_SETTLE:
                self.count["chi_series.capped"] += 1

    def _after_chi_samples(self, args, result):
        m = args[2]
        if self.stack and self.stack[-1].name == "quasienergy.chi_series":
            frame = self.stack[-1]
            self.count["chi_series.samples"] += m
            frame.data = (frame.data or []) + [(m, float(np.mean(result[4])))]

    def _after_solve_ivp(self, args, result):
        self.count["rhs_evals"] += result.nfev

    def _after_find_resonance(self, frame, args, kwargs, result, exc):
        seeded = kwargs.get("seed") is not None or len(args) > 4 and args[4] is not None
        if seeded and not frame.data:
            self.count["find_resonance.tracked"] += 1

    def _after_track_root(self, args, result):
        if result is None:
            self.count["track_fallbacks"] += 1
            if self.stack:
                self.stack[-1].data = "fallback"

    def _after_scan_roots(self, args, result):
        self.count["scan_calls"] += 1

    # -- patching -------------------------------------------------------------

    def install(self):
        hooks = {
            "fourier_rpl.solve_auto": self._after_solve_auto,
            "fourier_rpl.build_system": self._after_build_system,
            "fourier_rpl.minors": self._after_minors,
            "fourier_rpl.RplFourierSolution.evaluate": self._after_evaluate,
            "bloch_dynamics.Trajectory.__call__": self._after_dense,
            "quasienergy.chi_series": self._after_chi_series,
            "resonance.find_resonance": self._after_find_resonance,
        }
        for module, path in SPANS:
            full = f"{module}.{path}"
            name = _SPAN_NAMES.get(full, f"{module}.{path.split('.')[-1]}")
            self._wrap(module, path, lambda fn, n=name, h=hooks.get(full): self._span(n, fn, h))
        probes = (
            ("quasienergy", "_chi_samples", self._after_chi_samples),
            ("bloch_dynamics", "solve_ivp", self._after_solve_ivp),
            ("resonance", "_track_root", self._after_track_root),
            ("resonance", "_scan_roots", self._after_scan_roots),
        )
        for module, path, after in probes:
            self._wrap(module, path, lambda fn, a=after: self._probe(fn, a))

    def _wrap(self, module, path, make):
        owner = getattr(self.package, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = make(original)
        if outer:
            # a method: every class attribute bound to the same function
            # (``__call__ = evaluate``, ``__rmul__ = __mul__``)
            for key, value in list(vars(owner).items()):
                if value is original:
                    self.patches.append((owner, key, original))
                    setattr(owner, key, wrapped)
            return
        # a function: every package module that imported it by name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == self.package.__name__ or mod_name.startswith(self.package.__name__ + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches.clear()

    # -- results --------------------------------------------------------------

    def take(self):
        """Per-layer metrics of the calls since the last ``take``."""
        c, s, n = self.calls, self.self_s, self.count
        out = {
            "cli.overhead_s": s["cli.main"],
            "fourier_rpl.solve_auto.rebuilds_per_call": _ratio(n["solve_auto.builds"], c["fourier_rpl.solve_auto"]),
            "fourier_rpl.solve_auto.N_mean": _ratio(n["solve_auto.N_sum"], c["fourier_rpl.solve_auto"]),
            "fourier_rpl.evaluate.harmonic_evals": n["evaluate.harmonic_evals"],
            "quasienergy.chi_series.samples": n["chi_series.samples"],
            "quasienergy.chi_series.capped": n["chi_series.capped"],
            "quasienergy.chi_series.flips": n["chi_series.flips"],
            "bloch_dynamics.rhs_evals": n["rhs_evals"],
            "bloch_dynamics.dense_samples": n["dense_samples"],
            "resonance.find_resonance.scan_calls": n["scan_calls"],
            "resonance.find_resonance.tracked_calls": n["find_resonance.tracked"],
            "resonance.det_evals_per_point": _ratio(n["find_resonance.dets"], c["resonance.find_resonance"]),
            "resonance.track_fallbacks": n["track_fallbacks"],
        }
        for metric in METRICS:
            if metric in out:
                continue
            span, kind = metric.rsplit(".", 1)
            out[metric] = float(c[span]) if kind == "calls" else s[span]
        self._reset()
        return out


def _ratio(a, b):
    return a / b if b else 0.0
