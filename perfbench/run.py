"""Benchmark of the floquet-tls command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fourier_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run makes the workload's command lines from the seed and

1. times ``setup_s``: fresh interpreters that import ``floquet_tls`` and run
   the workload's smallest command, median of several;
2. runs every command once in-process through ``floquet_tls.cli.main`` to
   warm up, then repeats the whole round for ``--seconds`` seconds and
   reports ``points_per_s`` (output rows per second, median over rounds)
   and ``peak_rss_mb`` of this process.  Both times are in calibrated
   seconds: each set-up time and each round time is divided by the
   ``yardstick`` time taken next to it (before the interpreter; the mean
   of the yardsticks run before each command of the round), the median of
   these ratios is multiplied by YARDSTICK_S, and this removes the drift
   in speed of a shared host; the wall times go to standard error;
3. checks every output row against the benchmark's own computations
   (``checks``, ``reference``) and requires every round's output to be
   byte-identical to the first.

With ``--trace 1`` rounds alternate between untraced and traced with the
spans of ``tracer`` installed; the per-layer metrics come from the traced
rounds and ``trace.overhead_pct`` is the median traced round time above
the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one thread everywhere, set before numpy loads a BLAS; the set-up
# interpreters inherit it.  FLOQUET_TLS_THREADS is the package's own pool
# for quasienergy and resonance points.
for _name in (
    "FLOQUET_TLS_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# A calibrated second is the time in which the yardstick runs YARDSTICK_S.
YARDSTICK_S = 0.05
IMPORTTIME_REPEATS = 3
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
SUBPROCESS_TIMEOUT = 120

_FRESH = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from floquet_tls.cli import main\n"
    "for argv in json.loads(sys.argv[2]):\n"
    "    main(argv)\n"
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def yardstick():
    """Wall time of a fixed piece of work that stands for the machine's speed.

    It mixes what the workloads do: numpy trig and FFTs on a few thousand
    samples, small numpy calls in a Python loop, plain float loops and
    Fraction arithmetic.  Shared hosts speed up and slow down by tens of
    per cent for tens of seconds at a time; dividing a measured time by the
    yardstick time taken next to it removes most of that drift, while a
    change to the program moves the measured time and not the yardstick.
    The garbage collector is off while it runs, so that the program's heap,
    which shares this process, does not add collections to its time.
    """
    gc.disable()
    try:
        return _yardstick_work()
    finally:
        gc.enable()


def _yardstick_work():
    t0 = time.perf_counter()
    # four parts of roughly equal time, about 50 ms in all
    x = np.linspace(0.0, 1.0, 4096)
    harmonics = np.arange(1, 33)
    acc = 0.0
    for _ in range(4):
        acc += float(np.cos(np.multiply.outer(x, harmonics)).sum())
        acc += float(np.fft.rfft(x).real[0])
    v = np.array([0.3, 0.2, 0.1])
    h = np.array([0.5, 0.0, 1.0])
    for _ in range(330):
        v = v + 1e-3 * np.cross(h, v)
    for i in range(80000):
        acc += math.sin(i * 1e-3)
    for _ in range(33):
        q = Fraction(1)
        for i in range(1, 60):
            q = q * Fraction(2 * i + 1, 3 * i + 2) + Fraction(1, i)
    return time.perf_counter() - t0


def calibrated(seconds, yardsticks):
    """Median time in calibrated seconds, each time paired with its yardstick."""
    return statistics.median(t / y for t, y in zip(seconds, yardsticks)) * YARDSTICK_S


def load_package():
    if not (SRC / "floquet_tls" / "__init__.py").is_file():
        raise BenchmarkError(f"no floquet_tls package under {SRC}")
    sys.path.insert(0, str(SRC))
    import floquet_tls
    import floquet_tls.cli

    if Path(floquet_tls.__file__).resolve().parent != SRC / "floquet_tls":
        raise BenchmarkError(f"imported floquet_tls from {floquet_tls.__file__}, not from {SRC}")
    return floquet_tls


def _with_outputs(commands, prefix):
    paths = [OUT / "work" / f"{prefix}{i}.csv" for i in range(len(commands))]
    return [argv + ["--output", str(p)] for argv, p in zip(commands, paths)], paths


def _fresh_run(commands, extra_flags=()):
    """Wall time of a fresh interpreter running ``commands``; its stderr."""
    argv, _ = _with_outputs(commands, "setup")
    cmd = [sys.executable, *extra_flags, "-c", _FRESH, str(SRC), json.dumps(argv)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up command failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def setup_seconds(workload):
    """Fresh-interpreter wall times and the yardstick taken before each."""
    _fresh_run(workload.setup_commands)  # untimed: fills the bytecode cache
    times, yards = [], []
    for _ in range(SETUP_REPEATS):
        yards.append(yardstick())
        times.append(_fresh_run(workload.setup_commands)[0])
    return times, yards


def import_seconds(workload):
    """Cumulative import time of floquet_tls and scipy.integrate (-X importtime)."""
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        _, err = _fresh_run(workload.setup_commands, ("-X", "importtime"))
        found = {"floquet_tls": 0.0, "scipy.integrate": 0.0}
        for line in err.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:") :].split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()] += int(parts[1]) * 1e-6
        samples.append(found)
    return {
        "import.floquet_tls_s": statistics.median(s["floquet_tls"] for s in samples),
        "import.scipy_integrate_s": statistics.median(s["scipy.integrate"] for s in samples),
    }


def run_round(cli, argvs, yards=None):
    """Seconds spent in cli.main over one round of the workload's commands.

    With a list ``yards``, the yardstick runs before every command, outside
    the timed part, and the mean of its times in this round is appended
    there.
    """
    elapsed = 0.0
    round_yards = []
    for argv in argvs:
        if yards is not None:
            round_yards.append(yardstick())
        t0 = time.perf_counter()
        cli.main(argv)
        elapsed += time.perf_counter() - t0
    if yards is not None:
        yards.append(statistics.mean(round_yards))
    return elapsed


def _read(paths):
    return [p.read_bytes() if p.exists() else b"" for p in paths]


def timed_rounds(cli, argvs, paths, seconds, first):
    """Repeat whole rounds until ``seconds`` have passed.

    Returns the round times, each round's mean yardstick time, and whether
    every round wrote the same bytes as ``first``.
    """
    times, yards = [], []
    identical = True
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_ROUNDS or time.perf_counter() < deadline:
        times.append(run_round(cli, argvs, yards))
        identical = identical and _read(paths) == first
    return times, yards, identical


def run(workload_name, seed, seconds, trace):
    workload = workloads.make(workload_name, seed)
    package = load_package()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    argvs, paths = _with_outputs(workload.commands, workload_name)
    metrics = {}
    if not trace:
        setup_times, setup_yards = setup_seconds(workload)
        metrics["setup_s"] = (calibrated(setup_times, setup_yards), "s")
    else:
        metrics.update({k: (v, "s") for k, v in import_seconds(workload).items()})

    cli = package.cli
    for p in paths:
        p.unlink(missing_ok=True)
    run_round(cli, argvs)  # warm-up round; its outputs are the ones checked
    first = _read(paths)
    rounds = 1
    if not trace:
        times, yards, identical = timed_rounds(cli, argvs, paths, seconds, first)
        rounds += len(times)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # traced and untraced rounds alternate, so that both see the same
        # machine; the overhead compares their medians
        spans = tracer.Tracer(package)
        plain, traced, per_round = [], [], []
        identical = True
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_TRACE_ROUNDS or time.perf_counter() < deadline:
            plain.append(run_round(cli, argvs))
            spans.install()
            try:
                traced.append(run_round(cli, argvs))
            finally:
                spans.uninstall()
            per_round.append(spans.take())
            identical = identical and _read(paths) == first
        rounds += len(plain) + len(traced)
        for name, unit in tracer.METRICS.items():
            metrics[name] = (statistics.median(r[name] for r in per_round), unit)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

    report = checks.check(workload, [b.decode("utf-8") for b in first], workloads.KNOWN_FAULTS)
    unexpected = [reason for key, reason in report.failed if key is None]
    if not identical:
        unexpected.append("output changed between rounds of the same commands")
    for reason in unexpected[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    for key, reason in report.failed:
        if key is not None:
            print(f"known fault: {reason}", file=sys.stderr)
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)

    if not trace:
        metrics["points_per_s"] = (report.rows / calibrated(times, yards), "1/s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        print(
            f"wall time: set-up {statistics.median(setup_times):.4f} s, "
            f"round {statistics.median(times):.4f} s, yardstick {statistics.median(yards):.4f} s",
            file=sys.stderr,
        )
    return {
        "correct": not unexpected,
        "attempted": report.rows * rounds,
        "failed": len(report.failed) * rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in its own process; metrics prefixed by workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchmarkError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
        _print_summary(name, result)
    return total


def _print_summary(name, result):
    print(
        f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
    )
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run(args.workload, args.seed, args.seconds, args.trace)
            _print_summary(args.workload, result)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
