"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --first-seed 1 --output perfbench/baseline.json

Every workload in BENCHMARK.json runs ten times, at its run_seconds, with
seeds from ``--first-seed`` upwards, one fresh process per run.  For every
workload and end-to-end metric this prints the median of the runs, the
first and third quartiles (``statistics.quantiles(n=4)``) and the quartile
distance as a share of the median, the spread.  A spread above a third of
the metric's bound is marked WIDE, and the exit code is 1 when any is, when
a run is not correct, or when the share of failed operations differs
between runs.  setup_s is exempt from the spread test: it is held to its
bound only by comparing the medians of two sets of runs (see README.md).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _version(module):
    return __import__(module).__version__


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--output", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "machine": {
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "cpus": os.cpu_count(),
        },
        "runs": RUNS,
        "seconds": seconds,
        "first_seed": args.first_seed,
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, args.first_seed + i, seconds) for i in range(RUNS)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed_share": shares,
            "metrics": {},
        }
        print(f"{workload}: correct={entry['correct']} failed share={shares}")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name] = stats
            ok = name == "setup_s" or stats["spread"] <= bound / 3
            steady = steady and ok
            print(
                f"  {name:14s} median {stats['median']:.5g}  q1 {stats['q1']:.5g}  q3 {stats['q3']:.5g}"
                f"  spread {100 * stats['spread']:.2f}%  bound {100 * bound:.0f}%  {'ok' if ok else 'WIDE'}"
            )
        steady = steady and entry["correct"] and len(shares) == 1
        summary["workloads"][workload] = entry
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
