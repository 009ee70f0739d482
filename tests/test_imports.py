"""No command loads scipy, which is a test dependency only.

The Fourier and ODE routes, the resonance search, the exact Bloch-Siegert
series and ``validate`` need only numpy, and importing scipy takes longer
than such a command.  Each case runs in a fresh interpreter, because this
one has scipy loaded already.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import floquet_tls

SRC = str(Path(floquet_tls.__file__).resolve().parent.parent)

# prints the scipy modules loaded after the body has run
SCRIPT = """\
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

MAIN = """\
from floquet_tls.cli import main
assert main(json.loads(sys.argv[1])) == 0
"""


def scipy_modules_after(body, argv=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(body=body), json.dumps(list(argv))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["floquet_tls", "floquet_tls.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules_after(f"import {module}") == []


SWEEP = ["quasienergy", "--omega0", "1", "--f", "0.5", "--omega-sweep", "0.5:2:4"]
SOLVE = ["solve", "--omega0", "1", "--f", "0.5", "--omega", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        SOLVE + ["--method", "fourier"],
        SOLVE + ["--g", "0.3", "--method", "ode"],
        SWEEP + ["--method", "fourier"],
        SWEEP + ["--method", "auto"],
        SWEEP + ["--method", "ode"],
        SWEEP + ["--g", "0.3"],
        ["bloch-siegert", "--n", "2", "--max-m", "4"],
        ["resonance", "--n-list", "1,2", "--f-grid", "0.02:0.5:3", "--log-grid"],
        ["validate"],
    ],
    ids=["solve-fourier", "solve-ode", "sweep-fourier", "sweep-auto", "sweep-ode", "sweep-elliptic",
         "bloch-siegert", "resonance", "validate"],
)
def test_numpy_only_commands_load_no_scipy(tmp_path, argv):
    argv = argv + ["--output", str(tmp_path / "out")]
    assert scipy_modules_after(MAIN, argv) == []


def test_strong_drive_fourier_sweep_loads_no_scipy(tmp_path):
    out = tmp_path / "out"
    argv = ["quasienergy", "--omega0", "1", "--f", "20", "--omega-sweep", "0.05:0.08:2",
            "--method", "fourier", "--output", str(out)]
    assert scipy_modules_after(MAIN, argv) == []
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row)

