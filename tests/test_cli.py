"""Command-line surface: artifacts, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import floquet_tls
from floquet_tls import bloch_dynamics, cli, fourier_rpl, quasienergy
from floquet_tls.bloch_dynamics import DriveParams, periodic_orbit
from floquet_tls.errors import DegenerateMonodromyError, DomainError
from floquet_tls.exact_models import rpc_quasienergies


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) if v != "NaN" else math.nan for v in r] for r in rows[1:]]


def test_solve_fourier_csv(tmp_path):
    out = tmp_path / "traj.csv"
    rc = cli.main(
        [
            "solve", "--omega0", "1", "--f", "0.5", "--omega", "2",
            "--method", "fourier", "--n-trunc", "20", "-o", str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t", "X", "Y", "Z", "norm"]
    assert len(rows) == 1024
    norms = np.array([r[4] for r in rows])
    assert np.abs(norms - 1.0).max() < 1e-6


@pytest.mark.parametrize("method", ["fourier", "ode"])
def test_solve_samples_match_pointwise_evaluation(tmp_path, method):
    out = tmp_path / "traj.csv"
    argv = ["solve", "--omega0", "1", "--f", "0.5", "--g", "0.0", "--omega", "2",
            "--method", method, "--samples", "300", "-o", str(out)]
    assert cli.main(argv) == 0
    _, rows = read_csv(out)
    data = np.array(rows)
    p = DriveParams(1.0, 0.5, 0.0, 2.0)
    ts = np.arange(300) * (p.T / 300)
    if method == "fourier":
        ref = fourier_rpl.solve_auto(p, "phi1", start=20).normalized().evaluate(ts)
    else:
        ref = periodic_orbit(p)(ts)
    assert np.array_equal(data[:, 0], ts)
    assert np.abs(data[:, 1:4] - ref).max() < 1e-12


def test_solve_rejects_empty_sample_grid(tmp_path):
    argv = ["solve", "--omega0", "1", "--f", "0.5", "--omega", "2", "--samples", "0",
            "-o", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 1


def test_solve_rpc_circle(tmp_path):
    out = tmp_path / "circle.csv"
    rc = cli.main(
        ["solve", "--omega0", "1", "--f", "1", "--g", "1", "--omega", "1",
         "--method", "ode", "-o", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    data = np.array(rows)
    ref = np.stack([np.cos(data[:, 0]), np.sin(data[:, 0]), np.zeros(len(data))], axis=-1)
    assert np.abs(data[:, 1:4] - ref).max() < 1e-8


def test_solve_compare_flag(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = cli.main(
        ["solve", "--omega0", "1", "--f", "0.5", "--omega", "2",
         "--method", "fourier", "--compare", "-o", str(out)]
    )
    assert rc == 0
    assert "max deviation" in capsys.readouterr().err


def test_missing_flag_usage_error(capsys):
    rc = cli.main(["solve", "--f", "1"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err


def test_degenerate_point_math_error(tmp_path):
    # omega0 = 0 linear drive: the monodromy is the identity
    rc = cli.main(
        ["solve", "--omega0", "0", "--f", "1", "--omega", "1", "--method", "ode",
         "-o", str(tmp_path / "x.csv")]
    )
    assert rc == 2


def test_quasienergy_sweep_rpc_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["quasienergy", "--omega0", "1", "--f", "0.5", "--g", "0.5",
         "--omega-sweep", "0.7:1.5:9", "--method", "ode", "-o", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["omega", "epsilon", "epsilon_mod", "eps_g", "eps_d", "branch"]
    for row in rows:
        w = row[0]
        p = DriveParams(1.0, 0.5, 0.5, w)
        ref = rpc_quasienergies(p).eps_plus
        d = min((row[1] - ref) % w, (ref - row[1]) % w)
        d2 = min((row[1] + ref) % w, (-ref - row[1]) % w)
        assert min(d, d2) < 1e-8
        assert 0.0 <= row[2] < w
        assert abs(row[1] - row[3] - row[4]) < 1e-8


def test_quasienergy_sweep_small_omega_end(tmp_path):
    out = tmp_path / "sweep.json"
    rc = cli.main(
        ["quasienergy", "--omega0", "1", "--f", "0.5",
         "--omega-sweep", "0.01:0.05:3", "--format", "json", "-o", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert "config" in payload
    first = payload["rows"][0]
    assert abs(first[0] - 0.01) < 1e-15
    assert abs(first[1] - 0.52992) < 2e-4


def test_quasienergy_gradient_column(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        ["quasienergy", "--omega0", "1", "--f", "0.5",
         "--omega-sweep", "1.6:2.4:33", "-o", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    data = np.array(rows)
    deriv = np.gradient(data[:, 1], data[:, 0])
    ratio = data[:, 3] / data[:, 0]
    assert np.abs(deriv[2:-2] - ratio[2:-2]).max() < 1e-4


def test_resonance_command(tmp_path):
    out = tmp_path / "res.csv"
    rc = cli.main(
        ["resonance", "--n-list", "1,2", "--f-grid", "0.000001:1:4",
         "--omega0", "1", "-o", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["n", "F", "omega_res", "residual", "tri_x", "tri_y"]
    first = rows[0]
    assert abs(first[2] - 1.0) < 1e-5  # n = 1 endpoint at F -> 0
    for row in rows:
        x, y = row[4], row[5]
        # inside the open triangle
        assert 0.0 < y < math.sqrt(3) / 2
        assert abs(x) < 0.5


def test_bloch_siegert_json_exact(tmp_path):
    out = tmp_path / "bs.json"
    rc = cli.main(
        ["bloch-siegert", "--n", "1", "--max-m", "3", "--format", "json", "-o", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    coeffs = payload["coefficients"]
    assert [c["numerator"] for c in coeffs] == ["1", "1", "-35"]
    assert [c["denominator"] for c in coeffs] == ["16", "1024", "131072"]


def test_bloch_siegert_csv(tmp_path):
    out = tmp_path / "bs.csv"
    rc = cli.main(["bloch-siegert", "--n", "4", "--max-m", "1", "-o", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["4", "2", "7", "192"]


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["quasienergy", "--omega0", "1", "--f", "0.4", "--omega-sweep",
            "1.5:2.5:7", "--format", "json", "--seed", "3"]
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_validate_passes(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["validate", "--only", "toy_oracle,split,lift", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert {c["name"] for c in payload["checks"]} == {"toy_oracle", "split", "lift"}


def test_validate_unknown_check(tmp_path):
    rc = cli.main(["validate", "--only", "nonsense", "-o", str(tmp_path / "r.json")])
    assert rc == 1


def test_validate_detects_injected_sign_error(tmp_path, monkeypatch):
    """Mutation test: a wrong sign in the coefficient matrix must be caught."""
    real_build = fourier_rpl.build_system

    def tampered(params, n_trunc, exact=False):
        sys_ = real_build(params, n_trunc, exact=exact)
        sys_.sub = [-v for v in sys_.sub]  # flip the subdiagonal sign
        return sys_

    monkeypatch.setattr(fourier_rpl, "build_system", tampered)
    rc = cli.main(
        ["validate", "--only", "fourier_vs_ode", "-o", str(tmp_path / "r.json")]
    )
    assert rc == 3
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["all_passed"] is False


def test_validate_split_detects_eps_d_error(tmp_path, monkeypatch):
    """Mutation test: a 1e-4 relative error in eps_d must fail the split check."""
    real_split = quasienergy.split_geometric_dynamic

    def tampered(orbit, drive, grid=4096):
        eps_g, eps_d = real_split(orbit, drive, grid)
        return eps_g, eps_d * (1.0 + 1e-4)

    monkeypatch.setattr(quasienergy, "split_geometric_dynamic", tampered)
    rc = cli.main(["validate", "--only", "split", "-o", str(tmp_path / "r.json")])
    assert rc == 3


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_failed_sweep_point_is_json_null(tmp_path, monkeypatch):
    real_at = quasienergy.quasienergy_at

    def failing_at(params, **kwargs):
        if params.omega == 2.0:
            raise DomainError("injected failure")
        return real_at(params, **kwargs)

    monkeypatch.setattr(quasienergy, "quasienergy_at", failing_at)
    args = ["quasienergy", "--omega0", "1", "--f", "0.5", "--omega-sweep", "1.0:3.0:21"]
    out_json, out_csv = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    assert cli.main(args + ["--format", "json", "-o", str(out_json)]) == 0
    assert cli.main(args + ["-o", str(out_csv)]) == 0
    payload = json.loads(out_json.read_text(), parse_constant=_reject_constant)
    failed = payload["rows"][10]
    assert failed == [2.0, None, None, None, None, 0]
    assert all(v is not None for row in payload["rows"][:10] for v in row)
    # CSV keeps writing NaN for the failed row
    assert out_csv.read_text().splitlines()[11] == "2,NaN,NaN,NaN,NaN,0"


def test_failed_ode_point_marks_only_its_row(tmp_path, monkeypatch, capsys):
    args = ["quasienergy", "--omega0", "1", "--f", "0.5", "--g", "0.3",
            "--omega-sweep", "0.5:2.4:20"]  # two batches: 16 + 4 points
    clean, patched = tmp_path / "clean.csv", tmp_path / "patched.csv"
    assert cli.main(args + ["-o", str(clean)]) == 0
    real_state = bloch_dynamics.periodic_initial_state
    calls = []

    def failing_state(m):
        calls.append(m)
        if len(calls) == 6:  # the fixed point of omega = 1.0
            raise DegenerateMonodromyError("injected failure")
        return real_state(m)

    monkeypatch.setattr(bloch_dynamics, "periodic_initial_state", failing_state)
    assert cli.main(args + ["-o", str(patched)]) == 0
    assert "omega=1: injected failure" in capsys.readouterr().err
    want = clean.read_text().splitlines()
    got = patched.read_text().splitlines()
    assert got[6] == "1,NaN,NaN,NaN,NaN,0"
    assert got[:6] + got[7:] == want[:6] + want[7:]


def test_tolerance_below_batch_floor_exits_2(tmp_path, capsys):
    # a 16-point batch runs at tol/4, below DOP853's 100 eps floor here
    out = tmp_path / "sweep.csv"
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "0.5", "--g", "0.3",
                   "--omega-sweep", "0.5:2:16", "--tol", "5e-14", "-o", str(out)])
    assert rc == 2
    assert "tolerance must lie in [8.88e-14, 1e-6], got 5e-14" in capsys.readouterr().err
    assert not out.exists()


def test_full_batch_at_tol_1e13_gets_its_tolerance(tmp_path):
    args = ["quasienergy", "--omega0", "1", "--f", "0.5", "--g", "0.3",
            "--omega-sweep", "0.5:2:16", "--tol", "1e-13", "-o", str(tmp_path / "sweep.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(args) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == []


@pytest.mark.parametrize("module", ["floquet_tls", "floquet_tls.cli"])
def test_run_as_module_without_runpy_warning(module):
    src = str(Path(floquet_tls.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "validate", "--only", "toy_oracle"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


def test_threads_option_is_gone(capsys):
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "0.5",
                   "--omega-sweep", "1.6:2.0:5", "--threads", "2"])
    assert rc == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["quasienergy", "--omega0", "1", "--f", "0.5", "--omega-sweep", "a:2:3"], "'a:2:3'"),
        (["resonance", "--f-grid", "0.1:x:3"], "'0.1:x:3'"),
        (["resonance", "--n-list", "1,x", "--f-grid", "0.1:1:3"], "'1,x'"),
        (["resonance", "--f-grid", "0:1:3", "--log-grid"], "'0:1:3'"),
    ],
)
def test_malformed_input_is_a_usage_error(argv, bad, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and bad in lines[0]
    assert "Traceback" not in captured.err


def test_stdout_output(capsys):
    rc = cli.main(["bloch-siegert", "--n", "2", "--max-m", "1"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "3" in captured and "32" in captured


def test_solve_json_harmonic_table(tmp_path):
    out = tmp_path / "traj.json"
    rc = cli.main(
        ["solve", "--omega0", "1", "--f", "0.5", "--omega", "2",
         "--method", "fourier", "--format", "json", "-o", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert len(payload["harmonics"]["x"]) >= 20
    assert payload["config"]["method"] == "fourier"
