"""Command-line surface: artifacts, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import floquet_tls
from floquet_tls import bloch_dynamics, cli, fourier_rpl, quasienergy, resonance
from floquet_tls.bloch_dynamics import DriveParams, periodic_orbit
from floquet_tls.errors import ContinuityWarning, DegenerateMonodromyError, DomainError
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
        ref = fourier_rpl.solve_auto(p, start=20).normalized().evaluate(ts)
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


def test_resonance_fiftieth_curve(tmp_path):
    # tracking asks for the neighbouring zero j_{0,51}; at N = 120 the
    # determinant ratios reach 2^+-1000, and Brent extrapolation steps that
    # overflow fall back to bisection without a RuntimeWarning
    out = tmp_path / "res.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["resonance", "--n-list", "50", "--n-trunc", "120",
                       "--f-grid", "0.01:0.02:2", "-o", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert [row[:2] for row in rows] == [[50, 0.01], [50, 0.02]]
    assert all(abs(row[2] - 1 / 99) < 1e-5 for row in rows)


def _count_resonance_calls(monkeypatch, name):
    calls = []
    original = getattr(resonance, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(resonance, name, counted)
    return calls


def test_resonance_command_solves_once_for_every_index(tmp_path, monkeypatch):
    solves = _count_resonance_calls(monkeypatch, "_odd_mode_roots")
    passes = _count_resonance_calls(monkeypatch, "_det_signs")
    args = ["resonance", "--n-list", "1,2,3", "--f-grid", "0.02:8:60", "--log-grid",
            "--n-trunc", "50", "-o", str(tmp_path / "res.csv")]
    assert cli.main(args) == 0
    assert [call[2] for call in solves] == [50, 54]
    assert len(passes) == 1


def _per_index_rows(n_list, grid, omega0=1.0, n_trunc=50):
    rows = []
    for n in n_list:
        for pt in resonance.resonance_curve(n, grid, omega0, n_trunc):
            tri = resonance.to_triangle(DriveParams(omega0, pt.F, 0.0, pt.omega_res))
            rows.append([n, pt.F, pt.omega_res, pt.residual, tri.x, tri.y])
    return rows


@pytest.mark.parametrize(
    "n_list, f_grid",
    [("1,2,3", "0.02:8:60"), ("3,1,1", "0.02:8:60"), ("3,1,1", "8:0.02:30"), ("2,1", "1.5:0.1:9")],
)
def test_resonance_command_bytes_equal_per_index_curves(tmp_path, n_list, f_grid):
    start, stop, count = f_grid.split(":")
    grid = np.geomspace(float(start), float(stop), int(count))
    rows = _per_index_rows([int(n) for n in n_list.split(",")], grid)
    args = ["resonance", "--n-list", n_list, "--f-grid", f_grid, "--log-grid", "--n-trunc", "50"]
    out_csv, out_json = tmp_path / "res.csv", tmp_path / "res.json"
    assert cli.main(args + ["-o", str(out_csv)]) == 0
    assert cli.main(args + ["--format", "json", "-o", str(out_json)]) == 0
    header = ["n", "F", "omega_res", "residual", "tri_x", "tri_y"]
    assert out_csv.read_bytes() == cli._csv_text(header, _columns(rows)).encode()
    payload = json.loads(out_json.read_text())
    assert payload["rows"] == rows
    assert out_json.read_bytes() == cli._json_text(payload).encode()


def test_resonance_command_checks_every_index_before_solving(tmp_path, monkeypatch, capsys):
    solves = _count_resonance_calls(monkeypatch, "_odd_mode_roots")
    out = tmp_path / "res.csv"
    rc = cli.main(["resonance", "--n-list", "1,30", "--f-grid", "0.02:8:6", "-o", str(out)])
    assert rc == 2
    assert "resonance 30 needs a higher truncation order" in capsys.readouterr().err
    assert not out.exists()
    assert solves == []


def test_resonance_row_failing_the_sign_check_exits_2(tmp_path, capsys):
    # the top index of N = 21 at F/omega0 = 667: its eigen root misses the
    # sign change of det A^(N) (tests/test_resonance.py pins where)
    out = tmp_path / "res.csv"
    argv = ["resonance", "--n-list", "10,11", "--f-grid", "100:200:2", "--omega0", "0.3"]
    rc = cli.main([*argv, "--n-trunc", "21", "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "resonance 11 at F = 200.0" in err and "suggested N = 37" in err
    assert not out.exists()
    assert cli.main([*argv, "--n-trunc", "37", "-o", str(out)]) == 0


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


def _columns(rows):
    """The columns of a table given as rows."""
    return [list(column) for column in zip(*rows)]


def _reference_csv_text(header, rows):
    """CSV through csv.writer, cell by cell: floats as .17g, NaN as NaN, else str."""

    def cell(x):
        if isinstance(x, float):
            return "NaN" if math.isnan(x) else format(x, ".17g")
        return str(x)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue()


def _assert_unquoted_csv(text, header):
    """Every line splits on commas into the header's cells; none needs RFC-4180 quoting."""
    lines = text.split("\r\n")
    assert lines[-1] == "" and lines[0] == ",".join(header)
    for line in lines[:-1]:
        assert not any(c in line for c in '"\r\n')
        assert list(csv.reader([line])) == [line.split(",")]
        assert len(line.split(",")) == len(header)


def test_csv_text_bytes_match_csv_writer():
    sigmas = resonance.bloch_siegert_coefficients(7, 12)
    big = [[7, 2 * (m + 1), str(s.numerator), str(s.denominator)] for m, s in enumerate(sigmas)]
    assert max(len(row[2]) for row in big) > 40
    rows = [
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324],
        [0.1 + 0.2, 1 / 3, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16 + 2, 1e-7],
        [123456789.12345679, -9007199254740993.0, 2.0**-1074, 1e22, 0.5, -1.0000000000000002],
        [np.float64(math.nan), np.float64(-0.0), np.float64(0.1 + 0.2), np.float64(-math.inf),
         np.float64(5e-324), np.float64(1 / 3)],
        [0, -2, 10**40, np.int64(-7), 2**63, -(10**30)],
    ] + [row + ["0", "-1"] for row in big]
    header = ["a", "b", "c", "d", "e", "f"]
    text = cli._csv_text(header, _columns(rows))
    assert text == _reference_csv_text(header, rows)
    _assert_unquoted_csv(text, header)
    assert text.split("\r\n")[1] == "NaN,inf,-inf,-0,0,4.9406564584124654e-324"
    assert cli._csv_text(header, [[] for _ in header]) == "a,b,c,d,e,f\r\n"
    # float and int ndarray columns, as the quasienergy sweep writes them
    floats = rows[:4]
    arrays = [np.array(column, dtype=float) for column in _columns(floats)]
    arrays[-1] = np.array([0, -2, 10**15, -7])
    assert cli._csv_text(header, arrays) == _reference_csv_text(
        header, [row[:-1] + [v] for row, v in zip(floats, (0, -2, 10**15, -7))]
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--omega0", "1", "--f", "0.5", "--omega", "2", "--method", "fourier", "--samples", "64"],
        ["solve", "--omega0", "1", "--f", "0.5", "--g", "0.3", "--omega", "2", "--samples", "64"],
        ["quasienergy", "--omega0", "1", "--f", "0", "--omega-sweep", "1:3:21", "--method", "fourier"],
        ["quasienergy", "--omega0", "1", "--f", "0.5", "--g", "0.3", "--omega-sweep", "0.4:2:20"],
        ["resonance", "--n-list", "1,2,3", "--f-grid", "0.01:10:20", "--log-grid"],
        ["bloch-siegert", "--n", "7", "--max-m", "12"],
    ],
)
def test_command_csv_bytes_match_csv_writer(tmp_path, monkeypatch, capsys, argv):
    tables = []
    real = cli._csv_text

    def recording(header, columns):
        text = real(header, columns)
        tables.append((header, list(zip(*columns)), text))
        return text

    monkeypatch.setattr(cli, "_csv_text", recording)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["-o", str(out)]) == 0
    ((header, rows, text),) = tables
    assert out.read_bytes() == text.encode() == _reference_csv_text(header, rows).encode()
    _assert_unquoted_csv(text, header)


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


def test_validate_bloch_siegert_is_exact(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["validate", "--only", "bloch_siegert", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["checks"] == [
        {"name": "bloch_siegert", "passed": True, "worst": 0.0, "tolerance": 0.0}
    ]


def test_validate_bloch_siegert_detects_a_wrong_closed_form(tmp_path, monkeypatch):
    """Mutation test: sigma_6 off by one part in 10^30 must fail the exact check."""
    real_closed_form = resonance.sigma_closed_form

    def tampered(n, m):
        value = real_closed_form(n, m)
        return value * (1 + Fraction(1, 10**30)) if (n, m) == (8, 3) else value

    monkeypatch.setattr(resonance, "sigma_closed_form", tampered)
    rc = cli.main(["validate", "--only", "bloch_siegert", "-o", str(tmp_path / "r.json")])
    assert rc == 3
    [check] = json.loads((tmp_path / "r.json").read_text())["checks"]
    assert check["passed"] is False and 0.0 < check["worst"] < 1e-30


def test_validate_unknown_check(tmp_path):
    rc = cli.main(["validate", "--only", "nonsense", "-o", str(tmp_path / "r.json")])
    assert rc == 1


@pytest.mark.parametrize("only", [",", ",,", ""])
def test_validate_only_naming_no_check_is_a_usage_error(tmp_path, capsys, only):
    out = tmp_path / "r.json"
    rc = cli.main(["validate", "--only", only, "-o", str(out)])
    assert rc == 1
    assert "--only names no check" in capsys.readouterr().err
    assert not out.exists()


def test_validate_detects_injected_sign_error(tmp_path, monkeypatch):
    """Mutation test: a wrong sign in the coefficient matrix must be caught."""
    real_build = fourier_rpl.build_system

    def tampered(params, n_trunc):
        sys_ = real_build(params, n_trunc)
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
    real_eps_d = quasienergy._eps_d

    def tampered(dot, radius):
        return real_eps_d(dot, radius) * (1.0 + 1e-4)

    monkeypatch.setattr(quasienergy, "_eps_d", tampered)
    rc = cli.main(["validate", "--only", "split", "-o", str(tmp_path / "r.json")])
    assert rc == 3


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def _fail_fourier_sweep_at(monkeypatch, omega):
    real_solve = fourier_rpl._solve_sweep

    def failing_solve(base, omegas, *args, **kwargs):
        sols = real_solve(base, omegas, *args, **kwargs)
        keep = sols.omega != omega
        return fourier_rpl.Truncations(
            sols.rows[keep], sols.N[keep], sols.coeffs[keep], sols.omega0[keep], sols.omega[keep],
            {**sols.errors, **{int(i): DomainError("injected failure") for i in sols.rows[~keep]}},
        )

    monkeypatch.setattr(fourier_rpl, "_solve_sweep", failing_solve)


def test_failed_sweep_point_is_json_null(tmp_path, monkeypatch):
    _fail_fourier_sweep_at(monkeypatch, 2.0)
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
    real_fixed_points = bloch_dynamics._fixed_points

    def failing_fixed_points(maps, *tested):
        x0, errors = real_fixed_points(maps, *tested)
        if maps.shape[-1] == 16:  # the first batch, omega = 0.5, 0.6, ...: member 5 is omega = 1.0
            errors[5] = DegenerateMonodromyError("injected failure")
        return x0, errors

    monkeypatch.setattr(bloch_dynamics, "_fixed_points", failing_fixed_points)
    assert cli.main(args + ["-o", str(patched)]) == 0
    assert "omega=1: injected failure" in capsys.readouterr().err
    want = clean.read_text().splitlines()
    got = patched.read_text().splitlines()
    assert got[6] == "1,NaN,NaN,NaN,NaN,0"
    assert got[:6] + got[7:] == want[:6] + want[7:]


def test_failed_fourier_point_marks_only_its_row(tmp_path, monkeypatch, capsys):
    # the failed row leaves its block of 16, whose other rows keep their bytes
    args = ["quasienergy", "--omega0", "1", "--f", "0.5", "--method", "fourier",
            "--omega-sweep", "0.5:2.4:20"]
    clean, patched = tmp_path / "clean.csv", tmp_path / "patched.csv"
    assert cli.main(args + ["-o", str(clean)]) == 0
    _fail_fourier_sweep_at(monkeypatch, 1.0)
    assert cli.main(args + ["-o", str(patched)]) == 0
    assert "omega=1: injected failure" in capsys.readouterr().err
    want = clean.read_text().splitlines()
    got = patched.read_text().splitlines()
    assert got[6] == "1,NaN,NaN,NaN,NaN,0"
    assert got[:6] + got[7:] == want[:6] + want[7:]


def test_unsettled_sweep_point_is_a_nan_row(tmp_path, monkeypatch, capsys):
    # the (1, 15, 0.05) point settles on 32768 samples, its neighbour on 16384
    monkeypatch.setattr(quasienergy, "_MAX_GRID", 16384)
    out = tmp_path / "sweep.json"
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "15", "--omega-sweep", "0.05:0.08:2",
                   "--method", "fourier", "--format", "json", "-o", str(out)])
    assert rc == 2  # one failed point of two
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("omega=0.05: mean of chi unsettled on 16384")
    rows = json.loads(out.read_text())["rows"]
    assert rows[0] == [0.05, None, None, None, None, 0]
    assert all(v is not None for v in rows[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_solution_row_is_a_nan_row_without_a_warning(tmp_path, capsys):
    # F = 0 at omega = omega0 is the zero solution; one failed row of 21 exits 0
    out = tmp_path / "sweep.csv"
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "0", "--omega-sweep", "1:3:21",
                   "--method", "fourier", "-o", str(out)])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "omega=1: orbit is the zero solution, R = 0, where chi is undefined"
    ]
    _, rows = read_csv(out)
    assert all(math.isnan(v) for v in rows[0][1:5]) and rows[1][2] == 0.5


def _sweep_table(tmp_path, method, f, sweep):
    out = tmp_path / f"{method}.csv"
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", f, "--omega-sweep", sweep,
                   "--method", method, "-o", str(out)])
    return rc, np.array(read_csv(out)[1])


@pytest.mark.parametrize(
    "f, sweep",
    [("1.8", "0.25:2.2:80"), ("0.5", "0.04:2:200"), ("0.3", "0.25:2.2:80"), ("1", "0.25:2.2:80")],
)
def test_both_routes_report_one_orbit_family(tmp_path, f, sweep):
    # the F = 1.8 sweep once started at -0.549 on the Fourier route and 0.799 on the ODE route
    (rc_f, fourier), (rc_o, ode) = (_sweep_table(tmp_path, m, f, sweep) for m in ("fourier", "ode"))
    assert rc_f == rc_o == 0
    assert np.array_equal(fourier[:, 5], ode[:, 5])
    assert np.abs(fourier - ode).max() <= 1e-11


def test_zero_drive_fourier_sweep_is_the_north_pole(tmp_path, capsys):
    # F = 0: every orbit is oriented onto (0, 0, 1), eps = omega0 / 2 on both routes, where
    # the ODE route rejects the degenerate monodromy of omega = 0.1 = omega0 / 10 alone
    (rc_f, fourier), (rc_o, ode) = (
        _sweep_table(tmp_path, m, "0", "0.1:2:60") for m in ("fourier", "ode")
    )
    assert rc_f == rc_o == 0
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("omega=0.1: rotation angle") and err.endswith("not one-dimensional")
    assert np.all(fourier[:, 1] == 0.5) and np.all(fourier[:, 4] == 0.5)
    assert np.array_equal(fourier[1:], ode[1:])


def test_near_pole_first_row_keeps_minus_z_branch(tmp_path):
    # the (1, 15, 0.05) orbit passes 1.7e-5 R from the south pole; its first
    # row was once reported on branch -97
    out = tmp_path / "sweep.csv"
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "15", "--omega-sweep", "0.05:0.08:2",
                   "--method", "fourier", "-o", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert rows[0][5] == -92


def test_unconverged_truncation_fails_loudly(tmp_path, monkeypatch, capsys):
    # at (1, 20, 0.05) no order up to the cap N = 524 reaches coeff_tol = 1e-40; at 0.08 one does
    # (a lone point is a sweep of one, so this covers solve and quasienergy alike)
    monkeypatch.setattr(fourier_rpl, "_COEFF_TOL", 1e-40)
    reason = "truncation N = 524 unconverged at its cap: tail ratio 3.44e-30 > coeff_tol 1e-40"
    out = tmp_path / "traj.csv"
    rc = cli.main(["solve", "--omega0", "1", "--f", "20", "--omega", "0.05", "--method", "fourier",
                   "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {reason}"]
    assert not out.exists()
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "20", "--omega-sweep", "0.05:0.08:2",
                   "--method", "fourier", "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"omega=0.05: {reason}"]
    rows = out.read_text().splitlines()
    assert rows[1] == "0.050000000000000003,NaN,NaN,NaN,NaN,0"
    assert "NaN" not in rows[2]


@pytest.mark.parametrize("count", [1, 16])
def test_tolerance_below_orbit_floor_exits_2(tmp_path, capsys, count):
    # the floor of a periodic orbit's error bound does not depend on the batch size
    out = tmp_path / "sweep.csv"
    if count == 1:
        argv = ["solve", "--omega", "1", "--method", "ode"]
    else:
        argv = ["quasienergy", "--omega-sweep", f"0.5:2:{count}"]
    argv += ["--omega0", "1", "--f", "0.5", "--g", "0.3", "--tol", "4e-14", "-o", str(out)]
    rc = cli.main(argv)
    assert rc == 2
    assert "tolerance must lie in [5e-14, 1e-6], got 4e-14" in capsys.readouterr().err
    assert not out.exists()


def test_orbit_above_tolerance_at_step_cap_fails_loudly(tmp_path, monkeypatch, capsys):
    # with the cap at 2048 Magnus steps, omega = 0.01 (a field about 100
    # omega) keeps an error estimate above 1e-12; omega = 1 meets it
    monkeypatch.setattr(bloch_dynamics, "MAX_STEPS", bloch_dynamics.MIN_STEPS)
    reason = "monodromy error estimate 3.23e-10 above tol 1e-12 at S = 2048 Magnus steps"
    out = tmp_path / "sweep.csv"
    rc = cli.main(["solve", "--omega0", "1", "--f", "0.5", "--g", "0.3", "--omega", "0.01",
                   "--method", "ode", "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {reason}"]
    assert not out.exists()
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "0.5", "--g", "0.3",
                   "--omega-sweep", "0.01:1:2", "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"omega=0.01: {reason}"]
    rows = out.read_text().splitlines()
    assert rows[1] == "0.01,NaN,NaN,NaN,NaN,0"
    assert "NaN" not in rows[2]


def test_fourier_sweep_below_truncation_two_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "0.5", "--omega-sweep", "0.5:2:3",
                   "--n-trunc", "1", "-o", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: truncation order must be >= 2, got 1"]
    assert not out.exists()


def test_fourier_sweep_with_nonzero_g_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["quasienergy", "--omega0", "1", "--f", "0.5", "--g", "0.3", "--method", "fourier",
                   "--omega-sweep", "0.5:2:3", "-o", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: fourier route requires G = 0"]
    assert not out.exists()


def test_full_batch_at_tol_1e13_gets_its_tolerance(tmp_path, capsys):
    args = ["quasienergy", "--omega0", "1", "--f", "0.5", "--g", "0.3",
            "--omega-sweep", "0.5:2:16", "--tol", "1e-13", "-o", str(tmp_path / "sweep.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(args) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == []
    assert capsys.readouterr().err == ""  # the sweep prints its own warnings


def test_sweep_warning_is_one_line_without_path(tmp_path, capsys):
    args = ["quasienergy", "--omega0", "1", "--f", "7", "--omega-sweep", "0.07:0.05:2",
            "-o", str(tmp_path / "sweep.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert cli.main(args) == 0
    assert capsys.readouterr().err == (
        "warning: branch continuation jump 1.590e-02 exceeds omega/4 at omega=0.05\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContinuityWarning, match="jump 1.590e-02"):
            cli.main(args)


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
        (["quasienergy", "--omega0", "1", "--f", "0.5", "--omega-sweep", "0.5:nan:3"], "'0.5:nan:3'"),
        (["resonance", "--f-grid", "0.1:inf:3"], "'0.1:inf:3'"),
        (["resonance", "--n-list", ",", "--f-grid", "0.1:1:3"], "','"),
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


_SHARED_PARSER_RUNS = [
    ["solve", "--omega0", "1", "--f", "0.5", "--g", "0.3", "--omega", "2", "--samples", "16"],
    ["solve", "--omega0", "1", "--f", "0.5", "--omega", "2", "--samples", "16"],
    ["resonance", "--n-list", "1,2", "--f-grid", "0.1:2:3", "--log-grid"],
    ["resonance", "--n-list", "1,2", "--f-grid", "0.1:2:3"],
    ["bloch-siegert", "--n", "1", "--max-m", "3", "--format", "json"],
    ["bloch-siegert", "--n", "1", "--max-m", "3"],
    ["solve", "--omega0", "1", "--f", "0.5", "--format", "json"],  # no --omega: usage error
    ["solve", "--omega0", "1", "--f", "0.5", "--omega", "2", "--samples", "16"],
]


def _run_each(tmp_path, capsys, argvs):
    """Exit code, output file bytes and stderr of one cli.main call per argv."""
    out = tmp_path / "out"
    results = []
    for argv in argvs:
        out.unlink(missing_ok=True)
        rc = cli.main(argv + ["-o", str(out)])
        results.append((rc, out.read_bytes() if out.exists() else None, capsys.readouterr().err))
    return results


def test_parser_is_built_on_the_first_call_and_then_shared():
    # a fresh interpreter: importing the CLI builds no parser, two commands build one
    script = (
        "from floquet_tls import cli\n"
        "print(cli.build_parser.cache_info().misses)\n"
        "for _ in range(2):\n"
        "    assert cli.main(['bloch-siegert', '--n', '1', '--max-m', '1', '-o', '/dev/null']) == 0\n"
        "print(cli.build_parser.cache_info().misses)\n"
    )
    src = str(Path(floquet_tls.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_shared_parser_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    shared = _run_each(tmp_path, capsys, _SHARED_PARSER_RUNS)
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 0, 0, 0, 1, 0]
    # a parser built fresh for every call is the reference
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_each(tmp_path, capsys, _SHARED_PARSER_RUNS)
    assert shared == fresh
    # the runs without an option differ from those with it, and the usage
    # error leaves the next call as it would be alone
    assert shared[0][1] != shared[1][1]
    assert shared[2][1] != shared[3][1]
    assert shared[4][1].startswith(b"{") and not shared[5][1].startswith(b"{")
    assert shared[7] == shared[1]


def test_shared_parser_namespaces_hold_only_their_own_options():
    for argv in _SHARED_PARSER_RUNS[:6] + _SHARED_PARSER_RUNS[:6][::-1]:
        assert cli.build_parser().parse_args(argv) == cli.build_parser.__wrapped__().parse_args(argv)
