"""A sweep is carried as columns from the truncation search to the CSV.

The command's bytes must be those of the per-point results continued one by
one, and the command must build no object per row.
"""

import collections
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from floquet_tls import cli
from floquet_tls.bloch_dynamics import DriveParams
from floquet_tls.errors import ContinuityWarning, FloquetTlsError
from floquet_tls.fourier_rpl import RplFourierSolution
from floquet_tls.quasienergy import QuasienergyResult, continue_branch, quasienergy_at, sweep_branches

HEADER = ["omega", "epsilon", "epsilon_mod", "eps_g", "eps_d", "branch"]

# the three fourier_sweep commands of perfbench seed 1
_SEED_1 = (1.0023671221603405, "0.25059178054008513:2.2052076687527493:80")


def _continued_per_point(omega0, F, G, grid, method):
    """(rows, stderr lines) of a sweep from quasienergy_at at each point, each row continued
    from the last that succeeded by continue_branch, as the command reports them."""
    rows, lines, prev = [], [], None
    for omega in grid:
        try:
            point = quasienergy_at(DriveParams(omega0, F, G, omega), method=method)
        except FloquetTlsError as exc:
            rows.append([omega] + [math.nan] * 4 + [0])
            lines.append(f"omega={omega:g}: {exc}")
            continue
        if prev is not None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ContinuityWarning)
                point = continue_branch(point, prev)
            lines += [f"warning: {w.message}" for w in caught]
        rows.append([omega, point.epsilon, point.epsilon_mod, point.eps_g, point.eps_d, point.branch])
        prev = point
    return rows, lines


def _csv_bytes(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(HEADER)
    for row in rows:
        writer.writerow([
            ("NaN" if math.isnan(v) else format(v, ".17g")) if isinstance(v, float) else str(v)
            for v in row
        ])
    return buf.getvalue().encode()


def _json_bytes(config, rows):
    rows = [[None if isinstance(v, float) and math.isnan(v) else v for v in row] for row in rows]
    payload = {"schema_version": "1", "config": config, "columns": HEADER, "rows": rows}
    return (json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n").encode()


@pytest.mark.parametrize(
    "omega0, F, G, sweep, method",
    [
        (_SEED_1[0], 0.30071013664810214, 0.0, _SEED_1[1], "fourier"),
        (_SEED_1[0], 1.0023671221603405, 0.0, _SEED_1[1], "fourier"),
        (_SEED_1[0], 1.804260819888613, 0.0, _SEED_1[1], "fourier"),
        (1.0, 1.8, 0.0, "0.05:3:700", "fourier"),  # three solve chunks, mixed orders
        (1.0, 15.0, 0.0, "0.05:2:40", "fourier"),  # rows averaged on the +z section
        (1.0, 0.0, 0.0, "1:3:21", "fourier"),  # the zero solution at omega = omega0
        (1.0, 0.5, 0.3, "0.3:2:20", "ode"),
    ],
)
def test_sweep_bytes_are_the_per_point_results_continued(tmp_path, capsys, omega0, F, G, sweep, method):
    start, stop, count = sweep.split(":")
    grid = np.linspace(float(start), float(stop), int(count)).tolist()
    rows, lines = _continued_per_point(omega0, F, G, grid, method)
    argv = ["quasienergy", "--omega0", repr(omega0), "--f", repr(F), "--g", repr(G),
            "--omega-sweep", sweep, "--method", method]
    out_csv, out_json = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert cli.main(argv + ["-o", str(out_csv)]) == 0
    assert capsys.readouterr().err.splitlines() == lines
    assert cli.main(argv + ["--format", "json", "-o", str(out_json)]) == 0
    assert capsys.readouterr().err.splitlines() == lines
    assert out_csv.read_bytes() == _csv_bytes(rows)
    config = {"omega0": omega0, "f": F, "g": G, "omega_sweep": sweep, "method": method,
              "n_trunc": 20, "tol": 1e-12, "seed": 0}
    assert out_json.read_bytes() == _json_bytes(config, rows)


def test_failed_sweep_rows_and_their_reports_are_the_per_point_errors():
    # omega <= 0 fails 11 of 31 points with DriveParams' DomainError
    base = DriveParams(1.0, 0.5, 0.0, 1.0)
    grid = np.linspace(-1.0, 2.0, 31)
    reported = []
    points = sweep_branches(base, grid, method="fourier", on_error=lambda w, exc: reported.append((w, exc)))
    expected, prev = [], None
    for omega, point in zip(grid.tolist(), points):
        try:
            alone = quasienergy_at(DriveParams(1.0, 0.5, 0.0, omega), method="fourier")
        except FloquetTlsError as exc:
            expected.append((omega, type(exc), str(exc)))
            assert point is None
            continue
        prev = alone if prev is None else continue_branch(alone, prev)
        assert point == prev
    assert len(expected) == 11
    assert [(w, type(exc), str(exc)) for w, exc in reported] == expected


def test_sweep_branches_takes_any_iterable_of_numbers():
    base = DriveParams(1.0, 0.5, 0.0, 1.0)
    grid = np.linspace(0.4, 2.0, 12).tolist()
    points = sweep_branches(base, grid, method="fourier")
    assert sweep_branches(base, (w for w in grid), method="fourier") == points
    assert sweep_branches(base, np.array(grid), method="fourier") == points


def test_fourier_sweep_command_builds_no_object_per_row(tmp_path, monkeypatch):
    counts = collections.Counter()
    for cls in (RplFourierSolution, QuasienergyResult, DriveParams):
        real = cls.__init__

        def counting(self, *args, _real=real, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    def built(count):
        counts.clear()
        argv = ["quasienergy", "--omega0", "1", "--f", "1.8", "--omega-sweep", f"0.25:2.2:{count}",
                "--method", "fourier", "-o", str(tmp_path / "sweep.csv")]
        assert cli.main(argv) == 0
        return dict(counts)

    assert built(80) == built(160) == built(40)
    assert set(built(80)) == {"DriveParams"}
