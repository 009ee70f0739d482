"""A sweep's rows before continuation, one object each, for comparisons in tests.

The package carries a sweep as columns (``quasienergy._sweep_blocks``); these
helpers turn each row into the QuasienergyResult that ``quasienergy_at`` returns
at its point, or the FloquetTlsError it raises.
"""

from floquet_tls import quasienergy
from floquet_tls.quasienergy import QuasienergyResult


def rows_of(blocks, omegas, method):
    """The rows of the blocks (eps, eps_d, errors) of a sweep over omegas, in grid order."""
    rows = []
    for eps, eps_d, errors in blocks:
        for k, (e, d) in enumerate(zip(eps.tolist(), eps_d.tolist())):
            omega = omegas[len(rows)]
            rows.append(errors[k] if k in errors else QuasienergyResult.from_raw(e, d, omega, method))
    return rows


def sweep_rows(base, omegas, method, n_trunc=20, tol=1e-12):
    """Each point's QuasienergyResult or FloquetTlsError of a sweep before continuation."""
    return rows_of(quasienergy._sweep_blocks(base, omegas, method, n_trunc, tol), omegas, method)
