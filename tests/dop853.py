"""scipy DOP853 references for the Magnus integrator of floquet_tls.bloch_dynamics.

The SO(3) and SU(2) one-period propagators and the classical trajectory,
each one scipy ``solve_ivp`` run with method DOP853 and rtol = atol = tol.
DOP853 raises any rtol below 100 eps = 2.2e-14 to that floor with only a
warning, so tol should not go below it.  A different integrator family
than the package's, which makes these an independent check of it.
"""

import numpy as np
from scipy.integrate import solve_ivp

_SPIN = 0.5 * np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _integrate(rhs, t0, t1, y0, tol):
    res = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=tol, atol=tol, dense_output=True)
    assert res.success, res.message
    return res


def evolve_classical(params, x0, t0, t1, tol):
    """States (..., 3) of dX/dt = h(t) x X, X(t0) = x0, as a function of t."""

    def rhs(t, x):
        return np.cross(params.field(t), x)

    sol = _integrate(rhs, t0, t1, np.asarray(x0, dtype=float), tol).sol

    def states(t):
        t = np.asarray(t, dtype=float)
        return sol(t.ravel()).T.reshape(t.shape + (3,))

    return states


def monodromy_so3(params, tol, t0=0.0):
    """One-period propagator of the classical motion from t0, a rotation matrix."""

    def rhs(t, y):
        return np.cross(params.field(t), y.reshape(3, 3), axisa=-1, axisb=0).T.ravel()

    res = _integrate(rhs, t0, t0 + params.T, np.eye(3).ravel(), tol)
    return res.y[:, -1].reshape(3, 3)


def monodromy_su2(params, tol, t0=0.0):
    """One-period propagator of i dU/dt = (h . s) U from t0, an SU(2) matrix."""

    def rhs(t, y):
        ham = np.tensordot(params.field(t), _SPIN, axes=1)
        return (-1j * ham @ y.reshape(2, 2)).ravel()

    res = _integrate(rhs, t0, t0 + params.T, np.eye(2, dtype=complex).ravel(), tol)
    return res.y[:, -1].reshape(2, 2)
