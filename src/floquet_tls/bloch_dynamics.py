"""Time-domain route: classical spin motion and two-level propagators.

Integrates the classical equation of motion dX/dt = h(t) x X on the Bloch
sphere and the Schroedinger equation i dpsi/dt = (h . s) psi over one drive
period, and extracts monodromy matrices, periodic initial conditions and
quasienergies from them.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DegenerateMonodromyError, DomainError, IntegrationError

DEFAULT_TOL = 1e-12

# eigenvalue-1 eigenspace counts as degenerate below this rotation angle
DEGENERACY_ANGLE = 1e-7

_SPIN = 0.5 * np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class DriveParams:
    """Drive parameters of the elliptically polarized Rabi problem.

    h(t) = (F cos(omega t), G sin(omega t), omega0).  G = 0 is the linear
    problem (RPL), G = F the circular one (RPC).
    """

    omega0: float
    F: float
    G: float
    omega: float

    def __post_init__(self):
        for name in ("omega0", "F", "G", "omega"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")
        if self.omega <= 0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if self.F < 0 or self.G < 0:
            raise DomainError("F and G must be non-negative")
        if self.omega0 < 0:
            raise DomainError("omega0 must be non-negative")

    @property
    def T(self):
        """Drive period 2 pi / omega."""
        return 2.0 * math.pi / self.omega

    @property
    def is_rpc(self):
        return self.G == self.F

    def scaled(self, lam):
        """Parameters under (omega0, F, G, omega) -> lam * (...)."""
        return DriveParams(lam * self.omega0, lam * self.F, lam * self.G, lam * self.omega)

    def field(self, t):
        return field_at(self, t)


@dataclass(frozen=True)
class GeneralDrive:
    """A T-periodic field h(t) given as a vectorized callable.

    Used internally for non-RPE drives (e.g. reverse-engineered controls);
    the public parameter surface is :class:`DriveParams`.
    """

    field_fn: object
    omega: float

    @property
    def T(self):
        return 2.0 * math.pi / self.omega

    def field(self, t):
        return self.field_fn(t)


def field_at(params, t):
    """Drive field (F cos wt, G sin wt, omega0) at time(s) t."""
    t = np.asarray(t, dtype=float)
    wt = params.omega * t
    out = np.empty(t.shape + (3,))
    out[..., 0] = params.F * np.cos(wt)
    out[..., 1] = params.G * np.sin(wt)
    out[..., 2] = params.omega0
    return out


@dataclass
class Trajectory:
    """Dense-output solution of the classical equation of motion."""

    times: np.ndarray
    states: np.ndarray
    period: float
    sol: object = field(repr=False, default=None)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        y = self.sol(t.ravel())
        return y.T.reshape(t.shape + (3,))


def _check_tol(tol):
    if not (1e-14 <= tol <= 1e-6):
        raise DomainError(f"tolerance must lie in [1e-14, 1e-6], got {tol}")


def _integrate(rhs, t_span, y0, tol):
    res = solve_ivp(
        rhs,
        t_span,
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
    )
    if not res.success:
        raise IntegrationError(f"integration failed: {res.message}")
    return res


def evolve_classical(params, x0, t0, t1, tol=DEFAULT_TOL):
    """Integrate dX/dt = h(t) x X from t0 to t1 with dense output."""
    _check_tol(tol)
    x0 = np.asarray(x0, dtype=float)

    def rhs(t, x):
        h = params.field(t)
        return np.cross(h, x)

    res = _integrate(rhs, (t0, t1), x0, tol)
    return Trajectory(times=res.t, states=res.y.T, period=params.T, sol=res.sol)


def monodromy_so3(params, tol=DEFAULT_TOL, t0=0.0):
    """One-period propagator of the classical motion, a rotation matrix."""
    _check_tol(tol)

    def rhs(t, y):
        r = y.reshape(3, 3)
        h = params.field(t)
        return np.cross(h, r, axisa=-1, axisb=0).T.ravel()

    res = _integrate(rhs, (t0, t0 + params.T), np.eye(3).ravel(), tol)
    return res.y[:, -1].reshape(3, 3)


def monodromy_su2(params, tol=DEFAULT_TOL, t0=0.0):
    """One-period propagator of i dU/dt = (h . s) U, an SU(2) matrix."""
    _check_tol(tol)

    def rhs(t, y):
        u = y.reshape(2, 2)
        h = params.field(t)
        ham = h[0] * _SPIN[0] + h[1] * _SPIN[1] + h[2] * _SPIN[2]
        return (-1j * ham @ u).ravel()

    y0 = np.eye(2, dtype=complex).ravel()
    res = _integrate(rhs, (t0, t0 + params.T), y0, tol)
    return res.y[:, -1].reshape(2, 2)


def so3_angle(m):
    """Rotation angle in [0, pi], stable near 0 and pi.

    Uses the antisymmetric part for the sine and the trace for the cosine.
    """
    m = np.asarray(m, dtype=float)
    axis_sin = 0.5 * np.array(
        [m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]
    )
    return math.atan2(np.linalg.norm(axis_sin), 0.5 * (np.trace(m) - 1.0))


def su2_angle(u):
    """Eigenphase theta in [0, pi] of U = cos(theta) - i sin(theta) n.sigma."""
    u = np.asarray(u, dtype=complex)
    a0 = 0.5 * (u[0, 0] + u[1, 1]).real
    avec = np.array(
        [
            -0.5 * (u[0, 1].imag + u[1, 0].imag),
            0.5 * (u[1, 0].real - u[0, 1].real),
            0.5 * (u[1, 1].imag - u[0, 0].imag),
        ]
    )
    return math.atan2(np.linalg.norm(avec), a0)


def periodic_initial_state(m):
    """Unit eigenvector of a rotation matrix for eigenvalue 1.

    The sign is fixed so that z >= 0, ties broken by x >= 0 then y >= 0.
    Raises DegenerateMonodromyError when the rotation angle is below
    DEGENERACY_ANGLE and the fixed space is not one-dimensional.
    """
    m = np.asarray(m, dtype=float)
    rho = so3_angle(m)
    if rho < DEGENERACY_ANGLE:
        raise DegenerateMonodromyError(
            f"rotation angle {rho:.3e} below {DEGENERACY_ANGLE:.0e}; "
            "eigenvalue-1 space is not one-dimensional"
        )
    # (M + M^T)/2 = cos(rho) 1 + (1-cos rho) n n^T: the axis is the top
    # eigenvector, well conditioned for rho near pi as well
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    axis = v[:, np.argmax(w)]
    axis = axis / np.linalg.norm(axis)
    tie = 1e-9
    if axis[2] < -tie:
        axis = -axis
    elif abs(axis[2]) <= tie:
        if axis[0] < -tie or (abs(axis[0]) <= tie and axis[1] < 0):
            axis = -axis
    return axis


def quasienergy_from_monodromy(m, period):
    """Quasienergy representative in [0, omega/2] from a monodromy matrix.

    Accepts the 2x2 unitary or the 3x3 rotation; the pair of quasienergies
    is {eps, -eps} mod omega, and the value returned is the non-negative
    representative closest to zero.
    """
    m = np.asarray(m)
    if m.shape == (2, 2):
        theta = su2_angle(m)
        return theta / period
    if m.shape == (3, 3):
        rho = so3_angle(m)
        return rho / (2.0 * period)
    raise DomainError(f"expected a 2x2 or 3x3 monodromy, got shape {m.shape}")


def adjoint_rotation(u):
    """Rotation transporting Bloch vectors under the SU(2) element u.

    Spin expectations of psi -> u psi transform with the matrix
    R_ij = 2 tr(s_i u s_j u*); this is the SO(3) propagator matching
    monodromy_so3 (the index order matters: the map with conjugation read
    the other way is its transpose).
    """
    u = np.asarray(u, dtype=complex)
    r = np.empty((3, 3))
    for j in range(3):
        m = u @ _SPIN[j] @ u.conj().T
        for i in range(3):
            # tr(s_i s_k) = delta_ik / 2
            r[i, j] = 2.0 * np.trace(_SPIN[i] @ m).real
    return r


def periodic_orbit(params, tol=DEFAULT_TOL, t0=0.0):
    """Periodic classical solution through the monodromy fixed point.

    Returns a Trajectory spanning [t0, t0 + T] whose initial state is the
    eigenvalue-1 eigenvector of the one-period propagator.  For circular
    polarization the fixed point (F, 0, omega0 - omega)/Omega is known in
    closed form and used directly; this keeps the isolated points where
    the monodromy degenerates to the identity (Omega T multiple of 2 pi)
    usable.
    """
    if params.is_rpc and params.F > 0 and t0 == 0.0:
        x0 = np.array([params.F, 0.0, params.omega0 - params.omega])
        x0 /= np.linalg.norm(x0)
        if x0[2] < -1e-9:
            x0 = -x0
    else:
        m = monodromy_so3(params, tol=tol, t0=t0)
        x0 = periodic_initial_state(m)
    return evolve_classical(params, x0, t0, t0 + params.T, tol=tol)
