"""Time-domain route: classical spin motion and two-level propagators.

Integrates the classical equation of motion dX/dt = h(t) x X on the Bloch
sphere and the Schroedinger equation i dpsi/dt = (h . s) psi over one drive
period, and extracts monodromy matrices, periodic initial conditions and
quasienergies from them.

Periodic orbits are computed in batches over a frequency grid: in s = omega t
every point has period 2 pi, so one DOP853 run with dense output integrates
the propagators M(s) of up to BATCH_SIZE points side by side.  Each orbit is
its propagator applied to its fixed point, X(s) = M(s) x0 with M(2 pi) x0 =
x0 (:func:`periodic_orbits`).  A single point is a batch of one.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMonodromyError, DomainError, FloquetTlsError, IntegrationError

DEFAULT_TOL = 1e-12

# points per batched integration; bounds the dense-output memory of a sweep
# and the tolerance factor sqrt(BATCH_SIZE) of its error control
BATCH_SIZE = 16

# DOP853 raises any rtol below 100 eps to that floor with only a warning, and
# a batch of g points runs at tol / sqrt(g): the least tolerance a full batch
# honours (about 8.9e-14)
TOL_MIN = 100 * np.finfo(float).eps * math.sqrt(BATCH_SIZE)

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

    period: float
    sol: object = field(repr=False, default=None)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        y = self.sol(t.ravel())
        return y.T.reshape(t.shape + (3,))


@dataclass
class PeriodicOrbit(Trajectory):
    """Periodic orbit integrated as one member of a batch.

    ``sol`` maps times to this member's states; ``sample(m)`` gives the
    states on the uniform grid t_j = j T / m from the batch's shared grid.
    """

    batch: object = field(repr=False, default=None)
    index: int = 0

    def sample(self, m):
        """Bloch vectors (m, 3) at t_j = j T / m, j = 0..m-1."""
        return self.batch.sample(m)[:, self.index].T


class _OrbitBatch:
    """Orbits of a batch over s = omega t in [0, 2 pi]: X_k(s) = M_k(s) x0_k.

    ``sol`` is the dense output of the propagators, with element (i, j) of
    M_k in row (i * 3 + j) * size + k; ``x0`` (3, size) holds the fixed
    points.  The grid t_j = j T / m is s_j = 2 pi j / m for every member, so
    a grid is evaluated once for the whole batch.  The largest grid so far
    is kept and a grid size dividing it takes a stride of it; for a
    power-of-two stride the strided s_j are bit-identical to those of a
    direct evaluation.
    """

    def __init__(self, sol, omegas, x0):
        self.sol = sol
        self.omegas = omegas
        self.x0 = x0
        self._grid = None

    def _states(self, s):
        """States (3, size, n) of every member at s (n,)."""
        m = self.sol(s).reshape(3, 3, len(self.omegas), -1)
        return np.einsum("ijkn,jk->ikn", m, self.x0)

    def at(self, k, t):
        """States (3, n) of member k at the times t (n,)."""
        return self._states(self.omegas[k] * t)[:, k]

    def sample(self, m):
        """States (3, size, m) of every member at s_j = 2 pi j / m."""
        cached = self._grid
        if cached is not None and cached.shape[-1] % m == 0:
            return cached[..., :: cached.shape[-1] // m]
        grid = self._states(np.arange(m) * (2.0 * math.pi / m))
        if cached is None or m > cached.shape[-1]:
            self._grid = grid
        return grid


def _check_tol(tol, batch=1):
    lo = TOL_MIN * math.sqrt(batch / BATCH_SIZE)
    if not (lo <= tol <= 1e-6):
        raise DomainError(
            f"tolerance must lie in [{lo:.3g}, 1e-6], got {tol}: batches of {batch} point(s) "
            f"integrate at tol/sqrt({batch}), and DOP853 goes no lower than 100 eps"
        )


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first integration.

    Importing scipy.integrate takes longer than most commands that need no
    ODE, so the package does not import it when it loads.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _integrate(rhs, t_span, y0, tol, dense_output=True):
    res = solve_ivp(
        rhs,
        t_span,
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=dense_output,
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
    return Trajectory(period=params.T, sol=res.sol)


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


def periodic_orbit(params, tol=DEFAULT_TOL):
    """Periodic classical solution through the monodromy fixed point.

    Returns a PeriodicOrbit over [0, T] whose initial state is the
    eigenvalue-1 eigenvector of the one-period propagator: a batch of one
    of :func:`periodic_orbits`, so a single point and a sweep share one
    integrator.  Its tolerance bound is that of a full batch.

    Alone, a point is less accurate than inside a sweep at the same tol.
    DOP853 bounds the error per step, not over the period, and the steps of
    a batch are chosen for all its members together, so a member runs on
    finer steps than it would alone.  At (omega0, F, G, omega) = (1, 0.5,
    0.5, 0.7368) and tol 1e-12 the lone orbit is 3.8e-13 from the closed
    form, against 1.3e-15 in the 16-point batch 0.3368, 0.4368, ...,
    1.8368.  Over 16 random points (F in [0.2, 1.5], omega in [0.4, 2.5])
    the worst lone orbit is 7.9e-13 off for circular and 6.2e-12 for
    elliptic drive (G/F in [0.1, 0.9]), where a lone orbit is still about
    4.6 times (median) further off than the same point inside a batch.
    """
    _check_tol(tol, BATCH_SIZE)
    (orbit,) = _orbit_batch(params.omega0, params.F, params.G, [params.omega], tol)
    if isinstance(orbit, FloquetTlsError):
        raise orbit
    return orbit


def periodic_orbits(omega0, F, G, omegas, tol=DEFAULT_TOL):
    """Periodic orbits of h = (F cos wt, G sin wt, omega0) for every w in omegas.

    In s = w t every point has period 2 pi, so the points are integrated
    together in batches of at most BATCH_SIZE: one DOP853 run with dense
    output for the propagators M(s), s in [0, 2 pi], then the fixed points
    x0 of M(2 pi) one by one; each orbit is X(s) = M(s) x0.  scipy controls
    the RMS error over all components, so a batch of g points runs at
    tol / sqrt(g), and no point's error bound is looser than it is alone.
    For circular polarization the fixed point (F, 0, omega0 - w)/Omega is
    known in closed form and used in place of M(2 pi)'s; this keeps the
    isolated points where the monodromy degenerates to the identity
    (Omega T multiple of 2 pi) usable.

    Returns an iterator that yields, in the order of omegas, each point's
    PeriodicOrbit or the FloquetTlsError raised for that point.  Batches
    are integrated as they are reached, so a consumer that does not keep
    the orbits holds one batch at a time.  A batch whose run fails is
    integrated again point by point, so that one bad point does not fail
    its neighbours.
    """
    _check_tol(tol, BATCH_SIZE)
    return _batched_orbits(omega0, F, G, [float(w) for w in omegas], tol)


def _batched_orbits(omega0, F, G, omegas, tol):
    for start in range(0, len(omegas), BATCH_SIZE):
        chunk = omegas[start : start + BATCH_SIZE]
        slots = [None] * len(chunk)
        valid = []
        for j, omega in enumerate(chunk):
            try:
                DriveParams(omega0, F, G, omega)
            except DomainError as exc:
                slots[j] = exc
            else:
                valid.append(j)
        found = _orbits_or_errors(omega0, F, G, [chunk[j] for j in valid], tol) if valid else []
        for j, orbit in zip(valid, found):
            slots[j] = orbit
        yield from slots


def _orbits_or_errors(omega0, F, G, omegas, tol):
    """_orbit_batch, with a failed run of several points retried point by point."""
    try:
        return _orbit_batch(omega0, F, G, omegas, tol)
    except IntegrationError as exc:
        if len(omegas) == 1:
            return [exc]
        return [r for w in omegas for r in _orbits_or_errors(omega0, F, G, [w], tol)]


def _cross_rhs(fw, gw, w0w):
    """d/ds of the columns x of a (3, n) array: a x x, a = (fw cos s, gw sin s, w0w)."""

    def rhs(s, y):
        x = y.reshape(3, -1)
        a0 = fw * math.cos(s)
        a1 = gw * math.sin(s)
        out = np.empty_like(x)
        out[0] = a1 * x[2] - w0w * x[1]
        out[1] = w0w * x[0] - a0 * x[2]
        out[2] = a0 * x[1] - a1 * x[0]
        return out.reshape(-1)

    return rhs


def _orbit_batch(omega0, F, G, omegas, tol):
    """Periodic orbits of one batch over s = omega t in [0, 2 pi].

    Entry k is the PeriodicOrbit at omegas[k], or the FloquetTlsError its
    fixed point raised.  Raises IntegrationError when the run fails.
    """
    omegas = np.asarray(omegas, dtype=float)
    size = len(omegas)
    fw, gw, w0w = F / omegas, G / omegas, omega0 / omegas
    # column j * size + k is column j of the propagator of point k
    rhs = _cross_rhs(np.tile(fw, 3), np.tile(gw, 3), np.tile(w0w, 3))
    y0 = np.repeat(np.eye(3), size, axis=1)
    res = _integrate(rhs, (0.0, 2.0 * math.pi), y0.ravel(), tol / math.sqrt(size))
    errors = [None] * size
    if G == F and F > 0:
        x0 = np.stack([np.full(size, F), np.zeros(size), omega0 - omegas])
        x0 /= np.linalg.norm(x0, axis=0)
        x0[:, x0[2] < -1e-9] *= -1.0
    else:
        mono = res.y[:, -1].reshape(3, 3, size)
        x0 = np.zeros((3, size))
        for k in range(size):
            try:
                x0[:, k] = periodic_initial_state(mono[:, :, k])
            except FloquetTlsError as exc:
                errors[k] = exc
    batch = _OrbitBatch(res.sol, omegas, x0)
    return [
        PeriodicOrbit(
            period=2.0 * math.pi / omega, sol=functools.partial(batch.at, k), batch=batch, index=k
        )
        if errors[k] is None
        else errors[k]
        for k, omega in enumerate(omegas)
    ]
