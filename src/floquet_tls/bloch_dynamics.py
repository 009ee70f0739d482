"""Time-domain route: classical spin motion and two-level propagators.

Propagates the classical equation of motion dX/dt = h(t) x X on the Bloch
sphere and the Schroedinger equation i dpsi/dt = (h . s) psi, and extracts
monodromy matrices, periodic initial conditions and quasienergies from them.

Everything is integrated in s = omega t, where every point has period
2 pi: the propagators M(s) of up to BATCH_SIZE points are prefix products of
the same S uniform sixth-order Magnus steps (Blanes, Casas & Ros, BIT 40
(2000) 434), each step a rotation held as its SU(2) element (a unit
quaternion).  Each periodic orbit is its propagator applied to its fixed
point, X(s) = M(s) x0 with M(2 pi) x0 = x0 (:func:`periodic_orbits`).  The
monodromies are the one-period product of one point, and
:func:`evolve_classical` applies the products to its initial state.  The
module needs numpy only; the tests check it against scipy's DOP853.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMonodromyError, DomainError, FloquetTlsError, IntegrationError

DEFAULT_TOL = 1e-12

# points per batch of periodic orbits; bounds the memory of a sweep's grids
BATCH_SIZE = 16

# Magnus steps per period covered: powers of two from MIN_STEPS up to
# MAX_STEPS, the first whose error estimate meets the tolerance
MIN_STEPS = 1 << 11
MAX_STEPS = 1 << 16

# least tolerance of every integration, several times the rounding error
# (below 1e-14) of a product of MAX_STEPS rotations
TOL_MIN = 5e-14

# steps per block of the prefix-product scan, and per chunk of the step
# exponents and of the grid's rotations, which bounds their temporaries
_BLOCK = 16
_CHUNK = 1 << 12

# Gauss-Legendre nodes on [0, 1]
_SQ15 = math.sqrt(15.0)
_NODES = (0.5 - _SQ15 / 10.0, 0.5, 0.5 + _SQ15 / 10.0)

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
    """Solution of the classical equation of motion; ``sol`` maps times (n,) to states (3, n)."""

    period: float
    sol: object = field(repr=False, default=None)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        y = self.sol(t.ravel())
        return y.T.reshape(t.shape + (3,))


@dataclass
class PeriodicOrbit(Trajectory):
    """Periodic orbit computed as one member of a batch.

    ``sol`` maps times to this member's states; ``sample(m)`` gives the
    states on the uniform grid t_j = j T / m from the batch's state grid.
    """

    batch: object = field(repr=False, default=None)
    index: int = 0

    def sample(self, m):
        """Bloch vectors (m, 3) at t_j = j T / m, j = 0..m-1."""
        return self.batch.sample(m, self.index).T


class _OrbitBatch:
    """States X_k(s) = M_k(s) x0_k of a batch over s = omega t in [s0, s0 + span].

    ``grid`` (3, size, S) holds the states X_k(s_j) at s_j = s0 + j span / S,
    the starts of the Magnus steps; ``coef`` (3, size) holds (F, G, omega0) /
    omega_k.  Any other s, of a finer or an incommensurate grid or of a call,
    takes one partial Magnus step from the grid state before it, or from the
    nearest end outside the span.  Only the states are kept, not the
    propagators.  For periodic orbits (s0 = 0, span = 2 pi) a grid of m
    samples that divides S is a stride of it.
    """

    def __init__(self, coef, omegas, grid, s0=0.0, span=2.0 * math.pi):
        self.coef = coef
        self.omegas = omegas
        self.grid = grid
        self.s0 = s0
        self.span = span

    def states(self, k, s):
        """States (3, n) of member k at s (n,)."""
        steps = self.grid.shape[-1]
        h = self.span / steps
        j = np.clip(((s - self.s0) // h).astype(int), 0, steps - 1)
        start = self.s0 + j * h
        q = _magnus_steps(self.coef[:, k], start, s - start)
        return _rotate(q, self.grid[:, k, j])

    def at(self, k, t):
        """States (3, n) of periodic member k at the times t (n,)."""
        return self.states(k, np.mod(self.omegas[k] * t, 2.0 * math.pi))

    def sample(self, m, k):
        """States (3, m) of periodic member k at s_j = 2 pi j / m."""
        steps = self.grid.shape[-1]
        if steps % m == 0:
            return self.grid[:, k, :: steps // m]
        return self.states(k, np.arange(m) * (2.0 * math.pi / m))


def _check_tol(tol):
    if not (TOL_MIN <= tol <= 1e-6):
        raise DomainError(f"tolerance must lie in [{TOL_MIN:.3g}, 1e-6], got {tol}")


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on call; nothing in the package calls it.

    perfbench/tracer.py probes this name; ROADMAP.md item 1 drops both.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _propagate(params, s0, span, tol):
    """Coefficients, prefix products and total rotation of one point over [s0, s0 + span]."""
    _check_tol(tol)
    omegas = np.array([params.omega])
    coef = np.stack([params.F / omegas, params.G / omegas, params.omega0 / omegas])
    prop, mono, (error,) = _products(coef, s0, span, tol)
    if error is not None:
        raise error
    return coef, prop, mono[..., 0]


def evolve_classical(params, x0, t0, t1, tol=DEFAULT_TOL):
    """Trajectory of dX/dt = h(t) x X with X(t0) = x0, over [t0, t1].

    t1 may precede t0.  The states are the Magnus prefix products over the
    span applied to x0, with the error estimate of the product over the
    whole span at most tol; a time off the step grid is one partial step
    from the grid state before it.
    """
    x0 = np.asarray(x0, dtype=float)
    if t1 == t0:
        _check_tol(tol)
        return Trajectory(period=params.T, sol=lambda t: np.repeat(x0[:, None], len(t), axis=1))
    s0, span = params.omega * t0, params.omega * (t1 - t0)
    coef, prop, _ = _propagate(params, s0, span, tol)
    batch = _OrbitBatch(coef, None, _state_grid(prop, x0[:, None]), s0, span)
    return Trajectory(period=params.T, sol=lambda t: batch.states(0, params.omega * t))


def monodromy_so3(params, tol=DEFAULT_TOL, t0=0.0):
    """One-period propagator of the classical motion from t0, a rotation matrix."""
    return _propagate(params, params.omega * t0, 2.0 * math.pi, tol)[2]


def monodromy_su2(params, tol=DEFAULT_TOL, t0=0.0):
    """One-period propagator of i dU/dt = (h . s) U from t0, an SU(2) matrix."""
    _, prop, _ = _propagate(params, params.omega * t0, 2.0 * math.pi, tol)
    a, b = prop[:, 0, -1] / math.sqrt(_norm2(prop[:, 0, -1]))
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


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
    integrator and one error test.

    A lone point passes the same error test as inside a sweep: the estimate
    bounds each member's one-period error, not the error per step.  At
    (omega0, F, G, omega) = (1, 0.5, 0.5, 0.7368) and tol 1e-12 the lone
    orbit and the same point in the 16-point batch 0.3368, 0.4368, ...,
    1.8368 are both 1.2e-15 from the closed form.
    """
    _check_tol(tol)
    (orbit,) = _orbit_batch(params.omega0, params.F, params.G, [params.omega], tol)
    if isinstance(orbit, FloquetTlsError):
        raise orbit
    return orbit


def periodic_orbits(omega0, F, G, omegas, tol=DEFAULT_TOL):
    """Periodic orbits of h = (F cos wt, G sin wt, omega0) for every w in omegas.

    In s = w t every point has period 2 pi, so the points are integrated
    together in batches of at most BATCH_SIZE.  A batch's propagators M(s)
    are prefix products of S uniform sixth-order Magnus steps; S is the
    least power of two from MIN_STEPS on at which every point's one-period
    error estimate, |M(2 pi) on S steps - M(2 pi) on S/2| / 63 (Richardson
    at order 6), is at most tol.  A point still above tol at MAX_STEPS
    steps fails alone with IntegrationError.  Each orbit is X(s) = M(s) x0,
    x0 the fixed point of M(2 pi).  For circular polarization the fixed
    point (F, 0, omega0 - w)/Omega is known in closed form and used in
    place of M(2 pi)'s; this keeps the isolated points where the monodromy
    degenerates to the identity (Omega T multiple of 2 pi) usable.

    Returns an iterator that yields, in the order of omegas, each point's
    PeriodicOrbit or the FloquetTlsError raised for that point.  Batches
    are integrated as they are reached, so a consumer that does not keep
    the orbits holds one batch at a time.
    """
    _check_tol(tol)
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
        found = _orbit_batch(omega0, F, G, [chunk[j] for j in valid], tol) if valid else []
        for j, orbit in zip(valid, found):
            slots[j] = orbit
        yield from slots


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _magnus_steps(coef, s0, tau):
    """SU(2) elements (2, ...) of the sixth-order Magnus steps s0 -> s0 + tau.

    The field is a(s) = coef * (cos s, sin s, 1); coef[i], s0 and tau
    broadcast together.  The exponent is that of Blanes, Casas & Ros on the
    three Gauss nodes, with the commutators of so(3) written as cross
    products; its exponential, the rotation by |Omega| about Omega, is the
    element (a, b) of U = [[a, -b*], [b, a*]] = exp(-i Omega . sigma / 2).
    """
    cos = [np.cos(s0 + c * tau) for c in _NODES]
    sin = [np.sin(s0 + c * tau) for c in _NODES]
    fw, gw, w0w = coef
    d, e = _SQ15 / 3.0 * tau, 10.0 / 3.0 * tau
    # alpha1 = tau a at the middle node; alpha2 and alpha3, the scaled first
    # and second differences over the nodes, have no z part
    x1, y1, z1 = fw * (tau * cos[1]), gw * (tau * sin[1]), w0w * tau
    x2, y2 = fw * (d * (cos[2] - cos[0])), gw * (d * (sin[2] - sin[0]))
    x3 = fw * (e * (cos[2] - 2.0 * cos[1] + cos[0]))
    y3 = gw * (e * (sin[2] - 2.0 * sin[1] + sin[0]))
    c1 = (-z1 * y2, z1 * x2, x1 * y2 - y1 * x2)  # [alpha1, alpha2]
    c2 = _cross((x1, y1, z1), (2.0 * x3 + c1[0], 2.0 * y3 + c1[1], c1[2]))  # -60 C2
    left = (c1[0] - 20.0 * x1 - x3, c1[1] - 20.0 * y1 - y3, c1[2] - 20.0 * z1)
    right = (x2 - c2[0] / 60.0, y2 - c2[1] / 60.0, c2[2] / -60.0)
    lr = _cross(left, right)
    omega = (x1 + x3 / 12.0 + lr[0] / 240.0, y1 + y3 / 12.0 + lr[1] / 240.0, z1 + lr[2] / 240.0)
    angle = np.sqrt(omega[0] ** 2 + omega[1] ** 2 + omega[2] ** 2)
    # sin(angle / 2) / angle, 1/2 at angle 0
    scale = np.divide(np.sin(0.5 * angle), angle, out=np.full_like(angle, 0.5), where=angle > 0)
    u = np.empty((2,) + angle.shape, dtype=complex)
    u[0].real, u[0].imag = np.cos(0.5 * angle), -scale * omega[2]
    u[1].real, u[1].imag = scale * omega[1], -scale * omega[0]
    return u


def _su2_mul(p, q):
    """Products p q of SU(2) elements (2, ...): the rotation q, then p."""
    a1, b1 = p
    a2, b2 = q
    return np.stack([a1 * a2 - b1.conj() * b2, b1 * a2 + a1.conj() * b2])


def _prefix(q):
    """In place, q[..., j] <- q[..., j] ... q[..., 0] for (2, ..., n) SU(2) elements.

    A blocked scan: the products inside blocks of _BLOCK steps, the same
    scan over the block totals, then each block times the total before it.
    q must be C-contiguous and n a power of two.  Returns q.
    """
    n = q.shape[-1]
    b = min(n, _BLOCK)
    view = q.reshape(q.shape[:-1] + (n // b, b))
    # blocks[:, i, ..., k] is step i of block k, so the scan runs on whole rows
    blocks = np.moveaxis(view, -1, 1).copy()
    for i in range(1, b):
        blocks[:, i] = _su2_mul(blocks[:, i], blocks[:, i - 1])
    if n > b:
        totals = _prefix(blocks[:, -1].copy())
        for i in range(b - 1):
            blocks[:, i, ..., 1:] = _su2_mul(blocks[:, i, ..., 1:], totals[..., :-1])
        blocks[:, -1] = totals
    view[...] = np.moveaxis(blocks, 1, -1)
    return q


def _total(q):
    """Product q[..., n-1] ... q[..., 0] of (2, ..., n) SU(2) elements, n a power of two."""
    while q.shape[-1] > 1:
        q = _su2_mul(q[..., 1::2], q[..., ::2])
    return q[..., 0]


def _norm2(q):
    """|a|^2 + |b|^2 of SU(2) elements (2, ...) q."""
    return q[0].real ** 2 + q[0].imag ** 2 + q[1].real ** 2 + q[1].imag ** 2


def _quaternion(q):
    """Components (w, x, y, z) of SU(2) elements (2, ...): w + (x, y, z) = cos + sin n."""
    return q[0].real, -q[1].imag, q[1].real, -q[0].imag


def _rotate(q, v):
    """Vectors (3, ...) v rotated by the SU(2) elements (2, ...) q."""
    w, *u = _quaternion(q)
    t = [2.0 * x for x in _cross(u, v)]
    return np.stack([a + w * b + c for a, b, c in zip(v, t, _cross(u, t))])


def _rotation_matrices(q):
    """Rotation matrices (3, 3, ...) of the SU(2) elements (2, ...) q, normalized."""
    w, x, y, z = _quaternion(q / np.sqrt(_norm2(q)))
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _steps(coef, s0, span, steps):
    """SU(2) elements (2, size, steps) of the steps s_j -> s_j+1, s_j = s0 + j span / steps."""
    h = span / steps
    q = np.empty((2, coef.shape[1], steps), dtype=complex)
    for lo in range(0, steps, _CHUNK):
        s = s0 + np.arange(lo, min(steps, lo + _CHUNK)) * h
        q[..., lo : lo + _CHUNK] = _magnus_steps(coef[..., None], s, h)
    return q


def _products(coef, s0, span, tol):
    """Prefix products of a batch's Magnus steps over s in [s0, s0 + span].

    S steps per period covered (rounded up to a power of two), chosen as in
    :func:`periodic_orbits` from the estimate for the product over the span.
    Returns the products (2, size, n), not normalized, the rotations
    (3, 3, size) of their totals, and each member's IntegrationError or None.
    """
    # the slack keeps a span of one period, up to rounding, at one period
    periods = 1 << max(0, math.ceil(math.log2(abs(span) / (2.0 * math.pi)) - 1e-12))
    steps = MIN_STEPS * periods
    coarse = _rotation_matrices(_total(_steps(coef, s0, span, steps // 2)))
    while True:
        prop = _prefix(_steps(coef, s0, span, steps))
        mono = _rotation_matrices(prop[..., -1])
        estimate = np.abs(mono - coarse).max(axis=(0, 1)) / 63.0
        if steps >= MAX_STEPS * periods or (estimate <= tol).all():
            break
        coarse, steps = mono, 2 * steps
    errors = [
        None
        if e <= tol
        else IntegrationError(
            f"monodromy error estimate {e:.3g} above tol {tol:g} at S = {steps} Magnus steps"
        )
        for e in estimate
    ]
    return prop, mono, errors


def _state_grid(prop, x0):
    """States (3, size, n) of x0 (3, size) at the step starts; normalizes the products in place."""
    # the norms of the products drift by about 1e-16 per step, their rotations do not
    prop /= np.sqrt(_norm2(prop))
    steps = prop.shape[-1]
    grid = np.empty(x0.shape + (steps,))
    grid[..., 0] = x0
    ends = prop[..., :-1]
    for lo in range(0, steps - 1, _CHUNK):
        grid[..., 1 + lo : 1 + lo + _CHUNK] = _rotate(ends[..., lo : lo + _CHUNK], x0[..., None])
    return grid


def _orbit_batch(omega0, F, G, omegas, tol):
    """Periodic orbits of one batch over s = omega t in [0, 2 pi).

    Entry k is the PeriodicOrbit at omegas[k], or the FloquetTlsError its
    error estimate or fixed point raised.
    """
    omegas = np.asarray(omegas, dtype=float)
    size = len(omegas)
    coef = np.stack([F / omegas, G / omegas, omega0 / omegas])
    # the fixed points come from the products before their normalization
    prop, mono, errors = _products(coef, 0.0, 2.0 * math.pi, tol)
    if G == F and F > 0:
        x0 = np.stack([np.full(size, F), np.zeros(size), omega0 - omegas])
        x0 /= np.linalg.norm(x0, axis=0)
        x0[:, x0[2] < -1e-9] *= -1.0
    else:
        x0 = np.zeros((3, size))
        for k in range(size):
            if errors[k] is None:
                try:
                    x0[:, k] = periodic_initial_state(mono[:, :, k])
                except FloquetTlsError as exc:
                    errors[k] = exc
    batch = _OrbitBatch(coef, omegas, _state_grid(prop, x0))
    return [
        PeriodicOrbit(
            period=2.0 * math.pi / omega, sol=functools.partial(batch.at, k), batch=batch, index=k
        )
        if errors[k] is None
        else errors[k]
        for k, omega in enumerate(omegas)
    ]
