"""Time-domain route: classical spin motion and two-level propagators.

Propagates the classical equation of motion dX/dt = h(t) x X on the Bloch
sphere and the Schroedinger equation i dpsi/dt = (h . s) psi, and extracts
monodromy matrices, periodic initial conditions and quasienergies from them.

Everything is integrated in s = omega t, where every point has period
2 pi: the propagators M(s) of up to BATCH_SIZE points are prefix products of
the same uniform sixth-order Magnus steps, S per period (Blanes, Casas & Ros,
BIT 40 (2000) 434), each step a rotation held as its SU(2) element (a unit
quaternion).  The field obeys h(s + pi) = R_z(pi) h(s) and h(-s) = P h(s),
P = diag(1, -1, 1), so each periodic orbit X(s) = M(s) x0 is integrated over
[0, pi/2] only, x0 the fixed point of the half map A = R_z(pi) M(pi), and
completed by X(pi - s) = R_z(pi) P X(s) and X(s + pi) = R_z(pi) X(s)
(:func:`periodic_orbits`).  The monodromies are the one-period product of
one point, and :func:`evolve_classical` applies the products over its span
to its initial state; both cover their whole spans.  The module needs numpy
only; the tests check it against scipy's DOP853.

Every point of a batch keeps its own S: it leaves the doubling of S at the
first S whose error estimate meets the tolerance.  Each stage takes the
members that reach it at once, and each member's values are bit for bit those
it would have alone: the fixed points x0 of the half maps come from one
stacked eigh, with the degeneracy angles and the norms of the whole stack
(:func:`_fixed_points`), and each level of the prefix scan fixes up its
blocks in one product.  The products inside a block stay a chain of single
steps, since their order fixes the bits.  A batch's periodic orbits are
handed over as one :class:`harmonics.Orbits` (:func:`_orbit_block`): the rows
of their harmonics, read off the half-period states of the members that share
S by one FFT, and their states on the grid of 2048 samples, of which every
grid that divides 2048 is a stride.  Every other grid and time comes from the
rows, as a truncated Fourier solution's do.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .errors import DegenerateMonodromyError, DomainError, FloquetTlsError, IntegrationError
from .harmonics import _HALF_TURN

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

# the grid whose half-period states a block keeps for each orbit: every ODE row's start
# grid, a stride of every step grid
_KEPT_GRID = MIN_STEPS

# the largest harmonic of a periodic orbit in the top eighth of those its step grid
# holds may be at most this fraction of its largest; above it, its rows alias
TAIL_TOL = 1e-13

# P = diag(1, -1, 1), which maps the field at s onto the field at -s, and
# R_z(pi) P, which maps a periodic orbit at s onto the orbit at pi - s
_REVERSAL = np.array([1.0, -1.0, 1.0])
_MIRROR = _HALF_TURN * _REVERSAL

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
    """Periodic orbit: row ``index`` of ``orbits``, the :class:`harmonics.Orbits` of its block.

    ``sol`` maps times to its states by its rows of harmonics, and ``sample(m)`` gives
    them on the uniform grid t_j = j T / m.
    """

    orbits: object = field(repr=False, default=None)
    index: int = 0

    def __post_init__(self):
        series = self.orbits.orbit(self.index)
        self.sol = lambda t: series(t).T

    @property
    def held(self):
        """(orbits, [index]): this orbit's row of its block."""
        return self.orbits, [self.index]

    def sample(self, m):
        """Bloch vectors (m, 3) at t_j = j T / m, j = 0..m-1."""
        return self.orbits.grid([self.index], m)[0].T


def _check_tol(tol):
    if not (TOL_MIN <= tol <= 1e-6):
        raise DomainError(f"tolerance must lie in [{TOL_MIN:.3g}, 1e-6], got {tol}")


def solve_ivp(*args, **kwargs):
    """Name only, which nothing in the package calls: perfbench/tracer.py
    probes it, and ROADMAP.md item 18 drops it with the tracer's wrapping."""
    raise NotImplementedError("bloch_dynamics.solve_ivp is gone; integrations are Magnus products")


def _propagate(params, s0, span, tol):
    """Coefficients, prefix products and total rotation of one point over [s0, s0 + span]."""
    _check_tol(tol)
    omegas = np.array([params.omega])
    coef = np.stack([params.F / omegas, params.G / omegas, params.omega0 / omegas])
    prop, mono, _, (error,) = _products(coef, s0, span, tol)
    if error is not None:
        raise error
    return coef, prop, mono[..., 0]


def evolve_classical(params, x0, t0, t1, tol=DEFAULT_TOL):
    """Trajectory of dX/dt = h(t) x X with X(t0) = x0, over [t0, t1].

    t1 may precede t0.  The states are the Magnus prefix products over the
    span applied to x0, with the error estimate of the product over the
    whole span at most tol; a time off the step grid is one partial step
    from the grid state before it.  The trajectory raises DomainError for a
    time outside the span by more than 1e-12 of max(|t0|, |t1|).
    """
    x0 = np.asarray(x0, dtype=float)
    if t1 == t0:
        _check_tol(tol)

        def states(t):
            return np.repeat(x0[:, None], len(t), axis=1)

    else:
        s0, span = params.omega * t0, params.omega * (t1 - t0)
        coef, prop, _ = _propagate(params, s0, span, tol)
        grid = _state_grid(prop, x0[:, None])[:, 0]
        steps = grid.shape[-1]
        h = span / steps

        def states(t):
            # one partial step from the grid state before s, or from the nearest end
            # for an s past the span by rounding
            s = params.omega * t
            j = np.clip(((s - s0) // h).astype(int), 0, steps - 1)
            start = s0 + j * h
            return _rotate(_magnus_steps(coef[:, 0, None], start, s - start), grid[:, j])

    lo, hi = min(t0, t1), max(t0, t1)
    slack = 1e-12 * max(abs(t0), abs(t1))

    def sol(t):
        if np.any(t < lo - slack) or np.any(t > hi + slack):
            raise DomainError(f"time outside the span [{lo:g}, {hi:g}] of the trajectory")
        return states(t)

    return Trajectory(period=params.T, sol=sol)


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

    Uses the antisymmetric part for the sine and the trace for the cosine:
    the angle of one rotation of :func:`_so3_angles`.
    """
    return _so3_angles(np.asarray(m, dtype=float)[..., None])[0]


def _so3_angles(m):
    """Rotation angles, a list, of the rotations m (3, 3, L): math.atan2 of the norm
    of each antisymmetric part and of half its trace less one (np.arctan2 differs
    from it in the last bit of some angles)."""
    axis_sin = 0.5 * np.stack([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]], axis=-1)
    cos = 0.5 * (m[0, 0] + m[1, 1] + m[2, 2] - 1.0)
    return [math.atan2(s, c) for s, c in zip(_norms(axis_sin).tolist(), cos.tolist())]


def _norms(v):
    """Euclidean norms (L,) of the vectors v (L, 3), each bit for bit np.linalg.norm's:
    a stacked matmul takes each product of a vector with itself as numpy's dot does,
    where (v * v).sum(-1) and einsum sum in another order."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


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


def _orientation(v):
    """The sign +-1 that puts each vector v (3, ...) at z > 0 or, for |z| <= 1e-9 |v|, at
    x > 0 and then y >= 0: the orbit of the pair +-X(t) that both routes report, by X(0)."""
    x, y, z = v
    tie = 1e-9 * np.hypot(np.hypot(x, y), z)
    flip = (z < -tie) | ((abs(z) <= tie) & ((x < -tie) | ((abs(x) <= tie) & (y < 0))))
    return np.where(flip, -1.0, 1.0)


def periodic_initial_state(m):
    """Unit eigenvector of a rotation matrix for eigenvalue 1.

    The sign is the one :func:`_orientation` gives.  Raises
    DegenerateMonodromyError when the rotation angle is below
    DEGENERACY_ANGLE and the fixed space is not one-dimensional.  This is
    :func:`_fixed_points` of one rotation.
    """
    x0, (error,) = _fixed_points(np.asarray(m, dtype=float)[..., None])
    if error is not None:
        raise error
    return x0[:, 0]


def _fixed_points(maps, *tested):
    """Fixed points (3, L) of the rotations maps (3, 3, L), and each map's
    DegenerateMonodromyError or None.

    Map k fails, with the angle in its text, at the first of its rotations
    in ``tested`` (stacks like maps, checked in order) and then the map
    itself to turn by less than DEGENERACY_ANGLE; its fixed point is 0.
    Each other fixed point is the unit axis of its map, with the sign
    :func:`_orientation` gives.  The angles, the eigenvectors and
    the norms are taken for the whole stack at once, each bit for bit its
    one-matrix value.
    """
    errors = [None] * maps.shape[-1]
    for rotations in (*tested, maps):
        for k, rho in enumerate(_so3_angles(rotations)):
            if errors[k] is None and rho < DEGENERACY_ANGLE:
                errors[k] = DegenerateMonodromyError(
                    f"rotation angle {rho:.3e} below {DEGENERACY_ANGLE:.0e}; "
                    "eigenvalue-1 space is not one-dimensional"
                )
    ok = [k for k, error in enumerate(errors) if error is None]
    x0 = np.zeros((3, len(errors)))
    if ok:
        # (M + M^T)/2 = cos(rho) 1 + (1-cos rho) n n^T: the axis is the top
        # eigenvector, well conditioned for rho near pi as well
        m = np.moveaxis(maps[..., ok], -1, 0)
        w, v = np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))
        axis = v[np.arange(len(ok)), :, np.argmax(w, axis=-1)]
        axis = axis / _norms(axis)[:, None]
        x0[:, ok] = (axis * _orientation(axis.T)[:, None]).T
    return x0, errors


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
    (orbit,) = periodic_orbits(params.omega0, params.F, params.G, [params.omega], tol)
    if isinstance(orbit, FloquetTlsError):
        raise orbit
    return orbit


def periodic_orbits(omega0, F, G, omegas, tol=DEFAULT_TOL):
    """Periodic orbits of h = (F cos wt, G sin wt, omega0) for every w in omegas.

    In s = w t every point has period 2 pi, so the points are integrated
    together in batches of at most BATCH_SIZE.  The field obeys
    h(s + pi) = R_z(pi) h(s) and h(-s) = P h(s), R_z(pi) = diag(-1, -1, 1),
    P = diag(1, -1, 1), so M(s + pi) = R_z(pi) M(s) R_z(pi) M(pi) and
    M(-s) = P M(s) P.  A batch's propagators M(s) are the prefix products of
    S/4 uniform sixth-order Magnus steps over [0, pi/2], a step that keeps
    both symmetries, and M(2 pi) = A^2 with the half map
    A = R_z(pi) M(pi) = P Q^T P R_z(pi) Q, Q = M(pi/2).  Each point's S is the
    least power of two from MIN_STEPS on at which its own one-period error
    estimate, |A^2 on S/4 steps - A^2 on S/8| / 63 (Richardson at order 6),
    is at most tol, whatever the other points of its batch need.  A point
    still above tol at MAX_STEPS steps per period fails alone with
    IntegrationError, one whose M(2 pi) turns by less than DEGENERACY_ANGLE
    with DegenerateMonodromyError.  Each orbit is M(s) x0
    on [0, pi/2], R_z(pi) P X(pi - s) on [pi/2, pi] and R_z(pi) X(s - pi) on
    [pi, 2 pi), x0 the fixed point of A: the axis of M(2 pi), well
    conditioned where M(2 pi) nears the identity.  As P A P = A^T, that axis
    has y = 0 whenever A is neither the identity nor a half turn, both of
    which M(2 pi) = I rejects, so P x0 = x0 and X(-s) = P X(s).  So X is a
    cosine series, Y a sine series, both of odd harmonics, and Z a cosine
    series of even ones: the rows of :mod:`harmonics`, read off the S/2 states
    of the half period by one FFT.  A point whose largest harmonic in the top
    eighth of those its step grid holds is above TAIL_TOL of its largest fails
    alone with IntegrationError.
    For circular polarization the fixed point (F, 0, omega0 - w)/Omega is
    known in closed form and used in place of A's; this keeps the isolated
    points where M(2 pi) is the identity (Omega T multiple of 2 pi) usable.

    Returns an iterator that yields, in the order of omegas, each point's
    PeriodicOrbit or the FloquetTlsError raised for that point.  Batches
    are integrated as they are reached, so a consumer that does not keep
    the orbits holds one batch at a time.
    """
    _check_tol(tol)
    return _batched_orbits(omega0, F, G, [float(w) for w in omegas], tol)


def _batched_orbits(omega0, F, G, omegas, tol):
    for start in range(0, len(omegas), BATCH_SIZE):
        block = _orbit_block(omega0, F, G, omegas[start : start + BATCH_SIZE], tol)
        slots = dict(block.errors)
        for j, (k, w) in enumerate(zip(block.rows.tolist(), block.omega.tolist())):
            slots[k] = PeriodicOrbit(period=2.0 * math.pi / w, orbits=block, index=j)
        yield from (slots[k] for k in sorted(slots))


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
    scan over the block totals, then every block times the total before it,
    in one product for the whole level.  q must be C-contiguous and n a
    power of two.  Returns q.
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
        # every step of a block but its last, times the total before the block
        blocks[:, :-1, ..., 1:] = _su2_mul(blocks[:, :-1, ..., 1:], totals[:, None, ..., :-1])
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


def _products(coef, s0, span, tol, quarter=False):
    """(products, totals, monodromies tested, errors) of one point: the one group
    :func:`_member_products` yields for it."""
    ((_, prop, mono, tested, errors),) = _member_products(coef, s0, span, tol, quarter)
    return prop, mono, tested, errors


def _member_products(coef, s0, span, tol, quarter=False):
    """Prefix products of a batch's Magnus steps over s in [s0, s0 + span], member by member.

    S steps per period covered (rounded up to a power of two) start at MIN_STEPS
    and double for the members still above tol, each member leaving at the first
    S whose estimate for the product over the span (see :func:`periodic_orbits`)
    meets tol, or at MAX_STEPS with its IntegrationError; so a member's S and
    products are those it would have alone.  With ``quarter`` the span is the
    quarter period [0, pi/2] on S/4 steps, the totals are the half maps
    A = P Q^T P R_z(pi) Q built from the products Q = M(pi/2), and the estimate
    is that of the monodromy A^2.  Yields, for each S at which members leave,
    their indices, their products (2, L, n), not normalized, the rotations
    (3, 3, L) of their totals and of the monodromies tested (the same without
    ``quarter``), and each one's IntegrationError or None.
    """
    # the slack keeps a span of one period, up to rounding, at one period
    periods = 1 << max(0, math.ceil(math.log2(abs(span) / (2.0 * math.pi)) - 1e-12))
    steps = MIN_STEPS * periods
    share = 4 if quarter else 1
    members = np.arange(coef.shape[1])
    coarse = _totals(_total(_steps(coef, s0, span, steps // (2 * share))), quarter)[1]
    while True:
        prop = _prefix(_steps(coef[:, members], s0, span, steps // share))
        mono, tested = _totals(prop[..., -1], quarter)
        estimate = np.abs(tested - coarse).max(axis=(0, 1)) / 63.0
        done = estimate <= tol
        if steps >= MAX_STEPS * periods:
            done[:] = True
        errors = [
            None
            if e <= tol
            else IntegrationError(
                f"monodromy error estimate {e:.3g} above tol {tol:g} at S = {steps} Magnus steps"
            )
            for e in estimate[done]
        ]
        if done.all():
            yield members, prop, mono, tested, errors
            return
        if done.any():
            yield members[done], prop[:, done], mono[..., done], tested[..., done], errors
        members, coarse, steps = members[~done], tested[..., ~done], 2 * steps


def _totals(q, quarter):
    """Rotations (3, 3, size) of the products q and the monodromies the error test compares:
    the same, or for a quarter period Q the half maps A = P Q^T P R_z(pi) Q and A^2."""
    mono = _rotation_matrices(q)
    if not quarter:
        return mono, mono
    # P R_z(pi) = R_z(pi) P is the mirror, so A = P (Q^T mirror Q)
    half = _REVERSAL[:, None, None] * np.einsum("jik,j,jlk->ilk", mono, _MIRROR, mono)
    return half, np.einsum("ijk,jlk->ilk", half, half)


def _state_grid(prop, x0, n=None):
    """States (3, size, n) of x0 (3, size) at the step starts; normalizes the products in place.

    State j + 1 is x0 under product j.  n defaults to the number of products,
    which leaves the last one unused; states past the last product are left
    to the caller.
    """
    # the norms of the products drift by about 1e-16 per step, their rotations do not
    prop /= np.sqrt(_norm2(prop))
    n = n or prop.shape[-1]
    grid = np.empty(x0.shape + (n,))
    grid[..., 0] = x0
    ends = prop[..., : n - 1]
    for lo in range(0, ends.shape[-1], _CHUNK):
        hi = min(lo + _CHUNK, ends.shape[-1])
        grid[..., 1 + lo : 1 + hi] = _rotate(ends[..., lo:hi], x0[..., None])
    return grid


def _orbit_block(omega0, F, G, omegas, tol):
    """Periodic orbits of one block of up to BATCH_SIZE points over s = omega t in [0, 2 pi),
    as :class:`harmonics.Orbits`: the counterpart of :func:`fourier_rpl._solve_sweep`.

    The products cover [0, pi/2] (see :func:`periodic_orbits`).  The members that share
    S have their rows read off their half-period states by one FFT and their tails
    tested; each keeps its states on the half period of the grid of _KEPT_GRID samples,
    and its rows, up to the harmonic S/2, zero-padded to the widest of the block.
    ``errors`` maps each point that has no orbit to the DomainError of its omega, or
    the FloquetTlsError its error estimate, fixed point or tail of harmonics raised.
    """
    _check_tol(tol)
    errors, valid = {}, []
    for j, omega in enumerate(omegas):
        try:
            DriveParams(omega0, F, G, omega)
        except DomainError as exc:
            errors[j] = exc
        else:
            valid.append(j)
    valid = np.array(valid, dtype=np.int64)
    omegas = np.array(omegas, dtype=float)[valid]
    coef = np.stack([F / omegas, G / omegas, omega0 / omegas])
    parts = []
    # the fixed points come from the products before their normalization
    for members, prop, half_map, mono, failed in _member_products(
        coef, 0.0, 0.5 * math.pi, tol, quarter=True
    ):
        size, w = len(members), omegas[members]
        if G == F and F > 0:
            x0 = np.stack([np.full(size, F), np.zeros(size), omega0 - w])
            x0 /= np.linalg.norm(x0, axis=0)
            x0 *= _orientation(x0)
        else:
            live = [k for k, error in enumerate(failed) if error is None]
            x0 = np.zeros((3, size))
            x0[:, live], fixed = _fixed_points(half_map[..., live], mono[..., live])
            for k, error in zip(live, fixed):
                failed[k] = error
        # states at s_j = 2 pi j / S: j <= S/4 from the products, the rest of the
        # half period the mirror X(pi - s) = R_z(pi) P X(s) of the first quarter
        quarter = prop.shape[-1]
        grid = _state_grid(prop, x0, 2 * quarter)
        grid[..., quarter + 1 :] = grid[..., quarter - 1 : 0 : -1] * _MIRROR[:, None, None]
        rows = harmonics.half_grid_rows(grid)
        for k, ratio in enumerate(_tail_ratios(rows).tolist()):
            if failed[k] is None and not ratio <= TAIL_TOL:
                failed[k] = IntegrationError(
                    f"orbit unresolved by its step grid: tail ratio {ratio:.3g} of its "
                    f"harmonics above {TAIL_TOL:g} at S = {4 * quarter} Magnus steps"
                )
        at = valid[members]
        errors.update((int(at[k]), error) for k, error in enumerate(failed) if error)
        kept = np.moveaxis(grid[..., :: 4 * quarter // _KEPT_GRID], 1, 0)
        part = harmonics.Orbits(at, np.full(size, 2 * quarter), *rows, w, {}, kept)
        parts.append((part, [k for k, error in enumerate(failed) if error is None]))
    return harmonics.Orbits.stack(parts, errors)


def _tail_ratios(rows):
    """Each orbit's largest harmonic in the top eighth of those its step grid holds,
    7 S/16 to S/2, over its largest, from its rows (z, x, y): above TAIL_TOL the step
    grid under-resolves it."""
    width = rows[1].shape[-1]
    top = width - width // 8
    tail = np.abs(np.concatenate([row[:, top:] for row in rows], axis=-1))
    peak = np.abs(np.concatenate(rows, axis=-1)).max(axis=-1)
    with np.errstate(invalid="ignore"):  # 0/0 for the zero grid of a failed member
        return tail.max(axis=-1) / peak
