"""Reference computations made apart from the package under test.

Nothing here imports ``floquet_tls``.  The benchmark checks the program's
outputs against these:

* the one-period SU(2) propagator of i dpsi/dt = (h(t) . sigma / 2) psi,
  integrated with a fourth-order Magnus stepper in the phase s = omega t,
  for h = (F cos s, G sin s, omega0);
* the dense truncated matrix A^(N) of the Fourier ansatz, derived here from
  the equation of motion dX/dt = h x X, and its sign by ``slogdet``;
* the closed forms of the Bloch-Siegert coefficients sigma_2, sigma_4 and
  sigma_6.

An SU(2) element q0 - i q . sigma is held as the quaternion (q0, q).
"""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

# Steps per period of the Magnus stepper.  Its error falls like K^-4; at
# F/omega = 400 a period of 16384 steps is good to 1e-13 in epsilon.
_STEPS_WEAK = 4096
_STEPS_STRONG = 16384
_STRONG_RATIO = 40.0
_CHUNK = 24  # parameter points per vectorized batch, bounds memory
_SELF_CHECK = 1e-9  # epsilon agreement required between K and K/2 steps


def qmul(a, b):
    """Quaternion product of SU(2) elements, a applied after b."""
    a0, av = a[..., 0], a[..., 1:]
    b0, bv = b[..., 0], b[..., 1:]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a0 * b0 - np.einsum("...i,...i->...", av, bv)
    out[..., 1:] = a0[..., None] * bv + b0[..., None] * av + np.cross(av, bv)
    return out


def _step_elements(omega0, f_amp, g_amp, omega, steps):
    """Magnus-4 one-step propagators, shape (steps, P, 4), in s = omega t."""
    ds = 2.0 * math.pi / steps
    k = np.arange(steps)
    offset = math.sqrt(3.0) / 6.0

    def half_field(s):
        # h(s) / (2 omega): the generator per unit s is -i (this) . sigma
        out = np.empty((steps, omega.size, 3))
        out[..., 0] = np.cos(s)[:, None] * (f_amp / (2.0 * omega))
        out[..., 1] = np.sin(s)[:, None] * (g_amp / (2.0 * omega))
        out[..., 2] = (omega0 / (2.0 * omega))[None, :]
        return out

    b1 = half_field((k + 0.5 - offset) * ds)
    b2 = half_field((k + 0.5 + offset) * ds)
    # Omega = -i c . sigma with c = ds (b1 + b2)/2 + sqrt(3) ds^2 / 6 (b2 x b1)
    c = 0.5 * ds * (b1 + b2) + (math.sqrt(3.0) * ds * ds / 6.0) * np.cross(b2, b1)
    angle = np.linalg.norm(c, axis=-1)
    q = np.empty((steps, omega.size, 4))
    q[..., 0] = np.cos(angle)
    q[..., 1:] = c * np.sinc(angle / math.pi)[..., None]
    return q


def _product(q):
    """Ordered product E_K ... E_1 of a (K, P, 4) stack by pairwise reduction."""
    while q.shape[0] > 1:
        if q.shape[0] % 2:
            ident = np.zeros((1,) + q.shape[1:])
            ident[..., 0] = 1.0
            q = np.concatenate([q, ident])
        q = qmul(q[1::2], q[0::2])
    return q[0]


def _prefix_products(q):
    """Inclusive prefix products P_k = E_k ... E_1 (Hillis-Steele scan)."""
    q = q.copy()
    shift = 1
    while shift < q.shape[0]:
        q[shift:] = qmul(q[shift:], q[:-shift])
        shift *= 2
    return q


def _as_arrays(*values):
    arrays = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in values))
    return [np.ascontiguousarray(a) for a in arrays]


def _steps_for(omega0, f_amp, g_amp, omega):
    ratio = np.max(np.maximum(np.maximum(f_amp, g_amp), omega0) / omega)
    return _STEPS_STRONG if ratio > _STRONG_RATIO else _STEPS_WEAK


def eigenphase(omega0, f_amp, g_amp, omega):
    """theta in [0, pi] of U(T) = cos(theta) - i sin(theta) n . sigma.

    The quasienergies are +-theta/T mod omega.  Each batch is integrated
    with K and K/2 steps; a disagreement above 1e-9 in epsilon raises, so a
    reference that has not converged can never pass or fail a check.
    """
    omega0, f_amp, g_amp, omega = _as_arrays(omega0, f_amp, g_amp, omega)
    theta = np.empty(omega.size)
    for lo in range(0, omega.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        args = (omega0[part], f_amp[part], g_amp[part], omega[part])
        steps = _steps_for(*args)
        fine = _angle(_product(_step_elements(*args, steps)))
        coarse = _angle(_product(_step_elements(*args, steps // 2)))
        drift = np.max(np.abs(fine - coarse) * args[3] / (2.0 * math.pi))
        if drift > _SELF_CHECK:
            raise ArithmeticError(f"Magnus propagator not converged: drift {drift:.1e}")
        theta[part] = fine
    return theta


def _angle(q):
    return np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), q[..., 0])


def circular_distance(a, b, period):
    d = np.mod(np.asarray(a) - np.asarray(b), period)
    return np.minimum(d, period - d)


def distance_to_pair(eps, ref, omega):
    """Distance of eps to {ref, -ref} mod omega."""
    return np.minimum(circular_distance(eps, ref, omega), circular_distance(eps, -ref, omega))


def mean_floquet_z(omega0, f_amp, omega, steps=_STEPS_WEAK):
    """Period average of the Bloch z-component of a Floquet state (G = 0).

    The state starts on the axis n of U(T) and follows X(t) = R(U(t)) n.
    Shirley's time-averaged transition probability is (1 - m^2)/2.
    """
    omega0, f_amp, omega = _as_arrays(omega0, f_amp, omega)
    q = _step_elements(omega0, f_amp, np.zeros_like(f_amp), omega, steps)
    prefix = _prefix_products(q)
    axis = prefix[-1, :, 1:]
    axis = axis / np.linalg.norm(axis, axis=-1)[:, None]
    # states at t_k = k T / K for k = 0..K-1: the identity, then P_1..P_{K-1}
    u0 = prefix[:-1, :, 0]
    uv = prefix[:-1, :, 1:]
    # rotation of the Bloch vector under q0 - i q . sigma:
    # v' = v + 2 q0 (q x v) + 2 q x (q x v)
    cross = np.cross(uv, axis[None])
    rotated = axis[None] + 2.0 * u0[..., None] * cross + 2.0 * np.cross(uv, cross)
    z = np.concatenate([axis[None, :, 2], rotated[..., 2]])
    return z.mean(axis=0)


# ---------------------------------------------------------------------------
# dense A^(N) of the Fourier ansatz


def dense_matrix(omega0, f_amp, omega, n_trunc):
    """Rows k = 1..N of the linear system for the Fourier coefficients.

    With X = omega0 sum_odd x_k cos(k w t), Y = sum_odd k w x_k sin(k w t)
    and Z = z0 + sum_even x_k cos(k w t), the equation of motion gives for
    odd k:  (k^2 w^2 - omega0^2) x_k + F/2 (x_{k-1} + x_{k+1}) = -F z0 [k = 1]
    and for even k:  -k w x_k - F w/2 ((k-1) x_{k-1} + (k+1) x_{k+1}) = 0.
    """
    a = np.zeros((n_trunc, n_trunc))
    for k in range(1, n_trunc + 1):
        i = k - 1
        if k % 2:
            a[i, i] = k * k * omega * omega - omega0 * omega0
            if k > 1:
                a[i, i - 1] = 0.5 * f_amp
            if k < n_trunc:
                a[i, i + 1] = 0.5 * f_amp
        else:
            a[i, i] = -k * omega
            a[i, i - 1] = -0.5 * f_amp * omega * (k - 1)
            if k < n_trunc:
                a[i, i + 1] = -0.5 * f_amp * omega * (k + 1)
    return a


def det_sign(omega0, f_amp, omega, n_trunc):
    sign, _ = np.linalg.slogdet(dense_matrix(omega0, f_amp, omega, n_trunc))
    return sign


def resonance_root(omega0, f_amp, guess, n_trunc, rel=1e-5):
    """Root of det A^(N)(omega) bracketed around ``guess``."""
    def signed(omega):
        sign, logabs = np.linalg.slogdet(dense_matrix(omega0, f_amp, omega, n_trunc))
        # magnitude scaled to O(1) near the guess; brentq needs the sign
        return sign * math.exp(min(logabs - scale, 700.0))

    _, scale = np.linalg.slogdet(dense_matrix(omega0, f_amp, guess, n_trunc))
    lo, hi = guess * (1.0 - rel), guess * (1.0 + rel)
    while signed(lo) * signed(hi) > 0:
        rel *= 4.0
        if rel > 0.05:
            raise ArithmeticError(f"no sign change of det A near {guess}")
        lo, hi = guess * (1.0 - rel), guess * (1.0 + rel)
    return brentq(signed, lo, hi, xtol=1e-15, rtol=1e-15)


# ---------------------------------------------------------------------------
# Bloch-Siegert closed forms (omega0 = 1)


def sigma_closed_form(n, two_m):
    """sigma_2^(n) (n > 1 and n = 1), sigma_4^(n) (n > 1), sigma_6^(n) (n > 2)."""
    q = 2 * n - 1
    if two_m == 2:
        return Fraction(1, 16) if n == 1 else Fraction(q, 16 * n * (n - 1))
    if two_m == 4 and n > 1:
        return Fraction(-(q**3) * (3 * q * q - 7), 4096 * ((n - 1) * n) ** 3)
    if two_m == 6 and n > 2:
        poly = 5 * q**6 - 57 * q**4 + 187 * q**2 - 199
        return Fraction(q**5 * poly, 2**20 * (n - 2) * ((n - 1) * n) ** 5 * (n + 1))
    return None
