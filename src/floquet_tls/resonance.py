"""Resonance curves, Bloch-Siegert shift coefficients, triangle coordinates.

Resonances of the linear problem are the zeros of det A^(N)(omega): there
the constant term z0 of the periodic solution vanishes together with the
mean of Z(t), which is the resonance condition d(eps)/d(omega0) = 0.  At
F = 0 the n-th resonance sits at omega0/(2n-1); its drive-amplitude series

    omega_res^(n)(F) = omega0/(2n-1) + sum_m sigma_2m^(n) omega0^(1-2m) F^(2m)

defines the Bloch-Siegert shift coefficients sigma.  They are computed as
exact rationals (omega0 = 1 by homogeneity, u = F^2): every entry of an
even row of A^(N) is proportional to omega, so eliminating the even modes
turns det A^(N) = 0 into the eigenproblem omega^2 y = (M0 + u M1) y on the
odd modes, with M0 = diag(1/j^2) and M1 tridiagonal and free of omega.
Rayleigh-Schroedinger perturbation of the eigenvalue 1/(2n-1)^2 in u
(Kato, Perturbation Theory for Linear Operators) gives omega^2(u) over
Fractions, and sigma_2m is the u^m coefficient of its square root.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .bloch_dynamics import DriveParams
from .errors import BracketNotFoundError, DomainError, SeriesInstabilityError
from .fourier_rpl import build_system, minors
from .specfun import bessel_j0_zero

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# triangle coordinates for the homogeneous parameter domain


@dataclass(frozen=True)
class TriangleCoords:
    """Point of the open parameter triangle in Cartesian and scaled form."""

    x: float
    y: float
    omega0_scaled: float
    omega_scaled: float
    f_scaled: float


def to_triangle(params):
    """Scaled coordinates of (omega0, omega, F); all three must be positive."""
    w0, w, f_amp = params.omega0, params.omega, params.F
    if params.G != 0:
        raise DomainError("triangle coordinates are defined for the linear problem (G = 0)")
    if w0 <= 0 or w <= 0 or f_amp <= 0:
        raise DomainError("triangle coordinates need strictly positive omega0, omega, F")
    total = w0 + w + f_amp
    w0s, ws, fs = w0 / total, w / total, f_amp / total
    return TriangleCoords(
        x=0.5 * (ws - w0s),
        y=0.5 * SQRT3 * fs,
        omega0_scaled=w0s,
        omega_scaled=ws,
        f_scaled=fs,
    )


def from_triangle(x, y):
    """Scaled (omega0, omega, F) of an interior Cartesian point."""
    w0s = 0.5 - x - y / SQRT3
    ws = 0.5 + x - y / SQRT3
    fs = 2.0 * y / SQRT3
    if min(w0s, ws, fs) <= 0 or max(w0s, ws, fs) >= 1:
        raise DomainError(f"point ({x}, {y}) lies outside the open triangle")
    return TriangleCoords(x=x, y=y, omega0_scaled=w0s, omega_scaled=ws, f_scaled=fs)


# ---------------------------------------------------------------------------
# resonance curves from det A^(N) = 0


@dataclass(frozen=True)
class ResonancePoint:
    n: int
    F: float
    omega_res: float
    N: int
    residual: float


def resonance_interpolation(n, f_amp, omega0):
    """Interpolation F/j_{0,n} + omega0/(2n-1) between the two exact edges."""
    if n < 1 or int(n) != n:
        raise DomainError(f"resonance index must be a positive integer: {n}")
    return f_amp / bessel_j0_zero(int(n)) + omega0 / (2 * int(n) - 1)


def _det_fn(f_amp, omega0, n_trunc):
    """det A^(N)(omega) over |det A^(N)| at the first omega evaluated.

    Sign and log2 magnitude come from the minors ladder; the exponent is
    clamped to +-1000, so far from the first frequency the value keeps its
    sign without overflowing or underflowing to zero.
    """
    state = {"ref": None}

    def fn(omega):
        params = DriveParams(omega0=omega0, F=f_amp, G=0.0, omega=omega)
        sign, log2_abs = minors(build_system(params, n_trunc)).slog2()
        if sign == 0.0:
            return 0.0
        if state["ref"] is None:
            state["ref"] = log2_abs
        return sign * 2.0 ** min(max(log2_abs - state["ref"], -1000.0), 1000.0)

    return fn


def _scan_roots(fn, lo, hi, points):
    """Brackets of sign changes of fn on a log-spaced grid."""
    grid = np.geomspace(lo, hi, points)
    vals = np.array([fn(w) for w in grid])
    brackets = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            brackets.append((grid[i], grid[i]))
        elif (a > 0) != (b > 0):  # sign test; the product could overflow
            brackets.append((grid[i], grid[i + 1]))
    if vals[-1] == 0.0:
        brackets.append((grid[-1], grid[-1]))
    return brackets


def _refine(fn, lo, hi):
    if lo == hi:
        return lo
    return brentq(fn, lo, hi, xtol=1e-12, rtol=4 * np.finfo(float).eps)


def _neighbour_gap(n, f_amp, omega0):
    """Smallest relative distance to the adjacent resonance curves."""
    here = resonance_interpolation(n, f_amp, omega0)
    below = resonance_interpolation(n + 1, f_amp, omega0)
    gap = (here - below) / here
    if n > 1:
        above = resonance_interpolation(n - 1, f_amp, omega0)
        gap = min(gap, (above - here) / here)
    return gap


def find_resonance(n, f_amp, omega0=1.0, n_trunc=50, seed=None):
    """Locate the n-th resonance frequency at fixed drive amplitude.

    Without a seed the determinant is scanned globally and the n-th largest
    root taken (the curves never cross); with a seed (drift-corrected warm
    start from a neighbouring amplitude) a bracket is grown around it, kept
    clear of the adjacent curves, with the global scan as fallback.
    """
    if n < 1 or int(n) != n:
        raise DomainError(f"resonance index must be a positive integer: {n}")
    n = int(n)
    fn = _det_fn(f_amp, omega0, n_trunc)
    if seed is not None:
        max_rel = 0.45 * _neighbour_gap(n, f_amp, omega0)
        root = _track_root(fn, seed, max_rel=max_rel)
        if root is not None:
            return ResonancePoint(n=n, F=f_amp, omega_res=root, N=n_trunc, residual=abs(fn(root)))
    # scan below the (n+1)-th curve and above the first one; the wanted
    # root is the n-th largest of every sign change in between
    lo = 0.45 * omega0 / (2 * n + 1)
    hi = 1.8 * resonance_interpolation(1, f_amp, omega0)
    points = max(1200, 250 * (n + 2))
    brackets = _scan_roots(fn, lo, hi, points)
    if len(brackets) < n:
        raise BracketNotFoundError(
            f"found only {len(brackets)} determinant roots in [{lo:.3g}, {hi:.3g}] "
            f"for resonance {n}; increase the truncation order",
            suggested_n=n_trunc + 16,
        )
    roots = sorted(_refine(fn, a, b) for a, b in brackets)
    root = roots[-n]
    return ResonancePoint(n=n, F=f_amp, omega_res=root, N=n_trunc, residual=abs(fn(root)))


def _track_root(fn, seed, rel0=0.002, grow=1.8, max_rel=0.35):
    """Expand a bracket around the seed until the determinant changes sign.

    The expansion stops at max_rel so a sign change of a neighbouring curve
    can never be mistaken for the tracked one.
    """
    rel = rel0
    while rel <= max_rel:
        lo, hi = seed * (1 - rel), seed * (1 + rel)
        va, vb = fn(lo), fn(hi)
        if va == 0.0:
            return lo
        if vb == 0.0:
            return hi
        if va * vb < 0:
            return _refine(fn, lo, hi)
        rel *= grow
    return None


def resonance_curve(n, f_grid, omega0=1.0, n_trunc=50):
    """The n-th resonance curve over an amplitude grid.

    The first point is located by a global scan; subsequent points warm
    start from the previous root shifted by the drift the edge
    interpolation predicts between the two amplitudes.
    """
    points = []
    prev = None
    for f_amp in f_grid:
        f_amp = float(f_amp)
        seed = None
        if prev is not None:
            f_prev, root_prev = prev
            drift = resonance_interpolation(n, f_amp, omega0) - resonance_interpolation(
                n, f_prev, omega0
            )
            seed = root_prev + drift
        pt = find_resonance(n, f_amp, omega0=omega0, n_trunc=n_trunc, seed=seed)
        points.append(pt)
        prev = (f_amp, pt.omega_res)
    return points


def large_f_fit(n, omega0=1.0, f_lo=10.0, f_hi=100.0, points=25, n_trunc=50):
    """Least-squares fit of omega_res(F) against {F, 1/F, 1/F^3, 1/F^5}.

    Returns the four fitted coefficients; the leading one approaches
    1/j_{0,n} for large amplitudes.
    """
    fs = np.geomspace(f_lo, f_hi, points)
    curve = resonance_curve(n, fs, omega0=omega0, n_trunc=n_trunc)
    w = np.array([p.omega_res for p in curve])
    basis = np.stack([fs, 1.0 / fs, fs**-3.0, fs**-5.0], axis=-1)
    coeffs, *_ = np.linalg.lstsq(basis, w, rcond=None)
    return coeffs


# ---------------------------------------------------------------------------
# Bloch-Siegert coefficients as exact rationals


def _shift_series(n, max_m, n_trunc):
    """omega_1..omega_max_m of omega(u) = sum_k omega_k u^k at truncation N.

    The eigenvalue lambda_0 = 1/(2n-1)^2 of M0 + u M1 on the odd modes
    j <= N (module docstring) is continued order by order, its eigenvector
    fixed to 1 at mode 2n-1; omega = sqrt(lambda) is then expanded term by
    term from omega_0 = 1/(2n-1).
    """
    modes = range(1, n_trunc + 1, 2)
    size, p = len(modes), n - 1
    diag = [  # one term per even neighbour j -+ 1 inside the truncation
        (Fraction(1, 4 * j * (j + 1)) if j < n_trunc else 0)
        + (Fraction(1, 4 * j * (j - 1)) if j > 1 else 0)
        for j in modes
    ]
    upper = [Fraction(1, 4 * j * (j + 1)) for j in modes[:-1]]  # entry (j, j+2)
    lower = [Fraction(1, 4 * (j + 1) * (j + 2)) for j in modes[:-1]]  # entry (j+2, j)
    lam0 = Fraction(1, (2 * n - 1) ** 2)
    gap = [lam0 - Fraction(1, j * j) for j in modes]
    lams = [lam0]
    vecs = [[Fraction(int(i == p)) for i in range(size)]]
    for k in range(1, max_m + 1):
        v = vecs[-1]
        mv = [
            diag[i] * v[i]
            + (upper[i] * v[i + 1] if i + 1 < size else 0)
            + (lower[i - 1] * v[i - 1] if i else 0)
            for i in range(size)
        ]
        lams.append(mv[p])
        vecs.append([
            Fraction(0) if i == p
            else (mv[i] - sum(lams[q] * vecs[k - q][i] for q in range(1, k + 1))) / gap[i]
            for i in range(size)
        ])
    omegas = [Fraction(1, 2 * n - 1)]
    for k in range(1, max_m + 1):
        cross = sum(omegas[j] * omegas[k - j] for j in range(1, k))
        omegas.append((lams[k] - cross) / (2 * omegas[0]))
    return omegas[1:]


def bloch_siegert_coefficients(n, max_m, n_trunc=None):
    """Exact rational sigma_2m^(n) for m = 1..max_m.

    The truncation default 2 max_m + 2n + 4 is verified by recomputing at
    N + 4; disagreement raises SeriesInstabilityError.
    """
    if n < 1 or int(n) != n:
        raise DomainError(f"resonance index must be a positive integer: {n}")
    if max_m < 1 or int(max_m) != max_m:
        raise DomainError(f"max_m must be a positive integer: {max_m}")
    n, max_m = int(n), int(max_m)
    if n_trunc is None:
        n_trunc = 2 * max_m + 2 * n + 4
    if n_trunc < 2 * n - 1:
        raise DomainError(f"truncation {n_trunc} cannot resolve resonance {n}")
    first = _shift_series(n, max_m, n_trunc)
    second = _shift_series(n, max_m, n_trunc + 4)
    if first != second:
        raise SeriesInstabilityError(
            f"sigma coefficients changed between N = {n_trunc} and N = {n_trunc + 4}; "
            "increase the truncation"
        )
    return first


def bloch_siegert_shift(n, f_amp, omega0=1.0, max_m=6):
    """Truncated shift series evaluated as a float."""
    sig = bloch_siegert_coefficients(n, max_m)
    total = omega0 / (2 * n - 1)
    for m, s in enumerate(sig, start=1):
        total += float(s) * omega0 ** (1 - 2 * m) * f_amp ** (2 * m)
    return total


def sigma_closed_form(n, m):
    """Closed forms of sigma_2^(n), sigma_4^(n), sigma_6^(n).

    Known for n > 1 (m = 1, 2) and n > 2 (m = 3).
    """
    n = int(n)
    q = 2 * n - 1
    if m == 1:
        if n <= 1:
            raise DomainError("sigma_2 closed form needs n > 1")
        return Fraction(q, 2**4 * (n - 1) * n)
    if m == 2:
        if n <= 1:
            raise DomainError("sigma_4 closed form needs n > 1")
        return Fraction(-(q**3) * (3 * q**2 - 7), 2**12 * (n - 1) ** 3 * n**3)
    if m == 3:
        if n <= 2:
            raise DomainError("sigma_6 closed form needs n > 2")
        num = q**5 * (5 * q**6 - 57 * q**4 + 187 * q**2 - 199)
        den = 2**20 * (n - 2) * (n - 1) ** 5 * n**5 * (n + 1)
        return Fraction(num, den)
    raise DomainError(f"closed forms exist for m = 1, 2, 3 only, got {m}")


# ---------------------------------------------------------------------------
# structural cross-check of the general coefficient form


def general_form_exponents(k):
    """Exponent pattern n(k, j) and polynomial degree z(k) of the ansatz

        sigma_2k^(n) = (2n-1)^(2k-1) P_k(n(n-1)) /
                       prod_j (2n - 2 ceil(k/2) + 2(j-1))^(n(k,j)),

    with P_k a degree-z(k) rational polynomial.
    """
    half_up = (k + 1) // 2
    exponents = []
    for j in range(1, 2 * half_up + 1):
        denom = abs(2 * j - 2 * half_up - 1)
        exponents.append(2 * (k // denom) - 1)
    z = sum(exponents) // 2 - k
    return exponents, z


def general_form_check(k, n_values, n_trunc=None):
    """Fit P_k from the first few exact sigmas, report mismatches beyond.

    Returns (fitted coefficients of P_k, list of (n, recursion value,
    form value) disagreements).  The combinatorial form is a stated
    observation, so disagreements are reported rather than raised.
    """
    exponents, z = general_form_exponents(k)
    half_up = (k + 1) // 2

    def denominator(n):
        prod = Fraction(1)
        for j, e in enumerate(exponents, start=1):
            base = 2 * n - 2 * half_up + 2 * (j - 1)
            if base == 0:
                return None
            prod *= Fraction(base) ** e
        return prod

    usable = []
    for n in n_values:
        den = denominator(n)
        if den is not None and n > half_up:
            usable.append((n, den))
    need = z + 1
    if len(usable) < need + 1:
        raise DomainError(f"need at least {need + 1} usable n values for k = {k}")
    sig = {n: bloch_siegert_coefficients(n, k, n_trunc)[k - 1] for n, _ in usable}
    # linear solve for the z+1 polynomial coefficients in u = n(n-1)
    rows, rhs = [], []
    for n, den in usable[:need]:
        u = Fraction(n * (n - 1))
        rows.append([u**j for j in range(need)])
        rhs.append(sig[n] * den / Fraction(2 * n - 1) ** (2 * k - 1))
    coeffs = _exact_solve(rows, rhs)
    mismatches = []
    for n, den in usable:
        u = Fraction(n * (n - 1))
        form = Fraction(2 * n - 1) ** (2 * k - 1) * sum(
            c * u**j for j, c in enumerate(coeffs)
        ) / den
        if form != sig[n]:
            mismatches.append((n, sig[n], form))
    return coeffs, mismatches


def _exact_solve(rows, rhs):
    """Gaussian elimination over Fractions."""
    size = len(rhs)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise DomainError("singular exact system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]
