"""Resonance curves, Bloch-Siegert shift coefficients, triangle coordinates.

Resonances of the linear problem are the zeros of det A^(N)(omega): there
the constant term z0 of the periodic solution vanishes together with the
mean of Z(t), which is the resonance condition d(eps)/d(omega0) = 0.
Every entry of an even row of A^(N) is proportional to omega, so
eliminating the even modes turns det A^(N) = 0 into the eigenproblem
(omega/omega0)^2 y = (M0 + u M1) y on the odd modes j <= N, u = (F/omega0)^2,
with M0 = diag(1/j^2) and M1 tridiagonal and free of omega; the n-th
resonance comes from the n-th largest eigenvalue.  The curves of every index in a
list (``resonance_curves``) therefore share one ``numpy.linalg.eigvalsh``
call on the matrices of the whole amplitude grid at truncation N, and one
at N + 4 for the residual |omega(N) - omega(N+4)| / omega(N); one array
pass of the minors ratio ladder (``_det_signs``) checks that det A^(N)
changes sign within 1e-12 relative of every (n, F) root.

A lone point (``find_resonance``) is found by scanning the sign of the
determinant on a frequency grid, or around a warm start, and refining the
bracket by Brent's method (``brentq``, in this module, so a resonance
search loads no scipy module).  It is the independent check of the eigen
roots, and a curve falls back on it, seeded with the eigen root, where the
sign check fails.

At F = 0 the n-th resonance sits at omega0/(2n-1); its drive-amplitude series

    omega_res^(n)(F) = omega0/(2n-1) + sum_m sigma_2m^(n) omega0^(1-2m) F^(2m)

defines the Bloch-Siegert shift coefficients sigma.  They are computed as
exact rationals (omega0 = 1 by homogeneity, u = F^2): Rayleigh-Schroedinger
perturbation of the eigenvalue 1/(2n-1)^2 of M0 + u M1 in u (Kato,
Perturbation Theory for Linear Operators) gives omega^2(u) exactly,
and sigma_2m is the u^m coefficient of its square root.  The recursion runs
on Python integers: each perturbation vector is integer numerators over one
common denominator, reduced by one gcd per order.  The exact series and the
float eigen-solve read M1 from one function, ``_odd_couplings``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bloch_dynamics import DriveParams
from .errors import BracketNotFoundError, DomainError, SeriesInstabilityError
from .fourier_rpl import _ratio_block, build_system, minors
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


def _resonance_index(n):
    """n as an int, once it is checked to be a positive integer."""
    if n < 1 or int(n) != n:
        raise DomainError(f"resonance index must be a positive integer: {n}")
    return int(n)


def resonance_interpolation(n, f_amp, omega0):
    """Interpolation F/j_{0,n} + omega0/(2n-1) between the two exact edges."""
    n = _resonance_index(n)
    return f_amp / bessel_j0_zero(n) + omega0 / (2 * n - 1)


def _odd_couplings(n_trunc):
    """M1 on the odd modes j <= N: its diagonal, upper (j, j+2) and lower (j+2, j) entries.

    Each entry is a tuple of integer denominators d, the entry being the sum of
    their 1/d: the exact series puts them over one common denominator, and the
    float eigen-solve divides them itself.
    """
    modes = range(1, n_trunc + 1, 2)
    diag = [  # one term per even neighbour j -+ 1 inside the truncation
        tuple(
            d for d, inside in ((4 * j * (j + 1), j < n_trunc), (4 * j * (j - 1), j > 1)) if inside
        )
        for j in modes
    ]
    upper = [(4 * j * (j + 1),) for j in modes[:-1]]
    lower = [(4 * (j + 1) * (j + 2),) for j in modes[:-1]]
    return diag, upper, lower


def _odd_mode_roots(f_amps, omega0, n_trunc):
    """Every positive root of det A^(N) at each amplitude, largest first.

    omega0 sqrt(lambda) for the eigenvalues lambda of M0 + u M1, u = (F/omega0)^2
    (module docstring), from one ``eigvalsh`` call on the stack of matrices.
    M1 is made symmetric by a diagonal similarity, which leaves the
    eigenvalues alone: its off-diagonal is the square root of the product of
    the upper and lower entries.  Shape (len(f_amps), ceil(N/2)).
    """
    n_trunc = int(n_trunc)
    diag, upper, lower = (
        [sum(1.0 / d for d in ds) for ds in row] for row in _odd_couplings(n_trunc)
    )
    off = np.sqrt(np.multiply(upper, lower))
    m1 = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    m0 = np.diag(1.0 / np.arange(1, n_trunc + 1, 2) ** 2)
    u = (np.asarray(f_amps, dtype=float) / omega0) ** 2
    lams = np.linalg.eigvalsh(m0 + u[:, None, None] * m1)
    return omega0 * np.sqrt(lams[:, ::-1])


def _eigen_roots(n, f_amps, omega0, n_trunc):
    """The n-th resonance at each amplitude and its residual.

    The residual |omega(N) - omega(N+4)| / omega(N) compares the roots of
    truncations N and N + 4: the relative change the next four modes make.
    n may be an integer array, one column per index: shape (len(f_amps), len(n)).
    """
    here = _odd_mode_roots(f_amps, omega0, n_trunc)[:, n - 1]
    ahead = _odd_mode_roots(f_amps, omega0, n_trunc + 4)[:, n - 1]
    return here, np.abs(here - ahead) / here


def _det_fn(f_amp, omega0, n_trunc):
    """det A^(N)(omega) over |det A^(N)| at the first omega evaluated.

    Sign and log2 magnitude come from the minors ladder; the exponent is
    clamped to +-1000, so far from the first frequency the value keeps its
    sign without overflowing or underflowing to zero.  fn remembers what it
    returned for each omega, so a frequency asked for again (a bracket end
    handed on to ``brentq``) builds no second ladder.  ``fn.signs(omegas)``
    gives the signs of fn over an array of frequencies at once, from
    :func:`_det_signs`.
    """
    state = {"ref": None}
    seen = {}

    def fn(omega):
        if omega in seen:
            return seen[omega]
        params = DriveParams(omega0=omega0, F=f_amp, G=0.0, omega=omega)
        sign, log2_abs = minors(build_system(params, n_trunc)).slog2()
        if sign != 0.0 and state["ref"] is None:
            state["ref"] = log2_abs
        value = seen[omega] = (
            sign * 2.0 ** min(max(log2_abs - state["ref"], -1000.0), 1000.0) if sign else 0.0
        )
        return value

    fn.signs = lambda omegas: _det_signs(f_amp, omega0, n_trunc, omegas)
    return fn


def _det_signs(f_amp, omega0, n_trunc, omegas):
    """sign(det A^(N)) at every frequency of an array; 0 where slog2 gives 0.

    The float ladder of ``fourier_rpl.minors`` run across the array
    (``fourier_rpl._ratio_block``), so each sign is the one
    ``minors(build_system(...)).slog2()`` gives at that frequency.  f_amp is
    one amplitude for every frequency, or an array of one per frequency.
    """
    r = _ratio_block(omega0, f_amp, omegas, int(n_trunc))[0]
    negative = np.count_nonzero(np.signbit(r), axis=0) % 2
    return np.where((r == 0.0).any(axis=0), 0.0, np.where(negative, -1.0, 1.0))


def _scan_roots(fn, lo, hi, points):
    """Brackets of sign changes of fn on a log-spaced grid.

    fn is evaluated in grid order up to its first nonzero value, which
    fixes its reference exactly as a point-by-point scan would; the signs
    of the whole grid come from ``fn.signs``.
    """
    grid = np.geomspace(lo, hi, points)
    for w in grid:
        if fn(w) != 0.0:
            break
    vals = fn.signs(grid)
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


_RTOL_MIN = 4 * np.finfo(float).eps


def brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of f in the sign-change bracket [a, b] by Brent's method.

    A step-for-step transcription of scipy.optimize.brentq (R. P. Brent,
    Algorithms for Minimization Without Derivatives, 1973, ch. 4): the same
    iterates, the same root, the same errors, without importing
    scipy.optimize.  xpre/xcur/xblk are the previous iterate, the current
    best and the opposite-sign end; each step interpolates (secant or
    inverse quadratic) when that stays short, else bisects, and is never
    shorter than delta = (xtol + rtol |xcur|)/2.  Ends, tolerances and f
    values are cast to Python floats, so a step overflows to inf silently,
    as a C double does, not with numpy's RuntimeWarning.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short interpolation step exists
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or NaN here and bisects
                pass
        limit = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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
    root taken (the curves never cross); with a seed (a nearby estimate of
    the root) a bracket is grown around it, kept clear of the adjacent
    curves, with the global scan as fallback.  The residual is that of the
    eigen-solve at f_amp (:func:`_eigen_roots`).
    """
    n = _resonance_index(n)
    fn = _det_fn(f_amp, omega0, n_trunc)
    if seed is not None:
        max_rel = 0.45 * _neighbour_gap(n, f_amp, omega0)
        root = _track_root(fn, seed, max_rel=max_rel)
        if root is not None:
            return _point(n, f_amp, omega0, n_trunc, root)
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
    # brackets are disjoint and ascending, so the n-th largest root lies in
    # the n-th last bracket
    return _point(n, f_amp, omega0, n_trunc, _refine(fn, *brackets[-n]))


def _point(n, f_amp, omega0, n_trunc, root):
    """A searched root, with the residual of the eigen-solve at its amplitude."""
    _, residual = _eigen_roots(n, [f_amp], omega0, n_trunc)
    return ResonancePoint(n=n, F=f_amp, omega_res=root, N=n_trunc, residual=float(residual[0]))


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


def _curve_index(n, omega0, n_trunc):
    """n as an int, once n, omega0 and N are checked for a resonance curve."""
    index = _resonance_index(n)
    if n_trunc < 2:
        raise DomainError(f"truncation order must be >= 2, got {n_trunc}")
    if not omega0 > 0:
        raise DomainError(f"omega0 must be positive, got {omega0}")
    modes = (int(n_trunc) + 1) // 2
    if n > modes:
        raise BracketNotFoundError(
            f"truncation N = {n_trunc} has {modes} odd modes, so det A^(N) has only "
            f"{modes} resonances; resonance {n} needs a higher truncation order",
            suggested_n=n_trunc + 16,
        )
    return index


def resonance_curves(n_list, f_grid, omega0=1.0, n_trunc=50):
    """The curves of every index in n_list over one amplitude grid, in list order.

    Every n is checked before any work.  The eigen-solves at N and N + 4
    are shared by all curves (:func:`_eigen_roots` reads column n - 1 of
    each), and one array pass of the minors ladder (:func:`_det_signs`)
    checks that det A^(N) changes sign within 1e-12 relative of every
    (n, F) root.  A root that fails the check is searched for by
    :func:`find_resonance`, seeded with it.
    """
    ns = [_curve_index(n, omega0, n_trunc) for n in n_list]
    fs = np.array(f_grid, dtype=float)
    roots, residuals = (a.T for a in _eigen_roots(np.array(ns, dtype=int), fs, omega0, n_trunc))
    # a sign change puts a root of det A^(N) within 1e-12 relative of the eigen root
    ends = np.outer([1 - 1e-12, 1 + 1e-12], roots.ravel()).ravel()
    below, above = _det_signs(np.tile(fs, 2 * len(ns)), omega0, n_trunc, ends).reshape(2, -1)
    changed = (below * above < 0).reshape(roots.shape)
    curves = []
    for n, row_roots, row_residuals, row_ok in zip(ns, roots.tolist(), residuals.tolist(), changed):
        curves.append([
            ResonancePoint(n=n, F=f_amp, omega_res=root, N=n_trunc, residual=residual)
            if ok
            else find_resonance(n, f_amp, omega0=omega0, n_trunc=n_trunc, seed=root)
            for f_amp, root, residual, ok in zip(fs.tolist(), row_roots, row_residuals, row_ok)
        ])
    return curves


def resonance_curve(n, f_grid, omega0=1.0, n_trunc=50):
    """The n-th resonance curve over an amplitude grid: :func:`resonance_curves` of [n]."""
    return resonance_curves([n], f_grid, omega0=omega0, n_trunc=n_trunc)[0]


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

    The eigenvalue lambda_0 = 1/q^2, q = 2n-1, of M0 + u M1 on the odd modes
    j <= N (module docstring) is continued order by order, its eigenvector
    fixed to 1 at mode q; omega = sqrt(lambda) is then expanded term by term
    from omega_0 = 1/q.  Each perturbation vector v_k is kept as integer
    numerators over one common denominator: M1 is scaled to integers by the
    lcm of its denominators, and the gaps lambda_0 - 1/j^2 = (j^2 - q^2)/(q^2 j^2)
    are divided through the lcm of the band's |j^2 - q^2|, with one gcd
    reduction per order.  The lambda_k and the omega_k are Fractions.
    """
    modes = range(1, n_trunc + 1, 2)
    size, p, q2 = len(modes), n - 1, (2 * n - 1) ** 2
    # M1 = (diag, upper, lower) / scale, with integer entries
    rows = _odd_couplings(n_trunc)
    scale = math.lcm(*(d for row in rows for ds in row for d in ds))
    diag, upper, lower = ([sum(scale // d for d in ds) for ds in row] for row in rows)
    lams = [Fraction(1, q2)]
    vecs, dens = [[int(i == p) for i in range(size)]], [1]  # v_k = vecs[k] / dens[k]
    for k in range(1, max_m + 1):
        # M1 is tridiagonal, so v_s is zero beyond s modes from p: M1 v_(k-1)
        # and v_k live on the band |i - p| <= k, and lams[s] v_(k-s)
        # contributes at i only for s <= k - |i - p|
        v = vecs[-1]
        band = range(max(p - k, 0), min(p + k + 1, size))
        mv = {
            i: diag[i] * v[i]
            + (upper[i] * v[i + 1] if i + 1 < size else 0)
            + (lower[i - 1] * v[i - 1] if i else 0)
            for i in band
        }
        mv_den = scale * dens[-1]
        lams.append(Fraction(mv[p], mv_den))
        # M1 v_(k-1) - sum_s lams[s] v_(k-s) over one common denominator
        term_dens = [lams[s].denominator * dens[k - s] for s in range(1, k)]
        common = math.lcm(mv_den, *term_dens)
        terms = [(lams[s].numerator * (common // d), vecs[k - s]) for s, d in enumerate(term_dens, 1)]
        gaps = math.lcm(*(abs(modes[i] ** 2 - q2) for i in band if i != p))
        vec = [0] * size
        for i in band:
            if i != p:
                near = terms[: k - abs(i - p)]
                rest = mv[i] * (common // mv_den) - sum(c * w[i] for c, w in near)
                j2 = modes[i] ** 2
                vec[i] = rest * q2 * j2 * (gaps // (j2 - q2))
        den = gaps * common
        g = math.gcd(den, *(vec[i] for i in band))
        vecs.append([x // g for x in vec])
        dens.append(den // g)
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
    n = _resonance_index(n)
    if max_m < 1 or int(max_m) != max_m:
        raise DomainError(f"max_m must be a positive integer: {max_m}")
    max_m = int(max_m)
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
