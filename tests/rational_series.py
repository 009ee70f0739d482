"""Fraction reference for the Bloch-Siegert recursion of floquet_tls.resonance.

``shift_series`` is Rayleigh-Schroedinger perturbation of the eigenvalue
1/(2n-1)^2 of M0 + u M1 on the odd modes j <= N, written directly over
``fractions.Fraction``: every entry of every perturbation vector is its own
reduced rational.  The package keeps the vectors as integers over one
common denominator instead; both must give the same exact coefficients.
"""

from fractions import Fraction

from floquet_tls.resonance import _odd_couplings


def shift_series(n, max_m, n_trunc):
    """omega_1..omega_max_m of omega(u) = sum_k omega_k u^k at truncation N.

    The eigenvector is fixed to 1 at mode 2n-1; omega = sqrt(lambda) is then
    expanded term by term from omega_0 = 1/(2n-1).
    """
    modes = range(1, n_trunc + 1, 2)
    size, p = len(modes), n - 1
    diag, upper, lower = _odd_couplings(n_trunc, Fraction(1))
    lam0 = Fraction(1, (2 * n - 1) ** 2)
    gap = [lam0 - Fraction(1, j * j) for j in modes]
    lams = [lam0]
    vecs = [[Fraction(int(i == p)) for i in range(size)]]
    for k in range(1, max_m + 1):
        # M1 is tridiagonal, so v_q is zero beyond q modes from p: M1 v_(k-1)
        # and v_k live on the band |i - p| <= k, and lams[q] v_(k-q)
        # contributes at i only for q <= k - |i - p|
        v = vecs[-1]
        band = range(max(p - k, 0), min(p + k + 1, size))
        mv = {
            i: diag[i] * v[i]
            + (upper[i] * v[i + 1] if i + 1 < size else 0)
            + (lower[i - 1] * v[i - 1] if i else 0)
            for i in band
        }
        lams.append(mv[p])
        vec = [Fraction(0)] * size
        for i in band:
            if i != p:
                near = range(1, k - abs(i - p) + 1)
                vec[i] = (mv[i] - sum(lams[q] * vecs[k - q][i] for q in near)) / gap[i]
        vecs.append(vec)
    omegas = [Fraction(1, 2 * n - 1)]
    for k in range(1, max_m + 1):
        cross = sum(omegas[j] * omegas[k - j] for j in range(1, k))
        omegas.append((lams[k] - cross) / (2 * omegas[0]))
    return omegas[1:]
