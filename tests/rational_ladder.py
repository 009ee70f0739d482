"""Fraction reference for the minors ladder of floquet_tls.fourier_rpl.

The package runs the ladder in floats, on the ratios r_k = phi_k / phi_{k+1},
and divides the coefficients by phi_2 and by the orbit's orientation.  Here
the entries of A^(N), its co-leading minors phi_k and the coefficients with
z0 = phi_1 are exact rationals, written from their definitions: with rational
(omega0, F, omega) they are the polynomial closed forms in those parameters.
"""

from fractions import Fraction


def entries(params, n_trunc):
    """(diag, sup, sub) of A^(N) as Fractions: diag (n, n), sup (n, n+1), sub (n+1, n)."""
    w, w0, half = Fraction(params.omega), Fraction(params.omega0), Fraction(params.F) / 2
    diag = [n * n * w * w - w0 * w0 if n % 2 else -n * w for n in range(1, n_trunc + 1)]
    sup = [half if n % 2 else -(n + 1) * half * w for n in range(1, n_trunc)]
    sub = [-n * half * w if n % 2 else half for n in range(1, n_trunc)]
    return diag, sup, sub


def minors(diag, sup, sub):
    """phi_1..phi_N by phi_k = a_k phi_{k+1} - A_{k,k+1} A_{k+1,k} phi_{k+2},
    phi_{N+1} = 1, phi_{N+2} = 0; phi_1 = det A^(N)."""
    phi = [Fraction(1), Fraction(0)]  # phi_{k+1}, phi_{k+2}, ...
    for k in range(len(diag), 0, -1):
        b = -sup[k - 1] * sub[k - 1] if k < len(diag) else 0
        phi.insert(0, diag[k - 1] * phi[0] + b * phi[1])
    return phi[:-2]


def coefficients(params, n_trunc):
    """(z0, [x_1..x_N]) of the order-N truncation with z0 = phi_1:
    x_i = -F prod_{k=2..i} (-A_{k,k-1}) phi_{i+1}."""
    diag, sup, sub = entries(params, n_trunc)
    phi = minors(diag, sup, sub) + [Fraction(1)]
    prod, xs = -Fraction(params.F), []
    for i in range(1, n_trunc + 1):
        if i > 1:
            prod *= -sub[i - 2]
        xs.append(prod * phi[i])
    return phi[0], xs
