"""Checks of the Hoggatt matrix's eigenpairs and roots as Poly equalities.

The Hoggatt matrix's eigenvalues are alpha^(k-j) beta^j, with alpha, beta
the roots of t^2 = x t + s.  _alpha_beta maps x to alpha + beta and s to
-alpha beta, with alpha and beta in the x and q slots, so the eigenpair
and root-product checks are equalities of ordinary Polys.

A helper module of the tests (pytest collects only test_*.py): qfib
itself runs none of these checks.
"""

from math import comb

from qfib.matrices import hoggatt, hoggatt_closed_form
from qfib.poly import ONE, Poly, Q, X, Z, dot, monomial


def _alpha_beta(p: Poly) -> Poly:
    """The image of a q-free p, with no negative power of x, under
    x -> alpha + beta, s -> -alpha beta (z fixed); alpha is held in the x
    slot and beta in the q slot.  With alpha -> alpha the map is injective
    on Z[x, s^±, z^±][alpha]/(alpha^2 - x alpha - s), so an identity about
    the roots of t^2 = x t + s holds iff its image does."""
    if p.exponent_range("q") != (0, 0) or p.exponent_range("x")[0] < 0:
        raise ValueError("the alpha-beta map needs a q-free Poly with no negative power of x")
    return dot(
        ((X + Q) ** ex, monomial(-c if es % 2 else c, ex=es, eq=es, ez=ez))
        for (ex, es, _, ez), c in p.terms()
    )


def prodinger_eigvec(n: int, j: int) -> list[Poly]:
    """Eigenvector u(n, j) of the Hoggatt matrix for the eigenvalue
    alpha^(j-1) beta^(n-j), with alpha in the x slot and beta in the q slot
    (see _alpha_beta): component i is
    sum_k C(i-1, k-1) C(n-i, j-k) alpha^(k-1) beta^(i-k)."""
    if not 1 <= j <= n:
        raise ValueError("prodinger_eigvec needs 1 <= j <= n")
    return [
        Poly({(k - 1, 0, i - k, 0): comb(i - 1, k - 1) * comb(n - i, j - k)
              for k in range(1, j + 1)})
        for i in range(1, n + 1)
    ]


def verify_prodinger(n: int, j: int) -> bool:
    """Check a(n) u(n,j) = alpha^(j-1) beta^(n-j) u(n,j) exactly, on the
    image of a(n) under _alpha_beta."""
    m, u = hoggatt(n), prodinger_eigvec(n, j)
    lam = monomial(1, ex=j - 1, eq=n - j)
    return all(
        dot((_alpha_beta(m[i, l]), u[l]) for l in range(n)) == lam * u[i] for i in range(n)
    )


def root_product_residual(k: int) -> Poly:
    """prod_{j=0..k} (z - alpha^(k-j) beta^j) minus the image of
    hoggatt_closed_form(k + 1) under _alpha_beta (expected zero)."""
    if k < 0:
        raise ValueError("root_product_residual needs k >= 0")
    prod = ONE
    for j in range(k + 1):
        prod = prod * (Z - monomial(1, ex=k - j, eq=j))
    return prod - _alpha_beta(hoggatt_closed_form(k + 1))
