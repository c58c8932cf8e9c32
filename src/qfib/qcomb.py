"""q-binomials, fibonomial coefficients, and factorial-type products.

Fibonomial coefficients are ratios of Fibonacci-polynomial products.  Each
kind has one function whose trailing ell argument (default 1) selects the
stride-ell variant on the subsequence F(ell*i) or f(ell*i); there are no
separate *_ell functions.  The classical fibonomial is always exactly
divisible and is returned as a polynomial.  The q-fibonomial (with shifted s
arguments in the denominator) is not guaranteed polynomial, so
qfibonomial_parts returns the (numerator, denominator) pair and qfibonomial
returns a Poly when exact division succeeds and the pair otherwise.  The
verification harness always works with the cleared-denominator forms.
"""

from __future__ import annotations

from math import comb

from .poly import ONE, NotDivisible, Poly, Z, monomial
from .sequences import fib, qfib

__all__ = [
    "qbinom",
    "qbinom_theorem_residual",
    "fibonomial",
    "qfibonomial",
    "qfibonomial_parts",
    "fac",
    "Fac",
    "binom_product",
]

_QBINOM_CACHE: dict[tuple[int, int], Poly] = {}


def qbinom(n: int, k: int) -> Poly:
    """Gaussian binomial [n, k]_q by the Pascal recurrence (division-free)."""
    if n < 0:
        raise ValueError("qbinom needs n >= 0")
    if k < 0 or k > n:
        return Poly()
    if k == 0 or k == n:
        return ONE
    key = (n, k)
    got = _QBINOM_CACHE.get(key)
    if got is None:
        got = qbinom(n - 1, k - 1) + monomial(1, eq=k) * qbinom(n - 1, k)
        _QBINOM_CACHE[key] = got
    return got


def qbinom_theorem_residual(n: int) -> Poly:
    """prod_{j<n} (1 - q^j z) minus its q-binomial expansion; zero certifies
    the finite q-binomial theorem at order n."""
    if n < 0:
        raise ValueError("qbinom_theorem_residual needs n >= 0")
    lhs = ONE
    for j in range(n):
        lhs = lhs * (ONE - monomial(1, eq=j, ez=1))
    rhs = Poly()
    for k in range(n + 1):
        sign = -1 if k % 2 else 1
        rhs = rhs + monomial(sign, eq=k * (k - 1) // 2) * qbinom(n, k) * Z ** k
    return lhs - rhs


def _prod(factors) -> Poly:
    total = ONE
    for f in factors:
        total = total * f
    return total


def fibonomial(n: int, k: int, ell: int = 1) -> Poly:
    """Fibonomial prod_{i<k} F((n-i) ell) / prod_{i<=k} F(i ell); always a
    polynomial in x and s.  ell = 1 is the classical fibonomial."""
    if ell < 1:
        raise ValueError("fibonomial needs ell >= 1")
    if not 0 <= k <= n:
        raise ValueError("fibonomial needs 0 <= k <= n")
    num = _prod(fib((n - i) * ell) for i in range(k))
    den = _prod(fib(i * ell) for i in range(1, k + 1))
    return num.exact_div(den)


def qfibonomial_parts(k: int, j: int, ell: int = 1) -> tuple[Poly, Poly]:
    """Numerator/denominator of the q-fibonomial with shifted denominators,
    on the subsequence f(ell*i): prod_{i<=k} f(ell i) over
    prod_{i<=j} f(ell i, q^(ell(j-i)) s) * prod_{i<=k-j} f(ell i, q^(ell j) s)."""
    if ell < 1:
        raise ValueError("qfibonomial needs ell >= 1")
    if not 0 <= j <= k:
        raise ValueError("qfibonomial needs 0 <= j <= k")
    num = _prod(qfib(ell * i) for i in range(1, k + 1))
    den = _prod(qfib(ell * i, shift=ell * (j - i)) for i in range(1, j + 1)) * _prod(
        qfib(ell * i, shift=ell * j) for i in range(1, k - j + 1)
    )
    return num, den


def qfibonomial(k: int, j: int, ell: int = 1):
    """Reduced q-fibonomial: a Poly when the quotient is exact, else the
    (numerator, denominator) pair."""
    num, den = qfibonomial_parts(k, j, ell)
    try:
        return num.exact_div(den)
    except NotDivisible:
        return num, den


def fac(n: int, shift: int = 0, ell: int = 1) -> Poly:
    """fac(n) = f(ell) f(2 ell) ... f(n ell) with s -> q^shift s applied."""
    if n < 0 or ell < 1:
        raise ValueError("fac needs n >= 0 and ell >= 1")
    return _prod(qfib(i * ell, shift=shift) for i in range(1, n + 1))


def Fac(n: int, ell: int = 1) -> Poly:
    """Fac(n) = F(ell) F(2 ell) ... F(n ell)."""
    if n < 0 or ell < 1:
        raise ValueError("Fac needs n >= 0 and ell >= 1")
    return _prod(fib(i * ell) for i in range(1, n + 1))


def binom_product(k: int) -> int:
    """prod_{j=0..k} C(k, j): 1, 1, 2, 9, 96, 2500, ... (A001142)."""
    if k < 0:
        raise ValueError("binom_product needs k >= 0")
    total = 1
    for j in range(k + 1):
        total *= comb(k, j)
    return total
