"""q-binomials, fibonomial coefficients, and factorial-type products.

Fibonomial coefficients are ratios of Fibonacci-polynomial products.  Each
kind has one function whose trailing ell argument (default 1) selects the
stride-ell variant on the subsequence F(ell*i) or f(ell*i); there are no
separate *_ell functions.  The classical fibonomial is always exactly
divisible and is returned as a polynomial.  The q-fibonomial (with shifted s
arguments in the denominator) is not guaranteed polynomial, so
qfibonomial_parts returns the (numerator, denominator) pair and qfibonomial
returns a Poly when exact division succeeds and the pair otherwise.  The
verification harness clears conj2's q-fibonomials by a common multiple of
their denominators, which it builds from the same factors f(ell i, q^t s).
"""

from __future__ import annotations

from math import comb, prod

from .poly import ONE, NotDivisible, Poly, monomial
from .sequences import Memo, fib, qfib

__all__ = [
    "qbinom",
    "fibonomial",
    "qfibonomial",
    "qfibonomial_parts",
    "fac",
    "Fac",
    "binom_product",
]

def qbinom(n: int, k: int) -> Poly:
    """Gaussian binomial [n, k]_q by the Pascal recurrence (division-free),
    [m, k] = [m-1, k-1] + q^k [m-1, k], filled up column min(k, n - k)
    ([n, k] = [n, n - k]) in a loop: the recursion only crosses columns."""
    if n < 0:
        raise ValueError("qbinom needs n >= 0")
    if k < 0 or k > n:
        return Poly()
    k = min(k, n - k)
    column = _QBINOM_COLUMNS[k]
    for m in range(k + len(column), n + 1):
        column[m] = qbinom(m - 1, k - 1) + monomial(1, eq=k) * column[m - 1]
    return column[n]


# column k of the q-binomials: [m, k] for k <= m < k + len, filled up as read
_QBINOM_COLUMNS = Memo(lambda k: {k: ONE})


def fibonomial(n: int, k: int, ell: int = 1) -> Poly:
    """Fibonomial prod_{i<k} F((n-i) ell) / prod_{i<=k} F(i ell); always a
    polynomial in x and s.  ell = 1 is the classical fibonomial."""
    if ell < 1:
        raise ValueError("fibonomial needs ell >= 1")
    if not 0 <= k <= n:
        raise ValueError("fibonomial needs 0 <= k <= n")
    num = prod((fib((n - i) * ell) for i in range(k)), start=ONE)
    den = prod((fib(i * ell) for i in range(1, k + 1)), start=ONE)
    return num.exact_div(den)


# the signed fibonomial expansion: _SIGNED_FIBONOMIALS[m][j], j = 0..m, is
# (-1)^C(j+1,2) s^C(j,2) <m, j>, the coefficient of z^(m-j) in
# det(zI - hoggatt(m)) and the weight of F(n-j)^(m-1) in power_rec_classical
_SIGNED_FIBONOMIALS = Memo(
    lambda m: tuple(
        monomial(-1 if j * (j + 1) // 2 % 2 else 1, es=j * (j - 1) // 2) * fibonomial(m, j)
        for j in range(m + 1)
    )
)


def qfibonomial_parts(k: int, j: int, ell: int = 1) -> tuple[Poly, Poly]:
    """Numerator/denominator of the q-fibonomial with shifted denominators,
    on the subsequence f(ell*i): prod_{i<=k} f(ell i) over
    prod_{i<=j} f(ell i, q^(ell(j-i)) s) * prod_{i<=k-j} f(ell i, q^(ell j) s)."""
    if ell < 1:
        raise ValueError("qfibonomial needs ell >= 1")
    if not 0 <= j <= k:
        raise ValueError("qfibonomial needs 0 <= j <= k")
    num = prod((qfib(ell * i) for i in range(1, k + 1)), start=ONE)
    den = prod((qfib(ell * i, shift=ell * (j - i)) for i in range(1, j + 1)), start=ONE) * prod(
        (qfib(ell * i, shift=ell * j) for i in range(1, k - j + 1)), start=ONE
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
    return prod((qfib(i * ell, shift=shift) for i in range(1, n + 1)), start=ONE)


def Fac(n: int, ell: int = 1) -> Poly:
    """Fac(n) = F(ell) F(2 ell) ... F(n ell)."""
    if n < 0 or ell < 1:
        raise ValueError("Fac needs n >= 0 and ell >= 1")
    return prod((fib(i * ell) for i in range(1, n + 1)), start=ONE)


def binom_product(k: int) -> int:
    """prod_{j=0..k} C(k, j): 1, 1, 2, 9, 96, 2500, ... (A001142)."""
    if k < 0:
        raise ValueError("binom_product needs k >= 0")
    return prod(comb(k, j) for j in range(k + 1))
