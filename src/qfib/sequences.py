"""Fibonacci, Lucas, and q-Fibonacci polynomial generators.

The q-Fibonacci polynomials follow f(n) = x*f(n-1) + q^(n-2)*s*f(n-2) with
f(0) = 0, f(1) = 1; the index is extended to all integers by running the
recurrence backward, which introduces Laurent terms in s and q.  Fibonacci
and Lucas polynomials follow the same recurrence without the q factor, so
all three memos are filled by one routine.  Shifted variants
f(n, x, q^j s) come from the substitution s -> q^j s, and transform_T is
the q -> 1/q, s -> q^(n-1) s change of variables that maps plain-argument
identities to shifted-argument ones.

gf_truncated gives the x = 1 limit series F(s) = sum_k q^(k^2) s^k /
((1-q)...(1-q^k)) modulo (s^N, q^M) as a Poly; truncate cuts any Poly to
such a box, so limit identities are checked with ordinary Poly arithmetic.
"""

from __future__ import annotations

from .poly import ONE, Poly, X, ZERO, monomial

__all__ = [
    "SeqCache",
    "fib",
    "lucas",
    "qfib",
    "qfib_explicit",
    "qfib_neg_closed",
    "transform_T",
    "truncate",
    "gf_truncated",
]


def _extend(memo: dict, n: int, q_step: int) -> Poly:
    """memo[n], after filling memo forward or backward up to n with
    g(m) = x*g(m-1) + q^(q_step*(m-2))*s*g(m-2).

    memo holds a contiguous index range that includes 0 and 1."""
    got = memo.get(n)
    if got is not None:
        return got
    if n > 1:
        for m in range(max(memo) + 1, n + 1):
            memo[m] = X * memo[m - 1] + monomial(1, es=1, eq=q_step * (m - 2)) * memo[m - 2]
    else:
        for m in range(min(memo) - 1, n - 1, -1):
            # g(m) = (g(m+2) - x g(m+1)) * q^(-q_step m) * s^(-1)
            memo[m] = (memo[m + 2] - X * memo[m + 1]) * monomial(1, es=-1, eq=-q_step * m)
    return memo[n]


class SeqCache:
    """Memo tables for fib/lucas/qfib; behaves like a pure function.

    Entries are only ever written with the value a fresh recomputation
    would produce and Poly values are immutable, so concurrent readers
    (or pool workers holding their own copy) cannot observe anything a
    pure function would not return.
    """

    def __init__(self):
        self._fib = {0: ZERO, 1: ONE}
        self._lucas = {0: Poly(2), 1: X}
        self._qfib = {0: ZERO, 1: ONE}

    def fib(self, n: int) -> Poly:
        return _extend(self._fib, n, 0)

    def lucas(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("lucas is defined for n >= 0")
        return _extend(self._lucas, n, 0)

    def qfib(self, n: int, shift: int = 0) -> Poly:
        p = _extend(self._qfib, n, 1)
        return p.subst_s_scale(shift) if shift else p


_CACHE = SeqCache()


def fib(n: int) -> Poly:
    return _CACHE.fib(n)


def lucas(n: int) -> Poly:
    return _CACHE.lucas(n)


def qfib(n: int, shift: int = 0) -> Poly:
    return _CACHE.qfib(n, shift)


def qfib_explicit(n: int) -> Poly:
    """Closed-form sum over k of [n-1-k, k]_q q^(k^2) x^(n-1-2k) s^k."""
    if n < 0:
        raise ValueError("qfib_explicit is defined for n >= 0")
    from .qcomb import qbinom

    total = ZERO
    k = 0
    while 2 * k <= n - 1:
        total = total + qbinom(n - 1 - k, k) * monomial(1, ex=n - 1 - 2 * k, es=k, eq=k * k)
        k += 1
    return total


def qfib_neg_closed(n: int) -> Poly:
    """f(-n) = (-1)^(n-1) q^C(n+1,2) f(n, x, q^(-n) s) / s^n, for n >= 1."""
    if n < 1:
        raise ValueError("qfib_neg_closed is defined for n >= 1")
    sign = 1 if n % 2 else -1
    return qfib(n).subst_s_scale(-n) * monomial(sign, es=-n, eq=n * (n + 1) // 2)


def transform_T(p: Poly, n: int) -> Poly:
    """q -> 1/q, then s -> q^(n-1) s."""
    return p.subst_q_invert().subst_s_scale(n - 1)


def truncate(p: Poly, order_s: int, order_q: int) -> Poly:
    """The terms of p whose s exponent is below order_s and whose q exponent
    is below order_q."""
    return Poly({e: c for e, c in p.terms() if e[1] < order_s and e[2] < order_q})


def gf_truncated(order_s: int, order_q: int) -> Poly:
    """F(s) = sum_k q^(k^2)/((1-q)...(1-q^k)) s^k mod (s^N, q^M)."""
    N, M = order_s, order_q
    if N < 1 or M < 1:
        raise ValueError("series orders must be >= 1")
    terms = {}
    inv = [0] * M  # running expansion of prod_{i<=k} 1/(1-q^i)
    inv[0] = 1
    for k in range(N):
        if k:
            for j in range(k, M):
                inv[j] += inv[j - k]
        for j in range(M - k * k):
            terms[(0, k, j + k * k, 0)] = inv[j]
    return Poly(terms)
