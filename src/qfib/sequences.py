"""Fibonacci, Lucas, and q-Fibonacci polynomial generators.

The q-Fibonacci polynomials follow f(n) = x*f(n-1) + q^(n-2)*s*f(n-2) with
f(0) = 0, f(1) = 1; the index is extended to all integers by running the
recurrence backward, which introduces Laurent terms in s and q.  Fibonacci
and Lucas polynomials follow the same recurrence without the q factor, so
all three memos are filled by one routine.  Shifted variants
f(n, x, q^j s) come from the substitution s -> q^j s, and transform_T is
the q -> 1/q, s -> q^(n-1) s change of variables that maps plain-argument
identities to shifted-argument ones.

The forward fill (n >= 2) runs on packed q-blocks.  Until its first read a
forward entry is its fill's accumulator (acc, L): acc maps each (ex, es, ez)
block's base key (its key at q^0) to [least q exponent, one big int of the
block's q coefficients in limbs of L bits, as poly._pack_coeffs lays them
out].  One step of the recurrence is then one shift-and-add per block: x*
moves a block's base key, q^(m-2)*s* moves its q offset and its s exponent.
L is sized so no coefficient reaches a limb boundary: the exact l1 norms of
the fill's two seeds, grown by |g(m)|_1 <= |g(m-1)|_1 + |g(m-2)|_1, bound
every coefficient of the fill.  A fill packs its two seeds afresh from their
Polys' block lists, which also give their l1 norms (a seed still packed is
unpacked for that fill and not kept), so each entry keeps its own L and a
later, wider fill never reads an older entry's limbs.  The first read
replaces the entry by its Poly, stored as its block list with its exponent
ranges (poly._from_blocks), so an entry holds one form at a time: the
product kernels read the blocks, and the term dict is built only if
something else asks for it.  A shifted read qfib(n, j) is built once per
(n, j) and kept beside the unshifted memo; for a forward entry it moves the
entry's blocks (Poly.subst_s_scale) rather than its terms.  Under
QFIB_NO_FAST=1 the forward fill is the plain dict recurrence, the oracle
the tests compare with; the backward fill (negative indices) always works
on Polys.

Powers have a memo too, a Memo (the package's one get-or-build dict) of
qfib(n) ** k and fib(n) ** k per (n, k), for the life of the SeqCache.  A
shifted read qfib_power(n, k, shift) moves that power by s -> q^shift s, a
ring map, so it equals qfib(n, shift) ** k and multiplies nothing.

gf_truncated gives the x = 1 limit series F(s) = sum_k q^(k^2) s^k /
((1-q)...(1-q^k)) modulo (s^N, q^M) as a Poly; truncate cuts any Poly to
such a box, so limit identities are checked with ordinary Poly arithmetic.
"""

from __future__ import annotations

from . import poly
from .poly import (
    _SH_ES,
    _XSTEP,
    ONE,
    Poly,
    X,
    ZERO,
    _add_at,
    _block_map,
    _pack_coeffs,
    _check_exp,
    _from_acc,
    _limb,
    monomial,
)

__all__ = [
    "SeqCache",
    "fib",
    "lucas",
    "qfib",
    "qfib_power",
    "fib_power",
    "qfib_neg_closed",
    "transform_T",
    "truncate",
    "gf_truncated",
]

# adding _SSTEP to a monomial key raises its s exponent by one
_SSTEP = 1 << _SH_ES


class Memo(dict):
    """memo[key] is build(*key), or build(key) for a key that is no tuple,
    built on the first read and kept.  A build that raises stores nothing."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(*key) if isinstance(key, tuple) else self.build(key)
        return value


def _fill_packed(memo: dict, n: int, q_step: int) -> None:
    """memo[top + 1 .. n] as packed entries (acc, L) of one limb width, from
    memo's two top entries by g(m) = x*g(m-1) + q^(q_step*(m-2))*s*g(m-2)."""
    _check_exp(q_step * (n - 2))  # the dict loop's largest q step
    top = max(memo)
    # a seed still packed is built for this fill only, not kept
    seeds = [_from_acc(*g) if type(g) is tuple else g for g in (memo[top - 1], memo[top])]
    older, newer = (sum(sum(map(abs, cs)) for *_, cs in _block_map(g)) for g in seeds)
    for _ in range(top, n):
        older, newer = newer, older + newer
    L = _limb(newer)
    # a seed is ZERO, whose block list is empty, or a sequence value at an
    # index >= 0, whose blocks have no zero q coefficient between nonzero
    # ones, so _block_map never finds it too q-sparse
    older, newer = ({base: [lo, _pack_coeffs(cs, L)] for _, base, lo, cs in _block_map(g)}
                    for g in seeds)
    for m in range(top + 1, n + 1):
        acc = {base + _XSTEP: [lo, big] for base, (lo, big) in newer.items()}
        shift = q_step * (m - 2)
        for base, (lo, big) in older.items():
            _add_at(acc, base + _SSTEP, lo + shift, big, L)
        memo[m] = (acc, L)
        older, newer = newer, acc


def _extend(memo: dict, n: int, q_step: int) -> Poly:
    """memo[n] as a Poly, after filling memo forward or backward up to n with
    g(m) = x*g(m-1) + q^(q_step*(m-2))*s*g(m-2).

    memo holds a contiguous index range that includes 0 and 1; entries at
    n >= 2 that a packed fill (poly._FAST, read at each fill) made are its
    accumulators (acc, L) until read, when their Polys replace them; the
    rest are Polys.  ValueError unless n is an int, not a bool: 1.0 and
    True would read the entry at 1."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"sequence index must be an int: {n!r}")
    if n not in memo:
        if n > 1 and poly._FAST:
            _fill_packed(memo, n, q_step)
        elif n > 1:
            for m in range(max(memo) + 1, n + 1):
                older, newer = (_extend(memo, i, q_step) for i in (m - 2, m - 1))
                memo[m] = X * newer + monomial(1, es=1, eq=q_step * (m - 2)) * older
        else:
            for m in range(min(memo) - 1, n - 1, -1):
                # g(m) = (g(m+2) - x g(m+1)) * q^(-q_step m) * s^(-1)
                memo[m] = (memo[m + 2] - X * memo[m + 1]) * monomial(1, es=-1, eq=-q_step * m)
    got = memo[n]
    if type(got) is tuple:
        got = memo[n] = _from_acc(*got)
    return got


class SeqCache:
    """Memo tables for fib/lucas/qfib; behaves like a pure function.

    Entries are only ever written with the value a fresh recomputation
    would produce and Poly values are immutable, so concurrent readers
    (or forked sweep workers with their own copy) cannot observe anything a
    pure function would not return.  A forward entry is stored packed (see
    the module docstring) and replaced by its Poly on its first read; that
    Poly is built from the packed form alone, so readers that race to build
    it get equal Polys, and whichever is stored last is the value.
    Shifted q-Fibonacci values, per (n, shift), and powers, per (n, k), are
    Memos built from the unshifted entries, which alone are in _qfib.
    """

    def __init__(self):
        self._fib = {0: ZERO, 1: ONE}
        self._lucas = {0: Poly(2), 1: X}
        self._qfib = {0: ZERO, 1: ONE}
        self._qfib_shifted = Memo(lambda n, j: _extend(self._qfib, n, 1).subst_s_scale(j))
        self._qfib_powers = Memo(lambda n, k: self.qfib(n) ** k)
        self._fib_powers = Memo(lambda n, k: self.fib(n) ** k)

    def fib(self, n: int) -> Poly:
        return _extend(self._fib, n, 0)

    def lucas(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("lucas is defined for n >= 0")
        return _extend(self._lucas, n, 0)

    def qfib(self, n: int, shift: int = 0) -> Poly:
        # a shift that is no int (1.0 == 1, True == 1) must not read the
        # int's entry: its build raises
        if isinstance(shift, bool) or not isinstance(shift, int):
            return self._qfib_shifted.build(n, shift)
        if not shift:
            return _extend(self._qfib, n, 1)
        return self._qfib_shifted[n, shift]

    def qfib_power(self, n: int, k: int, shift: int = 0) -> Poly:
        """qfib(n, shift) ** k, as the memoized qfib(n) ** k moved by
        s -> q^shift s."""
        return self._qfib_powers[n, k].subst_s_scale(shift)

    def fib_power(self, n: int, k: int) -> Poly:
        """fib(n) ** k, memoized."""
        return self._fib_powers[n, k]


_CACHE = SeqCache()


def fib(n: int) -> Poly:
    return _CACHE.fib(n)


def lucas(n: int) -> Poly:
    return _CACHE.lucas(n)


def qfib(n: int, shift: int = 0) -> Poly:
    return _CACHE.qfib(n, shift)


def qfib_power(n: int, k: int, shift: int = 0) -> Poly:
    return _CACHE.qfib_power(n, k, shift)


def fib_power(n: int, k: int) -> Poly:
    return _CACHE.fib_power(n, k)


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
