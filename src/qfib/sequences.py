"""Fibonacci, Lucas, and q-Fibonacci polynomial generators.

The q-Fibonacci polynomials follow f(n) = x*f(n-1) + q^(n-2)*s*f(n-2) with
f(0) = 0, f(1) = 1; the index is extended to all integers by running the
recurrence backward, which introduces Laurent terms in s and q.  Fibonacci
and Lucas polynomials follow the same recurrence without the q factor, so
all three memos are filled by one routine.  Shifted variants
f(n, x, q^j s) come from the substitution s -> q^j s, and transform_T is
the q -> 1/q, s -> q^(n-1) s change of variables that maps plain-argument
identities to shifted-argument ones.

The forward fill (n >= 2) runs on packed q-blocks.  A memo entry is one big
int per (ex, es, ez) block: the block's q coefficients in limbs of L bits, as
poly._pack_coeffs lays them out.  One step of the recurrence is then one
shift-and-add per block: x* moves a block's base key, q^(m-2)*s* moves its
q offset and its s exponent.  L is sized so no coefficient reaches a limb
boundary: the exact l1 norms of the fill's two seeds, grown by
|g(m)|_1 <= |g(m-1)|_1 + |g(m-2)|_1, bound every coefficient of the fill.
A fill packs its two seeds afresh from their Polys, so each entry keeps
its own L and a later, wider fill never reads an older entry's limbs.  An
entry becomes a Poly, with its block list and exponent ranges cached for
the product kernels, only when it is read.  A shifted read qfib(n, j) is
built once per (n, j) and kept beside the unshifted memo; for a forward
entry it moves the entry's blocks (Poly.subst_s_scale) rather than its
terms.  Under QFIB_NO_FAST=1 the
forward fill is the plain dict recurrence, the oracle the tests compare
with; the backward fill (negative indices) always works on Polys.

Powers have a memo too: qfib_power(n, k, shift) and fib_power(n, k) keep
the unshifted power qfib(n) ** k (fib(n) ** k) per (n, k), for the life
of the SeqCache, one per process.  A shifted read passes the memoized
power through s -> q^shift s, a ring map, so it equals qfib(n, shift) ** k
and moves blocks rather than multiplying; every shift of one (n, k) shares
one power.

gf_truncated gives the x = 1 limit series F(s) = sum_k q^(k^2) s^k /
((1-q)...(1-q^k)) modulo (s^N, q^M) as a Poly; truncate cuts any Poly to
such a box, so limit identities are checked with ordinary Poly arithmetic.
"""

from __future__ import annotations

from .poly import (
    _BIAS,
    _FAST,
    _MASK,
    _QSTEP,
    _SH_EQ,
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
    "qfib_explicit",
    "qfib_neg_closed",
    "transform_T",
    "truncate",
    "gf_truncated",
]

# adding _SSTEP to a monomial key raises its s exponent by one
_SSTEP = 1 << _SH_ES


class _Packed:
    """A forward memo entry as packed q-blocks: blocks maps each block's base
    key (its key at q^0) to [least q exponent, packed coefficients] at limb
    width L.  poly() builds the Poly on first read and keeps it.  Nothing
    mutates blocks once the entry is stored."""

    __slots__ = ("blocks", "L", "_poly")

    def __init__(self, blocks: dict, L: int):
        self.blocks = blocks
        self.L = L
        self._poly = None

    def build(self) -> Poly:
        """The entry as a new Poly, not kept."""
        return _from_acc(self.blocks, self.L)

    def poly(self) -> Poly:
        if self._poly is None:
            self._poly = self.build()
        return self._poly


def _seed_blocks(g: Poly, L: int) -> dict:
    """g's blocks at limb width L, packed from its block list, or term by
    term when g is too q-sparse to have one."""
    bl = _block_map(g)
    if bl:
        return {base: [lo, _pack_coeffs(cs, L)] for _, base, lo, cs in bl}
    acc: dict = {}
    for k, c in g._t.items():
        eq = ((k >> _SH_EQ) & _MASK) - _BIAS
        _add_at(acc, k - eq * _QSTEP, eq, c, L)
    return acc


def _fill_packed(memo: dict, n: int, q_step: int) -> None:
    """memo[top + 1 .. n] as _Packed entries of one limb width, from memo's
    two top entries by g(m) = x*g(m-1) + q^(q_step*(m-2))*s*g(m-2)."""
    _check_exp(q_step * (n - 2))  # the dict loop's largest q step
    top = max(memo)
    # a _Packed seed's Poly is built for this fill only, not kept
    seeds = [g if isinstance(g, Poly) else g._poly or g.build()
             for g in (memo[top - 1], memo[top])]
    older, newer = (sum(map(abs, g._t.values())) for g in seeds)
    for _ in range(top, n):
        older, newer = newer, older + newer
    L = _limb(newer)
    older, newer = (_seed_blocks(g, L) for g in seeds)
    for m in range(top + 1, n + 1):
        acc = {base + _XSTEP: [lo, big] for base, (lo, big) in newer.items()}
        shift = q_step * (m - 2)
        for base, (lo, big) in older.items():
            _add_at(acc, base + _SSTEP, lo + shift, big, L)
        memo[m] = _Packed(acc, L)
        older, newer = newer, acc


def _extend(memo: dict, n: int, q_step: int) -> Poly:
    """memo[n] as a Poly, after filling memo forward or backward up to n with
    g(m) = x*g(m-1) + q^(q_step*(m-2))*s*g(m-2).

    memo holds a contiguous index range that includes 0 and 1; entries at
    n >= 2 are _Packed on the default engine, the rest are Polys."""
    got = memo.get(n)
    if got is None:
        if n > 1 and _FAST:
            _fill_packed(memo, n, q_step)
        elif n > 1:
            for m in range(max(memo) + 1, n + 1):
                memo[m] = X * memo[m - 1] + monomial(1, es=1, eq=q_step * (m - 2)) * memo[m - 2]
        else:
            for m in range(min(memo) - 1, n - 1, -1):
                # g(m) = (g(m+2) - x g(m+1)) * q^(-q_step m) * s^(-1)
                memo[m] = (memo[m + 2] - X * memo[m + 1]) * monomial(1, es=-1, eq=-q_step * m)
        got = memo[n]
    return got.poly() if isinstance(got, _Packed) else got


class SeqCache:
    """Memo tables for fib/lucas/qfib; behaves like a pure function.

    Entries are only ever written with the value a fresh recomputation
    would produce and Poly values are immutable, so concurrent readers
    (or forked sweep workers with their own copy) cannot observe anything a
    pure function would not return.  Forward entries are stored packed
    (see the module docstring) and never change once stored; the Poly an
    accessor returns is built from that packed form alone, so readers that
    race to build it get equal Polys, and whichever is kept is the value.
    Shifted q-Fibonacci values are memoized per (n, shift) in _qfib_shifted
    the same way, each from the unshifted entry; _qfib holds only those.
    Powers qfib(n) ** k and fib(n) ** k are memoized per (n, k) in
    _qfib_powers and _fib_powers, unshifted (see the module docstring).
    """

    def __init__(self):
        self._fib = {0: ZERO, 1: ONE}
        self._lucas = {0: Poly(2), 1: X}
        self._qfib = {0: ZERO, 1: ONE}
        self._qfib_shifted: dict[tuple[int, int], Poly] = {}
        self._qfib_powers: dict[tuple[int, int], Poly] = {}
        self._fib_powers: dict[tuple[int, int], Poly] = {}

    def fib(self, n: int) -> Poly:
        return _extend(self._fib, n, 0)

    def lucas(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("lucas is defined for n >= 0")
        return _extend(self._lucas, n, 0)

    def qfib(self, n: int, shift: int = 0) -> Poly:
        if not shift:
            return _extend(self._qfib, n, 1)
        # a shift that is no int (1.0 == 1) finds no entry, so it still raises
        got = self._qfib_shifted.get((n, shift)) if isinstance(shift, int) else None
        if got is None:
            got = _extend(self._qfib, n, 1).subst_s_scale(shift)
            self._qfib_shifted[n, shift] = got
        return got

    def qfib_power(self, n: int, k: int, shift: int = 0) -> Poly:
        """qfib(n, shift) ** k, as the memoized qfib(n) ** k moved by
        s -> q^shift s."""
        got = self._qfib_powers.get((n, k))
        if got is None:
            got = self._qfib_powers[n, k] = self.qfib(n) ** k
        return got.subst_s_scale(shift)

    def fib_power(self, n: int, k: int) -> Poly:
        """fib(n) ** k, memoized."""
        got = self._fib_powers.get((n, k))
        if got is None:
            got = self._fib_powers[n, k] = self.fib(n) ** k
        return got


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
