"""Exact sparse Laurent polynomials in the four fixed variables x, s, q, z.

Coefficients are Python ints, so arithmetic never overflows or rounds.
Exponents may be negative on every variable.  A polynomial is stored as a
dict mapping a packed monomial key to its coefficient; the packed key is a
single int whose bit fields hold (ex, es, eq, ez) with fixed offsets, so
that

  * multiplying monomials is one integer addition (key_a + key_b - _ZKEY),
  * the natural int order on keys IS the lex order with priority
    x > s > q > z, a monomial order, which picks leading terms in exact
    division.

Each Poly caches its per-variable exponent ranges.  A product or an
exact quotient carries them from birth: the guard that checks a product's
(quotient's) exponents computes them as the sum (difference) of the
operands' ranges, which is exact because the ring has no zero divisors.
Sums, differences and substitutions scan their keys for them when first
asked.

The *display* order used by to_canonical_string is different (z desc,
x desc, then s and q ascending) so that characteristic polynomials lead
with z^n and q-expansions read like q-series; both orders are strict and
total, and parse() accepts terms in any order.

Large products go through one of two Kronecker-substitution kernels,
which read one list of blocks per polynomial: the terms sharing
(ex, es, ez), sorted by es and cached.  Above _BLOCKED_PAIRS = 2048 term
pairs, _mul_blocked packs each block's q-coefficients into one big integer
with a rigorously chosen limb width, and turns block products into single
bigint multiplications.  Packing and unpacking go through one bytes
conversion per block (balanced digits via a bias), so they cost time
linear in the block width.  A twisted square a * a.subst_s_scale(m) (mul_s_scaled) multiplies
each unordered block pair once: s -> q^m s only moves each block's q
offset, so the product of two blocks is added at both of its offsets, once
doubled when they coincide.  A square (a * a, as built by __pow__) is its
m = 0 case.

Above _PACKED_PAIRS term pairs (a square counting half), _mul_packed
computes the whole product as one multiplication of Decimals under
q -> t, s -> t^T, t = 10^D, when both operands have one block per s
exponent (every q-Fibonacci power and every power-determinant minor does,
being homogeneous in deg x = 1, deg s = 2 without z); where it declines
(see _mul_packed), the blocked kernel runs.  Decimal, because the stdlib decimal module (libmpdec)
multiplies large operands by a number-theoretic transform, while CPython's
ints multiply by Karatsuba only: the packed product wins from a few
million term pairs on.  Its context traps Inexact and Rounded, so a
rounding would raise rather than pass silently.  Both kernels size their
digits from one coefficient bound, the lesser of max|a| max|b| min(#a, #b)
and the Cauchy-Schwarz bound |a|_2 |b|_2.

Exact division works in the Laurent ring.  Least exponents add under
products, so no term of an exact quotient a / b lies below low(a) - low(b)
per variable; the kernels refuse a quotient term under that floor.  An
exact quotient is unique, so any monomial order finds it, and no graded
order is needed to end the descent on inputs that do not divide: the
quotient terms fall strictly in lex order while staying above the floor,
and lex order well-orders that set.  Large exact divisions run the same
blocked long division on the values at q = 2^L, widening L on failure.
The quotient is returned without forming quot * b when a coefficient bound
proves quot * b - a, which vanishes at q = 2^L, is zero (see
_quotient_certified); otherwise the product is checked, and the plain
division is the last resort.

One Desnanot-Jacobi step, (c * sigma(c) - sigma(a) * b) / sigma(d) with
sigma: s -> q^m s, runs as one kernel, _condense, without unpacking its
numerator: the twisted square and the negated cross product are added into
one accumulator of packed q-blocks at a single limb width (a packed
product's digits block by block), the blocked long division runs in place
on it against d's twisted block list, and the quotient is built with its
block list.  No sigma image is built.  The kernel keeps the guards of the
Poly formula and returns a quotient only under _quotient_certified, after
one rerun at twice the limb width if need be; it declines the steps it
cannot take that way, and harness then runs the formula.  Setting
QFIB_NO_FAST=1 in the environment forces the plain dict paths everywhere
(the test suite checks both paths agree).
"""

from __future__ import annotations

import os
import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from math import isqrt

__all__ = [
    "Poly",
    "NotDivisible",
    "ParseError",
    "PoleAtZero",
    "exact_div",
    "monomial",
    "parse",
    "ZERO",
    "ONE",
    "X",
    "S",
    "Q",
    "Z",
]

_FAST = os.environ.get("QFIB_NO_FAST", "") not in ("1", "true", "yes")

# --------------------------------------------------------------------------
# monomial packing
#
# layout (low to high): ez | eq | es | ex, each field _FIELD bits wide with
# bias _BIAS.

_FIELD = 24
_BIAS = 1 << 23

_SH_EZ = 0
_SH_EQ = _FIELD
_SH_ES = 2 * _FIELD
_SH_EX = 3 * _FIELD

_MASK = (1 << _FIELD) - 1

# exponent magnitudes accepted from callers; ring ops guard against the
# (much larger) field capacity so packed arithmetic can never alias.
_EXP_LIMIT = 1 << 20
_VAR_GUARD = 1 << 22


def _pack(ex: int, es: int, eq: int, ez: int) -> int:
    return (
        ((ex + _BIAS) << _SH_EX)
        | ((es + _BIAS) << _SH_ES)
        | ((eq + _BIAS) << _SH_EQ)
        | (ez + _BIAS)
    )


def _unpack(key: int) -> tuple[int, int, int, int]:
    return (
        ((key >> _SH_EX) & _MASK) - _BIAS,
        ((key >> _SH_ES) & _MASK) - _BIAS,
        ((key >> _SH_EQ) & _MASK) - _BIAS,
        (key & _MASK) - _BIAS,
    )


_ZKEY = _pack(0, 0, 0, 0)
# adding n*_QSTEP to a key raises the q exponent by n; same idea for x.
_QSTEP = 1 << _SH_EQ
_XSTEP = 1 << _SH_EX

_VARS = ("x", "s", "q", "z")


def _display_key(key: int) -> tuple[int, int, int, int]:
    ex, es, eq, ez = _unpack(key)
    return (-ez, -ex, es, eq)


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class PoleAtZero(ZeroDivisionError):
    """Evaluation hit a zero value raised to a negative exponent."""


class ParseError(ValueError):
    """Polynomial text did not conform to the canonical grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_exp(e: int) -> int:
    if not isinstance(e, int) or abs(e) > _EXP_LIMIT:
        raise ValueError(f"exponent out of supported range: {e!r}")
    return e


class Poly:
    """Immutable sparse Laurent polynomial over the integers."""

    __slots__ = ("_t", "_ranges", "_cmax", "_n2", "_blocks")

    def __init__(self, terms: dict | int | None = None):
        """Build from {(ex, es, eq, ez): coeff} (zero coefficients dropped)
        or from a plain int constant.  Coefficients must be ints."""
        d: dict[int, int] = {}
        if isinstance(terms, int):
            if terms:
                d[_ZKEY] = terms
        elif terms:
            for exps, c in terms.items():
                if isinstance(c, bool) or not isinstance(c, int):
                    raise TypeError(f"coefficient must be an int: {c!r}")
                if not c:
                    continue
                ex, es, eq, ez = (_check_exp(e) for e in exps)
                k = _pack(ex, es, eq, ez)
                v = d.get(k, 0) + c
                if v:
                    d[k] = v
                else:
                    del d[k]
        self._t = d
        self._ranges = None
        self._cmax = None
        self._n2 = None
        self._blocks = None

    @classmethod
    def _raw(cls, d: dict[int, int], ranges=None) -> "Poly":
        """The Poly on the term dict d (taken, not copied), with its exponent
        ranges when the caller knows them exactly."""
        p = cls.__new__(cls)
        p._t = d
        p._ranges = ranges
        p._cmax = None
        p._n2 = None
        p._blocks = None
        return p

    # ---------------------------------------------------------------- basics

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self._t
            return self._t == {_ZKEY: other}
        if isinstance(other, Poly):
            return self._t == other._t
        return NotImplemented

    __hash__ = None

    def terms(self):
        """Iterate ((ex, es, eq, ez), coeff) pairs in no particular order."""
        for k, c in self._t.items():
            yield _unpack(k), c

    def exponent_range(self, var: str) -> tuple[int, int]:
        """(min, max) exponent of `var` over the terms; (0, 0) if zero poly."""
        return self._get_ranges()[_VARS.index(var)]

    def _get_ranges(self):
        r = self._ranges
        if r is None:
            if not self._t:
                r = ((0, 0),) * 4
            else:
                keys = list(self._t)
                # x is the top key field: the extreme keys hold its range
                r = [((min(keys) >> _SH_EX) - _BIAS, (max(keys) >> _SH_EX) - _BIAS)]
                for sh in (_SH_ES, _SH_EQ, _SH_EZ):
                    f = [(k >> sh) & _MASK for k in keys]
                    r.append((min(f) - _BIAS, max(f) - _BIAS))
                r = tuple(r)
            self._ranges = r
        return r

    def _coeff_stats(self) -> int:
        """max |coeff| (1 for the zero polynomial)."""
        if self._cmax is None:
            self._cmax = max(map(abs, self._t.values()), default=1)
        return self._cmax

    def _norm2(self) -> int:
        """The squared 2-norm, sum of coeff^2."""
        if self._n2 is None:
            self._n2 = sum(c * c for c in self._t.values())
        return self._n2

    # ------------------------------------------------------------ arithmetic

    def __neg__(self) -> "Poly":
        return Poly._raw({k: -c for k, c in self._t.items()}, self._ranges)

    def __add__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        a, b = self._t, other._t
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
        return Poly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        out = dict(self._t)
        for k, c in other._t.items():
            v = out.get(k, 0) - c
            if v:
                out[k] = v
            else:
                del out[k]
        return Poly._raw(out)

    def __rsub__(self, other) -> "Poly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            if not other:
                return ZERO
            if other == 1:
                return self
            return Poly._raw({k: c * other for k, c in self._t.items()}, self._ranges)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return ZERO
        r = _guard(self._get_ranges(), other._get_ranges(), 1, "product")
        if len(a) == 1:
            (ka, ca), = a.items()
            return Poly._raw({ka + kb - _ZKEY: ca * cb for kb, cb in b.items()}, r)
        if len(b) == 1:
            (kb, cb), = b.items()
            return Poly._raw({ka + kb - _ZKEY: ca * cb for ka, ca in a.items()}, r)
        out = None
        if _FAST and len(a) * len(b) > _BLOCKED_PAIRS:
            out = _mul_fast(self, other)
        if out is None:
            out = _mul_naive(a, b)
        out._ranges = r
        return out

    __rmul__ = __mul__

    def mul_s_scaled(self, m: int) -> "Poly":
        """self * self.subst_s_scale(m), computing each product of two blocks
        once (the twisted square; m = 0 is the plain square).  The blocked
        path never builds the image: the product guard reads its exponent
        ranges off the block list."""
        if _FAST and len(self._t) ** 2 > _BLOCKED_PAIRS and _block_map(self):
            self._guard_s_scale(m)
            r = _guard(self._get_ranges(), _s_scaled_ranges(self, m), 1, "product")
            out = _mul_fast(self, self, m)
            out._ranges = r
            return out
        return self * self.subst_s_scale(m)

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers require a nonnegative int")
        if not e:
            return ONE
        # start from the first factor: ONE * factor would copy its terms
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        result = base
        while e := e >> 1:
            base = base * base
            if e & 1:
                result = result * base
        return result

    # ---------------------------------------------------------- substitution

    def subst_s_scale(self, m: int) -> "Poly":
        """s -> q^m s: every term's q exponent grows by m times its s exponent."""
        self._guard_s_scale(m)
        if m == 0 or not self._t:
            return self
        out = {}
        for k, c in self._t.items():
            es = ((k >> _SH_ES) & _MASK) - _BIAS
            out[k + (m * es) * _QSTEP] = c
        return Poly._raw(out)

    def _guard_s_scale(self, m: int) -> None:
        """ValueError unless m is an int; OverflowError when s -> q^m s could
        push a q exponent past _VAR_GUARD (at a corner of the s, q box)."""
        if not isinstance(m, int):
            raise ValueError("shift must be an int")
        if m:
            (slo, shi), (qlo, qhi) = self._get_ranges()[1:3]
            for corner in (qlo + m * slo, qlo + m * shi, qhi + m * slo, qhi + m * shi):
                if abs(corner) > _VAR_GUARD:
                    raise OverflowError("substitution exponent exceeds supported range")

    def subst_q_invert(self) -> "Poly":
        """q -> 1/q: negate every q exponent."""
        out = {}
        for k, c in self._t.items():
            eq = ((k >> _SH_EQ) & _MASK) - _BIAS
            out[k - (2 * eq) * _QSTEP] = c
        return Poly._raw(out)

    def subst_q_one(self) -> "Poly":
        """q -> 1."""
        return self._subst_one(_SH_EQ, _QSTEP)

    def subst_x_one(self) -> "Poly":
        """x -> 1."""
        return self._subst_one(_SH_EX, _XSTEP)

    def _subst_one(self, shift: int, step: int) -> "Poly":
        out: dict[int, int] = {}
        for k, c in self._t.items():
            e = ((k >> shift) & _MASK) - _BIAS
            kk = k - e * step
            v = out.get(kk, 0) + c
            if v:
                out[kk] = v
            else:
                del out[kk]
        return Poly._raw(out)

    def evaluate(self, x=None, s=None, q=None, z=None) -> Fraction:
        """Evaluate at rational values. Every variable that occurs needs a
        value; a zero value under a negative exponent raises PoleAtZero."""
        vals = [x, s, q, z]
        ranges = self._get_ranges()
        for i, v in enumerate(vals):
            if v is None:
                if ranges[i] != (0, 0):
                    raise ValueError(f"no value given for variable {_VARS[i]}")
                vals[i] = Fraction(0)
            else:
                vals[i] = Fraction(v)
        total = Fraction(0)
        for k, c in self._t.items():
            exps = _unpack(k)
            term = Fraction(c)
            for v, e in zip(vals, exps):
                if e:
                    if v == 0 and e < 0:
                        raise PoleAtZero("zero value raised to a negative exponent")
                    term *= v ** e
            total += term
        return total

    # -------------------------------------------------------------- division

    def exact_div(self, b: "Poly") -> "Poly":
        """Return the Laurent polynomial q with self = q*b, by ordered long
        division, or raise NotDivisible.  Least exponents add under
        products, so each term of q has exponents >= low(self) - low(b) per
        variable, and the kernels refuse any quotient term below that."""
        if not isinstance(b, Poly) or not b._t:
            raise ZeroDivisionError("exact_div by the zero polynomial")
        if not self._t:
            return ZERO
        # an exact quotient spans (low(self) - low(b), high(self) - high(b))
        r = _guard(self._get_ranges(), b._get_ranges(), -1, "quotient")
        if len(b) == 1:
            out = _div_monomial(self, b)
        else:
            out = None
            if _FAST and len(self._t) > 400:
                out = _div_blocked(self, b)
            if out is None:
                out = _div_naive(self, b)
        out._ranges = r
        return out

    # -------------------------------------------------------------- printing

    def to_canonical_string(self) -> str:
        if not self._t:
            return "0"
        keys = sorted(self._t, key=_display_key)
        parts: list[str] = []
        for i, k in enumerate(keys):
            c = self._t[k]
            body = _term_str(abs(c), k)
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    __str__ = to_canonical_string

    def __repr__(self) -> str:
        return f"Poly({self.to_canonical_string()!r})"

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Inverse of to_canonical_string (accepts terms in any order)."""
        return _Parser(text).parse()


def _term_str(c: int, key: int) -> str:
    ex, es, eq, ez = _unpack(key)
    parts = []
    for name, e in (("q", eq), ("s", es), ("x", ex), ("z", ez)):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    if not parts:
        return str(c)
    body = "*".join(parts)
    return body if c == 1 else f"{c}*{body}"


# ------------------------------------------------------------------ parsing


class _Parser:
    _INT = re.compile(r"\d+")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        t, n = self.text, len(self.text)
        while self.pos < n and t[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _fail(self, message: str):
        raise ParseError(message, self.pos)

    def _int(self, signed: bool = False) -> int:
        self._skip_ws()
        start = self.pos
        sign = 1
        if signed and self._peek() == "-":
            sign = -1
            self.pos += 1
        m = self._INT.match(self.text, self.pos)
        if not m:
            self.pos = start
            self._fail("expected an integer")
        self.pos = m.end()
        return sign * int(m.group())

    def parse(self) -> Poly:
        total: dict[int, int] = {}
        self._skip_ws()
        if not self._peek():
            self._fail("empty polynomial")
        sign = 1
        if self._peek() in "+-":
            sign = -1 if self._peek() == "-" else 1
            self.pos += 1
        while True:
            coeff, key = self._term()
            c = sign * coeff
            v = total.get(key, 0) + c
            if v:
                total[key] = v
            else:
                total.pop(key, None)
            self._skip_ws()
            ch = self._peek()
            if not ch:
                break
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                self._fail(f"unexpected character {ch!r}")
            self.pos += 1
        return Poly._raw(total)

    def _term(self) -> tuple[int, int]:
        coeff = 1
        exps = {"x": 0, "s": 0, "q": 0, "z": 0}
        saw_factor = False
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch.isdigit():
                coeff *= self._int()
            elif ch and ch in "xsqz":
                self.pos += 1
                e = 1
                if self._peek() == "^":
                    self.pos += 1
                    e = self._int(signed=True)
                exps[ch] += _check_exp(e)
            else:
                self._fail("expected a coefficient or variable")
            saw_factor = True
            self._skip_ws()
            if self._peek() == "*":
                self.pos += 1
                continue
            break
        if not saw_factor:
            self._fail("empty term")
        # a term's factors may repeat a variable: check what they add up to
        return coeff, _pack(*(_check_exp(exps[v]) for v in _VARS))


# --------------------------------------------------------- plain arithmetic


def _guard(ra, rb, sign: int, what: str) -> tuple:
    """ra + sign*rb, taken range by range (x, s, q, z): the exponent ranges
    of a product (sign 1) or of an exact quotient (sign -1).  They are
    exact, not bounds: the ring has no zero divisors, so the product of the
    lowest (highest) parts in one variable is nonzero.  OverflowError unless
    they lie inside _VAR_GUARD."""
    out = []
    for (alo, ahi), (blo, bhi) in zip(ra, rb):
        lo, hi = alo + sign * blo, ahi + sign * bhi
        if abs(lo) > _VAR_GUARD or abs(hi) > _VAR_GUARD:
            raise OverflowError(f"{what} exponent exceeds supported range")
        out.append((lo, hi))
    return tuple(out)


def _div_floor(a: Poly, b: Poly) -> list[int]:
    """Per-variable least exponent (x, s, q, z) of the exact quotient a / b."""
    ra, rb = a._get_ranges(), b._get_ranges()
    return [ra[i][0] - rb[i][0] for i in range(4)]


def _mul_naive(a: dict, b: dict) -> Poly:
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
    get = out.get
    bitems = list(b.items())
    off = _ZKEY
    for ka, ca in a.items():
        base = ka - off
        for kb, cb in bitems:
            k = base + kb
            out[k] = get(k, 0) + ca * cb
    return Poly._raw({k: v for k, v in out.items() if v})


def _div_monomial(a: Poly, b: Poly) -> Poly:
    (kb, cb), = b._t.items()
    out = {}
    for k, c in a._t.items():
        if c % cb:
            raise NotDivisible("remainder in monomial division")
        out[k - kb + _ZKEY] = c // cb
    return Poly._raw(out)


def _div_naive(a: Poly, b: Poly) -> Poly:
    bt = b._t
    kb = max(bt)
    cb = bt[kb]
    # a term of the remainder at or above lim leads a quotient term >= floor
    lim = [e + f for e, f in zip(_unpack(kb), _div_floor(a, b))]
    bitems = [(k, c) for k, c in bt.items() if k != kb]
    r = dict(a._t)
    quot: dict[int, int] = {}
    get = r.get
    while r:
        kr = max(r)
        cr = r[kr]
        if any(e < f for e, f in zip(_unpack(kr), lim)) or cr % cb:
            raise NotDivisible("nonzero remainder")
        cq = cr // cb
        kq = kr - kb + _ZKEY
        quot[kq] = cq
        del r[kr]
        base = kq - _ZKEY
        for k2, c2 in bitems:
            kk = base + k2
            v = get(kk, 0) - cq * c2
            if v:
                r[kk] = v
            else:
                del r[kk]
    return Poly._raw(quot)


# ---------------------------------------------------- blocked (fast) engine
#
# A block collects the terms sharing (ex, es, ez); within a block the q
# exponents are laid out densely and packed into one big int with limb
# width L bits (L chosen so no accumulated coefficient can reach the limb
# boundary, making the packing a faithful ring map).

# term pairs len(a) * len(b) above which products take a Kronecker kernel
_BLOCKED_PAIRS = 2048


def _block_map(p: Poly):
    """p's blocks [(es, base, lo, coeffs)] sorted by es, cached: base is the
    block's key at q^0, coeffs its dense q coefficients from q^lo on.
    False when p is too q-sparse to pack."""
    bl = p._blocks
    if bl is not None:
        return bl
    # one pass: base key -> [qmin, qmax, [(eq, c), ...]]
    grouped: dict[int, list] = {}
    get = grouped.get
    for k, c in p._t.items():
        eq = ((k >> _SH_EQ) & _MASK) - _BIAS
        base = k - eq * _QSTEP
        g = get(base)
        if g is None:
            grouped[base] = [eq, eq, [(eq, c)]]
        else:
            if eq < g[0]:
                g[0] = eq
            elif eq > g[1]:
                g[1] = eq
            g[2].append((eq, c))
    if not _dense_enough(sum(hi - lo + 1 for lo, hi, _ in grouped.values()), len(p._t)):
        bl = False
    else:
        bl = []
        for base, (lo, hi, lst) in grouped.items():
            coeffs = [0] * (hi - lo + 1)
            for e, c in lst:
                coeffs[e - lo] = c
            bl.append((((base >> _SH_ES) & _MASK) - _BIAS, base, lo, coeffs))
        bl.sort()
    p._blocks = bl
    return bl


def _dense_enough(width: int, terms: int) -> bool:
    """Whether blocks of total width `width` holding `terms` terms are worth
    packing densely; a hopelessly q-sparse polynomial would thrash."""
    return width <= 64 * terms + 4096


def _from_blocks(blocks: list) -> Poly:
    """The Poly whose _block_map is `blocks`, cached on it: [(es, base, lo,
    coeffs)] sorted by es, no block empty, and each block's first and last
    coefficients nonzero (as _block_map builds them)."""
    out: dict[int, int] = {}
    width = 0
    for _, base, lo, cs in blocks:
        width += len(cs)
        _put_block(out, base, lo, cs)
    p = Poly._raw(out)
    p._blocks = blocks if _dense_enough(width, len(out)) else False
    return p


def _put_block(out: dict, base: int, lo: int, cs: list) -> None:
    """Store the nonzero coefficients cs of q^lo, q^(lo+1), ... at base."""
    first = base + lo * _QSTEP
    keys = range(first, first + len(cs) * _QSTEP, _QSTEP)
    out.update({key: c for key, c in zip(keys, cs) if c})


def _block(base: int, off: int, cs: list) -> tuple:
    """The block (es, base, lo, coeffs) of the nonzero digits cs (no trailing
    zeros) of q^off, q^(off+1), ... at base, its leading zeros dropped."""
    i = 0
    while not cs[i]:
        i += 1
    return (((base >> _SH_ES) & _MASK) - _BIAS, base, off + i, cs[i:] if i else cs)


def _from_acc(acc: dict, L: int) -> Poly:
    """The Poly held by an accumulator of packed q-blocks (base -> [off, big]
    at limb width L, see _add_at) whose coefficients are below 2^(L-1) in
    magnitude, its block list cached."""
    bl = []
    for base, (off, big) in acc.items():
        cs = _unpack_signed(big, L)
        if cs:
            bl.append(_block(base, off, cs))
    bl.sort()
    return _from_blocks(bl)


def _block_ranges(p: Poly) -> tuple | None:
    """p's exponent ranges off its cached block list; None without one."""
    bl = p._blocks
    if not bl:
        return ((0, 0),) * 4 if bl == [] else None
    bases = [base for _, base, _, _ in bl]
    q = [e for _, _, lo, cs in bl for e in (lo, lo + len(cs) - 1)]
    return (
        ((min(bases) >> _SH_EX) - _BIAS, (max(bases) >> _SH_EX) - _BIAS),
        (bl[0][0], bl[-1][0]),
        (min(q), max(q)),
        (min(b & _MASK for b in bases) - _BIAS, max(b & _MASK for b in bases) - _BIAS),
    )


def _twisted(blocks: list, twist: int) -> list:
    """The block list of p.subst_s_scale(twist) from p's: s -> q^twist s
    moves a block's least q exponent by twist * es and keeps the es order."""
    if not twist:
        return blocks
    return [(es, base, lo + twist * es, cs) for es, base, lo, cs in blocks]


def _s_scaled_ranges(p: Poly, m: int):
    """p.subst_s_scale(m)'s exponent ranges off p's block list."""
    q = [e for _, _, lo, cs in _twisted(_block_map(p), m) for e in (lo, lo + len(cs) - 1)]
    rx, rs, _, rz = p._get_ranges()
    return (rx, rs, (min(q), max(q)), rz)


def _pack_coeffs(coeffs: list[int], L: int) -> int:
    """sum(c_i * 2^(L*i)) for |c_i| < 2^L; L must be a multiple of 8.

    Signed blocks are packed as two unsigned byte strings (positive parts,
    negative parts) and joined by one subtraction, so the cost is linear in
    the block width."""
    nb = L // 8
    if not coeffs or min(coeffs) >= 0:
        return int.from_bytes(
            b"".join(c.to_bytes(nb, "little") for c in coeffs), "little"
        )
    zero = bytes(nb)
    pos = b"".join(c.to_bytes(nb, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(nb, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack_signed(acc: int, L: int) -> list[int]:
    """Balanced base-2^L digits of acc (digits in [-2^(L-1), 2^(L-1)), no
    trailing zeros); L must be a multiple of 8.

    Adding 2^(L-1) to every digit position turns the balanced digits into
    plain unsigned ones, which one to_bytes call exposes; subtracting the
    bias from each sliced digit restores them."""
    nb = L // 8
    n = acc.bit_length() // L + 2  # n balanced digits cover |acc| < 2^(L*(n-1))
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
    raw = (acc + bias).to_bytes(n * nb, "little")
    half = 1 << (L - 1)
    digits = [
        int.from_bytes(raw[i : i + nb], "little") - half
        for i in range(0, n * nb, nb)
    ]
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _mul_bound(a: Poly, b: Poly) -> int:
    """A bound on |coeff| of a * b, and of a * b.subst_s_scale(m), which has
    the same coefficients as a * b up to where they sit.  Each product
    coefficient sums at most min(len a, len b) term products, and it is an
    inner product of a with a shifted reversal of b, so Cauchy-Schwarz
    bounds its square by |a|_2^2 * |b|_2^2."""
    n = min(len(a._t), len(b._t))
    return min(
        a._coeff_stats() * b._coeff_stats() * n, isqrt(a._norm2() * b._norm2())
    )


def _mul_fast(a: Poly, b: Poly, twist: int = 0) -> Poly | None:
    """_mul_packed above _PACKED_PAIRS term pairs where it applies, else
    _mul_blocked (same arguments and result).  A square counts half its
    pairs: _mul_blocked multiplies each unordered pair of its blocks once."""
    pairs = len(a._t) * len(b._t) >> (b is a)
    if pairs > _PACKED_PAIRS:
        out = _mul_packed(a, b, twist)
        if out is not None:
            return out
    return _mul_blocked(a, b, twist)


def _mul_blocked(a: Poly, b: Poly, twist: int = 0) -> Poly | None:
    """a * b by block products, or a * a.subst_s_scale(twist) when b is a
    (twist is only read then); None if an operand is too q-sparse to pack."""
    la = _block_map(a)
    lb = _block_map(b)
    if la is False or lb is False:
        return None
    # balanced digits hold |c| <= bound < 2^bits <= 2^(L-1)
    L = (_mul_bound(a, b).bit_length() + 8) & ~7
    acc: dict[int, list] = {}
    if b is a:
        _acc_square(acc, la, _twisted(la, twist), L)
    else:
        _acc_product(acc, la, lb, L)
    out: dict[int, int] = {}
    for base, (off, big) in acc.items():
        _put_block(out, base, off, _unpack_signed(big, L))
    return Poly._raw(out)


def _acc_square(acc: dict, la: list, lt: list, L: int, sign: int = 1) -> None:
    """Add sign * p * p.subst_s_scale(m) (sign 1 or -1) to acc at limb
    width L, given p's block list la and its image lt = _twisted(la, m):
    each unordered block pair once.  s -> q^m s moves a block's q offset by m * es, so A_i * A_j
    lands at off_i + tw_j and at tw_i + off_j: one doubled add when those
    agree (always at m = 0).  Operand coefficients must be below 2^L."""
    packed = [
        (base - _ZKEY, lo, tw, _pack_coeffs(cs, L))
        for (_, base, lo, cs), (_, _, tw, _) in zip(la, lt)
    ]
    for i, (sa, off_a, tw_a, int_a) in enumerate(packed):
        left = int_a if sign > 0 else -int_a
        _add_at(acc, sa + sa + _ZKEY, off_a + tw_a, left * int_a, L)
        for sb, off_b, tw_b, int_b in packed[i + 1 :]:
            prod = left * int_b
            o1 = off_a + tw_b
            o2 = tw_a + off_b
            if o1 == o2:
                _add_at(acc, sa + sb + _ZKEY, o1, prod << 1, L)
            else:
                _add_at(acc, sa + sb + _ZKEY, o1, prod, L)
                _add_at(acc, sa + sb + _ZKEY, o2, prod, L)


def _acc_product(acc: dict, la: list, lb: list, L: int, sign: int = 1) -> None:
    """Add sign * a * b (sign 1 or -1) to acc at limb width L, given the
    block lists la and lb of a and b.  Operand coefficients must be below
    2^L."""
    if len(la) > len(lb):
        la, lb = lb, la
    apacked = [(base - _ZKEY, lo, sign * _pack_coeffs(cs, L)) for _, base, lo, cs in la]
    bpacked = [(base, lo, _pack_coeffs(cs, L)) for _, base, lo, cs in lb]
    for sa, off_a, int_a in apacked:
        for base_b, off_b, int_b in bpacked:
            _add_at(acc, sa + base_b, off_a + off_b, int_a * int_b, L)


def _add_at(acc: dict, base: int, off: int, value: int, L: int) -> None:
    """Add value * 2^(L*off) to acc[base], an [off, big int] pair of limb
    width L whose offset moves down when value starts below it."""
    cur = acc.get(base)
    if cur is None:
        acc[base] = [off, value]
    elif cur[0] <= off:
        cur[1] += value << ((off - cur[0]) * L)
    else:
        cur[1] = value + (cur[1] << ((cur[0] - off) * L))
        cur[0] = off


# --------------------------------------------------- packed (transform) engine
#
# An s-line is a polynomial whose (ex, es, ez) blocks have distinct s
# exponents.  A product of two s-lines is one multiplication of Decimals
# under q -> t, s -> t^T with t = 10^D (see the module docstring).

# term pairs len(a) * len(b), halved for a square, above which products are
# packed.  Measured crossover (Python 3.11, 2-vCPU x86-64, best of 3 runs):
# det_table(6) products from 1.5M pairs, qfib powers' products from 3.4M,
# squares of either from about 4-7M pairs; at 10M pairs the packed kernel
# takes 0.3-0.65 of the blocked one's time.
_PACKED_PAIRS = 3_000_000
# the widest digit: the least limit sys.set_int_max_str_digits accepts, so
# no interpreter setting makes a digit's str or int conversion raise
_MAX_DIGITS = 640
_DIGITS_CAP = 10**_MAX_DIGITS
# exact or an exception: every rounding traps
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def _stride(ranges: list) -> int:
    """Least T keeping consecutive (es, lo, hi) q ranges apart under
    s -> t^T: es*T + hi < es'*T + lo' for es < es'."""
    return 1 + max(
        ((hi - lo2) // (j2 - j) for (j, _, hi), (j2, lo2, _) in zip(ranges, ranges[1:])),
        default=-1,
    )


def _dec_pack(line: list, T: int, D: int, signed: bool) -> tuple[Decimal, int]:
    """(A, low) with A = sum c * t^(es*T + eq - low) over line's terms,
    t = 10^D, low the least position and |c| < t.  A signed line is packed
    as two digit strings, its positive and its negated negative part, and
    joined by one subtraction."""
    value, low = _dec_digits(line, T, D, 1)
    if signed:
        value = _EXACT.subtract(value, _dec_digits(line, T, D, -1)[0])
    return value, low


def _dec_digits(line: list, T: int, D: int, sign: int) -> tuple[Decimal, int]:
    """(sum max(sign*c, 0) * t^(es*T + eq - low), low) from one string of
    D-digit chunks, most significant first; blocks are joined by runs of
    zeros."""
    fmt = f"0{D}d"
    zero = "0" * D
    runs: list[str] = []
    nxt = None  # the position of the last chunk written
    for es, _, lo, cs in reversed(line):
        start = es * T + lo
        if nxt is not None:
            runs.append("0" * ((nxt - start - len(cs)) * D))
        nxt = start
        runs.append(
            "".join([format(v, fmt) if (v := sign * c) > 0 else zero for c in reversed(cs)])
        )
    return Decimal("".join(runs)), nxt


def _read_digits(text: str, D: int, p: int, w: int) -> list[int]:
    """Digits p .. p + w - 1 in base 10^D of the integer written in text,
    its sign ignored."""
    first = text[0] == "-"
    end = len(text) - p * D
    full = min(w, max(0, (end - first) // D))
    digits = [int(text[i - D : i]) for i in range(end, end - full * D, -D)]
    if full < w:  # the top chunk is short; nothing lies above it
        digits.append(int(text[first : max(first, end - full * D)] or 0))
        digits += [0] * (w - full - 1)
    return digits


def _mul_packed(a: Poly, b: Poly, twist: int = 0) -> Poly | None:
    """a * b, or a * a.subst_s_scale(twist) when b is a (twist is only read
    then), as one product of Decimals; None where _packed_product
    declines."""
    la, lb = _block_map(a), _block_map(b)
    if not la or not lb:
        return None
    twin = b is a
    blocks = _packed_product(la, _twisted(la, twist) if twin else lb, _mul_bound(a, b), twin)
    if blocks is None:
        return None
    out: dict[int, int] = {}
    for base, lo, digits in blocks:
        _put_block(out, base, lo, digits)
    return Poly._raw(out)


def _packed_product(la: list, lb: list, bound: int, twin: bool):
    """The blocks (base, lo, digits) of the product of the block lists la
    and lb, digits the coefficients of q^lo, q^(lo+1), ..., read off one
    product of Decimals; twin says that lb is _twisted(la, m) for some m.
    bound bounds the product's coefficients.  None unless the products of
    blocks with equal es sums share a base (so both are s-lines), the digit
    width D stays within _MAX_DIGITS and the packed product is not mostly
    gaps."""
    if 2 * bound >= _DIGITS_CAP:
        return None
    # balanced digits: |c| <= bound < t / 2
    D = len(str(2 * bound))
    blocks: dict[int, list] = {}  # es -> [base, lo, hi] of the product
    for ja, base_a, lo_a, ca in la:
        hi_a = lo_a + len(ca) - 1
        for jb, base_b, lo_b, cb in lb:
            base = base_a + base_b - _ZKEY
            lo = lo_a + lo_b
            hi = hi_a + lo_b + len(cb) - 1
            cur = blocks.setdefault(ja + jb, [base, lo, hi])
            if cur[0] != base:
                return None
            cur[1] = min(cur[1], lo)
            cur[2] = max(cur[2], hi)
    # the product's stride keeps each operand's blocks apart too: a's
    # blocks at es' < es, shifted by the least q exponent of b's block at
    # its least s exponent e0, lie inside the product's at es' + e0, es + e0
    ranges = sorted((j, lo, hi) for j, (_, lo, hi) in blocks.items())
    T = _stride(ranges)
    span = (ranges[-1][0] - ranges[0][0]) * T + ranges[-1][2] - ranges[0][1] + 1
    if span > 4 * sum(hi - lo + 1 for _, lo, hi in ranges) + 4096:
        return None  # the blocks lie too far apart to pack densely
    neg_a = any(min(cs) < 0 for *_, cs in la)
    neg_b = neg_a if twin else any(min(cs) < 0 for *_, cs in lb)
    # each transient is dropped before the next, larger one is built: the
    # product's digit string is the largest
    A, low = _dec_pack(la, T, D, neg_a)
    if lb is la:
        prod = _EXACT.multiply(A, A)
        low *= 2
    else:
        B, low_b = _dec_pack(lb, T, D, neg_b)
        prod = _EXACT.multiply(A, B)
        low += low_b
        del B
    del A
    text = str(prod)
    del prod
    return _packed_digits(text, D, T, low, ranges, blocks, neg_a or neg_b)


def _packed_digits(text, D, T, low, ranges, blocks, signed):
    """Yield (base, lo, digits) for each product block of _packed_product
    from the product's decimal text."""
    half = 5 * 10 ** (D - 1)
    sign = -1 if text[0] == "-" else 1
    carry = 0
    for j, lo, hi in ranges:
        digits = _read_digits(text, D, j * T + lo - low, hi - lo + 1)
        if signed:
            # balanced digits of |prod| from the plain ones, least
            # significant first; the carry crosses each (zero) gap unchanged
            for i, v in enumerate(digits):
                v += carry
                carry = v >= half
                digits[i] = sign * (v - 2 * half if carry else v)
        yield blocks[j][0], lo, digits


class _RetryDivision(Exception):
    pass


def _quotient_certified(qmax: int, bmax: int, n: int, amax: int, L: int) -> bool:
    """True when a quotient found by _div_blocked_at at limb width L is
    proven exact without forming quot*b.

    _div_blocked_at does exact integer arithmetic on the values at q = 2^L,
    so each (ex, es, ez) block of D = quot*b - a, a Laurent polynomial in q,
    vanishes at q = 2^L.  A nonzero integer polynomial D with root
    beta = 2^L (clear negative powers of q first) has a coefficient of
    magnitude >= beta: write D = (t - beta)*g with g integral (t - beta is
    monic) and let g_j be the lowest nonzero coefficient of g; then
    D_j = -beta*g_j.
    Every coefficient of D is at most qmax*bmax*n + amax in magnitude, where
    n = min(len(quot), len(b)) bounds the products summed into one term of
    quot*b; below 2^L that forces D = 0."""
    return qmax * bmax * n + amax < 1 << L


def _div_blocked(a: Poly, b: Poly) -> Poly | None:
    if _block_map(a) is False or _block_map(b) is False:
        return None
    amax = a._coeff_stats()
    bmax = b._coeff_stats()
    # first width: room for a's and b's coefficients (_pack_coeffs needs
    # |c| < 2^L) plus len(a) bits; on Bareiss steps the quotients fit and
    # _quotient_certified holds at once, and wider widths are retries
    L0 = (max(amax, bmax).bit_length() + len(a._t).bit_length() + 2 + 7) & ~7
    for L in (L0, 2 * L0, 4 * L0):
        try:
            quot = _div_blocked_at(a, b, L)
        except _RetryDivision:
            continue
        qmax = quot._coeff_stats()
        n = min(len(quot._t), len(b._t))
        if _quotient_certified(qmax, bmax, n, amax, L) or quot * b == a:
            return quot
    return None  # caller falls back to the naive path


def _div_blocked_at(a: Poly, b: Poly, L: int) -> Poly:
    r = {base: [lo, _pack_coeffs(cs, L)] for _, base, lo, cs in _block_map(a)}
    return _from_blocks(_divide_acc(r, _block_map(b), L, _div_floor(a, b)))


def _divide_acc(r: dict, lb: list, L: int, floor: list) -> list:
    """The block list of the quotient of the accumulator r (see _add_at),
    the values at q = 2^L of a dividend's blocks, by the divisor with block
    list lb, by blocked long division; r is used up.  floor is the
    quotient's least exponent per variable (x, s, q, z), or a lower bound
    on it.  NotDivisible when a remainder block sits below what the floor
    allows, _RetryDivision when a block does not divide or a quotient digit
    falls below q's floor (possibly limb aliasing)."""
    bpacked = [(base, lo, _pack_coeffs(cs, L)) for _, base, lo, cs in lb]
    kb, off_b, int_b = max(bpacked)
    # block bases carry eq = 0, so q's floor is checked digit by digit
    lim = [e + f for e, f in zip(_unpack(kb), floor)]
    lim[2] = 0
    rest_b = [blk for blk in bpacked if blk[0] != kb]
    out = []
    while r:
        kr = max(r)
        off_r, int_r = r.pop(kr)
        if not int_r:
            continue
        if any(e < f for e, f in zip(_unpack(kr), lim)):
            raise NotDivisible("nonzero remainder")
        qt, rem = divmod(int_r, int_b)
        if rem:
            raise _RetryDivision  # possibly limb aliasing; retry wider
        t_base = kr - kb + _ZKEY
        t_off = off_r - off_b
        blk = _block(t_base, t_off, _unpack_signed(qt, L))
        if blk[2] < floor[2]:
            raise _RetryDivision
        out.append(blk)
        shift_t = t_base - _ZKEY
        for base_b2, off_b2, int_b2 in rest_b:
            _add_at(r, shift_t + base_b2, t_off + off_b2, -qt * int_b2, L)
    out.sort()
    return out


# --------------------------------------------------------------- condensation


def _condense(c: Poly, a: Poly, b: Poly, d: Poly | None, twist: int) -> Poly | None:
    """(c * sigma(c) - sigma(a) * b) / sigma(d), sigma being s -> q^twist s,
    or the numerator alone when d is None: one Desnanot-Jacobi step, on
    packed q-blocks from end to end.

    The twisted square and the negated cross product are added into one
    accumulator at a single limb width L, sized from the two products'
    coefficient bounds (and the divisor's coefficients); products above
    _PACKED_PAIRS add their _mul_packed digits block by block.  The blocked
    long division then runs on that accumulator against the twisted block
    list of d, and the quotient is built with its block list.  The product
    guards raise as the Poly formula's would; the quotient is returned only
    under _quotient_certified, with the numerator bound as amax; a retry
    or a failed certificate at L reruns the accumulation and the division
    once at 2L.  None, for the caller to take the Poly formula, below the
    blocked threshold, on a q-sparse operand, where the quotient guard of
    the two products' ranges fails, on a floor hit, and when the division
    fails at 2L too."""
    nc, na, nb = len(c._t), len(a._t), len(b._t)
    if nc * nc <= _BLOCKED_PAIRS or na * nb <= _BLOCKED_PAIRS:
        return None
    lc, la, lb = _block_map(c), _block_map(a), _block_map(b)
    ld = None if d is None else _block_map(d)
    if not (lc and la and lb) or (d is not None and not ld):
        return None
    # the guards of c.mul_s_scaled(twist) and a.subst_s_scale(twist) * b
    c._guard_s_scale(twist)
    r1 = _guard(c._get_ranges(), _s_scaled_ranges(c, twist), 1, "product")
    a._guard_s_scale(twist)
    r2 = _guard(_s_scaled_ranges(a, twist), b._get_ranges(), 1, "product")
    bound_c, bound_ab = _mul_bound(c, c), _mul_bound(a, b)
    amax = bound_c + bound_ab
    L = (amax.bit_length() + 8) & ~7
    if d is not None:
        d._guard_s_scale(twist)
        rd = _s_scaled_ranges(d, twist)
        # the numerator's ranges lie inside the union of the products'
        num = [(min(x[0], y[0]), max(x[1], y[1])) for x, y in zip(r1, r2)]
        try:
            _guard(num, rd, -1, "quotient")
        except OverflowError:
            return None
        floor = [n[0] - e[0] for n, e in zip(num, rd)]
        L = max(L, (d._coeff_stats().bit_length() + 8) & ~7)
    for L in (L,) if d is None else (L, 2 * L):
        acc: dict[int, list] = {}
        _acc_mul(acc, lc, _twisted(lc, twist), True, bound_c, nc * nc >> 1, L, 1)
        _acc_mul(acc, _twisted(la, twist), lb, False, bound_ab, na * nb, L, -1)
        if d is None:
            out = _from_acc(acc, L)
            break
        try:
            out = _from_blocks(_divide_acc(acc, _twisted(ld, twist), L, floor))
        except NotDivisible:
            return None
        except _RetryDivision:
            continue
        n = min(len(out._t), len(d._t))
        if _quotient_certified(out._coeff_stats(), d._coeff_stats(), n, amax, L):
            break
    else:
        return None
    out._ranges = _block_ranges(out)
    return out


def _acc_mul(
    acc: dict, la: list, lb: list, twin: bool, bound: int, pairs: int, L: int, sign: int
) -> None:
    """Add sign (1 or -1) times the product of the block lists la and lb
    to acc at limb width L, lb being _twisted(la, m) when twin, bound a
    bound on its coefficients and pairs its term pairs (halved when twin):
    the packed product's digits above _PACKED_PAIRS pairs where it
    applies, else the block products."""
    if pairs > _PACKED_PAIRS:
        blocks = _packed_product(la, lb, bound, twin)
        if blocks is not None:
            for base, lo, digits in blocks:
                _add_at(acc, base, lo, sign * _pack_coeffs(digits, L), L)
            return
    if twin:
        _acc_square(acc, la, lb, L, sign)
    else:
        _acc_product(acc, la, lb, L, sign)


# ----------------------------------------------------------------- helpers


def monomial(coeff: int, ex: int = 0, es: int = 0, eq: int = 0, ez: int = 0) -> Poly:
    return Poly({(ex, es, eq, ez): coeff})


def exact_div(a: Poly, b: Poly) -> Poly:
    return a.exact_div(b)


def parse(text: str) -> Poly:
    return Poly.parse(text)


ZERO = Poly()
ONE = Poly(1)
X = monomial(1, ex=1)
S = monomial(1, es=1)
Q = monomial(1, eq=1)
Z = monomial(1, ez=1)
