"""Exact sparse Laurent polynomials in the four fixed variables x, s, q, z.

Coefficients are Python ints, so arithmetic never overflows or rounds.
Exponents may be negative on every variable.  A polynomial is stored as a
dict mapping a packed monomial key to its coefficient, or, when a kernel
built it, as its block list alone (see below); the packed key is a single
int whose bit fields hold (ex, es, eq, ez) with fixed offsets, so that

  * multiplying monomials is one integer addition (key_a + key_b - _ZKEY),
  * the natural int order on keys IS the lex order with priority
    x > s > q > z, a monomial order, which picks leading terms in exact
    division.

A Poly built from a block list (_from_blocks: every kernel result, forward
sequence memo entry on its first read, which replaces the entry's packed
q-blocks, sum of _sum_products and substitution of such a Poly) is stored
as that list, a _BlockPoly whose term dict is built only when something
reads it: sums, differences, ==, negation, products with an int or a
monomial, substitutions other than s -> q^m s, division by a monomial or
term by term, evaluate and to_canonical_string.  The kernels, the size
checks (the _len slot every constructor sets), terms() and the coefficient
bounds read the blocks.  Blocks too q-sparse to keep (_dense_enough) become
the term dict at once and are dropped.

Each Poly caches its per-variable exponent ranges.  A product or an
exact quotient carries them from birth: the guard that checks a product's
(quotient's) exponents computes them as the sum (difference) of the
operands' ranges, which is exact because the ring has no zero divisors.
A Poly built from a block list reads them off its blocks, whose ends are
nonzero.  Other sums, differences and substitutions scan their keys for
them when first asked.

The *display* order used by to_canonical_string is different (z desc,
x desc, then s and q ascending) so that characteristic polynomials lead
with z^n and q-expansions read like q-series; both orders are strict and
total, and parse() accepts terms in any order.

Every product, a * b or a sum of products sum(a * b for a, b in pairs)
taken by dot, picks its kernel by size in one function, _sum_products;
a * b is the case of one pair.  Nearly every residual is such a sum: the
power recurrences, Euler-Cassini, the basis decomposition, the three-term
recurrences, the 2 x 2 minors of the power determinants and each Bareiss
step piv * a - lead * b, and dot never forms their products one by one.

  * Products within _BLOCKED_PAIRS = 512 term pairs add every term pair
    into one dict and drop its zeros once (_dot_naive).
  * A larger product is a Kronecker substitution on the operands' blocks:
    the terms sharing (ex, es, ez), sorted by es and cached.  Each block's
    q-coefficients are packed into one big integer with a rigorously
    chosen limb width, so block products are single bigint
    multiplications, added into one accumulator of packed q-blocks for the
    whole sum.  A block of limbs up to 8 bytes wide packs and unpacks in a
    fixed number of C calls: struct moves its balanced digits as two's
    complement machine words, byte-plane slices fit a 3-, 5-, 6- or
    7-byte limb to its word, and one xor with a bias of 2^(L-1) at every
    limb turns two's complement limbs into the packed value and back.  A
    square (a * a, as built by __pow__) multiplies each unordered block
    pair once and adds the product doubled.
  * Above _PACKED_PAIRS term pairs (a square counting half), a product of
    operands with one block per s exponent (every q-Fibonacci power and
    every power-determinant minor, being homogeneous in deg x = 1, deg s =
    2 without z) is one multiplication of Decimals under q -> t, s -> t^T,
    t = 10^D (_packed_product).  Its digits are added into the
    accumulator block by block, or, for a product alone, read off as the
    result's blocks.  Where it declines, the block products run.

Decimal, because the stdlib decimal module (libmpdec) multiplies large
operands by a number-theoretic transform, while CPython's ints multiply
by Karatsuba only: the packed product wins from a few million term pairs
on.  Its context traps Inexact and Rounded, so a rounding would raise
rather than pass silently.  The accumulator sizes its limbs from the sum
of the products' coefficient bounds, each the lesser of max|a| max|b|
min(#a, #b) and the Cauchy-Schwarz bound |a|_2 |b|_2, and nothing is
unpacked until the sum is whole; the result is stored as its block
list, which the next product it enters reads without a scan.  A packed
product of nonnegative operands, as every q-Fibonacci power is, has its
coefficients in
[0, bound] and takes plain digits, bound < 10^D; only a signed operand
needs balanced ones, |c| <= bound < 10^D / 2, often a digit wider.  The
product's balanced digits become plain ones by one Decimal addition of
10^D / 2 at every position, subtracted again from each digit read.  Where
the accumulator declines (a q-sparse operand, products too far apart in
q), a * b runs the term dict and dot adds the products as Polys.  Every
path keeps the product guards of a * b.

The kernels' input and output run without a Python loop per coefficient.
Limbs of at most 8 bytes cross as whole blocks, through struct.pack and
struct.unpack; wider limbs, and coefficients beyond the balanced digits,
cross as bytes through map over int.to_bytes, re.findall and
int.from_bytes.  Decimal digits cross as text through map over a format,
re.findall and map(int, ...).  A result's term dict, if it is ever
read, is filled by dict.update, one insert per coefficient.  s -> q^m s
on a Poly that carries a block list moves each block to q^(lo + m*es),
sharing its coefficient list, and stores the result as the moved list.
Python loops per term remain outside the kernels: the dict engine, small
products and sums of them (_dot_naive), Poly sums and differences,
substitutions of a Poly without a block list (the loop the dict engine
runs, hence the oracle), the scan of a Poly built term by term into its
blocks (_block_map; kernel results are stored as theirs), terms() and the
lazy scan of exponent ranges.

Exact division works in the Laurent ring.  Least exponents add under
products, so no term of an exact quotient a / b lies below low(a) - low(b)
per variable; the kernels refuse a quotient term under that floor.  An
exact quotient is unique, so any monomial order finds it, and no graded
order is needed to end the descent on inputs that do not divide: the
quotient terms fall strictly in lex order while staying above the floor,
and lex order well-orders that set.  Large exact divisions run the same
blocked long division on the values at q = 2^L, at one limb width L.  The
quotient is returned without forming quot * b when a coefficient bound
proves quot * b - a, which vanishes at q = 2^L, is zero (see
_quotient_certified); a block that does not divide at q = 2^L or an
uncertified quotient falls to the plain division.

Setting QFIB_NO_FAST=1 in the environment forces the plain dict paths
everywhere, where dot adds the products a * b as Polys (the test suite
checks both paths agree).
"""

from __future__ import annotations

import os
import re
import struct
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from itertools import chain, compress, repeat
from math import isqrt
from operator import mul, neg, sub

__all__ = [
    "Poly",
    "NotDivisible",
    "ParseError",
    "PoleAtZero",
    "dot",
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

    __slots__ = ("_t", "_len", "_ranges", "_ext", "_cmax", "_n2", "_blocks")

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
        self._len = len(d)
        self._ranges = None
        self._ext = None
        self._cmax = None
        self._n2 = None
        self._blocks = None

    @classmethod
    def _raw(cls, d: dict[int, int], ranges=None) -> "Poly":
        """The Poly on the term dict d (taken, not copied), with its exponent
        ranges when the caller knows them exactly."""
        p = cls.__new__(cls)
        p._t = d
        p._len = len(d)
        p._ranges = ranges
        p._ext = None
        p._cmax = None
        p._n2 = None
        p._blocks = None
        return p

    # ---------------------------------------------------------------- basics

    def is_zero(self) -> bool:
        return not self._len

    def __bool__(self) -> bool:
        return bool(self._len)

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self._len
            return self._t == {_ZKEY: other}
        if isinstance(other, Poly):
            return self._t == other._t
        return NotImplemented

    __hash__ = None

    def terms(self):
        """Iterate ((ex, es, eq, ez), coeff) pairs in no particular order."""
        if not self._blocks:
            for k, c in self._t.items():
                yield _unpack(k), c
            return
        for _, base, lo, cs in self._blocks:
            ex, es, _, ez = _unpack(base)
            for eq, c in enumerate(cs, lo):
                if c:
                    yield (ex, es, eq, ez), c

    def exponent_range(self, var: str) -> tuple[int, int]:
        """(min, max) exponent of `var` over the terms; (0, 0) if zero poly."""
        return self._get_ranges()[_VARS.index(var)]

    def _get_ranges(self):
        r = self._ranges
        if r is None:
            if not self._len:
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

    def _extent(self) -> int:
        """max |exponent| over the four variables (0 for the zero polynomial),
        read off the exponent ranges once and kept."""
        e = self._ext
        if e is None:
            (xl, xh), (sl, sh), (ql, qh), (zl, zh) = self._get_ranges()
            e = self._ext = max(-xl, xh, -sl, sh, -ql, qh, -zl, zh)
        return e

    def _coeffs(self) -> list:
        """The coefficients, as a list of sequences: the blocks' coefficient
        lists (zeros between a block's ends included) or the term dict's
        values."""
        if self._blocks:
            return [cs for *_, cs in self._blocks]
        return [self._t.values()]

    def _coeff_stats(self) -> int:
        """max |coeff| (1 for the zero polynomial)."""
        if self._cmax is None:
            self._cmax = max(map(abs, chain.from_iterable(self._coeffs())), default=1)
        return self._cmax

    def _norm2(self) -> int:
        """The squared 2-norm, sum of coeff^2."""
        if self._n2 is None:
            self._n2 = sum(sum(map(mul, v, v)) for v in self._coeffs())
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
        if not self._len or not other._len:
            return ZERO
        r = _guard(self._get_ranges(), other._get_ranges(), 1, "product")
        if self._len == 1:
            (ka, ca), = self._t.items()
            return Poly._raw({ka + kb - _ZKEY: ca * cb for kb, cb in other._t.items()}, r)
        if other._len == 1:
            (kb, cb), = other._t.items()
            return Poly._raw({ka + kb - _ZKEY: ca * cb for ka, ca in self._t.items()}, r)
        out = _sum_products([(self, other)]) if _FAST else None
        if out is None:
            out = _dot_naive(((self._t, other._t),))
        out._ranges = r
        return out

    __rmul__ = __mul__

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
        if m == 0 or not self._len:
            return self
        if self._blocks:
            # sharing the coefficient lists is safe: no code mutates a block list
            return _from_blocks([(es, base, lo + m * es, cs) for es, base, lo, cs in self._blocks])
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
        """Evaluate at rational values, returning a Fraction. Every variable
        that occurs needs a value; a zero value under a negative exponent
        raises PoleAtZero.  An int value of a variable with no negative
        exponent stays an int, so a polynomial in such values alone is
        summed in ints."""
        from fractions import Fraction

        vals = [x, s, q, z]
        ranges = self._get_ranges()
        for i, v in enumerate(vals):
            if v is None:
                if ranges[i] != (0, 0):
                    raise ValueError(f"no value given for variable {_VARS[i]}")
                vals[i] = 0
            elif not isinstance(v, int) or ranges[i][0] < 0:
                vals[i] = Fraction(v)
        total = 0
        for k, c in self._t.items():
            term = c
            for v, e in zip(vals, _unpack(k)):
                if e:
                    if v == 0 and e < 0:
                        raise PoleAtZero("zero value raised to a negative exponent")
                    term *= v ** e
            total += term
        return Fraction(total)

    # -------------------------------------------------------------- division

    def exact_div(self, b: "Poly") -> "Poly":
        """Return the Laurent polynomial q with self = q*b, by ordered long
        division, or raise NotDivisible.  Least exponents add under
        products, so each term of q has exponents >= low(self) - low(b) per
        variable, and the kernels refuse any quotient term below that."""
        if not isinstance(b, Poly) or not b._len:
            raise ZeroDivisionError("exact_div by the zero polynomial")
        if not self._len:
            return ZERO
        # an exact quotient spans (low(self) - low(b), high(self) - high(b))
        r = _guard(self._get_ranges(), b._get_ranges(), -1, "quotient")
        if b._len == 1:
            out = _div_monomial(self, b)
        else:
            out = None
            if _FAST and self._len > 400:
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


class _BlockPoly(Poly):
    """A Poly stored as its block list (_from_blocks), its _t slot unset.
    The first read of _t builds the term dict from the blocks, keeps it and
    makes the object a plain Poly.  The hook is on this subclass, not on
    Poly: CPython 3.11 specializes no attribute read on a class that
    defines __getattr__, and on Poly that cost the catalog about 2% of its
    work_s (perfbench/run.py, medians over 10 and 8 seeds in two sessions,
    2-vCPU x86-64)."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "_t":
            raise AttributeError(f"'Poly' object has no attribute {name!r}")
        d = self._t = _block_terms(self._blocks)
        self.__class__ = Poly
        return d

    def __reduce__(self):
        # copies and pickles carry the block list, leaving both dicts unbuilt
        return _from_blocks, (self._blocks,)


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
#
# The grammar parse reads, which to_canonical_string writes:
#
#   poly   := [sign] term (sign term)*           sign := "+" | "-"
#   term   := factor ("*" factor)*
#   factor := digits | var ["^" ["-"] digits]    var  := "x" | "s" | "q" | "z"
#
# digits is [0-9]+: ASCII digits only.  Blanks, spaces and tabs, may
# stand before and after each sign, factor and "*", and between "^" and its
# exponent, nowhere else.  A term may repeat a variable and a monomial may
# repeat over terms: factors multiply and terms add.

_BLANKS = re.compile(r"[ \t]*")
_FACTOR = re.compile(r"[ \t]*(?:(\d+)|([xsqz])(?:(\^[ \t]*)(-?\d+)?)?)", re.ASCII)


def parse(text: str) -> Poly:
    """The Poly that text writes in the grammar above: the inverse of
    to_canonical_string, with terms and factors in any order.  ParseError
    gives the position of the first character that does not fit; an
    exponent past _EXP_LIMIT, in a factor or summed over a term, raises
    ValueError."""
    total: dict[int, int] = {}
    pos = _BLANKS.match(text).end()
    if pos == len(text):
        raise ParseError("empty polynomial", pos)
    sign = text[pos] if text[pos] in "+-" else ""
    pos += len(sign)
    while True:
        coeff, exps = -1 if sign == "-" else 1, [0, 0, 0, 0]
        while True:
            m = _FACTOR.match(text, pos)
            if m is None:
                pos = _BLANKS.match(text, pos).end()
                what = "a coefficient or variable"
                if text[pos : pos + 1].isdigit():  # a non-ASCII digit, such as "²" or "٣"
                    what = "an integer"
                raise ParseError(f"expected {what}", pos)
            digits, var, caret, e = m.groups()
            if digits:
                coeff *= int(digits)
            elif caret and not e:
                raise ParseError("expected an integer", m.end())
            else:
                exps[_VARS.index(var)] += _check_exp(int(e)) if caret else 1
            pos = _BLANKS.match(text, m.end()).end()
            if not text.startswith("*", pos):
                break
            pos += 1
        # a term's factors may repeat a variable: check what they add up to
        key = _pack(*map(_check_exp, exps))
        total[key] = total.get(key, 0) + coeff
        if pos == len(text):
            return Poly._raw({k: c for k, c in total.items() if c})
        sign = text[pos]
        if sign not in "+-":
            raise ParseError(f"unexpected character {sign!r}", pos)
        pos += 1


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


def _dot_naive(pairs) -> Poly:
    """sum(a * b) over pairs (a, b) of term dicts: every term pair is added
    into one dict, and the zeros are dropped once, at the end."""
    out: dict[int, int] = {}
    get = out.get
    off = _ZKEY
    for a, b in pairs:
        if len(a) > len(b):
            a, b = b, a
        bitems = list(b.items())
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

# term pairs len(a) * len(b) above which products take a Kronecker kernel.
# Measured (Python 3.11, 2-vCPU x86-64, catalog work_s of perfbench/run.py,
# medians of 6 seeds, 3 s runs): 0.149 s at 2048, 0.141 at 1024, 0.138 at
# 512, 0.141 at 256 and 128; in a second session 512 beat 256 and 1024 on
# 6 and 5 of 6 seeds.  det_frontier work_s: 0.0139 s at 2048, 0.0116 at 512.
_BLOCKED_PAIRS = 512

# limb bytes -> (bytes, struct format) of the least machine word holding the
# limb, the format with '<' so that no host byte order needs a branch; wider
# limbs take the byte-string path
_WORDS = {1: (1, "b"), 2: (2, "h"), 3: (4, "i"), 4: (4, "i"),
          5: (8, "q"), 6: (8, "q"), 7: (8, "q"), 8: (8, "q")}
# byte -> the byte that sign-extends it: 0x00 below 0x80, 0xff from 0x80 on
_SIGN_BYTES = bytes(128) + b"\xff" * 128


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
    """The Poly whose _block_map is `blocks`, stored as that list (a
    _BlockPoly, its term dict built on first read): [(es, base, lo,
    coeffs)] sorted by es, no block empty, and each block's first and last
    coefficients nonzero (as _block_map builds them).  Blocks too q-sparse
    to keep become the term dict at once and are dropped.  The exact
    exponent ranges are read off the block list: x and z from the bases, s
    from the first and last blocks, q from the blocks' ends."""
    width = zeros = 0
    for *_, cs in blocks:
        width += len(cs)
        zeros += cs.count(0)
    if _dense_enough(width, width - zeros):
        p = _BlockPoly.__new__(_BlockPoly)
        p._len = width - zeros
        p._ranges = p._ext = p._cmax = p._n2 = None
        p._blocks = blocks
    else:
        p = Poly._raw(_block_terms(blocks))
        p._blocks = False
    if blocks:
        bases = [base for _, base, _, _ in blocks]
        z = [base & _MASK for base in bases]
        p._ranges = (
            ((min(bases) >> _SH_EX) - _BIAS, (max(bases) >> _SH_EX) - _BIAS),
            (blocks[0][0], blocks[-1][0]),
            (min(lo for _, _, lo, _ in blocks), max(lo + len(cs) for _, _, lo, cs in blocks) - 1),
            (min(z) - _BIAS, max(z) - _BIAS),
        )
    return p


def _block_terms(blocks: list) -> dict[int, int]:
    """The term dict of a block list, in block order."""
    d: dict[int, int] = {}
    for _, base, lo, cs in blocks:
        first = base + lo * _QSTEP
        keys = range(first, first + len(cs) * _QSTEP, _QSTEP)
        d.update(compress(zip(keys, cs), cs))
    return d


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
    return _from_digits((base, off, _unpack_signed(big, L)) for base, (off, big) in acc.items())


def _pack_coeffs(coeffs: list[int], L: int) -> int:
    """sum(c_i * 2^(L*i)) for |c_i| < 2^L; L must be a multiple of 8.

    Balanced digits, c_i in [-2^(L-1), 2^(L-1)), in limbs of at most 8
    bytes take a fixed number of C calls: struct writes each digit as its
    two's complement in the least machine word holding a limb (_WORDS), a
    limb narrower than its word drops the word's top byte planes (strided
    bytearray slices), and the limbs u give the sum as u when no digit is
    negative, else as (u ^ bias) - bias, bias holding 2^(L-1) at every
    limb.  Wider limbs and wider coefficients take the byte-string path,
    _pack_bytes."""
    if not coeffs:
        return 0
    nb = L // 8
    word = _WORDS.get(nb)
    least = min(coeffs)
    half = 1 << (L - 1)
    if word and -half <= least and max(coeffs) < half:
        w, fmt = word
        raw = struct.pack(f"<{len(coeffs)}{fmt}", *coeffs)
        if w > nb:
            raw = bytearray(raw)
            for j in range(w - 1, nb - 1, -1):
                del raw[j :: j + 1]
        if least >= 0:
            return int.from_bytes(raw, "little")
        bias = int.from_bytes((bytes(nb - 1) + b"\x80") * len(coeffs), "little")
        return (int.from_bytes(raw, "little") ^ bias) - bias
    return _pack_bytes(coeffs, nb)


def _pack_bytes(coeffs: list[int], nb: int) -> int:
    """_pack_coeffs at limbs of nb bytes, any width: the positive and the
    negative parts as two unsigned byte strings, joined by one subtraction
    in time linear in the block width."""

    def limbs(cs) -> int:
        raw = b"".join(map(int.to_bytes, cs, repeat(nb), repeat("little")))
        return int.from_bytes(raw, "little")

    if min(coeffs) >= 0:
        return limbs(coeffs)
    return limbs(map(max, coeffs, repeat(0))) - limbs(map(max, map(neg, coeffs), repeat(0)))


def _unpack_signed(acc: int, L: int) -> list[int]:
    """Balanced base-2^L digits of acc (digits in [-2^(L-1), 2^(L-1)), no
    trailing zeros); L must be a multiple of 8.

    Adding bias = 2^(L-1) at every digit position turns the balanced digits
    into unsigned ones, which one to_bytes call exposes.  Limbs of at most
    8 bytes take a fixed number of C calls: the xor with the bias makes
    each limb its digit's two's complement, a limb narrower than its
    machine word (_WORDS) has the word's top byte planes filled with its
    sign byte (one bytes.translate), and struct reads the words.  Wider
    limbs take the byte-string path, _unpack_bytes."""
    if not acc:
        return []
    nb = L // 8
    n = acc.bit_length() // L + 2  # n balanced digits cover |acc| < 2^(L*(n-1))
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
    word = _WORDS.get(nb)
    if word:
        w, fmt = word
        raw = ((acc + bias) ^ bias).to_bytes(n * nb, "little")
        if w > nb:
            wide = bytearray(n * w)
            for j in range(nb):
                wide[j::w] = raw[j::nb]
            sign = raw[nb - 1 :: nb].translate(_SIGN_BYTES)
            for j in range(nb, w):
                wide[j::w] = sign
            raw = wide
        digits = list(struct.unpack(f"<{n}{fmt}", raw))
    else:
        digits = _unpack_bytes((acc + bias).to_bytes(n * nb, "little"), nb)
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _unpack_bytes(raw: bytes, nb: int) -> list[int]:
    """The limbs of raw, nb bytes each, less their bias 2^(8*nb - 1), at
    any width: sliced by one regex, read and unbiased one by one.  A limb
    may hold any byte, newline included, hence re.S."""
    limbs = map(int.from_bytes, re.findall(b".{%d}" % nb, raw, re.S), repeat("little"))
    return list(map(sub, limbs, repeat(1 << (8 * nb - 1))))


def _mul_bound(a: Poly, b: Poly) -> int:
    """A bound on |coeff| of a * b.  Each product coefficient sums at most
    min(len a, len b) term products, and it is an inner product of a with a
    shifted reversal of b, so Cauchy-Schwarz bounds its square by
    |a|_2^2 * |b|_2^2."""
    n = min(a._len, b._len)
    return min(
        a._coeff_stats() * b._coeff_stats() * n, isqrt(a._norm2() * b._norm2())
    )


def _limb(bound: int) -> int:
    """The least limb width, a multiple of 8, whose balanced digits hold
    every |c| <= bound: bound < 2^bits <= 2^(L-1)."""
    return (bound.bit_length() + 8) & ~7


def _acc_square(acc: dict, la: list, L: int) -> None:
    """Add p * p to acc at limb width L, given p's block list la: each
    unordered block pair once, an off-diagonal product added doubled.
    Operand coefficients must be below 2^L."""
    packed = [(base - _ZKEY, lo, _pack_coeffs(cs, L)) for _, base, lo, cs in la]
    for i, (sa, off_a, int_a) in enumerate(packed):
        _add_at(acc, sa + sa + _ZKEY, off_a + off_a, int_a * int_a, L)
        for sb, off_b, int_b in packed[i + 1 :]:
            _add_at(acc, sa + sb + _ZKEY, off_a + off_b, (int_a * int_b) << 1, L)


def _acc_product(acc: dict, la: list, lb: list, L: int) -> None:
    """Add a * b to acc at limb width L, given the block lists la and lb of
    a and b.  Operand coefficients must be below 2^L."""
    if len(la) > len(lb):
        la, lb = lb, la
    apacked = [(base - _ZKEY, lo, _pack_coeffs(cs, L)) for _, base, lo, cs in la]
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
    if not signed:
        return _dec_digits(line, T, D, 0)
    value, low = _dec_digits(line, T, D, 1)
    return _EXACT.subtract(value, _dec_digits(line, T, D, -1)[0]), low


def _dec_digits(line: list, T: int, D: int, sign: int) -> tuple[Decimal, int]:
    """(sum max(sign*c, 0) * t^(es*T + eq - low), low) from one string of
    D-digit chunks, most significant first; blocks are joined by runs of
    zeros.  sign 0 writes the coefficients as they are, all nonnegative."""
    fmt = f"%0{D}d".__mod__
    runs: list[str] = []
    nxt = None  # the position of the last chunk written
    for es, _, lo, cs in reversed(line):
        start = es * T + lo
        if nxt is not None:
            runs.append("0" * ((nxt - start - len(cs)) * D))
        nxt = start
        cs = reversed(cs)
        if sign:
            cs = map(max, map(neg, cs) if sign < 0 else cs, repeat(0))
        runs.append("".join(map(fmt, cs)))
    return Decimal("".join(runs)), nxt


def _read_digits(text: str, D: int, p: int, w: int, bias: int) -> list[int]:
    """Digits p .. p + w - 1 in base 10^D of the nonnegative integer written
    in text, least significant first, bias subtracted from each."""
    end = max(len(text) - p * D, 0)
    chunks = re.findall(f".{{{D}}}", text[max(end - w * D, 0) : end].rjust(w * D, "0"))
    chunks.reverse()
    if not bias:
        return list(map(int, chunks))
    return list(map(sub, map(int, chunks), repeat(bias)))


def _from_digits(blocks) -> Poly:
    """The Poly of the blocks (base, lo, digits), in any order, of
    _packed_product or _from_acc, its block list cached.  A block may sum
    several products, which can cancel at its ends or throughout."""
    bl = []
    for base, lo, digits in blocks:
        while digits and not digits[-1]:
            digits.pop()
        if digits:
            bl.append(_block(base, lo, digits))
    bl.sort()
    return _from_blocks(bl)


def _packed_product(la: list, lb: list, bound: int):
    """The blocks (base, lo, digits) of the product of the block lists la
    and lb, digits the coefficients of q^lo, q^(lo+1), ..., read off one
    product of Decimals (a square when lb is la).  bound bounds the
    product's coefficients.  None unless the products of blocks with equal
    es sums share a base (so both are s-lines), the digit width D stays
    within _MAX_DIGITS and the packed product is not mostly gaps.

    A product of nonnegative operands has plain digits, 0 <= c <= bound <
    t; otherwise the digits are balanced, |c| <= bound < t / 2."""
    neg_a = any(min(cs) < 0 for *_, cs in la)
    neg_b = neg_a if lb is la else any(min(cs) < 0 for *_, cs in lb)
    signed = neg_a or neg_b
    if signed:
        bound *= 2
    if bound >= _DIGITS_CAP:
        return None
    D = len(str(bound))
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
    half = 0
    if signed:
        # t/2 added at every position up to the top one turns the balanced
        # digits into plain ones, each read back less t/2
        half = 5 * 10 ** (D - 1)
        top = ranges[-1][0] * T + ranges[-1][2] - low
        prod = _EXACT.add(prod, Decimal(str(half) * (top + 1)))
    text = str(prod)
    del prod
    return (
        (blocks[j][0], lo, _read_digits(text, D, j * T + lo - low, hi - lo + 1, half))
        for j, lo, hi in ranges
    )


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
    """a / b by _div_blocked_at at one limb width L; None, for the caller
    to divide term by term, when an operand is too q-sparse to pack, a
    block does not divide at q = 2^L or the quotient is not certified."""
    if _block_map(a) is False or _block_map(b) is False:
        return None
    amax = a._coeff_stats()
    bmax = b._coeff_stats()
    # room for a's and b's coefficients (_pack_coeffs needs |c| < 2^L) plus
    # len(a) bits; on Bareiss steps the quotients fit and are certified
    L = (max(amax, bmax).bit_length() + a._len.bit_length() + 2 + 7) & ~7
    quot = _div_blocked_at(a, b, L)
    if quot is None:
        return None
    n = min(quot._len, b._len)
    return quot if _quotient_certified(quot._coeff_stats(), bmax, n, amax, L) else None


def _div_blocked_at(a: Poly, b: Poly, L: int) -> Poly | None:
    """a / b by blocked long division on the values of their blocks at
    q = 2^L, the quotient built with its block list.  No quotient term lies
    below _div_floor(a, b): NotDivisible when a remainder block sits below
    what that floor allows; None when a block does not divide or a
    quotient digit falls below q's floor (possibly limb aliasing)."""
    floor = _div_floor(a, b)
    r = {base: [lo, _pack_coeffs(cs, L)] for _, base, lo, cs in _block_map(a)}
    bpacked = [(base, lo, _pack_coeffs(cs, L)) for _, base, lo, cs in _block_map(b)]
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
            return None  # possibly limb aliasing
        t_base = kr - kb + _ZKEY
        t_off = off_r - off_b
        blk = _block(t_base, t_off, _unpack_signed(qt, L))
        if blk[2] < floor[2]:
            return None
        out.append(blk)
        shift_t = t_base - _ZKEY
        for base_b2, off_b2, int_b2 in rest_b:
            _add_at(r, shift_t + base_b2, t_off + off_b2, -qt * int_b2, L)
    out.sort()
    return _from_blocks(out)


# ---------------------------------------------------------- sums of products


def dot(pairs) -> Poly:
    """sum(a * b for a, b in pairs), for pairs of Polys, without forming
    the products on the default engine: _sum_products picks the kernel.
    Where it declines, and under QFIB_NO_FAST=1, the products a * b are
    added as Polys, the tests' oracle.  Every product is guarded, so an
    out-of-range exponent raises the OverflowError of a * b."""
    pairs = [(a, b) for a, b in pairs if a._len and b._len]  # a * b = 0 unguarded
    if _FAST:
        total = _sum_products(pairs)
        if total is not None:
            return total
    total = ZERO
    for a, b in pairs:
        total = total + a * b if total else a * b
    return total


def _sum_products(terms: list) -> Poly | None:
    """sum(a * b for a, b in terms), nonzero operands: the one place where
    a product's size picks its kernel; a * b is the case of one pair.

    When no product exceeds _BLOCKED_PAIRS term pairs, every term pair is
    added into one dict (_dot_naive): below that size the blocks' fixed
    costs (a block map, a few C calls to pack and unpack each block, the
    accumulator) outweigh what the bigint products save.  The guard there
    compares the operands' extents (Poly._extent) with _VAR_GUARD and runs
    the per-variable guard only on a pair whose extents sum past it:
    |lo_a + lo_b| and |hi_a + hi_b| stay within the extents' sum.

    Otherwise every product is added into one accumulator of packed
    q-blocks at a single limb width L, sized from the sum of the products'
    coefficient bounds, each operand block packed and each sum block
    unpacked whole (_pack_coeffs, _unpack_signed); the sum is unpacked
    once, its block list cached
    and its exponent ranges read off that list, which stays exact where the
    products cancel.  A product above _PACKED_PAIRS term pairs (a square,
    whose operands share one block list, counting half) adds the digits of
    its _packed_product block by block where that applies; a sum of that
    one product alone is read straight off its digits.  The others add
    their block products, a square each unordered block pair once
    (_acc_square).  Each product's exponent guard runs first, so an
    out-of-range exponent raises the OverflowError of a * b.  None, for the
    caller to multiply term by term, when an operand is too q-sparse to
    pack or the products' q ranges lie too far apart to share blocks."""
    sizes = [a._len * b._len for a, b in terms]
    if max(sizes, default=0) <= _BLOCKED_PAIRS:
        for a, b in terms:
            if a._extent() + b._extent() > _VAR_GUARD:
                _guard(a._get_ranges(), b._get_ranges(), 1, "product")
        return _dot_naive([(a._t, b._t) for a, b in terms])
    products, q = [], []
    for (a, b), pairs in zip(terms, sizes):
        q.append(_guard(a._get_ranges(), b._get_ranges(), 1, "product")[2])
        la, lb = _block_map(a), _block_map(b)
        if la is False or lb is False:
            return None
        products.append((la, lb, _mul_bound(a, b), pairs >> (la is lb)))
    # a block of the accumulator spans the gaps between the products too
    hull = max(hi for _, hi in q) - min(lo for lo, _ in q) + 1
    if not _dense_enough(hull, sum(hi - lo + 1 for lo, hi in q)):
        return None
    L = _limb(sum(bound for _, _, bound, _ in products))
    acc: dict[int, list] = {}
    for la, lb, bound, pairs in products:
        blocks = _packed_product(la, lb, bound) if pairs > _PACKED_PAIRS else None
        if blocks is None:
            if la is lb:
                _acc_square(acc, la, L)
            else:
                _acc_product(acc, la, lb, L)
        elif len(products) == 1:
            return _from_digits(blocks)
        else:
            for base, lo, digits in blocks:
                _add_at(acc, base, lo, _pack_coeffs(digits, L), L)
    return _from_acc(acc, L)


# ----------------------------------------------------------------- helpers


def monomial(coeff: int, ex: int = 0, es: int = 0, eq: int = 0, ez: int = 0) -> Poly:
    return Poly({(ex, es, eq, ez): coeff})


ZERO = Poly()
ONE = Poly(1)
X = monomial(1, ex=1)
S = monomial(1, es=1)
Q = monomial(1, eq=1)
Z = monomial(1, ez=1)
