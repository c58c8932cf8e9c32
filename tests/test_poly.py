"""Core polynomial ring: worked examples, properties, engine equivalence."""

import copy
import pickle
import random
import sys
from fractions import Fraction
from math import isqrt

import pytest

from qfib import poly
from qfib.poly import (
    ONE,
    NotDivisible,
    ParseError,
    Poly,
    PoleAtZero,
    Q,
    S,
    X,
    Z,
    ZERO,
    monomial,
    parse,
    _block_map,
    _from_acc,
    _from_blocks,
    _div_blocked,
    _div_blocked_at,
    _div_naive,
    _dot_naive,
    _mul_bound,
    _MAX_DIGITS,
    _pack_coeffs,
    _packed_product,
    _quotient_certified,
    _unpack_signed,
)
from qfib.sequences import SeqCache, _fill_packed


def rand_poly(rng, nterms, exp_lo=-3, exp_hi=4, cmax=9):
    d = {}
    for _ in range(nterms):
        key = (
            rng.randint(exp_lo, exp_hi),
            rng.randint(exp_lo, exp_hi),
            rng.randint(exp_lo, exp_hi),
            rng.randint(0, 2),
        )
        c = rng.randint(-cmax, cmax)
        if c:
            d[key] = d.get(key, 0) + c
    return Poly(d)


def rand_ordinary(rng, nterms, exp_hi=4, cmax=9):
    return rand_poly(rng, nterms, exp_lo=0, exp_hi=exp_hi, cmax=cmax)


def _naive(a, b):
    """a * b by the term dict, the oracle."""
    return _dot_naive(((a._t, b._t),))


def _kernel(a, b, packed=False):
    """a * b through _sum_products on the one pair (a, b), forced past
    _BLOCKED_PAIRS onto the block products or, when packed, onto the
    packed product, which must take it."""
    took = []
    real = poly._packed_product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_BLOCKED_PAIRS", 0)
        mp.setattr(poly, "_PACKED_PAIRS", 0 if packed else 10**18)
        mp.setattr(poly, "_packed_product", lambda *args: took.append(real(*args)) or took[-1])
        out = poly._sum_products([(a, b)])
    assert len(took) == (1 if packed else 0) and None not in took
    return out


def _packed_blocks(a, b):
    """_packed_product on the block lists of a and b; None where it declines."""
    return _packed_product(_block_map(a), _block_map(b), _mul_bound(a, b))


# --------------------------------------------------------- worked examples


def test_add_example():
    assert str(X + Q * S) == "x + q*s"


def test_mul_example_hand_expansion():
    assert (S + X**2) * (2 * S + X**2) == 2 * S**2 + 3 * S * X**2 + X**4


def test_pow_zero_is_one():
    assert X**0 == ONE
    assert ZERO**0 == ONE


def test_exact_div_product():
    num = (S + X**2) * (2 * S + X**2)
    assert num.exact_div(S + X**2) == 2 * S + X**2


def test_exact_div_monomial():
    assert monomial(1, eq=3, es=1).exact_div(monomial(1, eq=1, es=1)) == Q**2


def test_exact_div_remainder_raises():
    # x + 1 is no unit of the Laurent ring, and x^2 + s is 1 + s at x = -1
    with pytest.raises(NotDivisible):
        (X**2 + S).exact_div(X + ONE)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        X.exact_div(ZERO)


def test_subst_s_scale_examples():
    assert (Q * S + X**2).subst_s_scale(2) == Q**3 * S + X**2
    assert (X**3).subst_s_scale(5) == X**3
    assert (monomial(1, es=1, eq=-1) + X**2).subst_s_scale(3) == Q**2 * S + X**2


def test_subst_q_invert_examples():
    assert (Q * S + X**2).subst_q_invert() == monomial(1, es=1, eq=-1) + X**2
    rng = random.Random(1)
    for _ in range(50):
        p = rand_poly(rng, 6)
        assert p.subst_q_invert().subst_q_invert() == p


def test_subst_s_scale_additive():
    rng = random.Random(2)
    for _ in range(100):
        p = rand_poly(rng, 6)
        m1, m2 = rng.randint(-4, 4), rng.randint(-4, 4)
        assert p.subst_s_scale(m1 + m2) == p.subst_s_scale(m1).subst_s_scale(m2)


def test_subst_q_one():
    f4 = Q * S * X + Q**2 * S * X + X**3
    assert f4.subst_q_one() == 2 * S * X + X**3


def test_evaluate():
    assert (X**2 + S).evaluate(x=2, s=-4) == 0
    p = X**2 + S * Q
    assert p.evaluate(x=Fraction(1, 2), s=3, q=2) == Fraction(25, 4)


def test_evaluate_requires_used_variables():
    with pytest.raises(ValueError):
        (X + S).evaluate(x=1)
    # unused variables need no value
    assert (X**2).evaluate(x=3) == 9


def test_evaluate_pole():
    p = monomial(1, eq=-1)
    with pytest.raises(PoleAtZero):
        p.evaluate(q=0)
    assert p.evaluate(q=Fraction(1, 2)) == 2


def test_canonical_string_examples():
    assert str(Q * S + X**2) == "x^2 + q*s"
    f5 = X**4 + Q * S * X**2 + Q**2 * S * X**2 + Q**3 * S * X**2 + Q**4 * S**2
    assert str(f5) == "x^4 + q*s*x^2 + q^2*s*x^2 + q^3*s*x^2 + q^4*s^2"
    assert str(Z**2 - X * Z - S) == "z^2 - x*z - s"
    assert str(ZERO) == "0"
    assert str(Poly(-7)) == "-7"
    assert str(-X + ONE) == "-x + 1"
    assert str(monomial(-1, es=-2)) == "-s^-2"


def test_parse_examples():
    assert parse("q^-1*s + x^2") == monomial(1, es=1, eq=-1) + X**2
    assert parse("15") == Poly(15)
    assert parse("-x + 1") == ONE - X
    assert parse("2*x*x") == 2 * X**2
    # blanks may follow "^", but not stand between "-" and its digits
    assert parse("x^ -2") == parse("x^\t-2") == monomial(1, ex=-2)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "empty polynomial", 0),
        (" \t ", "empty polynomial", 3),
        ("x +", "expected a coefficient or variable", 3),
        ("+-x", "expected a coefficient or variable", 1),
        ("2**x", "expected a coefficient or variable", 2),
        ("x^", "expected an integer", 2),
        ("x^-", "expected an integer", 2),
        ("x^ - 2", "expected an integer", 3),
        ("x^^2", "expected an integer", 2),
        ("x ^2", "unexpected character '^'", 2),
        ("x^²", "expected an integer", 2),
        ("3 + ²", "expected an integer", 4),
        ("1²", "unexpected character '²'", 1),
        # digits are ASCII only: other Unicode decimal digits are refused
        ("٣*x", "expected an integer", 0),
        ("x^٣", "expected an integer", 2),
        ("3٣", "unexpected character '٣'", 1),
        ("2x", "unexpected character 'x'", 1),
        ("y + 1", "expected a coefficient or variable", 0),
        ("x + 1)", "unexpected character ')'", 5),
        ("x\n", "unexpected character '\\n'", 1),
    ],
)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_int_coercion_and_equality():
    assert Poly(0) == 0
    assert ONE + 1 == Poly(2)
    assert 3 * X == X + X + X
    assert (X - X) == 0
    assert X != Q


def test_non_int_coefficients_rejected():
    for bad in (1.5, 2.0, Fraction(1, 2), "3", True):
        with pytest.raises(TypeError):
            Poly({(0, 0, 0, 0): bad})
    # a constant is checked as a coefficient is
    for bad in (True, False, 2.5):
        with pytest.raises(TypeError, match=r"coefficient must be an int: "):
            Poly(bad)
    assert Poly({(0, 0, 0, 0): 3, (1, 0, 0, 0): 0}) == Poly(3)


def test_exponent_limit_guard():
    with pytest.raises(ValueError):
        monomial(1, ex=1 << 21)
    big = monomial(1, ex=1 << 20)
    with pytest.raises(OverflowError):
        big**8
    # a bool is refused as an exponent, as it is as a coefficient
    for build in (lambda: Poly({(True, 0, 0, 0): 1}), lambda: monomial(1, ex=True)):
        with pytest.raises(ValueError, match=r"exponent out of supported range: True"):
            build()
    for e in (True, False, 2.0):
        with pytest.raises(ValueError, match="polynomial powers require a nonnegative int"):
            X**e


def test_parse_checks_each_variables_exponent_summed_over_the_term():
    # each factor lies inside the input limit, their sum does not: nine
    # factors would wrap the packed field, two would pass the limit
    for text in ("*".join(["x^1048576"] * 9), "x^1048576*x", "q^-1048576*s*q^-1"):
        with pytest.raises(ValueError, match="exponent out of supported range"):
            parse(text)
    assert parse("x^1048575*x") == monomial(1, ex=1 << 20)
    assert parse("x^1048576*x^-1048576*z") == Z


def test_pow_starts_from_its_first_factor(monkeypatch):
    p = X + S * Q
    mul = Poly.__mul__
    sizes = []

    def counted(a, b):
        sizes.append((len(a), len(b)))
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert p**1 is p and sizes == []
    assert p**2 == mul(p, p) and sizes == [(2, 2)]
    sizes.clear()
    assert p**6 == mul(mul(p, p), mul(mul(p, p), mul(p, p)))
    assert sizes == [(2, 2), (3, 3), (3, 5)]
    assert p**0 == ONE


# --------------------------------------------------------------- properties


def test_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(1000):
        a = rand_poly(rng, 4)
        b = rand_poly(rng, 4)
        c = rand_poly(rng, 3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + ZERO == a
        assert a + (-a) == ZERO
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a


def test_parse_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(1000):
        p = rand_poly(rng, rng.randint(0, 8))
        assert parse(p.to_canonical_string()) == p


def test_exact_div_recovers_factor():
    rng = random.Random(5)
    for _ in range(300):
        # the quotient must be ordinary, per the division semantics
        a = rand_ordinary(rng, rng.randint(1, 6))
        b = rand_poly(rng, rng.randint(1, 6))
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_exact_div_returns_the_laurent_quotient():
    # division works in the Laurent ring: (x^2 + s)/x is x + s/x
    assert (X**2 + S).exact_div(X) == X + monomial(1, ex=-1, es=1)
    assert (monomial(1, es=-2) * (X + S)).exact_div(monomial(1, es=-1)) == monomial(
        1, es=-1
    ) * (X + S)


def test_exact_div_coefficient_divisibility():
    with pytest.raises(NotDivisible):
        (3 * X).exact_div(Poly(2))
    assert (6 * X**2 + 4 * X).exact_div(2 * X) == 3 * X + 2 * ONE


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_ordinary(rng, 5)
        b = rand_ordinary(rng, 5)
        pt = {
            v: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            for v in ("x", "s", "q", "z")
        }
        assert (a + b).evaluate(**pt) == a.evaluate(**pt) + b.evaluate(**pt)
        assert (a * b).evaluate(**pt) == a.evaluate(**pt) * b.evaluate(**pt)


def test_pow_matches_repeated_mul():
    rng = random.Random(13)
    for _ in range(50):
        a = rand_poly(rng, 4)
        acc = ONE
        for e in range(5):
            assert a**e == acc
            acc = acc * a


# ---------------------------------------------------- fast-path equivalence


def test_blocked_mul_matches_naive():
    rng = random.Random(31)
    for _ in range(150):
        a = rand_poly(rng, rng.randint(10, 60), exp_lo=-4, exp_hi=8, cmax=50)
        b = rand_poly(rng, rng.randint(10, 60), exp_lo=-4, exp_hi=8, cmax=50)
        if a.is_zero() or b.is_zero():
            continue
        blocked = _kernel(a, b)
        assert blocked is not None
        assert blocked == _naive(a, b)


def test_blocked_mul_huge_coefficients():
    rng = random.Random(37)
    a = rand_poly(rng, 30, cmax=10**25)
    b = rand_poly(rng, 30, cmax=10**25)
    assert _kernel(a, b) == _naive(a, b)


def test_blocked_div_matches_naive():
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        a = rand_ordinary(rng, rng.randint(5, 25), exp_hi=6, cmax=30)
        b = rand_ordinary(rng, rng.randint(2, 12), exp_hi=6, cmax=30)
        if a.is_zero() or b.is_zero():
            continue
        prod = a * b
        blocked = _div_blocked(prod, b)
        assert blocked is not None
        assert blocked == _div_naive(prod, b) == a
        checked += 1
    assert checked > 100


def test_blocked_div_detects_nondivisible():
    a = (X**2 + S) * (Q**3 + S * X) + ONE
    b = X**2 + S
    with pytest.raises(NotDivisible):
        _div_naive(a, b)
    with pytest.raises(NotDivisible):
        a.exact_div(b)


def test_mul_dispatch_large():
    rng = random.Random(43)
    a = rand_ordinary(rng, 120, exp_hi=10, cmax=99)
    b = rand_ordinary(rng, 120, exp_hi=10, cmax=99)
    assert a * b == _naive(a, b)


def test_exact_div_laurent_divisor_ordinary_quotient():
    rng = random.Random(47)
    for _ in range(60):
        quot = rand_ordinary(rng, rng.randint(1, 10), exp_hi=5)
        den = rand_poly(rng, rng.randint(1, 10), exp_lo=-5, exp_hi=5)
        if quot.is_zero() or den.is_zero():
            continue
        assert (quot * den).exact_div(den) == quot


def test_q_sparse_polys_fall_back_to_naive():
    # huge q gaps make dense packing wasteful; the fast paths must decline
    rng = random.Random(59)
    d = {(i % 3, 0, i * 900, 0): rng.randint(1, 9) for i in range(60)}
    a = Poly(d)
    assert _block_map(a) is False
    b = Poly({(1, 0, 0, 0): 2, (0, 1, 5000, 0): 3})
    assert _kernel(a, b) is None
    assert a * b == _naive(a, b)
    # a kernel result too q-sparse to keep as blocks (10,000 pairs to the
    # accumulator, one block 5001 wide holding 2 terms) becomes its term
    # dict, and a q-sparse 600-term dividend is divided term by term
    run = sum((Q**i for i in range(5000)), ZERO)
    line = (ONE - Q) * run
    assert line == _naive(ONE - Q, run) == ONE - Q**5000
    b = sum((X**i for i in range(300)), ZERO)
    a = b * (ONE + Q**5000)
    assert len(a) == 600 and _div_blocked(a, b) is None
    assert a.exact_div(b) == _div_naive(a, b) == ONE + Q**5000
    if poly._FAST:
        assert line._blocks is False and a._blocks is False


def test_exact_div_dispatch_large_dividend():
    # enough terms that the blocked engine handles the division
    rng = random.Random(53)
    quot = rand_ordinary(rng, 80, exp_hi=8, cmax=40)
    den = rand_ordinary(rng, 40, exp_hi=8, cmax=40)
    prod = quot * den
    assert len(prod) > 400
    assert prod.exact_div(den) == quot
    for bump in (ONE, Q**5 * S**3, -(X**2) * Q):
        with pytest.raises(NotDivisible):
            (prod + bump).exact_div(den)


# ------------------------------------------------- blocked-engine kernels


def _strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _unpacked(packed, L, cs):
    """Whether _unpack_signed reads packed back as cs: the digits of cs
    without its trailing zeros, followed only by zeros (_block drops
    those)."""
    return _strip(_unpack_signed(packed, L)) == _strip(cs)


def test_pack_unpack_roundtrip_at_digit_extremes(monkeypatch):
    """Every limb width from 1 to 17 bytes, on the machine-word path (limbs
    of at most 8 bytes, which must not leave it on balanced digits) and on
    the byte-string path (_WORDS emptied): packing is the sum of the
    shifted digits, and unpacking gives the digits back, trailing zeros
    stripped."""
    rng = random.Random(61)
    slow = []
    for name in ("_pack_bytes", "_unpack_bytes"):
        real = getattr(poly, name)
        monkeypatch.setattr(poly, name, lambda *args, real=real: slow.append(args) or real(*args))
    for words in (poly._WORDS, {}):
        monkeypatch.setattr(poly, "_WORDS", words)
        for L in range(8, 137, 8):
            lo, hi = -(1 << (L - 1)), (1 << (L - 1)) - 1
            blocks = [
                [lo],
                [hi],
                [-hi],
                [lo, hi, lo, hi],
                [hi, lo, 0, 0, lo],
                [-hi, 0, hi, 0, 0],
                [-1, lo, 1],  # 2^(2L-1) - 1: the top digit needs the carry
                [1, hi, -1],
                [lo] * 9,
                [-1] * 7,
                [0, 0, hi, 0],
                [rng.randint(lo, -1) for _ in range(40)],
                [rng.randint(lo, hi) for _ in range(60)],
                [rng.choice((lo, hi, -hi, 0, -1, 1)) for _ in range(50)],
                [rng.randint(0, hi) for _ in range(30)] + [0] * 3,
            ]
            slow.clear()
            for cs in blocks:
                packed = _pack_coeffs(cs, L)
                assert packed == sum(c << (L * i) for i, c in enumerate(cs))
                assert _unpacked(packed, L, cs)
            assert bool(slow) == (L > 64 or not words), L
        assert _unpack_signed(0, 16) == []


def test_pack_unpack_roundtrip_on_limbs_of_newline_nul_and_ff_bytes():
    # _unpack_signed reads each biased limb c + 2^(L-1) back as L/8 raw
    # bytes; a limb holding 0x0A (a newline) must not be dropped
    for L in (8, 16, 72, 80, 136):
        nb, half = L // 8, 1 << (L - 1)
        limbs = [bytes((0x0A, 0x00, 0xFF)[(i + r) % 3] for i in range(nb)) for r in range(3)]
        limbs += [b"\x0a" * nb, b"\x00" * nb, b"\xff" * nb, b"\x0a" + b"\xff" * (nb - 1)]
        biased = [int.from_bytes(limb, "little") - half for limb in limbs]
        plain = [int.from_bytes(limb, "little") >> 1 for limb in limbs]
        for cs in (biased, plain, [-c for c in plain], biased[::-1] + [0, 1]):
            packed = _pack_coeffs(cs, L)
            assert packed == sum(c << (L * i) for i, c in enumerate(cs))
            assert _unpacked(packed, L, cs)


def test_pack_coeffs_full_limb_magnitudes():
    # the packer accepts |c| < 2^L, wider than the balanced digit range, at
    # machine-word, byte-plane and byte-string limb widths
    for L in (8, 24, 32, 40, 56, 72):
        top = (1 << L) - 1
        for cs in ([top, -top, top], [-top, 0, -top], [top] * 4):
            assert _pack_coeffs(cs, L) == sum(c << (L * i) for i, c in enumerate(cs))


def test_blocked_square_matches_naive():
    rng = random.Random(67)
    for _ in range(40):
        a = rand_poly(rng, rng.randint(50, 120), exp_lo=-4, exp_hi=8, cmax=10**6)
        want = _naive(a, a)
        assert _kernel(a, a) == want
        assert a**2 == want
    # all-negative coefficients in a single block
    b = Poly({(0, 0, e, 0): -(e + 1) for e in range(80)})
    assert _kernel(b, b) == _naive(b, b)


def _squares(n):
    """Positive ints whose squares sum to n >= 1, largest first, greedily."""
    out = []
    while n:
        out.append(isqrt(n))
        n -= out[-1] ** 2
    return out


def _reversal_pair(norm2):
    """(a, b) with b the q-reversal of a and |a|_2^2 = norm2, so that the
    centre coefficient of a * b is norm2, the Cauchy-Schwarz bound itself."""
    cs = _squares(norm2)
    a = Poly({(1, 2, i, 0): c for i, c in enumerate(cs)})
    b = Poly({(1, 2, len(cs) - 1 - i, 0): c for i, c in enumerate(cs)})
    assert _mul_bound(a, b) == norm2
    return a, b


def test_blocked_mul_at_the_limb_boundary():
    # a largest coefficient of 2^(L-1) - 1 is the top balanced digit of an
    # L-bit limb; one more needs the next limb width
    for L in (16, 24, 64, 136):
        for norm2 in ((1 << (L - 1)) - 1, 1 << (L - 1)):
            a, b = _reversal_pair(norm2)
            for x in (a, -a):
                got = _kernel(x, b)
                assert got == _naive(x, b)
                assert max(abs(c) for _, c in got.terms()) == norm2
                # built with the block list _block_map would scan for
                assert got._blocks == _block_map(Poly._raw(dict(got._t)))


def test_blocks_with_interior_zeros():
    # blocks whose coefficients vanish inside them, as operands and as
    # products, in either sign: no zero coefficient enters a term dict
    base = _block_map(X)[0][1]
    got = _from_blocks([(0, base, -2, [3, 0, 0, -4, 0, 5])])
    assert got == Poly({(1, 0, -2, 0): 3, (1, 0, 1, 0): -4, (1, 0, 3, 0): 5})
    assert 0 not in got._t.values()
    a = (X + S * Q) * (ONE + Q**4 - Q**9)
    b = (X * Q + S) * (ONE - Q**3 + 2 * Q**11)
    for x, y in ((a, b), (-a, b), (a, a), (b, b), (a, -b)):
        want = _naive(x, y)
        for got in (_kernel(x, y), _kernel(x, y, packed=True)):
            assert got == want
            assert 0 not in got._t.values()
            assert got._blocks == _block_map(Poly._raw(dict(got._t)))


# ------------------------------------------------- packed-engine kernels


def _digit_widths(monkeypatch):
    """The digit width D of each _packed_product read, as a list."""
    widths = []
    real = poly._read_digits
    monkeypatch.setattr(
        poly, "_read_digits", lambda text, D, *rest: widths.append(D) or real(text, D, *rest)
    )
    return widths


def test_packed_mul_at_the_digit_boundary(monkeypatch):
    # a largest coefficient of 5*10^(D-1) - 1 is the top balanced digit of
    # a D-digit chunk; one more needs a digit more
    widths = _digit_widths(monkeypatch)
    for D in (1, 2, 5, 20, 60):
        half = 5 * 10 ** (D - 1)
        for width, norm2 in ((D, half - 1), (D + 1, half)):
            a, b = _reversal_pair(norm2)
            for x, y in ((-a, b), (a, -b)):
                widths.clear()
                got = _kernel(x, y, packed=True)
                assert got == _naive(x, y)
                assert max(abs(c) for _, c in got.terms()) == norm2
                assert set(widths) == {width}


def test_unsigned_packed_mul_at_the_digit_boundary(monkeypatch):
    # nonnegative operands have a nonnegative product, read in plain
    # digits: a largest coefficient of 10^D - 1 is the top digit of a
    # D-digit chunk; one more needs a digit more
    widths = _digit_widths(monkeypatch)
    for D in (1, 2, 5, 20, 60):
        for width, norm2 in ((D, 10**D - 1), (D + 1, 10**D)):
            a, b = _reversal_pair(norm2)
            widths.clear()
            got = _kernel(a, b, packed=True)
            assert got == _naive(a, b)
            assert max(c for _, c in got.terms()) == norm2
            assert set(widths) == {width}


def test_packed_square_at_the_bound():
    # a = c*(1 + q + ... + q^9)*(x^2/s + x^3) is its own q-reversal up to a
    # power of q: the centre of its x^5/s block is |a|_2^2 = 20*c^2, the bound
    for c in (1, -7, 10**30 + 1):
        a = Poly({(2 + i, i - 1, e, 0): c for i in (0, 1) for e in range(-4, 6)})
        assert _mul_bound(a, a) == 20 * c * c
        got = _kernel(a, a, packed=True)
        assert got == _naive(a, a)
        assert max(abs(v) for _, v in got.terms()) == 20 * c * c


def test_packed_mul_at_the_widest_digit():
    # 2 * bound just below 10^640 packs, even under the least int/str digit
    # limit the interpreter accepts; just above, the kernel declines
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit:
        limit = sys.get_int_max_str_digits()
        set_limit(640)
    try:
        c = isqrt(10**640 // 4 - 1)
        a = Poly({(0, 0, 0, 0): c, (0, 0, 1, 0): c})
        assert len(str(2 * _mul_bound(a, a))) == 640
        assert _kernel(a, a, packed=True) == _naive(a, a)
        b = a * 2
        assert _packed_blocks(b, b) is None
        # at the exact bound: plain digits to 10^640 - 1, balanced ones to
        # 5*10^639 - 1
        top = 10**_MAX_DIGITS
        for sign, norm2 in ((1, top - 1), (-1, top // 2 - 1)):
            x, y = _reversal_pair(norm2)
            assert _kernel(sign * x, y, packed=True) == _naive(sign * x, y)
            x, y = _reversal_pair(norm2 + 1)
            assert _packed_blocks(sign * x, y) is None
    finally:
        if set_limit:
            set_limit(limit)


def test_packed_mul_declines_what_it_cannot_pack(monkeypatch):
    # every product above 2048 term pairs tries the packed kernel first
    monkeypatch.setattr(poly, "_PACKED_PAIRS", 0)
    line = Poly({(2 - 2 * es, es, eq, 0): 1 + eq for es in range(3) for eq in range(20)})
    assert _kernel(line, line, packed=True) == _naive(line, line)
    # two blocks on one s exponent: not an s-line
    not_line = line + Poly({(5, 1, 0, 0): 1})
    assert _packed_blocks(not_line, line) is None
    assert _packed_blocks(line, not_line) is None
    assert _packed_blocks(not_line, not_line) is None
    assert not_line * not_line == _naive(not_line, not_line)
    # s-lines with ex = es and ex = es^2: the products at es sum 2,
    # (es 0) * (es 2) and (es 1) * (es 1), land on x^4 and x^2
    ex_es = Poly({(es, es, eq, 0): 1 for es in range(3) for eq in range(20)})
    ex_es2 = Poly({(es * es, es, eq, 0): 1 for es in range(3) for eq in range(20)})
    assert _kernel(ex_es, ex_es, packed=True) == _naive(ex_es, ex_es)
    assert _packed_blocks(ex_es2, ex_es2) is None
    assert _packed_blocks(ex_es, ex_es2) is None
    assert ex_es * ex_es2 == _naive(ex_es, ex_es2)
    # a 100-wide block at es 0 forces a stride of 100, and a block at es
    # 1000 then sits 10^5 positions up: mostly gaps
    spread = Poly({(0, 0, eq, 0): 1 for eq in range(100)}) + S + S**1000
    assert _packed_blocks(spread, spread) is None
    assert spread * spread == _naive(spread, spread)


@pytest.mark.parametrize("packed", [False, True])
def test_accumulated_products_match_naive_with_either_sign(monkeypatch, packed):
    # s-lines with signed coefficients: the products pack when asked to
    a = Poly({(2 - j, j, e, -1): (e + j) * (-1) ** e for j in range(-1, 3) for e in range(9)})
    b = Poly({(1 - es, es, eq, 1): 3 - eq for es in range(3) for eq in range(-2, 7)})
    monkeypatch.setattr(poly, "_BLOCKED_PAIRS", 0)
    monkeypatch.setattr(poly, "_PACKED_PAIRS", 0 if packed else 10**18)
    calls = []
    real = poly._packed_product
    monkeypatch.setattr(poly, "_packed_product", lambda *args: calls.append(1) or real(*args))
    for x in (a, -a):
        assert poly._sum_products([(x, x)]) == _naive(x, x)
        want = _naive(x, x) + _naive(x, b)
        assert poly._sum_products([(x, x), (x, b)]) == want
    assert len(calls) == (6 if packed else 0)


def test_packed_product_drops_a_blocks_cancelled_top_digits():
    # the s^1 block of the product sums s - q^5 s and q^3 s * q^2: its
    # digits 1, 0, 0, 0, 0, 0 cancel to one, and the Poly read off them
    # keeps the _from_blocks contract, every block's ends nonzero
    a, b = parse("1 + q^3*s"), parse("q^2 + s - q^5*s")
    got = _kernel(a, b, packed=True)
    assert got == _naive(a, b) == parse("q^2 + s + q^3*s^2 - q^8*s^2")
    assert [cs for es, _, _, cs in got._blocks if es == 1] == [[1]]
    assert all(cs[0] and cs[-1] for _, _, _, cs in got._blocks)
    fresh = Poly._raw(dict(got._t))
    assert got._ranges == fresh._get_ranges()
    assert got._blocks == _block_map(fresh)


def test_large_power_takes_the_packed_kernel(monkeypatch):
    from qfib.sequences import qfib

    results = []
    real = poly._packed_product

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(poly, "_packed_product", spy)
    if poly._FAST:
        p = qfib(62)
        square = p**2
        assert len(results) == 1 and results[0] is not None
        assert square == _kernel(p, p)
    else:
        # the plain engine never packs, whatever the size
        monkeypatch.setattr(poly, "_PACKED_PAIRS", 0)
        assert qfib(20) ** 2 == qfib(20) * qfib(20)
        assert results == []


def test_one_product_squares_once_and_returns_packed_digits_as_blocks(monkeypatch):
    """On one pair, _sum_products multiplies a square's unordered block
    pairs once (_acc_square, never _acc_product) and reads a packed
    product straight off its digits, never packing them into the
    accumulator (_pack_coeffs, _add_at)."""
    from qfib.sequences import qfib

    calls = []
    for name in ("_acc_square", "_acc_product", "_pack_coeffs", "_add_at"):
        real = getattr(poly, name)
        monkeypatch.setattr(
            poly, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    p, r = qfib(20), qfib(19, shift=1)
    assert len(p) * len(r) > poly._BLOCKED_PAIRS
    assert poly._sum_products([(p, p)]) == _naive(p, p)
    assert "_acc_square" in calls and "_acc_product" not in calls
    calls.clear()
    monkeypatch.setattr(poly, "_PACKED_PAIRS", 0)
    for x, y in ((p, p), (p, r)):
        assert poly._sum_products([(x, y)]) == _naive(x, y)
    assert calls == []


def test_quotient_certificate_rejects_equality():
    L = 16
    # qmax*bmax*n + amax equal to 2^L must not certify; one less must
    assert not _quotient_certified(1 << 7, 1 << 7, 2, 1 << 15, L)
    assert _quotient_certified(1 << 7, 1 << 7, 2, (1 << 15) - 1, L)
    assert not _quotient_certified(1, 1, 1, (1 << L) - 1, L)
    assert _quotient_certified(1, 1, 1, (1 << L) - 2, L)


def test_quotient_certificate_bound_is_tight():
    # a = b - (2^L - q): the error D = quot*b - a = 2^L - q is nonzero but
    # vanishes at q = 2^L, so the blocked division at width L returns the
    # wrong quotient 1, and qmax*bmax*n + amax is exactly 2^L
    L = 16
    b = X + 1
    a = b - (Poly(1 << L) - Q)
    got = _div_blocked_at(a, b, L)
    assert got == ONE and got * b != a
    amax = max(abs(c) for _, c in a.terms())
    assert 1 * 1 * 1 + amax == 1 << L
    assert not _quotient_certified(1, 1, min(len(got), len(b)), amax, L)
    with pytest.raises(NotDivisible):
        _div_blocked(a, b)


def test_blocked_div_falls_back_when_the_quotient_outgrows_the_limb(monkeypatch):
    # (1 - q^30)^10 / (1 - q)^10 = (1 + q + ... + q^29)^10: the dividend's
    # coefficients fit in 8 bits, the quotient's need 43, past the one limb
    # width the blocked division tries, so the plain division finds it
    m = sum((X**i * Z**j for i in range(8) for j in range(5)), ZERO)
    b = (ONE - Q) ** 10 * m
    a = (ONE - Q**30) ** 10 * m
    assert len(a) > 400
    widths = []
    real = poly._div_blocked_at

    def spy(a_, b_, L):
        widths.append(L)
        return real(a_, b_, L)

    monkeypatch.setattr(poly, "_div_blocked_at", spy)
    assert _div_blocked(a, b) is None and len(widths) == 1
    widths.clear()
    got = a.exact_div(b)
    assert len(widths) == poly._FAST
    assert got == _div_naive(a, b) == sum((Q**i for i in range(30)), ZERO) ** 10


# ------------------------------------------- block-backed kernel results


def _unread(p):
    """Whether p's term dict is still unbuilt: its _t slot is unset."""
    try:
        Poly._t.__get__(p)
    except AttributeError:
        return True
    return False


_KERNEL_PATHS = ("packed product", "packed square", "accumulator", "blocked quotient",
                 "subst_s_scale", "packed fill")


def _kernel_results():
    """A fresh result of each kernel path that stores a Poly as its block
    list (_from_blocks), by path (_KERNEL_PATHS), on either engine."""
    cache = SeqCache()
    a = (X - Z * Q**2 + S * monomial(1, eq=-1)) * cache.qfib(14)
    b = (ONE - Q) * cache.qfib(15, shift=1)
    line = (ONE - Q) * cache.qfib(14)
    memo = {0: ZERO, 1: ONE}
    _fill_packed(memo, 30, 1)
    return {
        "packed product": _kernel(line, b, packed=True),
        "packed square": _kernel(line, line, packed=True),
        "accumulator": _kernel(a, b),
        "blocked quotient": _div_blocked(_kernel(a, b), b),
        "subst_s_scale": _kernel(a, b).subst_s_scale(-3),
        "packed fill": _from_acc(*memo[30]),
    }


@pytest.mark.parametrize("path", _KERNEL_PATHS)
def test_kernel_results_read_their_blocks_until_the_term_dict_is_asked_for(path):
    p = _kernel_results()[path]
    assert _unread(p) and p._blocks and type(p) is poly._BlockPoly
    got = (
        sorted(p.terms()),
        len(p),
        bool(p),
        p.is_zero(),
        p._coeff_stats(),
        p._norm2(),
        [p.exponent_range(v) for v in "xsqz"],
    )
    assert _unread(p)
    want = parse(p.to_canonical_string())
    assert not _unread(p) and p._t == want._t and type(p) is Poly
    assert got == (
        sorted(want.terms()),
        len(want),
        True,
        False,
        want._coeff_stats(),
        want._norm2(),
        [want.exponent_range(v) for v in "xsqz"],
    )


def test_a_kernel_result_that_cancels_is_falsy():
    a, b = _kernel_results()["accumulator"], (ONE - Q) * X
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_BLOCKED_PAIRS", 0)
        got = poly._sum_products([(a, b), (-a, b)])
    assert _unread(got) and got._blocks == []
    assert not got and len(got) == 0 and got.is_zero() and got == 0
    assert list(got.terms()) == [] and got._t == {}


@pytest.mark.parametrize("path", _KERNEL_PATHS)
def test_copies_of_an_unread_kernel_result_compare_equal(path):
    p = _kernel_results()[path]
    copies = [pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)]
    # a copy carries the block list: neither side builds its term dict
    assert _unread(p) and all(_unread(other) for other in copies)
    for other in copies:
        assert other._blocks == p._blocks and other._ranges == p._get_ranges()
        assert sorted(other.terms()) == sorted(p.terms()) and len(other) == len(p)
        assert other == p


def _dict_builds(monkeypatch):
    """The names _BlockPoly.__getattr__ is called with, as a list."""
    calls = []
    real = poly._BlockPoly.__getattr__

    def spy(self, name):
        calls.append(name)
        return real(self, name)

    monkeypatch.setattr(poly._BlockPoly, "__getattr__", spy)
    return calls


def test_products_build_no_term_dict(monkeypatch):
    # qfib(n) ** k on the default engine, as the powers benchmark takes it,
    # its terms read as the benchmark reads them, builds no term dict: not
    # of the sequence entries, the squares, the products or the results
    monkeypatch.setattr(poly, "_FAST", True)
    calls = _dict_builds(monkeypatch)
    cache = SeqCache()
    got = cache.qfib(62) ** 2
    assert calls == [] and len(got) == 37851
    for d in (1, 2):
        cache = SeqCache()
        for base, k in ((40, 3), (60, 2), (30, 4), (25, 5)):
            for n in (base - d, base + d):
                assert sum(1 for _ in (cache.qfib(n) ** k).terms()) > 0
    assert calls == []
