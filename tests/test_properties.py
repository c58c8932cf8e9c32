"""Hypothesis property tests: the parse/print round trip on Laurent
polynomials, the two facts that let gf_limit truncate once, at the end, the
twisted square and the packed product of s-lines against the plain product,
exact division of Laurent polynomials on each kernel, the exponent ranges
that each product and quotient path stores on its result, Bareiss against
cofactor expansion on Laurent entries, and the condensation engine of the
power determinants against Bareiss.  Products and s -> q^m s are checked
exactly at the exponent guard _VAR_GUARD and one step past it; plain tests
beside them pin the guards of the twisted square and of exact division.

Every test runs derandomized and without an example database, so the suite
stays deterministic; conftest.py keeps Hypothesis's other storage out of
the working tree.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfib import harness, poly
from qfib.harness import _power_det
from qfib.matrices import PolyMatrix
from qfib.poly import (
    _PACKED_PAIRS,
    _VAR_GUARD,
    ONE,
    ZERO,
    NotDivisible,
    Poly,
    X,
    _block_map,
    _div_blocked,
    _div_naive,
    _mul_naive,
    _mul_packed,
    monomial,
    parse,
)
from qfib.sequences import fib, qfib, truncate

_SETTINGS = settings(derandomize=True, database=None, deadline=None)


def _polys(s_q_lo, max_size=12):
    """Polys with x and z exponents in -4..4 and s and q exponents in
    s_q_lo..8; coefficients of any size."""
    other = st.integers(-4, 4)
    sq = st.integers(s_q_lo, 8)
    key = st.tuples(other, sq, sq, other)
    return st.dictionaries(key, st.integers(), max_size=max_size).map(Poly)


laurent_polys = _polys(-8)
series_polys = _polys(0)
orders = st.integers(0, 9)


@_SETTINGS
@given(laurent_polys)
def test_canonical_string_round_trip(p):
    assert parse(p.to_canonical_string()) == p


@_SETTINGS
@given(series_polys, series_polys, orders, orders)
def test_truncating_factors_first_keeps_the_truncated_product(a, b, ns, nq):
    whole = truncate(a * b, ns, nq)
    assert whole == truncate(truncate(a, ns, nq) * truncate(b, ns, nq), ns, nq)


@_SETTINGS
@given(series_polys, st.integers(0, 5), orders, orders)
def test_truncating_before_s_scaling_keeps_the_truncated_result(a, j, ns, nq):
    whole = truncate(a.subst_s_scale(j), ns, nq)
    assert whole == truncate(truncate(a, ns, nq).subst_s_scale(j), ns, nq)


def _blocked_poly(rng):
    """3..4 blocks of 16..20 consecutive q exponents on s exponents -1..1, so
    that blocks share es with different ex or ez and at least 48 terms take
    products onto the blocked path.  Coefficients are small or near a power
    of two, so that packed block products come close to the limb width the
    blocked product picks from max |coeff|."""
    big = rng.choice([1 << 31, (1 << 62) - 1, 1 << 70])
    coeffs = [big, -big, 1 - big, -3, -2, -1, 1, 2, 3]
    keys = [(ex, es, ez) for ex in range(-2, 3) for es in (-1, 0, 1) for ez in range(-2, 3)]
    terms = {}
    for ex, es, ez in rng.sample(keys, rng.randint(3, 4)):
        q0 = rng.randint(-9, 9)
        for eq in range(q0, q0 + rng.randint(16, 20)):
            terms[(ex, es, eq, ez)] = rng.choice(coeffs)
    return Poly(terms)


# Hypothesis draws the seed only: drawing every coefficient costs seconds
blocked_polys = st.randoms(use_true_random=False).map(_blocked_poly)


@_SETTINGS
@given(blocked_polys)
def test_twisted_square_matches_the_product_with_the_s_scaled_image(a):
    assert len(a) ** 2 > 2048
    for m in range(-3, 4):
        assert a.mul_s_scaled(m) == a * a.subst_s_scale(m)


def test_twisted_square_of_a_q_sparse_poly_takes_the_plain_product():
    a = Poly({(i % 3, i % 2, 200 * i, 0): i + 1 for i in range(60)})
    assert _block_map(a) is False
    for m in range(-3, 4):
        assert a.mul_s_scaled(m) == a * a.subst_s_scale(m)


def _s_only_poly(q_hi):
    """54 terms, all with es = 1, in nine (ex, ez) blocks of q exponents
    q_hi - 5..q_hi: the blocked path, and s -> q^m s moves every q exponent
    by exactly m."""
    return Poly(
        {(ex, 1, q_hi - i, ez): i + 1 for ex in range(3) for ez in range(3) for i in range(6)}
    )


def test_twisted_square_guards_the_image_and_the_product_at_the_exponent_limit():
    # q_hi = -5: the image's top q exponent q_hi + m is the largest, so the
    # image's own guard decides; it sits at the limit at m = _VAR_GUARD + 5
    a = _s_only_poly(-5)
    assert len(a) ** 2 > 2048 and _block_map(a)
    assert a.mul_s_scaled(_VAR_GUARD + 5) == a * a.subst_s_scale(_VAR_GUARD + 5)
    with pytest.raises(OverflowError):
        a.mul_s_scaled(_VAR_GUARD + 6)
    # q_hi = 1: the product's top q exponent 2 * q_hi + m is the largest
    b = _s_only_poly(1)
    assert b.mul_s_scaled(_VAR_GUARD - 2) == b * b.subst_s_scale(_VAR_GUARD - 2)
    with pytest.raises(OverflowError):
        b.mul_s_scaled(_VAR_GUARD - 1)


def _s_line_poly(rng, slope, lead):
    """An s-line: blocks on up to six s exponents in -4..4, the block at es
    on (ex, ez) = lead + es * slope, so that the blocks of a product with
    equal es sums share a base.  Each block is a run of 1..12 q exponents
    from -9..9 on with signed coefficients, small or big, so that products
    cancel and a product block need not fill the q range the kernel reads."""
    big = rng.choice([1 << 31, 10**20 + 7, 1 << 70])
    coeffs = [big, -big, 1 - big, -3, -2, -1, 0, 1, 2, 3]
    terms = {(lead[0], 0, 0, lead[1]): 1}
    for es in rng.sample(range(-4, 5), rng.randint(1, 5)):
        ex, ez = lead[0] + slope[0] * es, lead[1] + slope[1] * es
        q0 = rng.randint(-9, 9)
        for eq in range(q0, q0 + rng.randint(1, 12)):
            terms[(ex, es, eq, ez)] = rng.choice(coeffs)
    return Poly(terms)


@_SETTINGS
@given(st.randoms(use_true_random=False), st.integers(-3, 3))
def test_packed_product_matches_the_plain_product(rng, twist):
    slope = (rng.randint(-2, 2), rng.randint(-1, 1))
    a, b = (_s_line_poly(rng, slope, (rng.randint(-3, 3), rng.randint(-3, 3))) for _ in "ab")
    assert _mul_packed(a, b) == _mul_naive(a._t, b._t)
    assert _mul_packed(a, a, twist) == _mul_naive(a._t, a.subst_s_scale(twist)._t)


_LOWS = [e for e in range(-6, 7) if e]
_DIV_COEFFS = [-3, -2, -1, 1, 2, 3, (1 << 40) + 1, -(1 << 40)]


def _laurent_factor(rng, nterms, widths):
    """nterms terms, exponents spread over widths[i] values of variable i,
    then shifted so that the least exponent of every variable is a nonzero
    value in -6..6."""
    terms = {}
    while len(terms) < nterms:
        terms[tuple(rng.randrange(w) for w in widths)] = rng.choice(_DIV_COEFFS)
    p = Poly(terms)
    return p * monomial(1, *(rng.choice(_LOWS) - p.exponent_range(v)[0] for v in "xsqz"))


def _bump(rng, p):
    """One term near p's exponent box, added to p."""
    exps = [rng.randint(lo - 1, hi + 1) for lo, hi in map(p.exponent_range, "xsqz")]
    return p + monomial(rng.choice([-1, 1, 2]), *exps)


@settings(_SETTINGS, max_examples=40)
@given(st.integers(0, 2**32 - 1).map(random.Random))  # a seed: far fewer draws
def test_exact_div_returns_laurent_quotients_on_every_kernel(rng):
    # a one-term divisor (monomial kernel), a few terms (naive kernel), and a
    # dividend of more than 400 terms last (blocked kernel; a bumped dividend
    # there can take the retry and the fallback to the naive kernel)
    monomial_case = (_laurent_factor(rng, 8, (3, 3, 4, 3)), _laurent_factor(rng, 1, (1,) * 4))
    small_case = (_laurent_factor(rng, 8, (3, 3, 4, 3)), _laurent_factor(rng, 3, (3, 3, 3, 3)))
    large_case = (_laurent_factor(rng, 70, (3, 3, 12, 3)), _laurent_factor(rng, 12, (3, 3, 6, 3)))
    for quot, b in (monomial_case, small_case, large_case):
        prod = quot * b
        assert prod.exact_div(b) == quot
        if len(b) > 1:  # a monomial divides every bumped dividend
            assert _div_naive(prod, b) == quot
            with pytest.raises(NotDivisible):
                _bump(rng, prod).exact_div(b)
    assert len(prod) > 400
    assert _div_blocked(prod, b) == quot


def test_exact_div_guards_the_quotient_exponents():
    top = X**_VAR_GUARD
    a = top + top * monomial(1, ex=-1)  # x^G + x^(G-1)
    # the quotient x^G sits at the guard
    assert a.exact_div(monomial(1, ex=-1) + ONE) == top
    assert (top * monomial(1, ex=-1)).exact_div(monomial(1, ex=-1)) == top
    # x^(G+1) is past it, on the naive and on the monomial kernel
    with pytest.raises(OverflowError):
        a.exact_div(monomial(1, ex=-1) + monomial(1, ex=-2))
    with pytest.raises(OverflowError):
        top.exact_div(monomial(1, ex=-1))


def _scanned(p):
    """p's exponent ranges from a fresh scan of its keys."""
    return Poly._raw(dict(p._t))._get_ranges()


def _assert_carried(*polys):
    for p in polys:
        assert p._ranges == _scanned(p)


@settings(_SETTINGS, max_examples=40)
@given(
    st.integers(0, 2**32 - 1).map(random.Random),
    laurent_polys.filter(bool),
    laurent_polys.filter(bool),
)
def test_products_and_quotients_carry_exact_exponent_ranges(rng, a, b):
    """Every product path (monomial, naive, blocked, blocked square, twisted
    square) and every quotient path (monomial, naive, blocked) stores the
    ranges it guarded on its result, without a scan; they must be a scan's.
    A negation or an int multiple carries its operand's ranges."""
    lead = Poly._raw({max(b._t): b._t[max(b._t)]})
    _assert_carried(a * b, a * lead, lead * a, -a, a * -3)
    big_a, big_b = _blocked_poly(rng), _blocked_poly(rng)
    _assert_carried(big_a * big_b, big_a * big_a, big_a.mul_s_scaled(rng.randint(-3, 3)))
    for quot, div in (
        (_laurent_factor(rng, 8, (3, 3, 4, 3)), _laurent_factor(rng, 1, (1,) * 4)),
        (_laurent_factor(rng, 8, (3, 3, 4, 3)), _laurent_factor(rng, 3, (3, 3, 3, 3))),
        (_laurent_factor(rng, 70, (3, 3, 12, 3)), _laurent_factor(rng, 12, (3, 3, 6, 3))),
    ):
        prod = quot * div
        _assert_carried(prod.exact_div(div))
    assert len(prod) > 400


def test_packed_qfib_power_carries_exact_exponent_ranges(monkeypatch):
    results = []
    real = poly._mul_packed

    def spy(a, b, twist=0):
        results.append(real(a, b, twist))
        return results[-1]

    monkeypatch.setattr(poly, "_mul_packed", spy)
    # base**3 is (base * base) * base; the last product, over 4M term pairs,
    # is packed on the default engine.  base has negative s exponents.
    base = qfib(-30)
    cube = base**3
    assert len(base) * len(cube) > _PACKED_PAIRS
    assert [r is not None for r in results] == ([True] if poly._FAST else [])
    _assert_carried(cube)


def test_zero_one_and_operands_returned_as_is_keep_their_ranges():
    p = qfib(5) * monomial(1, es=-2)
    for same in (p * 1, 1 * p, p**1, p.subst_s_scale(0)):
        assert same is p
    for zero in (p * 0, ZERO * p, p * ZERO, ZERO.exact_div(p), ZERO * ZERO):
        assert zero is ZERO
    assert p**0 is ONE
    assert p._ranges == _scanned(p)
    assert ZERO._t == {} and ZERO._ranges in (None, _scanned(ZERO))
    assert ONE == 1 and ONE._ranges in (None, _scanned(ONE))


def _power(i, e):
    """The monomial with exponent e on variable i (x, s, q, z), built by
    powering, since an input exponent stops at _EXP_LIMIT."""
    unit = [0, 0, 0, 0]
    unit[i] = 1 if e > 0 else -1
    return monomial(1, *unit) ** abs(e)


def _insert(i, e, exps):
    """exps with e inserted as the exponent of variable i."""
    return exps[:i] + (e,) + exps[i:]


small = st.integers(-9, 9)
coeffs = st.integers(-99, 99).filter(bool)


def _rests(width):
    """1..3 terms whose exponents on `width` variables lie in -9..9."""
    return st.dictionaries(st.tuples(*[small] * width), coeffs, min_size=1, max_size=3)


@_SETTINGS
@given(
    st.integers(0, 3),
    st.sampled_from((1, -1)),
    st.integers(0, _VAR_GUARD - 1),
    _rests(3),
    _rests(3),
    st.booleans(),
)
def test_products_reach_the_exponent_guard_and_stop_one_step_past(i, sign, t, ra, rb, wide):
    """Every term of a * b sits at sign * _VAR_GUARD on variable i and keeps
    its other exponents, so a carry into a neighbouring field would show;
    one step further raises.  wide multiplies both factors by a run of 48
    powers of another variable, taking the product off the naive kernel."""
    rest_a = Poly({_insert(i, 0, e): c for e, c in ra.items()})
    rest_b = Poly({_insert(i, 0, e): c for e, c in rb.items()})
    if wide:
        run = sum(_power(1 if i == 2 else 2, j) for j in range(48))
        rest_a, rest_b = rest_a * run, rest_b * run
    a = _power(i, sign * t) * rest_a
    b = _power(i, sign * (_VAR_GUARD - t)) * rest_b
    top = sign * _VAR_GUARD
    want = {_insert(i, top, e[:i] + e[i + 1 :]): c for e, c in (rest_a * rest_b).terms()}
    assert dict((a * b).terms()) == want
    with pytest.raises(OverflowError):
        _power(i, sign * (t + 1)) * rest_a * b


@_SETTINGS
@given(
    st.sampled_from((1, -1)),
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    st.integers(0, _VAR_GUARD // 3),
    _rests(2),
)
def test_s_scaling_reaches_the_exponent_guard_and_stops_one_step_past(sign, es, u, rest):
    """s -> q^m s takes every q exponent to sign * _VAR_GUARD and keeps the
    other exponents; one more step of m raises."""
    step = sign if es > 0 else -sign  # step * es = sign * |es|
    m = u * step
    terms = {(ex, es, 0, ez): c for (ex, ez), c in rest.items()}
    p = _power(2, sign * (_VAR_GUARD - u * abs(es))) * Poly(terms)
    got = dict(p.subst_s_scale(m).terms())
    top = sign * _VAR_GUARD
    assert got == {(ex, es, top, ez): c for (ex, _, _, ez), c in terms.items()}
    with pytest.raises(OverflowError):
        p.subst_s_scale(m + step)


def _zero_pivot(rows):
    """rows with their top-left entry zeroed, so that Bareiss swaps rows."""
    return [[ZERO] + rows[0][1:]] + rows[1:]


# an empty term dict draws a zero entry
_entries = _polys(-8, max_size=4)
laurent_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@_SETTINGS
@given(st.one_of(laurent_matrices, laurent_matrices.map(_zero_pivot)))
def test_bareiss_matches_cofactor_expansion_on_laurent_entries(rows):
    m = PolyMatrix(rows)
    assert m.det() == m.det_cofactor()


def _cheap(cell):
    """Drops the nine q cells with k * ell * (|n| + k) > 36 (k = 3, ell = 2
    at |n| >= 4, and k = ell = 2 at n = 8): entries f(ell m)^k grow so fast
    that each of them takes seconds on the dict engine."""
    n, k, ell, classical = cell
    return classical or k * ell * (abs(n) + k) <= 36


power_det_cells = st.tuples(
    st.integers(-6, 8), st.integers(1, 3), st.integers(1, 2), st.booleans()
).filter(_cheap)


def _bareiss_power_det(n, k, ell, classical):
    """The power determinant of _power_det by Bareiss on the explicit matrix."""

    def entry(i, j):
        m = ell * (n + i - j)
        return fib(m) ** k if classical else qfib(m, shift=ell * j) ** k

    return PolyMatrix([[entry(i, j) for j in range(k + 1)] for i in range(k + 1)]).det()


@_SETTINGS
@given(power_det_cells)
def test_condensation_matches_bareiss_on_the_explicit_matrix(cell):
    assert _power_det(*cell) == _bareiss_power_det(*cell)


def _condense_formula(c, a, b, d, t):
    """One condensation step by the Poly formula."""
    num = c.mul_s_scaled(t) - a.subst_s_scale(t) * b
    return num if d is None else num.exact_div(d.subst_s_scale(t))


def _condense_operands(rng, with_divisor):
    """(c, a, b, d) on signed Laurent s-lines sharing one slope and lead, so
    that the products of blocks with equal es sums share a base.  With a
    divisor, c = d*w and a = d*u, so that sigma(d) divides the numerator
    sigma(d) * (d*w*sigma(w) - sigma(u)*b); d has at least two terms."""
    slope = (rng.randint(-2, 2), rng.randint(-1, 1))
    lead = (rng.randint(-3, 3), rng.randint(-3, 3))

    def line():
        return _s_line_poly(rng, slope, lead)

    b = line() * line()
    if not with_divisor:
        return line() * line(), line() * line(), b, None
    d = line()
    while len(d) < 2:
        d = line()
    return d * line(), d * line(), b, d


@settings(_SETTINGS, max_examples=40)
@given(st.randoms(use_true_random=False), st.integers(-3, 3), st.booleans(), st.booleans())
def test_condense_kernel_matches_the_formula(rng, twist, with_divisor, packed):
    """The kernel, forced onto small operands (and onto the packed products
    when packed), equals the Poly formula computed on the default
    thresholds, carries exact ranges and caches the block list that
    _block_map would build."""
    c, a, b, d = _condense_operands(rng, with_divisor)
    want = _condense_formula(c, a, b, d, twist)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_BLOCKED_PAIRS", 0)
        if packed:
            mp.setattr(poly, "_PACKED_PAIRS", 0)
        got = poly._condense(c, a, b, d, twist)
    assert got is not None and got == want
    _assert_carried(got)
    assert got._blocks == _block_map(Poly._raw(dict(got._t)))


@settings(_SETTINGS, max_examples=20)
@given(st.randoms(use_true_random=False), st.integers(-3, 3))
def test_condense_kernel_redivides_at_twice_the_width_on_a_failed_certificate(rng, twist):
    """With _quotient_certified false at the first limb width only, the
    kernel reruns its accumulation and division at twice that width and
    returns the formula's quotient instead of declining the step."""
    c, a, b, d = _condense_operands(rng, True)
    want = _condense_formula(c, a, b, d, twist)
    widths = []

    def certified(qmax, bmax, n, amax, L):
        widths.append(L)
        return len(widths) > 1 and certify(qmax, bmax, n, amax, L)

    certify = poly._quotient_certified
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_BLOCKED_PAIRS", 0)
        mp.setattr(poly, "_quotient_certified", certified)
        got = poly._condense(c, a, b, d, twist)
    assert got is not None and got == want
    assert len(widths) == 2 and widths[1] == 2 * widths[0]


@settings(_SETTINGS, max_examples=20)
@given(st.randoms(use_true_random=False), st.integers(-3, 3))
def test_condense_kernel_declines_a_numerator_that_does_not_divide(rng, twist):
    """With a -> a + 1 and b = sigma(d) v + 1 the numerator is sigma(d) Q - b,
    which sigma(d), a non-monomial, does not divide: the kernel declines,
    and the step raises NotDivisible through the formula."""
    c, a, _, d = _condense_operands(rng, True)
    b = d.subst_s_scale(twist) * _s_line_poly(rng, (0, 0), (0, 0)) + 1
    a = a + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_BLOCKED_PAIRS", 0)
        assert poly._condense(c, a, b, d, twist) is None
        with pytest.raises(NotDivisible):
            harness._condense_step(c, a, b, d, twist)


@settings(_SETTINGS, max_examples=40)
@given(power_det_cells, st.booleans())
def test_condensation_with_the_kernel_forced_on_matches_bareiss(cell, packed):
    """test_condensation_matches_bareiss_on_the_explicit_matrix with every
    step offered to the kernel, on either engine."""
    want = _bareiss_power_det(*cell)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_FAST", True)
        mp.setattr(poly, "_BLOCKED_PAIRS", 0)
        if packed:
            mp.setattr(poly, "_PACKED_PAIRS", 0)
        assert _power_det(*cell) == want
