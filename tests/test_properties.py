"""Hypothesis property tests: the parse/print round trip on Laurent
polynomials, parse on shuffled, non-canonical text, the two facts that let gf_limit truncate once, at the end, the
packed product of s-lines against the plain product, exact division of
Laurent polynomials on each kernel, the exponent ranges that each product
and quotient path stores on its result, Bareiss against cofactor expansion
on Laurent entries, the power determinants against their oracle, Bareiss
on the explicit matrix, the sum-of-products kernel against the dict sum at
the limb boundaries, and dot against the sum of its products on both
engines.  Products, sums of products and s -> q^m s are checked exactly at
the exponent guard _VAR_GUARD and one step past it; a plain test beside
them pins the guard of exact division.

Every test runs derandomized and without an example database, so the suite
stays deterministic; conftest.py keeps Hypothesis's other storage out of
the working tree.
"""

import random
import sys
from math import prod
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import det_cofactor, power_det_bareiss
from qfib import poly
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
    _dot_naive,
    dot,
    monomial,
    parse,
)
from qfib.sequences import SeqCache, qfib, truncate

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


def _blanks(rng):
    return "".join(rng.choice(" \t") for _ in range(rng.randrange(3)))


_terms = st.lists(
    st.tuples(
        st.booleans(),  # negated
        st.lists(st.integers(0, 10**6), max_size=3),  # coefficient factors
        st.tuples(*[st.lists(st.integers(-9, 9), max_size=3)] * 4),  # x, s, q, z exponents
    ),
    min_size=1,
    max_size=6,
)


@_SETTINGS
@given(_terms, st.randoms(use_true_random=False))
def test_parse_reads_terms_in_any_order_and_form(terms, rng):
    # terms and factors shuffled, coefficients split into products, a
    # variable repeated with exponents that add up, blanks wherever the
    # grammar allows them: parse must give the Poly built from the terms
    expected, texts = ZERO, []
    for negated, coeffs, exps in terms:
        expected += monomial((-1) ** negated * prod(coeffs), *map(sum, exps))
        factors = [str(c) for c in coeffs]
        for var, pieces in zip("xsqz", exps):
            for e in pieces:
                factors.append(var if e == 1 and rng.random() < 0.5 else f"{var}^{_blanks(rng)}{e}")
        rng.shuffle(factors)
        body = "*".join(_blanks(rng) + f + _blanks(rng) for f in factors or ["1"])
        texts.append(("-" if negated else rng.choice(("", "+")), body))
    rng.shuffle(texts)
    text = _blanks(rng) + "".join(
        (sign if i == 0 else _blanks(rng) + (sign or "+") + _blanks(rng)) + body
        for i, (sign, body) in enumerate(texts)
    )
    assert parse(text) == expected


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
@given(st.randoms(use_true_random=False))
def test_packed_product_matches_the_plain_product(rng):
    slope = (rng.randint(-2, 2), rng.randint(-1, 1))
    a, b = (_s_line_poly(rng, slope, (rng.randint(-3, 3), rng.randint(-3, 3))) for _ in "ab")
    for x, y in ((a, b), (a, a)):
        packed = []
        got = _forced_sum_products([(x, y)], packed)
        assert got == _naive(x, y) and len(packed) == 1 and None not in packed
        # the cached block list is the one _block_map reads off the terms
        assert got._blocks == _block_map(Poly._raw(dict(got._t)))


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
    """Every product path (monomial, naive, blocked, blocked square) and every quotient path (monomial, naive, blocked) stores the
    ranges it guarded on its result, without a scan; they must be a scan's.
    A negation or an int multiple carries its operand's ranges."""
    lead = Poly._raw({max(b._t): b._t[max(b._t)]})
    _assert_carried(a * b, a * lead, lead * a, -a, a * -3)
    big_a, big_b = _blocked_poly(rng), _blocked_poly(rng)
    _assert_carried(big_a * big_b, big_a * big_a)
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
    real = poly._packed_product

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(poly, "_packed_product", spy)
    # base**3 is (base * base) * base; the last product, over 4M term pairs,
    # is packed on the default engine.  base has negative s exponents.
    base = qfib(-30)
    cube = base**3
    assert len(base) * len(cube) > _PACKED_PAIRS
    assert [r is not None for r in results] == ([True] if poly._FAST else [])
    _assert_carried(cube)


@settings(_SETTINGS, max_examples=30)
@given(st.randoms(use_true_random=False))
def test_block_built_polys_carry_exact_exponent_ranges(rng):
    """_from_blocks reads the ranges off the block list: the kernels'
    results, called directly so that no product guard sets them, carry a
    scan's ranges, and so do the forward memo entries and the sums of
    _sum_products, whose products may cancel."""
    big_a, big_b = _blocked_poly(rng), _blocked_poly(rng)
    slope, lead = (rng.randint(-2, 2), rng.randint(-1, 1)), (rng.randint(-3, 3), 0)
    line_a, line_b = _s_line_poly(rng, slope, lead), _s_line_poly(rng, slope, lead)
    took = []
    packed = [_forced_sum_products([(line_a, y)], took) for y in (line_b, line_a)]
    assert len(took) == 2 and None not in took
    blocked = [_forced_sum_products([(big_a, y)], pack=False) for y in (big_b, big_a)]
    _assert_carried(*packed, *blocked)
    _assert_carried(_forced_sum_products(_sum_terms(rng, 3)))
    if poly._FAST:  # the dict engine fills the memo with sums of Polys
        _assert_carried(*(SeqCache().qfib(n) for n in range(2, 31)))


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
    other exponents; one more step of m raises.  Both paths do: the per-term
    loop, and the block moves of a Poly that carries a block list."""
    step = sign if es > 0 else -sign  # step * es = sign * |es|
    m = u * step
    terms = {(ex, es, 0, ez): c for (ex, ez), c in rest.items()}
    p = _power(2, sign * (_VAR_GUARD - u * abs(es))) * Poly(terms)
    blocked = Poly._raw(dict(p._t))
    assert p._blocks is None and _block_map(blocked)
    top = sign * _VAR_GUARD
    for operand in (p, blocked):
        got = operand.subst_s_scale(m)
        assert dict(got.terms()) == {(ex, es, top, ez): c for (ex, _, _, ez), c in terms.items()}
        with pytest.raises(OverflowError):
            operand.subst_s_scale(m + step)
    if m:  # a block-moved result carries its ranges and its own block list
        assert got._ranges == _scanned(got) and got._blocks == _block_map(Poly._raw(dict(got._t)))


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
    assert m.det() == det_cofactor(m)


def _cheap(cell):
    """Drops the nine q cells with k * ell * (|n| + k) > 36 (k = 3, ell = 2
    at |n| >= 4, and k = ell = 2 at n = 8): entries f(ell m)^k grow so fast
    that each of them takes seconds on the dict engine."""
    n, k, ell, classical = cell
    return classical or k * ell * (abs(n) + k) <= 36


power_det_cells = st.tuples(
    st.integers(-6, 8), st.integers(1, 3), st.integers(1, 2), st.booleans()
).filter(_cheap)


@_SETTINGS
@given(power_det_cells)
def test_factored_power_det_matches_bareiss_on_the_explicit_matrix(cell):
    assert _power_det(*cell) == power_det_bareiss(*cell)


# the balanced digits' bounds at limb widths 8, 16, 24 and 64, one off too
_LIMB_EDGES = [(1 << (8 * j - 1)) + d for j in (1, 2, 3, 8) for d in (-1, 0, 1)]


def _at_limb_edges(rng, p):
    """p with every coefficient replaced by a signed _LIMB_EDGES value."""
    return Poly({e: rng.choice((1, -1)) * rng.choice(_LIMB_EDGES) for e, _ in p.terms()})


def _sum_terms(rng, n):
    """n pairs of signed Laurent operands with limb-edge coefficients: the
    first a pair of s-lines sharing one slope and lead (their product
    packs), the others an s-line times an operand with two (ex, ez) blocks
    on some s exponent (the packed product declines, block products run)."""
    slope = (rng.randint(-2, 2), rng.randint(-1, 1))
    lead = (rng.randint(-3, 3), rng.randint(-3, 3))

    def line():
        return _at_limb_edges(rng, _s_line_poly(rng, slope, lead))

    off_line = ONE + monomial(1, ex=1, ez=-1)
    return [(line(), line())] + [
        (line(), _at_limb_edges(rng, line() * off_line)) for _ in range(n - 1)
    ]


def _naive(a, b):
    """a * b by the term dict, the oracle."""
    return _dot_naive(((a._t, b._t),))


def _dict_sum(terms):
    return sum((_naive(a, b) for a, b in terms), ZERO)


def _forced_sum_products(terms, packed=None, pack=True):
    """_sum_products on any operand size, each product offered to the
    packed kernel when pack, whose results are appended to `packed`."""
    real = poly._packed_product

    def spy(*args):
        out = real(*args)
        if packed is not None:
            packed.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_BLOCKED_PAIRS", 0)
        mp.setattr(poly, "_PACKED_PAIRS", 0 if pack else 10**18)
        mp.setattr(poly, "_packed_product", spy)
        return poly._sum_products(terms)


@settings(_SETTINGS, max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.booleans())
def test_sum_products_kernel_matches_the_dict_sum(rng, n, sparse):
    """_sum_products, forced onto small operands and onto the packed
    products, equals the dict sum of a * b: the pair of s-lines takes the
    packed path, the other pairs the block products, the sum carries the
    ranges a scan finds and caches the block list that _block_map would build.  An
    operand too q-sparse to pack (one term 20000 q steps off its block)
    makes the kernel decline."""
    terms = _sum_terms(rng, n)
    if sparse:
        i = rng.randrange(n)
        a, b = terms[i]
        ex, es, eq, ez = next(iter(a.terms()))[0]
        terms[i] = (a + monomial(rng.choice(_LIMB_EDGES), ex, es, eq + 20_000, ez), b)
    want = _dict_sum(terms)
    packed = []
    got = _forced_sum_products(terms, packed)
    if sparse:
        assert got is None
        return
    assert got == want
    assert got._ranges == _scanned(got)
    assert got._blocks == _block_map(Poly._raw(dict(got._t)))
    assert packed[0] is not None and packed[1:] == [None] * (n - 1)


def test_sum_products_kernel_returns_zero_for_a_sum_that_cancels():
    rng = random.Random(7)
    (a, b), (c, d) = _sum_terms(rng, 2)
    got = _forced_sum_products([(a, b), (c, d), (-a, b), (c, -d)])
    assert got == ZERO and got._blocks == [] and got._ranges is None
    assert got._get_ranges() == _scanned(ZERO)


def test_sum_products_kernel_guards_each_product_like_a_times_b():
    """A sum whose top q exponent is _VAR_GUARD is taken; one step past,
    the kernel raises the OverflowError of a * b.  Products far apart in q
    would make mostly empty blocks, and the kernel declines them."""
    rng = random.Random(11)
    terms = [(a, b * _power(2, -b.exponent_range("q")[1])) for a, b in _sum_terms(rng, 2)]
    up = _power(2, _VAR_GUARD - max(a.exponent_range("q")[1] for a, _ in terms))
    edge = [(a * up, b) for a, b in terms]
    assert _forced_sum_products(edge) == _dict_sum(edge)
    assert _forced_sum_products(terms[:1] + edge[1:]) is None
    past = [(a, b * monomial(1, eq=1)) for a, b in edge]
    with pytest.raises(OverflowError) as want:
        for a, b in past:
            a * b
    with pytest.raises(OverflowError) as got:
        _forced_sum_products(past)
    assert str(got.value) == str(want.value)


def _term_sum(pairs):
    """sum(a * b) term by term on exponent tuples, sharing no code with the
    product kernels or Poly addition."""
    out = {}
    for a, b in pairs:
        for ea, ca in a.terms():
            for eb, cb in b.terms():
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _dot_pairs(rng, small, large, cancel, guard):
    """small, plus a pair of blocked operands whose product exceeds
    _BLOCKED_PAIRS when large is "dense", the same with one operand too
    q-sparse to pack (a term 20000 q steps off its block) when "sparse";
    then every pair again with its first operand negated when cancel, so
    that the sum is zero; then, when guard, one pair's operands moved up in
    q, each staying inside _VAR_GUARD, so that their product's top q
    exponent is _VAR_GUARD ("edge") or one past it ("past")."""
    pairs = list(small)
    if large:
        a, b = _blocked_poly(rng), _blocked_poly(rng)
        if large == "sparse":
            ex, es, eq, ez = next(iter(a.terms()))[0]
            a = a + monomial(3, ex, es, eq + 20_000, ez)
        pairs.insert(rng.randint(0, len(pairs)), (a, b))
    if cancel:
        pairs += [(-a, b) for a, b in pairs]
    live = [i for i, (a, b) in enumerate(pairs) if a and b]
    if guard and live:
        i = rng.choice(live)
        a, b = pairs[i]
        half = _VAR_GUARD // 2
        top_b = _VAR_GUARD - half + (guard == "past")
        pairs[i] = (
            a * _power(2, half - a.exponent_range("q")[1]),
            b * _power(2, top_b - b.exponent_range("q")[1]),
        )
    return pairs


@settings(_SETTINGS, max_examples=80)
@given(
    st.lists(st.tuples(laurent_polys, laurent_polys), max_size=4),
    st.randoms(use_true_random=False),
    st.sampled_from((None, "dense", "sparse")),
    st.booleans(),
    st.sampled_from((None, "edge", "past")),
    st.booleans(),
)
@example([], random.Random(0), None, False, None, True)
@example([], random.Random(0), None, False, None, False)
@example([(ZERO, X), (parse("3*q^5*s^-2*x"), parse("x + q^-1")), (X, ZERO)],
         random.Random(1), None, False, None, True)
@example([(parse("q^-2*s - x"), parse("z^-1 + 2*q"))], random.Random(2), "dense", True, None, True)
@example([(parse("q^-1 + s^-1"), parse("x - 5"))], random.Random(3), "sparse", False, "past", True)
def test_dot_matches_the_sum_of_products(small, rng, large, cancel, guard, fast):
    """dot equals the sum of a * b on both engines: on an empty list, zero
    operands and monomials, a sum that cancels to zero, Laurent operands,
    small products alone (one term dict), beside a large one (the packed
    accumulator) and beside a large q-sparse one (the Poly sum).  A product
    whose exponents reach _VAR_GUARD is summed; one step past, dot raises
    the OverflowError of a * b."""
    pairs = _dot_pairs(rng, small, large, cancel, guard)
    took = []
    real = poly._sum_products

    def spy(terms):
        # a * b runs the kernel too: note whether dot was the caller
        took.append((sys._getframe(1).f_code is dot.__code__, real(terms)))
        return took[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_FAST", fast)
        mp.setattr(poly, "_sum_products", spy)
        if guard == "past" and any(a and b for a, b in pairs):
            with pytest.raises(OverflowError) as want:
                for a, b in pairs:
                    a * b
            with pytest.raises(OverflowError) as got:
                dot(pairs)
            assert str(got.value) == str(want.value)
            return
        got = dot(pairs)
        want = sum((a * b for a, b in pairs), ZERO)
    assert got == want and dict(got.terms()) == _term_sum(pairs)
    assert got._get_ranges() == _scanned(got)
    if not fast:  # the dict engine never calls the kernel
        assert took == []
    else:
        took = [out for by_dot, out in took if by_dot]
        assert len(took) == 1
        # small products alone go to the term dict, the accumulator takes a
        # large dense product and declines a q-sparse one; a product moved
        # to the guard may lie too far from the others in q to share blocks
        if large == "sparse":
            assert took[0] is None
        elif large is None or not guard:
            assert took[0] is not None


@pytest.mark.parametrize("engine", ["default", "dict"])
def test_dot_guards_each_variable_on_its_own(monkeypatch, engine):
    """dot's term-dict path skips the per-variable guard only where the
    operands' extents sum within _VAR_GUARD.  Operands out at the guard in
    different variables are summed, as is a product whose exponent in one
    variable is exactly +-_VAR_GUARD; one step past it, top or bottom, dot
    raises the OverflowError of a * b."""
    monkeypatch.setattr(poly, "_FAST", engine == "default")
    for v in range(4):
        for sign in (1, -1):
            a = _power(v, sign * (_VAR_GUARD - 1)) + ONE
            far = _power((v + 1) % 4, sign * _VAR_GUARD) + ONE
            edge = _power(v, sign) + ONE
            for b in (far, edge):
                assert dot([(a, b), (X, X)]) == a * b + X * X
            past = _power(v, 2 * sign) + ONE
            with pytest.raises(OverflowError) as want:
                a * past
            with pytest.raises(OverflowError) as got:
                dot([(a, past), (X, X)])
            assert str(got.value) == str(want.value)
