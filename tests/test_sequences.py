"""Sequence generators: recurrences, closed forms, transform, gf series."""

from math import comb

import pytest

from oracles import qfib_explicit
from qfib import poly, sequences
from qfib.cli import _series_text, main
from qfib.poly import (
    _FAST,
    _VAR_GUARD,
    ONE,
    Poly,
    Q,
    S,
    X,
    ZERO,
    _block_map,
    _BlockPoly,
    _from_acc,
    _limb,
    monomial,
    parse,
)
from qfib.sequences import (
    Memo,
    SeqCache,
    _extend,
    _fill_packed,
    fib,
    gf_truncated,
    lucas,
    qfib,
    qfib_neg_closed,
    transform_T,
    truncate,
)

# first values: 0, 1, x, x^2+s, x^3+2sx, x^4+3sx^2+s^2
FIB_FIRST = ["0", "1", "x", "x^2 + s", "x^3 + 2*s*x", "x^4 + 3*s*x^2 + s^2"]


def test_fib_first_values():
    assert [str(fib(n)) for n in range(6)] == FIB_FIRST


def test_fib_backward():
    assert fib(-1) == monomial(1, es=-1)
    # recurrence holds across zero for a wide window
    for n in range(-8, 15):
        assert fib(n) == X * fib(n - 1) + S * fib(n - 2)


def test_lucas_values():
    assert lucas(0) == Poly(2)
    assert lucas(1) == X
    assert lucas(3) == X**3 + 3 * S * X
    for n in range(2, 13):
        assert lucas(n) == X * lucas(n - 1) + S * lucas(n - 2)
    with pytest.raises(ValueError):
        lucas(-1)


# first q-values: 0, 1, x, qs+x^2, qsx+q^2sx+x^3, q^4s^2+qsx^2+q^2sx^2+q^3sx^2+x^4
def test_qfib_first_values():
    assert qfib(0) == ZERO
    assert qfib(1) == ONE
    assert qfib(2) == X
    assert qfib(3) == Q * S + X**2
    assert qfib(4) == parse("q*s*x + q^2*s*x + x^3")
    assert qfib(5) == parse("q^4*s^2 + q*s*x^2 + q^2*s*x^2 + q^3*s*x^2 + x^4")


def test_qfib_negative_frozen_values():
    assert qfib(-1) == monomial(1, es=-1, eq=1)
    assert qfib(-2) == monomial(-1, ex=1, es=-2, eq=3)


def test_qfib_recurrence_all_integers():
    for n in range(-8, 16):
        assert qfib(n) == X * qfib(n - 1) + monomial(1, es=1, eq=n - 2) * qfib(n - 2)


def test_qfib_shift_is_substitution():
    for n in range(-4, 10):
        for j in range(-2, 4):
            assert qfib(n, shift=j) == qfib(n).subst_s_scale(j)


def test_explicit_equals_recurrence():
    assert qfib_explicit(3) == Q * S + X**2
    assert qfib_explicit(1) == ONE
    for n in range(0, 15):
        assert qfib_explicit(n) == qfib(n)


def test_neg_closed_equals_backward():
    assert qfib_neg_closed(1) == monomial(1, es=-1, eq=1)
    assert qfib_neg_closed(2) == monomial(-1, ex=1, es=-2, eq=3)
    for n in range(1, 9):
        assert qfib_neg_closed(n) == qfib(-n)
    with pytest.raises(ValueError):
        qfib_neg_closed(0)


def test_q_one_specializes_to_fib():
    for n in range(-6, 15):
        assert qfib(n).subst_q_one() == fib(n)


def test_alternate_recurrence_shifted_arguments():
    # f(n) = x f(n-1, qs) + q s f(n-2, q^2 s)
    for n in range(-6, 15):
        r = qfib(n) - X * qfib(n - 1, shift=1) - Q * S * qfib(n - 2, shift=2)
        assert r.is_zero(), n


def test_transform_examples():
    assert transform_T(qfib(3), 3) == qfib(3)
    assert transform_T(qfib(3), 4) == Q**2 * S + X**2
    assert transform_T(qfib(3), 4) == qfib(3, shift=1)
    assert transform_T(ONE, 9) == ONE


def test_transform_shift_invariant():
    for n in range(0, 13):
        for j in range(0, n + 1):
            assert transform_T(qfib(n - j), n) == qfib(n - j, shift=j)


def test_seqcache_is_pure():
    fresh = SeqCache()
    assert fresh.qfib(9) == qfib(9)
    assert fresh.fib(-5) == fib(-5)
    assert fresh.qfib(5, shift=2) == qfib(5).subst_s_scale(2)
    # every memo is filled from its two seeds alone, in either direction first
    for first, second in ((-6, 11), (11, -6)):
        fresh = SeqCache()
        assert fresh.fib(first) == fib(first)
        assert fresh.fib(second) == fib(second)
        assert fresh.qfib(first) == qfib(first)
        assert fresh.qfib(second, shift=1) == qfib(second, shift=1)
        for memo in (fresh._fib, fresh._qfib):
            assert sorted(memo) == list(range(-6, 12))
        for n in range(-4, 12):
            assert fresh.fib(n) == X * fresh.fib(n - 1) + S * fresh.fib(n - 2)
            assert fresh.qfib(n) == (
                X * fresh.qfib(n - 1) + monomial(1, es=1, eq=n - 2) * fresh.qfib(n - 2)
            )
        for memo in (fresh._fib, fresh._qfib):
            assert sorted(memo) == list(range(-6, 12))
    fresh = SeqCache()
    assert fresh.lucas(11) == lucas(11)
    assert sorted(fresh._lucas) == list(range(12))
    with pytest.raises(ValueError):
        fresh.lucas(-1)
    assert sorted(fresh._lucas) == list(range(12))
    # an index that is no int, or a bool, is refused by name before any
    # memo is read or filled: 1.0 and True equal the key 1
    memos = [dict(m) for m in (fresh._fib, fresh._lucas, fresh._qfib)]
    for read in (fresh.qfib, fresh.fib, fresh.lucas):
        for bad in (2.0, 2.5, 1.0, -1.5, True, False):
            # lucas refuses a negative index first, in its own words
            message = "lucas is defined for n >= 0" if read == fresh.lucas and bad < 0 else (
                f"sequence index must be an int: {bad!r}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                read(bad)
    assert [dict(m) for m in (fresh._fib, fresh._lucas, fresh._qfib)] == memos


# ------------------------------------------- forward fill against oracles
#
# The oracles share no code with the fill: q-binomial sums for qfib, plain
# binomial sums for fib and lucas.


def _fib_binomial(n):
    """sum_k C(n-1-k, k) x^(n-1-2k) s^k."""
    return Poly({(n - 1 - 2 * k, k, 0, 0): comb(n - 1 - k, k) for k in range((n + 1) // 2)})


def _lucas_binomial(n):
    """sum_k n/(n-k) C(n-k, k) x^(n-2k) s^k, and 2 at n = 0."""
    if n == 0:
        return Poly(2)
    terms = {}
    for k in range(n // 2 + 1):
        c, r = divmod(n * comb(n - k, k), n - k)
        assert r == 0
        terms[(n - 2 * k, k, 0, 0)] = c
    return Poly(terms)


def _widths(memo):
    """The limb widths of memo's entries that are still packed (acc, L)."""
    return {e[1] for e in memo.values() if type(e) is tuple}


def _packed(memo, indices):
    """Whether each of memo's entries at indices is still packed."""
    return [type(memo[n]) is tuple for n in indices]


def test_forward_fill_in_steps_matches_oracles():
    fresh = SeqCache()
    memos = (fresh._qfib, fresh._fib, fresh._lucas)
    widths = [[] for _ in memos]
    checked = 0
    for stop in (20, 45, 90):
        # one call fills each memo from its previous top to stop and reads
        # memo[stop]; the entries below it stay packed, at one width
        fresh.qfib(stop), fresh.fib(stop), fresh.lucas(stop)
        if _FAST:
            for memo, seen in zip(memos, widths):
                unread = [n >= 2 for n in range(checked, stop)]
                assert _packed(memo, range(checked, stop + 1)) == unread + [False]
                assert type(memo[stop]) is _BlockPoly
                (L,) = _widths(memo)
                seen.append(L)
        for n in range(checked, stop + 1):
            assert fresh.qfib(n) == qfib_explicit(n), n
            assert fresh.fib(n) == _fib_binomial(n), n
            assert fresh.lucas(n) == _lucas_binomial(n), n
        checked = stop + 1
    if _FAST:
        # the coefficients outgrow the first fills' limbs, so each later
        # fill packed its seeds wider
        for seen in widths:
            assert len(seen) == 3 and seen == sorted(set(seen)), seen


def test_forward_fill_one_step_at_a_time():
    fresh = SeqCache()
    for n in range(2, 40):
        assert fresh.qfib(n) == qfib_explicit(n), n
        assert fresh.lucas(n) == _lucas_binomial(n), n


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_forward_fill_at_the_limb_bound(bits, sign):
    # seeds (0, c) give c*qfib(n); at n = 2 the only coefficient, c, equals
    # the l1 bound, and 2^(8j-1) - 1 is the largest balanced digit of a limb
    c = sign * ((1 << bits) - 1)
    memo = {0: ZERO, 1: Poly(c)}
    if _FAST:
        _fill_packed(memo, 2, 1)
        assert _widths(memo) == {_limb(abs(c))}
        if bits % 8 == 7:
            assert abs(c) == (1 << (_limb(abs(c)) - 1)) - 1
    assert _extend(memo, 2, 1) == c * X
    # a second fill packs the seed at 2 at the width of its own bound,
    # |g(9)|_1 <= 34 |c| from the seeds' l1 norms |c| and |c|
    if _FAST:
        _fill_packed(memo, 9, 1)
        assert _widths(memo) == {_limb(34 * abs(c))}
    assert _extend(memo, 9, 1) == c * qfib(9)
    for n in range(3, 9):
        assert _extend(memo, n, 1) == c * qfib(n), n


@pytest.mark.parametrize(
    "seeds",
    [
        (X * (ONE + Q), -S),  # g(2) = q*s*x: its block's lowest digit cancels
        (X, -S),  # g(2) = 0: an empty block
        (monomial(-3, ex=2, eq=-4) + Q**3, S * Q - X),  # Laurent, signed, two bases per es
    ],
)
def test_forward_fill_signed_seeds(seeds):
    memo = {0: seeds[0], 1: seeds[1]}
    want = list(seeds)
    for m in range(2, 12):
        want.append(X * want[m - 1] + monomial(1, es=1, eq=m - 2) * want[m - 2])
    for stop in (2, 5, 11):
        got = _extend(memo, stop, 1)
        assert got == want[stop], stop
        assert _block_map(got) == _block_map(Poly(dict(got.terms())))
    for m in range(12):
        assert _extend(memo, m, 1) == want[m], m


def test_the_engine_is_read_at_each_fill(monkeypatch):
    """With poly._FAST off, a fresh cache stores Polys at n >= 2, equal to
    the packed fill's values, and a cache filled packed to 10 and then
    extended to 14 on the dict engine equals the fresh one.  The packed
    fill left 2..9 packed; the dict fill read its seeds 9 and 10 and
    stored Polys."""
    reads = ("qfib", "fib", "lucas")
    monkeypatch.setattr(poly, "_FAST", True)
    mixed = SeqCache()
    for name in reads:
        getattr(mixed, name)(10)
    monkeypatch.setattr(poly, "_FAST", False)
    fresh = SeqCache()
    for name in reads:
        getattr(mixed, name)(14)
        memo = getattr(mixed, "_" + name)
        assert _packed(memo, range(2, 15)) == [True] * 7 + [False] * 6, name
        want = [getattr(fresh, name)(n) for n in range(15)]
        assert [getattr(mixed, name)(n) for n in range(15)] == want, name
        assert {type(e) for e in getattr(fresh, "_" + name).values()} == {Poly}, name


def test_a_forward_entry_is_its_accumulator_until_read(monkeypatch):
    """A packed fill stores each entry as its accumulator (acc, L); the
    first read replaces the entry by its Poly and leaves the entries below
    packed.  Fills whose seeds were read, or are still packed below a read
    top, give the values of one cold fill."""
    monkeypatch.setattr(poly, "_FAST", True)
    cold = SeqCache()
    cold.qfib(60)
    want = [cold.qfib(n) for n in range(61)]
    fresh = SeqCache()
    memo = fresh._qfib
    fresh.qfib(30)
    assert type(memo[30]) is _BlockPoly
    assert _packed(memo, range(2, 30)) == [True] * 28
    acc, L = memo[29]
    assert type(acc) is dict and _widths(memo) == {L}
    assert _from_acc(acc, L) == want[29]
    fresh.qfib(29)  # both seeds of the next fill read
    fresh.qfib(45)
    assert _packed(memo, range(29, 46)) == [False] * 2 + [True] * 14 + [False]
    fresh.qfib(60)  # its seed at 44 still packed
    assert _packed(memo, range(44, 61)) == [True, False] + [True] * 14 + [False]
    got = [fresh.qfib(n) for n in range(61)]
    assert not any(_packed(memo, range(61)))
    assert got == want


def test_limb_width_is_least_balanced():
    for b in range(0, 200):
        for bound in {(1 << b) - 1, 1 << b}:
            L = _limb(bound)
            assert L % 8 == 0 and bound < 1 << (L - 1)
            assert L == 8 or bound >= 1 << (L - 9)


def test_read_entry_carries_its_block_list():
    fresh = SeqCache()
    for n in (2, 3, 7, 30, 62):
        for p in (fresh.qfib(n), fresh.fib(n), fresh.lucas(n)):
            if _FAST:
                assert p._blocks  # set when the entry was built
            assert _block_map(p) == _block_map(Poly(dict(p.terms())))


def test_memo_builds_each_key_once_from_its_parts():
    """A tuple key is unpacked into the build's arguments, any other key is
    passed whole; each key is built on its first read only.  A build that
    raises stores nothing, so the next read builds again."""
    calls = []

    def build(*parts):
        calls.append(parts)
        if parts == ("bad",):
            raise ValueError("no value")
        return sum(parts)

    memo = Memo(build)
    assert memo[2, 3] == 5 and memo[4] == 4 and memo[2, 3] == 5 and memo[(4,)] == 4
    assert calls == [(2, 3), (4,), (4,)]
    for _ in range(2):
        with pytest.raises(ValueError, match="no value"):
            memo["bad"]
    assert calls[3:] == [("bad",), ("bad",)]
    assert memo == {(2, 3): 5, 4: 4, (4,): 4}


def test_shifted_reads_are_memoized_and_match_the_per_term_substitution():
    """qfib(n, shift=m) is the per-term loop's s -> q^m s on a copy without
    a block list.  A forward entry's shifted value moves the entry's blocks
    and carries the ranges and the block list a scan would find; every
    value is built once and a second read returns it."""
    fresh = SeqCache()
    for n in range(-6, 41):
        for m in range(-3, 6):
            got = fresh.qfib(n, shift=m)
            assert got == Poly._raw(dict(fresh.qfib(n)._t)).subst_s_scale(m)
            copy = Poly._raw(dict(got._t))
            if _FAST and n >= 2:
                assert got._ranges == copy._get_ranges()
                assert got._blocks == _block_map(copy)
            assert got._get_ranges() == copy._get_ranges()
            assert fresh.qfib(n, shift=m) is got
    assert sorted(fresh._qfib) == list(range(-6, 41))
    for bad in (1.0, True, 0.0, False):  # equal to 1 or 0 as a key, still no int shift
        with pytest.raises(ValueError, match="^shift must be an int$"):
            fresh.qfib(5, shift=bad)
        with pytest.raises(ValueError, match="^shift must be an int$"):
            fresh.qfib(5).subst_s_scale(bad)


@pytest.mark.parametrize("engine", ["default", "dict"])
def test_power_reads_equal_the_power_of_the_shifted_value(monkeypatch, engine):
    """qfib_power(m, k, shift=j) is qfib(m, shift=j) ** k, for m in -6..30,
    j in -3..5 and k in 1..4, and fib_power(m, k) is fib(m) ** k: one power
    per (m, k), kept unshifted, so a second read of it returns the same
    Poly.  The dict engine (poly._FAST off, every product a loop over term
    pairs) stops at |m| <= 12; qfib(30, shift=j) ** 4 alone would take it
    minutes."""
    monkeypatch.setattr(poly, "_FAST", engine == "default")
    top = 30 if engine == "default" else 12
    fresh = SeqCache()
    for m in range(-6, top + 1):
        for j in range(-3, 6):
            p = qfib(m, shift=j)
            p2 = p * p
            want = (p, p2, p2 * p, p2 * p2)  # qfib(m, shift=j) ** k, k = 1..4
            for k in range(1, 5):
                assert fresh.qfib_power(m, k, shift=j) == want[k - 1], (m, j, k)
        for k in range(1, 5):
            assert fresh.qfib_power(m, k) is fresh.qfib_power(m, k, shift=0)
            assert fresh.fib_power(m, k) == fib(m) ** k
            assert fresh.fib_power(m, k) is fresh.fib_power(m, k)
    keys = [(m, k) for m in range(-6, top + 1) for k in range(1, 5)]
    assert sorted(fresh._qfib_powers) == sorted(fresh._fib_powers) == keys


def test_an_out_of_range_tail_raises_overflow_and_the_cli_exits_3(capsys, monkeypatch):
    """A tail whose shift pushes the power's q exponents past _VAR_GUARD
    raises OverflowError.  qfib(9) has s exponents up to 4, so
    qfib(9, shift=j) fits at j = 600000, while its square, s up to 8, does
    not: the power built first and shifted after meets the substitution
    guard, where the shifted value squared met the product guard."""
    j = 600_000
    assert 4 * j < _VAR_GUARD < 8 * j
    with pytest.raises(OverflowError, match="^product exponent exceeds supported range$"):
        qfib(9, shift=j) ** 2
    with pytest.raises(OverflowError, match="^substitution exponent exceeds supported range$"):
        SeqCache().qfib_power(9, 2, shift=j)
    # main maps the OverflowError to exit 3, as for any valid input whose
    # arithmetic outgrows the exponent fields
    monkeypatch.setattr(sequences, "qfib", lambda n, shift=0: sequences.qfib_power(n, 2, shift))
    assert main(["eval", "qfib", "9", "--shift", str(j)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == (
        "",
        "error: substitution exponent exceeds supported range"
        f" (|exponent| <= {_VAR_GUARD} per variable)\n",
    )


# -------------------------------------------------------------- gf series


def _coeff(p, es, eq):
    return dict(p.terms()).get((0, es, eq, 0), 0)


def test_gf_first_column_is_one():
    assert gf_truncated(1, 9) == ONE


def test_gf_2_4():
    ts = gf_truncated(2, 4)
    assert ts == parse("1 + q*s + q^2*s + q^3*s")
    assert _series_text(ts) == "1 + (q + q^2 + q^3)*s"


def test_gf_agrees_with_qfib_truncation():
    g = gf_truncated(8, 12)
    for n in (16, 17, 20, 24):
        assert truncate(qfib(n).subst_x_one(), 8, 12) == g, n


def test_series_arithmetic():
    g = gf_truncated(4, 6)
    assert (g - g).is_zero()
    scaled = truncate(g.subst_s_scale(1), 4, 6)
    # F(qs): the s^k coefficient gains q^k
    assert _coeff(scaled, 1, 2) == _coeff(g, 1, 1)
    shifted = truncate(g * (S * Q), 4, 6)
    assert _coeff(shifted, 1, 1) == _coeff(g, 0, 0)
    # truncate bounds only the s and q exponents from above
    laurent = monomial(3, ex=2, es=-1, eq=-2, ez=1)
    assert truncate(laurent, 0, 0) == laurent
    assert truncate(S + Q, 1, 2) == Q
    assert truncate(S + Q, 2, 1) == S


def test_series_orders_validate():
    with pytest.raises(ValueError):
        gf_truncated(0, 5)
    with pytest.raises(ValueError):
        gf_truncated(5, 0)
