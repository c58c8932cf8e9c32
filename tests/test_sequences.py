"""Sequence generators: recurrences, closed forms, transform, gf series."""

import pytest

from qfib.cli import _series_text
from qfib.poly import ONE, Poly, Q, S, X, ZERO, monomial, parse
from qfib.sequences import (
    SeqCache,
    fib,
    gf_truncated,
    lucas,
    qfib,
    qfib_explicit,
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
            assert fresh._fib[n] == X * fresh._fib[n - 1] + S * fresh._fib[n - 2]
            assert fresh._qfib[n] == (
                X * fresh._qfib[n - 1] + monomial(1, es=1, eq=n - 2) * fresh._qfib[n - 2]
            )
    fresh = SeqCache()
    assert fresh.lucas(11) == lucas(11)
    assert sorted(fresh._lucas) == list(range(12))
    with pytest.raises(ValueError):
        fresh.lucas(-1)
    assert sorted(fresh._lucas) == list(range(12))


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
