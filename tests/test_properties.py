"""Hypothesis property tests: the parse/print round trip on Laurent
polynomials, the two facts that let gf_limit truncate once, at the end, and
the condensation engine of the power determinants against Bareiss.

Every test runs derandomized and without an example database, so the suite
stays deterministic; conftest.py keeps Hypothesis's other storage out of
the working tree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qfib.harness import _power_det
from qfib.matrices import PolyMatrix
from qfib.poly import Poly, parse
from qfib.sequences import fib, qfib, truncate

_SETTINGS = settings(derandomize=True, database=None, deadline=None)


def _polys(s_q_lo):
    """Polys with x and z exponents in -4..4 and s and q exponents in
    s_q_lo..8; coefficients of any size."""
    other = st.integers(-4, 4)
    sq = st.integers(s_q_lo, 8)
    key = st.tuples(other, sq, sq, other)
    return st.dictionaries(key, st.integers(), max_size=12).map(Poly)


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
def test_condensation_matches_bareiss_on_the_explicit_matrix(cell):
    n, k, ell, classical = cell

    def entry(i, j):
        m = ell * (n + i - j)
        return fib(m) ** k if classical else qfib(m, shift=ell * j) ** k

    explicit = PolyMatrix([[entry(i, j) for j in range(k + 1)] for i in range(k + 1)])
    assert _power_det(n, k, ell, classical) == explicit.det()
