"""Hypothesis property tests: the parse/print round trip on Laurent
polynomials, the two facts that let gf_limit truncate once, at the end, the
twisted square against the plain product, Bareiss against cofactor
expansion on Laurent entries, and the condensation engine of the power
determinants against Bareiss.

Every test runs derandomized and without an example database, so the suite
stays deterministic; conftest.py keeps Hypothesis's other storage out of
the working tree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qfib.harness import _power_det
from qfib.matrices import PolyMatrix
from qfib.poly import ZERO, Poly, _block_map, parse
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


@_SETTINGS
@given(power_det_cells)
def test_condensation_matches_bareiss_on_the_explicit_matrix(cell):
    n, k, ell, classical = cell

    def entry(i, j):
        m = ell * (n + i - j)
        return fib(m) ** k if classical else qfib(m, shift=ell * j) ** k

    explicit = PolyMatrix([[entry(i, j) for j in range(k + 1)] for i in range(k + 1)])
    assert _power_det(n, k, ell, classical) == explicit.det()
