"""Output checks that share no code path with the timed work.

Polynomials arrive as term lists [[ex, es, eq, ez, coeff], ...].  They are
evaluated modulo the prime P at seeded points and compared with the same
quantity computed from the integer q-Fibonacci recurrence
f(1) = 1, f(2) = x, f(m) = x f(m-1) + q^(m-2) s f(m-2), which uses no `Poly`
arithmetic.  A changed coefficient c -> c + d moves the value by
d * x^a s^b q^c z^e, which is nonzero mod P whenever 0 < |d| < P.

Every check returns the number of failed operations.
"""

from __future__ import annotations

from math import comb

P = (1 << 61) - 1


def draw_points(rng, count: int = 2) -> list[tuple[int, int, int, int]]:
    """Evaluation points (x, s, q, z) with coordinates in 2..P-2, so q != 1."""
    return [tuple(rng.randrange(2, P - 1) for _ in range(4)) for _ in range(count)]


def eval_terms(terms, point) -> int:
    if not terms:
        return 0
    tables = [
        {e: pow(v, e, P) for e in set(column)}
        for v, column in zip(point, list(zip(*terms))[:4])
    ]
    tx, ts, tq, tz = tables
    return sum(c * tx[a] * ts[b] * tq[d] * tz[e] for a, b, d, e, c in terms) % P


def qfib_at(n: int, point, shift: int = 0) -> int:
    """f(n) at (x, q^shift s, q) mod P, for n >= 0."""
    x, s, q, _ = point
    s = s * pow(q, shift, P) % P
    prev, cur = 0, 1  # f(0), f(1)
    if n == 0:
        return 0
    for m in range(2, n + 1):
        prev, cur = cur, (x * cur + pow(q, m - 2, P) * s * prev) % P
    return cur


def _fac_at(m: int, shift: int, point) -> int:
    total = 1
    for i in range(1, m + 1):
        total = total * qfib_at(i, point, shift) % P
    return total


def det_row_at(k: int, point) -> int:
    """The conj3 closed form at n = k, which det_table(k) must equal:
    prod_j C(k, j) * s^e * q^((2k-1) e / 2) * prod_{j<k} fac(k-j, q^j s)
    fac(k-j, q^(k+j) s), with e = 2 C(k+1, 3)."""
    _, s, q, _ = point
    e = 2 * comb(k + 1, 3)
    value = 1
    for j in range(k + 1):
        value *= comb(k, j)
    value = value * pow(s, e, P) * pow(q, (2 * k - 1) * e // 2, P) % P
    for j in range(k):
        value = value * _fac_at(k - j, j, point) * _fac_at(k - j, k + j, point) % P
    return value


def check_powers(products, points) -> int:
    """products: [[n, k, terms], ...], each meant to be qfib(n)**k."""
    failed = 0
    for n, k, terms in products:
        if any(eval_terms(terms, pt) != pow(qfib_at(n, pt), k, P) for pt in points):
            failed += 1
    return failed


def check_det_rows(rows, golden: dict, closed: dict, points) -> int:
    """rows: {k: {"text": canonical string, "terms": term list}} for k = 1..6.
    Rows present in the golden file must match it; the others must match
    the conj3 closed form built as a polynomial.  Every row must also match
    the closed form evaluated at the points."""
    failed = 0
    for k, row in rows.items():
        want = golden.get(k, closed.get(k))
        ok = want is not None and row["text"] == want
        ok = ok and all(eval_terms(row["terms"], pt) == det_row_at(k, pt) for pt in points)
        failed += not ok
    return failed


def _cell_key(cell) -> tuple:
    return cell["id"], tuple(sorted(cell["params"].items()))


def _without_ms(cell) -> dict:
    return {key: value for key, value in cell.items() if key != "ms"}


def check_catalog(report: dict, expected: set, reference=None) -> tuple[int, int]:
    """(attempted, failed) for a `verify --format json` report ({} when the
    output was not JSON).

    Every expected (id, params) cell must appear once with status pass and
    no other cell may appear.  With a reference report, every cell must also
    equal the reference cell at the same position apart from `ms`."""
    cells = report.get("cells", [])
    seen: set = set()
    bad: set = set()
    stray = 0  # duplicate or unexpected cells, or a differing header
    for i, cell in enumerate(cells):
        key = _cell_key(cell)
        if key not in expected or key in seen:
            stray += 1
            continue
        seen.add(key)
        if cell.get("status") != "pass":
            bad.add(key)
        if reference is not None:
            ref = reference.get("cells", [])
            if i >= len(ref) or _without_ms(ref[i]) != _without_ms(cell):
                bad.add(key)
    if reference is not None and _header(report) != _header(reference):
        stray += 1
    bad |= expected - seen
    return len(expected) + stray, len(bad) + stray


def _header(report) -> dict:
    return {key: value for key, value in report.items() if key != "cells"}
