"""Identity catalog: spot values, cross-consistency, fitter, sweeps."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qfib import harness, poly
from qfib.harness import (
    CATALOG,
    BadParams,
    CellResult,
    MonomialCorrection,
    NotProportional,
    VerificationReport,
    det_table,
    fit_monomial_correction,
    residual,
    sides,
    sweep,
)
from qfib.matrices import PolyMatrix
from qfib.poly import Poly, Q, S, X, monomial, parse
from qfib.qcomb import binom_product
from qfib.sequences import fib, qfib, transform_T


def content(p: Poly) -> int:
    g = 0
    for _, c in p.terms():
        g = math.gcd(g, abs(c))
    return g


# ----------------------------------------------------------- spot examples


def test_euler_cassini_trivial_instance():
    assert residual("euler_cassini", n=5, k=1).is_zero()


def test_conj1_f_k2_hand_instance():
    assert residual("conj1_f", n=3, k=2).is_zero()


def test_q_cassini_n2():
    assert residual("q_cassini", n=2).is_zero()
    det, closed = sides("q_cassini", n=2)
    assert det == -(Q * S)


def test_det_sq_q_n2_table_entry():
    assert residual("det_sq_q", n=2).is_zero()
    det, _ = sides("det_sq_q", n=2)
    assert det == parse("2*q^3*s^2*x^2")


# ------------------------------------------------------ proved identities


@pytest.mark.parametrize("k", range(1, 5))
def test_euler_cassini_grid(k):
    for n in range(-4, 7):
        assert residual("euler_cassini", n=n, k=k).is_zero()
        assert residual("basis_decomp", n=n, k=k).is_zero()


def test_power_rec_k2_expanded_form():
    # k = 2 instance: F^2 - (x^2+s)F^2 - s(x^2+s)F^2 + s^3 F^2 pattern
    for n in range(5, 10):
        r = (
            fib(n) ** 2
            - (X**2 + S) * fib(n - 1) ** 2
            - S * (X**2 + S) * fib(n - 2) ** 2
            + S**3 * fib(n - 3) ** 2
        )
        assert r.is_zero()
        assert residual("power_rec_classical", n=n, k=2).is_zero()


def test_conj1_negative_n():
    for n in range(-3, 4):
        assert residual("conj1_f", n=n, k=2).is_zero()


def test_conj1_fibo_is_transform_image():
    for k in (2, 3):
        for n in range(-2, 6):
            assert residual("conj1_fibo", n=n, k=k) == transform_T(
                residual("conj1_f", n=n, k=k), n
            )


def test_conj2_prefactor_exponent_integrality():
    # the ell=1 exponent algebra reduces to j(j-1)(2j-1)/6
    for j in range(0, 6):
        lhs = 1 * (j * (j - 1) // 2) * ((4 * j + 1) - 3)
        assert lhs % 6 == 0 or (j * (j - 1) * (2 * j - 1)) % 6 == 0
        assert lhs // 6 == j * (j - 1) * (2 * j - 1) // 6


def test_gen_cassini_reduces_to_euler_cassini():
    for k in range(1, 5):
        for n in range(-2, 5):
            gdet, gclosed = sides("gen_cassini", N=n, m=k - 1, ell=1)
            elhs, erhs = sides("euler_cassini", n=n, k=k)
            assert gdet == elhs
            assert gclosed == erhs


def test_threeterm_q1_specialization():
    # each cleared term specializes to fib(ell) times the classical term
    for ell in (1, 2, 3):
        for n in (3, 5):
            qterms = harness._threeterm_ell_terms(n, ell)
            cterms = harness._threeterm_classical_terms(n, ell)
            for qt, ct in zip(qterms, cterms):
                assert qt.subst_q_one() == fib(ell) * ct


def test_conj3_q1_specialization_sides():
    for k in (1, 2):
        for n in range(k, 6):
            qdet, qclosed = sides("conj3", n=n, k=k)
            cdet, cclosed = sides("det_power_classical", n=n, k=k)
            assert qdet.subst_q_one() == cdet
            assert qclosed.subst_q_one() == cclosed


def test_conj4_q1_specialization_sides():
    for ell in (1, 2):
        for k in (1, 2):
            for n in range(k, 5):
                qdet, qclosed = sides("conj4", n=n, k=k, ell=ell)
                cdet, cclosed = sides("det_classical_ell", n=n, k=k, ell=ell)
                assert qdet.subst_q_one() == cdet
                assert qclosed.subst_q_one() == cclosed


def test_conj4_ell1_equals_conj3():
    for k in (1, 2):
        for n in range(k, 5):
            a = sides("conj4", n=n, k=k, ell=1)
            b = sides("conj3", n=n, k=k)
            assert a == b


def test_q_cassini_q1_matches_classical_sides():
    for n in range(1, 8):
        qdet, qclosed = sides("q_cassini", n=n)
        cdet, cclosed = sides("cassini_classical", n=n)
        assert qdet.subst_q_one() == cdet
        assert qclosed.subst_q_one() == cclosed


def test_special_forms_match_their_general_builders():
    # each hand-simplified closed form is stated independently of the
    # general stride-ell one; they must agree on the default grid and beyond
    def ns(id):
        return sorted({c["n"] for c in CATALOG[id].cells()} | set(range(-2, 8)))

    for n in ns("q_cassini"):
        assert sides("q_cassini", n=n) == harness._conj4_sides(n, 1, 1), n
    for n in ns("det_sq_q"):
        assert sides("det_sq_q", n=n) == harness._conj4_sides(n, 2, 1), n
    for n in ns("cassini_classical"):
        assert sides("cassini_classical", n=n) == harness._det_classical_ell_sides(
            n, 1, 1
        ), n
    for id, k in (("conj4_k1", 1), ("conj4_k2", 2)):
        lo, hi = CATALOG[id].grid_spec["ell"]
        for ell in range(lo, hi + 1):
            for n in ns(id):
                got = sides(id, n=n, ell=ell)
                assert got == harness._conj4_sides(n, k, ell), (id, ell, n)


def test_conj3_k1_is_q_cassini():
    for n in range(1, 8):
        assert sides("conj3", n=n, k=1) == sides("q_cassini", n=n)


def test_conj3_k2_is_det_sq_q():
    for n in range(2, 7):
        assert sides("conj3", n=n, k=2) == sides("det_sq_q", n=n)


def test_bad_params_is_error():
    with pytest.raises(BadParams):
        residual("euler_cassini", n=1, k=0)
    with pytest.raises(BadParams):
        residual("no_such_identity", n=1)
    with pytest.raises(BadParams):
        residual("q_cassini", n=1, k=2)
    with pytest.raises(BadParams):
        sides("conj1_f", n=1, k=2)


# ---------------------------------------------------------------- det table


@pytest.mark.parametrize(
    "k, n, classical, fallback",
    [
        (2, 0, True, True),
        (3, 1, True, True),
        (3, -1, True, True),
        (2, 0, False, True),
        (2, 1, True, False),
        (3, 2, True, False),
        (3, 2, False, False),
    ],
)
def test_power_det_falls_back_to_bareiss_on_a_zero_central_minor(
    monkeypatch, k, n, classical, fallback
):
    # one level of the condensation divides by g(m)^k for m = n-k+2..n+k-2,
    # and g(0) = 0 for g = fib and g = qfib
    calls = []
    bareiss = harness._power_det_bareiss

    def spy(*args):
        calls.append(args)
        return bareiss(*args)

    monkeypatch.setattr(harness, "_power_det_bareiss", spy)
    det = harness._power_det(n, k, classical=classical)
    assert calls == ([(n, k, 1, classical)] if fallback else [])

    def entry(i, j):
        return fib(n + i - j) ** k if classical else qfib(n + i - j, shift=j) ** k

    explicit = PolyMatrix([[entry(i, j) for j in range(k + 1)] for i in range(k + 1)])
    assert det == explicit.det_cofactor()


def _spy_condense(monkeypatch):
    """Record (above the blocked threshold, has a divisor, kernel took the
    step) for each call harness makes to the condensation kernel."""
    steps = []
    real = harness._condense

    def spy(c, a, b, d, twist):
        out = real(c, a, b, d, twist)
        big = min(len(c) ** 2, len(a) * len(b)) > poly._BLOCKED_PAIRS
        steps.append((big, d is not None, out is not None))
        return out

    monkeypatch.setattr(harness, "_condense", spy)
    return steps


def test_det_table_condenses_every_large_step_in_the_kernel(monkeypatch):
    # the spy sees only the steps this process runs: no level is forked
    monkeypatch.setattr(harness, "_FORK_PAIRS", math.inf)
    steps = _spy_condense(monkeypatch)
    if poly._FAST:
        # every step above the threshold runs in the kernel, none falls back
        table = det_table(6)
        assert table[3] == det_table(3)[3]
        large = [took for big, _, took in steps if big]
        assert len(large) > 50 and all(large)
        assert not any(took for big, _, took in steps if not big)
    else:
        det_table(4)
        assert steps == []


def test_the_dict_engine_never_calls_the_kernel():
    code = (
        "from qfib import harness\n"
        "calls = []\n"
        "harness._condense = lambda *args: calls.append(args)\n"
        "harness.det_table(4)\n"
        "print(harness._FAST, len(calls))\n"
    )
    env = dict(os.environ, QFIB_NO_FAST="1", PYTHONPATH=str(Path(harness.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "False 0\n")


def test_an_uncertified_kernel_quotient_falls_back_to_the_formula(monkeypatch):
    want = harness._power_det(4, 4)
    steps = _spy_condense(monkeypatch)
    monkeypatch.setattr(harness, "_FAST", True)
    monkeypatch.setattr(poly, "_quotient_certified", lambda *args: False)
    assert harness._power_det(4, 4) == want
    # the first level has no divisor, so no certificate: the kernel takes
    # its large steps; every large step with a divisor falls back
    large = [(divides, took) for big, divides, took in steps if big]
    assert (False, True) in large and (True, False) in large
    assert all(took != divides for divides, took in large)


# ------------------------------------------------------- forked levels


def _spy_fork(monkeypatch, log=None):
    """Count the os.fork calls (in a list), or append the calling pid to
    the file `log`, which a forked worker's calls reach too."""
    calls = []
    real = os.fork

    def spy():
        if log is None:
            calls.append(os.getpid())
        else:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_FORK_CELLS = [
    (n, k, ell, classical)
    for classical in (False, True)
    for ell in (1, 2, 3)
    for k in range(1, 5)
    for n in range(-3, 7)
    # the q-analogue cells as cheap as test_properties' _cheap, 2 s in all
    if classical or k * ell * (abs(n) + k) <= 36
]


def test_forked_levels_give_the_serial_determinants(monkeypatch):
    want = [harness._power_det(*cell) for cell in _FORK_CELLS]
    monkeypatch.setattr(harness, "_FAST", True)
    monkeypatch.setattr(harness, "_FORK_PAIRS", 0)
    forks = _spy_fork(monkeypatch)
    assert [harness._power_det(*cell) for cell in _FORK_CELLS] == want
    assert len(forks) > len(_FORK_CELLS)
    _assert_no_child_left()


def _fake_level(monkeypatch, fails):
    """A level of five steps that _condense_level splits between the two
    processes: step i returns i, or raises fails[i], in either process."""
    p = parse("x + s")

    def step(c, a, b, d, i):
        if i in fails:
            raise fails[i](f"step {i}")
        return i

    monkeypatch.setattr(harness, "_FAST", True)
    monkeypatch.setattr(harness, "_condense_step", step)
    return [(p, p, p, None, i) for i in range(5)]


@pytest.mark.parametrize(
    "fails",
    [
        {},
        {0: poly.NotDivisible},
        {1: OverflowError},
        {4: poly.NotDivisible},
        {1: OverflowError, 2: poly.NotDivisible},
        {0: poly.NotDivisible, 1: OverflowError},
        {3: OverflowError, 4: poly.NotDivisible},
    ],
)
def test_a_forked_level_raises_the_first_failure_in_window_order(monkeypatch, fails):
    args = _fake_level(monkeypatch, fails)
    forks = _spy_fork(monkeypatch)
    monkeypatch.setattr(harness, "_FORK_PAIRS", 0)
    if not fails:
        assert harness._condense_level(args) == list(range(5))
    else:
        first = min(fails)
        with pytest.raises(fails[first], match=f"step {first}"):
            harness._condense_level(args)
    assert len(forks) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [poly.NotDivisible, OverflowError])
def test_a_failure_in_the_child_reaches_the_parent_with_its_type(monkeypatch, exc):
    parent = os.getpid()
    real = harness._condense_step

    def step(*args):
        if os.getpid() != parent:
            raise exc("in the child")
        return real(*args)

    monkeypatch.setattr(harness, "_FAST", True)
    monkeypatch.setattr(harness, "_FORK_PAIRS", 0)
    monkeypatch.setattr(harness, "_condense_step", step)
    with pytest.raises(exc, match="in the child"):
        harness._power_det(4, 4)
    _assert_no_child_left()


def test_the_parent_runs_the_half_of_a_child_that_dies_without_a_word(monkeypatch):
    want = harness._power_det(4, 4)
    parent = os.getpid()
    real = harness._run_steps

    def run_steps(args, which):
        if os.getpid() != parent:
            os._exit(1)
        return real(args, which)

    monkeypatch.setattr(harness, "_FAST", True)
    monkeypatch.setattr(harness, "_FORK_PAIRS", 0)
    monkeypatch.setattr(harness, "_run_steps", run_steps)
    forks = _spy_fork(monkeypatch)
    assert harness._power_det(4, 4) == want
    assert forks
    _assert_no_child_left()


def test_a_failure_in_the_parent_kills_and_reaps_the_child(monkeypatch):
    parent = os.getpid()

    def step(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a child still at work

    monkeypatch.setattr(harness, "_FAST", True)
    monkeypatch.setattr(harness, "_FORK_PAIRS", 0)
    monkeypatch.setattr(harness, "_condense_step", step)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        harness._power_det(4, 4)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


@pytest.mark.parametrize("case", ["dict engine", "one core", "second thread"])
def test_no_level_is_forked_where_a_second_process_cannot_help(monkeypatch, case):
    import threading

    want = harness._power_det(4, 4)
    monkeypatch.setattr(harness, "_FAST", True)
    monkeypatch.setattr(harness, "_FORK_PAIRS", 0)
    forks = _spy_fork(monkeypatch)
    assert harness._power_det(4, 4) == want and forks  # forked by default
    forks.clear()
    if case == "dict engine":  # what QFIB_NO_FAST=1 sets at import
        monkeypatch.setattr(harness, "_FAST", False)
    elif case == "one core":
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    done = threading.Event()
    if case == "second thread":
        thread = threading.Thread(target=done.wait)
        thread.start()
    try:
        assert harness._power_det(4, 4) == want
    finally:
        done.set()
    assert forks == []


def test_no_level_is_forked_inside_a_verify_jobs_worker(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "_FAST", True)
    monkeypatch.setattr(harness, "_FORK_PAIRS", 0)
    log = tmp_path / "forks"
    _spy_fork(monkeypatch, log)
    over = {"n": (3, 4), "k": (3, 4)}
    # in this process each cell forks its levels
    serial = sweep(["conj3"], over)
    assert serial.all_pass() and set(log.read_text().split()) == {str(os.getpid())}
    log.unlink()
    # the pool forks its workers from this process, and they fork nothing
    pooled = sweep(["conj3"], over, workers=2)
    assert pooled.all_pass() and len(pooled.cells) == len(serial.cells)
    assert set(log.read_text().split()) == {str(os.getpid())}


def test_no_catalog_level_is_forked(monkeypatch):
    forks = _spy_fork(monkeypatch)
    report = sweep(sorted(CATALOG))
    assert report.cells and forks == []


def test_det_table_known_factorizations():
    table = det_table(3)
    assert table[1] == Poly(1)
    assert table[2] == parse("2*q^3*s^2*x^2")
    k3 = parse("9*q^20*s^8*x^4") * parse("q*s + x^2") * parse("q^4*s + x^2")
    assert table[3] == k3


def test_det_table_contents_are_binomial_products():
    table = det_table(4)
    for k, p in table.items():
        assert content(p) == binom_product(k), k


# ------------------------------------------------------------------ fitter


def test_fit_examples():
    assert str(fit_monomial_correction(parse("q^3*s^2*x^2"), parse("s^2*x^2"))) == "+q^3"
    p = parse("x^2 + s")
    corr = fit_monomial_correction(p, p)
    assert corr == MonomialCorrection(1)
    assert str(corr) == "+1"
    with pytest.raises(NotProportional):
        fit_monomial_correction(parse("x^2 + s"), parse("x^2"))
    with pytest.raises(ValueError):
        fit_monomial_correction(Poly(), p)


def test_fit_signed_and_laurent():
    p = parse("x^2 + q*s")
    shifted = monomial(-1, es=-2, eq=5) * p
    corr = fit_monomial_correction(shifted, p)
    assert corr.sign == -1 and corr.es == -2 and corr.eq == 5
    assert corr.as_poly() * p == shifted


def test_fit_rejects_coefficient_scaling():
    p = parse("x^2 + s")
    with pytest.raises(NotProportional):
        fit_monomial_correction(2 * p, p)


def test_fit_rejects_term_shuffle():
    with pytest.raises(NotProportional):
        fit_monomial_correction(parse("x^2 + 2*s"), parse("2*x^2 + s"))


# ------------------------------------------------------------------- sweep


def test_sweep_all_pass_and_deterministic_order():
    rep = sweep(["euler_cassini"], overrides={"k": (1, 2), "n": (-1, 2)})
    assert rep.counts == {"pass": 8, "fail": 0, "fitted": 0}
    keys = [(c.id, tuple(sorted(c.params.items()))) for c in rep.cells]
    assert keys == sorted(keys)
    assert rep.all_pass()


def test_sweep_error_cells_are_fail_content():
    rep = sweep(["euler_cassini"], overrides={"k": (0, 0), "n": (1, 1)})
    assert rep.counts["fail"] == 1
    assert rep.cells[0].residual.startswith("error:")
    assert not rep.all_pass()


def test_sweep_conj3_fit_enabled_by_default_passes():
    rep = sweep(["conj3"], overrides={"k": (1, 1), "n": (2, 6)})
    assert rep.counts == {"pass": 5, "fail": 0, "fitted": 0}


def test_sweep_workers_match_serial():
    kwargs = dict(overrides={"k": (1, 3), "n": (0, 4)})
    serial = sweep(["euler_cassini", "basis_decomp"], **kwargs)
    parallel = sweep(["euler_cassini", "basis_decomp"], workers=2, **kwargs)
    strip = lambda rep: [
        {**c.to_dict(), "ms": 0} for c in rep.cells
    ]
    assert strip(serial) == strip(parallel)


# each memoized power recurrence: its memo and a cell's key into it
_WEIGHT_MEMOS = {
    "conj2": (harness._CONJ2_WEIGHTS, lambda c: (c["k"], c["ell"])),
    "conj2_k2": (harness._CONJ2_K2_WEIGHTS, lambda c: c["ell"]),
}


@pytest.mark.parametrize("id", sorted(_WEIGHT_MEMOS))
def test_power_recurrence_weights_match_a_cold_build_per_cell(id):
    """A sweep over the catalog grid reading the n-free weights from the
    memo gives what each cell builds with the memo cleared first (tier-1
    runs this on both engines)."""
    memo, key = _WEIGHT_MEMOS[id]
    cells = CATALOG[id].cells()
    for m, _ in _WEIGHT_MEMOS.values():
        m.clear()
    warm = [residual(id, **c) for c in cells]
    kept = dict(memo)
    assert len(kept) == len({key(c) for c in cells})
    for c, got in zip(cells, warm):
        for m, _ in _WEIGHT_MEMOS.values():
            m.clear()
        assert residual(id, **c) == got
        assert memo[key(c)] == kept[key(c)]


def test_a_corrupted_weight_fails_every_cell_of_its_parameters(monkeypatch):
    num, w = harness._conj2_weights(2, 3)
    monkeypatch.setitem(harness._CONJ2_WEIGHTS, (2, 3), (num, (w[0] + 1, *w[1:])))
    w = harness._conj2_k2_weights(2)
    monkeypatch.setitem(harness._CONJ2_K2_WEIGHTS, 2, (*w[:3], w[3] + 1))
    rep = sweep(["conj2", "conj2_k2", "conj1_f"])
    failed = [(c.id, c.params) for c in rep.cells if c.status != "pass"]
    assert failed == [("conj2", {"k": 2, "ell": 3, "n": n}) for n in range(3, 8)] + [
        ("conj2_k2", {"ell": 2, "n": n}) for n in range(4, 8)
    ]
    assert all(c.residual for c in rep.cells if c.status == "fail")


def test_sweep_fits_from_the_sides_it_checked(monkeypatch):
    import dataclasses

    calls = []

    def off_by_q(n):
        calls.append(n)
        det, closed = harness._q_cassini_sides(n)
        return det, closed * Q

    entry = dataclasses.replace(CATALOG["q_cassini"], sides=off_by_q)
    monkeypatch.setitem(CATALOG, "q_cassini", entry)
    rep = sweep(["q_cassini"], overrides={"n": (2, 3)}, fit=True)
    assert [c.status for c in rep.cells] == ["fitted", "fitted"]
    assert [c.correction for c in rep.cells] == ["+q^-1", "+q^-1"]
    assert calls == [2, 3]
    rep = sweep(["q_cassini"], overrides={"n": (2, 2)})
    assert rep.cells[0].status == "fail"
    det, closed = harness._q_cassini_sides(2)
    assert rep.cells[0].residual == str(det - closed * Q)


def test_sweep_caps_the_pool(monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    few = sweep(["q_cassini"], overrides={"n": (1, 3)}, workers=1000)
    many = sweep(["q_cassini"], overrides={"n": (1, 12)}, workers=1000)
    assert sizes == [3, 4]  # capped by the task count, then by the cpu count
    assert few.all_pass() and many.all_pass()
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert sweep(["q_cassini"], overrides={"n": (1, 3)}, workers=1000).all_pass()
    assert sizes == [3, 4]  # unknown cpu count: serial, no pool


def test_sweep_takes_overrides_per_id_in_the_given_order():
    rep = sweep(
        ["q_cassini", "euler_cassini", "q_cassini"],
        overrides=[{"n": (2, 3)}, {"k": (1, 2), "n": (0, 1)}, None],
    )
    keys = [(c.id, tuple(sorted(c.params.items()))) for c in rep.cells]
    default_n = [c["n"] for c in CATALOG["q_cassini"].cells()]
    assert keys == (
        [("q_cassini", (("n", n),)) for n in (2, 3)]
        + [("euler_cassini", (("k", k), ("n", n))) for k in (1, 2) for n in (0, 1)]
        + [("q_cassini", (("n", n),)) for n in default_n]
    )
    assert rep.all_pass()
    with pytest.raises(ValueError):
        sweep(["q_cassini"], overrides=[None, None])


def test_sides_checks_parameter_names_like_residual():
    for params in ({"n": 1, "k": 2}, {}):
        with pytest.raises(BadParams) as from_residual:
            residual("q_cassini", **params)
        with pytest.raises(BadParams) as from_sides:
            sides("q_cassini", **params)
        assert str(from_sides.value) == str(from_residual.value)
        assert str(from_sides.value).startswith("q_cassini takes parameters ('n',)")


def test_every_public_name_resolves():
    import importlib
    import pkgutil

    import qfib

    names = ["qfib"] + [f"qfib.{m.name}" for m in pkgutil.iter_modules(qfib.__path__)]
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), (name, attr)


def test_sweep_unknown_id():
    with pytest.raises(BadParams):
        sweep(["nonsense"])


def test_fitted_counts_as_non_pass_unless_fit_ok():
    rep = VerificationReport(
        [CellResult("conj3", {"n": 2, "k": 1}, "fitted", correction="+1")]
    )
    assert not rep.all_pass()
    assert rep.all_pass(fit_ok=True)


def test_report_json_roundtrip():
    rep = sweep(["q_cassini"], overrides={"n": (1, 4)})
    blob = json.dumps(rep.to_json_dict("verify"), sort_keys=True)
    back = VerificationReport.from_json_dict(json.loads(blob))
    assert [c.to_dict() for c in back.cells] == [c.to_dict() for c in rep.cells]
    assert back.counts == rep.counts
    with pytest.raises(ValueError):
        VerificationReport.from_json_dict({"version": "0", "cells": []})


def test_catalog_grids_cover_every_entry():
    for id, entry in CATALOG.items():
        cells = entry.cells()
        assert cells, id
        # every default cell must carry exactly the declared parameters
        for cell in cells[:2]:
            assert tuple(cell) == entry.params


def test_gf_limit_residual_is_series_zero():
    for k in range(1, 5):
        r = residual("gf_limit", k=k)
        assert r.is_zero()


def test_residual_text_truncates_large_polys():
    big = sum((monomial(i + 1, ex=i) for i in range(200)), Poly())
    text = harness._residual_text(big)
    assert text.endswith(f"({len(big)} terms)")
    assert len(text) < len(str(big))
