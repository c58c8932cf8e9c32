"""CLI and package surface: output strings, exit codes, JSON schema, golden
tables, start-up imports and public names."""

import ast
import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qfib
from qfib import cli, harness, qcomb, sequences
from qfib.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_OVER_BUDGET,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    TRIANGLE_MAX_ROWS,
    _series_text,
    main,
)
from qfib.harness import REPORT_SCHEMA_VERSION, VerificationReport
from qfib.poly import NotDivisible, monomial, parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


# -------------------------------------------------------------------- eval


def test_eval_qfib5(capsys):
    code, out, _ = run(capsys, "eval", "qfib", "5")
    assert code == EXIT_OK
    assert out == "x^4 + q*s*x^2 + q^2*s*x^2 + q^3*s*x^2 + q^4*s^2"


def test_eval_fib4(capsys):
    code, out, _ = run(capsys, "eval", "fib", "4")
    assert (code, out) == (EXIT_OK, "x^3 + 2*s*x")


def test_closed_stdout_exits_141_without_traceback(capsys):
    # the pipe's read end is closed before the command starts, so its first
    # write fails with EPIPE, as when `| head -c 60` has read enough
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(qfib.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qfib.cli", "eval", "lucas", "90"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")
    # and main in this process, on such a pipe: once the write fails,
    # standard output points at devnull, so closing it cannot fail again
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe, contextlib.redirect_stdout(pipe):
        assert main(["eval", "lucas", "90"]) == EXIT_BROKEN_PIPE
    assert capsys.readouterr().err == ""


def _bare_python(*args):
    """A fresh sys.executable -S with only qfib's source on the path: -S
    keeps site's .pth hooks from loading modules before qfib does."""
    env = dict(os.environ, PYTHONPATH=str(Path(qfib.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-S", *args], env=env, capture_output=True, text=True, timeout=120
    )


_NOT_AT_START = ("dataclasses", "inspect", "importlib.resources", "fractions")


@pytest.mark.parametrize(
    "module, unused",
    [
        ("qfib.cli", (*_NOT_AT_START, "json")),
        ("qfib.harness", (*_NOT_AT_START, "qfib.matrices")),
        ("qfib.sequences", ("fractions",)),
    ],
    ids=["cli", "harness", "sequences"],
)
def test_import_loads_no_module_that_only_some_commands_use(module, unused):
    # the records are namedtuples or plain classes, and the golden files'
    # resources, the Fractions of --at and the json of verify --format json
    # are imported where they are used; the harness needs no matrix code
    code = f"import sys, {module}; print([m for m in {unused!r} if m in sys.modules])"
    proc = _bare_python("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _read_names(source: str) -> set[str]:
    """The names that code reads: each Name and attribute, but not an
    import, a def or class line's own name, or a string such as __all__'s."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_is_read_by_code_beyond_its_definition():
    """Each name in a src/qfib module's __all__ is read in src/qfib, in
    README's Library example or by the benchmark (perfbench/*.py): public
    API that nothing runs, such as a test's reference implementation, is
    kept in the tests."""
    root = Path(__file__).resolve().parents[1]
    modules = sorted(Path(qfib.__file__).parent.glob("*.py"))
    library = (root / "README.md").read_text().split("\n## Library\n", 1)[1]
    sources = [path.read_text() for path in modules + sorted((root / "perfbench").glob("*.py"))]
    sources.append(re.search(r"```python\n(.*?)```", library, re.S).group(1))
    read = set().union(*map(_read_names, sources))
    unread = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                unread += [f"{path.stem}.{name}" for name in ast.literal_eval(node.value)
                           if name not in read]
    assert unread == []


@pytest.mark.parametrize(
    "argv, out",
    [
        (["tables", "det-table", "--max-k", "2"], "1\n2*q^3*s^2*x^2\n"),
        (["coeff", "fibonomial", "5", "2", "--at", "x=1,s=1"], "15\n"),
        (["coeff", "qfibonomial", "3", "1", "--at", "x=2,s=1,q=1/2"], "9/2\n"),
        (["tables", "fibonomial-triangle", "--rows", "4", "--at", "x=1,s=1"],
         "1\n1 1\n1 1 1\n1 2 2 1\n1 3 6 3 1\n"),
    ],
    ids=["det-table", "coeff-at", "coeff-at-q", "triangle-at"],
)
def test_commands_import_what_they_use_where_they_use_it(argv, out):
    proc = _bare_python("-m", "qfib.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, out, "")


def test_eval_qfib_negative_index(capsys):
    code, out, _ = run(capsys, "eval", "qfib", "-1")
    assert (code, out) == (EXIT_OK, "q*s^-1")


def test_eval_qfib_shift(capsys):
    code, out, _ = run(capsys, "eval", "qfib", "3", "--shift", "1")
    assert (code, out) == (EXIT_OK, "x^2 + q^2*s")


def test_eval_shift_zero_is_read_by_qfib_only(capsys):
    code, out, _ = run(capsys, "eval", "qfib", "5", "--shift", "0")
    assert (code, out) == (EXIT_OK, run(capsys, "eval", "qfib", "5")[1])
    for shift in ("0", "1"):
        code, out, err = run(capsys, "eval", "fib", "3", "--shift", shift)
        assert (code, out) == (EXIT_USAGE, "")
        assert "--shift only applies to eval qfib" in err


def test_eval_neg_closed(capsys):
    code, out, _ = run(capsys, "eval", "qfib-neg-closed", "2")
    assert (code, out) == (EXIT_OK, "-q^3*s^-2*x")


def test_eval_lucas(capsys):
    code, out, _ = run(capsys, "eval", "lucas", "3")
    assert (code, out) == (EXIT_OK, "x^3 + 3*s*x")


def test_eval_gf(capsys):
    code, out, _ = run(capsys, "eval", "gf", "--s-order", "2", "--q-order", "4")
    assert (code, out) == (EXIT_OK, "1 + (q + q^2 + q^3)*s")


def test_eval_gf_rejects_shift(capsys):
    code, out, err = run(capsys, "eval", "gf", "--shift", "3")
    assert (code, out) == (EXIT_USAGE, "")
    assert "--shift only applies to eval qfib" in err


def test_eval_gf_rejects_index(capsys):
    code, out, err = run(capsys, "eval", "gf", "7")
    assert (code, out) == (EXIT_USAGE, "")
    assert "takes no index" in err


@pytest.mark.parametrize("flag", ["--s-order", "--q-order"])
def test_eval_order_flags_only_apply_to_gf(capsys, flag):
    code, out, err = run(capsys, "eval", "fib", "3", flag, "0")
    assert (code, out) == (EXIT_USAGE, "")
    assert f"{flag} only applies to eval gf" in err


def test_eval_gf_default_orders(capsys):
    code, out, _ = run(capsys, "eval", "gf")
    assert (code, out) == (EXIT_OK, _series_text(sequences.gf_truncated(8, 12)))


def test_series_text_groups_by_s_power():
    p = parse("-1 - q*s + s^2 + 2*q*s^3 + q^2*s^3 + 5*q^4*s^5")
    assert _series_text(p) == "-1 + (-q)*s + s^2 + (2*q + q^2)*s^3 + 5*q^4*s^5"
    assert _series_text(parse("0")) == "0"


def test_eval_missing_index_usage_error(capsys):
    code, _, err = run(capsys, "eval", "fib")
    assert code == EXIT_USAGE
    assert "needs an index" in err


def test_eval_lucas_negative_usage_error(capsys):
    code, _, err = run(capsys, "eval", "lucas", "-1")
    assert code == EXIT_USAGE


# ------------------------------------------------------------------- coeff


def test_coeff_fibonomial_evaluated(capsys):
    code, out, _ = run(capsys, "coeff", "fibonomial", "5", "2", "--at", "x=1,s=1")
    assert (code, out) == (EXIT_OK, "15")


def test_coeff_qbinom(capsys):
    code, out, _ = run(capsys, "coeff", "qbinom", "4", "2")
    assert (code, out) == (EXIT_OK, "1 + q + 2*q^2 + q^3 + q^4")


def test_coeff_fibonomial_symbolic(capsys):
    code, out, _ = run(capsys, "coeff", "fibonomial", "4", "2")
    assert code == EXIT_OK
    assert parse(out) == parse("2*s^2 + 3*s*x^2 + x^4")


def test_coeff_qfibonomial_reduced(capsys):
    code, out, _ = run(capsys, "coeff", "qfibonomial", "3", "1")
    assert (code, out) == (EXIT_OK, "x^2 + q*s")


def test_coeff_qfibonomial_pair_formatting(capsys, monkeypatch):
    monkeypatch.setattr(
        qcomb, "qfibonomial", lambda k, j: (parse("x^2 + s"), parse("x"))
    )
    code, out, _ = run(capsys, "coeff", "qfibonomial", "3", "1")
    assert (code, out) == (EXIT_OK, "(x^2 + s) / (x)")
    code, out, _ = run(
        capsys, "coeff", "qfibonomial", "3", "1", "--at", "x=2,s=1"
    )
    assert (code, out) == (EXIT_OK, "5/2")


def test_coeff_qfibonomial_at_a_zero_of_its_denominator(capsys):
    """The 4, 1 q-fibonomial at x = 0, s = q = 1 is 0/0: a usage error that
    names the kind, the parameters and the point, not Python's Fraction
    text."""
    code, out, err = run(capsys, "coeff", "qfibonomial", "4", "1", "--at", "x=0,s=1,q=1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: the denominator of qfibonomial 4 1 vanishes at x=0,s=1,q=1\n"


def test_coeff_at_a_pole(capsys):
    """fac 3 with shift -2 holds q^-1: at q = 0 a usage error that names the
    kind, the parameters and the point, not evaluate's bare message."""
    code, out, err = run(capsys, "coeff", "fac", "3", "--shift=-2", "--at", "x=1,s=1,q=0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: fac 3 has a pole at x=1,s=1,q=0\n"
    code, out, _ = run(capsys, "coeff", "fac", "3", "--shift=-2", "--at", "x=1,s=1,q=2")
    assert (code, out) == (EXIT_OK, "3/2")


def test_coeff_fibonomial_ell(capsys):
    code, out, _ = run(capsys, "coeff", "fibonomial-ell", "2", "1", "2")
    assert (code, out) == (EXIT_OK, "x^2 + 2*s")


def test_coeff_fac(capsys):
    code, out, _ = run(capsys, "coeff", "fac", "3", "--shift", "1")
    assert (code, out) == (EXIT_OK, "x^3 + q^2*s*x")


def test_coeff_wrong_arity(capsys):
    for argv, usage in [
        (["qbinom", "4"], "n k"),
        (["fibonomial", "4", "2", "1"], "n k"),
        (["qfibonomial", "5"], "k j"),
        (["fibonomial-ell", "2"], "k j ell"),
        (["fac", "3", "1"], "n (plus --shift/--ell)"),
    ]:
        code, out, err = run(capsys, "coeff", *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: coeff {argv[0]} needs: {usage}\n")


def test_coeff_bad_at(capsys):
    code, _, err = run(capsys, "coeff", "fibonomial", "4", "2", "--at", "y=1")
    assert code == EXIT_USAGE
    for at, message in [("x1", "bad assignment 'x1' in --at"), ("x=abc", "bad value 'abc' in --at")]:
        code, out, err = run(capsys, "coeff", "fibonomial", "4", "2", "--at", at)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["qfibonomial", "3", "1", "--ell", "2"],
            "--ell only applies to coeff fibonomial-ell and fac",
        ),
        (["qbinom", "4", "2", "--shift", "3"], "--shift only applies to coeff fac"),
        (["fibonomial", "4", "2", "--shift", "0"], "--shift only applies to coeff fac"),
        (
            ["fibonomial-ell", "3", "1", "2", "--ell", "5"],
            "--ell only applies to coeff fibonomial-ell without its ell parameter",
        ),
    ],
    ids=["qfibonomial-ell", "qbinom-shift", "fibonomial-shift-0", "fibonomial-ell-twice"],
)
def test_coeff_option_the_kind_does_not_read_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "coeff", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err


def test_coeff_fibonomial_ell_from_the_option(capsys):
    code, out, _ = run(capsys, "coeff", "fibonomial-ell", "2", "1", "--ell", "2")
    assert (code, out) == (EXIT_OK, "x^2 + 2*s")


# ------------------------------------------------------------------ verify


def test_verify_euler_cassini_grid(capsys):
    code, out, _ = run(capsys, "verify", "euler_cassini", "--k", "1..4", "--n=-2..6")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "cells=36 pass=36 fail=0 fitted=0"
    assert all(line.startswith("[pass]") for line in lines[:-1])


def test_verify_json_schema_and_roundtrip(capsys):
    code, out, _ = run(
        capsys, "verify", "conj1_f", "--k", "2..2", "--n", "3..10", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["version"] == REPORT_SCHEMA_VERSION
    assert data["command"] == "verify"
    assert data["summary"] == {"pass": 8, "fail": 0, "fitted": 0}
    assert len(data["cells"]) == 8
    cell = data["cells"][0]
    assert set(cell) == {"id", "params", "status", "ms"}
    back = VerificationReport.from_json_dict(data)
    assert back.to_json_dict("verify") == data


def test_verify_all_with_caps(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "all",
        "--max-k",
        "1",
        "--max-ell",
        "1",
        "--n",
        "3..4",
        "--fit",
    )
    assert code == EXIT_OK
    assert out.splitlines()[-1].endswith("fail=0 fitted=0")


def test_verify_deterministic_output(capsys):
    args = ("verify", "q_cassini", "--n", "1..6", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    for d in (d1, d2):
        for cell in d["cells"]:
            cell["ms"] = 0
    assert d1 == d2


def test_verify_failure_exit_code(capsys):
    # k = 0 is outside euler_cassini's signature: the cell fails, exit 1
    code, out, _ = run(capsys, "verify", "euler_cassini", "--k", "0..0", "--n", "1..1")
    assert code == EXIT_VERIFY_FAIL
    assert "error:" in out


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "twin_prime_conjecture")
    assert code == EXIT_USAGE
    assert "unknown identity" in err


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "q_cassini", "--n", "oops")
    assert code == EXIT_USAGE
    code, out, err = run(capsys, "verify", "q_cassini", "--n", "5..3")
    assert (code, out, err) == (EXIT_USAGE, "", "error: empty range '5..3'\n")


@pytest.mark.parametrize(
    "argv, ids",
    [
        (["det_classical_ell", "--n", "0"], "det_classical_ell"),
        (["conj3", "--n", "0"], "conj3"),
        (["conj3", "conj4", "--n", "0", "--format", "json"], "conj3, conj4"),
        (["conj4", "--max-k", "0"], "conj4"),
    ],
)
def test_verify_selecting_no_cell_is_a_usage_error(capsys, argv, ids):
    # each entry's valid rule (n >= k) drops every cell at n = 0, and
    # --max-k 0 leaves k no value
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: these ranges select no cell of {ids}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["q_cassini", "--k", "1..2"], "--k matches no parameter of q_cassini"),
        (["q_cassini", "--max-ell", "1"], "--max-ell matches no parameter of q_cassini"),
        (["gf_limit", "--n", "1..2"], "--n matches no parameter of gf_limit"),
        (
            ["q_cassini", "gf_limit", "--N=-1..1"],
            "--N matches no parameter of q_cassini, gf_limit",
        ),
        (["conj2", "--k", "1", "--max-k", "1", "--m", "0"], "--m matches no parameter of conj2"),
    ],
)
def test_verify_option_no_named_identity_takes_is_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, message
):
    # checked before the --out path and before any cell runs
    cells = []
    monkeypatch.setattr(harness, "_run_cell", lambda *a, **k: cells.append(a))
    target = tmp_path / "no_such_dir" / "x.json"
    code, out, err = run(capsys, "verify", *argv, "--out", str(target))
    assert (code, out, err, cells) == (EXIT_USAGE, "", f"error: {message}\n", [])


def test_verify_all_with_no_k_still_runs_the_cells_without_k(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-k", "0")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "cells=263 pass=263 fail=0 fitted=0"


def test_verify_gen_cassini_range_flags(capsys):
    code, out, _ = run(
        capsys, "verify", "gen_cassini", "--N=-1..2", "--m", "0..1", "--ell", "1..2"
    )
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "cells=16 pass=16 fail=0 fitted=0"


def test_verify_jobs_flag(capsys):
    code, out, _ = run(capsys, "verify", "q_cassini", "--n", "1..4", "--jobs", "2")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "cells=4 pass=4 fail=0 fitted=0"


def test_verify_jobs_must_be_positive(capsys):
    for jobs in ("--jobs=0", "--jobs=-2"):
        code, out, err = run(capsys, "verify", "q_cassini", "--n", "1..2", jobs)
        assert code == EXIT_USAGE, jobs
        assert "--jobs" in err and out == ""


def test_verify_forks_one_child_and_keeps_the_given_order(capsys, monkeypatch):
    forks, writes = [], []
    real_fork, real_write = os.fork, os.write

    def fork():
        forks.append(os.getpid())
        return real_fork()

    def write(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    ids = ["euler_cassini", "basis_decomp", "q_cassini"]
    code, out, _ = run(capsys, "verify", *ids, "--jobs", "2", "--format", "json")
    assert code == EXIT_OK
    cells = json.loads(out)["cells"]
    count = len(cells)
    assert count == sum(len(harness.CATALOG[id].cells()) for id in ids)
    assert forks == [os.getpid()]  # --jobs 2: this process and one forked child
    # the chunk indices, in order, in one write
    [queue] = writes
    chunks = len(queue) // 4
    assert queue == b"".join(i.to_bytes(4, "little") for i in range(chunks))
    # several cells per chunk, and several chunks per process
    assert any(-(-count // size) == chunks for size in range(2, count // 4 + 1))
    order = [c["id"] for c in cells]
    assert order == sorted(order, key=ids.index)
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_verify_reports_a_dead_worker_as_an_internal_error(capsys, monkeypatch):
    caller = os.getpid()
    real = harness._run_cell

    def run_cell(task):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.01)  # leave the child a chunk to take
        return real(task)

    monkeypatch.setattr(harness, "_run_cell", run_cell)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code, out, err = run(capsys, "verify", "q_cassini", "--jobs", "2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: sweep worker ")
    assert err.endswith(" exited with status 3\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_report_is_the_same_for_any_jobs(capsys):
    results = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "verify", "all", "--format", "json", "--jobs", jobs)
        data = json.loads(out)
        for cell in data["cells"]:
            cell["ms"] = 0
        results.append((code, data))
    assert results[0] == results[1]
    assert results[0][0] == EXIT_OK


def test_verify_repeated_id_reports_its_cells_twice(capsys):
    code, out, _ = run(capsys, "verify", "q_cassini", "q_cassini", "--n", "1..3")
    assert code == EXIT_OK
    lines = [re.sub(r"\(.* ms\)", "", line) for line in out.splitlines()]
    assert lines[-1] == "cells=6 pass=6 fail=0 fitted=0"
    assert lines[:3] == lines[3:6]
    assert lines[0].startswith("[pass] q_cassini n=1")


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "q_cassini",
        "--n",
        "1..3",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    data = json.loads(target.read_text())
    assert data["summary"]["pass"] == 3


# ------------------------------------------------------------------ tables


def test_tables_det_table(capsys):
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["1", "2*q^3*s^2*x^2"]


def test_tables_det_table_golden_match(capsys):
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "3")
    assert code == EXIT_OK
    assert "golden mismatch" not in out


def test_tables_det_table_budget(capsys):
    code, _, err = run(capsys, "tables", "det-table", "--max-k", "5")
    assert code == EXIT_OVER_BUDGET
    assert "budget" in err
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "5", "--allow-slow")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5
    code, _, err = run(
        capsys, "tables", "det-table", "--max-k", "6", "--allow-slow"
    )
    assert code == EXIT_OVER_BUDGET


def test_tables_triangle_evaluated(capsys):
    code, out, _ = run(
        capsys, "tables", "fibonomial-triangle", "--rows", "5", "--at", "x=1,s=1"
    )
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "1 5 15 15 5 1"


@pytest.mark.parametrize("at", ["x=1,s=1", "x=2,s=3", "x=1/2,s=-1", "x=0,s=1", "x=3,s=0",
                                "x=-2,s=5/3", "x=0,s=0"])
def test_tables_triangle_evaluated_against_its_recurrence(capsys, monkeypatch, at):
    from qfib.poly import Poly

    code, out, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "12", "--at", at)
    assert code == EXIT_OK and "mismatch" not in out
    # one entry evaluated one off disagrees with the division-free rule
    real = Poly.evaluate

    def off(p, **at):
        value = real(p, **at)
        return value + 1 if len(p) == 3 else value

    monkeypatch.setattr(Poly, "evaluate", off)
    code, out, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "4", "--at", at)
    assert code == EXIT_VERIFY_FAIL
    assert len(out.splitlines()) == 6
    assert out.splitlines()[-1] == f"triangle row 4 at {at}: recurrence mismatch"


def test_tables_triangle_symbolic_golden(capsys):
    code, out, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "5")
    assert code == EXIT_OK
    assert "golden mismatch" not in out
    assert out.splitlines()[3] == "1 | x^2 + s | x^2 + s | 1"


def test_tables_golden_mismatch_reported(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_golden_lines", lambda name: ["1\tnot*the*right*row"])
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "2")
    assert code == EXIT_VERIFY_FAIL
    assert "golden mismatch" in out


def test_tables_missing_golden_file_is_a_mismatch(capsys, monkeypatch):
    real = cli._golden_lines
    monkeypatch.setattr(cli, "_golden_lines", lambda name: real("no_such_" + name))
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "2")
    assert code == EXIT_VERIFY_FAIL
    assert "golden file det_table.txt missing" in out
    code, out, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "3")
    assert code == EXIT_VERIFY_FAIL
    assert "golden file fibonomial_triangle.txt missing" in out


def test_tables_det_table_missing_row_is_a_mismatch(capsys, monkeypatch):
    real = cli._golden_lines("det_table.txt")
    assert [line.split("\t", 1)[0] for line in real] == ["1", "2", "3", "4", "5"]
    monkeypatch.setattr(cli, "_golden_lines", lambda name: real[:2])
    code, out, _ = run(capsys, "tables", "det-table", "--max-k", "3")
    assert code == EXIT_VERIFY_FAIL
    assert out.splitlines()[-1] == "det-table k=3: golden row missing"


def test_tables_triangle_missing_row_is_a_mismatch(capsys, monkeypatch):
    real = cli._golden_lines("fibonomial_triangle.txt")
    assert real[-1].startswith(f"{TRIANGLE_MAX_ROWS}\t{TRIANGLE_MAX_ROWS}\t")
    monkeypatch.setattr(cli, "_golden_lines", lambda name: real[:-1])
    code, out, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "11")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "12")
    assert code == EXIT_VERIFY_FAIL
    assert out.splitlines()[-1] == "triangle (12,12): golden row missing"


@pytest.mark.parametrize(
    "argv, first",
    [
        (["det-table", "--max-k", "2"], "det-table: golden file det_table.txt"),
        (["fibonomial-triangle", "--rows", "2"], "triangle: golden file fibonomial_triangle.txt"),
    ],
    ids=["det-table", "triangle"],
)
def test_tables_malformed_golden_line_is_a_mismatch(capsys, monkeypatch, argv, first):
    # a line with too few tab-separated fields, beside every real row
    real = cli._golden_lines
    monkeypatch.setattr(cli, "_golden_lines", lambda name: ["garbage", *real(name)])
    code, out, err = run(capsys, "tables", *argv)
    assert (code, err) == (EXIT_VERIFY_FAIL, "")
    assert out.splitlines()[-1] == first + " has a malformed line"
    assert "golden mismatch" not in out and "golden row missing" not in out


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ax, as_), ac in a.items():
        for (bx, bs), bc in b.items():
            out[(ax + bx, as_ + bs)] = out.get((ax + bx, as_ + bs), 0) + ac * bc
    return {key: c for key, c in out.items() if c}


def test_triangle_golden_matches_the_fibonomial_pascal_recurrence():
    # {(ex, es): coeff} arithmetic, sharing no code with qcomb.fibonomial:
    # F(n) = x F(n-1) + s F(n-2), and [n, k] = F(k+1) [n-1, k] + s F(n-k-1) [n-1, k-1]
    x, s = {(1, 0): 1}, {(0, 1): 1}
    F = [{}, {(0, 0): 1}]
    while len(F) <= TRIANGLE_MAX_ROWS:
        F.append(_padd(_pmul(x, F[-1]), _pmul(s, F[-2])))
    tri = {}
    for n in range(TRIANGLE_MAX_ROWS + 1):
        for k in range(n + 1):
            if k in (0, n):
                tri[(n, k)] = {(0, 0): 1}
            else:
                tri[(n, k)] = _padd(
                    _pmul(F[k + 1], tri[(n - 1, k)]),
                    _pmul(_pmul(s, F[n - k - 1]), tri[(n - 1, k - 1)]),
                )
    golden = {}
    for line in cli._golden_lines("fibonomial_triangle.txt"):
        n, k, text = line.split("\t")
        terms = list(parse(text).terms())
        assert all(eq == ez == 0 for (_, _, eq, ez), _ in terms), line
        golden[(int(n), int(k))] = {(ex, es): c for (ex, es, _, _), c in terms}
    assert golden == tri


def test_tables_triangle_budget(capsys):
    code, _, _ = run(capsys, "tables", "fibonomial-triangle", "--rows", "13")
    assert code == EXIT_OVER_BUDGET


def test_tables_triangle_negative_rows_usage_error(capsys):
    code, out, err = run(capsys, "tables", "fibonomial-triangle", "--rows", "-1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "rows must be >= 0" in err


def test_tables_hoggatt_charpoly(capsys):
    code, out, _ = run(capsys, "tables", "hoggatt-charpoly", "2")
    assert (code, out) == (EXIT_OK, "z^2 - x*z - s")
    for n in range(1, 7):
        assert run(capsys, "tables", "hoggatt-charpoly", str(n))[0] == EXIT_OK
    code, _, _ = run(capsys, "tables", "hoggatt-charpoly", "7")
    assert code == EXIT_OVER_BUDGET
    code, _, _ = run(capsys, "tables", "hoggatt-charpoly")
    assert code == EXIT_USAGE


def test_tables_hoggatt_charpoly_against_its_closed_form(capsys, monkeypatch):
    from qfib.matrices import PolyMatrix

    # one wrong coefficient of det(zI - H) is a mismatch with the closed form
    real = PolyMatrix.charpoly
    monkeypatch.setattr(PolyMatrix, "charpoly", lambda m: real(m) + monomial(1, es=1))
    code, out, _ = run(capsys, "tables", "hoggatt-charpoly", "3")
    assert code == EXIT_VERIFY_FAIL
    assert out.splitlines() == [
        "z^3 - x^2*z^2 - s*z^2 - s*x^2*z - s^2*z + s + s^3",
        "hoggatt-charpoly n=3: closed form mismatch",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["det-table", "7", "--at", "x=1,s=1", "--rows", "9"],
            "n only applies to tables hoggatt-charpoly",
        ),
        (["det-table", "--rows", "9"], "--rows only applies to tables fibonomial-triangle"),
        (
            ["hoggatt-charpoly", "2", "--at", "x=1,s=1", "--allow-slow"],
            "--allow-slow only applies to tables det-table",
        ),
        (
            ["hoggatt-charpoly", "2", "--at", "x=1,s=1"],
            "--at only applies to tables fibonomial-triangle",
        ),
        (["fibonomial-triangle", "--max-k", "3"], "--max-k only applies to tables det-table"),
    ],
    ids=["det-table-n", "det-table-rows", "hoggatt-allow-slow", "hoggatt-at", "triangle-max-k"],
)
def test_tables_option_the_kind_does_not_read_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "tables", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err


def test_eval_out_file(tmp_path, capsys):
    target = tmp_path / "f5.txt"
    code, out, _ = run(capsys, "eval", "qfib", "5", "--out", str(target))
    assert code == EXIT_OK
    assert target.read_text().strip() == "x^4 + q*s*x^2 + q^2*s*x^2 + q^3*s*x^2 + q^4*s^2"


@pytest.mark.parametrize(
    "argv",
    [["eval", "fib", "3"], ["verify", "q_cassini", "--n", "2"]],
    ids=["eval", "verify"],
)
def test_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "no_such_dir" / "x.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: cannot open --out {str(target)!r}: No such file or directory\n"
    assert not target.parent.exists()


class _FakeFile(io.StringIO):
    pass


def _no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


_WRITERS = pytest.mark.parametrize(
    "argv",
    [["eval", "fib", "5"], ["verify", "q_cassini", "--n", "2"]],
    ids=["eval", "verify"],
)


@_WRITERS
@pytest.mark.parametrize("failing", ["write", "close"])
def test_failed_write_to_out_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, failing):
    # a full disk fails the write, or the close, whose flush a short text
    # waits for
    def open_on_full_disk(path, mode):
        fh = _FakeFile()
        setattr(fh, failing, _no_space)
        return fh

    monkeypatch.setattr(cli, "open", open_on_full_disk, raising=False)
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: cannot write --out {str(target)!r}: No space left on device\n"


@_WRITERS
def test_failed_write_to_stdout_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the failed stdout's descriptor is pointed at devnull, so the fake's
    # is a scratch file's
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    stdout = _FakeFile()
    stdout.write, stdout.fileno = _no_space, lambda: fd
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(argv)
    finally:
        os.close(fd)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: cannot write standard output: No space left on device\n"


def test_verify_checks_the_out_path_before_its_sweep(tmp_path, capsys, monkeypatch):
    cells = []
    real = harness._run_cell
    monkeypatch.setattr(harness, "_run_cell", lambda *a, **k: cells.append(a) or real(*a, **k))
    target = tmp_path / "no_such_dir" / "x.json"
    code, out, err = run(capsys, "verify", "all", "--out", str(target))
    assert (code, out, cells) == (EXIT_USAGE, "", [])
    assert err == f"error: cannot open --out {str(target)!r}: No such file or directory\n"
    # the check neither creates nor truncates the file when the run fails later
    fresh, kept, link = tmp_path / "fresh.json", tmp_path / "kept.json", tmp_path / "link"
    kept.write_text("kept\n")
    link.symlink_to(tmp_path / "dangling.json")
    for target in (fresh, kept, link):
        code, _, err = run(capsys, "verify", "conj3", "--n", "0", "--out", str(target))
        assert code == EXIT_USAGE
        assert err == "error: these ranges select no cell of conj3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "link"]
    assert kept.read_text() == "kept\n"
    assert cells == []


def test_broken_exact_division_is_an_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise NotDivisible("nonzero remainder")

    monkeypatch.setattr(harness, "_power_det", broken)
    code, out, err = run(capsys, "tables", "det-table", "--max-k", "2")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("internal error: nonzero remainder")
    # inside a sweep the same fault stays report content: a failed cell
    code, out, _ = run(capsys, "verify", "q_cassini", "--n", "2", "--format", "json")
    assert code == EXIT_VERIFY_FAIL
    (cell,) = json.loads(out)["cells"]
    assert cell["status"] == "fail"
    assert cell["residual"] == "error: nonzero remainder"


def test_exponent_overflow_is_over_budget(capsys, monkeypatch):
    code, out, err = run(capsys, "eval", "qfib", "9", "--shift", "1100000")
    assert (code, out) == (EXIT_OVER_BUDGET, "")
    assert err == (
        "error: substitution exponent exceeds supported range"
        " (|exponent| <= 4194304 per variable)\n"
    )
    # an input exponent past its own limit stays a usage error
    monkeypatch.setattr(sequences, "qfib", lambda n, shift=0: monomial(1, es=1 << 21))
    code, _, err = run(capsys, "eval", "qfib", "9")
    assert code == EXIT_USAGE
    assert err.startswith("error: exponent out of supported range")


def test_exponent_overflow_inside_a_sweep_is_a_failed_cell(capsys, monkeypatch):
    def overflowing(*args, **kwargs):
        return monomial(1, es=1 << 20) ** 8

    monkeypatch.setattr(harness, "_power_det", overflowing)
    code, out, _ = run(capsys, "verify", "q_cassini", "--n", "2", "--format", "json")
    assert code == EXIT_VERIFY_FAIL
    (cell,) = json.loads(out)["cells"]
    assert cell["status"] == "fail"
    assert cell["residual"] == "error: product exponent exceeds supported range"
