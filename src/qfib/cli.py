"""Command-line front end: eval | coeff | verify | tables.

Exit codes: 0 all pass, 1 verification failure (a failed cell, a table
that disagrees with its golden file or finds it missing or malformed, a
Hoggatt characteristic polynomial that disagrees with its closed form, or
an evaluated fibonomial triangle that disagrees with the division-free
rule <n,k> = F(k+1)<n-1,k> + s F(n-k-1)<n-1,k-1>), 2
usage error (an --out path that cannot be opened is one; verify checks it
before its sweep), 3 budget exceeded (a desk-scale bound, or an exponent
that arithmetic pushed past the supported range), 4 internal error (an
exact division that left a remainder, or a verify --jobs child process
that died), 141 standard output closed early.
Ranges are inclusive "a..b" (a single "a" works too); negative bounds must
be attached with '=', e.g. --n=-2..6.  Polynomial output uses
the canonical grammar, bit-exact, so reports are stable regression inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness, qcomb, sequences
from .matrices import hoggatt, hoggatt_closed_form
from .poly import _VAR_GUARD, ONE, NotDivisible, PoleAtZero, Poly

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_OVER_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # what a shell reports for a command killed by SIGPIPE

_JOBS_HELP = (
    "processes that run cells: this one and N - 1 forked children, capped by the CPU count; "
    "serial where os.fork is missing"
)

# desk-scale bounds for the tables subcommand
DET_TABLE_DEFAULT_MAX_K = 4
DET_TABLE_SLOW_MAX_K = 5
TRIANGLE_MAX_ROWS = 12
HOGGATT_MAX_N = 6


class _UsageError(Exception):
    pass


class _OverBudget(Exception):
    """A table request past its desk-scale bound (exit 3)."""

    def __init__(self, what: str, bound: str):
        super().__init__(f"{what} exceeds the desk-scale budget ({bound})")


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise _UsageError(f"bad range {text!r}; expected a..b") from None
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


def _parse_at(text: str) -> dict:
    from fractions import Fraction

    values = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise _UsageError(f"bad assignment {piece!r} in --at")
        name, val = piece.split("=", 1)
        name = name.strip()
        if name not in ("x", "s", "q", "z"):
            raise _UsageError(f"unknown variable {name!r} in --at")
        try:
            values[name] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"bad value {val!r} in --at") from None
    return values


# the options each kind reads; any other option the user gives is a usage error
_READS = {
    "eval": {"qfib": ("--shift",), "gf": ("--s-order", "--q-order")},
    "coeff": {"fibonomial-ell": ("--ell",), "fac": ("--shift", "--ell")},
    "tables": {
        "det-table": ("--max-k", "--allow-slow"),
        "fibonomial-triangle": ("--rows", "--at"),
        "hoggatt-charpoly": ("n",),
    },
}


def _reject_unread(command: str, kind: str, given: dict) -> None:
    """A usage error for each option in given (flag -> value, None when the
    user left it out) that `command kind` does not read."""
    reads = _READS[command]
    for flag, value in given.items():
        if value is not None and flag not in reads.get(kind, ()):
            users = " and ".join(k for k, flags in reads.items() if flag in flags)
            raise _UsageError(f"{flag} only applies to {command} {users}")


class _StdoutClosed(Exception):
    """The reader of standard output went away (a closed pipe)."""


def _cannot_open(out: str, exc: OSError) -> _UsageError:
    return _UsageError(f"cannot open --out {out!r}: {exc.strerror}")


def _check_out(out: str) -> None:
    """Fail as _emit would on an --out path that cannot be opened, before a
    long run; the path is left as it was, neither truncated nor created."""
    existed = os.path.exists(out)
    try:
        os.close(os.open(out, os.O_WRONLY | os.O_CREAT))
    except OSError as exc:
        raise _cannot_open(out, exc) from None
    if not existed:  # the file made, also where a dangling symlink points
        os.unlink(os.path.realpath(out))


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            fh = open(out, "w")
        except OSError as exc:
            raise _cannot_open(out, exc) from None
        with fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            print(text)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        except BrokenPipeError:
            raise _StdoutClosed from None


def _fraction_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ------------------------------------------------------------------- eval


def _series_text(p: Poly) -> str:
    """A series in s and q, one q-polynomial per power of s, lowest first."""
    rows: dict[int, dict] = {}
    for (_, es, eq, _), c in p.terms():
        rows.setdefault(es, {})[(0, 0, eq, 0)] = c
    chunks = []
    for k in sorted(rows):
        qpoly = Poly(rows[k])
        qs = qpoly.to_canonical_string()
        if k == 0:
            chunks.append(qs)
            continue
        spow = "s" if k == 1 else f"s^{k}"
        if len(qpoly) == 1 and not qs.startswith("-"):
            chunks.append(f"{qs}*{spow}" if qs != "1" else spow)
        else:
            chunks.append(f"({qs})*{spow}")
    return " + ".join(chunks) if chunks else "0"


def _cmd_eval(args) -> int:
    kind = args.kind
    if kind == "gf":
        if args.n is not None:
            raise _UsageError("eval gf takes no index n")
    elif args.n is None:
        raise _UsageError(f"eval {kind} needs an index n")
    given = {"--shift": args.shift, "--s-order": args.s_order, "--q-order": args.q_order}
    _reject_unread("eval", kind, given)
    if kind == "gf":
        s_order = 8 if args.s_order is None else args.s_order
        q_order = 12 if args.q_order is None else args.q_order
        series = sequences.gf_truncated(s_order, q_order)
        _emit(_series_text(series), args.out)
        return EXIT_OK
    n = args.n
    if kind == "fib":
        p = sequences.fib(n)
    elif kind == "lucas":
        p = sequences.lucas(n)
    elif kind == "qfib":
        p = sequences.qfib(n, shift=0 if args.shift is None else args.shift)
    elif kind == "qfib-neg-closed":
        p = sequences.qfib_neg_closed(n)
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown eval kind {kind!r}")
    _emit(p.to_canonical_string(), args.out)
    return EXIT_OK


# ------------------------------------------------------------------ coeff


def _coeff_value(kind: str, params: list[int], shift: int | None, ell: int | None):
    _reject_unread("coeff", kind, {"--shift": shift, "--ell": ell})
    if kind == "qbinom":
        if len(params) != 2:
            raise _UsageError("coeff qbinom needs: n k")
        return qcomb.qbinom(*params)
    if kind == "fibonomial":
        if len(params) != 2:
            raise _UsageError("coeff fibonomial needs: n k")
        return qcomb.fibonomial(*params)
    if kind == "qfibonomial":
        if len(params) != 2:
            raise _UsageError("coeff qfibonomial needs: k j")
        return qcomb.qfibonomial(*params)
    if kind == "fibonomial-ell":
        if len(params) == 3:
            if ell is not None:
                raise _UsageError(
                    "--ell only applies to coeff fibonomial-ell without its ell parameter"
                )
            k, j, e = params
        elif len(params) == 2:
            k, j = params
            e = 1 if ell is None else ell
        else:
            raise _UsageError("coeff fibonomial-ell needs: k j ell")
        return qcomb.fibonomial(k, j, e)
    if kind == "fac":
        if len(params) != 1:
            raise _UsageError("coeff fac needs: n (plus --shift/--ell)")
        shift = 0 if shift is None else shift
        return qcomb.fac(params[0], shift=shift, ell=1 if ell is None else ell)
    raise _UsageError(f"unknown coeff kind {kind!r}")  # pragma: no cover


def _cmd_coeff(args) -> int:
    value = _coeff_value(args.kind, args.params, args.shift, args.ell)
    num, den = value if isinstance(value, tuple) else (value, ONE)
    if not args.at:
        text = f"({num}) / ({den})" if isinstance(value, tuple) else num.to_canonical_string()
        _emit(text, args.out)
        return EXIT_OK
    at = _parse_at(args.at)
    where = f"{args.kind} {' '.join(map(str, args.params))}"
    try:
        d, n = den.evaluate(**at), num.evaluate(**at)
    except PoleAtZero:
        raise _UsageError(f"{where} has a pole at {args.at}") from None
    if not d:
        raise _UsageError(f"the denominator of {where} vanishes at {args.at}")
    _emit(_fraction_str(n / d), args.out)
    return EXIT_OK


# ----------------------------------------------------------------- verify


def _report_text(report: harness.VerificationReport) -> str:
    lines = []
    for cell in report.cells:
        params = " ".join(f"{k}={v}" for k, v in sorted(cell.params.items()))
        line = f"[{cell.status}] {cell.id} {params} ({cell.ms} ms)"
        if cell.correction:
            line += f" correction={cell.correction}"
        if cell.residual:
            line += f" residual={cell.residual}"
        lines.append(line)
    c = report.counts
    lines.append(
        f"cells={len(report.cells)} pass={c['pass']} fail={c['fail']} fitted={c['fitted']}"
    )
    return "\n".join(lines)


def run_verify(args) -> tuple[harness.VerificationReport, str]:
    """Sweep the identities a parsed `verify` command names; return the
    report and its text in the requested format."""
    ranges = {}
    for name in ("n", "k", "ell", "m", "N"):
        raw = getattr(args, f"range_{name}")
        if raw is not None:
            ranges[name] = _parse_range(raw)
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    ids = list(args.ids)
    if ids == ["all"]:
        ids = list(harness.CATALOG)
    for id in ids:
        if id not in harness.CATALOG:
            raise _UsageError(f"unknown identity {id!r}")
    caps = {"k": args.max_k, "ell": args.max_ell}
    overrides = []
    for id in ids:
        over = {}
        for p, spec in harness.CATALOG[id].grid_spec.items():
            lo, hi = ranges.get(p, spec)
            cap = caps.get(p)
            over[p] = (lo, hi if cap is None else min(hi, cap))
        overrides.append(over)
    if args.out:
        _check_out(args.out)
    report = harness.sweep(ids, overrides=overrides, fit=args.fit, workers=args.jobs)
    if not report.cells:  # a run that checks nothing must not pass
        raise _UsageError(f"these ranges select no cell of {', '.join(ids)}")
    if args.format == "json":
        text = json.dumps(report.to_json_dict("verify"), indent=2, sort_keys=True)
    else:
        text = _report_text(report)
    return report, text


def _cmd_verify(args) -> int:
    report, text = run_verify(args)
    _emit(text, args.out)
    return EXIT_OK if report.all_pass(fit_ok=args.fit_ok) else EXIT_VERIFY_FAIL


# ----------------------------------------------------------------- tables


def _golden_lines(name: str) -> list[str] | None:
    """Non-blank lines of a packaged golden file, or None if it is missing
    (callers report that as a mismatch)."""
    from importlib import resources

    path = resources.files("qfib").joinpath(f"golden/{name}")
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        return None
    return [line for line in text.splitlines() if line.strip()]


def _golden_mismatches(table: str, name: str, label: str, rows: dict) -> list[str]:
    """The golden check of a table: rows maps the leading tab-separated
    fields of a golden line (a tuple of strings) to the text the line must
    hold, and label formats those fields into the row's name.  A missing
    file, and a line with too few fields, are mismatches too."""
    golden = _golden_lines(name)
    if golden is None:
        return [f"{table}: golden file {name} missing"]
    width = len(next(iter(rows)))
    want, out = {}, []
    for line in golden:
        fields = line.split("\t", width)
        if len(fields) > width:
            want[tuple(fields[:width])] = fields[width]
        elif not out:
            out.append(f"{table}: golden file {name} has a malformed line")
    for key, text in rows.items():
        exp = want.get(key)
        if exp is None:
            out.append(f"{table} {label.format(*key)}: golden row missing")
        elif exp != text:
            out.append(f"{table} {label.format(*key)}: golden mismatch")
    return out


def _triangle_by_rule(rows: int, at: dict) -> list[list[Fraction]]:
    """Rows 0..rows of the fibonomial triangle at the point `at`, by the
    division-free rule <n, k> = F(k+1) <n-1, k> + s F(n-k-1) <n-1, k-1>,
    <n, 0> = <n, n> = 1, with F(m) = x F(m-1) + s F(m-2) in Fractions: no
    code shared with qcomb.fibonomial or Poly.evaluate.  A variable missing
    from `at` is taken as 0; where the evaluated rows printed, their
    entries do not depend on it."""
    from fractions import Fraction

    x, s = at.get("x", Fraction(0)), at.get("s", Fraction(0))
    F = [Fraction(0), Fraction(1)]
    while len(F) <= rows:
        F.append(x * F[-1] + s * F[-2])
    out = [[Fraction(1)]]
    for n in range(1, rows + 1):
        up = out[-1]
        inner = [F[k + 1] * up[k] + s * F[n - k - 1] * up[k - 1] for k in range(1, n)]
        out.append([Fraction(1), *inner, Fraction(1)])
    return out


def _cmd_tables(args) -> int:
    kind = args.kind
    given = {
        "n": args.n,
        "--max-k": args.max_k,
        "--allow-slow": args.allow_slow,
        "--rows": args.rows,
        "--at": args.at,
    }
    _reject_unread("tables", kind, given)
    lines: list[str] = []
    mismatches: list[str] = []
    if kind == "det-table":
        max_k = 3 if args.max_k is None else args.max_k
        if max_k > DET_TABLE_SLOW_MAX_K or (
            max_k > DET_TABLE_DEFAULT_MAX_K and not args.allow_slow
        ):
            raise _OverBudget(
                f"det-table max-k {max_k}",
                f"k <= {DET_TABLE_DEFAULT_MAX_K}, k = {DET_TABLE_SLOW_MAX_K} with --allow-slow",
            )
        rows = {(str(k),): p.to_canonical_string() for k, p in harness.det_table(max_k).items()}
        lines = list(rows.values())
        mismatches = _golden_mismatches("det-table", "det_table.txt", "k={}", rows)
    elif kind == "fibonomial-triangle":
        rows_n = 5 if args.rows is None else args.rows
        if rows_n < 0:
            raise _UsageError(f"triangle rows must be >= 0, got {rows_n}")
        if rows_n > TRIANGLE_MAX_ROWS:
            raise _OverBudget(f"triangle rows {rows_n}", f"rows <= {TRIANGLE_MAX_ROWS}")
        at = _parse_at(args.at) if args.at else None
        rows = {}
        values = []
        for n in range(rows_n + 1):
            entries = [qcomb.fibonomial(n, k) for k in range(n + 1)]
            if at:
                values.append([e.evaluate(**at) for e in entries])
                lines.append(" ".join(map(_fraction_str, values[-1])))
            else:
                row = [e.to_canonical_string() for e in entries]
                rows.update(((str(n), str(k)), text) for k, text in enumerate(row))
                lines.append(" | ".join(row))
        if at:
            wrong = [n for n, row in enumerate(_triangle_by_rule(rows_n, at)) if row != values[n]]
            if wrong:
                mismatches = [f"triangle row {wrong[0]} at {args.at}: recurrence mismatch"]
        else:
            mismatches = _golden_mismatches(
                "triangle", "fibonomial_triangle.txt", "({},{})", rows
            )
    elif kind == "hoggatt-charpoly":
        n = args.n
        if n is None:
            raise _UsageError("tables hoggatt-charpoly needs n")
        if n > HOGGATT_MAX_N:
            raise _OverBudget(f"hoggatt-charpoly n {n}", f"n <= {HOGGATT_MAX_N}")
        charpoly = hoggatt(n).charpoly()
        lines = [charpoly.to_canonical_string()]
        if charpoly != hoggatt_closed_form(n):
            mismatches = [f"hoggatt-charpoly n={n}: closed form mismatch"]
    else:  # pragma: no cover
        raise _UsageError(f"unknown table kind {kind!r}")
    body = "\n".join(lines)
    if mismatches:
        body += "\n" + "\n".join(mismatches)
    _emit(body, args.out)
    return EXIT_VERIFY_FAIL if mismatches else EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfib",
        description="exact q-Fibonacci polynomial sequences, coefficients, "
        "and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print a sequence value or series")
    p_eval.add_argument(
        "kind", choices=["fib", "lucas", "qfib", "qfib-neg-closed", "gf"]
    )
    p_eval.add_argument("n", type=int, nargs="?", help="sequence index")
    p_eval.add_argument("--shift", type=int, help="qfib only: apply s -> q^shift s; default 0")
    p_eval.add_argument("--s-order", type=int, dest="s_order", help="gf only; default 8")
    p_eval.add_argument("--q-order", type=int, dest="q_order", help="gf only; default 12")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=_cmd_eval)

    p_coeff = sub.add_parser("coeff", help="print a coefficient polynomial")
    p_coeff.add_argument(
        "kind",
        choices=["qbinom", "fibonomial", "qfibonomial", "fibonomial-ell", "fac"],
    )
    p_coeff.add_argument("params", type=int, nargs="*")
    p_coeff.add_argument("--shift", type=int, help="fac only; default 0")
    p_coeff.add_argument("--ell", type=int, help="fac and fibonomial-ell only; default 1")
    p_coeff.add_argument("--at", help="evaluate, e.g. --at x=1,s=1")
    p_coeff.add_argument("--out")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_verify = sub.add_parser("verify", help="run identity sweeps")
    p_verify.add_argument("ids", nargs="+", help="identity ids, or 'all'")
    p_verify.add_argument("--n", dest="range_n", help="inclusive range a..b")
    p_verify.add_argument("--k", dest="range_k", help="inclusive range a..b")
    p_verify.add_argument("--ell", dest="range_ell", help="inclusive range a..b")
    p_verify.add_argument("--m", dest="range_m", help="inclusive range a..b")
    p_verify.add_argument("--N", dest="range_N", help="inclusive range a..b")
    p_verify.add_argument("--max-k", type=int, dest="max_k")
    p_verify.add_argument("--max-ell", type=int, dest="max_ell")
    p_verify.add_argument("--fit", action="store_true")
    p_verify.add_argument(
        "--fit-ok",
        action="store_true",
        help="treat fitted cells as passing for the exit code",
    )
    p_verify.add_argument("--jobs", type=int, default=1, metavar="N", help=_JOBS_HELP)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    p_tables = sub.add_parser("tables", help="print golden-checked tables")
    p_tables.add_argument(
        "kind", choices=["det-table", "fibonomial-triangle", "hoggatt-charpoly"]
    )
    p_tables.add_argument("n", type=int, nargs="?", help="hoggatt-charpoly only")
    p_tables.add_argument("--max-k", type=int, dest="max_k", help="det-table only; default 3")
    p_tables.add_argument("--rows", type=int, help="fibonomial-triangle only; default 5")
    p_tables.add_argument("--at", help="fibonomial-triangle only")
    p_tables.add_argument(
        "--allow-slow",
        action="store_true",
        default=None,
        help="det-table only; permit the k = 5 determinant",
    )
    p_tables.add_argument("--out")
    p_tables.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StdoutClosed:
        # as the Python docs advise: point stdout at devnull, so the flush at
        # exit cannot raise again, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotDivisible, ChildProcessError) as exc:  # a broken division or a dead worker is a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except _OverBudget as exc:
        print(exc, file=sys.stderr)
        return EXIT_OVER_BUDGET
    except OverflowError as exc:  # valid input whose arithmetic outgrows the exponent fields
        print(
            f"error: {exc} (|exponent| <= {_VAR_GUARD} per variable)",
            file=sys.stderr,
        )
        return EXIT_OVER_BUDGET
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
