"""Span tracer for one traced workload call, installed from outside `src/`.

Every span wraps a public entry point where callers look it up: `Poly` and
`PolyMatrix` class attributes, `SeqCache` methods (the module-level
`qfib`/`fib` that `harness` imported by name delegate to them), the `qcomb`
functions in both the `qcomb` and `harness` namespaces, the `CATALOG`
builders and sides, `harness.sweep` and `cli.main`.  Spans stay in memory;
a span's self time is its duration minus the durations of the spans it
directly caused, taken from the span stack.

When a sweep runs with more than one worker, every wrapper below the sweep
is removed for the duration of the call, so forked pool workers run plain
code and only the `harness` and `cli` spans of the parent process are
recorded for that workload.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from time import perf_counter

from qfib import cli, harness, qcomb
from qfib.matrices import PolyMatrix
from qfib.poly import Poly
from qfib.sequences import SeqCache

# Size classes are fixed here, not by the engine: a single-term (or int)
# operand is "mono"; otherwise len(a) * len(b) term pairs below
# LARGE_PAIRS is "small" and at or above it "large".
LARGE_PAIRS = 10_000

_POLY_MUL = ("__mul__", "__rmul__")
_POLY_ADDSUB = ("__add__", "__radd__", "__sub__", "__rsub__")
_POLY_SUBST = ("subst_s_scale", "subst_q_invert", "subst_q_one", "subst_x_one")

# Every span name.  Each reports NAME.self_s, and these add up, with
# trace.unattributed_s, to the traced work_s; all but the last two also
# report NAME.calls.
SPAN_NAMES = (
    "poly.mul.mono",
    "poly.mul.small",
    "poly.mul.large",
    "poly.div.mono",
    "poly.div.small",
    "poly.div.large",
    "poly.pow",
    "poly.addsub",
    "poly.subst",
    "sequences.qfib",
    "sequences.fib",
    "qcomb",
    "matrices.det",
    "harness.sweep",
    "harness.builder",
    "cli",
)
_COUNTED_SPANS = SPAN_NAMES[:-2]
_COUNT_METRICS = (
    "poly.mul.terms_out",
    "poly.div.nested_mul_s",
    "sequences.qfib.cold_calls",
    "matrices.det.max_dim",
    "harness.cells",
    "harness.fit.calls",
    "harness.sweep.overhead_s",
)


def _set(namespace, key, value) -> None:
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


def _const(name):
    return lambda args: name


def _size_class(a, b) -> str:
    if not isinstance(b, Poly) or len(a) == 1 or len(b) == 1:
        return "mono"
    return "large" if len(a) * len(b) >= LARGE_PAIRS else "small"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self)
        self._stack: list[list] = []  # [span id, name, child time]
        self._patches: list[tuple] = []  # (namespace, attribute, original, wrapper)
        self.counts = {
            "poly.mul.terms_out": 0,
            "poly.div.nested_mul_s": 0.0,
            "sequences.qfib.cold_calls": 0,
            "matrices.det.max_dim": 0,
            "harness.cells": 0,
            "harness.fit.calls": 0,
            "harness.sweep.overhead_s": 0.0,
            "harness.sweep.cell_s": 0.0,
            "harness.sweep.worker_wall_s": 0.0,
        }

    # ----------------------------------------------------------- spans

    def _wrap(self, fn, name_of, on_exit=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            name = name_of(args)
            parent = stack[-1] if stack else None
            # span id: spans started before this one, finished or still open
            frame = [len(spans) + len(stack), name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                spans.append(
                    (frame[0], parent[0] if parent else None, name, t0, t1, dur - frame[2])
                )
            if on_exit is not None:
                on_exit(args, kwargs, result, dur, parent)
            return result

        return wrapper

    def _patch(self, namespace, key, wrapper):
        """Replace an attribute, or an item when namespace is a dict."""
        original = namespace[key] if isinstance(namespace, dict) else getattr(namespace, key)
        self._patches.append((namespace, key, original, wrapper))
        _set(namespace, key, wrapper)

    # --------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every traced entry point of the imported `qfib` modules."""
        counts = self.counts

        def after_mul(args, kwargs, result, dur, parent):
            if isinstance(result, Poly):
                counts["poly.mul.terms_out"] += len(result)
            if parent is not None and parent[1].startswith("poly.div."):
                counts["poly.div.nested_mul_s"] += dur

        for attr in _POLY_MUL:
            fn = getattr(Poly, attr)
            self._patch(
                Poly,
                attr,
                self._wrap(fn, lambda a: "poly.mul." + _size_class(a[0], a[1]), after_mul),
            )
        self._patch(
            Poly,
            "exact_div",
            self._wrap(Poly.exact_div, lambda a: "poly.div." + _size_class(a[0], a[1])),
        )
        self._patch(Poly, "__pow__", self._wrap(Poly.__pow__, _const("poly.pow")))
        for attr in _POLY_ADDSUB:
            self._patch(Poly, attr, self._wrap(getattr(Poly, attr), _const("poly.addsub")))
        for attr in _POLY_SUBST:
            self._patch(Poly, attr, self._wrap(getattr(Poly, attr), _const("poly.subst")))

        def after_det(args, kwargs, result, dur, parent):
            counts["matrices.det.max_dim"] = max(counts["matrices.det.max_dim"], args[0].rows)

        self._patch(
            PolyMatrix, "det", self._wrap(PolyMatrix.det, _const("matrices.det"), after_det)
        )

        qfib_span = self._wrap(SeqCache.qfib, _const("sequences.qfib"))

        def qfib_counted(cache, n, shift=0):
            if n not in cache._qfib:
                counts["sequences.qfib.cold_calls"] += 1
            return qfib_span(cache, n, shift)

        self._patch(SeqCache, "qfib", qfib_counted)
        for attr in ("fib", "lucas"):
            self._patch(
                SeqCache, attr, self._wrap(getattr(SeqCache, attr), _const("sequences.fib"))
            )

        for attr in qcomb.__all__:
            fn = getattr(qcomb, attr)
            if not inspect.isfunction(fn):
                continue
            wrapper = self._wrap(fn, _const("qcomb"))
            self._patch(qcomb, attr, wrapper)
            if getattr(harness, attr, None) is fn:
                self._patch(harness, attr, wrapper)

        builder = _const("harness.builder")
        for id, entry in list(harness.CATALOG.items()):
            changes = {"builder": self._wrap(entry.builder, builder)}
            if entry.sides is not None:
                changes["sides"] = self._wrap(entry.sides, builder)
            self._patch(harness.CATALOG, id, dataclasses.replace(entry, **changes))

        fit = harness.fit_monomial_correction

        def fit_counted(*args, **kwargs):
            counts["harness.fit.calls"] += 1
            return fit(*args, **kwargs)

        self._patch(harness, "fit_monomial_correction", fit_counted)

        sweep = harness.sweep

        def sweep_maybe_plain(*args, **kwargs):
            workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
            if workers <= 1:
                return sweep(*args, **kwargs)
            self._suspend(True)
            try:
                return sweep(*args, **kwargs)
            finally:
                self._suspend(False)

        def after_sweep(args, kwargs, report, dur, parent):
            workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
            cell_s = sum(c.ms for c in report.cells) / 1000.0
            counts["harness.cells"] += len(report.cells)
            counts["harness.sweep.overhead_s"] += dur - cell_s / workers
            counts["harness.sweep.cell_s"] += cell_s
            counts["harness.sweep.worker_wall_s"] += workers * dur

        self._patch(
            harness,
            "sweep",
            self._wrap(sweep_maybe_plain, _const("harness.sweep"), after_sweep),
        )
        self._patch(cli, "main", self._wrap(cli.main, _const("cli")))

    def _suspend(self, on: bool) -> None:
        """Restore (on=True) or re-apply every patch below the sweep."""
        for namespace, key, original, wrapper in self._patches:
            if namespace is cli or (namespace is harness and key == "sweep"):
                continue
            _set(namespace, key, original if on else wrapper)

    def uninstall(self) -> None:
        for namespace, key, original, _ in reversed(self._patches):
            _set(namespace, key, original)
        self._patches.clear()

    # --------------------------------------------------------- results

    def metrics(self, work_s: float) -> dict[str, float]:
        """Per-layer metrics; the self times plus trace.unattributed_s add
        up to work_s, the traced call's duration."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        top_level_s = 0.0
        for _, parent, name, t0, t1, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            if parent is None:
                top_level_s += t1 - t0
        c = self.counts
        out = {f"{name}.self_s": self_s[name] for name in SPAN_NAMES}
        out.update((f"{name}.calls", calls[name]) for name in _COUNTED_SPANS)
        out.update((key, c[key]) for key in _COUNT_METRICS)
        # useful cell time over the worker time the sweeps held
        busy = c["harness.sweep.worker_wall_s"]
        out["harness.sweep.efficiency"] = c["harness.sweep.cell_s"] / busy if busy else 0.0
        out["trace.work_s"] = work_s
        out["trace.unattributed_s"] = work_s - top_level_s
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for id, parent, name, t0, t1, own in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": id, "parent": parent, "name": name, "start": t0, "end": t1, "self_s": own}
                    )
                    + "\n"
                )
