#!/usr/bin/env python3
"""Record the qfib benchmark as BENCH_<label>.json, and compare two records.

Usage:
    python3 benchmarks/record.py LABEL=CHECKOUT [LABEL=CHECKOUT ...]
    python3 benchmarks/record.py --compare BENCH_old.json BENCH_new.json

Recording runs each checkout's own, unchanged `perfbench/run.py --trace 0
--seconds 5` for every workload BENCHMARK.json lists and every seed in
SEEDS, one fixed list, so any two records pair their runs seed by seed.  With several checkouts the runs alternate
between them, seed by seed, and which one goes first alternates too, so a
drift in host speed falls on both sides.  Each checkout's record goes to
BENCH_<label>.json at the root of this repository: for every workload, the
median and quartiles over seeds of each end-to-end metric (each value being
run.py's median over its iterations), the per-seed values in seed order,
the operations attempted and failed, and the environment line run.py
prints (Python, nproc, commit, SHA-256 of src/qfib) plus `src_dirty`:
whether `git status --porcelain -- src` lists changes in the checkout, so
that the commit does not name the code measured (null outside a git
checkout, where run.py reports no commit).

--compare prints, per workload and end-to-end metric, the two medians, the
relative change, the bound BENCHMARK.json fixes for it, the old record's
quartile spread, and how many seeds the new record wins, after a warning
line for each record taken on a modified src/.  It exits 1 when
a metric is worse by more than its bound or an operation failed, 2 when
the two records were taken over different seed lists (their runs do not
pair) or a record is missing, unreadable or not JSON (one line naming the
file), else 0.  Either mode exits 141 without a traceback when the reader
of its output closes the pipe, as `qfib` does.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))
SECONDS = 5.0
EXIT_BROKEN_PIPE = 141  # what a shell reports for a command killed by SIGPIPE


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One run.py run: {"env", "result"} from its first and last lines."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return {"env": json.loads(lines[0])["env"], "result": json.loads(lines[-1])}


def src_dirty(checkout: Path) -> bool | None:
    """Whether src/ in the checkout differs from its commit; None when the
    checkout is not a git work tree."""
    proc = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def summarize(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record(trees: dict[str, Path], workloads: list[str]) -> dict:
    runs: dict[str, dict[str, list]] = {label: {w: [] for w in workloads} for label in trees}
    envs: dict[str, dict] = {}
    for w in workloads:
        for i, seed in enumerate(SEEDS):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for label in order:
                got = run_once(trees[label], w, seed)
                envs.setdefault(label, {**got["env"], "src_dirty": src_dirty(trees[label])})
                runs[label][w].append(got["result"])
                print(f"{label} {w} seed {seed}: "
                      f"work_s {got['result']['metrics']['work_s']['value']:.3f}", flush=True)
    out = {}
    for label, by_workload in runs.items():
        out[label] = {
            "label": label,
            "env": envs[label],
            "settings": {"seeds": SEEDS, "seconds": SECONDS, "trace": 0},
            "workloads": {
                w: {
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "metrics": {
                        name: {"unit": m["unit"],
                               **summarize([r["metrics"][name]["value"] for r in results])}
                        for name, m in results[0]["metrics"].items()
                    },
                }
                for w, results in by_workload.items()
            },
        }
    return out


def compare(old: dict, new: dict, bench: dict) -> int:
    """Print the deltas of new against old; 1 when a bound is broken, 2
    when the records' seed lists differ."""
    seeds = old["settings"]["seeds"]
    if new["settings"]["seeds"] != seeds:
        print(f"{old['label']} and {new['label']} were taken over different seeds "
              f"({seeds} / {new['settings']['seeds']}); their runs do not pair",
              file=sys.stderr)
        return 2
    for rec in (old, new):
        env = rec.get("env", {})
        if env.get("src_dirty"):
            print(f"warning: {rec['label']} was recorded on a modified src/; "
                  f"its commit {env.get('commit')} does not name the code measured")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    broken = False
    print(f"{old['label']} -> {new['label']}  (seeds {seeds})")
    print(f"{'workload':<14}{'metric':<13}{'old':>10}{'new':>10}{'change':>9}"
          f"{'bound':>8}{'old IQR':>9}{'wins':>7}  verdict")
    for w, got in new["workloads"].items():
        base = old["workloads"].get(w)
        if base is None:
            continue
        if got["failed"] or base["failed"]:
            print(f"{w:<14}failed operations: {base['failed']} -> {got['failed']}")
            broken = broken or bool(got["failed"])
        for name, spec in bounds.items():
            a, b = base["metrics"][name], got["metrics"][name]
            sign = 1 if spec["better"] == "lower" else -1
            change = (b["median"] - a["median"]) / a["median"]
            worse = sign * change
            spread = (a["q3"] - a["q1"]) / a["median"]
            pairs = list(zip(a["values"], b["values"]))
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            verdict = "WORSE" if worse > spec["bound"] else "better" if worse < 0 else "within"
            broken = broken or verdict == "WORSE"
            print(f"{w:<14}{name:<13}{a['median']:>10.4g}{b['median']:>10.4g}"
                  f"{change:>+9.1%}{spec['bound']:>8.0%}{spread:>9.1%}"
                  f"{wins:>4}/{len(pairs):<2}  {verdict}")
    return 1 if broken else 0


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="LABEL=CHECKOUT")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        records = []
        for path in args.compare:
            try:
                records.append(json.loads(Path(path).read_text()))
            except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
                print(f"{path}: not a readable JSON record: {exc}", file=sys.stderr)
                return 2
        return compare(*records, bench)
    if not args.trees:
        parser.error("name at least one LABEL=CHECKOUT, or --compare")
    trees = {}
    for spec in args.trees:
        label, sep, path = spec.partition("=")
        if not sep or not label or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"{spec!r}: expected LABEL=CHECKOUT with perfbench/run.py inside")
        trees[label] = Path(path).resolve()
    workloads = [w["name"] for w in bench["workloads"]]
    for label, rec in record(trees, workloads).items():
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
