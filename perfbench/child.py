"""One workload call in a fresh interpreter; started by run.py.

Usage: python3 perfbench/child.py WORKLOAD MODE OUT ARG

MODE is `setup` (import the workload's module, then exit), `run`, or
`trace` (run under the span tracer).  Writes the outputs the runner
checks to OUT.out.json, then OUT.json: monotonic timestamps (`ready` once
the imports are done, `start` and `end` around the call, `written` after
the output dump), the CPU time and peak RSS at the end of the call, and
the durations of a calibration kernel run before the imports and after the
call.  The catalog workloads print
their report to standard output, exactly as `qfib verify all --format json`
does; the runner points standard output at a file.
"""

import sys
import time


def main() -> int:
    workload, mode, out, arg = sys.argv[1:5]
    # before the imports, which reuse the kernel's freed memory, so it
    # cannot raise the peak RSS; the runner subtracts its duration
    cpu_calibration = time.process_time()
    calibration = [_calibrate()]
    cpu_calibration = time.process_time() - cpu_calibration
    if workload in ("catalog", "catalog_jobs2"):
        from qfib import cli

        def call():
            return cli.main(["verify", "all", "--format", "json", "--jobs", arg])

    elif workload == "det_frontier":
        from qfib.harness import det_table

        def call():
            return det_table(int(arg))

    elif workload == "powers":
        from qfib.sequences import qfib

        pairs = [tuple(int(v) for v in pair.split(":")) for pair in arg.split(",")]

        def call():
            return [qfib(n) ** k for n, k in pairs]

    else:
        raise SystemExit(f"unknown workload {workload!r}")
    ready = time.monotonic()
    cpu_ready = time.process_time()

    import json
    import resource

    record = {"ready": ready, "calibration_s": calibration}
    outputs = {}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        cpu_between = time.process_time() - cpu_ready
        start = time.monotonic()
        result = call()
        end = time.monotonic()
        # this process and the pool workers it has waited for, up to here,
        # less the calibration and what ran between the imports and the call
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        record.update(
            start=start,
            end=end,
            cpu_s=own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
            - cpu_calibration
            - cpu_between,
            peak_rss_kib=max(_own_peak_rss_kib(own), kids.ru_maxrss),
        )
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.metrics(end - start)
            tracer.write_spans(out + ".spans.jsonl")
        if workload == "det_frontier":
            outputs["rows"] = {
                k: {"text": p.to_canonical_string(), "terms": _terms(p)}
                for k, p in result.items()
            }
        elif workload == "powers":
            outputs["products"] = [[n, k, _terms(p)] for (n, k), p in zip(pairs, result)]
        else:
            outputs["exit_code"] = result
    record["calibration_s"].append(_calibrate())
    with open(out + ".out.json", "w") as fh:
        fh.write(json.dumps(outputs))
    del outputs
    # the runner leaves the output dump out of wall_s
    record["written"] = time.monotonic()
    with open(out + ".json", "w") as fh:
        fh.write(json.dumps(record))
    return 0


def _calibrate() -> float:
    """Duration of a fixed CPython kernel (int-keyed dict inserts and big-int
    products, no qfib code).  The runner scales each iteration's times by it
    to cancel the host's speed drift."""
    t0 = time.perf_counter()
    table = {}
    for i in range(40000):
        table[(i * 2654435761) & 0x1FFF] = i
    x = 7**30000
    for i in range(20):
        x * (x + i)
    return time.perf_counter() - t0


def _own_peak_rss_kib(usage) -> int:
    """High-water RSS of this process image.  ru_maxrss also counts the
    parent's resident set at spawn time, which survives exec on Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss


def _terms(p) -> list:
    return [[*exps, c] for exps, c in p.terms()]


if __name__ == "__main__":
    sys.exit(main())
