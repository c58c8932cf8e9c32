"""benchmarks/record.py --compare on hand-written records."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record", ROOT / "benchmarks" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCH["end_to_end"]]


def make(label, values, seeds=(1, 2, 3, 4), failed=0):
    """A one-workload record whose every end-to-end metric has `values`."""
    return {
        "label": label,
        "settings": {"seeds": list(seeds), "seconds": record.SECONDS, "trace": 0},
        "workloads": {
            "powers": {
                "attempted": 16 * len(values),
                "failed": failed,
                "metrics": {name: {"unit": "s", **record.summarize(list(values))}
                            for name in METRICS},
            }
        },
    }


def rows(out):
    return [line.split() for line in out.splitlines() if line.startswith("powers")]


def test_compare_counts_wins_seed_by_seed(capsys):
    old = make("old", [1.0, 1.2, 1.1, 1.3])
    new = make("new", [0.9, 1.25, 1.0, 1.2])
    assert record.compare(old, new, BENCH) == 0
    got = rows(capsys.readouterr().out)
    assert [r[1] for r in got] == METRICS
    assert all(r[-2] == "3/4" and r[-1] == "better" for r in got)


def test_compare_flags_a_broken_bound(capsys):
    old = make("old", [1.0, 1.0, 1.0, 1.0])
    new = make("new", [2.0, 2.0, 2.0, 2.0])
    assert record.compare(old, new, BENCH) == 1
    assert all(r[-1] == "WORSE" for r in rows(capsys.readouterr().out))


def test_compare_flags_failed_operations(capsys):
    old = make("old", [1.0, 1.0, 1.0, 1.0])
    new = make("new", [1.0, 1.0, 1.0, 1.0], failed=1)
    assert record.compare(old, new, BENCH) == 1
    assert "failed operations: 0 -> 1" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", [(1, 2, 3, 5), (4, 3, 2, 1), (1, 2, 3)])
def test_compare_refuses_records_over_other_seeds(capsys, seeds):
    old = make("old", [1.0, 1.2, 1.1, 1.3])
    new = make("new", [0.9, 1.25, 1.0, 1.2][: len(seeds)], seeds=seeds)
    assert record.compare(old, new, BENCH) == 2
    out, err = capsys.readouterr()
    assert rows(out) == []
    assert "different seeds" in err


@pytest.mark.parametrize("bad", ["missing", "directory", "not JSON", "not UTF-8"])
def test_compare_calls_a_missing_or_unreadable_record_a_usage_error(tmp_path, bad):
    good = tmp_path / "BENCH_good.json"
    good.write_text(json.dumps(make("good", [1.0, 1.2, 1.1, 1.3])))
    path = tmp_path / "BENCH_bad.json"
    if bad == "directory":
        path.mkdir()
    elif bad == "not JSON":
        path.write_text('{"label": "bad", "settings": ')
    elif bad == "not UTF-8":
        path.write_bytes(b"\xff\xfe{}")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "record.py"), "--compare", str(good), str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{path}: not a readable JSON record")


def test_committed_records_share_the_seed_list():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        assert json.loads(path.read_text())["settings"]["seeds"] == record.SEEDS, path.name


def test_compare_warns_about_a_record_of_a_modified_tree(capsys):
    old = make("old", [1.0, 1.2, 1.1, 1.3])
    new = make("new", [0.9, 1.25, 1.0, 1.2])
    old["env"] = {"commit": "abc1234", "src_dirty": False}
    new["env"] = {"commit": "abc1234", "src_dirty": True}
    assert record.compare(old, new, BENCH) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines() if "warning" in line]
    assert warnings == [
        "warning: new was recorded on a modified src/; "
        "its commit abc1234 does not name the code measured"
    ]


def test_src_dirty_reads_git_status_of_src(tmp_path):
    assert record.src_dirty(tmp_path) is None  # not a git work tree
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "notes.txt").write_text("outside src\n")
    assert record.src_dirty(tmp_path) is False
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "new.py").write_text("x = 1\n")
    assert record.src_dirty(tmp_path) is True


def _closed_pipe_run(args, cwd):
    """Run the recorder with its stdout on a pipe whose read end is already
    closed, as when `| head` has read enough: (exit code, stderr)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "record.py"), *args],
            stdout=write_end, stderr=subprocess.PIPE, cwd=cwd, timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def test_compare_exits_141_quietly_on_a_closed_pipe(tmp_path):
    paths = []
    for label, values in (("old", [1.0, 1.2, 1.1, 1.3]), ("new", [0.9, 1.25, 1.0, 1.2])):
        paths.append(tmp_path / f"BENCH_{label}.json")
        paths[-1].write_text(json.dumps(make(label, values)))
    got = _closed_pipe_run(["--compare", *map(str, paths)], tmp_path)
    assert got == (record.EXIT_BROKEN_PIPE, b"")


def test_recording_exits_141_quietly_on_a_closed_pipe(tmp_path):
    # a checkout whose run.py prints an env line and a one-metric result at
    # once: the first progress line meets the closed pipe, before any
    # record is written
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'env': {'python': 'test'}}))\n"
        "print(json.dumps({'attempted': 1, 'failed': 0,\n"
        "                  'metrics': {'work_s': {'unit': 's', 'value': 1.0}}}))\n"
    )
    label = "closed-pipe-test"
    got = _closed_pipe_run([f"{label}={tmp_path}"], tmp_path)
    assert got == (record.EXIT_BROKEN_PIPE, b"")
    assert not (ROOT / f"BENCH_{label}.json").exists()
