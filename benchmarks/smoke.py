"""Smoke test of the benchmark at tiny sizes (about two minutes).

    python3 benchmarks/smoke.py            # or: python3 -m pytest benchmarks/smoke.py

Runs every workload with --tiny (oracle --samples 20, minimize --steps 3,
small grids), traced and untraced, from the repository root, and checks
that the result line carries every metric BENCHMARK.json names with its
unit, that the failure accounting counts the known failures, and that the
benchmark refuses to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: (command, input file) of the invocations that fail today, per workload
KNOWN_FAILURES = {
    "descent": [("minimize", "sep1.0.lk1")],
    "audit": [("verify", ""), ("area", "sep0.5.lk1")],
    "quadrature": [("area", "sep0.5.lk1")],
}


def run(workload, trace, cwd=ROOT, seed=5):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    return doc


def check_metrics(doc, specs):
    names = {m["name"]: m["unit"] for m in specs}
    assert set(doc["metrics"]) == set(names), set(doc["metrics"]) ^ set(names)
    for name, unit in names.items():
        entry = doc["metrics"][name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name


def check_failures(doc, workload, stdout):
    known = KNOWN_FAILURES[workload]
    assert doc["correct"] is True
    assert doc["failed"] == len(known), (doc["failed"], known)
    lines = [ln for ln in stdout.split("\n") if ln.startswith("known failure:")]
    assert len(lines) == len(known), lines
    for command, link in known:
        assert any(f" {command}" in ln and link in ln for ln in lines), (command, lines)


def test_untraced():
    for workload in KNOWN_FAILURES:
        proc = run(workload, 0)
        doc = result_of(proc)
        check_metrics(doc, SPEC["end_to_end"])
        check_failures(doc, workload, proc.stdout)
        ratio = doc["metrics"]["ops_failed_ratio"]["value"]
        assert ratio == doc["failed"] / doc["attempted"], ratio


def test_traced():
    for workload in KNOWN_FAILURES:
        proc = run(workload, 1)
        doc = result_of(proc)
        check_metrics(doc, SPEC["per_layer"])
        check_failures(doc, workload, proc.stdout)


def test_refuses_without_sources():
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=runs))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("descent", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
