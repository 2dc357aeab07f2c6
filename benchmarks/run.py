"""End-to-end benchmark of the linkarea CLI.

    python3 benchmarks/run.py --workload descent|audit|quadrature --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Each run generates its link files from --seed into a fresh
directory under .bench_runs/, computes the area references, and then:

--trace 0  runs the workload's CLI invocations one at a time, each in a
           fresh interpreter, checking every output, for passes of the
           whole sequence until the next pass would end after S seconds (at
           least one pass). Set-up is timed in fresh interpreters that
           import linkarea and read the workload's files, started between
           the invocations of the first pass. Timings are medians over
           passes; failures are counted over all invocations.
--trace 1  measures import time with `python -X importtime`, then replays
           the sequence in one process untraced and once more traced (see
           replay.py), and reports the per-layer metrics and the tracing
           overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false when an invocation
fails, unless it fails exactly as its documented known failure (see
workloads.py); known failures still count in `failed` and in
ops_failed_ratio.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

WORKLOADS = ("descent", "audit", "quadrature")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
#: an invocation still running this long after the run started is killed
#: (and fails), so that a run ends within 180 s
DEADLINE_S = 170.0

# What the linkarea console script runs, plus a report of the interpreter's
# peak RSS (VmHWM restarts at exec, unlike ru_maxrss, which a child
# inherits from the benchmark process it was forked from).
CLI = """import sys
from linkarea.cli import main
try:
    rc = main()
finally:
    with open("/proc/self/status") as fh:
        sys.stderr.write("".join(ln for ln in fh if ln.startswith("VmHWM")))
sys.exit(rc)
"""
_VMHWM = re.compile(r"^VmHWM:\s+(\d+) kB", re.M)
SETUP = ("import sys, linkarea; from linkarea import read_link\n"
         "for path in sys.argv[1:]: read_link(path)")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


STARTED = time.perf_counter()


def spawn(cmd, cwd, stdout_path, stderr_path, env):
    """Run cmd to completion; returns (exit code, wall seconds).

    The wait blocks in waitpid (a wait with a timeout polls, in steps of up
    to 50 ms); a timer kills a command still running at the run's deadline.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, STARTED + DEADLINE_S - start), proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
        return rc, time.perf_counter() - start


# ---------------------------------------------------------------------------
# machine fingerprint


def fingerprint():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads or f"unset (OpenBLAS default, {os.cpu_count()} cores)",
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# trace 0: set-up and the timed passes


def setup_once(plan, rundir, env):
    """Wall time of a fresh interpreter that imports linkarea and reads the inputs."""
    cmd = [sys.executable, "-c", SETUP, *plan.inputs.values()]
    rc, wall = spawn(cmd, rundir, rundir / "setup.out", rundir / "setup.err", env)
    if rc != 0:
        raise RuntimeError("set-up interpreter failed: "
                           + (rundir / "setup.err").read_text(errors="replace"))
    return wall


def run_pass(plan, rundir, env, setup_times=None):
    """One pass of the sequence; per-invocation records.

    With setup_times, SETUP_REPEATS set-up interpreters are started evenly
    between the invocations and their wall times appended to it.
    """
    from workloads import check
    records = []
    n = len(plan.invocations)
    for i, inv in enumerate(plan.invocations):
        while setup_times is not None and len(setup_times) * n < SETUP_REPEATS * (i + 1):
            setup_times.append(setup_once(plan, rundir, env))
        for path in inv.outputs:
            Path(path).unlink(missing_ok=True)
        out, err = rundir / "cli.out", rundir / "cli.err"
        rc, wall = spawn([sys.executable, "-c", CLI, *inv.argv], rundir, out, err, env)
        stderr = err.read_text(encoding="utf-8", errors="replace")
        res = check(inv, plan, rc, out.read_text(encoding="utf-8", errors="replace"), stderr)
        rss = [int(kb) / 1024.0 for kb in _VMHWM.findall(stderr)]
        records.append({"inv": inv, "rc": rc, "wall": wall, "rss": max(rss, default=0.0),
                        "ok": res.ok, "known": res.known, "reason": res.reason,
                        "values": res.values})
    return records


def pass_metrics(records):
    """End-to-end metrics of one pass, except set-up and the failure ratio."""
    def of(command):
        return [r for r in records if r["inv"].command == command]

    def wall(rs):
        return sum(r["wall"] for r in rs)

    oracle, areas, maps = of("oracle"), of("area"), of("anglemap")
    linked = [r for r in of("minimize") if r["inv"].link.startswith("p01") and r["ok"]]
    errs = [r["values"]["err"] for r in areas if "err" in r["values"]]
    rows = sum(r["values"].get("rows", 0) for r in maps)
    samples = sum(int(r["inv"].option("--samples")) for r in oracle if r["ok"])
    return {
        "wall_s": (wall(records), "s"),
        "peak_rss_mb": (max(r["rss"] for r in records), "MB"),
        "descent_objective_max": (max((r["values"]["objective"] for r in linked),
                                      default=None), "area"),
        "oracle_samples_per_s": (samples / wall(oracle) if oracle else None, "samples/s"),
        "area_s": (wall(areas), "s"),
        "area_err_max": (max(errs, default=None), "abs"),
        "anglemap_rows_per_s": (rows / wall(maps) if maps else None, "rows/s"),
    }


def run_untraced(plan, rundir, seconds, env):
    passes, records, setup_times = [], [], []
    t0 = time.perf_counter()
    while True:
        recs = run_pass(plan, rundir, env, None if passes else setup_times)
        records += recs
        passes.append(pass_metrics(recs))
        spent = time.perf_counter() - t0
        next_end = spent * (len(passes) + 1) / len(passes)
        if next_end > seconds or time.perf_counter() - STARTED > DEADLINE_S / 2:
            break
    metrics = {}
    for name, (_, unit) in passes[0].items():
        vals = [p[name][0] for p in passes if p[name][0] is not None]
        metrics[name] = (statistics.median(vals) if vals else None, unit)
    failed = sum(1 for r in records if not r["ok"])
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["ops_failed_ratio"] = (failed / len(records), "ratio")
    outcomes = [{"argv": r["inv"].argv, "returncode": r["rc"], "ok": r["ok"],
                 "reason": r["reason"], "known": r["known"],
                 "wall_s": r["wall"], "max_rss_mb": r["rss"]} for r in records]
    detail = {"passes": len(passes), "per_pass": passes, "setup_times": setup_times}
    return metrics, outcomes, detail


# ---------------------------------------------------------------------------
# trace 1: import time and the replays


def import_times(rundir, env):
    """Median (import linkarea, top-level scipy imports) from -X importtime."""
    pairs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import linkarea"],
                              cwd=rundir, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("import linkarea failed:\n" + proc.stderr)
        pairs.append(parse_importtime(proc.stderr))
    return (statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs))


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(text):
    """Cumulative seconds of linkarea, and of the scipy imports it triggers.

    The log lists each module after the modules it imports, indented by
    depth; walking it backwards visits every module before its imports.
    """
    linkarea_us = scipy_us = 0
    ancestors = []
    entries = [(int(m.group(1)), len(m.group(2)), m.group(3))
               for m in _IMPORT_LINE.finditer(text)]
    for cumulative, depth, name in reversed(entries):
        del ancestors[depth // 2:]
        if name == "linkarea":
            linkarea_us = cumulative
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy_us += cumulative
        ancestors.append(name)
    return linkarea_us / 1e6, scipy_us / 1e6


def run_traced(plan, rundir, env):
    plan_path = rundir / "plan.json"
    plan_path.write_text(json.dumps(plan.to_json()), encoding="utf-8")
    import_s, scipy_s = import_times(rundir, env)
    docs = []
    for trace in (0, 1):
        cmd = [sys.executable, str(HERE / "replay.py"), str(plan_path), "--trace", str(trace)]
        if trace:
            cmd += ["--spans", str(rundir / "spans.jsonl")]
        out, err = rundir / f"replay{trace}.out", rundir / f"replay{trace}.err"
        rc, _ = spawn(cmd, rundir, out, err, env)
        if rc != 0:
            raise RuntimeError("replay failed:\n" + err.read_text(errors="replace"))
        docs.append(json.loads(out.read_text().strip().split("\n")[-1]))
    untraced, traced = docs
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import_scipy_s"] = (scipy_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return metrics, traced["outcomes"], {"untraced_outcomes": untraced["outcomes"]}


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the linkarea CLI.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "linkarea" / "cli.py").is_file():
        print(f"error: no linkarea sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import linkarea
    if Path(linkarea.__file__).resolve().parent != (SRC / "linkarea").resolve():
        print(f"error: imported linkarea from {linkarea.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_inputs

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-t{args.trace}-",
                                   dir=runs))
    env = child_env()
    plan, problems = make_inputs(args.workload, args.seed, rundir, tiny=args.tiny)
    fp = fingerprint()
    if args.trace:
        metrics, outcomes, detail = run_traced(plan, rundir, env)
    else:
        metrics, outcomes, detail = run_untraced(plan, rundir, args.seconds, env)

    unexpected = [o for o in outcomes if not o["ok"] and not o["known"]]
    correct = not unexpected and not problems and all(
        v is not None for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o["ok"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": fp, "reference_problems": problems,
              "references": plan.references, "outcomes": outcomes, **detail,
              "result": result}
    (rundir / "result.json").write_text(json.dumps(report, indent=1, default=str),
                                        encoding="utf-8")
    shutil.rmtree(rundir / "out", ignore_errors=True)

    for o in outcomes:
        if not o["ok"]:
            tag = "known failure" if o["known"] else "FAILED"
            argv = " ".join(Path(a).name for a in o["argv"])
            print(f"{tag}: linkarea {argv}: {o['reason']}")
    print("fingerprint: " + json.dumps(fp))
    print(f"details: {rundir / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
