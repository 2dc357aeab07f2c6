"""Replay a workload's invocations in one process through linkarea.cli.main.

    python3 benchmarks/replay.py PLAN.json --trace 0|1 [--spans SPANS.jsonl]

The plan is the one run.py writes. The replay runs every invocation in
order, followed by its output check, and prints one JSON object: the wall
time and the check outcomes, and with --trace 1 the per-layer metrics.

With --trace 1 the public functions of each layer of src/linkarea are
wrapped in spans before the replay. A wrapper replaces the function in
every linkarea module that holds it, because cli, functionals and
conformal import some of them by name. Spans (name, start, end, parent,
operation id, attributes) stay in memory and are written to SPANS.jsonl at
the end. A layer's self time is its spans' durations minus their child
spans; the self times of all layers add up to the time spent inside the
invocations and checks, and the rest of the replay's wall time is
reported as the remainder.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import Plan, check  # noqa: E402

LAYERS = ("cli", "links", "spheres", "conformal", "functionals", "symplectic",
          "optimize", "verify", "bench")

VERIFY_CHECKS = ("plucker_relations", "wedge_determinant", "plane_classification",
                 "minor_lift", "equivariance", "nullity", "metric_routes", "signature",
                 "angle_routes", "fd_oracle", "symplectic")

CURVE_KINDS = {"CircleCurve": "circle", "FourierCurve": "fourier",
               "SampledCurve": "sampled", "TransformedCurve": "transformed"}

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0

    def wrap(self, name, fn, attrs=None):
        """fn wrapped in a span; name may be a callable of the arguments."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Context manager form, for the replay's own root spans."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _replace_everywhere(original, wrapped):
    """Rebind every linkarea module attribute that refers to original."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "linkarea" or mod_name.startswith("linkarea.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def instrument(tracer):
    """Wrap the layer functions named by the per-layer metrics."""
    import linkarea.cli as cli
    from linkarea import conformal, functionals, links, optimize, spheres, symplectic, verify

    def fn(module, attr, name, attrs=None):
        original = getattr(module, attr, None)
        if original is None:  # a later version may drop a private helper
            return
        _replace_everywhere(original, tracer.wrap(name, original, attrs))

    def read_link_kind(args, link):
        return {"kind": type(link.c1).__name__}

    fn(cli, "main", "cli.main")
    fn(links, "read_link", "links.read_link", read_link_kind)
    for cls in (links.LinkCurve, links.CircleCurve, links.FourierCurve,
                links.SampledCurve, links.TransformedCurve):
        for meth in ("evaluate", "point", "velocity"):
            if meth in vars(cls):
                setattr(cls, meth, tracer.wrap(
                    lambda args: "links.evaluate." + CURVE_KINDS.get(
                        type(args[0]).__name__, "other"), vars(cls)[meth]))
    fn(spheres, "metric_coefficient", "spheres.metric_coefficient")
    fn(spheres, "metric_grid", "spheres.metric_grid")
    fn(conformal, "density_grids", "conformal.density_grids",
       lambda args, r: {"cells": len(args[2]) * len(args[3])})
    fn(conformal, "inf_cross_ratio", "conformal.inf_cross_ratio")
    fn(conformal, "conformal_angle_chart", "conformal.chart_angle")
    fn(conformal, "cross_ratio_fd_auto", "conformal.fd")
    fn(conformal, "cross_ratio_fd", "conformal.fd_attempt")
    fn(conformal, "chart_pole", "conformal.chart_pole")
    fn(functionals, "compute_functionals", "functionals.compute",
       lambda args, r: {"final_cells": r.grid_used[0] * r.grid_used[1]})
    fn(functionals, "build_grid", "functionals.build_grid")
    fn(functionals, "export_grid", "functionals.export_grid",
       lambda args, r: {"bytes": os.path.getsize(args[1])})
    fn(functionals, "read_grid", "functionals.read_grid")
    fn(symplectic, "exterior_derivative_check", "symplectic.exterior_check")
    fn(optimize, "_batch_objective", "optimize.batch_objective",
       lambda args, r: {"rows": len(args[0])})
    fn(optimize, "objective", "optimize.objective")
    fn(optimize, "minimize", "optimize.minimize",
       lambda args, r: {"steps": len(r.trace) - 1})
    for name in VERIFY_CHECKS:
        fn(verify, "check_" + name, "verify.check." + name)


def replay(plan, tracer=None):
    """Run the plan's invocations in order; returns wall time and outcomes."""
    import linkarea.cli

    outcomes = []
    root = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    start = time.perf_counter()
    for op, inv in enumerate(plan.invocations):
        if tracer:
            tracer.op = op
        for path in inv.outputs:
            Path(path).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = linkarea.cli.main(inv.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught error ends a CLI process with exit 1
                traceback.print_exc()
                rc = 1
        with root("bench.check"):
            res = check(inv, plan, rc, out.getvalue(), err.getvalue())
        outcomes.append({"argv": inv.argv, "returncode": rc, "ok": res.ok,
                         "reason": res.reason, "known": res.known})
    return time.perf_counter() - start, outcomes


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(spans, wall):
    """Per-layer self times, counts and the function metrics, by name."""
    n = len(spans)
    dur = [rec[END] - rec[START] for rec in spans]
    self_t = dur[:]
    by_name = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            self_t[rec[PARENT]] -= dur[i]
        by_name.setdefault(rec[NAME], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def attr(i, key):
        return (spans[i][ATTRS] or {}).get(key, 0)

    def total(name):
        return sum(dur[i] for i in named(name))

    def mean(name, scale=1.0):
        idx = named(name)
        return scale * total(name) / len(idx) if idx else 0.0

    def under(idx, roots):
        """The spans in idx that have an ancestor in roots."""
        roots, found = set(roots), []
        for i in idx:
            p = spans[i][PARENT]
            while p >= 0 and p not in roots:
                p = spans[p][PARENT]
            if p >= 0:
                found.append(i)
        return found

    m = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, rec in enumerate(spans):
        layer_self[rec[NAME].split(".", 1)[0]] += self_t[i]
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = (value, "s")

    for kind, cls in (("fourier4", "FourierCurve"), ("samples4", "SampledCurve")):
        idx = [i for i in named("links.read_link") if attr(i, "kind") == cls]
        m[f"links.read_link_s.{kind}"] = (sum(dur[i] for i in idx) / len(idx) if idx else 0.0, "s")
    for kind in CURVE_KINDS.values():
        name = "links.evaluate." + kind
        idx = named(name)
        m[f"links.evaluate_s.{kind}"] = (sum(self_t[i] for i in idx), "s")
        outer = [i for i in idx if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != name]
        m[f"links.evaluate.{kind}.calls"] = (len(outer), "count")

    m["spheres.metric_coefficient_us"] = (mean("spheres.metric_coefficient", 1e6), "us")
    m["spheres.metric_coefficient.calls"] = (len(named("spheres.metric_coefficient")), "count")
    m["spheres.metric_grid_s"] = (total("spheres.metric_grid"), "s")

    grids = named("conformal.density_grids")
    m["conformal.density_grids_s"] = (total("conformal.density_grids"), "s")
    m["conformal.density_grids.cells"] = (sum(attr(i, "cells") for i in grids), "count")
    m["conformal.inf_cross_ratio_us"] = (mean("conformal.inf_cross_ratio", 1e6), "us")
    m["conformal.chart_angle_us"] = (mean("conformal.chart_angle", 1e6), "us")
    m["conformal.fd_us"] = (mean("conformal.fd", 1e6), "us")
    m["conformal.chart_pole_s"] = (total("conformal.chart_pole"), "s")
    fd_calls = set(named("conformal.fd"))
    attempts = sum(1 for i in named("conformal.fd_attempt") if spans[i][PARENT] in fd_calls)
    m["conformal.fd_retry_ratio"] = ((attempts - len(fd_calls)) / len(fd_calls)
                                     if fd_calls else 0.0, "ratio")

    levels = under(grids, named("functionals.compute"))
    cells = sum(attr(i, "cells") for i in levels)
    final = sum(attr(i, "final_cells") for i in named("functionals.compute"))
    m["functionals.compute_s"] = (total("functionals.compute"), "s")
    m["functionals.levels"] = (len(levels), "count")
    m["functionals.cells_evaluated"] = (cells, "count")
    m["functionals.useful_cell_ratio"] = (final / cells if cells else 0.0, "ratio")
    m["functionals.export_grid_s"] = (total("functionals.export_grid"), "s")
    m["functionals.export_bytes"] = (sum(attr(i, "bytes") for i in named("functionals.export_grid")),
                                     "bytes")
    m["functionals.read_grid_s"] = (total("functionals.read_grid"), "s")
    m["symplectic.exterior_check_s"] = (total("symplectic.exterior_check"), "s")

    batches = named("optimize.batch_objective")
    gradient = [dur[i] for i in batches if attr(i, "rows") > 1]
    runs = named("optimize.minimize")
    steps = sum(attr(i, "steps") for i in runs)
    trials = len(under(named("optimize.objective"), runs)) - len(runs)  # less the initial value
    m["optimize.batch_objective_s"] = (statistics.median(gradient) if gradient else 0.0, "s")
    m["optimize.objective_s"] = (total("optimize.objective"), "s")
    m["optimize.objective_calls"] = (len(named("optimize.objective")), "count")
    m["optimize.batch_rows"] = (sum(attr(i, "rows") for i in batches), "count")
    m["optimize.steps"] = (steps, "count")
    m["optimize.accept_ratio"] = (steps / trials if trials > 0 else 0.0, "ratio")

    for name in VERIFY_CHECKS:
        m[f"verify.check_s.{name}"] = (total("verify.check." + name), "s")

    inside = sum(dur[i] for i in range(n) if spans[i][PARENT] < 0)
    m["trace.wall_s"] = (wall, "s")
    m["trace.remainder_s"] = (wall - inside, "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("plan")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = Plan.from_json(json.load(fh))
    import linkarea.cli  # noqa: F401  (imports every layer before wrapping)
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    wall, outcomes = replay(plan, tracer)
    doc = {"wall_s": wall, "outcomes": outcomes}
    if tracer:
        if args.spans:
            tracer.write(args.spans)
        doc["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in layer_metrics(tracer.spans, wall).items()}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
