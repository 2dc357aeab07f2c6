"""Workload definitions: seeded inputs, invocation sequences, references
and the output checks that decide whether an invocation failed.

A workload is a fixed sequence of ``linkarea`` CLI invocations. Every link
file it reads is generated here from the workload seed; the program sees
only those files. Each invocation is checked after it ends:

- ``area``: within its tolerance of the closed-form reference where one
  exists, signed area below 1e-9, and the Hopf link prints exactly
  ``area=0``;
- ``minimize``: the trace never increases, its last line equals the
  printed objective, and the written link file reads back;
- ``anglemap``: n^2 rows that round-trip bit-exactly through
  ``read_grid`` against ``build_grid``;
- ``oracle``, ``invariance``: exit code 0; ``verify``: exit code 0 and
  a summary line ending in ``failed=0``.

A nonzero exit, a failed check or a partial output (a file written by an
invocation that failed) counts the invocation as failed.
"""

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: separations of the round coaxial pairs whose area has a closed form
SEPARATIONS = (0.5, 1.0, 1.5, 1.9)

#: relative agreement required between 4*energy/pi and the closed form
REFERENCE_SELF_CHECK = 1e-9

#: bound on |signed area|, which vanishes for every link
SIGNED_AREA_TOL = 1e-9

DEFAULT_AREA_TOL = 1e-3

# Invocations that fail today, each counted as failed on every run. The
# area of separated_link(0.5) does not converge to the default tolerance
# within 1024^2 nodes (the kink in |g|); minimize on an unlinked pair
# shrinks both circles until the speed floor stops it, leaving the trace
# file and no link file; and the verify battery's finite-difference order
# check fails for about one --seed in nine, 994922 among them (seed 713288
# instead hits a concircular stencil). verify runs with that fixed seed so
# that the failure shows on every run rather than on some seeds.
KINK_LIMIT = {"exit": 3, "says": ["no convergence to 0.001 within 1024 nodes"]}
SHRINKS = {"exit": 3, "says": ["error: speed"]}
FD_ORDER = {"exit": 1, "says": ["FAIL cross_ratio_fd_oracle", "verify: passed=10 failed=1"]}
VERIFY_SEED = "994922"


@dataclass
class Invocation:
    """One CLI call, the input link it reads and what its check needs."""
    argv: list
    link: str = ""
    outputs: list = field(default_factory=list)
    #: for a documented failure: its exit code and texts its output contains
    known_failure: dict = None

    @property
    def command(self):
        i = 0
        while self.argv[i].startswith("--"):  # skip global options
            i += 2
        return self.argv[i]

    def option(self, name, default=None):
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default


@dataclass
class Plan:
    workload: str
    seed: int
    inputs: dict
    invocations: list
    references: dict

    def to_json(self):
        return {"workload": self.workload, "seed": self.seed, "inputs": self.inputs,
                "references": self.references,
                "invocations": [vars(inv) for inv in self.invocations]}

    @classmethod
    def from_json(cls, doc):
        invs = [Invocation(**inv) for inv in doc["invocations"]]
        return cls(doc["workload"], doc["seed"], doc["inputs"], invs, doc["references"])


# ---------------------------------------------------------------------------
# seeded inputs


def _write_reflected(link, signs, path):
    """Write a link file with coordinate k of R^4 multiplied by signs[k].

    Sign flips of coordinates are isometries of S^3 that floating point
    applies exactly: every dot product, and so every functional and every
    step of the descent, comes out bit-identical to the unreflected link.
    """
    from linkarea import write_link
    write_link(link, path)
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    for comp in doc["components"]:  # circles and Fourier curves: fourier4 rows
        comp["coefficients"] = [[sign * v for v in row]
                                for sign, row in zip(signs, comp["coefficients"])]
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _write_samples4(link, n_nodes, path):
    s = np.linspace(0.0, 2.0 * np.pi, n_nodes, endpoint=False)
    doc = {"version": "lk-1", "components": [
        {"kind": "samples4", "nodes": link.c1.point(s).tolist()},
        {"kind": "samples4", "nodes": link.c2.point(s).tolist()}]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _separated_area(d_nominal):
    """Closed-form area of separated_link(d): 2 pi (4 - d^2) / d."""
    d = d_nominal * (1.0 + 1e-9)  # the offset separated_link builds in
    return 2.0 * math.pi * (4.0 - d * d) / d


def make_inputs(workload, seed, directory, tiny=False):
    """Write the workload's link files; returns the plan that uses them and
    any failures of the reference self-check.

    The seed draws coordinate reflections of the fixed descent and
    closed-form links (exact symmetries, so their work does not depend on
    the seed), the perturbation seeds of the audit and quadrature links,
    and the --seed of oracle, invariance and verify.
    """
    import linkarea as la

    rng = random.Random(f"{workload}:{seed}")
    directory = Path(directory)
    out = directory / "out"
    out.mkdir(parents=True, exist_ok=True)
    inputs = {}

    # Every workload makes the same draws, so each input is a function of
    # the seed. The descent starts stay perturbed_hopf_link(0.1, 0) and
    # (0.1, 1) up to reflection: how many steps a descent takes changes
    # from 46 to 185 across perturbation seeds, which would make wall_s a
    # property of the seed.
    flips = {name: [rng.choice((-1.0, 1.0)) for _ in range(4)]
             for name in ("p01_s0", "p01_s1", "parallel", *(f"sep{d}" for d in SEPARATIONS))}
    p02 = la.perturbed_hopf_link(0.2, rng.randrange(1 << 20))
    spline_base = la.perturbed_hopf_link(0.2, rng.randrange(1 << 20))

    def put(name, link):
        inputs[name] = str(directory / f"{name}.lk1")
        _write_reflected(link, flips.get(name, (1.0, 1.0, 1.0, 1.0)), inputs[name])

    def cli_seed():
        return str(rng.randrange(1 << 20))

    def minimize(name, *flags, known_failure=None):
        tr, lk = str(out / f"{name}.trace.csv"), str(out / f"{name}.min.lk1")
        return Invocation(["minimize", inputs[name], *flags, "--trace-out", tr,
                           "--link-out", lk], link=name, outputs=[tr, lk],
                          known_failure=known_failure)

    def area(name, *flags, known_failure=None):
        return Invocation(["area", inputs[name], *flags], link=name,
                          known_failure=known_failure)

    def anglemap(name, n):
        csv = str(out / f"{name}.{n}.csv")
        return Invocation(["anglemap", inputs[name], "--grid", n, "--out", csv],
                          link=name, outputs=[csv])

    def oracle(name, samples):
        return Invocation(["--seed", cli_seed(), "oracle", inputs[name],
                           "--samples", str(samples)], link=name)

    def invariance(name):
        return Invocation(["--seed", cli_seed(), "invariance", inputs[name],
                           "--transforms", "2" if tiny else "20"], link=name)

    # Each workload also runs the commands it does not exercise, so that it
    # reports every end-to-end metric. The timed ones (probes), and the
    # quadrature's anglemap, run three times: first, in the middle and last,
    # so that their short wall times average over the run rather than
    # sample one moment of machine load.
    def spread(main, probes, once=()):
        half = len(main) // 2
        return probes() + main[:half] + probes() + main[half:] + list(once) + probes()

    small_grid, samples = ("32", "20") if tiny else ("64", "200")
    put("p02", p02)
    put("p01_s0", la.perturbed_hopf_link(0.1, 0))
    put("sep1.0", la.separated_link(1.0))
    put("sep1.5", la.separated_link(1.5))
    short_descent = minimize("p01_s0", "--steps", "3" if tiny else "10")
    if workload == "descent":
        put("p01_s1", la.perturbed_hopf_link(0.1, 1))
        main = [minimize(name, "--steps", "3" if tiny else "2000", "--stop-below", "5e-4")
                for name in ("p01_s0", "p01_s1")]
        main.append(minimize("sep1.0", "--steps", "20", known_failure=SHRINKS))
        invs = spread(main, lambda: [oracle("p02", samples), area("sep1.0"), area("sep1.5"),
                                     anglemap("p02", small_grid)])
    elif workload == "audit":
        _write_samples4(spline_base, 64, directory / "spline.lk1")
        inputs["spline"] = str(directory / "spline.lk1")
        put("sep0.5", la.separated_link(0.5))
        main = [oracle("p02", 20 if tiny else 2000), invariance("p02"),
                oracle("spline", 20 if tiny else 2000), invariance("spline"),
                Invocation(["--seed", VERIFY_SEED, "verify"], known_failure=FD_ORDER)]
        invs = spread(main, lambda: [area("sep1.0"), area("sep1.5"), anglemap("p02", small_grid)],
                      once=[short_descent, area("sep0.5", known_failure=KINK_LIMIT)])
    elif workload == "quadrature":
        for d in SEPARATIONS:
            put(f"sep{d}", la.separated_link(d))
        put("parallel", la.parallel_circles_link())
        put("hopf", la.hopf_link())
        main = [area(name, *flags, known_failure=KINK_LIMIT if name == "sep0.5" else None)
                for name in [f"sep{d}" for d in SEPARATIONS] + ["parallel", "hopf", "p02"]
                for flags in ([[]] if tiny else [[], ["--grid", "512"]])]
        invs = spread(main, lambda: [anglemap("p02", "32" if tiny else "512"),
                                     oracle("p02", samples)], once=[short_descent])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    refs, problems = references(inputs)
    return Plan(workload, seed, inputs, invs, refs), problems


def references(inputs):
    """Exact areas of the closed-form links, and self-check failures.

    Separated pairs use 2 pi (4 - d^2)/d; the parallel circles use
    4*energy/pi with the spectrally convergent energy at tol 1e-10, a route
    first confirmed against the closed form on the separated family.
    """
    from linkarea import compute_functionals, read_link, separated_link

    def via_energy(link):
        rep = compute_functionals(link, tol=1e-10, criterion="energy")
        return 4.0 * rep.energy / math.pi

    refs, problems = {}, []
    for d in SEPARATIONS:
        closed = _separated_area(d)
        check = via_energy(separated_link(d))
        if abs(check - closed) > REFERENCE_SELF_CHECK * closed:
            problems.append(f"4*energy/pi={check!r} but closed form {closed!r} at d={d}")
        if f"sep{d}" in inputs:
            refs[f"sep{d}"] = closed
    if "parallel" in inputs:
        refs["parallel"] = via_energy(read_link(inputs["parallel"]))
    if "hopf" in inputs:
        refs["hopf"] = 0.0
    return refs, problems


# ---------------------------------------------------------------------------
# output checks

_KV = re.compile(r"(\w+)=(\S+)")


def parse_fields(stdout):
    """key=value pairs of the first output line."""
    line = stdout.strip().split("\n", 1)[0] if stdout.strip() else ""
    return dict(_KV.findall(line))


@dataclass
class Outcome:
    ok: bool
    reason: str
    values: dict
    known: bool = False  # failed exactly as its documented known failure


def check(inv, plan, returncode, stdout, stderr):
    """Decide whether one finished invocation succeeded, and extract values."""
    if returncode != 0:
        partial = [Path(p).name for p in inv.outputs if Path(p).exists()]
        why = f"exit {returncode}" + (f", partial output {partial}" if partial else "")
        kf = inv.known_failure
        known = bool(kf) and returncode == kf["exit"] and all(
            text in stdout + stderr for text in kf["says"])
        return Outcome(False, why, {}, known)
    kv = parse_fields(stdout)
    try:
        return _CHECKS[inv.command](inv, plan, kv, stdout)
    except (KeyError, ValueError, OSError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}", {})


def _check_area(inv, plan, kv, stdout):
    area = float(kv["area"])
    signed = float(kv["signed_area"])
    tol = float(inv.option("--tol", DEFAULT_AREA_TOL))
    values = {"area": area}
    if abs(signed) > SIGNED_AREA_TOL:
        return Outcome(False, f"signed area {signed!r}", values)
    ref = plan.references.get(inv.link)
    if inv.link == "hopf":
        return Outcome(kv["area"] == "0", f"hopf area printed {kv['area']}", values)
    if ref is None:
        ok = area > 0.0 and float(kv["est_error"]) <= tol
        return Outcome(ok, "" if ok else f"area {area!r}", values)
    values["err"] = abs(area - ref)
    ok = values["err"] <= tol
    return Outcome(ok, "" if ok else f"area {area!r} vs reference {ref!r}", values)


def _check_minimize(inv, plan, kv, stdout):
    from linkarea import read_link
    trace_path, link_path = inv.outputs
    lines = Path(trace_path).read_text(encoding="utf-8").strip().split("\n")
    if lines[0] != "step,objective" or len(lines) < 2:
        return Outcome(False, "malformed trace", {})
    texts = [ln.split(",")[1] for ln in lines[1:]]
    vals = [float(x) for x in texts]
    if any(b > a for a, b in zip(vals, vals[1:])):
        return Outcome(False, "trace increases", {})
    if texts[-1] != kv["objective"]:
        return Outcome(False, "trace end differs from printed objective", {})
    read_link(link_path)
    return Outcome(True, "", {"objective": float(kv["objective"]),
                              "steps": int(kv["steps"])})


def _check_anglemap(inv, plan, kv, stdout):
    from linkarea import build_grid, read_link, read_grid
    n = int(inv.option("--grid"))
    csv = inv.option("--out")
    with open(csv, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != n * n:
        return Outcome(False, f"{rows} rows, expected {n * n}", {})
    back = read_grid(csv)
    ref = build_grid(read_link(plan.inputs[inv.link]), n, n)
    for name in ("s", "t", "g", "theta", "abs_omega", "re_omega"):
        if not np.array_equal(getattr(back, name), getattr(ref, name)):
            return Outcome(False, f"{name} does not round-trip", {})
    return Outcome(True, "", {"rows": rows})


def _check_exit_only(inv, plan, kv, stdout):
    return Outcome(True, "", {})


def _check_verify(inv, plan, kv, stdout):
    ok = stdout.rstrip().endswith("failed=0")
    return Outcome(ok, "" if ok else "battery reported failures", {})


_CHECKS = {
    "area": _check_area,
    "minimize": _check_minimize,
    "anglemap": _check_anglemap,
    "oracle": _check_exit_only,
    "invariance": _check_exit_only,
    "verify": _check_verify,
}
