"""Command-line front end.

Subcommands: verify (property battery), area (functional report),
anglemap (grid CSV export), invariance (Moebius-map audit), oracle
(cross-route audit), minimize (shape descent).  Exit codes: 0 success,
1 property failure, 2 input error, 3 numerical-tolerance failure; a
deviation or a quadrature level that is not finite fails.  All
randomness sits behind --seed, and identical invocations produce
byte-identical output.  Each command imports the modules it runs, so
that a command pays for no other command's code; importing this module
loads no numpy.  The package, which this module's import loads first,
pins OpenBLAS to one thread (see linkarea/__init__.py).
"""

import argparse
import os
import sys

from .errors import BadLinkFile, BadParameter, IoFailure, LinkAreaError, open_output

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_TOLERANCE = 3

INVARIANCE_TOL = 1e-5


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _distinct_files(*named):
    """Raise BadParameter if two of the (name, path) pairs are one file: by
    (st_dev, st_ino) where the path exists, hard links included, else by realpath."""
    seen = {}
    for name, path in named:
        try:
            info = os.stat(path)
            key = info.st_dev, info.st_ino
        except OSError:
            key = os.path.realpath(path)
        if (first := seen.setdefault(key, name)) != name:
            raise BadParameter(f"{first} and {name} name the same file")


def cmd_verify(args) -> int:
    from . import verify as vf
    from .links import catalogue

    results = vf.run_battery(catalogue(), args.seed)
    failed = 0
    for name, passed, detail in results:
        print(("PASS" if passed else "FAIL") + f" {name}: {detail}")
        failed += 0 if passed else 1
    print(f"verify: passed={len(results) - failed} failed={failed}")
    return EXIT_OK if failed == 0 else EXIT_PROPERTY


def cmd_area(args) -> int:
    from .functionals import compute_functionals
    from .links import read_link

    rep = compute_functionals(read_link(args.file), tol=args.tol, n_start=args.grid)
    print(f"signed_area={_fmt(rep.signed_area)} area={_fmt(rep.area)} "
          f"energy={_fmt(rep.energy)} grid={rep.grid_used[0]}x{rep.grid_used[1]} "
          f"est_error={_fmt(rep.est_error)}")
    return EXIT_OK


def cmd_anglemap(args) -> int:
    """Write the --grid x --grid density grid as CSV, one row block of 2,048
    nodes at a time (see functionals.grid_blocks).

    --out may not name FILE, by any path or hard link.  The link and the
    resolution are checked before the file is opened, and a writer holds
    one block at a time.  Above 64 x 64 (more than two blocks), this
    single-threaded process and a forked helper taking the odd blocks write
    --out in turns, a file or a FIFO alike; the bytes are the same, and no
    option chooses.  A failure in either process is reported as the first
    failed block's error, and leaves no file (a FIFO stays) and no helper
    process (see gridio.write_grid).
    """
    from .functionals import grid_blocks
    from .gridio import write_grid
    from .links import read_link

    _distinct_files(("FILE", args.file), ("--out", args.out))
    link = read_link(args.file)
    write_grid(*grid_blocks(link, args.grid, args.grid), args.out)
    print(f"wrote {args.grid * args.grid} rows to {args.out}")
    return EXIT_OK


def cmd_invariance(args) -> int:
    import numpy as np

    from .functionals import build_grid, compute_functionals
    from .links import random_mobius, read_link

    if args.transforms < 1:
        raise BadParameter("at least 1 transform")
    if args.transforms > 100:
        raise BadParameter("at most 100 transforms")
    link = read_link(args.file)
    fields = ("g", "theta", "abs_omega", "re_omega")
    base = build_grid(link, 32, 32)
    scales = [np.maximum(np.max(np.abs(getattr(base, f))), 1.0) for f in fields]
    base_rep = compute_functionals(link, tol=1e-3)
    scale_a = np.maximum(abs(base_rep.area), 1.0)
    scale_e = np.maximum(abs(base_rep.energy), 1.0)
    dev = np.empty((args.transforms, 3))  # relative deviations of area, energy, densities
    for k in range(args.transforms):
        moved = random_mobius(args.seed + k, 1.0).transform_link(link)
        rep = compute_functionals(moved, tol=1e-3)
        grid = build_grid(moved, 32, 32)
        dev[k] = (abs(rep.area - base_rep.area) / scale_a,
                  abs(rep.energy - base_rep.energy) / scale_e,
                  np.max([np.abs(getattr(grid, f) - getattr(base, f)) / scale
                          for f, scale in zip(fields, scales)]))
    dev_area, dev_energy, dev_density = np.max(dev, axis=0)
    print(f"transforms={args.transforms} max_rel_area={_fmt(dev_area)} "
          f"max_rel_energy={_fmt(dev_energy)} max_rel_density={_fmt(dev_density)}")
    if not np.max(dev) <= INVARIANCE_TOL:  # a NaN fails too
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_oracle(args) -> int:
    import numpy as np

    from . import conformal as cf
    from . import symplectic as sy
    from .links import TWO_PI, read_link
    from .rng import Lcg64

    if args.samples < 1:
        raise BadParameter("at least 1 sample")
    if args.samples > 10000:
        raise BadParameter("at most 10000 samples")
    link = read_link(args.file)
    rng = Lcg64(args.seed)
    # the draws alternate s, t
    s, t = rng.uniform_array(2 * args.samples, 0.0, TWO_PI).reshape(-1, 2).T
    _, theta, _, re = cf.density_pairs(link.c1, link.c2, s, t)
    theta_chart = cf.conformal_angle_chart_pairs(link.c1, link.c2, s, t)
    dev_chart = float(np.max(np.abs(np.cos(theta) - np.cos(theta_chart))))
    re_fd = cf.cross_ratio_fd(link.c1, link.c2, s, t)
    dev_fd = float(np.max(np.abs(re - re_fd)))
    residual = sy.exterior_derivative_check(link.c1, link.c2)
    print(f"samples={args.samples} wedge_vs_chart={_fmt(dev_chart)} "
          f"wedge_vs_fd={_fmt(dev_fd)} symplectic_residual={_fmt(residual)} "
          f"global_sign={sy.SIGN:+d}")
    if not (dev_chart <= cf.TOL_WEDGE_CHART and dev_fd <= cf.TOL_FD
            and residual <= sy.TOL_SYMPLECTIC):  # a NaN fails too
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_minimize(args) -> int:
    from .links import link_text, read_link
    from .optimize import K_OPT, circle_fit_residual, decode_link, encode_link, minimize

    _distinct_files(("FILE", args.file), ("--trace-out", args.trace_out),
                    ("--link-out", args.link_out))
    link = read_link(args.file)
    v0 = encode_link(link)
    try:  # the descent runs on this fit, so a fit that is not a link is an input error
        decode_link(v0)
    except LinkAreaError as exc:
        raise BadParameter(f"FILE's mode-{K_OPT} Fourier fit is not a link: {exc}") from exc
    result = minimize(v0, steps=args.steps, grid_n=args.grid,
                      stop_below=args.stop_below)
    try:  # validated before either file is written
        final = decode_link(result.vector)
    except BadParameter as exc:  # the descent produced it: not an input error
        raise LinkAreaError(f"the descent's endpoint is not a valid link: {exc}") from exc
    trace = "step,objective\n" + "".join(f"{i},{_fmt(v)}\n" for i, v in enumerate(result.trace))
    with open_output(args.trace_out) as fh:
        fh.write(trace.encode())
        with open_output(args.link_out) as fh:  # a failure here removes both files
            fh.write(link_text(final).encode())
    res1 = circle_fit_residual(final.c1)
    res2 = circle_fit_residual(final.c2)
    print(f"status={result.status} steps={len(result.trace) - 1} "
          f"objective={_fmt(result.trace[-1])} "
          f"circle_fit_1={_fmt(res1)} circle_fit_2={_fmt(res2)}")
    print(f"wrote {args.trace_out} and {args.link_out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkarea",
        description="Conformal area invariants of 2-component links in the 3-sphere.")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run the property battery")

    p = sub.add_parser("area", help="signed area, area and cross energy of a link file")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=32, help="starting grid resolution")
    p.add_argument("--tol", type=float, default=1e-3, help="refinement tolerance")

    p = sub.add_parser("anglemap", help="export the density grid as CSV")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out", required=True)

    p = sub.add_parser("invariance", help="audit Moebius invariance of the functionals")
    p.add_argument("file")
    p.add_argument("--transforms", type=int, default=20)

    p = sub.add_parser("oracle", help="audit the three density routes against each other")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("minimize", help="Levenberg–Marquardt descent of the area over "
                                        "curve shapes")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--stop-below", type=float, default=0.0)
    p.add_argument("--trace-out", default="trace.csv")
    p.add_argument("--link-out", default="minimized.lk1")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "area": cmd_area,
    "anglemap": cmd_anglemap,
    "invariance": cmd_invariance,
    "oracle": cmd_oracle,
    "minimize": cmd_minimize,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BadLinkFile, BadParameter, IoFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LinkAreaError as exc:  # NoConvergence and every other numerical failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
