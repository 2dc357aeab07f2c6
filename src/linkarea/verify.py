"""Property battery behind the `verify` command.

Each check exercises one of the structural identities of the torus
geometry at desk scale and returns a pass flag with a short detail
string.  All randomness is drawn from the seeded in-package generator,
so the battery output is reproducible byte for byte.
"""

from dataclasses import dataclass

import numpy as np

from . import conformal as cf
from . import minkowski as mk
from . import spheres as sp
from . import symplectic as sy
from .errors import LinkAreaError
from .functionals import build_grid
from .links import TWO_PI, catalogue, random_mobius
from .rng import Lcg64


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_vec5(rng, scale=1.0):
    return rng.uniform_array(5, -scale, scale)


def _random_pair_on_sphere(rng):
    while True:
        x = np.array([rng.normal() for _ in range(4)])
        y = np.array([rng.normal() for _ in range(4)])
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx > 0.1 and ny > 0.1:
            x, y = x / nx, y / ny
            if np.linalg.norm(x - y) > 0.1:
                return x, y


def check_plucker_relations(seed: int = 0) -> PropertyResult:
    rng = Lcg64(seed)
    worst = 0.0
    for _ in range(50):
        p = mk.wedge(_random_vec5(rng), _random_vec5(rng))
        scale = max(np.max(np.abs(p)) ** 2, 1e-30)
        worst = max(worst, float(np.max(np.abs(mk.plucker_residuals(p)))) / scale)
    e = np.eye(5)
    mixed = mk.wedge(e[0], e[1]) + mk.wedge(e[2], e[3])
    nontrivial = float(np.max(np.abs(mk.plucker_residuals(mixed))))
    ok = worst <= 1e-12 and nontrivial >= 0.5
    return PropertyResult("plucker_relations", ok,
                          f"max scaled residual {worst:.2e}, non-decomposable witness {nontrivial:.2f}")


def check_wedge_determinant(seed: int = 1) -> PropertyResult:
    rng = Lcg64(seed)
    worst = 0.0
    for _ in range(200):
        x, y, xp, yp = (_random_vec5(rng) for _ in range(4))
        lhs = mk.inner10(mk.wedge(x, y), mk.wedge(xp, yp))
        rhs = mk.inner10_det(x, y, xp, yp)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return PropertyResult("wedge_determinant_identity", worst <= 1e-12,
                          f"max relative deviation {worst:.2e}")


def check_plane_classification() -> PropertyResult:
    e = np.eye(5)
    timelike = mk.inner10(mk.wedge(e[0], e[1]), mk.wedge(e[0], e[1]))
    spacelike = mk.inner10(mk.wedge(e[1], e[2]), mk.wedge(e[1], e[2]))
    light = e[0] + e[1]
    iso = mk.inner10(mk.wedge(light, e[2]), mk.wedge(light, e[2]))
    ok = timelike > 0.5 and spacelike < -0.5 and abs(iso) < 1e-12
    return PropertyResult("plane_classification", ok,
                          f"timelike {timelike:+.1f}, spacelike {spacelike:+.1f}, isotropic {iso:+.1e}")


def check_minor_lift(seed: int = 2, n_maps: int = 50) -> PropertyResult:
    worst_orth = 0.0
    worst_hom = 0.0
    for k in range(n_maps):
        A = random_mobius(seed + 2 * k, 1.5).matrix
        B = random_mobius(seed + 2 * k + 1, 1.5).matrix
        worst_orth = max(worst_orth, mk.lift10_orthogonality_residual(mk.minor_lift(A)))
        hom = np.max(np.abs(mk.minor_lift(A @ B) - mk.minor_lift(A) @ mk.minor_lift(B)))
        worst_hom = max(worst_hom, float(hom))
    ok = worst_orth <= 1e-10 and worst_hom <= 1e-10
    return PropertyResult("minor_lift", ok,
                          f"orthogonality {worst_orth:.2e}, homomorphism {worst_hom:.2e} over {n_maps} maps")


def check_equivariance(seed: int = 3, n_maps: int = 20) -> PropertyResult:
    rng = Lcg64(seed)
    worst = 0.0
    for k in range(n_maps):
        mob = random_mobius(seed + 100 + k, 1.0)
        x, y = _random_pair_on_sphere(rng)
        lhs = mk.minor_lift(mob.matrix) @ sp.psi_embed(x, y)
        rhs = sp.psi_embed(mob.act_point(x), mob.act_point(y))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return PropertyResult("psi_equivariance", worst <= 1e-9,
                          f"max componentwise deviation {worst:.2e} over {n_maps} maps")


def check_nullity(links, n_samples: int = 1000, seed: int = 4) -> PropertyResult:
    rng = Lcg64(seed)
    worst = 0.0
    for link in links.values():
        s = rng.uniform_array(n_samples, 0, TWO_PI)
        t = rng.uniform_array(n_samples, 0, TWO_PI)
        _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
        worst = max(worst, float(np.max(np.abs(mk.inner10(ss, ss)))),
                    float(np.max(np.abs(mk.inner10(st, st)))))
    return PropertyResult("tangent_nullity", worst <= 1e-10,
                          f"max |<sigma_u, sigma_u>| = {worst:.2e} at {n_samples} samples per link")


def check_metric_routes(links, n_samples: int = 1000, seed: int = 5) -> PropertyResult:
    rng = Lcg64(seed)
    worst = 0.0
    for link in links.values():
        s = rng.uniform_array(n_samples, 0, TWO_PI)
        t = rng.uniform_array(n_samples, 0, TWO_PI)
        closed = sp.metric_pairs(link.c1, link.c2, s, t)
        _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
        explicit = mk.inner10(ss, st)
        scale = np.maximum(np.abs(explicit), 1.0)
        worst = max(worst, float(np.max(np.abs(closed - explicit) / scale)))
    return PropertyResult("metric_two_routes", worst <= 1e-10,
                          f"closed vs explicit relative deviation {worst:.2e}")


def check_signature(seed: int = 6, n_pairs: int = 100) -> PropertyResult:
    rng = Lcg64(seed)
    x, y = np.array([_random_pair_on_sphere(rng) for _ in range(n_pairs)]).transpose(1, 0, 2)
    # a pair without a tangent basis counts (0, 0, 0), so it fails too
    counts = sp.theta_tangent_signature(x, y)
    bad = int(np.sum(np.any(counts != (3, 3, 0), axis=-1)))
    return PropertyResult("tangent_signature", bad == 0,
                          f"index(3,3) at {n_pairs - bad}/{n_pairs} random pairs")


def check_angle_routes(links, n: int = 64) -> PropertyResult:
    """The exported wedge-route theta against the chart route on the n x n
    grid, compared as cosines (see conformal.TOL_WEDGE_CHART)."""
    worst = 0.0
    for link in links.values():
        grid = build_grid(link, n, n)
        chart = cf.conformal_angle_chart_pairs(link.c1, link.c2, grid.s[:, None], grid.t)
        worst = max(worst, float(np.max(np.abs(np.cos(grid.theta) - np.cos(chart)))))
    return PropertyResult("angle_two_routes", worst <= cf.TOL_WEDGE_CHART,
                          f"max |cos wedge - cos chart| = {worst:.2e} on {n}x{n} grids")


#: the catalogue links on which the finite-difference oracle is checked
FD_ORACLE_LINKS = ("separated_1.0", "perturbed_hopf_0.2_s0")


def check_fd_oracle(links, n_samples: int = 20, seed: int = 7) -> PropertyResult:
    rng = Lcg64(seed)
    worst = 0.0
    worst_order = np.inf
    for link in links.values():
        pole = cf.chart_pole(link.c1, link.c2)
        # the draws alternate s, t
        s, t = rng.uniform_array(2 * n_samples, 0, TWO_PI).reshape(-1, 2).T
        want = cf.density_pairs(link.c1, link.c2, s, t)[3]
        err = np.abs(cf.cross_ratio_fd(link.c1, link.c2, s, t, 1e-3, pole=pole) - want)
        err_half = np.abs(cf.cross_ratio_fd(link.c1, link.c2, s, t, 5e-4, pole=pole) - want)
        worst = max(worst, float(np.max(err)))
        usable = (err_half > 1e-13) & (err > 1e-11)
        if usable.any():
            worst_order = min(worst_order, float(np.min(np.log2(err[usable] / err_half[usable]))))
    order_txt = "n/a" if worst_order == np.inf else f"{worst_order:.2f}"
    ok = worst <= cf.TOL_FD and worst_order >= 1.9
    return PropertyResult("cross_ratio_fd_oracle", ok,
                          f"max deviation {worst:.2e}, observed order >= {order_txt}")


def check_symplectic(links, n: int = 128) -> PropertyResult:
    worst = float(np.max([sy.exterior_derivative_check(link.c1, link.c2, n, n)
                          for link in links.values()]))
    return PropertyResult("symplectic_one_form", worst <= sy.TOL_SYMPLECTIC,
                          f"global sign {sy.SIGN:+d}, max residual {worst:.2e} at {n}x{n}")


def _guarded(name, check):
    """check(), or a FAIL named name if it raises ValueError or a LinkAreaError.

    On the battery's own links and samples such a raise (the cosine range
    check, coincident points) is a defect of a route, not of the input.
    """
    try:
        return check()
    except (ValueError, LinkAreaError) as exc:
        return PropertyResult(name, False, f"raised {type(exc).__name__}: {exc}")


def run_battery(links=None, base_seed: int = 0):
    """All property checks, in a fixed order, seeded from base_seed.

    Each check runs under its own handler (_guarded), so one that raises
    fails and the checks after it still run.
    """
    links = links if links is not None else catalogue()
    checks = [
        ("plucker_relations", lambda: check_plucker_relations(base_seed + 0)),
        ("wedge_determinant_identity", lambda: check_wedge_determinant(base_seed + 1)),
        ("plane_classification", check_plane_classification),
        ("minor_lift", lambda: check_minor_lift(base_seed + 2)),
        ("psi_equivariance", lambda: check_equivariance(base_seed + 3)),
        ("tangent_nullity", lambda: check_nullity(links, seed=base_seed + 4)),
        ("metric_two_routes", lambda: check_metric_routes(links, seed=base_seed + 5)),
        ("tangent_signature", lambda: check_signature(base_seed + 6)),
        ("angle_two_routes", lambda: check_angle_routes(links)),
        ("cross_ratio_fd_oracle", lambda: check_fd_oracle(
            {k: links[k] for k in FD_ORACLE_LINKS}, seed=base_seed + 7)),
        ("symplectic_one_form", lambda: check_symplectic(links)),
    ]
    return [_guarded(name, check) for name, check in checks]
