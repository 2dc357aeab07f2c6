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
from .errors import DegenerateBasis
from .links import TWO_PI, catalogue, random_mobius
from .rng import Lcg64

#: route tolerances shared with the oracle command
TOL_WEDGE_CHART = 1e-7
TOL_FD = 5e-5
TOL_SYMPLECTIC = 1e-6


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_vec5(rng, scale=1.0):
    return np.array([rng.uniform_in(-scale, scale) for _ in range(5)])


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


def check_nullity(links=None, n_samples: int = 1000, seed: int = 4) -> PropertyResult:
    links = links if links is not None else catalogue()
    rng = Lcg64(seed)
    worst = 0.0
    for link in links.values():
        s = np.array([rng.uniform_in(0, TWO_PI) for _ in range(n_samples)])
        t = np.array([rng.uniform_in(0, TWO_PI) for _ in range(n_samples)])
        _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
        worst = max(worst, float(np.max(np.abs(mk.inner10(ss, ss)))),
                    float(np.max(np.abs(mk.inner10(st, st)))))
    return PropertyResult("tangent_nullity", worst <= 1e-10,
                          f"max |<sigma_u, sigma_u>| = {worst:.2e} at {n_samples} samples per link")


def check_metric_routes(links=None, n_samples: int = 1000, seed: int = 5) -> PropertyResult:
    links = links if links is not None else catalogue()
    rng = Lcg64(seed)
    worst = 0.0
    for link in links.values():
        s = np.array([rng.uniform_in(0, TWO_PI) for _ in range(n_samples)])
        t = np.array([rng.uniform_in(0, TWO_PI) for _ in range(n_samples)])
        closed = sp.metric_pairs(link.c1, link.c2, s, t)
        _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
        explicit = mk.inner10(ss, st)
        scale = np.maximum(np.abs(explicit), 1.0)
        worst = max(worst, float(np.max(np.abs(closed - explicit) / scale)))
    return PropertyResult("metric_two_routes", worst <= 1e-10,
                          f"closed vs explicit relative deviation {worst:.2e}")


def check_signature(seed: int = 6, n_pairs: int = 100) -> PropertyResult:
    rng = Lcg64(seed)
    bad = 0
    for _ in range(n_pairs):
        x, y = _random_pair_on_sphere(rng)
        try:
            ok = sp.theta_tangent_signature(x, y) == (3, 3, 0)
        except DegenerateBasis:  # no signature at all, e.g. under a broken inner product
            ok = False
        bad += 0 if ok else 1
    return PropertyResult("tangent_signature", bad == 0,
                          f"index(3,3) at {n_pairs - bad}/{n_pairs} random pairs")


def check_angle_routes(links=None, n: int = 64) -> PropertyResult:
    links = links if links is not None else catalogue()
    s = np.linspace(0.0, TWO_PI, n, endpoint=False)
    worst = 0.0
    for link in links.values():
        a = cf.conformal_angle_wedge_grid(link.c1, link.c2, s, s)
        b = cf.conformal_angle_chart_grid(link.c1, link.c2, s, s)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return PropertyResult("angle_two_routes", worst <= TOL_WEDGE_CHART,
                          f"max |wedge - chart| = {worst:.2e} on {n}x{n} grids")


def check_fd_oracle(links=None, n_samples: int = 20, seed: int = 7) -> PropertyResult:
    if links is None:
        full = catalogue()
        links = {k: full[k] for k in ("separated_1.0", "perturbed_hopf_0.2_s0")}
    rng = Lcg64(seed)
    worst = 0.0
    worst_order = np.inf
    for link in links.values():
        pole = cf.chart_pole(link.c1, link.c2)
        s, t = np.array([(rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI))
                         for _ in range(n_samples)]).T
        want = 0.5 * sp.metric_pairs(link.c1, link.c2, s, t)
        err = np.abs(cf.cross_ratio_fd(link.c1, link.c2, s, t, 1e-3, pole=pole) - want)
        err_half = np.abs(cf.cross_ratio_fd(link.c1, link.c2, s, t, 5e-4, pole=pole) - want)
        worst = max(worst, float(np.max(err)))
        usable = (err_half > 1e-13) & (err > 1e-11)
        if usable.any():
            worst_order = min(worst_order, float(np.min(np.log2(err[usable] / err_half[usable]))))
    order_txt = "n/a" if worst_order == np.inf else f"{worst_order:.2f}"
    ok = worst <= TOL_FD and worst_order >= 1.9
    return PropertyResult("cross_ratio_fd_oracle", ok,
                          f"max deviation {worst:.2e}, observed order >= {order_txt}")


def check_symplectic(links=None, n: int = 128) -> PropertyResult:
    links = links if links is not None else catalogue()
    sign = sy.determine_global_sign(links["separated_1.0"], n, n)
    worst = 0.0
    for link in links.values():
        res, _ = sy.exterior_derivative_check(link.c1, link.c2, n, n, sign=sign)
        worst = max(worst, res)
    return PropertyResult("symplectic_one_form", worst <= TOL_SYMPLECTIC,
                          f"global sign {sign:+d}, max residual {worst:.2e} at {n}x{n}")


def run_battery(links=None, base_seed: int = 0):
    """All property checks, in a fixed order, seeded from base_seed."""
    links = links if links is not None else catalogue()
    return [
        check_plucker_relations(base_seed + 0),
        check_wedge_determinant(base_seed + 1),
        check_plane_classification(),
        check_minor_lift(base_seed + 2),
        check_equivariance(base_seed + 3),
        check_nullity(links, seed=base_seed + 4),
        check_metric_routes(links, seed=base_seed + 5),
        check_signature(base_seed + 6),
        check_angle_routes(links),
        check_fd_oracle(seed=base_seed + 7),
        check_symplectic(links),
    ]
