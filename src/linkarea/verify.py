"""Property battery behind the `verify` command.

Each check exercises one of the structural identities of the torus
geometry at desk scale and returns a pass flag with a short detail
string; BATTERY names the checks and fixes their order and seeds.  All
randomness is drawn from the seeded in-package generator, so the battery
output is reproducible byte for byte.
"""

import numpy as np

from . import conformal as cf
from . import minkowski as mk
from . import spheres as sp
from . import symplectic as sy
from .errors import LinkAreaError
from .functionals import build_grid
from .links import TWO_PI, random_mobius
from .rng import Lcg64


def _random_pair_on_sphere(rng):
    while True:
        x = np.array([rng.normal() for _ in range(4)])
        y = np.array([rng.normal() for _ in range(4)])
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx > 0.1 and ny > 0.1:
            x, y = x / nx, y / ny
            if np.linalg.norm(x - y) > 0.1:
                return x, y


def check_plucker_relations(seed):
    # 50 pairs of vectors of R^5, drawn pair by pair
    u, v = Lcg64(seed).uniform_array(500, -1.0, 1.0).reshape(50, 2, 5).transpose(1, 0, 2)
    p = mk.wedge(u, v)
    scale = np.maximum(np.max(np.abs(p), axis=-1) ** 2, 1e-30)
    worst = float(np.max(np.max(np.abs(mk.plucker_residuals(p)), axis=-1) / scale))
    e = np.eye(5)
    mixed = mk.wedge(e[0], e[1]) + mk.wedge(e[2], e[3])
    nontrivial = float(np.max(np.abs(mk.plucker_residuals(mixed))))
    return (worst <= 1e-12 and nontrivial >= 0.5,
            f"max scaled residual {worst:.2e}, non-decomposable witness {nontrivial:.2f}")


def check_wedge_determinant(seed):
    # 200 quadruples x, y, x', y' of R^5, drawn quadruple by quadruple
    x, y, xp, yp = Lcg64(seed).uniform_array(4000, -1.0, 1.0).reshape(200, 4, 5).transpose(1, 0, 2)
    lhs = mk.inner10(mk.wedge(x, y), mk.wedge(xp, yp))
    rhs = mk.inner10_det(x, y, xp, yp)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    worst = float(np.max(np.abs(lhs - rhs) / scale))
    return worst <= 1e-12, f"max relative deviation {worst:.2e}"


def check_plane_classification():
    e = np.eye(5)
    timelike = mk.inner10(mk.wedge(e[0], e[1]), mk.wedge(e[0], e[1]))
    spacelike = mk.inner10(mk.wedge(e[1], e[2]), mk.wedge(e[1], e[2]))
    light = e[0] + e[1]
    iso = mk.inner10(mk.wedge(light, e[2]), mk.wedge(light, e[2]))
    return (timelike > 0.5 and spacelike < -0.5 and abs(iso) < 1e-12,
            f"timelike {timelike:+.1f}, spacelike {spacelike:+.1f}, isotropic {iso:+.1e}")


def check_minor_lift(seed):
    worst_orth = worst_hom = 0.0
    for k in range(50):
        A = random_mobius(seed + 2 * k, 1.5).matrix
        B = random_mobius(seed + 2 * k + 1, 1.5).matrix
        worst_orth = max(worst_orth, mk.lift10_orthogonality_residual(mk.minor_lift(A)))
        hom = np.max(np.abs(mk.minor_lift(A @ B) - mk.minor_lift(A) @ mk.minor_lift(B)))
        worst_hom = max(worst_hom, float(hom))
    return (worst_orth <= 1e-10 and worst_hom <= 1e-10,
            f"orthogonality {worst_orth:.2e}, homomorphism {worst_hom:.2e} over 50 maps")


def check_equivariance(seed):
    rng = Lcg64(seed)
    worst = 0.0
    for k in range(20):
        mob = random_mobius(seed + 100 + k, 1.0)
        x, y = _random_pair_on_sphere(rng)
        lhs = mk.minor_lift(mob.matrix) @ sp.psi_embed(x, y)
        rhs = sp.psi_embed(mob.act_point(x), mob.act_point(y))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= 1e-9, f"max componentwise deviation {worst:.2e} over 20 maps"


def check_nullity(links, seed):
    rng = Lcg64(seed)
    worst = 0.0
    for link in links.values():
        s, t = rng.uniform_array(2000, 0, TWO_PI).reshape(2, 1000)
        _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
        worst = max(worst, float(np.max(np.abs(mk.inner10(ss, ss)))),
                    float(np.max(np.abs(mk.inner10(st, st)))))
    return worst <= 1e-10, f"max |<sigma_u, sigma_u>| = {worst:.2e} at 1000 samples per link"


def check_metric_routes(links, seed):
    rng = Lcg64(seed)
    worst = 0.0
    for link in links.values():
        s, t = rng.uniform_array(2000, 0, TWO_PI).reshape(2, 1000)
        closed = sp.metric_pairs(link.c1, link.c2, s, t)
        _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
        explicit = mk.inner10(ss, st)
        scale = np.maximum(np.abs(explicit), 1.0)
        worst = max(worst, float(np.max(np.abs(closed - explicit) / scale)))
    return worst <= 1e-10, f"closed vs explicit relative deviation {worst:.2e}"


def check_signature(seed):
    rng = Lcg64(seed)
    x, y = np.array([_random_pair_on_sphere(rng) for _ in range(100)]).transpose(1, 0, 2)
    # a pair without a tangent basis counts (0, 0, 0), so it fails too
    bad = int(np.sum(np.any(sp.theta_tangent_signature(x, y) != (3, 3, 0), axis=-1)))
    return bad == 0, f"index(3,3) at {100 - bad}/100 random pairs"


def check_angle_routes(links):
    """The exported wedge-route theta against the chart route on the 64 x 64
    grid, compared as cosines (see conformal.TOL_WEDGE_CHART)."""
    worst = 0.0
    for link in links.values():
        grid = build_grid(link, 64, 64)
        chart = cf.conformal_angle_chart_pairs(link.c1, link.c2, grid.s[:, None], grid.t)
        worst = max(worst, float(np.max(np.abs(np.cos(grid.theta) - np.cos(chart)))))
    return worst <= cf.TOL_WEDGE_CHART, f"max |cos wedge - cos chart| = {worst:.2e} on 64x64 grids"


#: the catalogue links on which the finite-difference oracle is checked
FD_ORACLE_LINKS = ("separated_1.0", "perturbed_hopf_0.2_s0")


def check_fd_oracle(links, seed):
    rng = Lcg64(seed)
    worst = 0.0
    worst_order = np.inf
    for name in FD_ORACLE_LINKS:
        link = links[name]
        pole = cf.chart_pole(link.c1, link.c2)
        # the draws alternate s, t
        s, t = rng.uniform_array(40, 0, TWO_PI).reshape(-1, 2).T
        want = cf.density_pairs(link.c1, link.c2, s, t)[3]
        err = np.abs(cf.cross_ratio_fd(link.c1, link.c2, s, t, 1e-3, pole=pole) - want)
        err_half = np.abs(cf.cross_ratio_fd(link.c1, link.c2, s, t, 5e-4, pole=pole) - want)
        worst = max(worst, float(np.max(err)))
        usable = (err_half > 1e-13) & (err > 1e-11)
        if usable.any():
            worst_order = min(worst_order, float(np.min(np.log2(err[usable] / err_half[usable]))))
    order_txt = "n/a" if worst_order == np.inf else f"{worst_order:.2f}"
    return (worst <= cf.TOL_FD and worst_order >= 1.9,
            f"max deviation {worst:.2e}, observed order >= {order_txt}")


def check_symplectic(links):
    worst = float(np.max([sy.exterior_derivative_check(link.c1, link.c2)
                          for link in links.values()]))
    return (worst <= sy.TOL_SYMPLECTIC,
            f"global sign {sy.SIGN:+d}, max residual {worst:.2e} at {sy.N_GRID}x{sy.N_GRID}")


#: (printed name, check of the links and the base seed), in the order they
#: run.  The lambdas look the check functions up when they run, so that a
#: function rebound on this module (a benchmark's tracing wrapper) is the
#: one called.
BATTERY = (
    ("plucker_relations", lambda links, seed: check_plucker_relations(seed)),
    ("wedge_determinant_identity", lambda links, seed: check_wedge_determinant(seed + 1)),
    ("plane_classification", lambda links, seed: check_plane_classification()),
    ("minor_lift", lambda links, seed: check_minor_lift(seed + 2)),
    ("psi_equivariance", lambda links, seed: check_equivariance(seed + 3)),
    ("tangent_nullity", lambda links, seed: check_nullity(links, seed + 4)),
    ("metric_two_routes", lambda links, seed: check_metric_routes(links, seed + 5)),
    ("tangent_signature", lambda links, seed: check_signature(seed + 6)),
    ("angle_two_routes", lambda links, seed: check_angle_routes(links)),
    ("cross_ratio_fd_oracle", lambda links, seed: check_fd_oracle(links, seed + 7)),
    ("symplectic_one_form", lambda links, seed: check_symplectic(links)),
)


def run_battery(links, base_seed):
    """(name, passed, detail) of each check of BATTERY on the links, in order.

    A check that raises ValueError or a LinkAreaError fails with the error
    as its detail, and the checks after it still run: on the battery's own
    links and samples such a raise (the cosine range check, coincident
    points) is a defect of a route, not of the input.
    """
    results = []
    for name, check in BATTERY:
        try:
            passed, detail = check(links, base_seed)
        except (ValueError, LinkAreaError) as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
