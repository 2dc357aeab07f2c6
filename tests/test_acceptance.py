"""Acceptance battery: every exit criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (visible with -s or in
the captured output); run as

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

import linkarea as la
from linkarea import conformal as cf
from linkarea import minkowski as mk
from linkarea import spheres as sp
from linkarea import symplectic as sy
from linkarea.rng import Lcg64
from conftest import random_unit4

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def full_catalogue():
    return la.catalogue()


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_signed_area_vanishes(full_catalogue):
    t0 = time.perf_counter()
    reps = [la.signed_area(link, tol=1e-8) for link in full_catalogue.values()]
    elapsed = time.perf_counter() - t0
    worst = np.max(np.abs([rep.signed_area for rep in reps]))
    largest_grid = np.max([rep.grid_used[0] for rep in reps])
    ok = worst <= 1e-7 and largest_grid <= 512 and elapsed <= 30.0
    report(1, ok, f"max |signed_area| = {worst:.2e} over {len(full_catalogue)} links, "
                  f"grid <= {largest_grid}, {elapsed:.1f} s")


def test_criterion_01_pointwise_row_and_column_integrals_vanish(full_catalogue):
    # g = -da/dt, so each row integral of g over t vanishes, and by the
    # symmetry of the pair each column integral over s as well
    p02 = full_catalogue["perturbed_hopf_0.2_s0"]
    links = {**full_catalogue,
             "round_1.2_0.8": la.great_circle_pair(1.2, 0.8),
             "round_pi/2_1.2": la.great_circle_pair(np.pi / 2, 1.2),
             "moebius_p02": la.random_mobius(7, 1.0).transform_link(p02)}
    integrals, scales = [], []
    for link in links.values():
        g = la.build_grid(link, 64, 64).g
        integrals.append(np.max(np.abs([g.sum(axis=1), g.sum(axis=0)])) * TWO_PI / 64)
        scales.append(np.max(np.abs(g)))  # 0 on the Hopf link, where g vanishes identically
    integrals, scales = np.array(integrals), np.array(scales)
    bad = [name for name, fine in zip(links, integrals <= 1e-13 * scales) if not fine]
    ratios = np.divide(integrals, scales, out=np.zeros_like(scales), where=scales > 0)
    worst, worst_name = ratios.max(), list(links)[np.argmax(ratios)]
    ok = not bad
    report(1, ok, f"max |row or column integral of g| / max|g| = {worst:.2e} ({worst_name}) "
                  f"over {len(links)} links at 64x64, above 1e-13 on {bad}")


def test_criterion_02_hopf_minimum(hopf):
    worst_hopf = la.area(hopf, tol=1e-3).area
    worst_moved = np.max([la.area(la.random_mobius(1000 + seed, 1.0).transform_link(hopf),
                                  tol=1e-3).area for seed in range(10)])
    ok = worst_hopf == 0.0 and worst_moved == 0.0
    report(2, ok, f"area(hopf) = {worst_hopf:.2e}, max over 10 moebius images = {worst_moved:.2e}")


def test_criterion_03_positive_area_off_right_angle(full_catalogue):
    areas = np.array([la.area(link, tol=1e-3).area for link in full_catalogue.values()
                      if np.max(np.abs(la.build_grid(link, 64, 64).theta - np.pi / 2)) > 1e-3])
    smallest = np.min(areas, initial=np.inf)
    report(3, areas.size > 0 and smallest > 1e-4,
           f"{areas.size} links off the right angle, min area = {smallest:.2e}")


def test_criterion_04_null_tangents(full_catalogue):
    rng = Lcg64(104)
    norms = []
    for link in full_catalogue.values():
        s = np.array([rng.uniform_in(0, TWO_PI) for _ in range(1000)])
        t = np.array([rng.uniform_in(0, TWO_PI) for _ in range(1000)])
        _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
        norms += [mk.inner10(ss, ss), mk.inner10(st, st)]
    worst = np.max(np.abs(norms))
    report(4, worst <= 1e-10,
           f"max |<sigma_u, sigma_u>| = {worst:.2e} at 1000 samples per link")


def test_criterion_05_density_routes(separated10, perturbed02):
    n = 64
    s = np.linspace(0, TWO_PI, n, endpoint=False)
    grid_devs, fd_devs = [], []
    for link in (separated10, perturbed02):
        g_closed = cf.density_pairs(link.c1, link.c2, s[:, None], s)[0]
        S, T = np.meshgrid(s, s, indexing="ij")
        _, ss_d, st_d = sp.sigma_derivatives(link.c1, link.c2, S.ravel(), T.ravel())
        g_explicit = mk.inner10(ss_d, st_d).reshape(n, n)
        _, theta, absv, _ = cf.density_pairs(link.c1, link.c2, s[:, None], s)
        theta_chart = cf.conformal_angle_chart_pairs(link.c1, link.c2, s[:, None], s)
        g_chart = 2.0 * absv * np.cos(theta_chart)
        grid_devs += [g_closed - g_explicit, g_closed - g_chart]
        pole = cf.chart_pole(link.c1, link.c2)
        rng = Lcg64(105)
        for _ in range(20):
            s0 = rng.uniform_in(0, TWO_PI)
            t0 = rng.uniform_in(0, TWO_PI)
            want = 0.5 * cf.density_pairs(link.c1, link.c2, s0, t0)[0]
            fd_devs.append(cf.cross_ratio_fd(link.c1, link.c2, s0, t0, pole=pole) - want)
    worst_grid = np.max(np.abs(grid_devs))
    # the Richardson value within TOL_FD = 1e-10 also shows the stencil's
    # order: a first-order stencil would leave about FD_SPREAD |dRe Omega|,
    # some 1e-3 |dRe Omega|, of error
    worst_fd = np.max(np.abs(fd_devs))
    ok = worst_grid <= 1e-7 and worst_fd <= cf.TOL_FD
    report(5, ok, f"route deviation {worst_grid:.2e} on {n}x{n}, fd deviation {worst_fd:.2e}")


def test_criterion_06_one_form_bridge(full_catalogue):
    worst = np.max([sy.exterior_derivative_check(link.c1, link.c2)
                    for link in full_catalogue.values()])
    report(6, worst <= 1e-6,
           f"global sign {sy.SIGN:+d}, max pointwise residual {worst:.2e} "
           f"at {sy.N_GRID}x{sy.N_GRID}")


def test_criterion_07_minor_lift_group():
    A = np.array([la.random_mobius(2000 + 2 * k, 1.5).matrix for k in range(50)])
    B = np.array([la.random_mobius(2001 + 2 * k, 1.5).matrix for k in range(50)])
    worst_orth = mk.orthogonality_residual(mk.minor_lift(A), mk.EPS10)
    worst_hom = np.max(np.abs(mk.minor_lift(A @ B) - mk.minor_lift(A) @ mk.minor_lift(B)))
    ok = worst_orth <= 1e-10 and worst_hom <= 1e-10
    report(7, ok, f"orthogonality {worst_orth:.2e}, homomorphism {worst_hom:.2e} over 50 pairs")


def test_criterion_08_signatures(hopf, separated10):
    rng = Lcg64(108)
    bad = 0
    for _ in range(100):
        x, y = random_unit4(rng), random_unit4(rng)
        if np.linalg.norm(x - y) < 0.1:
            continue
        if tuple(sp.theta_tangent_signature(x, y)) != (3, 3, 0):
            bad += 1
    # mixed-type where the angle is off pi/2
    s = np.linspace(0, TWO_PI, 16, endpoint=False)
    _, theta, _, _ = cf.density_pairs(separated10.c1, separated10.c2, s[:, None], s)
    mixed_ok = True
    for i in range(16):
        for j in range(16):
            if abs(np.cos(theta[i, j])) > 1e-5:
                _, ss_d, st_d = sp.sigma_derivatives(separated10.c1, separated10.c2,
                                                     s[i], s[j])
                gram = np.array([[mk.inner10(ss_d, ss_d), mk.inner10(ss_d, st_d)],
                                 [mk.inner10(st_d, ss_d), mk.inner10(st_d, st_d)]])
                counts = sp.signature_counts(np.linalg.eigvalsh(gram))
                mixed_ok = mixed_ok and tuple(counts) == (1, 1, 0)
    # degenerate on the whole Hopf grid
    hopf_grid = la.build_grid(hopf, 64, 64)
    hopf_ok = (np.max(np.abs(hopf_grid.theta - np.pi / 2)) <= 1e-6
               and np.max(np.abs(hopf_grid.g)) <= sp.TAU_EIG)
    ok = bad == 0 and mixed_ok and hopf_ok
    report(8, ok, f"index(3,3) at 100 pairs ({bad} failures), mixed type (1,1,0) off "
                  f"right angle, degenerate on the Hopf grid")


def test_criterion_09_conformal_invariance(perturbed02):
    n = 32
    s = np.linspace(0, TWO_PI, n, endpoint=False)
    base_fields = cf.density_pairs(perturbed02.c1, perturbed02.c2, s[:, None], s)
    cell = (TWO_PI / 128) ** 2
    base_grid = la.build_grid(perturbed02, 128, 128)
    base_area = float(np.sum(np.abs(base_grid.g))) * cell
    base_energy = float(np.sum(base_grid.abs_omega - base_grid.re_omega)) * cell
    # each field's deviations over its own scale, and the area's and energy's
    scales = np.maximum(np.max(np.abs(base_fields), axis=(1, 2)), 1e-12)[:, None, None]
    density_devs, func_devs = [], []
    for k in range(20):
        moved = la.random_mobius(3000 + k, 1.0).transform_link(perturbed02)
        fields = cf.density_pairs(moved.c1, moved.c2, s[:, None], s)
        density_devs.append(np.abs(np.subtract(fields, base_fields)) / scales)
        grid = la.build_grid(moved, 128, 128)
        area = float(np.sum(np.abs(grid.g))) * cell
        energy = float(np.sum(grid.abs_omega - grid.re_omega)) * cell
        func_devs += [abs(area - base_area) / base_area, abs(energy - base_energy) / base_energy]
    dev_density = np.max(density_devs)
    dev_func = np.max(func_devs)
    ok = dev_density <= 1e-7 and dev_func <= 1e-6
    report(9, ok, f"pointwise density deviation {dev_density:.2e}, "
                  f"area/energy deviation {dev_func:.2e} over 20 maps")


def test_criterion_10_separation_limit():
    values = {d: la.area(la.separated_link(d), tol=1e-3).area for d in (1.0, 1.5, 1.9)}
    ok = values[1.0] > values[1.5] > values[1.9] > 0 and values[1.9] < 0.1 * values[1.0]
    report(10, ok, "areas " + ", ".join(f"{d}: {v:.4f}" for d, v in values.items()))


def test_criterion_11_variational_exhibit(descent_result):
    from linkarea import optimize as opt
    final = descent_result.trace[-1]
    steps = len(descent_result.trace) - 1
    link = opt.decode_link(descent_result.vector)
    fit1 = opt.circle_fit_residual(link.c1)
    fit2 = opt.circle_fit_residual(link.c2)
    ok = (final <= 1e-3 and steps <= 10 and fit1 <= 1e-2 and fit2 <= 1e-2
          and descent_result.elapsed_s <= 10.0)
    report(11, ok, f"objective {final:.2e} after {steps} steps in "
                   f"{descent_result.elapsed_s:.2f} s, circle fits {fit1:.1e}/{fit2:.1e}")
