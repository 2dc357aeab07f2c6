import numpy as np
import pytest

import linkarea as la
from linkarea import optimize as opt
from linkarea import spheres as sp
from linkarea.errors import BadParameter, DisjointnessViolation
from linkarea.links import CircleCurve, FourierCurve
from linkarea.rng import Lcg64

TWO_PI = 2 * np.pi

#: shape vectors in one block of a batched objective at the default grid
ROWS_PER_BLOCK = max(1, opt.BLOCK_CELLS // opt.GRID_OPT ** 2)


def jittered_batch(link, rows, seed, amplitude=1e-3):
    """rows shape vectors near the encoding of link, each moved at random."""
    rng = Lcg64(seed)
    v = opt.encode_link(link)
    return np.array([v + amplitude * np.array([rng.uniform_in(-1.0, 1.0) for _ in v])
                     for _ in range(rows)])


class TestEncodeDecode:
    def test_round_trip(self, perturbed02):
        v = opt.encode_link(perturbed02)
        assert v.shape == (opt.shape_dim(),)
        link = opt.decode_link(v)
        s = np.linspace(0, 2 * np.pi, 40)
        assert np.allclose(link.c1.point(s), perturbed02.c1.point(s), atol=1e-12)

    def test_circle_components_fit(self, hopf):
        v = opt.encode_link(hopf)
        link = opt.decode_link(v)
        s = np.linspace(0, 2 * np.pi, 40)
        assert np.allclose(link.c1.point(s), hopf.c1.point(s), atol=1e-12)

    def test_bad_length(self):
        with pytest.raises(BadParameter):
            opt.decode_link(np.zeros(10))


class TestObjective:
    def test_hopf_is_zero(self, hopf):
        assert opt.objective(opt.encode_link(hopf)) <= 1e-10

    def test_perturbed_positive(self):
        v = opt.encode_link(la.perturbed_hopf_link(0.1, 3))
        assert opt.objective(v) > 1e-3

    def test_matches_fixed_grid_area(self, perturbed02):
        v = opt.encode_link(perturbed02)
        grid = la.build_grid(perturbed02, 64, 64)
        want = float(np.sum(np.abs(grid.g))) * (2 * np.pi / 64) ** 2
        assert opt.objective(v, grid_n=64) == pytest.approx(want, rel=1e-12)

    def test_mobius_invariant(self, perturbed02):
        v = opt.encode_link(perturbed02)
        base = opt.objective(v, grid_n=64)
        cell = (2 * np.pi / 64) ** 2
        for seed in range(3):
            moved = la.random_mobius(seed + 90, 0.7).transform_link(opt.decode_link(v))
            got = float(np.sum(np.abs(la.build_grid(moved, 64, 64).g))) * cell
            assert got == pytest.approx(base, abs=1e-6 * max(base, 1.0))

    def test_disjointness_violation(self, hopf):
        v = opt.encode_link(hopf)
        v[opt.shape_dim() // 2:] = v[:opt.shape_dim() // 2]  # both components equal
        with pytest.raises(DisjointnessViolation):
            opt.objective(v)


class TestBatchObjective:
    def test_blocks_match_single_rows(self):
        batch = jittered_batch(la.perturbed_hopf_link(0.1, 0), 2 * ROWS_PER_BLOCK + 3, 51)
        got = opt._batch_objective(batch, opt.GRID_OPT)
        want = np.array([opt.objective(v) for v in batch])
        assert np.array_equal(got, want)

    def test_collision_in_last_block(self, hopf):
        batch = jittered_batch(hopf, 2 * ROWS_PER_BLOCK + 1, 52)
        half = opt.shape_dim() // 2
        assert np.all(opt._batch_objective(batch[:-1], opt.GRID_OPT) > 0.0)
        batch[-1, half:] = batch[-1, :half]  # both components of the last row equal
        with pytest.raises(DisjointnessViolation):
            opt._batch_objective(batch, opt.GRID_OPT)

    def test_kernel_matches_scalar_metric(self):
        rng = Lcg64(53)
        stacks = []
        for link in la.catalogue().values():
            s = np.array([rng.uniform_in(0.0, TWO_PI) for _ in range(7)])
            t = np.array([rng.uniform_in(0.0, TWO_PI) for _ in range(5)])
            x, xp = link.c1.evaluate(s)
            y, yp = link.c2.evaluate(t)
            g = sp.metric_kernel(x, xp, y, yp)
            want = np.array([[sp.metric_coefficient(link.c1, link.c2, a, b) for b in t]
                             for a in s])
            # |g| <= 2|Omega| = |x'||y'| / |x - y|^2, the density's own scale
            scale = np.outer(np.linalg.norm(xp, axis=1), np.linalg.norm(yp, axis=1))
            scale /= 2.0 - 2.0 * (x @ y.T)
            assert np.max(np.abs(g - want) / scale) <= 1e-12
            stacks.append((x, xp, y, yp, g))
        stacked = sp.metric_kernel(*(np.stack(arrs) for arrs in list(zip(*stacks))[:4]))
        assert np.array_equal(stacked, np.stack([st[4] for st in stacks]))


class TestMinimize:
    def test_descent_reaches_threshold(self, descent_result):
        assert descent_result.trace[-1] <= 1e-3
        assert len(descent_result.trace) - 1 <= 2000

    def test_trace_monotone(self, descent_result):
        trace = np.array(descent_result.trace)
        assert np.all(np.diff(trace) < 0)

    def test_tenfold_reduction(self, descent_result):
        assert descent_result.trace[-1] <= descent_result.trace[0] / 10

    def test_circle_fit_of_minimizer(self, descent_result):
        link = opt.decode_link(descent_result.vector)
        assert opt.circle_fit_residual(link.c1) <= 1e-2
        assert opt.circle_fit_residual(link.c2) <= 1e-2

    def test_hopf_start_terminates_immediately(self, hopf):
        res = opt.minimize(opt.encode_link(hopf), steps=10, lr=0.1)
        assert res.status == "converged"
        assert len(res.trace) == 1
        assert res.trace[0] <= 1e-10

    def test_hopf_single_step_stationary(self, hopf):
        res = opt.minimize(opt.encode_link(hopf), steps=1, lr=0.1, stop_below=-1.0)
        assert abs(res.trace[-1] - res.trace[0]) <= 1e-9
        assert res.status == "stalled"

    @pytest.mark.parametrize("bad", [
        dict(steps=6000, lr=0.1),
        dict(steps=-1, lr=0.1),
        dict(steps=10, lr=0.0),
        dict(steps=10, lr=1.0),
        dict(steps=10, lr=0.1, grid_n=0),
    ])
    def test_parameter_validation(self, hopf, bad):
        with pytest.raises(BadParameter):
            opt.minimize(opt.encode_link(hopf), **bad)

    def test_colliding_steps_rejected_not_raised(self, monkeypatch):
        link = la.perturbed_hopf_link(0.1, 1)
        v0 = opt.encode_link(link)
        real = opt.objective
        calls = {"n": 0}

        def guarded(vector, grid_n=opt.GRID_OPT):
            calls["n"] += 1
            if calls["n"] > 1:
                raise DisjointnessViolation("forced collision")
            return real(vector, grid_n)

        monkeypatch.setattr(opt, "objective", guarded)
        res = opt.minimize(v0, steps=3, lr=0.1, stop_below=-1.0)
        assert res.status == "stalled"
        assert len(res.trace) == 1


class TestCircleFit:
    def test_great_circle_zero(self, hopf):
        assert opt.circle_fit_residual(hopf.c1) <= 1e-12

    def test_small_circle_zero(self):
        link = la.separated_link(1.5)
        assert opt.circle_fit_residual(link.c1) <= 1e-12

    def test_out_of_plane_second_mode(self):
        coeffs = np.zeros((4, 5))
        coeffs[0, 1] = 1.0   # cos s
        coeffs[1, 2] = 1.0   # sin s
        coeffs[2, 3] = 0.1   # cos 2s bulge out of the plane
        residual = opt.circle_fit_residual(FourierCurve(coeffs))
        assert 0.01 < residual < 0.2

    def test_mobius_image_of_circle_is_circle(self, hopf):
        moved = la.random_mobius(17, 1.0).transform_curve(hopf.c1)
        assert opt.circle_fit_residual(moved) <= 1e-10
