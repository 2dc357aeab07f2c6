import tracemalloc

import numpy as np
import pytest

import linkarea as la
from linkarea import minkowski as mk
from linkarea import optimize as opt
from linkarea import spheres as sp
from linkarea.errors import BadParameter, DisjointnessViolation
from linkarea.links import CircleCurve, FourierCurve
from linkarea.rng import Lcg64

TWO_PI = 2 * np.pi


def residual(vector, grid_n=opt.GRID_OPT):
    """r = g·(2π/n) on the objective grid, straight from the metric kernel."""
    x, xp = opt._grid_fields(vector, grid_n)[2:]
    return (sp.metric_kernel(x[0], xp[0], x[1], xp[1]) * (TWO_PI / grid_n)).ravel()


def traced_peak(link, **kwargs):
    """tracemalloc's peak, in bytes, over a descent from link."""
    tracemalloc.start()
    try:
        opt.minimize(opt.encode_link(link), **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def moved_hopf(hopf, matrix):
    """Shape of the Moebius image of the Hopf link under a 5x5 matrix, and |F|.

    The Hopf components have |F| = 1, so (1, F) is their light-cone lift;
    the matrix maps it to (|F'|, F'), again a trigonometric polynomial.
    Returns the shape vector of F' and the coefficients of |F'|, (2, 2K+1).
    """
    coeffs = opt.encode_link(hopf).reshape(2, 4, -1)
    lift = np.concatenate([np.zeros((2, 1, coeffs.shape[-1])), coeffs], axis=1)
    lift[:, 0, 0] = 1.0
    moved = matrix @ lift
    return moved[:, 1:].ravel(), moved[:, 0]


def killing_fields(vector, norms):
    """The 10 conformal Killing fields of S^3 as coefficient variations.

    Six rotations dF = A F for the antisymmetric generators A, applied to
    both components, and four boosts dF = |F| e, which move each point x
    along e - (e.x) x.  norms holds the coefficients of |F| per component.
    """
    coeffs = np.asarray(vector).reshape(2, 4, -1)
    fields = []
    for i in range(4):
        for j in range(i + 1, 4):
            gen = np.zeros((4, 4))
            gen[i, j], gen[j, i] = 1.0, -1.0
            fields.append((gen @ coeffs).ravel())
    for i in range(4):
        boost = np.zeros_like(coeffs)
        boost[:, i] = norms
        fields.append(boost.ravel())
    return fields


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
    def test_kernel_matches_scalar_metric(self):
        rng = Lcg64(53)
        stacks = []
        for link in la.catalogue().values():
            s = np.array([rng.uniform_in(0.0, TWO_PI) for _ in range(7)])
            t = np.array([rng.uniform_in(0.0, TWO_PI) for _ in range(5)])
            x, xp = link.c1.evaluate(s)
            y, yp = link.c2.evaluate(t)
            g = sp.metric_kernel(x, xp, y, yp)
            # the explicit route <sigma_s, sigma_t>, one scalar (s, t) at a time
            want = np.array([[mk.inner10(*sp.sigma_derivatives(link.c1, link.c2, a, b)[1:])
                              for b in t] for a in s])
            # |g| <= 2|Omega| = |x'||y'| / |x - y|^2, the density's own scale
            scale = np.outer(np.linalg.norm(xp, axis=1), np.linalg.norm(yp, axis=1))
            scale /= 2.0 - 2.0 * (x @ y.T)
            assert np.max(np.abs(g - want) / scale) <= 1e-12
            stacks.append((x, xp, y, yp, g))
        stacked = sp.metric_kernel(*(np.stack(arrs) for arrs in list(zip(*stacks))[:4]))
        assert np.array_equal(stacked, np.stack([st[4] for st in stacks]))


class TestJacobian:
    @pytest.mark.parametrize("case", [0, 1, 2, "mobius", "grid37"])
    def test_matches_central_differences(self, case):
        """perturbed_hopf_link(0.2, seed) for seeds 0-2, the random_mobius(41, 1.0)
        image of seed 0, and seed 0 at grid_n 37, whose last row block is short."""
        link = la.perturbed_hopf_link(0.2, case if isinstance(case, int) else 0)
        if case == "mobius":
            link = la.random_mobius(41, 1.0).transform_link(link)
        grid_n = 37 if case == "grid37" else opt.GRID_OPT
        v = opt.encode_link(link)
        r, jac = opt._residual_jacobian(v, grid_n)
        assert np.array_equal(r, residual(v, grid_n))
        h = 1e-6
        fd = np.empty_like(jac)
        for k in range(len(v)):
            dv = np.zeros_like(v)
            dv[k] = h
            fd[:, k] = (residual(v + dv, grid_n) - residual(v - dv, grid_n)) / (2.0 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_annihilates_killing_fields(self, hopf, seed):
        """No finite differences: the Hopf link (seed None) and two of its
        Moebius images have g = 0 along their whole Moebius orbit."""
        matrix = np.eye(5) if seed is None else la.random_mobius(seed, 1.0).matrix
        v, norms = moved_hopf(hopf, matrix)
        assert opt.objective(v) <= 1e-13
        jac = opt._residual_jacobian(v)[1]
        scale = np.linalg.norm(jac, 2)
        for field in killing_fields(v, norms):
            assert np.linalg.norm(jac @ field) <= 1e-12 * scale * np.linalg.norm(field)

    @pytest.mark.parametrize("grid_n", [32, 64])
    def test_rank_at_hopf(self, hopf, grid_n):
        sv = np.linalg.svd(opt._residual_jacobian(opt.encode_link(hopf), grid_n)[1],
                           compute_uv=False)
        assert sv[27] >= 4.4
        assert sv[28] <= 4e-15


class TestNormalEquations:
    @pytest.mark.parametrize("grid_n", [64, 199])
    def test_blocks_join_bit_for_bit(self, perturbed02, monkeypatch, grid_n):
        """The blocks joined are the Jacobian built in one block.  At 199,
        products on a block's rows alone would move in their last bits."""
        v = opt.encode_link(perturbed02)
        blocks = opt._residual_jacobian(v, grid_n)
        monkeypatch.setattr(opt, "_JAC_BLOCK_NODES", grid_n * grid_n)
        whole = opt._residual_jacobian(v, grid_n)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, whole))

    @pytest.mark.parametrize("grid_n", [32, 37, 64])
    def test_block_sums_match_whole_jacobian(self, perturbed02, grid_n):
        """At 37 the last block is shorter: 37 is no multiple of its rows."""
        v = opt.encode_link(perturbed02)
        r, jac = opt._residual_jacobian(v, grid_n)
        normal, grad, r_norm = opt._Linearization(v, grid_n).normal_equations()
        for got, want in ((normal, jac.T @ jac), (grad, jac.T @ r)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert r_norm == pytest.approx(np.linalg.norm(r), rel=1e-13)

    @pytest.mark.parametrize("moved", [False, True])
    @pytest.mark.parametrize("grid_n", [32, 37, 64])
    def test_products_match_whole_jacobian(self, perturbed02, moved, grid_n):
        """J^T w without J equals the product with the joined blocks."""
        link = la.random_mobius(41, 1.0).transform_link(perturbed02) if moved else perturbed02
        v = opt.encode_link(link)
        r, jac = opt._residual_jacobian(v, grid_n)
        lin = opt._Linearization(v, grid_n)
        got_r, vjp = lin.r, lin.vjp
        assert np.array_equal(got_r, r)
        rng = Lcg64(grid_n)
        w = np.array([rng.uniform_in(-1.0, 1.0) for _ in range(len(r))])
        for got, want in ((vjp(w), jac.T @ w), (vjp(r), jac.T @ r)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_descent_never_holds_the_jacobian(self):
        """Two steps at the default grid allocate less than one whole J."""
        assert traced_peak(la.perturbed_hopf_link(0.1, 0), steps=2) < (
            opt.GRID_OPT ** 2 * opt.shape_dim() * 8)

    def test_trial_peak_at_256(self):
        """3 steps at 256^2 trace 4.21 MiB: a trial's area holds its metric
        kernel's four grid fields beside the step's four.  Two whole-grid
        probes summed in place of the blocked ones would trace 4.74 MiB."""
        assert traced_peak(la.perturbed_hopf_link(0.1, 0), steps=3, grid_n=256) < 4.5 * 2 ** 20


class TestGeodesicAcceleration:
    @staticmethod
    def second_differences(link, grid_n, hs, monkeypatch):
        """r_vv of _acceleration's probes for the first Levenberg–Marquardt step
        δ from link, at each probe step h in hs; and the step's v, δ, r and J."""
        v = opt._renormalize(opt.encode_link(link))
        lin = opt._Linearization(v, grid_n)
        normal, grad, _ = lin.normal_equations()
        damped = normal + opt.LAMBDA_START * np.trace(normal) / len(v) * np.eye(len(v))
        delta = np.linalg.solve(damped, -grad)
        got = []
        for h in hs:
            monkeypatch.setattr(opt, "_GEODESIC_H", h)
            opt._acceleration(v, delta, lin.r, lambda w: got.append(np.ravel(w)) or lin.vjp(w),
                              damped, grid_n)
        r, jac = opt._residual_jacobian(v, grid_n)
        return got, (v, delta, r, jac)

    @pytest.mark.parametrize("case", ["p01", "p02", "mobius", "grid37"])
    def test_central_difference(self, case, monkeypatch):
        """The probes' r_vv converges at order 2 in h, and agrees to O(h) with the
        forward difference (2/h)[(r(v + hδ) - r(v))/h - Jδ], J from the joined
        blocks: the discrepancy halves with h and stays within 2 % at h = 0.1."""
        link = la.perturbed_hopf_link(0.2 if case == "p02" else 0.1, 0)
        if case == "mobius":
            link = la.random_mobius(41, 1.0).transform_link(link)
        grid_n = 37 if case == "grid37" else opt.GRID_OPT
        hs = [opt._GEODESIC_H / 2 ** k for k in range(3)]
        r_vv, (v, delta, r, jac) = self.second_differences(link, grid_n, hs, monkeypatch)
        assert len(r_vv) == 3
        diffs = [np.linalg.norm(a - b) for a, b in zip(r_vv, r_vv[1:])]
        assert diffs[0] >= 3.0 * diffs[1]
        gaps = [np.linalg.norm((2.0 / h) * ((residual(v + h * delta, grid_n) - r) / h - jac @ delta)
                               - got) for h, got in zip(hs, r_vv)]
        assert gaps[0] <= 0.02 * np.linalg.norm(r_vv[0])
        assert all(1.9 <= a / b <= 2.1 for a, b in zip(gaps, gaps[1:]))

    def test_touching_probe_drops_the_correction(self, hopf):
        """Where a probe's components touch, a = 0 with ratio 0.0: here v + hδ
        moves the first component onto the second."""
        v = opt.encode_link(hopf)
        half = len(v) // 2
        delta = np.zeros_like(v)
        delta[:half] = (v[half:] - v[:half]) / opt._GEODESIC_H
        assert opt._acceleration(v, delta, None, None, None, opt.GRID_OPT) == (0.0, 0.0)


class TestMinimize:
    def test_descent_reaches_threshold(self, descent_result):
        assert descent_result.trace[-1] <= 1e-3
        assert len(descent_result.trace) - 1 <= 10

    @pytest.mark.parametrize("seed", range(5))
    def test_perturbed_starts_converge(self, seed):
        v0 = opt.encode_link(la.perturbed_hopf_link(0.1, seed))
        res = opt.minimize(v0, steps=5, stop_below=5e-4)
        assert res.status == "converged"
        assert res.trace[-1] < 5e-4

    def test_ten_steps_leave_the_linear_tail(self):
        """Plain LM reads 7.2e-5 here; the geodesic correction 1.2e-6."""
        res = opt.minimize(opt.encode_link(la.perturbed_hopf_link(0.1, 0)), steps=10)
        assert res.trace[-1] <= 1e-5

    def test_one_linearization_per_step(self, monkeypatch):
        """g is evaluated on the whole grid once at the start (objective), once per
        step (its linearization) and three times per trial (its objective and
        the two acceleration probes, which go together by blocks of s-rows):
        1 + 10 + 3 x 12 grids over these 10 steps with 2 rejected trials."""
        rows, counts = [], {"objective": 0, "_Linearization": 0}
        real_field = opt._metric_field

        def counted_field(pts, vel):
            rows.append(np.prod(pts[0].shape[:-1]))  # s-rows, over both probes
            return real_field(pts, vel)

        def counted(name):
            real = getattr(opt, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(opt, "_metric_field", counted_field)
        for name in counts:
            monkeypatch.setattr(opt, name, counted(name))
        res = opt.minimize(opt.encode_link(la.perturbed_hopf_link(0.1, 0)), steps=10)
        trials = sum(rec.rejected + 1 for rec in res.records)
        assert (len(res.records), trials) == (10, 12)
        assert counts == {"objective": 1 + trials, "_Linearization": len(res.records)}
        assert sum(rows) == opt.GRID_OPT * (1 + len(res.records) + 3 * trials)

    def test_dropped_correction_is_plain_lm(self, monkeypatch):
        """With every correction dropped, each trial is v + δ: the descent
        crawls as plain Levenberg–Marquardt does."""
        v0 = opt.encode_link(la.perturbed_hopf_link(0.1, 0))
        monkeypatch.setattr(opt, "_ACCEL_MAX", 0.0)
        res = opt.minimize(v0, steps=10)
        assert all(rec.accel_ratio == 0.0 for rec in res.records)
        assert res.trace[-1] > 5e-5

    def test_larger_perturbation(self, perturbed02):
        res = opt.minimize(opt.encode_link(perturbed02), steps=10, stop_below=1.7e-3)
        assert res.trace[-1] < 1.7e-3

    def test_records_follow_trace(self, descent_result):
        records = descent_result.records
        assert len(records) == len(descent_result.trace) - 1
        assert [rec.objective for rec in records] == descent_result.trace[1:]
        assert all(rec.residual_norm > 0.0 and rec.step_norm > 0.0 for rec in records)
        assert all(np.finfo(float).eps <= rec.damping and rec.rejected >= 0 for rec in records)
        assert all(np.isfinite(rec.accel_ratio) and rec.accel_ratio >= 0.0 for rec in records)

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
        res = opt.minimize(opt.encode_link(hopf), steps=10)
        assert res.status == "converged"
        assert len(res.trace) == 1
        assert res.trace[0] <= 1e-10

    def test_hopf_single_step_stationary(self, hopf):
        """Its area 0 is at its own roundoff, whatever stop_below says."""
        res = opt.minimize(opt.encode_link(hopf), steps=1, stop_below=-1.0)
        assert abs(res.trace[-1] - res.trace[0]) <= 1e-9
        assert res.status == "converged"

    @pytest.mark.parametrize("seed", [2, 4])
    def test_descent_ends_at_roundoff(self, seed):
        """From p02 seeds 2 and 4, the area reaches its roundoff, 64ε·Σ|Ω|·(2π/n)^2
        or about 2.8e-13, in 68 and 65 steps."""
        res = opt.minimize(opt.encode_link(la.perturbed_hopf_link(0.2, seed)), steps=100)
        assert res.status == "converged"
        assert res.trace[-1] <= 1e-12

    def test_cap_on_the_converging_step_converges(self):
        """The stop is tested at the last accepted point too: capped at the k
        steps that reach roundoff, the run ends "converged", on the same trace."""
        v0 = opt.encode_link(la.perturbed_hopf_link(0.2, 4))
        free = opt.minimize(v0, 500)
        capped = opt.minimize(v0, len(free.records))
        assert (free.status, capped.status) == ("converged", "converged")
        assert capped.trace == free.trace
        assert np.array_equal(capped.vector, free.vector)

    def test_shrinking_pair_is_not_at_roundoff(self):
        """The unlinked pair's |Ω| shrinks with its area, so the stop, which is
        relative to Σ|Ω|, does not take its vanishing area for the minimum."""
        res = opt.minimize(opt.encode_link(la.separated_link(1.0)), 30)
        assert res.trace[-1] < 1e-18
        assert res.status != "converged"

    def test_nan_gradient_stalls_at_once(self, monkeypatch):
        """A NaN δ is below v's resolution: no trial is evaluated, and no
        RuntimeWarning (an error under this suite's settings) is raised."""
        real_normal, real_objective, calls = opt._Linearization.normal_equations, opt.objective, []

        def nan_gradient(lin):
            normal, grad, r_norm = real_normal(lin)
            return normal, np.full_like(grad, np.nan), r_norm

        def counted(vector, grid_n=opt.GRID_OPT):
            calls.append(vector)
            return real_objective(vector, grid_n)

        monkeypatch.setattr(opt._Linearization, "normal_equations", nan_gradient)
        monkeypatch.setattr(opt, "objective", counted)
        res = opt.minimize(opt.encode_link(la.perturbed_hopf_link(0.1, 0)), steps=5)
        assert (res.status, len(res.trace), len(calls)) == ("stalled", 1, 1)

    @pytest.mark.parametrize("bad", [
        dict(steps=6000),
        dict(steps=-1),
        dict(steps=10, grid_n=0),
        dict(steps=10, grid_n=257),
        dict(steps=10, stop_below=float("nan")),
        dict(steps=10, stop_below=float("inf")),
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
        res = opt.minimize(v0, steps=3, stop_below=-1.0)
        assert res.status == "stalled"
        assert len(res.trace) == 1
        # λ grows tenfold per trial until ‖δ‖ <= ε‖v‖, after 18 trials here
        assert calls["n"] - 1 < 25


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
