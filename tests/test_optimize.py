import tracemalloc

import numpy as np
import pytest

import linkarea as la
from linkarea import minkowski as mk
from linkarea import optimize as opt
from linkarea import spheres as sp
from linkarea.errors import BadParameter, CoincidentPoints
from linkarea.links import CircleCurve, FourierCurve
from linkarea.rng import Lcg64

TWO_PI = 2 * np.pi


def residual(vector, grid_n=opt.GRID_OPT):
    """r = g·(2π/n) on the objective grid, straight from the metric kernel."""
    x, xp = opt._grid_fields(vector, grid_n)[2:]
    return (sp.metric_kernel(x[0], xp[0], x[1], xp[1]) * (TWO_PI / grid_n)).ravel()


def residual_jacobian(vector, grid_n=opt.GRID_OPT):
    """r and the (grid_n^2, shape_dim()) Jacobian: _Linearization's blocks joined."""
    r, jac = zip(*opt._Linearization(vector, grid_n).blocks())
    return np.concatenate(r), np.concatenate(jac)


def gauge_rows(vector, grid_n=opt.GRID_OPT):
    """(|x'| - mean|x'|)·√(2π/n) on each component's nodes, joined, from the grid fields."""
    speeds = np.linalg.norm(opt._grid_fields(vector, grid_n)[3], axis=-1)
    return ((speeds - speeds.mean(axis=-1, keepdims=True)) * np.sqrt(TWO_PI / grid_n)).ravel()


def gauge_jacobian(lin):
    """The (2 grid_n, shape_dim()) Jacobian of the joined gauge rows: each
    component's block of gauge_jacobian in its own coefficients' columns."""
    jac = np.zeros((2, lin.n, 2, opt.shape_dim() // 2))
    for comp, block in enumerate(lin.gauge_jacobian()):
        jac[comp, :, comp] = block
    return jac.reshape(2 * lin.n, -1)


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
        with pytest.raises(CoincidentPoints):
            opt.objective(v)


class TestBatchObjective:
    def test_kernel_matches_scalar_metric(self):
        rng = Lcg64(53)
        stacks = []
        for link in la.catalogue().values():
            s = rng.uniform_array(7, 0.0, TWO_PI)
            t = rng.uniform_array(5, 0.0, TWO_PI)
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
    @staticmethod
    def case_and_differences(case, rows):
        """The shape vector and grid of a case, and the central differences
        (h = 1e-6) of rows(vector, grid_n) in each coefficient.  The cases:
        perturbed_hopf_link(0.2, seed) for seeds 0-2, the random_mobius(41, 1.0)
        image of seed 0, and seed 0 at grid_n 37, whose last row block is short."""
        link = la.perturbed_hopf_link(0.2, case if isinstance(case, int) else 0)
        if case == "mobius":
            link = la.random_mobius(41, 1.0).transform_link(link)
        grid_n = 37 if case == "grid37" else opt.GRID_OPT
        v = opt.encode_link(link)
        h = 1e-6
        fd = np.empty((len(rows(v, grid_n)), len(v)))
        for k in range(len(v)):
            dv = np.zeros_like(v)
            dv[k] = h
            fd[:, k] = (rows(v + dv, grid_n) - rows(v - dv, grid_n)) / (2.0 * h)
        return v, grid_n, fd

    @pytest.mark.parametrize("case", [0, 1, 2, "mobius", "grid37"])
    def test_matches_central_differences(self, case):
        v, grid_n, fd = self.case_and_differences(case, residual)
        r, jac = residual_jacobian(v, grid_n)
        assert np.array_equal(r, residual(v, grid_n))
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))

    @pytest.mark.parametrize("case", [0, 1, 2, "mobius", "grid37"])
    def test_gauge_matches_central_differences(self, case):
        v, grid_n, fd = self.case_and_differences(case, gauge_rows)
        lin = opt._Linearization(v, grid_n)
        assert np.array_equal(lin.gauge.ravel(), gauge_rows(v, grid_n))
        jac = gauge_jacobian(lin)
        assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac))

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_annihilates_killing_fields(self, hopf, seed):
        """No finite differences: the Hopf link (seed None) and two of its
        Moebius images have g = 0 along their whole Moebius orbit."""
        matrix = np.eye(5) if seed is None else la.random_mobius(seed, 1.0).matrix
        v, norms = moved_hopf(hopf, matrix)
        assert opt.objective(v) <= 1e-13
        jac = residual_jacobian(v)[1]
        scale = np.linalg.norm(jac, 2)
        for field in killing_fields(v, norms):
            assert np.linalg.norm(jac @ field) <= 1e-12 * scale * np.linalg.norm(field)

    # the default cap K = 4 keeps the ids it had before the cap was a parameter
    @pytest.mark.parametrize("modes, grid_n", [
        pytest.param(modes, grid_n, id=str(grid_n) if modes == 4 else f"K{modes}-{grid_n}")
        for modes in (2, 3, 4, 6, 8) for grid_n in (32, 64)])
    def test_rank_at_hopf(self, hopf, monkeypatch, modes, grid_n):
        """Rank 8K - 4 = 4(2K + 1) - 8 at mode cap K: at the Hopf link
        dg = -h1'(s).y'(t) - x'(s).h2'(t), which sees the 4(2K + 1)
        coefficients that move a component off its own plane, less the 8
        Moebius directions (README, descent notes)."""
        monkeypatch.setattr(opt, "K_OPT", modes)
        opt._designs.cache_clear()  # keyed by grid only: built for the mode cap in force
        try:
            sv = np.linalg.svd(residual_jacobian(opt.encode_link(hopf), grid_n)[1],
                               compute_uv=False)
        finally:
            opt._designs.cache_clear()
        assert sv[8 * modes - 5] >= 4.4
        assert sv[8 * modes - 4] <= (4e-15 if modes == 4 else 1e-13)


class TestNormalEquations:
    @pytest.mark.parametrize("grid_n", [64, 199])
    def test_blocks_join_bit_for_bit(self, perturbed02, monkeypatch, grid_n):
        """The blocks joined are the Jacobian built in one block.  At 199,
        products on a block's rows alone would move in their last bits."""
        v = opt.encode_link(perturbed02)
        blocks = residual_jacobian(v, grid_n)
        monkeypatch.setattr(opt, "_JAC_BLOCK_NODES", grid_n * grid_n)
        whole = residual_jacobian(v, grid_n)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, whole))

    @pytest.mark.parametrize("grid_n", [32, 37, 64])
    def test_block_sums_match_whole_jacobian(self, perturbed02, grid_n):
        """At 37 the last block is shorter: 37 is no multiple of its rows.  The
        gauge rows' products are added to the whole Jacobian's."""
        v = opt.encode_link(perturbed02)
        r, jac = residual_jacobian(v, grid_n)
        lin = opt._Linearization(v, grid_n)
        normal, grad, r_norm = lin.normal_equations()
        jac_g, rows = gauge_jacobian(lin), lin.gauge.ravel()
        for got, want in ((normal, jac.T @ jac + jac_g.T @ jac_g),
                          (grad, jac.T @ r + jac_g.T @ rows)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert r_norm == pytest.approx(np.linalg.norm(r), rel=1e-13)

    @pytest.mark.parametrize("moved", [False, True])
    @pytest.mark.parametrize("grid_n", [32, 37, 64])
    def test_products_match_whole_jacobian(self, perturbed02, moved, grid_n):
        """The normal equations are the products of the whole system: the joined
        blocks' r, which is the linearization's, with the gauge rows taken from
        the grid fields alone stacked under it, and J with the gauge rows'
        Jacobian stacked under it; on a Moebius image too, where |F| != 1."""
        link = la.random_mobius(41, 1.0).transform_link(perturbed02) if moved else perturbed02
        v = opt.encode_link(link)
        r, jac = residual_jacobian(v, grid_n)
        lin = opt._Linearization(v, grid_n)
        assert np.array_equal(lin.r, r)
        r, jac = np.concatenate([r, gauge_rows(v, grid_n)]), np.vstack([jac, gauge_jacobian(lin)])
        normal, grad, _ = lin.normal_equations()
        for got, want in ((normal, jac.T @ jac), (grad, jac.T @ r)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_descent_never_holds_the_jacobian(self):
        """Two steps at the default grid allocate less than one whole J."""
        assert traced_peak(la.perturbed_hopf_link(0.1, 0), steps=2) < (
            opt.GRID_OPT ** 2 * opt.shape_dim() * 8)

    def test_trial_peak_at_256(self):
        """3 steps at 256^2 trace 4.27 MiB: a trial's evaluation holds its metric
        kernel's four grid fields beside the step's four."""
        assert traced_peak(la.perturbed_hopf_link(0.1, 0), steps=3, grid_n=256) < 4.5 * 2 ** 20


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
        """Without the gauge rows plain LM reads 7.2e-5 here; with them the area
        reaches its roundoff, 3.1e-16, in 4 steps."""
        res = opt.minimize(opt.encode_link(la.perturbed_hopf_link(0.1, 0)), steps=10)
        assert res.status == "converged"
        assert res.trace[-1] <= 1e-12

    @pytest.mark.parametrize("amplitude, seed", [(0.2, s) for s in range(5)] + [(0.1, 0), (0.1, 1)])
    def test_perturbed_starts_reach_exact_hopf_images(self, amplitude, seed):
        """From each perturbed catalogue start the descent converges in at most 8
        steps (4 each), at a Hopf image that runs at constant speed: the area
        and E - 2π² read 0.0 at tol 1e-8, and the speeds agree to 1.0e-13."""
        res = opt.minimize(opt.encode_link(la.perturbed_hopf_link(amplitude, seed)), steps=8)
        assert res.status == "converged"
        link = opt.decode_link(res.vector)
        report = la.compute_functionals(link, tol=1e-8)
        assert report.area <= 1e-12
        assert abs(report.energy - 2.0 * np.pi ** 2) <= 1e-12
        s = np.linspace(0.0, TWO_PI, 256, endpoint=False)
        for comp in (link.c1, link.c2):
            speed = np.linalg.norm(comp.evaluate(s)[1], axis=-1)
            assert np.ptp(speed) <= 1e-10 * np.mean(speed)

    def test_one_linearization_per_step(self, monkeypatch):
        """Each point is evaluated once, as a _Linearization: g on the whole grid
        once at the start and once per trial, none per step, for the accepted
        trial is the next step's linearization: 1 + 19 grids over these 10 steps
        from a round pair, with 9 rejected trials."""
        rows, counts = [], {"objective": 0, "_Linearization": 0, "_grid_fields": 0}
        real_kernel = opt.metric_kernel

        def counted_kernel(x, xp, y, yp):
            rows.append(len(x))  # s-rows
            return real_kernel(x, xp, y, yp)

        def counted(name):
            real = getattr(opt, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(opt, "metric_kernel", counted_kernel)
        for name in counts:
            monkeypatch.setattr(opt, name, counted(name))
        res = opt.minimize(opt.encode_link(la.great_circle_pair(0.3, 0.3)), steps=10)
        trials = sum(rec.rejected + 1 for rec in res.records)
        assert (len(res.records), trials) == (10, 19)
        assert counts == {"objective": 0, "_Linearization": 1 + trials,
                          "_grid_fields": 1 + trials}
        assert sum(rows) == opt.GRID_OPT * (1 + trials) == opt.GRID_OPT * 20

    def test_larger_perturbation(self, perturbed02):
        res = opt.minimize(opt.encode_link(perturbed02), steps=10, stop_below=1.7e-3)
        assert res.trace[-1] < 1.7e-3

    def test_records_follow_trace(self, descent_result):
        records = descent_result.records
        assert len(records) == len(descent_result.trace) - 1
        assert [rec.objective for rec in records] == descent_result.trace[1:]
        assert all(rec.residual_norm > 0.0 and rec.step_norm > 0.0 for rec in records)
        assert all(np.finfo(float).eps <= rec.damping and rec.rejected >= 0 for rec in records)
        assert all(np.isfinite(rec.gauge_norm) and rec.gauge_norm >= 0.0 for rec in records)

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
        or about 2.8e-13, in 4 steps each."""
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
        """A NaN δ is below v's resolution: no trial point is built, so the
        start's is the one _Linearization, and no RuntimeWarning (an error
        under this suite's settings) is raised."""
        real_lin, calls = opt._Linearization, []

        class NanGradient(real_lin):
            def __init__(self, vector, grid_n):
                calls.append(vector)
                super().__init__(vector, grid_n)

            def normal_equations(self):
                normal, grad, r_norm = super().normal_equations()
                return normal, np.full_like(grad, np.nan), r_norm

        monkeypatch.setattr(opt, "_Linearization", NanGradient)
        res = opt.minimize(opt.encode_link(la.perturbed_hopf_link(0.1, 0)), steps=5)
        assert (res.status, len(res.trace), len(calls)) == ("stalled", 1, 1)

    @pytest.mark.parametrize("bad", [
        dict(steps=6000),
        dict(steps=-1),
        dict(steps=10, grid_n=0),
        dict(steps=10, grid_n=257),
        dict(steps=10, stop_below=float("nan")),
        dict(steps=10, stop_below=float("inf")),
        dict(steps=10, grid_n=16),  # below links.N_MIN, too coarse to measure the area
        dict(steps=10, grid_n=31),
    ])
    def test_parameter_validation(self, hopf, bad):
        with pytest.raises(BadParameter):
            opt.minimize(opt.encode_link(hopf), **bad)

    def test_colliding_steps_rejected_not_raised(self, monkeypatch):
        """After the start's evaluation, every metric field collides: each
        trial's point."""
        link = la.perturbed_hopf_link(0.1, 1)
        v0 = opt.encode_link(link)
        real = opt.metric_kernel
        calls = {"n": 0}

        def guarded(*fields):
            calls["n"] += 1
            if calls["n"] > 1:
                raise CoincidentPoints("forced collision")
            return real(*fields)

        monkeypatch.setattr(opt, "metric_kernel", guarded)
        res = opt.minimize(v0, steps=3, stop_below=-1.0)
        assert res.status == "stalled"
        assert len(res.trace) == 1
        # λ grows tenfold per trial until ‖δ‖ <= ε‖v‖, after 18 trials here
        assert calls["n"] - 1 < 25


#: the Moebius maps of TestCircleFit: seeds 0-9 at rapidity 1 and 2
MOBIUS_MAPS = [(seed, rapidity) for seed in range(10) for rapidity in (1.0, 2.0)]


def bulge(eps, radius=1.0):
    """A circle of the given radius, about the axis e4, with the out-of-circle
    bulge eps·radius·cos 2s along e3 (before radial normalization)."""
    coeffs = np.zeros((4, 5))
    coeffs[0, 1] = coeffs[1, 2] = radius  # radius·(cos s, sin s)
    coeffs[2, 3] = eps * radius
    coeffs[3, 0] = np.sqrt(1.0 - radius ** 2)
    return FourierCurve(coeffs)


class TestCircleFit:
    def test_great_circle_zero(self, hopf):
        assert opt.circle_fit_residual(hopf.c1) <= 1e-12

    def test_small_circle_zero(self):
        link = la.separated_link(1.5)
        assert opt.circle_fit_residual(link.c1) <= 1e-12

    def test_out_of_plane_second_mode(self):
        assert 0.01 < opt.circle_fit_residual(bulge(0.1)) < 0.2

    def test_mobius_image_of_circle_is_circle(self, hopf, separated19):
        for seed, rapidity in MOBIUS_MAPS:
            m = la.random_mobius(seed, rapidity)
            for circle in (hopf.c1, hopf.c2, separated19.c1):
                assert opt.circle_fit_residual(m.transform_curve(circle)) <= 1e-13

    @pytest.mark.parametrize("radius", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_bulge_reads_its_amplitude(self, eps, radius):
        assert opt.circle_fit_residual(bulge(eps, radius)) == pytest.approx(eps, rel=5e-3)

    def test_mobius_image_of_bulge_is_not_circle(self):
        for seed, rapidity in MOBIUS_MAPS:
            moved = la.random_mobius(seed, rapidity).transform_curve(bulge(0.1))
            assert 0.05 <= opt.circle_fit_residual(moved) <= 0.15
