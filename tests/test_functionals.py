import tracemalloc

import numpy as np
import pytest

import linkarea as la
from linkarea import cli
from linkarea import conformal as cf
from linkarea import functionals as fn
from linkarea import gridio as gio
from linkarea.errors import NoConvergence
from linkarea.rng import Lcg64

TWO_PI = 2 * np.pi

# converged quadrature values, frozen as regression fixtures
ENERGY_SEPARATED_10 = 14.804406576960028
ENERGY_PERTURBED_02_S0 = 19.90570912566061
HOPF_ENERGY = 2 * np.pi ** 2  # |Omega| = 1/2 over the whole 2pi x 2pi torus


def separated_area(d_nominal):
    """Closed-form area 2 pi (4 - d^2) / d, with the offset separated_link builds in."""
    d = d_nominal * (1 + 1e-9)
    return 2 * np.pi * (4 - d * d) / d


def energy(link, tol):
    return la.compute_functionals(link, tol, criterion="energy").energy


class TestBuildGrid:
    def test_real_part_is_half_metric(self, perturbed02):
        grid = la.build_grid(perturbed02, 64, 64)
        assert np.max(np.abs(grid.re_omega - grid.g / 2)) <= 1e-10

    def test_hopf_fields(self, hopf):
        grid = la.build_grid(hopf, 64, 64)
        assert np.max(np.abs(grid.g)) <= 1e-12
        assert np.max(np.abs(grid.theta - np.pi / 2)) <= 1e-10
        assert np.allclose(grid.abs_omega, 0.5, atol=1e-12)

    def test_nested_refinement_shares_nodes(self, perturbed02):
        coarse = la.build_grid(perturbed02, 32, 32)
        fine = la.build_grid(perturbed02, 64, 64)
        assert np.array_equal(coarse.s, fine.s[::2])
        assert np.allclose(coarse.g, fine.g[::2, ::2], atol=1e-15)

    @pytest.mark.parametrize("n", [32, 64, 128, 512, 1024])
    @pytest.mark.parametrize("name", ["perturbed02", "separated10", "spline64"])
    def test_row_blocks_match_whole_grid(self, name, n, request):
        # blocks of even height reproduce the whole-grid kernel bit for bit,
        # at every block height grid_blocks uses (one block at 32, then 32, 16,
        # 4 and 2 rows); 3-row blocks and single rows would not (a single row
        # takes BLAS's matrix-vector path, which moves theta)
        link = request.getfixturevalue(name)
        grid = la.build_grid(link, n, n)
        x, xp = link.c1.evaluate(grid.s)
        y, yp = link.c2.evaluate(grid.t)
        whole = cf.density_kernel(x, xp, y, yp)
        for field, ref in zip(("g", "theta", "abs_omega", "re_omega"), whole):
            assert np.array_equal(getattr(grid, field), ref), field

    @pytest.mark.parametrize("n", [16, 48, 2048])
    def test_resolution_bounds(self, hopf, n):
        with pytest.raises(ValueError):
            la.build_grid(hopf, n, 64)


def _node_counts(link, monkeypatch):
    """Counts of the nodes of the N_MAX x N_MAX grid that reach the kernel,
    live, and the list of the paired off-grid points that the refinement
    of the zeros sends it, one entry per call."""
    nodes = fn._nodes(fn.N_MAX)
    xs, ys = link.c1.point(nodes), link.c2.point(nodes)
    counts = np.zeros((fn.N_MAX, fn.N_MAX), int)
    paired = []

    def counting_kernel(x, xp, y, yp):
        if x.ndim == 3:  # (k, 1, 4) stacks: one point of a zero's row per pair
            paired.append(len(x))
            return kernel(x, xp, y, yp)
        i, j = np.argmax(x @ xs.T, axis=1), np.argmax(y @ ys.T, axis=1)
        assert np.allclose(xs[i], x, rtol=0, atol=1e-14)
        assert np.allclose(ys[j], y, rtol=0, atol=1e-14)
        counts[np.ix_(i, j)] += 1
        return kernel(x, xp, y, yp)
    kernel = fn.magnitude_kernel
    monkeypatch.setattr(fn, "magnitude_kernel", counting_kernel)
    return counts, paired


class TestNestedQuadrature:
    def test_level_sums_match_full_grid(self):
        for name, link in la.catalogue().items():
            for n in (32, 64, 128, 256):
                x, xp, brackets, sums = fn._level(link, n)
                grid = la.build_grid(link, n, n)
                assert np.array_equal(x, link.c1.evaluate(grid.s)[0]), (name, n)
                # the sign changes on the whole grid, each between a node and the next
                positive = grid.g >= -fn.ROUNDOFF * np.max(grid.abs_omega, axis=1)[:, None]
                row, hi = divmod(np.flatnonzero(positive != np.roll(positive, 1, axis=1)), n)
                assert np.array_equal(brackets[0], row), (name, n)
                assert np.allclose(brackets[1:3], [(hi - 1) * TWO_PI / n, hi * TWO_PI / n],
                                   rtol=0, atol=1e-15), (name, n)
                near = grid.g[row[:, None], (hi[:, None] + np.arange(-2, 2)) % n]
                atol = 1e-15 * np.max(grid.abs_omega)
                assert np.allclose(brackets[3], near, rtol=0, atol=atol), (name, n)
                full = np.array([np.sum(grid.g, axis=0),
                                 np.sum(grid.abs_omega - grid.g / 2, axis=0)])
                # the signed sums cancel to roundoff, so they are held to the area's scale
                scale_sums = np.array([np.sum(np.abs(grid.g), axis=0), full[1]])
                assert np.all(np.abs(sums - full) <= 1e-12 * scale_sums), (name, n)

    @pytest.mark.parametrize("block", [1 << 12, 1 << 15])
    def test_block_size_moves_only_roundoff(self, block, monkeypatch):
        links = {**la.catalogue(), "separated_0.5": la.separated_link(0.5)}
        for n_start in (32, 512):
            default = {name: fn.compute_functionals(link, 1e-3, n_start)
                       for name, link in links.items()}
            with monkeypatch.context() as mp:
                mp.setattr(fn, "_BLOCK_NODES", block)
                for name, link in links.items():
                    rep, want = fn.compute_functionals(link, 1e-3, n_start), default[name]
                    assert rep.area == want.area and rep.grid_used == want.grid_used, name
                    assert ([(lv.n, lv.zeros) for lv in rep.levels]
                            == [(lv.n, lv.zeros) for lv in want.levels]), name
                    assert rep.energy == pytest.approx(want.energy, rel=1e-14), name
                    assert abs(rep.signed_area - want.signed_area) <= 1e-14, name

    @pytest.mark.parametrize("name, n_start", [("perturbed02", 32), ("perturbed02", 512),
                                               ("separated10", 32), ("separated10", 512),
                                               ("separated05", 32), ("hopf", 512)])
    def test_whole_levels_evaluated(self, name, n_start, request, monkeypatch):
        link = request.getfixturevalue(name) if name != "separated05" else la.separated_link(0.5)
        counts, paired = _node_counts(link, monkeypatch)
        built = []

        def checked_level(link, n):
            counts[:] = 0
            out = level(link, n)
            # each node of the n x n grid reaches the kernel once, and no other node
            on_grid = counts[::fn.N_MAX // n, ::fn.N_MAX // n]
            assert np.all(on_grid == 1) and counts.sum() == n * n, n
            built.append(n)
            return out
        level = fn._level
        monkeypatch.setattr(fn, "_level", checked_level)
        rep = fn.compute_functionals(link, tol=1e-3, n_start=n_start)
        assert built[0] == n_start and rep.grid_used == (built[-1], built[-1])
        assert built == [n_start * 2 ** k for k in range(len(built))]
        # the refinement sends the kernel one point per open zero and step,
        # in at most 8 steps per level (plain regula falsi, without the
        # Anderson-Bjorck scaling, takes 26 at 32 x 32 on perturbed02)
        assert sum(paired) >= sum(lv.zeros for lv in rep.levels)
        assert len(paired) <= 8 * len(built), len(paired)
        if name == "hopf":
            assert paired == []
        if n_start == 512:  # one doubling to 1024
            assert built == [512, 1024]

    def test_one_level_alive_at_a_time(self):
        # the 1024-row level is built after the 512 x 512 one is dropped; a
        # level holds its curve stacks (64 kB at 1024) and its brackets
        # (2,048 zeros, 112 kB), and peaks in one block's kernel temporaries:
        # 1.4 MiB in all
        tracemalloc.start()
        try:
            fn.compute_functionals(la.separated_link(0.5), tol=1e-3, n_start=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20, peak

    def test_hopf_area_exactly_zero(self, hopf):
        rep = la.area(hopf, tol=1e-3)
        assert rep.area == 0.0
        assert rep.signed_area == 0.0

    def test_start_at_cap_fails_before_evaluating(self, separated10, monkeypatch):
        calls = []

        def counting_kernel(*args):
            calls.append(args)
            raise AssertionError("the kernel must not run")
        monkeypatch.setattr(fn, "magnitude_kernel", counting_kernel)
        with pytest.raises(NoConvergence, match="no convergence to 0.001 within 1024 nodes"):
            fn.compute_functionals(separated10, tol=1e-3, n_start=fn.N_MAX)
        assert calls == []

    def test_unknown_criterion_fails_before_evaluating(self, separated10, monkeypatch):
        def kernel(*args):
            raise AssertionError("the kernel must not run")
        monkeypatch.setattr(fn, "magnitude_kernel", kernel)
        with pytest.raises(ValueError, match="'signed_area', 'area', 'energy', 'all'"):
            fn.compute_functionals(separated10, criterion="areas")

    @pytest.mark.parametrize("excess, raises, alternating", [
        pytest.param(1e-6, True, True, id="1e-06-True"),
        pytest.param(1e-10, False, True, id="1e-10-False"),
        pytest.param(1e-6, True, False, id="positive-1e-06-True"),
        pytest.param(1e-10, False, False, id="positive-1e-10-False")])
    def test_cosine_bound_checked(self, perturbed02, monkeypatch, excess, raises, alternating):
        from linkarea import conformal as cf

        def metric_beyond_bound(x, xp, y, yp):
            """|g|/2 = (1 + excess)|Omega| at every pair, for stacks as metric_kernel
            takes them; the sign alternates along each stack of y or is positive."""
            chord2 = 2.0 - 2.0 * (x @ np.swapaxes(y, -1, -2))
            speeds = (np.linalg.norm(xp, axis=-1)[..., :, None]
                      * np.linalg.norm(yp, axis=-1)[..., None, :])
            sign = 1.0
            if alternating:
                sign = np.where(np.arange(y.shape[-2]) % 2 == 0, 1.0, -1.0)
            return 2.0 * (1.0 + excess) * sign * speeds / chord2
        monkeypatch.setattr(cf, "metric_kernel", metric_beyond_bound)
        if raises:
            with pytest.raises(ValueError, match="cosine argument exceeds 1"):
                fn.compute_functionals(perturbed02, tol=1e-3)
        elif not alternating:
            fn.compute_functionals(perturbed02, tol=1e-3)
        else:
            # the signed area and the energy are trapezoid sums and converge ...
            rep = fn.compute_functionals(perturbed02, tol=1e-3, criterion="energy")
            assert rep.grid_used == (64, 64)
            # ... but each row of g zigzags from column to column, so every
            # two adjacent nodes bracket a zero.  The refinement's stacks hold
            # one point each, where the fake is positive, so each zero moves
            # onto its bracket's negative end and the area is the variation of
            # a over the nodes, which converges at order 2 only: it moves by
            # 1e-2 from 64 to 128 rows and reports no convergence (reached
            # sooner under a lower cap)
            assert [level.zeros for level in rep.levels] == [32 * 32, 64 * 64]
            monkeypatch.setattr(fn, "N_MAX", 128)
            with pytest.raises(NoConvergence, match="within 128 nodes"):
                fn.compute_functionals(perturbed02, tol=1e-3)


class TestSignedArea:
    def test_hopf_zero(self, hopf):
        rep = la.signed_area(hopf, tol=1e-10)
        assert abs(rep.signed_area) <= 1e-12

    def test_perturbed_zero(self):
        for seed in range(3):
            rep = la.signed_area(la.perturbed_hopf_link(0.2, seed), tol=1e-8)
            assert abs(rep.signed_area) <= 1e-8

    def test_orientation_reversed_still_zero(self, separated15):
        from linkarea.links import Link2
        flipped = Link2(separated15.c1, separated15.c2.reversed())
        rep = la.signed_area(flipped, tol=1e-8)
        assert abs(rep.signed_area) <= 1e-8

    def test_report_invariants(self, perturbed02):
        rep = la.signed_area(perturbed02, tol=1e-8)
        assert rep.est_error >= 0
        assert rep.area >= abs(rep.signed_area)


class TestArea:
    def test_hopf_zero(self, hopf):
        rep = la.area(hopf, tol=1e-3)
        assert rep.area <= 1e-10

    def test_mobius_images_of_hopf(self, hopf):
        for seed in range(4):
            moved = la.random_mobius(seed + 70, 1.0).transform_link(hopf)
            rep = la.area(moved, tol=1e-3)
            assert rep.area == 0.0

    @pytest.mark.parametrize("d", [0.5, 1.0, 1.5, 1.9])
    def test_separated_closed_form(self, d):
        rep = la.area(la.separated_link(d), tol=1e-8)
        assert rep.grid_used[0] <= 256
        assert rep.area == pytest.approx(separated_area(d), rel=1e-9)

    def test_separated_regression_and_monotone(self):
        values = []
        for d in (1.0, 1.5, 1.9):
            rep = la.area(la.separated_link(d), tol=1e-3)
            assert rep.area == pytest.approx(separated_area(d), rel=1e-9)
            values.append(rep.area)
        assert values[0] > values[1] > values[2] > 0

    def test_parallel_matches_energy(self, parallel):
        # on coaxial round pairs area = 4 energy / pi, and the energy converges spectrally
        reference = 4 * energy(parallel, 1e-10) / np.pi
        rep = la.area(parallel, tol=1e-8)
        assert rep.grid_used[0] <= 256
        assert rep.area == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.3])
    def test_isoclinic_great_circles(self, alpha):
        rep = la.area(la.great_circle_pair(alpha, alpha), tol=1e-8)
        assert rep.grid_used[0] <= 256
        assert rep.area == pytest.approx(8 * np.pi / np.tan(alpha), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0, 1.3, np.pi / 2])
    def test_isoclinic_energy(self, alpha):
        # the Moebius cross energy of the isoclinic pair is 2 pi^2 / sin(alpha)
        link = la.great_circle_pair(alpha, alpha)
        assert energy(link, 1e-10) == pytest.approx(HOPF_ENERGY / np.sin(alpha), rel=1e-12)

    def test_right_angled_great_circles_are_hopf(self):
        rep = la.area(la.great_circle_pair(np.pi / 2, np.pi / 2), tol=1e-3)
        assert rep.area == 0.0
        assert all(level.zeros == 0 for level in rep.levels)

    def test_great_circle_pair_rejects_angles(self):
        from linkarea.errors import BadParameter
        for alpha, beta in ((0.0, 1.0), (1.0, -0.1), (1.0, 1.6), (float("nan"), 1.0)):
            with pytest.raises(BadParameter):
                la.great_circle_pair(alpha, beta)

    def test_area_tolerance_unreachable(self):
        # whole rows of g vanish, so the s-quadrature converges at order 2 only
        with pytest.raises(NoConvergence):
            la.area(la.great_circle_pair(np.pi / 2, 1.2), tol=1e-9)

    def test_roundoff_rows_add_no_zeros(self, hopf):
        # g is roundoff on every row of a Moebius image of Hopf, so no row has a
        # sign change and the area is exactly 0
        for seed in range(3):
            moved = la.random_mobius(seed + 70, 2.0).transform_link(hopf)
            energy(moved, 1e-10)
            rep = fn.compute_functionals(moved, tol=1e-3, n_start=256)
            assert all(level.zeros == 0 for level in rep.levels), seed
            assert rep.area == 0.0

    def test_levels_report_refinement(self, perturbed02):
        rep = la.compute_functionals(perturbed02, tol=1e-4, n_start=32)
        assert [level.n for level in rep.levels] == [32 * 2 ** k for k in range(len(rep.levels))]
        last, before = rep.levels[-1], rep.levels[-2]
        assert rep.grid_used == (last.n, last.n)
        assert (rep.signed_area, rep.area, rep.energy) == last.values
        delta = max(abs(a - b) for a, b in zip(last.values, before.values))
        assert rep.est_error == max(delta, fn.ROUNDOFF * last.area)
        assert all(level.zeros > 0 for level in rep.levels)
        assert rep.levels[0].n == 32


class TestResolvedRows:
    def test_separated_05_at_default_start(self):
        rep = fn.compute_functionals(la.separated_link(0.5), tol=1e-3)
        assert abs(rep.area - separated_area(0.5)) <= 1e-13

    @pytest.mark.parametrize("d", [1.0, 1.5])
    def test_separated_at_default_start(self, d):
        rep = fn.compute_functionals(la.separated_link(d), tol=1e-3)
        assert rep.grid_used == (64, 64)
        assert abs(rep.area - separated_area(d)) <= 1e-14

    @pytest.mark.parametrize("name", ["sep0.5", "sep1.0", "sep1.5", "sep1.9", "parallel",
                                      "hopf", "p02"])
    def test_start_512_matches_reference(self, name):
        reference = None  # p02 has no closed form
        if name.startswith("sep"):
            link = la.separated_link(float(name[3:]))
            reference = separated_area(float(name[3:]))
        elif name == "parallel":
            link = la.parallel_circles_link()
            reference = 4 * energy(link, 1e-10) / np.pi
        elif name == "hopf":
            link, reference = la.hopf_link(), 0.0
        else:
            link = la.perturbed_hopf_link(0.2, 0)
        rep = fn.compute_functionals(link, tol=1e-3, n_start=512)
        assert rep.grid_used[0] == 1024
        if reference is not None:
            assert abs(rep.area - reference) <= 1e-13

    def test_hopf_images_keep_square_levels(self, hopf):
        """Each level is an n x n grid, n doubling from n_start to grid_used."""
        for seed in range(4):
            moved = la.random_mobius(seed + 70, 2.0).transform_link(hopf)
            for tol, criterion, n_start in ((1e-3, "area", 32), (1e-10, "all", 64)):
                rep = fn.compute_functionals(moved, tol, n_start, criterion)
                sizes = [level.n for level in rep.levels]
                assert sizes == [n_start << k for k in range(len(sizes))], (seed, criterion)
                assert len(sizes) >= 2 and rep.grid_used == (sizes[-1], sizes[-1])

    @pytest.mark.parametrize("n_start", [32, 512])
    def test_est_error_bounds_closed_form_error(self, n_start):
        cases = [(la.separated_link(d), separated_area(d)) for d in (0.5, 1.0, 1.5, 1.9)]
        cases += [(la.great_circle_pair(a, a), 8 * np.pi / np.tan(a)) for a in (0.6, 1.0, 1.3)]
        parallel = la.parallel_circles_link()
        cases.append((parallel, 4 * energy(parallel, 1e-10) / np.pi))
        for link, reference in cases:
            rep = fn.compute_functionals(link, tol=1e-3, n_start=n_start)
            assert rep.est_error >= abs(rep.area - reference), (rep.grid_used, reference)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the last level difference "
                       "understates the error where the row integral has kinks in s")
    @pytest.mark.parametrize("seed, tol, reference", [(0, 1e-6, 2.865945123469321),
                                                      (3, 1e-5, 3.223421966286152)])
    def test_est_error_bounds_generic_link_error(self, seed, tol, reference):
        """References from the contour route of ROADMAP item 14.  p02 stops at
        512^2 with est_error 3.2e-8 but 1.7e-7 off; seed 3 reads est_error
        3.5e-6 against an error of 2.7e-5."""
        rep = fn.compute_functionals(la.perturbed_hopf_link(0.2, seed), tol=tol, criterion="area")
        assert rep.est_error >= abs(rep.area - reference)


class TestCrossEnergy:
    def test_pointwise_nonnegative(self, perturbed02):
        grid = la.build_grid(perturbed02, 64, 64)
        assert np.min(grid.abs_omega - grid.re_omega) >= 0.0

    def test_hopf_value(self, hopf):
        assert energy(hopf, 1e-10) == pytest.approx(HOPF_ENERGY, abs=1e-10)

    def test_regression_values(self, separated10, perturbed02):
        assert energy(separated10, 1e-8) == pytest.approx(
            ENERGY_SEPARATED_10, rel=1e-9)
        assert energy(perturbed02, 1e-8) == pytest.approx(
            ENERGY_PERTURBED_02_S0, rel=1e-9)

    def test_mobius_invariance(self, perturbed02):
        base = energy(perturbed02, 1e-8)
        for seed in range(5):
            moved = la.random_mobius(seed + 80, 1.0).transform_link(perturbed02)
            got = energy(moved, 1e-8)
            assert got == pytest.approx(base, rel=1e-6)

    def test_tol_floor(self, hopf):
        with pytest.raises(ValueError):
            energy(hopf, 1e-12)


class TestMinimalityCharacterization:
    def test_area_zero_iff_right_angles(self):
        for name, link in la.catalogue().items():
            grid = la.build_grid(link, 64, 64)
            flat = np.max(np.abs(grid.theta - np.pi / 2)) <= 1e-5
            rep = la.area(link, tol=1e-3)
            if flat:
                assert rep.area <= 1e-8, name
            else:
                assert rep.area > 1e-4, name


def _write_whole(grid, path):
    """Export a TorusGrid through write_grid as one block."""
    la.write_grid(grid.s, grid.t, [(grid.g, grid.theta, grid.abs_omega, grid.re_omega)], path)


def _disk_full_after(room):
    """An open whose files take room bytes, then fail as a full disk does."""
    def open_limited(*args, **kwargs):
        fh = open(*args, **kwargs)
        write, left = fh.write, [room]

        def limited(data):
            if len(data) > left[0]:
                write(data[:left[0]])
                raise OSError(28, "No space left on device")
            left[0] -= len(data)
            return write(data)
        fh.write = limited
        return fh
    return open_limited


class TestExportImport:
    def test_row_count_and_header(self, hopf, tmp_path):
        grid = la.build_grid(hopf, 32, 32)
        path = tmp_path / "grid.csv"
        _write_whole(grid, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,t,g,theta,abs_omega,re_omega"
        assert len(lines) == 1 + 32 * 32

    def test_hopf_theta_column(self, hopf, tmp_path):
        grid = la.build_grid(hopf, 32, 32)
        path = tmp_path / "grid.csv"
        la.write_grid(*la.grid_blocks(hopf, 32, 32), path)
        back = la.read_grid(path)
        assert np.max(np.abs(back.theta - np.pi / 2)) <= 1e-10

    def test_round_trip_bit_exact(self, perturbed02, tmp_path):
        grid = la.build_grid(perturbed02, 32, 32)
        path = tmp_path / "grid.csv"
        _write_whole(grid, path)
        back = la.read_grid(path)
        for field in ("s", "t", "g", "theta", "abs_omega", "re_omega"):
            assert np.array_equal(getattr(back, field), getattr(grid, field)), field

    @pytest.mark.parametrize("body", [
        "s,t,g,theta,abs_omega\n0,0,1,2,3\n",                                   # wrong header
        gio.CSV_HEADER + "\n0,0,1,2,3,4\n0,1,1,2,3,4\n1,0,1,2,3,4\n",  # 3 of 2x2
        gio.CSV_HEADER + "\n0,0,1,2,3\n0,1,1,2,3\n",                  # 5 columns
        gio.CSV_HEADER + "\n0,0,1,2,3,4\n0,1,1,2,3,4\n1,1,1,2,3,4\n1,1,1,2,3,4\n",  # no product
        gio.CSV_HEADER + "\n0,0,1,2,3,4\n1,0,1,2,3,4\n0,1,1,2,3,4\n1,1,1,2,3,4\n",  # t-major
        gio.CSV_HEADER + "\n0,0,1,2,3,4\n0,1,1,2,3\n",                  # ragged rows
        None,                                                           # a directory
    ])
    def test_read_rejects_malformed(self, tmp_path, body):
        from linkarea.errors import IoFailure
        path = tmp_path / "grid.csv"
        if body is None:
            path.mkdir()
        else:
            path.write_text(body)
        with pytest.raises(IoFailure):
            la.read_grid(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["\n", "\n\n  \n"])
    def test_read_header_only(self, tmp_path, body):
        from linkarea.errors import IoFailure
        path = tmp_path / "grid.csv"
        path.write_text(gio.CSV_HEADER + body)
        with pytest.raises(IoFailure, match="no grid rows"):
            la.read_grid(path)

    @pytest.mark.parametrize("name, n, how", [
        pytest.param("perturbed02", 32, "whole", id="perturbed02"),
        pytest.param("hopf", 32, "whole", id="hopf"),
        # theta has exact zeros and values near 1e-8 (scientific notation)
        pytest.param("separated10", 32, "whole", id="separated10"),
        # 128 row blocks of 4 rows each
        pytest.param("perturbed02", 512, "blocks", id="perturbed02-512"),
        # the anglemap command streams 8 row blocks from the kernel to the file
        pytest.param("separated10", 128, "anglemap", id="anglemap-separated10-128"),
    ])
    def test_export_bytes_match_savetxt(self, name, n, how, request, tmp_path):
        link = request.getfixturevalue(name)
        path, ref = tmp_path / "grid.csv", tmp_path / "ref.csv"
        if how == "anglemap":
            link_path = tmp_path / "link.lk1"
            la.write_link(link, link_path)
            argv = ["anglemap", str(link_path), "--grid", str(n), "--out", str(path)]
            assert cli.main(argv) == 0
            link = la.read_link(link_path)
        elif how == "blocks":
            la.write_grid(*la.grid_blocks(link, n, n), path)
        grid = la.build_grid(link, n, n)
        if how == "whole":
            _write_whole(grid, path)
        rows = np.column_stack([np.repeat(grid.s, n), np.tile(grid.t, n)]
                               + [a.ravel() for a in (grid.g, grid.theta,
                                                      grid.abs_omega, grid.re_omega)])
        np.savetxt(ref, rows, fmt="%.17g", delimiter=",", header=gio.CSV_HEADER, comments="")
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_export_holds_one_small_block(self, perturbed02, tmp_path, n):
        # a block of 2,048 nodes, its byte matrix, the tobytes and translate
        # copies of it and the formatter's scratch; 4,096-node blocks peak at
        # 2.6 MiB (n = 64), 2.4 MiB (n = 512) and 2.4 MiB (n = 1024)
        path = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            la.write_grid(*la.grid_blocks(perturbed02, n, n), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 2 ** 20, peak

    def test_failed_write_leaves_no_file(self, perturbed02, tmp_path, monkeypatch):
        from linkarea.errors import IoFailure
        grid = la.build_grid(perturbed02, 32, 32)
        # write_grid opens its file through errors.open_output
        from linkarea import errors
        monkeypatch.setattr(errors, "open", _disk_full_after(4096), raising=False)
        path = tmp_path / "grid.csv"
        with pytest.raises(IoFailure):
            _write_whole(grid, path)
        assert not path.exists()

    def test_failed_link_write_leaves_no_file(self, perturbed02, tmp_path, monkeypatch):
        from linkarea.errors import IoFailure
        # write_link opens its file through errors.open_output too; the
        # lk-1 file of perturbed02 is about 1.8 kB
        from linkarea import errors
        monkeypatch.setattr(errors, "open", _disk_full_after(512), raising=False)
        path = tmp_path / "link.lk1"
        with pytest.raises(IoFailure):
            la.write_link(perturbed02, path)
        assert not path.exists()

    def test_io_failure(self, hopf, tmp_path):
        from linkarea.errors import IoFailure
        with pytest.raises(IoFailure):
            la.write_grid(*la.grid_blocks(hopf, 32, 32), tmp_path / "missing" / "grid.csv")


def _adversarial_doubles():
    """Values on which a "%.17g" digit generator is likely to slip."""
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1e-300, -1e300, 1.7976931348623157e308, np.nan, np.inf, -np.inf,
                1e-6, 1e-5, 1e-4, 1e16, 1e17, 99999999999999984.0]
    # 50 ulps either side of each power of ten from 1e-8 to 1e17
    powers = np.array([float(f"1e{k}") for k in range(-8, 18)])
    near_powers = (powers.view(np.int64)[:, None] + np.arange(-50, 51)).view(np.float64)
    # |x| * 10**p within 8 of 1e16 or 1e17, for every exact scale p, and neighbours
    edges = np.array([float(f"{top + j}e-{p}") for p in range(23)
                      for top in (10 ** 16, 10 ** 17) for j in range(-8, 9)])
    edges = (edges.view(np.int64)[:, None] + np.arange(-3, 4)).view(np.float64)
    # exact ties: m / 2**(p+1) with m odd has |x| * 10**p = m * 5**p / 2
    rng = np.random.default_rng(81)
    ties = []
    for p in range(2, 23):
        scale = 2 ** (p + 1)
        m = rng.integers(10 ** (16 - p) * scale, min(10 ** (17 - p) * scale, 2 ** 53), size=200)
        ties.append((m | 1) / scale)
    values = np.concatenate([specials, near_powers.ravel(), edges.ravel(), *ties])
    return np.concatenate([values, -values])


class TestFormatG17:
    @pytest.mark.parametrize("kind", ["adversarial", "random", "in-window", "short mantissa"])
    def test_matches_percent_g(self, kind):
        if kind == "adversarial":
            x = _adversarial_doubles()
        elif kind == "in-window":
            # no value falls back to Python's formatting
            x = _adversarial_doubles()
            x = x[(np.abs(x) > 1e-6) & (np.abs(x) < 1e17)]
        elif kind == "short mantissa":
            # 17-digit mantissas that end in zeros, in both the integer and the fractional part
            k = np.arange(1, 20001, dtype=np.float64)
            powers = np.array([float(f"1e{p}") for p in range(-5, 17)])
            x = np.concatenate([k / 8, k / 100, k * 1e12, powers, 3 * powers, -powers])
            assert ((np.abs(x) > 1e-6) & (np.abs(x) < 1e17)).all()
        else:
            rng = np.random.default_rng(17)
            n = 100_000
            x = (rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-30, 31, n)
                 * rng.choice([-1.0, 1.0], n))
        got = [row.tobytes().replace(b"\0", b"") for row in gio._format_g17(x)]
        want = [b"%.17g" % v for v in x]
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
        assert not bad[:5], f"{len(bad)} of {len(x)} differ"
