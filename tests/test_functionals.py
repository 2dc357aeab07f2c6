import numpy as np
import pytest

import linkarea as la
from linkarea import functionals as fn
from linkarea.errors import NoConvergence
from linkarea.rng import Lcg64

TWO_PI = 2 * np.pi

# converged quadrature values, frozen as regression fixtures
AREA_SEPARATED = {1.0: 18.84973226576563, 1.5: 7.330572759144536, 1.9: 1.2902226221551676}
ENERGY_SEPARATED_10 = 14.804406576960028
ENERGY_PERTURBED_02_S0 = 19.90570912566061
HOPF_ENERGY = 2 * np.pi ** 2  # |Omega| = 1/2 over the whole 2pi x 2pi torus


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

    @pytest.mark.parametrize("n", [16, 48, 2048])
    def test_resolution_bounds(self, hopf, n):
        with pytest.raises(ValueError):
            la.build_grid(hopf, n, 64)


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
            assert rep.area <= 1e-8

    def test_separated_regression_and_monotone(self):
        values = []
        for d, frozen in AREA_SEPARATED.items():
            rep = la.area(la.separated_link(d), tol=1e-3)
            assert rep.area == pytest.approx(frozen, rel=1e-3)
            values.append(rep.area)
        assert values[0] > values[1] > values[2] > 0

    def test_area_tolerance_unreachable(self, separated10):
        with pytest.raises(NoConvergence):
            la.area(separated10, tol=1e-9)


class TestCrossEnergy:
    def test_pointwise_nonnegative(self, perturbed02):
        grid = la.build_grid(perturbed02, 64, 64)
        assert np.min(grid.abs_omega - grid.re_omega) >= 0.0

    def test_hopf_value(self, hopf):
        assert la.cross_energy(hopf, tol=1e-10) == pytest.approx(HOPF_ENERGY, abs=1e-10)

    def test_regression_values(self, separated10, perturbed02):
        assert la.cross_energy(separated10, tol=1e-8) == pytest.approx(
            ENERGY_SEPARATED_10, rel=1e-9)
        assert la.cross_energy(perturbed02, tol=1e-8) == pytest.approx(
            ENERGY_PERTURBED_02_S0, rel=1e-9)

    def test_mobius_invariance(self, perturbed02):
        base = la.cross_energy(perturbed02, tol=1e-8)
        for seed in range(5):
            moved = la.random_mobius(seed + 80, 1.0).transform_link(perturbed02)
            got = la.cross_energy(moved, tol=1e-8)
            assert got == pytest.approx(base, rel=1e-6)

    def test_tol_floor(self, hopf):
        with pytest.raises(ValueError):
            la.cross_energy(hopf, tol=1e-12)


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


class TestExportImport:
    def test_row_count_and_header(self, hopf, tmp_path):
        grid = la.build_grid(hopf, 32, 32)
        path = tmp_path / "grid.csv"
        la.export_grid(grid, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,t,g,theta,abs_omega,re_omega"
        assert len(lines) == 1 + 32 * 32

    def test_hopf_theta_column(self, hopf, tmp_path):
        grid = la.build_grid(hopf, 32, 32)
        path = tmp_path / "grid.csv"
        la.export_grid(grid, path)
        back = la.read_grid(path)
        assert np.max(np.abs(back.theta - np.pi / 2)) <= 1e-10

    def test_round_trip_bit_exact(self, perturbed02, tmp_path):
        grid = la.build_grid(perturbed02, 32, 32)
        path = tmp_path / "grid.csv"
        la.export_grid(grid, path)
        back = la.read_grid(path)
        for field in ("s", "t", "g", "theta", "abs_omega", "re_omega"):
            assert np.array_equal(getattr(back, field), getattr(grid, field)), field

    @pytest.mark.parametrize("body", [
        "s,t,g,theta,abs_omega\n0,0,1,2,3\n",                                   # wrong header
        fn.CSV_HEADER + "\n0,0,1,2,3,4\n0,1,1,2,3,4\n1,0,1,2,3,4\n",  # 3 of 2x2
        fn.CSV_HEADER + "\n0,0,1,2,3\n0,1,1,2,3\n",                  # 5 columns
        fn.CSV_HEADER + "\n0,0,1,2,3,4\n0,1,1,2,3,4\n1,1,1,2,3,4\n1,1,1,2,3,4\n",  # no product
        fn.CSV_HEADER + "\n0,0,1,2,3,4\n1,0,1,2,3,4\n0,1,1,2,3,4\n1,1,1,2,3,4\n",  # t-major
        fn.CSV_HEADER + "\n0,0,1,2,3,4\n0,1,1,2,3\n",                  # ragged rows
    ])
    def test_read_rejects_malformed(self, tmp_path, body):
        from linkarea.errors import IoFailure
        path = tmp_path / "grid.csv"
        path.write_text(body)
        with pytest.raises(IoFailure):
            la.read_grid(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["\n", "\n\n  \n"])
    def test_read_header_only(self, tmp_path, body):
        from linkarea.errors import IoFailure
        path = tmp_path / "grid.csv"
        path.write_text(fn.CSV_HEADER + body)
        with pytest.raises(IoFailure, match="no grid rows"):
            la.read_grid(path)

    @pytest.mark.parametrize("name, n", [
        pytest.param("perturbed02", 32, id="perturbed02"),
        pytest.param("hopf", 32, id="hopf"),
        # theta has exact zeros and values near 1e-8 (scientific notation)
        pytest.param("separated10", 32, id="separated10"),
        pytest.param("perturbed02", 512, id="perturbed02-512"),
    ])
    def test_export_bytes_match_savetxt(self, name, n, request, tmp_path):
        grid = la.build_grid(request.getfixturevalue(name), n, n)
        path, ref = tmp_path / "grid.csv", tmp_path / "ref.csv"
        la.export_grid(grid, path)
        rows = np.column_stack([np.repeat(grid.s, n), np.tile(grid.t, n)]
                               + [a.ravel() for a in (grid.g, grid.theta,
                                                      grid.abs_omega, grid.re_omega)])
        np.savetxt(ref, rows, fmt="%.17g", delimiter=",", header=fn.CSV_HEADER, comments="")
        assert path.read_bytes() == ref.read_bytes()

    def test_failed_write_leaves_no_file(self, perturbed02, tmp_path, monkeypatch):
        from linkarea.errors import IoFailure
        grid = la.build_grid(perturbed02, 32, 32)

        def disk_full_after_4k(*args, **kwargs):
            fh = open(*args, **kwargs)
            write, room = fh.write, [4096]

            def limited(data):
                if len(data) > room[0]:
                    write(data[:room[0]])
                    raise OSError(28, "No space left on device")
                room[0] -= len(data)
                return write(data)
            fh.write = limited
            return fh

        monkeypatch.setattr(fn, "open", disk_full_after_4k, raising=False)
        path = tmp_path / "grid.csv"
        with pytest.raises(IoFailure):
            la.export_grid(grid, path)
        assert not path.exists()

    def test_io_failure(self, hopf, tmp_path):
        grid = la.build_grid(hopf, 32, 32)
        from linkarea.errors import IoFailure
        with pytest.raises(IoFailure):
            la.export_grid(grid, tmp_path / "missing" / "grid.csv")


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
    @pytest.mark.parametrize("kind", ["adversarial", "random"])
    def test_matches_percent_g(self, kind):
        if kind == "adversarial":
            x = _adversarial_doubles()
        else:
            rng = np.random.default_rng(17)
            n = 100_000
            x = (rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-30, 31, n)
                 * rng.choice([-1.0, 1.0], n))
        got = [row.tobytes().replace(b"\0", b"") for row in fn._format_g17(x)]
        want = [b"%.17g" % v for v in x]
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
        assert not bad[:5], f"{len(bad)} of {len(x)} differ"
