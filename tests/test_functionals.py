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
    ])
    def test_read_rejects_malformed(self, tmp_path, body):
        from linkarea.errors import IoFailure
        path = tmp_path / "grid.csv"
        path.write_text(body)
        with pytest.raises(IoFailure):
            la.read_grid(path)

    @pytest.mark.parametrize("name", ["perturbed02", "hopf"])
    def test_export_bytes_match_savetxt(self, name, request, tmp_path):
        grid = la.build_grid(request.getfixturevalue(name), 32, 32)
        path, ref = tmp_path / "grid.csv", tmp_path / "ref.csv"
        la.export_grid(grid, path)
        rows = np.column_stack([np.repeat(grid.s, 32), np.tile(grid.t, 32)]
                               + [a.ravel() for a in (grid.g, grid.theta,
                                                      grid.abs_omega, grid.re_omega)])
        np.savetxt(ref, rows, fmt="%.17g", delimiter=",", header=fn.CSV_HEADER, comments="")
        assert path.read_bytes() == ref.read_bytes()

    def test_failed_write_leaves_no_file(self, perturbed02, tmp_path, monkeypatch):
        from linkarea.errors import IoFailure
        grid = la.build_grid(perturbed02, 32, 32)

        def disk_full_after_two_writes(*args, **kwargs):
            fh = open(*args, **kwargs)
            write, calls = fh.write, []

            def limited(text):
                calls.append(text)
                if len(calls) > 2:
                    raise OSError(28, "No space left on device")
                return write(text)
            fh.write = limited
            return fh

        monkeypatch.setattr(fn, "open", disk_full_after_two_writes, raising=False)
        path = tmp_path / "grid.csv"
        with pytest.raises(IoFailure):
            la.export_grid(grid, path)
        assert not path.exists()

    def test_io_failure(self, hopf, tmp_path):
        grid = la.build_grid(hopf, 32, 32)
        from linkarea.errors import IoFailure
        with pytest.raises(IoFailure):
            la.export_grid(grid, tmp_path / "missing" / "grid.csv")
