import numpy as np
import pytest

import linkarea as la
from linkarea import conformal as cf
from linkarea.errors import CoincidentPoints
from linkarea.rng import Lcg64
from test_spheres import antipodal_test_curves

TWO_PI = 2 * np.pi


class TestConformalAngleWedge:
    def test_hopf_right_angle(self, hopf):
        rng = Lcg64(31)
        for _ in range(50):
            s0, t0 = rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI)
            theta = float(cf.density_pairs(hopf.c1, hopf.c2, s0, t0)[1])
            assert theta == pytest.approx(np.pi / 2, abs=1e-12)

    def test_antipodal_supplement(self):
        c1, c2 = antipodal_test_curves()
        theta = float(cf.density_pairs(c1, c2, 0.0, 0.0)[1])
        between = np.arccos(np.clip(c1.evaluate(0.0)[1] @ c2.evaluate(0.0)[1], -1, 1))
        assert theta == pytest.approx(np.pi - between, abs=1e-12)

    def test_range(self, perturbed02):
        s = np.linspace(0, TWO_PI, 32, endpoint=False)
        grid = cf.density_pairs(perturbed02.c1, perturbed02.c2, s[:, None], s)[1]
        assert np.all(grid >= 0.0)
        assert np.all(grid <= np.pi)


class TestConformalAngleChart:
    def test_hopf_right_angle(self, hopf):
        s = np.linspace(0, TWO_PI, 32, endpoint=False)
        grid = cf.conformal_angle_chart_pairs(hopf.c1, hopf.c2, s[:, None], s)
        assert np.max(np.abs(grid - np.pi / 2)) <= 1e-9

    def test_hopf_pole_not_on_curves(self, hopf):
        pole = cf.chart_pole(hopf.c1, hopf.c2)
        s = np.linspace(0, TWO_PI, 256, endpoint=False)
        for c in (hopf.c1, hopf.c2):
            assert np.min(np.linalg.norm(c.point(s) - pole, axis=1)) >= cf.POLE_CLEARANCE

    def test_antipodal_supplement(self):
        c1, c2 = antipodal_test_curves()
        theta = float(cf.conformal_angle_chart_pairs(c1, c2, 0.0, 0.0))
        between = np.arccos(np.clip(c1.evaluate(0.0)[1] @ c2.evaluate(0.0)[1], -1, 1))
        assert theta == pytest.approx(np.pi - between, abs=1e-9)

    @pytest.mark.parametrize("name", ["hopf", "separated_1.0", "perturbed_hopf_0.2_s0"])
    def test_routes_agree_on_grid(self, small_catalogue, name):
        link = small_catalogue[name]
        s = np.linspace(0, TWO_PI, 64, endpoint=False)
        wedge = cf.density_pairs(link.c1, link.c2, s[:, None], s)[1]
        chart = cf.conformal_angle_chart_pairs(link.c1, link.c2, s[:, None], s)
        assert np.max(np.abs(wedge - chart)) <= 1e-7


@pytest.mark.parametrize("name", ["hopf", "separated_1.0", "perturbed_hopf_0.2_s0"])
def test_broadcast_grid_matches_paired_samples(small_catalogue, name):
    link = small_catalogue[name]
    s = np.linspace(0, TWO_PI, 48, endpoint=False)
    t = np.roll(s, 7)[:40]
    n, m = len(s), len(t)
    grids = cf.density_pairs(link.c1, link.c2, s[:, None], t)
    pairs = cf.density_pairs(link.c1, link.c2, np.repeat(s, m), np.tile(t, n))
    for grid, paired in zip(grids, pairs):
        assert grid.shape == (n, m)
        assert np.max(np.abs(grid.ravel() - paired)) <= 1e-13
    chart_grid = cf.conformal_angle_chart_pairs(link.c1, link.c2, s[:, None], t)
    chart_pairs = cf.conformal_angle_chart_pairs(link.c1, link.c2, np.repeat(s, m),
                                                 np.tile(t, n))
    assert chart_grid.shape == (n, m)
    assert np.max(np.abs(chart_grid.ravel() - chart_pairs)) <= 1e-13


class TestCrossRatioDensity:
    def test_hopf_real_part_vanishes(self, hopf):
        rng = Lcg64(32)
        for _ in range(20):
            s0, t0 = rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI)
            _, _, absval, re = cf.density_pairs(hopf.c1, hopf.c2, s0, t0)
            assert abs(re) <= 1e-14
            assert absval == pytest.approx(0.5, abs=1e-12)

    def test_real_part_is_half_metric(self, perturbed02):
        rng = Lcg64(33)
        for _ in range(50):
            s0, t0 = rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI)
            re = cf.density_pairs(perturbed02.c1, perturbed02.c2, s0, t0)[3]
            g = cf.density_pairs(perturbed02.c1, perturbed02.c2, s0, t0)[0]
            assert re == pytest.approx(g / 2, abs=1e-10)

    def test_density_identity(self, perturbed02):
        rng = Lcg64(34)
        for _ in range(50):
            s0, t0 = rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI)
            _, theta, absval, re = cf.density_pairs(perturbed02.c1, perturbed02.c2, s0, t0)
            im = absval * np.sin(theta)
            assert re ** 2 + im ** 2 == pytest.approx(absval ** 2, abs=1e-10)
            assert re == pytest.approx(absval * np.cos(theta), abs=1e-12)

    def test_abs_value_formula(self, separated10):
        s0, t0 = 0.4, 2.7
        x, xp = separated10.c1.evaluate(s0)
        y, yp = separated10.c2.evaluate(t0)
        absval = cf.density_pairs(separated10.c1, separated10.c2, s0, t0)[2]
        want = np.linalg.norm(xp) * np.linalg.norm(yp) / np.sum((x - y) ** 2)
        assert absval == pytest.approx(want, rel=1e-12)

    def test_envelope_decays_with_separation(self):
        tops = []
        for d in (1.0, 1.5, 1.9):
            link = la.separated_link(d)
            s = np.linspace(0, TWO_PI, 64, endpoint=False)
            _, _, _, re = cf.density_pairs(link.c1, link.c2, s[:, None], s)
            tops.append(np.max(np.abs(re)))
        assert tops[0] > tops[1] > tops[2]

    def test_pointwise_conformal_invariance(self, perturbed02):
        rng = Lcg64(35)
        samples = [(rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI)) for _ in range(10)]
        base = [cf.density_pairs(perturbed02.c1, perturbed02.c2, s0, t0) for s0, t0 in samples]
        for k in range(20):
            mob = la.random_mobius(500 + k, 1.0)
            moved = mob.transform_link(perturbed02)
            for (s0, t0), (_, theta0, abs0, re0) in zip(samples, base):
                _, theta1, abs1, re1 = cf.density_pairs(moved.c1, moved.c2, s0, t0)
                assert re1 == pytest.approx(re0, rel=1e-7, abs=1e-9)
                assert abs1 == pytest.approx(abs0, rel=1e-7)
                assert theta1 == pytest.approx(theta0, rel=1e-7, abs=1e-9)


class TestCrossRatioFd:
    def test_hopf_vanishes(self, hopf):
        pole = cf.chart_pole(hopf.c1, hopf.c2)
        rng = Lcg64(36)
        for _ in range(10):
            s0, t0 = rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI)
            val = cf.cross_ratio_fd(hopf.c1, hopf.c2, s0, t0, pole=pole)
            assert abs(val) <= cf.TOL_FD

    def test_agreement(self, perturbed02):
        pole = cf.chart_pole(perturbed02.c1, perturbed02.c2)
        rng = Lcg64(37)
        for _ in range(20):
            s0, t0 = rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI)
            want = cf.density_pairs(perturbed02.c1, perturbed02.c2, s0, t0)[3]
            val = cf.cross_ratio_fd(perturbed02.c1, perturbed02.c2, s0, t0, pole=pole)
            assert abs(val - want) <= cf.TOL_FD

    def test_formerly_concircular_stencil(self, hopf):
        # both stencil pairs on one planar circle through the chart
        c, pole = hopf.c1, np.array([0.0, 0.0, 0.0, 1.0])
        val = cf.cross_ratio_fd(c, c.reversed(), 0.0, np.pi / 2, pole=pole)
        want = 0.5 * cf.density_pairs(c, c.reversed(), 0.0, np.pi / 2)[0]
        assert abs(val - want) <= cf.TOL_FD

    def test_array_call_matches_scalar_calls(self, perturbed02):
        pole = cf.chart_pole(perturbed02.c1, perturbed02.c2)
        rng = Lcg64(38)
        s, t = np.array([(rng.uniform_in(0, TWO_PI), rng.uniform_in(0, TWO_PI))
                         for _ in range(50)]).T
        batch = cf.cross_ratio_fd(perturbed02.c1, perturbed02.c2, s, t, pole=pole)
        assert batch.shape == s.shape
        single = [cf.cross_ratio_fd(perturbed02.c1, perturbed02.c2, s0, t0, pole=pole)
                  for s0, t0 in zip(s, t)]
        assert all(np.ndim(v) == 0 for v in single)
        # scalar and stacked curve evaluation may differ in the last bit,
        # which the stencil's 1/eps^2 magnifies
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_coincident_chart_pole_rejected(self, hopf):
        with pytest.raises(CoincidentPoints):
            cf.chart_point(np.array([0.0, 0, 0, 1.0]), np.array([0.0, 0, 0, 1.0]),
                           cf.chart_basis(np.array([0.0, 0, 0, 1.0])))


class _CandidateHuggingCurve:
    """Fake curve whose samples sit on every candidate pole."""

    def point(self, s):
        cands = cf._POLE_CANDIDATES
        idx = np.arange(np.atleast_1d(s).size) % len(cands)
        return cands[idx]


def test_pole_scan_exhaustion():
    from linkarea.errors import PoleOnCurve
    c = _CandidateHuggingCurve()
    with pytest.raises(PoleOnCurve):
        cf.chart_pole(c, c)


def test_density_pairs_rejects_touching_curves(hopf):
    s = np.linspace(0, TWO_PI, 16, endpoint=False)
    with pytest.raises(CoincidentPoints):
        cf.density_pairs(hopf.c1, hopf.c1, s[:, None], s)
