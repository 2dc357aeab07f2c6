import numpy as np
import pytest

import linkarea as la
from linkarea import symplectic as sy
from linkarea.errors import CoincidentPoints
from linkarea.rng import Lcg64
from conftest import random_unit4

TWO_PI = 2 * np.pi


class TestStereoProject:
    def test_antipode_to_origin(self):
        rng = Lcg64(41)
        for _ in range(20):
            x = random_unit4(rng)
            assert np.allclose(sy.stereo_project(x, -x), np.zeros(4), atol=1e-14)

    def test_equator_fixed(self):
        x = np.array([1.0, 0, 0, 0])
        y = np.array([0.0, 1, 0, 0])
        assert np.allclose(sy.stereo_project(x, y), y)

    def test_lands_in_orthogonal_hyperplane(self):
        rng = Lcg64(42)
        for _ in range(50):
            x, y = random_unit4(rng), random_unit4(rng)
            if abs(1 - x @ y) < 1e-6:
                continue
            assert abs(sy.stereo_project(x, y) @ x) <= 1e-12

    def test_pole_rejected(self):
        x = np.array([1.0, 0, 0, 0])
        with pytest.raises(CoincidentPoints):
            sy.stereo_project(x, x)


def _pullback(link, n):
    """The pullback coefficient on the uniform n x n grid, and the grid's stacks."""
    s = np.linspace(0, TWO_PI, n, endpoint=False)
    x, xp = link.c1.evaluate(s)
    y, _ = link.c2.evaluate(s)
    return sy.tautological_pullback(x, xp, y), x, xp, y


class TestTautologicalPullback:
    def test_hopf_coefficient_vanishes(self, hopf):
        a = _pullback(hopf, 64)[0]
        assert np.max(np.abs(a)) <= 1e-14

    def test_bounded_by_projection_norm(self, separated15):
        a, x, xp, y = _pullback(separated15, 64)
        speeds = np.linalg.norm(xp, axis=1)
        for i in range(0, 64, 7):
            for j in range(0, 64, 7):
                bound = np.linalg.norm(sy.stereo_project(x[i], y[j])) * speeds[i]
                assert abs(a[i, j]) <= bound + 1e-12

    def test_matches_scalar_projection(self, perturbed02):
        a, x, xp, y = _pullback(perturbed02, 32)
        for i in (0, 5, 17):
            for j in (3, 11, 29):
                want = sy.stereo_project(x[i], y[j]) @ xp[i]
                assert a[i, j] == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestExteriorDerivative:
    def test_hopf_both_sides_zero(self, hopf):
        assert sy.exterior_derivative_check(hopf.c1, hopf.c2) <= 1e-9

    def test_single_sign_across_catalogue(self, monkeypatch):
        # one sign fits every link, and the other fits none with a non-zero field
        links = la.catalogue()
        for name, link in links.items():
            assert sy.exterior_derivative_check(link.c1, link.c2) <= 1e-6, name
        monkeypatch.setattr(sy, "SIGN", -sy.SIGN)
        for name, link in links.items():
            if name != "hopf":  # the Hopf field is zero, so either sign fits it
                assert sy.exterior_derivative_check(link.c1, link.c2) >= 1e-2, name

    def test_perturbed_residual(self, perturbed02):
        assert sy.exterior_derivative_check(perturbed02.c1, perturbed02.c2) <= 1e-6

    def test_residual_conformally_stable(self, perturbed02):
        base = sy.exterior_derivative_check(perturbed02.c1, perturbed02.c2)
        mob = la.random_mobius(611, 1.0)
        moved = mob.transform_link(perturbed02)
        res = sy.exterior_derivative_check(moved.c1, moved.c2)
        assert res <= 1e-6
        assert base <= 1e-6


def test_sign_inconsistency_detected(separated10, monkeypatch):
    monkeypatch.setattr(sy, "metric_kernel",
                        lambda x, xp, y, yp: np.ones((len(x), len(y))))
    assert sy.exterior_derivative_check(separated10.c1, separated10.c2) > 0.5


def test_spectral_derivative_exact_for_modes():
    t = np.linspace(0, TWO_PI, 64, endpoint=False)
    values = np.stack([3 * np.cos(5 * t) + 0.5 * np.sin(2 * t) for _ in range(4)])
    got = sy.spectral_t_derivative(values)
    want = np.stack([-15 * np.sin(5 * t) + np.cos(2 * t) for _ in range(4)])
    assert np.max(np.abs(got - want)) <= 1e-12
