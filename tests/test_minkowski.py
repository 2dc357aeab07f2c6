import numpy as np
import pytest

from linkarea import minkowski as mk
from linkarea.rng import Lcg64
from conftest import PAIR_INDEX, inner5, inner10_det, plucker_residuals

E = np.eye(5)


def rand5(rng, scale=1.0):
    return rng.uniform_array(5, -scale, scale)


class TestInner5:
    def test_basis_signature(self):
        assert inner5(E[0], E[0]) == -1.0
        for i in range(1, 5):
            assert inner5(E[i], E[i]) == 1.0

    def test_antipodal_lift_pair(self):
        u = np.array([1.0, 0, 0, 1, 0])
        v = np.array([1.0, 0, 0, -1, 0])
        assert inner5(u, v) == -2.0

    def test_symmetric_bilinear(self):
        rng = Lcg64(10)
        for _ in range(50):
            u, v, w = rand5(rng), rand5(rng), rand5(rng)
            a, b = rng.uniform_array(2, -2, 2)
            assert inner5(u, v) == pytest.approx(inner5(v, u), rel=1e-14, abs=1e-14)
            lhs = inner5(a * u + b * w, v)
            rhs = a * inner5(u, v) + b * inner5(w, v)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestWedge:
    def test_basis_pair(self):
        p = mk.wedge(E[0], E[1])
        want = np.zeros(10)
        want[PAIR_INDEX[(0, 1)]] = 1.0
        assert np.array_equal(p, want)

    def test_antipodal_lift_minors(self):
        # all ten 2x2 minors by hand: only the (0,3) one survives, value -2
        u = np.array([1.0, 0, 0, 1, 0])
        v = np.array([1.0, 0, 0, -1, 0])
        p = mk.wedge(u, v)
        want = np.zeros(10)
        want[PAIR_INDEX[(0, 3)]] = -2.0
        assert np.array_equal(p, want)

    def test_antisymmetry_and_self(self):
        rng = Lcg64(11)
        for _ in range(20):
            x, y = rand5(rng), rand5(rng)
            assert np.allclose(mk.wedge(x, y), -mk.wedge(y, x), atol=1e-15)
            assert np.array_equal(mk.wedge(x, x), np.zeros(10))

    def test_broadcasts(self):
        rng = Lcg64(12)
        xs = np.array([rand5(rng) for _ in range(7)])
        ys = np.array([rand5(rng) for _ in range(7)])
        batch = mk.wedge(xs, ys)
        for k in range(7):
            assert np.array_equal(batch[k], mk.wedge(xs[k], ys[k]))


class TestInner10:
    def test_basis_signature(self):
        p01 = mk.wedge(E[0], E[1])
        p12 = mk.wedge(E[1], E[2])
        assert mk.inner10(p01, p01) == 1.0
        assert mk.inner10(p12, p12) == -1.0

    def test_antipodal_lift_norm(self):
        p = mk.wedge(np.array([1.0, 0, 0, 1, 0]), np.array([1.0, 0, 0, -1, 0]))
        assert mk.inner10(p, p) == 4.0

    def test_determinant_identity(self):
        rng = Lcg64(13)
        for _ in range(200):
            x, y, xp, yp = (rand5(rng) for _ in range(4))
            lhs = mk.inner10(mk.wedge(x, y), mk.wedge(xp, yp))
            rhs = inner10_det(x, y, xp, yp)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_plane_trichotomy(self):
        timelike = mk.wedge(E[0], E[1])
        spacelike = mk.wedge(E[2], E[3])
        isotropic = mk.wedge(E[0] + E[1], E[2])
        assert mk.inner10(timelike, timelike) > 0
        assert mk.inner10(spacelike, spacelike) < 0
        assert mk.inner10(isotropic, isotropic) == 0.0


class TestPluckerResiduals:
    def test_decomposable(self):
        rng = Lcg64(14)
        for _ in range(50):
            p = mk.wedge(rand5(rng), rand5(rng))
            bound = 1e-12 * max(np.max(np.abs(p)) ** 2, 1e-30)
            assert np.max(np.abs(plucker_residuals(p))) <= bound

    def test_non_decomposable(self):
        p = mk.wedge(E[0], E[1]) + mk.wedge(E[2], E[3])
        res = plucker_residuals(p)
        assert np.max(np.abs(res)) == 1.0

    def test_zero(self):
        assert np.array_equal(plucker_residuals(np.zeros(10)), np.zeros(5))


class TestMinorLift:
    def test_identity(self):
        assert np.array_equal(mk.minor_lift(np.eye(5)), np.eye(10))

    def test_wedge_compatibility(self):
        rng = Lcg64(15)
        A = rng.uniform_array(25, -1, 1).reshape(5, 5)
        for _ in range(10):
            x, y = rand5(rng), rand5(rng)
            assert np.allclose(mk.minor_lift(A) @ mk.wedge(x, y), mk.wedge(A @ x, A @ y),
                               atol=1e-12)

    def test_homomorphism_and_orthogonality(self):
        from linkarea.links import random_mobius
        for k in range(10):
            A = random_mobius(20 + 2 * k, 1.5).matrix
            B = random_mobius(21 + 2 * k, 1.5).matrix
            assert mk.orthogonality_residual(mk.minor_lift(A), mk.EPS10) <= 1e-10
            diff = np.abs(mk.minor_lift(A @ B) - mk.minor_lift(A) @ mk.minor_lift(B))
            assert np.max(diff) <= 1e-10

    def test_stack_matches_single_lifts(self):
        from linkarea.links import random_mobius
        A = np.array([random_mobius(30 + k, 1.5).matrix for k in range(6)]).reshape(2, 3, 5, 5)
        lifted = mk.minor_lift(A)
        assert lifted.shape == (2, 3, 10, 10) and lifted.flags.c_contiguous
        assert np.array_equal(lifted, [[mk.minor_lift(a) for a in row] for row in A])
        assert mk.orthogonality_residual(lifted, mk.EPS10) == max(
            mk.orthogonality_residual(m, mk.EPS10) for m in lifted.reshape(6, 10, 10))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            mk.minor_lift(np.eye(4))
        with pytest.raises(ValueError):
            mk.minor_lift(np.ones((3, 5, 4)))


class TestOrthogonalityResidual:
    def test_non_finite_entry_is_nan(self):
        A = np.eye(5)
        A[1, 4] = np.nan
        assert np.isnan(mk.orthogonality_residual(A, mk.ETA5))
