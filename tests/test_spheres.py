import numpy as np
import pytest

import linkarea as la
from linkarea import conformal as cf
from linkarea import links as lk
from linkarea import minkowski as mk
from linkarea import spheres as sp
from linkarea import symplectic as sy
from linkarea.errors import BadParameter, CoincidentPoints
from linkarea.rng import Lcg64
from conftest import PAIR_INDEX, inner5, plucker_residuals, random_unit4

TWO_PI = 2 * np.pi
E4 = np.eye(4)


def antipodal_test_curves():
    """Curves meeting antipodally at s = t = 0 with non-orthogonal velocities."""
    c1 = lk.CircleCurve(np.zeros(4), E4[2], E4[0], 1.0)     # x(0) = (0,0,1,0), x'(0) = e1
    v = (E4[0] + E4[1]) / np.sqrt(2)
    c2 = lk.CircleCurve(np.zeros(4), -E4[2], v, 1.0)        # y(0) = (0,0,-1,0), y'(0) = v
    return c1, c2


class TestLift:
    def test_lightlike(self):
        x = np.array([0.0, 0, 1, 0])
        bar = sp.lift(x)
        assert np.array_equal(bar, [1, 0, 0, 1, 0])
        assert inner5(bar, bar) == 0.0
        assert np.array_equal(sp.lift(np.array([1.0, 0, 0, 0])), [1, 1, 0, 0, 0])

    def test_pair_inner_product(self):
        rng = Lcg64(21)
        for _ in range(50):
            x, y = random_unit4(rng), random_unit4(rng)
            want = -np.sum((x - y) ** 2) / 2
            assert inner5(sp.lift(x), sp.lift(y)) == pytest.approx(want, abs=1e-14)
            assert inner5(sp.lift(x), sp.lift(y)) == pytest.approx(-1 + x @ y, abs=1e-14)

    def test_rejects_off_sphere(self):
        with pytest.raises(BadParameter):
            sp.lift(np.array([1.0, 0, 0, 1e-4]))


class TestPsiEmbed:
    def test_antipodal_pair(self):
        p = sp.psi_embed(np.array([0.0, 0, 1, 0]), np.array([0.0, 0, -1, 0]))
        want = np.zeros(10)
        want[PAIR_INDEX[(0, 3)]] = -1.0
        assert np.allclose(p, want, atol=1e-15)

    def test_unit_norm_and_decomposable(self):
        rng = Lcg64(22)
        for _ in range(50):
            x, y = random_unit4(rng), random_unit4(rng)
            if np.linalg.norm(x - y) < 0.05:
                continue
            p = sp.psi_embed(x, y)
            assert mk.inner10(p, p) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(plucker_residuals(p))) <= 1e-12

    def test_coincident_rejected(self):
        x = np.array([1.0, 0, 0, 0])
        with pytest.raises(CoincidentPoints):
            sp.psi_embed(x, x)


class TestSeparationFloor:
    """The four tests of coincident points apply Link2's floor, a chord of DELTA_SEP."""

    CALLS = {
        "check_separated": sp._check_separated,
        "metric_kernel": lambda x, y: sp.metric_kernel(x, E4[2:3], y, E4[2:3]),
        "tautological_pullback": lambda x, y: sy.tautological_pullback(x, E4[2:3], y),
        "stereo_project": sy.stereo_project,
    }

    @staticmethod
    def pair(chord):
        theta = 2.0 * np.arcsin(0.5 * chord)
        return E4[:1], np.array([[np.cos(theta), np.sin(theta), 0.0, 0.0]])

    @pytest.mark.parametrize("name", list(CALLS))
    def test_floor_is_delta_sep(self, name):
        self.CALLS[name](*self.pair(1.2 * lk.DELTA_SEP))
        with pytest.raises(CoincidentPoints):
            self.CALLS[name](*self.pair(0.9 * lk.DELTA_SEP))

    def test_meeting_pair_reads_zero(self):
        # metric_kernel's squared chord 2 - 2 x.y is -0.0 here
        with pytest.raises(CoincidentPoints, match=r"distance 0\.000e\+00$") as err:
            sp.metric_kernel(E4[:1], E4[1:2], E4[:1], E4[1:2])
        assert "-" not in str(err.value)


class TestSigmaDerivatives:
    def test_grid_broadcast_matches_pairs(self, perturbed02):
        s, t = np.linspace(0.0, 6.0, 5), np.linspace(0.5, 6.5, 7)
        grid = sp.sigma_derivatives(perturbed02.c1, perturbed02.c2, s[:, None], t)
        S, T = np.meshgrid(s, t, indexing="ij")
        pairs = sp.sigma_derivatives(perturbed02.c1, perturbed02.c2, S.ravel(), T.ravel())
        for a, b in zip(grid, pairs):
            assert a.shape == (5, 7, 10)
            np.testing.assert_allclose(a.reshape(-1, 10), b, rtol=0, atol=1e-14)

    def test_nullity_random_links(self, small_catalogue):
        rng = Lcg64(23)
        for link in small_catalogue.values():
            s = rng.uniform_array(1000, 0, TWO_PI)
            t = rng.uniform_array(1000, 0, TWO_PI)
            _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
            assert np.max(np.abs(mk.inner10(ss, ss))) <= 1e-10
            assert np.max(np.abs(mk.inner10(st, st))) <= 1e-10

    def test_hopf_cross_term_vanishes(self, hopf):
        rng = Lcg64(24)
        for _ in range(100):
            s0, t0 = rng.uniform_array(2, 0, TWO_PI)
            _, ss, st = sp.sigma_derivatives(hopf.c1, hopf.c2, s0, t0)
            assert abs(mk.inner10(ss, st)) <= 1e-10

    def test_antipodal_cross_term(self):
        c1, c2 = antipodal_test_curves()
        _, ss, st = sp.sigma_derivatives(c1, c2, 0.0, 0.0)
        want = -0.5 * (c1.evaluate(0.0)[1] @ c2.evaluate(0.0)[1])
        assert want != 0.0
        assert mk.inner10(ss, st) == pytest.approx(want, abs=1e-12)


class TestMetricCoefficient:
    def test_hopf_everywhere_zero(self, hopf):
        s = np.linspace(0, TWO_PI, 64, endpoint=False)
        assert np.max(np.abs(cf.density_pairs(hopf.c1, hopf.c2, s[:, None], s)[0])) <= 1e-14

    def test_antipodal_value(self):
        c1, c2 = antipodal_test_curves()
        want = -0.5 * (c1.evaluate(0.0)[1] @ c2.evaluate(0.0)[1])
        assert cf.density_pairs(c1, c2, 0.0, 0.0)[0] == pytest.approx(want, abs=1e-12)

    def test_matches_explicit_route(self, small_catalogue):
        rng = Lcg64(25)
        for link in small_catalogue.values():
            s = rng.uniform_array(1000, 0, TWO_PI)
            t = rng.uniform_array(1000, 0, TWO_PI)
            closed = cf.density_pairs(link.c1, link.c2, s, t)[0]
            _, ss, st = sp.sigma_derivatives(link.c1, link.c2, s, t)
            explicit = mk.inner10(ss, st)
            scale = np.maximum(np.abs(explicit), 1.0)
            assert np.max(np.abs(closed - explicit) / scale) <= 1e-10

    def test_grid_matches_scalar(self, perturbed02):
        s = np.linspace(0, TWO_PI, 8, endpoint=False)
        grid = cf.density_pairs(perturbed02.c1, perturbed02.c2, s[:, None], s)[0]
        for i in (0, 3, 7):
            for j in (1, 4, 6):
                # the explicit route <sigma_s, sigma_t> at one scalar (s, t)
                _, ss, st = sp.sigma_derivatives(perturbed02.c1, perturbed02.c2, s[i], s[j])
                want = mk.inner10(ss, st)
                assert grid[i, j] == pytest.approx(want, rel=1e-13, abs=1e-15)


class TestSignature:
    def test_antipodal_pair(self):
        sig = sp.theta_tangent_signature(np.array([0.0, 0, 1, 0]), np.array([0.0, 0, -1, 0]))
        assert sig.tolist() == [3, 3, 0]

    def test_random_pairs(self):
        rng = Lcg64(26)
        for _ in range(100):
            x, y = random_unit4(rng), random_unit4(rng)
            if np.linalg.norm(x - y) < 0.1:
                continue
            assert sp.theta_tangent_signature(x, y).tolist() == [3, 3, 0]

    def test_batched_counts_match_per_pair(self):
        rng = Lcg64(29)
        pairs = [(np.array([0.0, 0, 1, 0]), np.array([0.0, 0, -1, 0]))]  # antipodal
        while len(pairs) < 101:
            x, y = random_unit4(rng), random_unit4(rng)
            if np.linalg.norm(x - y) >= 0.1:
                pairs.append((x, y))
        x, y = np.array(pairs).transpose(1, 0, 2)
        batched = sp.theta_tangent_signature(x, y)
        assert batched.shape == (101, 3)
        assert batched.tolist() == [sp.theta_tangent_signature(a, b).tolist() for a, b in pairs]
        assert np.all(batched == (3, 3, 0))
        assert sp.theta_tangent_signature(x[None], y[None]).shape == (1, 101, 3)
        # one point against three others: as many pairs as tangents at a point
        assert sp.theta_tangent_signature(E4[0], E4[1:]).tolist() == [[3, 3, 0]] * 3

    @staticmethod
    def pairs_at_chord(rng, chord, n):
        """n pairs (x, y) at the given chordal distance, in random directions."""
        x = np.array([random_unit4(rng) for _ in range(n)])
        d = np.array([random_unit4(rng) for _ in range(n)])
        d -= np.sum(d * x, axis=1, keepdims=True) * x
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        angle = 2.0 * np.arcsin(0.5 * chord)
        return x, np.cos(angle) * x + np.sin(angle) * d

    @pytest.mark.parametrize("chord", [1e-4, 3e-5, 1e-5])
    def test_close_pairs(self, chord):
        x, y = self.pairs_at_chord(Lcg64(34), chord, 50)
        assert np.linalg.norm(x - y, axis=1) == pytest.approx(chord, rel=1e-9)
        assert np.all(sp.theta_tangent_signature(x, y) == (3, 3, 0))

    def test_close_pair_on_great_circle(self):
        angle = 2.0 * np.arcsin(0.5e-5)  # chord 1e-5
        y = np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])
        assert sp.theta_tangent_signature(E4[0], y).tolist() == [3, 3, 0]

    @pytest.mark.parametrize("chord", [5e-6, 3e-6, 2e-6, 1.2e-6])
    def test_pairs_near_floor_never_miscount(self, chord):
        """Down to DELTA_SEP, <p, p> = chord^4/4 keeps its accuracy: the wedge
        is formed from the exact difference y - x, so every pair counts (3, 3, 0)."""
        x, y = self.pairs_at_chord(Lcg64(35), chord, 50)
        assert np.all(sp.theta_tangent_signature(x, y) == (3, 3, 0))

    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["rank_deficient", "non_finite"])
    def test_batched_degenerate_pair_counts_zero(self, monkeypatch, fill):
        original = sp._psi_jet

        def broken(x, y, dx, dy):  # breaks the tangents where y_0 - x_0 is large: the first pair
            psi, dpsi = original(x, y, dx, dy)
            return psi, np.where(np.abs(y[..., :1] - x[..., :1]) > 0.5, fill, dpsi)
        monkeypatch.setattr(sp, "_psi_jet", broken)
        x = np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]])
        y = np.array([[0.0, 1, 0, 0], [0.0, 0, -1, 0]])
        assert sp.theta_tangent_signature(x, y).tolist() == [[0, 0, 0], [3, 3, 0]]
        assert sp.theta_tangent_signature(x[0], y[0]).tolist() == [0, 0, 0]

    def test_torus_gram_eigenvalues(self, separated10):
        g = float(cf.density_pairs(separated10.c1, separated10.c2, 0.3, 1.1)[0])
        assert abs(g) > 1e-5
        _, ss, st = sp.sigma_derivatives(separated10.c1, separated10.c2, 0.3, 1.1)
        gram = np.array([[mk.inner10(ss, ss), mk.inner10(ss, st)],
                         [mk.inner10(st, ss), mk.inner10(st, st)]])
        ev = np.linalg.eigvalsh(gram)
        assert np.allclose(ev, [-abs(g), abs(g)], atol=1e-10)


def test_signature_counts():
    assert sp.signature_counts(np.array([1.0, -2.0, 1e-9])).tolist() == [1, 1, 1]
    assert sp.signature_counts(np.array([0.3, 0.4, -0.5, -0.1, 2.0, -9.0])).tolist() == [3, 3, 0]
    stacked = sp.signature_counts(np.array([[1.0, -2.0, 1e-9], [1.0, 2.0, 3.0]]))
    assert stacked.tolist() == [[1, 1, 1], [3, 0, 0]]


def test_degenerate_basis_detected(monkeypatch):
    # a pair without a tangent basis has no signature: it counts (0, 0, 0)
    original = sp._psi_jet

    def flat(*args):
        psi, dpsi = original(*args)
        return psi, np.zeros_like(dpsi)
    monkeypatch.setattr(sp, "_psi_jet", flat)
    counts = sp.theta_tangent_signature(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    assert counts.tolist() == [0, 0, 0]


class TestEquivariance:
    def test_minor_lift_commutes_with_embedding(self):
        rng = Lcg64(28)
        for k in range(20):
            mob = la.random_mobius(300 + k, 1.0)
            x, y = random_unit4(rng), random_unit4(rng)
            if np.linalg.norm(x - y) < 0.1:
                continue
            lhs = mk.minor_lift(mob.matrix) @ sp.psi_embed(x, y)
            rhs = sp.psi_embed(mob.act_point(x), mob.act_point(y))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9
