import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linkarea as la
from linkarea import links as lk
from linkarea import minkowski as mk
from linkarea.errors import (BadLinkFile, BadParameter, BadPolygon,
                             DisjointnessViolation, ImmersionFailure)
from linkarea.rng import Lcg64

TWO_PI = 2 * np.pi


class TestCurveEvaluation:
    def test_hopf_component_analytic(self, hopf):
        for s in (0.0, 0.3, 2.0, 5.5):
            p, v = hopf.c1.evaluate(s)
            assert np.allclose(p, [np.cos(s), np.sin(s), 0, 0], atol=1e-15)
            assert np.allclose(v, [-np.sin(s), np.cos(s), 0, 0], atol=1e-15)

    @pytest.mark.parametrize("make", [
        lambda: la.hopf_link().c1,
        lambda: la.perturbed_hopf_link(0.2, 3).c1,
        lambda: lk.SampledCurve(la.perturbed_hopf_link(0.15, 1).c2.point(
            np.linspace(0, TWO_PI, 64, endpoint=False))),
        lambda: la.random_mobius(9, 1.0).transform_curve(la.hopf_link().c2),
    ])
    def test_tangency_and_sphere(self, make):
        c = make()
        s = np.linspace(0, TWO_PI, 97)
        p, v = c.evaluate(s)
        assert np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.sum(p * v, axis=1))) <= 1e-10

    def test_periodicity(self):
        c = la.perturbed_hopf_link(0.2, 5).c1
        p0, v0 = c.evaluate(0.0)
        p1, v1 = c.evaluate(TWO_PI)
        assert np.allclose(p0, p1, atol=1e-12)
        assert np.allclose(v0, v1, atol=1e-12)

    def test_sampled_curve_accuracy(self):
        s_nodes = np.linspace(0, TWO_PI, 256, endpoint=False)
        nodes = np.stack([np.cos(s_nodes), np.sin(s_nodes),
                          np.zeros(256), np.zeros(256)], axis=1)
        c = lk.SampledCurve(nodes)
        off = np.linspace(0, TWO_PI, 777)
        p = c.point(off)
        want = np.stack([np.cos(off), np.sin(off), np.zeros(777), np.zeros(777)], axis=1)
        assert np.max(np.abs(p - want)) <= 1e-8

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_sampled_curve_matches_scipy_spline(self, n):
        """The numpy spline against scipy's periodic quintic, an independent build."""
        interp = pytest.importorskip("scipy.interpolate")
        link = la.perturbed_hopf_link(0.2, 1)
        s_nodes = TWO_PI * np.arange(n) / n
        s = np.linspace(-1.0, 7.0, 1001)
        for comp in (link.c1, link.c2):
            c = lk.SampledCurve(comp.point(s_nodes))
            ref = interp.make_interp_spline(np.linspace(0, TWO_PI, n + 1),
                                            np.vstack([c.nodes, c.nodes[:1]]),
                                            k=5, bc_type="periodic")
            sm = np.mod(s, TWO_PI)
            f, fp = ref(sm), ref.derivative()(sm)
            p, v = c.evaluate(s)
            assert np.max(np.abs(p - f / np.linalg.norm(f, axis=-1, keepdims=True))) <= 1e-13
            assert np.max(np.abs(v - lk.radial_velocity(f, fp))) <= 1e-12
            assert np.max(np.abs(c.point(s_nodes) - c.nodes)) <= 1e-14

    def test_reversed(self):
        sampled = lk.SampledCurve(la.perturbed_hopf_link(0.15, 1).c2.point(
            np.linspace(0, TWO_PI, 64, endpoint=False)))
        for c in (la.hopf_link().c1, la.perturbed_hopf_link(0.1, 2).c1, sampled,
                  la.random_mobius(9, 1.0).transform_curve(sampled)):
            r = c.reversed()
            for s in (0.0, 0.7, 3.1):
                assert np.allclose(r.point(s), c.point(-s), atol=1e-12)
                assert np.allclose(r.evaluate(s)[1], -c.evaluate(-s)[1], atol=1e-12)

    def test_immersion_floor(self):
        coeffs = np.zeros((4, 3))
        coeffs[0, 0] = 1.0
        coeffs[1, 1] = 1e-6  # nearly stationary loop
        with pytest.raises(ImmersionFailure):
            lk.FourierCurve(coeffs)
        radius = 0.5 * lk.V_MIN  # a circle on the sphere, below the floor
        with pytest.raises(ImmersionFailure):
            lk.CircleCurve(np.sqrt(1.0 - radius * radius) * lk._E[0], lk._E[1], lk._E[2], radius)


class TestCatalogue:
    def test_hopf_orthogonal_planes(self, hopf):
        s = np.linspace(0, TWO_PI, 40, endpoint=False)
        x = hopf.c1.point(s)
        y = hopf.c2.point(s)
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1)) <= 1e-15
        assert np.max(np.abs(x @ y.T)) <= 1e-15

    def test_perturbed_zero_is_hopf(self, hopf):
        link = la.perturbed_hopf_link(0.0, 123)
        s = np.linspace(0, TWO_PI, 64)
        assert np.allclose(link.c1.point(s), hopf.c1.point(s), atol=1e-14)
        assert np.allclose(link.c2.point(s), hopf.c2.point(s), atol=1e-14)

    def test_separated_distance(self):
        # down to the floor: the chord is read from x - y, as 2 - 2 x.y cancels
        for d in (0.5, 1.0, 1.9, 1e-5, 1.2e-6):
            link = la.separated_link(d)  # at d (1 + 1e-9)
            assert link.min_separation() == pytest.approx(d * (1 + 1e-9), rel=1e-12)

    def test_perturbed_amplitude_seeded(self):
        a = la.perturbed_hopf_link(0.2, 7)
        b = la.perturbed_hopf_link(0.2, 7)
        s = np.linspace(0, TWO_PI, 32)
        assert np.array_equal(a.c1.point(s), b.c1.point(s))
        c = la.perturbed_hopf_link(0.2, 8)
        assert not np.allclose(a.c1.point(s), c.c1.point(s))

    @pytest.mark.parametrize("bad", [
        lambda: la.separated_link(0.0),
        lambda: la.separated_link(2.0),
        lambda: la.perturbed_hopf_link(0.3, 0),
        lambda: la.perturbed_hopf_link(-0.1, 0),
        lambda: la.parallel_circles_link(0.0, 1.0),
        lambda: la.parallel_circles_link(1.0, -1.0),
        lambda: la.separated_link(1.9999999999),  # too close to the diameter
        lambda: lk.CircleCurve(np.zeros(4), lk._E[0], lk._E[0], 1.0),  # not orthonormal
        lambda: lk.CircleCurve(np.zeros(4), lk._E[0], lk._E[1], 0.5),  # off the sphere
        lambda: lk.MobiusMap(np.eye(4)),
        lambda: lk.MobiusMap(-np.eye(5)),  # reverses time orientation
    ])
    def test_bad_parameters(self, bad):
        with pytest.raises(BadParameter):
            bad()

    def test_catalogue_links_disjoint(self):
        for name, link in la.catalogue().items():
            assert link.min_separation() > lk.DELTA_SEP, name

    def test_link2_rejects_crossing(self, hopf):
        with pytest.raises(DisjointnessViolation):
            lk.Link2(hopf.c1, hopf.c1)

    def test_link2_rejects_crossing_between_samples(self):
        # great circles that meet at s = t = a, midway between two sample pairs
        a = np.pi / lk.N_SAMPLES
        e = np.eye(4)
        p = np.cos(a) * e[0] + np.sin(a) * e[1]
        c1 = lk.CircleCurve(np.zeros(4), e[0], e[1], 1.0)
        c2 = lk.CircleCurve(np.zeros(4), np.cos(a) * p - np.sin(a) * e[2],
                            np.sin(a) * p + np.cos(a) * e[2], 1.0)
        assert np.linalg.norm(c1.point(a) - c2.point(a)) <= 1e-15
        s = np.linspace(0.0, TWO_PI, lk.N_SAMPLES, endpoint=False)
        assert np.min(np.linalg.norm(c1.point(s)[:, None] - c2.point(s), axis=-1)) > 0.017
        with pytest.raises(DisjointnessViolation, match="approach to"):
            lk.Link2(c1, c2)


class TestMobius:
    def test_identity(self):
        m = lk.MobiusMap(np.eye(5))
        x = np.array([0.5, 0.5, 0.5, 0.5])
        assert np.allclose(m.act_point(x), x)

    def test_rotation_block(self):
        alpha = 0.77
        R = np.eye(4)
        R[0, 0] = R[1, 1] = np.cos(alpha)
        R[0, 1] = -np.sin(alpha)
        R[1, 0] = np.sin(alpha)
        m = lk.MobiusMap(lk.rotation_embed(R))
        x = np.array([1.0, 0, 0, 0])
        assert np.allclose(m.act_point(x), [np.cos(alpha), np.sin(alpha), 0, 0], atol=1e-15)

    def test_boost_fixed_point(self):
        # the boost axis direction lifts to an eigenvector of the matrix
        m = lk.MobiusMap(lk.boost_matrix(0.8))
        x = np.array([1.0, 0, 0, 0])
        assert np.allclose(m.act_point(x), x, atol=1e-15)

    def test_random_mobius_residual_and_determinism(self):
        for seed in range(5):
            m1 = la.random_mobius(seed, 1.7)
            m2 = la.random_mobius(seed, 1.7)
            assert np.array_equal(m1.matrix, m2.matrix)
            assert mk.orthogonality_residual(m1.matrix, mk.ETA5) <= 1e-12
            assert m1.matrix[0, 0] > 0

    def test_zero_rapidity_is_rotation(self):
        m = la.random_mobius(3, 0.0)
        assert m.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(m.matrix[0, 1:], 0, atol=1e-12)
        assert np.allclose(m.matrix[1:, 0], 0, atol=1e-12)

    def test_rejects_rapidity_beyond_cap(self):
        with pytest.raises(BadParameter):
            la.random_mobius(0, 2.5)

    def test_rejects_non_finite_matrix(self):
        A = np.eye(5)
        A[2, 3] = np.nan
        with pytest.raises(BadParameter, match="pseudo-orthogonal"):
            lk.MobiusMap(A)

    def test_action_preserves_metric_coefficient(self, perturbed02):
        from linkarea.conformal import density_pairs
        base = float(density_pairs(perturbed02.c1, perturbed02.c2, 0.9, 2.3)[0])
        for seed in range(5):
            m = la.random_mobius(seed + 40, 1.0)
            moved = m.transform_link(perturbed02)
            got = float(density_pairs(moved.c1, moved.c2, 0.9, 2.3)[0])
            assert got == pytest.approx(base, rel=1e-8, abs=1e-10)


class TestCharts:
    def test_unit_circle_lifts_to_great_circle(self):
        s = np.linspace(0, TWO_PI, 64, endpoint=False)
        nodes3 = np.stack([np.cos(s), np.sin(s), np.zeros(64)], axis=1)
        c = la.chart_lift(nodes3)
        p = c.point(s)
        want = np.stack([np.cos(s), np.sin(s), np.zeros(64), np.zeros(64)], axis=1)
        assert np.max(np.abs(p - want)) <= 1e-9

    def test_circle_height(self):
        for r in (0.5, 2.0):
            s = np.linspace(0, TWO_PI, 32, endpoint=False)
            nodes3 = r * np.stack([np.cos(s), np.sin(s), np.zeros(32)], axis=1)
            lifted = la.inverse_stereographic(nodes3)
            assert np.allclose(lifted[:, 3], (r * r - 1) / (r * r + 1), atol=1e-14)

    def test_origin_maps_to_south_pole(self):
        assert np.allclose(la.inverse_stereographic(np.zeros(3)), [0, 0, 0, -1])

    def test_chart_round_trip(self):
        rng = Lcg64(77)
        pts = np.array([[rng.uniform_in(-2, 2) for _ in range(3)] for _ in range(40)])
        x = la.inverse_stereographic(pts)
        back = x[:, :3] / (1.0 - x[:, 3:])  # the chart from the north pole
        assert np.max(np.abs(back - pts)) <= 1e-10

    @pytest.mark.parametrize("nodes", [
        np.zeros((4, 3)),
        np.ones((10, 2)),
    ])
    def test_bad_polygon_shape(self, nodes):
        with pytest.raises(BadPolygon):
            la.chart_lift(nodes)

    def test_bad_polygon_repeated_nodes(self):
        s = np.linspace(0, TWO_PI, 16, endpoint=False)
        nodes = np.stack([np.cos(s), np.sin(s), np.zeros(16)], axis=1)
        nodes[7] = nodes[2]
        with pytest.raises(BadPolygon):
            la.chart_lift(nodes)

    @pytest.mark.parametrize("i,j", [(2, 7), (3 * lk.PAIR_BLOCK + 5, 3 * lk.PAIR_BLOCK + 9),
                                     (0, 3 * lk.PAIR_BLOCK + 9), (1, lk.PAIR_BLOCK)])
    def test_repeated_nodes_across_blocks(self, i, j):
        n = 3 * lk.PAIR_BLOCK + 10
        s = np.linspace(0, TWO_PI, n, endpoint=False)
        nodes = np.stack([3 + np.cos(s), np.sin(s), 0.1 * np.sin(3 * s)], axis=1)
        la.chart_lift(nodes)
        nodes[j] = nodes[i]
        with pytest.raises(BadPolygon, match="repeated"):
            la.chart_lift(nodes)


class TestLinkFiles:
    def test_round_trip_fourier(self, tmp_path, perturbed02):
        path = tmp_path / "link.lk1"
        la.write_link(perturbed02, path)
        back = la.read_link(path)
        s = np.linspace(0, TWO_PI, 50)
        assert np.allclose(back.c1.point(s), perturbed02.c1.point(s), atol=1e-15)
        assert np.allclose(back.c2.point(s), perturbed02.c2.point(s), atol=1e-15)

    def test_round_trip_circle_exact(self, tmp_path, hopf):
        path = tmp_path / "hopf.lk1"
        la.write_link(hopf, path)
        back = la.read_link(path)
        s = np.linspace(0, TWO_PI, 50)
        assert np.allclose(back.c1.point(s), hopf.c1.point(s), atol=1e-15)

    def test_round_trip_bit_exact_catalogue(self, tmp_path):
        s = np.linspace(0, TWO_PI, 50)
        for name, link in la.catalogue().items():
            path = tmp_path / f"{name}.lk1"
            la.write_link(link, path)
            back = la.read_link(path)
            for a, b in ((link.c1, back.c1), (link.c2, back.c2)):
                (p, v), (q, w) = a.evaluate(s), b.evaluate(s)
                assert np.array_equal(p, q), name
                assert np.array_equal(v, w), name

    def test_mobius_image_written_as_samples(self, tmp_path, hopf):
        """A Moebius image is written as the samples4 nodes of its points, and
        the Hopf image reads back at area 2.2e-13, not 0 (ROADMAP item 19)."""
        moved = la.random_mobius(3, 1.0).transform_link(hopf)
        path = tmp_path / "moved.lk1"
        la.write_link(moved, path)
        comps = json.loads(path.read_text())["components"]
        back = la.read_link(path)
        s = np.linspace(0, TWO_PI, lk.N_SAMPLES, endpoint=False)
        for comp, curve, read in zip(comps, (moved.c1, moved.c2), (back.c1, back.c2)):
            assert comp["kind"] == "samples4"
            assert np.array_equal(comp["nodes"], curve.point(s))
            assert np.max(np.abs(read.point(s) - curve.point(s))) <= 1e-14
        assert la.compute_functionals(back).area <= 1e-12

    def test_samples3_component(self, tmp_path):
        s = np.linspace(0, TWO_PI, 32, endpoint=False)
        circle3 = np.stack([3 + np.cos(s), np.sin(s), np.zeros(32)], axis=1)
        doc = {
            "version": "lk-1",
            "components": [
                {"kind": "samples3", "nodes": circle3.tolist()},
                {"kind": "samples3", "nodes": (-circle3).tolist()},
            ],
        }
        path = tmp_path / "three.lk1"
        path.write_text(json.dumps(doc))
        link = la.read_link(path)
        assert link.min_separation() > 0.1

    def test_spline_read_needs_no_scipy(self, tmp_path, perturbed02):
        s = np.linspace(0, TWO_PI, 64, endpoint=False)
        path4 = tmp_path / "spline.lk1"
        la.write_link(la.Link2(la.SampledCurve(perturbed02.c1.point(s)),
                               la.SampledCurve(perturbed02.c2.point(s))), path4)
        circle3 = np.stack([3 + np.cos(s), np.sin(s), np.zeros(64)], axis=1)
        path3 = tmp_path / "polygon.lk1"
        path3.write_text(json.dumps({"version": "lk-1", "components": [
            {"kind": "samples3", "nodes": circle3.tolist()},
            {"kind": "samples3", "nodes": (-circle3).tolist()}]}))
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import linkarea as la\n"
            "assert 'scipy' not in sys.modules, 'import linkarea loaded scipy'\n"
            f"link = la.read_link({str(path4)!r})\n"
            f"link3 = la.read_link({str(path3)!r})\n"
            "s = np.linspace(0.0, 7.0, 300)\n"
            "for c in (link.c1, link.c2, link3.c1, link3.c2):\n"
            "    assert isinstance(c, la.SampledCurve)\n"
            "    c.evaluate(s)\n"
            "assert 'scipy' not in sys.modules, 'reading a spline link loaded scipy'\n"
            "print(link.min_separation())\n")
        src = str(Path(la.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) == pytest.approx(perturbed02.min_separation(), rel=1e-3)

    @pytest.mark.parametrize("mangle,field", [
        (lambda d: d.update(version="lk-2"), "version"),
        (lambda d: d.update(components=d["components"][:1]), "components"),
        (lambda d: d["components"][0].pop("coefficients"), "components[0]"),
        (lambda d: d["components"][1].update(kind="spline"), "components[1]"),
    ])
    def test_malformed_files(self, tmp_path, perturbed02, mangle, field):
        path = tmp_path / "bad.lk1"
        la.write_link(perturbed02, path)
        doc = json.loads(path.read_text())
        mangle(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(BadLinkFile, match=field.replace("[", "\\[")):
            la.read_link(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.lk1"
        path.write_text("not json")
        with pytest.raises(BadLinkFile):
            la.read_link(path)
