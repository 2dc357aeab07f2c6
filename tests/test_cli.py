import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linkarea as la
from linkarea import cli
from linkarea import errors
from linkarea.errors import CoincidentPoints
from conftest import lk1_component, torus_curve_link


@pytest.fixture(scope="module")
def link_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("links")
    paths = {}
    for name, link in (("hopf", la.hopf_link()),
                       ("sep15", la.separated_link(1.5)),
                       ("gcp12", la.great_circle_pair(np.pi / 2, 1.2)),
                       ("perturbed", la.perturbed_hopf_link(0.1, 0)),
                       ("p02", la.perturbed_hopf_link(0.2, 0))):
        path = d / f"{name}.lk1"
        la.write_link(link, path)
        paths[name] = str(path)
    return paths


def _scaled_p02(factor):
    """lk-1 text of perturbed_hopf_link(0.2, 0) with component 0's coefficients times factor."""
    link = la.perturbed_hopf_link(0.2, 0)
    comps = [{"kind": "fourier4", "coefficients": (f * c.coeffs).tolist()}
             for f, c in ((factor, link.c1), (1.0, link.c2))]
    return json.dumps({"version": "lk-1", "components": comps})


def _lk1(*components):
    """lk-1 text of the given component entries."""
    return json.dumps({"version": "lk-1", "components": list(components)})


def _great_circles_meeting_between_samples():
    """lk-1 text of the great circle in the e1e2-plane and one that meets it at
    s = t = pi/256, midway between samples, where the samples stay 0.017 apart."""
    a = np.pi / 256
    p = np.array([np.cos(a), np.sin(a), 0.0, 0.0])
    e3 = np.eye(4)[2]
    u, v = np.cos(a) * p - np.sin(a) * e3, np.sin(a) * p + np.cos(a) * e3
    return _lk1({"kind": "fourier4", "coefficients": np.eye(4, 3, 1).tolist()},
                {"kind": "fourier4", "coefficients": np.stack([0 * u, u, v], 1).tolist()})


def _hopf_nodes(n, scale_first=1.0):
    """n nodes of the Hopf link's first component, the first node scaled."""
    nodes = la.hopf_link().c1.point(np.linspace(0.0, 2 * np.pi, n, endpoint=False))
    nodes[0] *= scale_first
    return {"kind": "samples4", "nodes": nodes.tolist()}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(line):
    return {k: v for k, v in (tok.split("=", 1) for tok in line.split())}


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "verify: passed=7 failed=0" in out
        assert "index(3,3)" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", ["994922", "3", "25", "115"])
    def test_fd_order_at_former_failures(self, capsys, seed):
        # seeds at which the sphere-fit stencil lost its order or was concircular
        code, out, _ = run_cli(capsys, "--seed", seed, "verify")
        assert code == 0
        assert "verify: passed=7 failed=0" in out

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_sign_flip_detected(self, capsys, monkeypatch):
        from linkarea import minkowski as mk
        original = mk.inner10
        monkeypatch.setattr(mk, "inner10", lambda p, q: -original(p, q))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        # the closed-form metric does not go through inner10; the sigma route does
        assert "FAIL metric_two_routes" in out
        assert "failed=0" not in out

    def test_one_form_sign_flip_detected(self, capsys, monkeypatch, link_files):
        # the sign of g = -da/dt is fixed, so a flipped route fails instead of recalibrating
        from linkarea import symplectic as sy
        original = sy.spectral_t_derivative
        monkeypatch.setattr(sy, "spectral_t_derivative", lambda values: -original(values))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL symplectic_one_form" in out
        code, _, _ = run_cli(capsys, "oracle", link_files["sep15"], "--samples", "20")
        assert code == 3


class TestArea:
    def test_hopf(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "area", link_files["hopf"])
        assert code == 0
        rep = parse_report(out.strip())
        assert abs(float(rep["signed_area"])) <= 1e-12
        assert float(rep["area"]) <= 1e-10

    def test_hopf_prints_exact_zero(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "area", link_files["hopf"])
        assert code == 0
        assert parse_report(out.strip())["area"] == "0"

    @pytest.mark.parametrize("seed", [0, 9])
    def test_mobius_image_of_hopf_prints_exact_zero(self, capsys, tmp_path, seed):
        # a Moebius map sends each circle of the Hopf link to a round circle,
        # written as the one-mode Fourier curve through three of its points (a
        # transformed curve itself would be written as spline samples)
        def round_circle(curve):
            p = curve.point(np.array([0.0, 2.0, 4.0]))
            plane = np.linalg.qr((p[1:] - p[0]).T)[0]
            center = p[0] - plane @ (plane.T @ p[0])
            return la.CircleCurve(center, plane[:, 0], plane[:, 1], np.sqrt(1.0 - center @ center))
        moved = la.random_mobius(seed, 1.0).transform_link(la.hopf_link())
        path = tmp_path / "moved.lk1"
        la.write_link(la.Link2(round_circle(moved.c1), round_circle(moved.c2)), path)
        code, out, _ = run_cli(capsys, "area", str(path))
        assert code == 0
        assert parse_report(out.strip())["area"] == "0"

    def test_cosine_bound_is_numerical_failure(self, capsys, link_files, monkeypatch):
        from linkarea import conformal as cf
        original = cf.metric_kernel
        monkeypatch.setattr(cf, "metric_kernel", lambda *a: 1e6 * original(*a))
        code, out, err = run_cli(capsys, "area", link_files["sep15"])
        assert code == 3
        assert out == ""
        assert "cosine argument exceeds 1" in err

    @pytest.mark.parametrize("grid", ["1024", "2048"])
    def test_start_without_finer_level_is_input_error(self, capsys, link_files, grid):
        code, out, err = run_cli(capsys, "area", link_files["p02"], "--grid", grid)
        assert code == 2
        assert out == ""
        assert err == "error: grid resolution must be a power of two in [32, 512]\n"

    def test_separated(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "area", link_files["sep15"])
        assert code == 0
        rep = parse_report(out.strip())
        assert float(rep["area"]) > 1.0
        assert abs(float(rep["signed_area"])) <= 1e-8

    @pytest.mark.parametrize("text, message", [
        pytest.param(json.dumps({"version": "lk-1", "components": [{"kind": "fourier4"}]}),
                     "components", id="one-component"),
        pytest.param(json.dumps({"version": "lk-1", "components": [
            {"kind": "fourier4", "coefficients": {"a": 1}}, {"kind": "fourier4"}]}),
                     "components[0].coefficients invalid", id="coefficients-object"),
        pytest.param(json.dumps({"version": "lk-1", "components": [
            {"kind": "samples4", "nodes": {"a": 1}}, {"kind": "samples4"}]}),
                     "components[0].nodes invalid", id="nodes-object"),
        pytest.param("[" * 100_000 + "]" * 100_000, "not valid JSON", id="nested-array"),
        pytest.param(_scaled_p02(1e150), "components[0].coefficients invalid",
                     id="coefficients-overflow"),
        pytest.param(_lk1(1, 2), "components[0] is not an object", id="component-number"),
        pytest.param(_lk1({"kind": "samples4"}, {"kind": "samples4"}),
                     "components[0].nodes missing", id="nodes-missing"),
        pytest.param(_lk1(*2 * [{"kind": "fourier4", "coefficients": np.eye(4, 3).tolist()}]),
                     "components are not disjoint", id="equal-components"),
        pytest.param(_great_circles_meeting_between_samples(), "components are not disjoint",
                     id="components-meeting-between-samples"),
        pytest.param(_lk1({"kind": "fourier4", "coefficients": np.eye(4, 6).tolist()}, {}),
                     "must have shape (4, 2K+1)", id="coefficients-even-width"),
        pytest.param(_lk1({"kind": "fourier4", "coefficients": np.eye(4, 35).tolist()}, {}),
                     "more than 16 fourier modes", id="coefficients-17-modes"),
        pytest.param(_scaled_p02(0.01), "too close to the origin", id="coefficients-near-origin"),
        pytest.param(_lk1(_hopf_nodes(7), {}), "need at least 8 nodes", id="nodes-7"),
        pytest.param(_lk1(_hopf_nodes(16, 3.0), {}), "node norms too far",
                     id="nodes-off-sphere"),
        pytest.param(_lk1(lk1_component("fourier4", huge=True), {}),
                     "components[0].coefficients invalid", id="coefficients-integer-1e400"),
        pytest.param(_lk1(lk1_component("samples4", huge=True), {}), "components[0].nodes invalid",
                     id="samples4-integer-1e400"),
        pytest.param(_lk1(lk1_component("samples3", huge=True), {}), "components[0].nodes invalid",
                     id="samples3-integer-1e400"),
        pytest.param(_lk1(lk1_component("samples4", 1e300), {}), "components[0].nodes invalid",
                     id="samples4-nodes-1e300"),
        pytest.param(_lk1(lk1_component("samples3", 1e200), {}), "components[0].nodes invalid",
                     id="samples3-nodes-1e200"),
        pytest.param(b'{"version": "lk-1\xff"}', "not valid JSON", id="not-utf8"),
        pytest.param(None, "cannot read", id="directory")])
    def test_malformed_file(self, capsys, tmp_path, text, message):
        """text None makes the path a directory.  An input error is one line."""
        path = tmp_path / "bad.lk1"
        if text is None:
            path.mkdir()
        else:
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run_cli(capsys, "area", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_coefficient_rejected(self, capsys, tmp_path, bad):
        path = tmp_path / "nonfinite.lk1"
        la.write_link(la.hopf_link(), path)
        doc = json.loads(path.read_text())
        s = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        circle3 = np.stack([np.cos(s), np.sin(s), np.zeros(16)], axis=1)
        for field, kind, values in (
                ("coefficients", "fourier4", doc["components"][1]["coefficients"]),
                ("nodes", "samples4", la.hopf_link().c2.point(s).tolist()),
                ("nodes", "samples3", (2.0 * circle3).tolist())):
            values[3][2] = bad
            doc["components"][1] = {"kind": kind, field: values}
            path.write_text(json.dumps(doc))  # written as NaN / Infinity, which json reads back
            code, out, err = run_cli(capsys, "area", str(path))
            assert code == 2, kind
            assert out == ""
            assert f"components[1].{field} invalid" in err and "finite" in err, err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "area", str(tmp_path / "nope.lk1"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: no such file") and err.count("\n") == 1, err
        assert "nope.lk1" in err

    def test_unreachable_tolerance(self, capsys, link_files):
        # the round pairs converge to 1e-9; this pair converges at order 2 only
        code, _, err = run_cli(capsys, "area", link_files["gcp12"], "--tol", "1e-09")
        assert code == 3
        assert "convergence" in err

    def test_nan_tolerance_rejected(self, capsys, link_files):
        code, out, err = run_cli(capsys, "area", link_files["sep15"], "--tol", "nan")
        assert code == 2
        assert out == ""
        assert "tolerance" in err


class TestAnglemap:
    def test_row_count_and_consistency(self, capsys, link_files, tmp_path):
        out_path = tmp_path / "map.csv"
        code, _, _ = run_cli(capsys, "anglemap", link_files["sep15"],
                             "--grid", "64", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 64 * 64
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        g, theta, absv, re = data[:, 2], data[:, 3], data[:, 4], data[:, 5]
        assert np.max(np.abs(re - absv * np.cos(theta))) <= 1e-10
        assert np.max(np.abs(re - g / 2)) <= 1e-10

    def test_hopf_theta_constant(self, capsys, link_files, tmp_path):
        out_path = tmp_path / "map.csv"
        run_cli(capsys, "anglemap", link_files["hopf"], "--grid", "32", "--out", str(out_path))
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in out_path.read_text().strip().split("\n")[1:]])
        assert np.max(np.abs(data[:, 3] - np.pi / 2)) <= 1e-10

    def test_memory_does_not_grow_with_grid(self, capsys, link_files, tmp_path):
        # one row block at a time: g, theta, |Omega| and Re Omega of the whole
        # 1024^2 grid would take 32 MB, and their text 100 MB
        import tracemalloc
        out_path = tmp_path / "map.csv"
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "anglemap", link_files["p02"], "--grid", "1024",
                                 "--out", str(out_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out_path.stat().st_size > 1024 * 1024 * 6 * 16
        out_path.unlink()
        assert peak < 8e6

    @pytest.mark.parametrize("grid", ["48", "2048"])
    def test_bad_grid_writes_no_file(self, capsys, link_files, tmp_path, grid):
        out_path = tmp_path / "map.csv"
        code, out, err = run_cli(capsys, "anglemap", link_files["p02"], "--grid", grid,
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert "power of two" in err
        assert not out_path.exists()

    def test_cosine_bound_writes_no_file(self, capsys, link_files, tmp_path, monkeypatch):
        from linkarea import conformal as cf
        original = cf.metric_kernel
        monkeypatch.setattr(cf, "metric_kernel", lambda *a: 1e6 * original(*a))
        out_path = tmp_path / "map.csv"
        code, out, err = run_cli(capsys, "anglemap", link_files["sep15"], "--grid", "64",
                                 "--out", str(out_path))
        assert code == 3
        assert out == ""
        assert "cosine argument exceeds 1" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("error", [CoincidentPoints, KeyboardInterrupt, "cosine"])
    def test_error_mid_stream_removes_file(self, capsys, link_files, tmp_path, monkeypatch,
                                           error):
        # 128^2 is 8 blocks of 16 rows: this process writes blocks 0, 2, 4
        # and 6, and the forked helper 1, 3, 5 and 7.  The kernel fails on
        # block 4, then on block 5, picked by the s-rows it receives, and
        # only in the process that writes that block, so block 5 fails only
        # if the helper ran.  Blocks 0 to block - 2 are in the file by then.
        from linkarea import conformal as cf
        original, test_pid = cf.metric_kernel, os.getpid()
        x = la.read_link(link_files["p02"]).c1.evaluate(
            np.linspace(0.0, 2 * np.pi, 128, endpoint=False))[0]
        out_path = tmp_path / "map.csv"
        argv = ["anglemap", link_files["p02"], "--grid", "128", "--out", str(out_path)]
        for block in (4, 5):
            def failing_at_block(xs, xp, y, yp):
                g = original(xs, xp, y, yp)
                if (np.array_equal(xs, x[16 * block:16 * block + 16])
                        and (os.getpid() == test_pid) == (block % 2 == 0)):
                    assert out_path.stat().st_size > (block - 1) * 16 * 128 * 6 * 16
                    if error == "cosine":
                        return 1e6 * g
                    raise error("coincident component points")
                return g
            monkeypatch.setattr(cf, "metric_kernel", failing_at_block)
            if error is KeyboardInterrupt:
                with pytest.raises(KeyboardInterrupt):
                    cli.main(argv)
            else:
                code, out, err = run_cli(capsys, *argv)
                assert out == ""
                assert code == 3
                assert ("cosine argument exceeds 1" if error == "cosine"
                        else "coincident component points") in err
            assert not out_path.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("spelling", ["dot", "symlink", "hardlink"])
    def test_out_naming_file_rejected(self, capsys, link_files, tmp_path, spelling):
        link_path = tmp_path / "p02.lk1"
        text = Path(link_files["p02"]).read_bytes()
        link_path.write_bytes(text)
        out_path = tmp_path / "." / "p02.lk1"
        if spelling == "symlink":
            out_path = tmp_path / "map.csv"
            out_path.symlink_to(link_path)
        elif spelling == "hardlink":  # another name, one inode
            out_path = tmp_path / "map.csv"
            os.link(link_path, out_path)
        code, out, err = run_cli(capsys, "anglemap", str(link_path), "--grid", "128",
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert "FILE and --out name the same file" in err
        assert link_path.read_bytes() == text

    def test_reader_quitting_early_keeps_fifo(self, capsys, link_files, tmp_path):
        """A FIFO whose reader quits after 1,000 bytes fails the export with a
        broken pipe, in this process and the helper; the FIFO stays, and no
        helper process is left."""
        import stat
        fifo = tmp_path / "map.fifo"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["head", "-c", "1000", str(fifo)], stdout=subprocess.DEVNULL)
        try:
            code, out, err = run_cli(capsys, "anglemap", link_files["hopf"], "--grid", "256",
                                     "--out", str(fifo))
        finally:
            reader.kill()  # a no-op once it has quit, as it must have for the pipe to break
            reader.wait()
        assert code == 2
        assert out == ""
        assert "Broken pipe" in err
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_disk_full_in_helper_block(self, capsys, link_files, tmp_path, monkeypatch):
        # the helper's first write to the file fails; its writes to its pipe
        # to this process do not
        import errno
        import stat
        original, test_pid = os.write, os.getpid()

        def write(fd, data):
            if os.getpid() != test_pid and stat.S_ISREG(os.fstat(fd).st_mode):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return original(fd, data)
        monkeypatch.setattr(os, "write", write)
        out_path = tmp_path / "map.csv"
        code, out, err = run_cli(capsys, "anglemap", link_files["p02"], "--grid", "128",
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert "No space left on device" in err
        assert not out_path.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestInvariance:
    def test_hopf_tiny_deviation(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "invariance", link_files["hopf"], "--transforms", "5")
        assert code == 0
        rep = parse_report(out.strip())
        assert float(rep["max_rel_area"]) <= 1e-8
        assert float(rep["max_rel_energy"]) <= 1e-8
        assert float(rep["max_rel_density"]) <= 1e-8

    def test_perturbed_within_tolerance(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "invariance", link_files["perturbed"],
                               "--transforms", "5")
        assert code == 0

    def test_deterministic_output(self, capsys, link_files):
        _, out1, _ = run_cli(capsys, "--seed", "3", "invariance", link_files["perturbed"],
                             "--transforms", "3")
        _, out2, _ = run_cli(capsys, "--seed", "3", "invariance", link_files["perturbed"],
                             "--transforms", "3")
        assert out1 == out2

    def test_transform_cap(self, capsys, link_files):
        code, _, err = run_cli(capsys, "invariance", link_files["hopf"],
                               "--transforms", "101")
        assert code == 2

    @pytest.mark.parametrize("p, q, r", [(2, 3, 0.5), (2, 3, 0.7), (2, 5, 0.5)])
    def test_knotted_torus_curve_with_core(self, capsys, tmp_path, p, q, r):
        path = tmp_path / "torus.lk1"
        la.write_link(torus_curve_link(p, q, r)[0], path)
        code, out, _ = run_cli(capsys, "invariance", str(path))
        assert code == 0
        assert float(parse_report(out.strip())["max_rel_density"]) <= 1e-13

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_transforms_rejected(self, capsys, link_files, count):
        code, out, err = run_cli(capsys, "invariance", link_files["hopf"], "--transforms", count)
        assert code == 2
        assert out == ""
        assert "at least 1 transform" in err


class TestOracle:
    def test_within_tolerances(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "oracle", link_files["sep15"], "--samples", "30")
        assert code == 0
        rep = parse_report(out.strip())
        assert float(rep["wedge_vs_chart"]) <= 1e-12
        assert float(rep["wedge_vs_fd"]) <= 5e-5
        assert float(rep["symplectic_residual"]) <= 1e-6
        assert rep["global_sign"] in ("+1", "-1")

    def test_hopf_all_zero(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "oracle", link_files["hopf"], "--samples", "20")
        assert code == 0
        rep = parse_report(out.strip())
        assert float(rep["wedge_vs_fd"]) <= 1e-6

    def test_round_pair_stencil(self, capsys, tmp_path):
        # the sphere-fit stencil was concircular at one of these samples
        path = tmp_path / "sep10.lk1"
        la.write_link(la.separated_link(1.0), path)
        code, out, _ = run_cli(capsys, "--seed", "3", "oracle", str(path), "--samples", "2000")
        assert code == 0
        assert float(parse_report(out.strip())["wedge_vs_fd"]) <= 5e-5

    def test_link_at_separation_floor(self, capsys, tmp_path):
        # a link that Link2 accepts, 1.2 DELTA_SEP apart, reaches the report;
        # the one-form's residual there fails its bound
        path = tmp_path / "sep12e-7.lk1"
        la.write_link(la.separated_link(1.2e-6), path)
        code, out, _ = run_cli(capsys, "oracle", str(path), "--samples", "20")
        assert code == 3
        rep = parse_report(out.strip())
        assert float(rep["wedge_vs_chart"]) <= 1e-11
        assert float(rep["symplectic_residual"]) > 1e6

    def test_sample_cap(self, capsys, link_files):
        code, _, _ = run_cli(capsys, "oracle", link_files["hopf"], "--samples", "20000")
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_samples_rejected(self, capsys, link_files, count):
        code, out, err = run_cli(capsys, "oracle", link_files["hopf"], "--samples", count)
        assert code == 2
        assert out == ""
        assert "at least 1 sample" in err

    def test_deterministic_output(self, capsys, link_files):
        argv = ("--seed", "4", "oracle", link_files["perturbed"], "--samples", "50")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestMinimize:
    def test_writes_outputs_and_consistency(self, capsys, link_files, tmp_path):
        trace = tmp_path / "trace.csv"
        final = tmp_path / "final.lk1"
        code, out, _ = run_cli(capsys, "minimize", link_files["perturbed"],
                               "--steps", "60",
                               "--stop-below", "1e-3",
                               "--trace-out", str(trace), "--link-out", str(final))
        assert code == 0
        rep = parse_report(out.strip().split("\n")[0])
        objective = float(rep["objective"])
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "step,objective"
        values = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert values == sorted(values, reverse=True)
        assert values[-1] == objective

        code2, out2, _ = run_cli(capsys, "area", str(final))
        assert code2 == 0
        refined = float(parse_report(out2.strip())["area"])
        assert abs(refined - objective) <= 0.15 * objective + 2e-3

    def test_unlinked_pair_fails_without_outputs(self, capsys, tmp_path):
        start = tmp_path / "sep10.lk1"
        la.write_link(la.separated_link(1.0), start)
        trace, final = tmp_path / "t.csv", tmp_path / "f.lk1"
        code, _, err = run_cli(capsys, "minimize", str(start), "--steps", "20",
                               "--trace-out", str(trace), "--link-out", str(final))
        assert code == 3
        assert err.startswith("error: speed")
        assert not trace.exists()
        assert not final.exists()

    @pytest.mark.parametrize("kind", ["fourier4", "samples4"])
    def test_start_whose_fit_is_no_link_fails_without_outputs(self, capsys, tmp_path, kind):
        """T(5, 6) at r = 0.7 has no mode up to 4: the fit that the descent starts
        from is roundoff, which is no curve, so minimize rejects the input."""
        link = torus_curve_link(5, 6, 0.7)[0]
        start = tmp_path / "t56.lk1"
        if kind == "fourier4":
            la.write_link(link, start)
        else:
            s = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
            start.write_text(_lk1(*({"kind": "samples4", "nodes": c.point(s).tolist()}
                                    for c in (link.c1, link.c2))))
        trace, final = tmp_path / "t.csv", tmp_path / "f.lk1"
        code, out, err = run_cli(capsys, "minimize", str(start), "--steps", "3",
                                 "--trace-out", str(trace), "--link-out", str(final))
        assert code == 2
        assert out == ""
        assert err == ("error: FILE's mode-4 Fourier fit is not a link: "
                       "fourier curve passes too close to the origin\n")
        assert not trace.exists()
        assert not final.exists()

    def test_invalid_endpoint_is_a_numerical_failure(self, capsys, link_files, tmp_path,
                                                     monkeypatch):
        """An endpoint that decode_link rejects as a bad parameter (here a zero
        vector, which passes through the origin) was produced by the descent."""
        from linkarea import optimize as opt

        monkeypatch.setattr(opt, "minimize", lambda v0, **kwargs: opt.MinimizeResult(
            vector=np.zeros_like(v0), trace=[0.0], status="converged", records=[]))
        trace, final = tmp_path / "t.csv", tmp_path / "f.lk1"
        code, out, err = run_cli(capsys, "minimize", link_files["hopf"],
                                 "--trace-out", str(trace), "--link-out", str(final))
        assert code == 3
        assert out == ""
        assert err.startswith("error: the descent's endpoint is not a valid link: "
                              "fourier curve passes too close to the origin")
        assert not trace.exists()
        assert not final.exists()

    def test_unwritable_trace_fails_without_outputs(self, capsys, link_files, tmp_path):
        trace, final = tmp_path / "missing" / "t.csv", tmp_path / "f.lk1"
        code, out, err = run_cli(capsys, "minimize", link_files["hopf"], "--steps", "5",
                                 "--trace-out", str(trace), "--link-out", str(final))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert not final.exists()

    def test_unwritable_link_removes_trace(self, capsys, link_files, tmp_path):
        trace, final = tmp_path / "t.csv", tmp_path / "missing" / "f.lk1"
        code, out, err = run_cli(capsys, "minimize", link_files["hopf"], "--steps", "5",
                                 "--trace-out", str(trace), "--link-out", str(final))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert not trace.exists()

    def test_interrupt_while_writing_link_removes_both(self, link_files, tmp_path,
                                                        monkeypatch):
        import builtins
        trace, final = tmp_path / "t.csv", tmp_path / "f.lk1"
        real_open = builtins.open

        class Interrupted:
            """The link file, created and open, whose first write is interrupted."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                raise KeyboardInterrupt

        def open_interrupting_link(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return Interrupted(fh) if str(path) == str(final) else fh
        monkeypatch.setattr(builtins, "open", open_interrupting_link)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["minimize", link_files["hopf"], "--steps", "2",
                      "--trace-out", str(trace), "--link-out", str(final)])
        monkeypatch.undo()
        assert not trace.exists()
        assert not final.exists()

    def test_grid_below_floor_fails_without_outputs(self, capsys, link_files, tmp_path):
        trace, final = tmp_path / "t.csv", tmp_path / "f.lk1"
        code, out, err = run_cli(capsys, "minimize", link_files["perturbed"], "--grid", "16",
                                 "--trace-out", str(trace), "--link-out", str(final))
        assert code == 2
        assert out == ""
        assert err.startswith("error: grid_n must lie in [32, 256]")
        assert not trace.exists()
        assert not final.exists()

    def test_same_output_file_rejected(self, capsys, link_files, tmp_path):
        path = tmp_path / "out"
        code, out, err = run_cli(capsys, "minimize", link_files["hopf"], "--steps", "2",
                                 "--trace-out", str(path),
                                 "--link-out", str(tmp_path / "." / "out"))
        assert code == 2
        assert out == ""
        assert "name the same file" in err
        assert not path.exists()

    @pytest.mark.parametrize("option, spelling", [
        ("--trace-out", "dot"), ("--link-out", "dot"),
        ("--trace-out", "hardlink"), ("--link-out", "hardlink")],
        ids=["--trace-out", "--link-out", "hardlink--trace-out", "hardlink--link-out"])
    def test_output_naming_file_rejected(self, capsys, link_files, tmp_path, option, spelling):
        link_path = tmp_path / "hopf.lk1"
        text = Path(link_files["hopf"]).read_bytes()
        link_path.write_bytes(text)
        outputs = {"--trace-out": str(tmp_path / "t.csv"), "--link-out": str(tmp_path / "f.lk1")}
        outputs[option] = str(tmp_path / "." / "hopf.lk1")
        if spelling == "hardlink":  # another name, one inode
            outputs[option] = str(tmp_path / "linked.lk1")
            os.link(link_path, outputs[option])
        code, out, err = run_cli(capsys, "minimize", str(link_path), "--steps", "2",
                                 *[arg for item in outputs.items() for arg in item])
        assert code == 2
        assert out == ""
        assert f"FILE and {option} name the same file" in err
        assert link_path.read_bytes() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["hopf.lk1", "linked.lk1"] if spelling == "hardlink" else ["hopf.lk1"])

    def test_deterministic_output(self, capsys, link_files, tmp_path):
        """Two runs into different directories print the same report, up to
        the directory, and write the same trace and link bytes."""
        runs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            out_dir.mkdir()
            trace, final = out_dir / "t.csv", out_dir / "f.lk1"
            code, out, _ = run_cli(capsys, "minimize", link_files["perturbed"], "--steps", "10",
                                   "--trace-out", str(trace), "--link-out", str(final))
            assert code == 0
            runs.append((out.replace(str(out_dir), "DIR"), trace.read_bytes(),
                         final.read_bytes()))
        assert runs[0] == runs[1]

    def test_hopf_immediate(self, capsys, link_files, tmp_path):
        code, out, _ = run_cli(capsys, "minimize", link_files["hopf"],
                               "--steps", "5",
                               "--trace-out", str(tmp_path / "t.csv"),
                               "--link-out", str(tmp_path / "f.lk1"))
        assert code == 0
        rep = parse_report(out.strip().split("\n")[0])
        assert rep["status"] == "converged"
        assert rep["steps"] == "0"


#: the exit code of each failure: 2 for an input error, 3 for a numerical failure
EXIT_CODES = {errors.BadLinkFile: 2, errors.BadParameter: 2, errors.IoFailure: 2, ValueError: 2,
              errors.CoincidentPoints: 3, errors.ImmersionFailure: 3, errors.PoleOnCurve: 3,
              errors.CosineOutOfRange: 3, errors.NoConvergence: 3, errors.LinkAreaError: 3}


class TestExitCodes:
    def test_every_error_class_classified(self):
        def descendants(cls):
            return {d for sub in cls.__subclasses__() for d in {sub} | descendants(sub)}
        assert descendants(errors.LinkAreaError) == set(EXIT_CODES) - {ValueError,
                                                                       errors.LinkAreaError}

    @pytest.mark.parametrize("error, code", list(EXIT_CODES.items()),
                             ids=[e.__name__ for e in EXIT_CODES])
    def test_exit_code(self, capsys, monkeypatch, error, code):
        def fail(args):
            raise error("the message")
        monkeypatch.setitem(cli._COMMANDS, "verify", fail)
        assert run_cli(capsys, "verify") == (code, "", "error: the message\n")


class TestImports:
    @staticmethod
    def _fresh_python(script, blas_threads=None):
        """Run script in a new interpreter that imports this linkarea, with
        OPENBLAS_NUM_THREADS set to blas_threads or unset."""
        src = str(Path(la.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    @pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")])
    def test_blas_pinned_to_one_thread(self, link_files, preset, threads):
        script = (
            "import os, sys\n"
            "from linkarea import cli\n"
            "assert 'numpy' not in sys.modules, 'importing the CLI loaded numpy'\n"
            f"assert os.environ.get('OPENBLAS_NUM_THREADS') == {threads!r}\n"
            f"assert cli.main(['area', {link_files['hopf']!r}]) == 0\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
        assert self._fresh_python(script, preset).split()[-1] == threads

    @pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")])
    def test_library_blas_pinned_to_one_thread(self, link_files, preset, threads):
        script = (
            "import os, sys\n"
            "import linkarea\n"
            f"linkarea.read_link({link_files['hopf']!r})\n"
            "assert 'numpy' in sys.modules and 'linkarea.cli' not in sys.modules\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
        assert self._fresh_python(script, preset).split()[-1] == threads

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
    def test_suite_runs_pinned_blas(self):
        # conftest.py imports linkarea before numpy, so this process's OpenBLAS
        # starts the pinned number of threads (1 unless the variable was set)
        assert "numpy" in sys.modules
        threads = len(os.listdir("/proc/self/task"))
        assert threads == int(os.environ["OPENBLAS_NUM_THREADS"]), threads

    @pytest.mark.parametrize("argv, skipped, needed", [
        (["area", "{link}"], {"gridio", "optimize", "verify"}, {"symplectic"}),
        (["anglemap", "{link}", "--grid", "32", "--out", "{tmp}/map.csv"],
         {"optimize", "symplectic", "verify"}, {"gridio"}),
        (["minimize", "{link}", "--steps", "1", "--trace-out", "{tmp}/trace.csv",
          "--link-out", "{tmp}/min.lk1"], {"conformal", "functionals", "gridio", "symplectic",
                                           "verify"}, set()),
        (["oracle", "{link}", "--samples", "20"], {"functionals", "gridio", "optimize",
                                                    "verify"}, {"conformal", "symplectic"}),
        (["invariance", "{link}", "--transforms", "1"], {"gridio", "optimize", "verify"},
         {"functionals", "symplectic"}),
        (["verify"], {"gridio", "optimize"}, {"verify", "functionals", "symplectic"}),
    ], ids=["area", "anglemap", "minimize", "oracle", "invariance", "verify"])
    def test_command_imports_only_what_it_runs(self, link_files, tmp_path, argv, skipped,
                                               needed):
        argv = [a.format(link=link_files["hopf"], tmp=tmp_path) for a in argv]
        script = (
            "import sys\n"
            "import linkarea\n"
            "from linkarea import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            f"loaded = {{m for m in {sorted('linkarea.' + m for m in skipped)!r} "
            "if m in sys.modules}\n"
            "assert not loaded, loaded\n"
            f"missing = {{m for m in {sorted('linkarea.' + m for m in needed)!r} "
            "if m not in sys.modules}\n"
            "assert not missing, missing\n"
            "for name in linkarea.__all__:\n"
            "    getattr(linkarea, name)\n"
            "assert len(set(linkarea.__all__)) == len(linkarea.__all__)\n")
        self._fresh_python(script)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_synopses():
    """The synopses in the fenced blocks of README's CLI section: each line that
    starts with "linkarea ", joined with the lines of options right below it."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n#", 1)[0]
    synopses, follows = [], False
    for block in section.split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("linkarea "):
                synopses.append(line)
            elif follows and line.lstrip().startswith("["):
                synopses[-1] += " " + line.strip()
            follows = line.startswith("linkarea ") or (follows and line.lstrip().startswith("["))
    return synopses


def check_synopsis(synopsis, parser):
    """The command a synopsis names, and where it disagrees with the parser: an
    option its parser (the program's before the command, the command's after
    it) lacks, a count of positionals other than the command's, or an option
    of the command left out."""
    tokens = synopsis.replace("[", " ").replace("]", " ").split()[1:]
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    owner, errors, positionals, named = parser, [], 0, set()
    while tokens:
        token = tokens.pop(0)
        if token.startswith("-"):
            action = owner._option_string_actions.get(token)
            if action is None:
                errors.append(f"{token} is no option of {owner.prog}")
                continue
            named.add(token)
            if action.nargs != 0 and tokens:
                tokens.pop(0)  # its metavar
        elif owner is not parser:
            positionals += 1
        elif token in commands.choices:
            owner, command = commands.choices[token], token
        else:
            errors.append(f"{token} is no command")
    if owner is parser:
        return None, errors + ["no command"]
    actions = [a for a in owner._actions if not isinstance(a, argparse._HelpAction)]
    if positionals != sum(not a.option_strings for a in actions):
        errors.append(f"{positionals} positionals for {owner.prog}")
    errors += [f"{a.option_strings[0]} of {owner.prog} left out" for a in actions
               if a.option_strings and a.option_strings[0] not in named]
    return command, errors


class TestReadmeSynopses:
    def test_synopses_match_parser(self):
        """One synopsis per command, each naming exactly the options it owns."""
        parser = cli.build_parser()
        checked = {s: check_synopsis(s, parser) for s in readme_synopses()}
        assert sorted(command for command, _ in checked.values()) == sorted(cli._COMMANDS)
        assert {s: errors for s, (_, errors) in checked.items()} == {s: [] for s in checked}

    def test_python_blocks_run(self, tmp_path, monkeypatch):
        """Both fenced python blocks of README run, writing their files in tmp_path."""
        text = README.read_text(encoding="utf-8")
        blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
        assert len(blocks) == 2
        monkeypatch.chdir(tmp_path)
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})

    @pytest.mark.parametrize("synopsis, error", [
        ("linkarea oracle FILE [--seed S] [--samples M]", "--seed is no option of linkarea oracle"),
        ("linkarea area FILE [--grid N] [--tol T] [--steps N]",
         "--steps is no option of linkarea area"),
        ("linkarea --transforms K invariance FILE", "--transforms is no option of linkarea"),
        ("linkarea minimize FILE [--steps N] [--grid N] [--stop-below F] [--trace-out PATH]",
         "--link-out of linkarea minimize left out"),
        ("linkarea anglemap --out PATH [--grid N]", "0 positionals for linkarea anglemap"),
    ])
    def test_disagreement_found(self, synopsis, error):
        assert error in check_synopsis(synopsis, cli.build_parser())[1]


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def install_job_script():
    """The run block of the install job's "Run the linkarea entry point" step,
    without the lines that set up the installed package: its PATH export and
    its check that scipy is not installed."""
    lines = WORKFLOW.read_text(encoding="utf-8").split("- name: Run the linkarea entry point\n")[1]
    run = lines.split("run: |\n", 1)[1].splitlines()
    indent = len(run[0]) - len(run[0].lstrip())
    body = []
    for line in run:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        body.append(line[indent:])
    return [line for line in body if not line.startswith("export PATH=")
            and "find_spec('scipy')" not in line]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="FIFOs and coreutils")
def test_install_job_script_passes(tmp_path):
    """The install job's checks, run on this source tree through a linkarea
    wrapper on PATH in place of the installed console script."""
    script = install_job_script()
    assert any(line.startswith("linkarea anglemap") for line in script)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    wrapper = bin_dir / "linkarea"
    wrapper.write_text('#!/bin/sh\nexec python -m linkarea.cli "$@"\n')
    wrapper.chmod(0o755)
    src = str(Path(la.__file__).resolve().parents[1])
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}", PYTHONPATH=src)
    work = tmp_path / "work"
    work.mkdir()
    done = subprocess.run(["bash", "-e", "-c", "\n".join(script)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
