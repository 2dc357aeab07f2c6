import json

import numpy as np
import pytest

import linkarea as la
from linkarea import cli


@pytest.fixture(scope="module")
def link_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("links")
    paths = {}
    for name, link in (("hopf", la.hopf_link()),
                       ("sep15", la.separated_link(1.5)),
                       ("perturbed", la.perturbed_hopf_link(0.1, 0))):
        path = d / f"{name}.lk1"
        la.write_link(link, path)
        paths[name] = str(path)
    return paths


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
        assert "verify: passed=11 failed=0" in out
        assert "index(3,3)" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", ["994922", "3", "25", "115"])
    def test_fd_order_at_former_failures(self, capsys, seed):
        # seeds at which the sphere-fit stencil lost its order or was concircular
        code, out, _ = run_cli(capsys, "--seed", seed, "verify")
        assert code == 0
        assert "verify: passed=11 failed=0" in out

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_sign_flip_detected(self, capsys, monkeypatch):
        from linkarea import minkowski as mk
        original = mk.inner10
        monkeypatch.setattr(mk, "inner10", lambda p, q: -original(p, q))
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL wedge_determinant_identity" in out
        assert "failed=0" not in out


class TestArea:
    def test_hopf(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "area", link_files["hopf"])
        assert code == 0
        rep = parse_report(out.strip())
        assert abs(float(rep["signed_area"])) <= 1e-12
        assert float(rep["area"]) <= 1e-10

    def test_separated(self, capsys, link_files):
        code, out, _ = run_cli(capsys, "area", link_files["sep15"])
        assert code == 0
        rep = parse_report(out.strip())
        assert float(rep["area"]) > 1.0
        assert abs(float(rep["signed_area"])) <= 1e-8

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.lk1"
        path.write_text(json.dumps({"version": "lk-1", "components": [{"kind": "fourier4"}]}))
        code, _, err = run_cli(capsys, "area", str(path))
        assert code == 2
        assert "components" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "area", str(tmp_path / "nope.lk1"))
        assert code == 2
        assert "nope.lk1" in err

    def test_unreachable_tolerance(self, capsys, link_files):
        code, _, err = run_cli(capsys, "area", link_files["sep15"], "--tol", "1e-09")
        assert code == 3
        assert "convergence" in err


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
        assert float(rep["wedge_vs_chart"]) <= 1e-7
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
                               "--steps", "60", "--lr", "0.1",
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

    def test_hopf_immediate(self, capsys, link_files, tmp_path):
        code, out, _ = run_cli(capsys, "minimize", link_files["hopf"],
                               "--steps", "5",
                               "--trace-out", str(tmp_path / "t.csv"),
                               "--link-out", str(tmp_path / "f.lk1"))
        assert code == 0
        rep = parse_report(out.strip().split("\n")[0])
        assert rep["status"] == "converged"
        assert rep["steps"] == "0"
