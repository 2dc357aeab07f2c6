"""Seeded defects: each row breaks one route by a monkeypatch, and `verify`
must report it as a property failure (exit 1), never as an input error."""

import pytest

from linkarea import cli, conformal, spheres


def _scaled_metric(monkeypatch, factor):
    original = spheres.metric_kernel
    scaled = lambda *a: factor * original(*a)  # noqa: E731
    monkeypatch.setattr(spheres, "metric_kernel", scaled)
    monkeypatch.setattr(conformal, "metric_kernel", scaled)


MUTATIONS = {
    # g off by 1e-8 pushes a cosine past 1 inside angle_two_routes
    "metric_times_1p1e-8": (lambda mp: _scaled_metric(mp, 1 + 1e-8),
                            ["metric_two_routes", "angle_two_routes"]),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_defect_fails_verify(capsys, monkeypatch, name):
    seed_defect, failing = MUTATIONS[name]
    seed_defect(monkeypatch)
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 1
    for check in failing:
        assert any(line.startswith(f"FAIL {check}:") for line in lines), out
    n_failed = sum(line.startswith("FAIL ") for line in lines)
    assert n_failed >= 1
    assert lines[-1] == f"verify: passed={11 - n_failed} failed={n_failed}"
