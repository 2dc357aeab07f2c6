"""Seeded defects: each row breaks one route by a monkeypatch, and `verify`
must report it as a property failure (exit 1), never as an input error.

A row patches a kernel, not an entry point, in every module that imports
it, so that each route that calls the kernel sees the defect."""

import numpy as np
import pytest

from linkarea import cli, conformal, functionals, spheres, symplectic


def _patch(monkeypatch, modules, name, wrap):
    """Replace the function name by wrap(original) in each of modules."""
    patched = wrap(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, patched)


def _scaled_metric(monkeypatch, factor):
    _patch(monkeypatch, (spheres, conformal, symplectic), "metric_kernel",
           lambda f: lambda *a: factor * f(*a))


def _scaled_abs(monkeypatch, factor):
    def wrap(f):
        def scaled(*a):
            g, absval, cos = f(*a)
            return g, factor * absval, cos
        return scaled
    _patch(monkeypatch, (conformal, functionals), "magnitude_kernel", wrap)


def _shifted_density_field(monkeypatch, index, change):
    def wrap(f):
        def shifted(*a):
            fields = list(f(*a))
            fields[index] = change(fields[index])
            return tuple(fields)
        return shifted
    _patch(monkeypatch, (conformal, functionals), "density_kernel", wrap)


def _negated_t_derivative(monkeypatch):
    _patch(monkeypatch, (symplectic,), "spectral_t_derivative",
           lambda f: lambda values: -f(values))


def _reversed_chart_tangent(monkeypatch):
    # swapping tx and ty instead is no defect: both the chart angle and the
    # stencil's Re omega are symmetric in the two tangents
    def wrap(f):
        def reversed_tx(*a):
            xc, tx, yc, ty = f(*a)
            return xc, -tx, yc, ty
        return reversed_tx
    _patch(monkeypatch, (conformal,), "_chart_stacks", wrap)


def _shifted_chart_angle(monkeypatch, shift):
    _patch(monkeypatch, (conformal,), "_chart_angle", lambda f: lambda *a: f(*a) + shift)


MUTATIONS = {
    # g off by 1e-8 pushes a cosine past 1 inside angle_two_routes
    "metric_times_1p1e-8": (lambda mp: _scaled_metric(mp, 1 + 1e-8),
                            ["metric_two_routes", "angle_two_routes"]),
    "abs_omega_times_1p1e-6": (lambda mp: _scaled_abs(mp, 1 + 1e-6),
                               ["cross_ratio_fd_oracle"]),
    "re_omega_negated": (lambda mp: _shifted_density_field(mp, 3, np.negative),
                         ["cross_ratio_fd_oracle"]),
    "t_derivative_negated": (_negated_t_derivative, ["symplectic_one_form"]),
    "chart_tangent_reversed": (_reversed_chart_tangent,
                               ["angle_two_routes", "cross_ratio_fd_oracle"]),
    "wedge_theta_plus_1e-8": (lambda mp: _shifted_density_field(mp, 1, lambda theta: theta + 1e-8),
                              ["angle_two_routes"]),
    "chart_theta_plus_1e-8": (lambda mp: _shifted_chart_angle(mp, 1e-8), ["angle_two_routes"]),
}


@pytest.mark.parametrize("seed_defect, failing", list(MUTATIONS.values()), ids=list(MUTATIONS))
def test_defect_fails_verify(capsys, monkeypatch, seed_defect, failing):
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
