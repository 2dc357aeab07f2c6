"""Seeded defects: each row breaks one route by a monkeypatch, and `verify`
must report it as a property failure (exit 1), never as an input error.

A row patches a kernel, not an entry point, in every module that imports
it, so that each route that calls the kernel sees the defect.  The NaN
rows write NaN at one element per call of a kernel: a deviation or a
level that is not finite must fail, in `verify` and in the commands that
judge the route (exit 3).  The NaN-point rows feed a NaN point straight
to each coincidence test: it must raise CoincidentPoints, as a coincident
pair does, not let the NaN through."""

import numpy as np
import pytest

import linkarea as la
from linkarea import cli, conformal, functionals, minkowski, spheres, symplectic, verify
from linkarea.errors import CoincidentPoints


def _patch(monkeypatch, modules, name, wrap):
    """Replace the function name by wrap(original) in each of modules."""
    patched = wrap(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, patched)


def _scaled_metric(monkeypatch, factor):
    _patch(monkeypatch, (spheres, conformal, symplectic, functionals), "metric_kernel",
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


def _sheared_sigma_s(monkeypatch, shear):
    # sigma_s + shear sigma_t has square 2 shear g, not 0, but the same
    # product g with the null sigma_t; on the six tangents of a pair the shear
    # is a change of basis, which keeps their signature
    def wrap(f):
        def sheared(*args):
            psi, dpsi = f(*args)
            return psi, np.concatenate([dpsi[:1] + shear * dpsi[1:2], dpsi[1:]])
        return sheared
    _patch(monkeypatch, (spheres,), "_psi_jet", wrap)


def _scaled(p, k, factor):
    """A copy of p with its coordinate k (on the last axis) times factor."""
    p = np.array(p, dtype=float)
    p[..., k] *= factor
    return p


def _nan_first(a):
    """A copy of a with its first element NaN."""
    a = np.array(a, dtype=float)
    a.flat[0] = np.nan
    return a


def _nan_in(monkeypatch, modules, name, field=None):
    """NaN at one element per call of the kernel name: of its output, or of
    the output's field at index field."""
    def wrap(f):
        def seeded(*a, **kw):
            out = f(*a, **kw)
            if field is None:
                return _nan_first(out)
            return tuple(_nan_first(v) if k == field else v for k, v in enumerate(out))
        return seeded
    _patch(monkeypatch, modules, name, wrap)


#: name: (seed of the defect, the checks that verify must fail, and the
#: commands that must exit 3; the other commands exit 0)
NAN_MUTATIONS = {
    "metric_nan": (lambda mp: _nan_in(mp, (spheres, conformal, symplectic, functionals),
                                      "metric_kernel"),
                   ["metric_two_routes", "angle_two_routes", "cross_ratio_fd_oracle",
                    "symplectic_one_form"],
                   {"area", "oracle", "invariance"}),
    "abs_omega_nan": (lambda mp: _nan_in(mp, (conformal, functionals), "magnitude_kernel", 1),
                      ["cross_ratio_fd_oracle"], {"area", "oracle", "invariance"}),
    "theta_nan": (lambda mp: _nan_in(mp, (conformal, functionals), "density_kernel", 1),
                  ["angle_two_routes"], {"oracle", "invariance"}),
    "re_omega_nan": (lambda mp: _nan_in(mp, (conformal, functionals), "density_kernel", 3),
                     ["cross_ratio_fd_oracle"], {"oracle", "invariance"}),
    "chart_angle_nan": (lambda mp: _nan_in(mp, (conformal,), "_chart_angle"),
                        ["angle_two_routes"], {"oracle"}),
    "fd_nan": (lambda mp: _nan_in(mp, (conformal,), "cross_ratio_fd"),
               ["cross_ratio_fd_oracle"], {"oracle"}),
    "t_derivative_nan": (lambda mp: _nan_in(mp, (symplectic,), "spectral_t_derivative"),
                         ["symplectic_one_form"], {"oracle"}),
}


MUTATIONS = {
    # g off by 1e-8 pushes a cosine past 1 inside angle_two_routes
    "metric_times_1p1e-8": (lambda mp: _scaled_metric(mp, 1 + 1e-8),
                            ["metric_two_routes", "angle_two_routes", "cross_ratio_fd_oracle"]),
    "abs_omega_times_1p1e-6": (lambda mp: _scaled_abs(mp, 1 + 1e-6),
                               ["cross_ratio_fd_oracle"]),
    # the smallest defects that the stencil's Richardson value tells from
    # roundoff: each moves Re Omega by up to 7e-10, against TOL_FD = 1e-10
    "metric_times_1p1e-9": (lambda mp: _scaled_metric(mp, 1 + 1e-9),
                            ["metric_two_routes", "angle_two_routes", "cross_ratio_fd_oracle"]),
    "abs_omega_times_1p1e-9": (lambda mp: _scaled_abs(mp, 1 + 1e-9),
                               ["cross_ratio_fd_oracle"]),
    "re_omega_times_1p1e-9": (lambda mp: _shifted_density_field(mp, 3, lambda re: (1 + 1e-9) * re),
                              ["cross_ratio_fd_oracle"]),
    "re_omega_negated": (lambda mp: _shifted_density_field(mp, 3, np.negative),
                         ["cross_ratio_fd_oracle"]),
    "t_derivative_negated": (_negated_t_derivative, ["symplectic_one_form"]),
    "chart_tangent_reversed": (_reversed_chart_tangent,
                               ["angle_two_routes", "cross_ratio_fd_oracle"]),
    "wedge_theta_plus_1e-8": (lambda mp: _shifted_density_field(mp, 1, lambda theta: theta + 1e-8),
                              ["angle_two_routes"]),
    "chart_theta_plus_1e-8": (lambda mp: _shifted_chart_angle(mp, 1e-8), ["angle_two_routes"]),
    **{name: row[:2] for name, row in NAN_MUTATIONS.items()},
    # the Minkowski algebra, which the sigma route runs
    "wedge_9_times_1p1e-6": (lambda mp: _patch(mp, (minkowski,), "wedge",
                                               lambda f: lambda *a: _scaled(f(*a), 9, 1 + 1e-6)),
                             ["psi_equivariance", "tangent_nullity", "metric_two_routes"]),
    "wedge_0_1_swapped": (lambda mp: _patch(mp, (minkowski,), "wedge",
                                            lambda f: lambda *a: f(*a)[..., np.r_[1, 0, 2:10]]),
                          ["psi_equivariance"]),
    "eta5_0_negated": (lambda mp: mp.setattr(minkowski, "ETA5", _scaled(minkowski.ETA5, 0, -1)),
                       ["psi_equivariance"]),
    "lift_time_times_1p1e-6": (lambda mp: _patch(mp, (spheres,), "lift",
                                                 lambda f: lambda x: _scaled(f(x), 0, 1 + 1e-6)),
                               ["psi_equivariance", "tangent_nullity", "metric_two_routes"]),
    "lift_velocity_times_1p1e-6": (lambda mp: _patch(
        mp, (minkowski,), "lift",
        lambda f: lambda v, lead=1.0: f(v, lead) * (1 + 1e-6 if lead == 0.0 else 1.0)),
        ["metric_two_routes"]),
    "sigma_s_plus_1e-9_sigma_t": (lambda mp: _sheared_sigma_s(mp, 1e-9), ["tangent_nullity"]),
    # a tangent repeated leaves the 6 x 6 Gram matrix a zero eigenvalue
    "sixth_tangent_is_fifth": (lambda mp: _patch(mp, (spheres,), "_pair_tangent_vectors",
                                                 lambda f: lambda *a: f(*a)[..., np.r_[:5, 4], :]),
                               ["tangent_signature"]),
    "minor_lift_times_1p1e-8": (lambda mp: _patch(mp, (minkowski,), "minor_lift",
                                                  lambda f: lambda A: (1 + 1e-8) * f(A)),
                                ["psi_equivariance"]),
    # one sign of the wedge metric flipped makes <p, p> negative for some
    # pairs: the sigma route's square root of it warns, and its NaN fails
    # tangent_nullity and metric_two_routes
    "eps10_3_negated": pytest.param(
        lambda mp: mp.setattr(minkowski, "EPS10", _scaled(minkowski.EPS10, 3, -1)),
        ["psi_equivariance", "tangent_signature", "tangent_nullity", "metric_two_routes"],
        marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
}


@pytest.mark.parametrize("seed_defect, failing", list(MUTATIONS.values()), ids=list(MUTATIONS))
def test_defect_fails_verify(capsys, monkeypatch, seed_defect, failing):
    seed_defect(monkeypatch)
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 1
    failed = [line[5:].split(":")[0] for line in lines if line.startswith("FAIL ")]
    assert set(failed) == set(failing), out
    assert lines[-1] == f"verify: passed={len(verify.BATTERY) - len(failed)} failed={len(failed)}"


def test_each_check_alone_catches_a_defect():
    """Each check of the battery is the only one that fails on some row: none
    of them catches only defects that another check catches too."""
    fail_sets = [set(row.values[1] if hasattr(row, "values") else row[1])
                 for row in MUTATIONS.values()]
    for name, _ in verify.BATTERY:
        assert {name} in fail_sets, name


@pytest.fixture(scope="module")
def p02_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("links") / "p02.lk1"
    la.write_link(la.perturbed_hopf_link(0.2, 0), path)
    return str(path)


@pytest.mark.parametrize("seed_defect, failing_commands",
                         [row[::2] for row in NAN_MUTATIONS.values()], ids=list(NAN_MUTATIONS))
def test_nan_fails_the_commands(capsys, monkeypatch, p02_file, seed_defect, failing_commands):
    seed_defect(monkeypatch)
    commands = {"area": ["area", p02_file],
                "oracle": ["oracle", p02_file, "--samples", "20"],
                "invariance": ["invariance", p02_file, "--transforms", "1"]}
    codes = {name: cli.main(argv) for name, argv in commands.items()}
    capsys.readouterr()
    assert codes == {name: 3 if name in failing_commands else 0 for name in commands}


def test_cosine_defect_is_numerical_failure(capsys, monkeypatch, tmp_path):
    """g off by 1e-8 pushes a cosine past 1 on separated_link(1.0): the range
    check reports that defect of a route as a numerical failure (exit 3) in
    every command that meets it, never as an input error (exit 2)."""
    path, out_path = tmp_path / "sep10.lk1", tmp_path / "map.csv"
    la.write_link(la.separated_link(1.0), path)
    _scaled_metric(monkeypatch, 1 + 1e-8)
    for argv in (["area", str(path)], ["invariance", str(path), "--transforms", "2"],
                 ["anglemap", str(path), "--grid", "64", "--out", str(out_path)]):
        assert cli.main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cosine argument exceeds 1 by 1.0"), argv
    assert not out_path.exists()


#: two points on S^3, far from each other, from the points _Y and from the
#: pole _Y[0]; a velocity for each
_X = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
_Y = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
_V = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])

#: name: a call of one coincidence test on the points x
NAN_POINTS = {
    "metric_kernel": lambda x: spheres.metric_kernel(x, _V, _Y, _V),
    "check_separated": lambda x: spheres._check_separated(x, _Y),
    "tautological_pullback": lambda x: symplectic.tautological_pullback(x, _V, _Y),
    "stereo_project": lambda x: symplectic.stereo_project(x, _Y),
    "chart_jet": lambda x: conformal.chart_jet(x, _V, _Y[0], np.eye(4)[:3]),
}


@pytest.mark.parametrize("call", list(NAN_POINTS.values()), ids=list(NAN_POINTS))
def test_nan_point_is_coincident(call):
    call(_X)  # the finite points pass
    with pytest.raises(CoincidentPoints):
        call(_nan_first(_X))
