"""The benchmark replay (benchmarks/replay.py) wraps library functions by
name and skips a name that no longer resolves, so that its metric reads 0
without an error.  This test reads the names it wraps from its source and
holds the library to the ones that resolve now."""

import ast
import importlib
from pathlib import Path

REPLAY = Path(__file__).resolve().parents[1] / "benchmarks" / "replay.py"

#: (module, function) of every name the replay wraps that the library defines
RESOLVED = {
    ("cli", "main"), ("links", "read_link"), ("conformal", "cross_ratio_fd"),
    ("conformal", "chart_pole"), ("functionals", "compute_functionals"),
    ("functionals", "build_grid"), ("symplectic", "exterior_derivative_check"),
    ("optimize", "objective"), ("optimize", "minimize"),
} | {("verify", "check_" + name) for name in (
    "equivariance", "nullity", "metric_routes", "signature", "angle_routes", "fd_oracle",
    "symplectic")}


def _wrapped_names():
    """(module, function) of each fn(module, "name", ...) call and each VERIFY_CHECKS entry."""
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "fn" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and isinstance(node.args[1], ast.Constant)):
            names.add((node.args[0].id, node.args[1].value))
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "VERIFY_CHECKS"):
            names |= {("verify", "check_" + elt.value) for elt in node.value.elts}
    return names


def test_replayed_names_resolve():
    wrapped = _wrapped_names()
    assert len(RESOLVED) == 16
    assert RESOLVED <= wrapped, RESOLVED - wrapped
    for module, name in sorted(RESOLVED):
        assert callable(getattr(importlib.import_module(f"linkarea.{module}"), name, None)), \
            f"linkarea.{module}.{name}"
