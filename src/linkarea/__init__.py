"""Conformal area invariants of 2-component links in the 3-sphere.

Links are represented as product tori in the space of oriented point
pairs, realized as unit decomposable 2-vectors of 5-dimensional Minkowski
space; the package computes the signed area, area and cross energy of
that torus, the conformal angle and cross-ratio density by independent
routes, and a Levenberg–Marquardt descent of the area over curve shapes.

The public names are loaded on first use (PEP 562), so that a program
imports only the modules whose names it touches.

Importing the package pins OpenBLAS to one thread, unless
OPENBLAS_NUM_THREADS is set already: OpenBLAS reads the variable when
numpy loads, and on a small shared machine a second BLAS thread slows
that load and gains nothing on these small products.  A program that
imports numpy first keeps the BLAS it loaded; child processes inherit
the variable.
"""

import importlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_EXPORTS = {
    "conformal": ("chart_pole", "cross_ratio_fd"),
    "functionals": ("FunctionalReport", "TorusGrid", "area", "build_grid",
                    "compute_functionals", "grid_blocks", "signed_area"),
    "gridio": ("read_grid", "write_grid"),
    "links": ("CircleCurve", "FourierCurve", "Link2", "LinkCurve", "MobiusMap",
              "SampledCurve", "catalogue", "chart_lift", "great_circle_pair",
              "hopf_link", "inverse_stereographic", "parallel_circles_link",
              "perturbed_hopf_link", "random_mobius", "read_link",
              "separated_link", "write_link"),
    "minkowski": ("inner5", "inner10", "minor_lift", "plucker_residuals", "wedge"),
    "optimize": ("MinimizeResult", "circle_fit_residual", "decode_link",
                 "encode_link", "minimize", "objective"),
    "spheres": ("lift", "psi_embed", "sigma_derivatives", "theta_tangent_signature"),
    "symplectic": ("SIGN", "exterior_derivative_check", "stereo_project",
                   "tautological_pullback"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
