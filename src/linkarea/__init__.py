"""Conformal area invariants of 2-component links in the 3-sphere.

Links are represented as product tori in the space of oriented point
pairs, realized as unit decomposable 2-vectors of 5-dimensional Minkowski
space; the package computes the signed area, area and cross energy of
that torus, the conformal angle and cross-ratio density by independent
routes, and a gradient-descent explorer of the area over curve shapes.
"""

from .conformal import (CrossRatioDensity, chart_pole, conformal_angle_chart,
                        conformal_angle_wedge, cross_ratio_fd, inf_cross_ratio)
from .functionals import (FunctionalReport, TorusGrid, area, build_grid,
                          compute_functionals, cross_energy, export_grid,
                          read_grid, signed_area)
from .links import (CircleCurve, FourierCurve, Link2, LinkCurve, MobiusMap,
                    SampledCurve, catalogue, chart_lift, hopf_link,
                    inverse_stereographic, parallel_circles_link,
                    perturbed_hopf_link, random_mobius, read_link,
                    separated_link, stereographic_3chart, write_link)
from .minkowski import (CausalClass, causal_classify, inner5, inner10,
                        minor_lift, plucker_residuals, wedge)
from .optimize import (MinimizeResult, circle_fit_residual, decode_link,
                       encode_link, minimize, objective)
from .spheres import (lift, metric_coefficient, psi_embed, sigma_derivatives,
                      theta_tangent_signature, torus_tangent_type)
from .symplectic import (determine_global_sign, exterior_derivative_check,
                         stereo_project, tautological_pullback)

__version__ = "0.1.0"
