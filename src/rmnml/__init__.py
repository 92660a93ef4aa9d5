"""Coordinate-invariant NML code-lengths for models on hyperbolic space.

The package computes volume-element (coordinate-invariant) normalized
maximum likelihood code-lengths and asymptotic parametric complexity, with
a complete implementation for the Riemannian Gaussian distribution on
hyperbolic space H^D: geometry in the Lorentz and Poincare models, the
normalization constant and its derivatives, Fisher information (closed
form and Monte Carlo), sampling, maximum likelihood estimation, a
prefix-code demonstration, and a CLI.
"""

from .complexity import (CodeLengthReport, ParamDomain, PcResult, chart_gap,
                         pc_general, pc_hgd, pc_mc_gauss1d, regret,
                         rm_nml_codelength)
from .fisher import (FisherBlock, fisher_integral, fisher_mu_closed,
                     fisher_numeric, fisher_sigma_closed)
from .gaussian import (Dataset, MleFit, RgdParams, log_lik, mle, pdf_vol,
                       sample, xi, xi_derivatives)
from .hyperbolic import (CHART_LORENTZ_GRAPH, CHART_POINCARE, GeometryError,
                         LorentzPoint, PoincarePoint, PolarCoords,
                         TangentVector, chart_convert, dist, exp_map,
                         from_polar, isometry_to, log_ball_volume, log_map,
                         minkowski_inner, origin, sqrt_det_metric, to_polar)
from .quadrature import QuadratureError, integrate_1d

__version__ = "0.1.0"

__all__ = [
    "CHART_LORENTZ_GRAPH", "CHART_POINCARE", "CodeLengthReport", "Dataset",
    "FisherBlock", "GeometryError", "LorentzPoint", "MleFit", "ParamDomain",
    "PcResult", "PoincarePoint", "PolarCoords", "QuadratureError", "RgdParams",
    "TangentVector", "chart_convert", "chart_gap", "dist", "exp_map",
    "fisher_integral", "fisher_mu_closed", "fisher_numeric", "fisher_sigma_closed",
    "from_polar", "integrate_1d", "isometry_to", "log_ball_volume", "log_lik",
    "log_map", "minkowski_inner", "mle", "origin", "pc_general", "pc_hgd",
    "pc_mc_gauss1d", "pdf_vol", "regret", "rm_nml_codelength", "sample",
    "sqrt_det_metric", "to_polar", "xi", "xi_derivatives",
]
