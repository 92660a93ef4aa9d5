"""Coordinate-invariant NML code-lengths for models on hyperbolic space.

The package computes volume-element (coordinate-invariant) normalized
maximum likelihood code-lengths and asymptotic parametric complexity, with
a complete implementation for the Riemannian Gaussian distribution on
hyperbolic space H^D: geometry on Lorentz coordinate arrays (a point is a
(D+1,) array, a dataset an (n, D+1) array; Poincare-ball input is
converted on load), one log-domain kernel for the normalization
constant and the moments of d^2, one log formula over it for the Fisher
information, sampling, maximum likelihood estimation, a prefix-code
demonstration, and a CLI.  The oracles that check those kernels live in
:mod:`rmnml.validation`.
"""

from .complexity import (CodeLengthReport, ParamDomain, PcResult, chart_gap,
                         pc_general, pc_hgd, regret, rm_nml_codelength)
from .gaussian import (Dataset, MleFit, RgdParams, log_fisher_factors, log_lik,
                       mle, sample)
from .hyperbolic import (CHART_LORENTZ_GRAPH, CHART_POINCARE, GeometryError,
                         log_ball_volume, origin)
from .quadrature import QuadratureError

__version__ = "0.1.0"

__all__ = [
    "CHART_LORENTZ_GRAPH", "CHART_POINCARE", "CodeLengthReport", "Dataset",
    "GeometryError", "MleFit", "ParamDomain", "PcResult", "QuadratureError",
    "RgdParams", "chart_gap", "log_ball_volume", "log_fisher_factors",
    "log_lik", "mle", "origin", "pc_general", "pc_hgd", "regret",
    "rm_nml_codelength", "sample",
]
