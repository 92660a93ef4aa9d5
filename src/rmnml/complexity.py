"""Parametric complexity and coordinate-invariant NML code-lengths.

The asymptotic log parametric complexity of a k-parameter model on n
observations is

    (k/2) log(n / 2 pi) + log integral sqrt(det I(theta)) d theta + o(1)

and for distance-determined families on a symmetric space the integral
factorizes into a parameter-space volume and a one-dimensional integral
over the extra parameter.  The code-length of a dataset is the maximized
negative log-likelihood (with respect to the volume element) plus the log
parametric complexity; its regret is constant and equal to the log
parametric complexity.  All code-lengths here are in nats; the o(1) term
of the asymptotic formula is dropped throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import hyperbolic as hy
from .gaussian import Dataset, check_sigma_max, log_fisher_factors, mle
from .quadrature import integrate_1d

#: Default compact parameter domain (geodesic ball radius, sigma interval).
DEFAULT_RADIUS = 3.0
DEFAULT_SIGMA_MIN = 0.1
DEFAULT_SIGMA_MAX = 3.0
#: Smallest sigma_min: below about 1.2e-77, sigma^4 (the scale of Var(d^2))
#: is no longer a normal float.
SIGMA_FLOOR = sys.float_info.min ** 0.25
#: Largest radius_R; the log ball volume, about (D-1) R, stays finite for D < 1e293.
RADIUS_MAX = 1e15


@dataclass(frozen=True)
class ParamDomain:
    """Compact parameter region: geodesic ball of radius ``radius_R`` about
    the origin for the location, interval [sigma_min, sigma_max] for the
    scale.

    Accepted range: 0 < radius_R <= RADIUS_MAX (1e15) and finite
    bounds with SIGMA_FLOOR (about 1.2e-77) <= sigma_min < sigma_max.
    Every term of the log complexity is finite on such a domain, as the
    Fisher factors are read as logs, up to the moment kernel's largest
    sigma, about 9e306 / (D-1): the domain has no D, so ``pc_hgd`` and
    ``mle`` check that bound.  The likelihood of ``mle`` needs
    n log xi, which overflows past about sigma = 1.3e154 sqrt(2/n) / (D-1);
    ``mle`` raises EstimationError there.
    """

    radius_R: float = DEFAULT_RADIUS
    sigma_min: float = DEFAULT_SIGMA_MIN
    sigma_max: float = DEFAULT_SIGMA_MAX

    def __post_init__(self):
        if not 0 < self.radius_R <= RADIUS_MAX:
            raise ValueError(f"radius_R must be in (0, {RADIUS_MAX:g}]: {self.radius_R}")
        if not 0 < self.sigma_min < self.sigma_max:
            raise ValueError("need 0 < sigma_min < sigma_max")
        if not self.sigma_max < math.inf:
            raise ValueError(f"sigma_max must be finite, got {self.sigma_max}")
        if self.sigma_min < SIGMA_FLOOR:
            raise ValueError(f"sigma_min must be at least {SIGMA_FLOOR:.3g}, where "
                             f"sigma^4 underflows; got {self.sigma_min}")


@dataclass(frozen=True)
class PcResult:
    """Log parametric complexity split into its three additive terms."""

    k: int
    n: int
    term_kn: float
    term_volume: float
    term_fisher: float

    @property
    def total_log_pc(self) -> float:
        return self.term_kn + self.term_volume + self.term_fisher


@dataclass(frozen=True)
class CodeLengthReport:
    """Code-length decomposition for one dataset."""

    neg_max_loglik: float
    log_pc: float
    boundary_flag: bool

    @property
    def total(self) -> float:
        return self.neg_max_loglik + self.log_pc


def pc_general(k: int, n: int, log_fisher_integral: float,
               log_vol_theta: float = 0.0) -> PcResult:
    """Asymptotic log parametric complexity from the log of a Fisher integral.

    On a symmetric space the integral of sqrt(det I) factorizes into the
    volume of the location domain and the one-dimensional
    ``log_fisher_integral`` over the extra parameter; both enter as finite
    logs, and the default ``log_vol_theta`` 0 leaves the Euclidean formula.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    for name, value in (("log parameter volume", log_vol_theta),
                        ("log Fisher integral", log_fisher_integral)):
        if not math.isfinite(value):
            raise ValueError(f"the {name} must be finite, got {value}")
    return PcResult(
        k=k, n=n,
        term_kn=0.5 * k * math.log(n / (2.0 * math.pi)),
        term_volume=log_vol_theta,
        term_fisher=log_fisher_integral)


def _log_sigma_integrand(dim: int, u: np.ndarray) -> np.ndarray:
    """Log of sqrt(c_mu^D I_sigma) sigma at the nodes u = log sigma.

    (D log c_mu + log I_sigma) / 2 + u, from one :func:`log_fisher_factors`
    call for all nodes.
    """
    log_c_mu, log_i_sigma = log_fisher_factors(dim, np.exp(u))
    return 0.5 * (dim * log_c_mu + log_i_sigma) + u


def hgd_sigma_integral(dim: int, domain: ParamDomain) -> float:
    """log integral over [sigma_min, sigma_max] of (xi'/(D sigma xi))^(D/2) B(sigma).

    B(sigma) is the square root of the sigma Fisher information.  The log
    integrand in u = log sigma goes to :func:`integrate_1d`, the doubling
    Gauss-Legendre rule, which stops once two successive logs agree within
    1e-10 and otherwise raises :class:`QuadratureError` with the best
    estimate of the log.
    """
    return integrate_1d(lambda u: _log_sigma_integrand(dim, u),
                        math.log(domain.sigma_min), math.log(domain.sigma_max))


def pc_hgd(dim: int, n: int, domain: ParamDomain) -> PcResult:
    """Log parametric complexity of the hyperbolic Gaussian on ``domain``.

    (D+1)/2 log(n/2pi) + log V_{H^D}(R) + log of the sigma integral.  The
    location Fisher factor is xi'/(D sigma xi); see the module notes on the
    dropped o(1) term.  A ``sigma_max`` past the moment kernel's largest
    sigma at ``dim``, about 9e306 / (D-1), is a ValueError
    (:func:`rmnml.gaussian.check_sigma_max`).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    check_sigma_max(dim, domain.sigma_max)
    return pc_general(dim + 1, n, hgd_sigma_integral(dim, domain),
                      log_vol_theta=hy.log_ball_volume(dim, domain.radius_R))


def rm_nml_codelength(data: Dataset, domain: ParamDomain = ParamDomain()) -> CodeLengthReport:
    """Volume-element NML code-length of ``data`` in nats.

    Maximized negative log-likelihood plus log parametric complexity; the
    boundary flag records an MLE clamped to the domain boundary, where the
    asymptotic complexity formula is not reliable.
    """
    fit = mle(data, domain)
    pc = pc_hgd(data.dim, data.n, domain)
    return CodeLengthReport(
        neg_max_loglik=-fit.max_log_lik,
        log_pc=pc.total_log_pc,
        boundary_flag=fit.boundary)


def chart_gap(data: Dataset, chart: str) -> float:
    """Code-length gap between chart-density NML and volume-element NML.

    Equals -sum_i log sqrt(det g(x_i)) in the given chart: exactly the
    difference between the conventional NML code-length computed from
    chart densities and the volume-element code-length.  On the
    hyperboloid sqrt(det g) is 1/x0 in the Lorentz graph chart and, since
    2 / (1 - |p|^2) = 1 + x0, (1 + x0)^D in the Poincare chart.
    """
    x0 = data.coords[:, 0]
    if chart == hy.CHART_LORENTZ_GRAPH:
        return float(np.sum(np.log(x0)))
    if chart == hy.CHART_POINCARE:
        return -data.dim * float(np.sum(np.log1p(x0)))
    raise hy.GeometryError(f"unknown chart: {chart!r}")


def regret(data: Dataset, codelength: float,
           domain: ParamDomain = ParamDomain()) -> float:
    """Code-length regret: codelength minus the maximized log-loss.

    For the volume-element NML code-length this equals the log parametric
    complexity for every dataset (the constant-regret property).
    """
    return codelength + mle(data, domain).max_log_lik
