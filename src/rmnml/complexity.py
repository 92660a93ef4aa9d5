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
from typing import NamedTuple

import numpy as np

from . import hyperbolic as hy
from .gaussian import Dataset, check_sigma_max, log_fisher_factors, mle
from .quadrature import QuadratureError, integrate_1d

#: Default compact parameter domain (geodesic ball radius, sigma interval).
DEFAULT_RADIUS = 3.0
DEFAULT_SIGMA_MIN = 0.1
DEFAULT_SIGMA_MAX = 3.0
#: Smallest sigma_min: below about 1.2e-77, sigma^4 (the scale of Var(d^2))
#: is no longer a normal float.
SIGMA_FLOOR = sys.float_info.min ** 0.25
#: Largest radius_R; the log ball volume, about (D-1) R, stays finite for D < 1e293.
RADIUS_MAX = 1e15


class ParamDomain(NamedTuple("_DomainFields", [("radius_R", float), ("sigma_min", float),
                                               ("sigma_max", float)])):
    """Compact parameter region: geodesic ball of radius ``radius_R`` about
    the origin for the location, interval [sigma_min, sigma_max] for the
    scale.

    Accepted range: float min (about 2.2e-308) <= radius_R <= RADIUS_MAX
    (1e15), where the log ball volume keeps its digits, and finite bounds
    with SIGMA_FLOOR (about 1.2e-77) <= sigma_min < sigma_max.
    Every term of the log complexity is finite on such a domain, as the
    Fisher factors are read as logs, up to the moment kernel's largest
    sigma, about 9e306 / (D-1): the domain has no D, so ``pc_hgd`` and
    ``mle`` check that bound.  The likelihood of ``mle`` needs n log xi,
    which at D >= 2 overflows past about sigma = 1.3e154 sqrt(2/n) / (D-1);
    its OverflowError names that bound.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, radius_R: float = DEFAULT_RADIUS, sigma_min: float = DEFAULT_SIGMA_MIN,
                sigma_max: float = DEFAULT_SIGMA_MAX):
        if not 0 < radius_R <= RADIUS_MAX:
            raise ValueError(f"radius_R must be in (0, {RADIUS_MAX:g}]: {radius_R}")
        if radius_R < sys.float_info.min:
            raise ValueError(f"radius_R must be at least {sys.float_info.min:.3g}, below which "
                             f"the log ball volume loses digits; got {radius_R}")
        if not 0 < sigma_min < sigma_max:
            raise ValueError("need 0 < sigma_min < sigma_max")
        if not sigma_max < math.inf:
            raise ValueError(f"sigma_max must be finite, got {sigma_max}")
        if sigma_min < SIGMA_FLOOR:
            raise ValueError(f"sigma_min must be at least {SIGMA_FLOOR:.3g}, where "
                             f"sigma^4 underflows; got {sigma_min}")
        return super().__new__(cls, radius_R, sigma_min, sigma_max)


class PcResult(NamedTuple):
    """Log parametric complexity split into its three additive terms."""

    k: int
    n: int
    term_kn: float
    term_volume: float
    term_fisher: float

    @property
    def total_log_pc(self) -> float:
        return self.term_kn + self.term_volume + self.term_fisher


class CodeLengthReport(NamedTuple):
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
    estimate of the log.  Its message then also names the sigma where the
    log integrand peaks and the width of the layer there (see
    :func:`_layer`): at large D with (D - 1) sigma_min^2 small, the mass
    sits in a layer at sigma_min about 1/D wide in u, too thin for the rule.
    """
    a, b = math.log(domain.sigma_min), math.log(domain.sigma_max)

    def log_f(u):
        return _log_sigma_integrand(dim, u)

    try:
        return integrate_1d(log_f, a, b)
    except QuadratureError as exc:
        peak, width = _layer(log_f, a, b)
        raise QuadratureError(f"{exc}: the integrand peaks at sigma = {math.exp(peak):.6g}, "
                              f"in a layer {width:.2g} wide in log sigma",
                              best_estimate=exc.best_estimate) from exc


def _layer(log_f, a: float, b: float) -> tuple[float, float]:
    """The end of [a, b] where ``log_f`` peaks, and the distance in which it falls by 1.

    The log sigma integrand is convex in u (its second differences on
    sigma in [1e-6, 1e30] are nonnegative up to rounding for D = 1 to 1e6),
    so it peaks at an end.  The width is h / fall(h) at the first
    h = (b - a) 2^-k, k = 60, ..., 1, inward from that end, where the fall
    reaches 1: 1/|slope| for a linear fall, and b - a if it never does.
    """
    ends = log_f(np.array([a, b]))
    peak, inward = (a, 1.0) if ends[0] >= ends[1] else (b, -1.0)
    steps = (b - a) * 2.0 ** -np.arange(60.0, 0.0, -1.0)
    fall = ends.max() - log_f(peak + inward * steps)
    reached = np.flatnonzero(fall >= 1.0)
    if not reached.size:
        return peak, b - a
    return peak, float(steps[reached[0]] / fall[reached[0]])


def pc_hgd(dim: int, n: int, domain: ParamDomain) -> PcResult:
    """Log parametric complexity of the hyperbolic Gaussian on ``domain``.

    (D+1)/2 log(n/2pi) + log V_{H^D}(R) + log of the sigma integral.  The
    location Fisher factor is xi'/(D sigma xi); see the module notes on the
    dropped o(1) term.  A ``sigma_max`` past the moment kernel's largest
    sigma at ``dim``, about 9e306 / (D-1), is a ValueError
    (:func:`rmnml.gaussian.check_sigma_max`), and so is n < 2 (:func:`pc_general`).
    """
    check_sigma_max(dim, domain.sigma_max)
    return pc_general(dim + 1, n, hgd_sigma_integral(dim, domain),
                      log_vol_theta=hy.log_ball_volume(dim, domain.radius_R))


def check_log_pc(pc: PcResult) -> PcResult:
    """``pc``, or ValueError naming the bound if its total is negative: no NML
    normalizer is below 1, but the asymptotic formula counts only the datasets
    whose MLE lies inside the domain, and is negative when the domain's Fisher
    volume, term_volume + term_fisher, is below -term_kn = (k/2) log(2 pi / n)."""
    if pc.total_log_pc < 0.0:
        raise ValueError(f"the log complexity {pc.total_log_pc:.6g} is negative, which no NML "
                         f"normalizer's is: at D = {pc.k - 1} and n = {pc.n} the asymptotic "
                         f"formula needs term_volume + term_fisher >= (k/2) log(2 pi / n) = "
                         f"{-pc.term_kn:.6g} with k = {pc.k}, and this domain gives "
                         f"{pc.term_volume + pc.term_fisher:.6g}")
    return pc


def rm_nml_codelength(data: Dataset, domain: ParamDomain = ParamDomain()) -> CodeLengthReport:
    """Volume-element NML code-length of ``data`` in nats.

    Maximized negative log-likelihood plus log parametric complexity; the
    boundary flag records an MLE clamped to the domain boundary, where the
    asymptotic complexity formula is not reliable.  The domain's log complexity
    is checked (:func:`check_log_pc`) before the fit, whatever the data.
    """
    pc = check_log_pc(pc_hgd(data.dim, data.n, domain))
    fit = mle(data, domain)
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
