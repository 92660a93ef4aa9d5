"""Fisher information of the hyperbolic Gaussian.

Closed forms (in a normal orthonormal basis at mu):

    I_mu    = xi'(sigma) / (D sigma xi(sigma)) * Identity_D
    I_sigma = xi''/xi - (xi'/xi)^2 + (3/sigma) xi'/xi

plus an independent Monte-Carlo estimator of the same quantities built
from finite-difference Hessians of the log-density, used as the oracle for
the closed forms and for the block-diagonality / base-point-independence
property checks.  The determinant integral over a compact parameter domain
factorizes as vol(Theta) * integral over sigma (symmetric-space reduction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import hyperbolic as hy
from .gaussian import RgdParams, log_pdf_vol_many, sample, xi, xi_derivatives
from .quadrature import integrate_1d

if TYPE_CHECKING:
    from .complexity import ParamDomain

SIGMA_PARAM = "sigma"
LOG_SIGMA_PARAM = "log-sigma"

_FD_STEP = 1e-4


@dataclass(frozen=True)
class FisherBlock:
    """Monte-Carlo Fisher estimate split into mu/sigma/cross blocks.

    Each entry comes with its standard error; the cross block collects the
    mixed mu-sigma second derivatives, which vanish in expectation.
    """

    mu_block: np.ndarray
    sigma_entry: float
    cross_block: np.ndarray
    mu_block_se: np.ndarray
    sigma_entry_se: float
    cross_block_se: np.ndarray
    n_samples: int

    def mu_det(self) -> tuple[float, float]:
        """Determinant of the mu block with a delta-method standard error."""
        det = float(np.linalg.det(self.mu_block))
        diag = np.diag(self.mu_block)
        rel = np.sqrt(float(np.sum((np.diag(self.mu_block_se) / diag) ** 2)))
        return det, abs(det) * rel


def _fisher_factors(dim: int, sigma, derivatives=None):
    """Location factor xi'/(D sigma xi) and sigma information I_sigma.

    ``sigma`` may be a scalar or an array; both factors have its shape.
    One evaluation of xi and one of its derivatives serve both factors.
    """
    value = xi(dim, sigma)
    d1, d2 = (derivatives or xi_derivatives)(dim, sigma)
    ratio = d1 / value
    return (d1 / (dim * sigma * value),
            d2 / value - ratio * ratio + 3.0 / sigma * ratio)


def fisher_mu_closed(dim: int, sigma: float) -> np.ndarray:
    """Fisher information of mu in a normal orthonormal basis at mu."""
    return _fisher_factors(dim, sigma)[0] * np.eye(dim)


def fisher_sigma_closed(dim: int, sigma: float) -> float:
    """Fisher information of sigma."""
    return _fisher_factors(dim, sigma)[1]


def normal_chart(mu: np.ndarray):
    """Normal orthonormal coordinates at mu.

    Returns ``chart(t)`` mapping tangent coordinates t in R^D to the point
    exp_mu(T e(t)) where T is the isometry carrying the origin (and its
    orthonormal tangent frame) to mu.  The metric at t = 0 is the identity.
    """
    T = hy.isometry_to(mu)
    dim = mu.size - 1

    def chart(t: np.ndarray) -> np.ndarray:
        v = np.zeros(dim + 1)
        v[1:] = np.asarray(t, dtype=float)
        return hy.exp_map(mu, T @ v)

    return chart


def fisher_numeric(params: RgdParams, n_samples: int, seed: int) -> FisherBlock:
    """Monte-Carlo Fisher estimate at ``params``.

    Draws ``n_samples`` points from the model, computes the Hessian of
    log p_vol with respect to (normal coordinates of mu, sigma) by central
    finite differences of size 1e-4, and averages the negated Hessians.
    Standard errors are reported per entry.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be >= 1e4 for a usable estimate")
    x = sample(n_samples, params, seed).coords
    n = x.shape[0]
    dim = params.dim
    sigma = params.sigma
    chart = normal_chart(params.mu)
    k = dim + 1  # eta = (t_1..t_D, sigma)

    def logp(offset: np.ndarray) -> np.ndarray:
        return log_pdf_vol_many(x, RgdParams(chart(offset[:dim]), sigma + offset[dim]))

    f0 = logp(np.zeros(k))
    unit = np.eye(k) * _FD_STEP

    plus = np.empty((k, n))
    minus = np.empty((k, n))
    for i in range(k):
        plus[i] = logp(unit[i])
        minus[i] = logp(-unit[i])

    # per-sample negated Hessian entries
    neg_h = np.empty((k, k, n))
    for i in range(k):
        neg_h[i, i] = -(plus[i] - 2.0 * f0 + minus[i]) / _FD_STEP ** 2
    for i in range(k):
        for j in range(i + 1, k):
            pp = logp(unit[i] + unit[j])
            pm = logp(unit[i] - unit[j])
            mp = logp(-unit[i] + unit[j])
            mm = logp(-unit[i] - unit[j])
            neg_h[i, j] = -(pp - pm - mp + mm) / (4.0 * _FD_STEP ** 2)
            neg_h[j, i] = neg_h[i, j]

    est = neg_h.mean(axis=2)
    se = neg_h.std(axis=2, ddof=1) / math.sqrt(n)
    return FisherBlock(
        mu_block=est[:dim, :dim],
        sigma_entry=float(est[dim, dim]),
        cross_block=est[:dim, dim].copy(),
        mu_block_se=se[:dim, :dim],
        sigma_entry_se=float(se[dim, dim]),
        cross_block_se=se[:dim, dim].copy(),
        n_samples=n,
    )


def sqrt_fisher_sigma_integrand(dim: int, sigma, derivatives=None):
    """sqrt(C_theta(sigma) * C_sigma(sigma)) for the domain integral.

    C_theta is the location factor to the power D and C_sigma the sigma
    Fisher information.  ``sigma`` may be a scalar or an array; the result
    has its shape.  ``derivatives`` may replace the closed-form (xi', xi'')
    supplier, which lets an independent finite-difference oracle rebuild
    the integrand; it is called with the same ``sigma``.
    """
    c_mu, i_sigma = _fisher_factors(dim, sigma, derivatives)
    return np.sqrt(np.float_power(c_mu, dim) * i_sigma)


def fisher_integral(dim: int, domain: "ParamDomain", parameterization: str = SIGMA_PARAM,
                    rel_tol: float = 1e-10) -> float:
    """Integral of sqrt(det I) over the compact domain Theta x Gamma.

    Factorizes as vol(Theta) * integral_{sigma_min}^{sigma_max}
    sqrt(C_theta C_sigma) d sigma.  The log-sigma parameterization carries
    the Jacobian factor sigma in the integrand and must give the same
    value (the integral is reparameterization invariant).
    """
    vol_theta = math.exp(hy.log_ball_volume(dim, domain.radius_R))
    if parameterization == SIGMA_PARAM:
        integral = integrate_1d(
            lambda s: sqrt_fisher_sigma_integrand(dim, s),
            domain.sigma_min, domain.sigma_max, rel_tol)
    elif parameterization == LOG_SIGMA_PARAM:
        integral = integrate_1d(
            lambda u: sqrt_fisher_sigma_integrand(dim, np.exp(u)) * np.exp(u),
            math.log(domain.sigma_min), math.log(domain.sigma_max), rel_tol)
    else:
        raise ValueError(f"unknown parameterization: {parameterization!r}")
    return vol_theta * integral
