import math

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml.gaussian import Dataset, RgdParams, log_fisher_factors, sample
from rmnml.quadrature import integrate_1d
from rmnml.validation import xi, xi_derivatives


def random_point(rng: np.random.Generator, dim: int, max_radius: float = 2.0) -> np.ndarray:
    """Uniform-direction point at a random radius, built through the exp map."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    r = rng.uniform(0.0, max_radius)
    vec = np.zeros(dim + 1)
    vec[1:] = r * direction
    return hy.exp_map(hy.origin(dim), vec)


def random_dataset(rng: np.random.Generator, dim: int, n: int,
                   sigma: float = 1.0, mu_radius: float = 1.0) -> Dataset:
    mu = random_point(rng, dim, mu_radius)
    return sample(n, RgdParams(mu, sigma), seed=int(rng.integers(2**32)))


def polar_point(r: float, direction) -> np.ndarray:
    """(cosh r, sinh r u): the point at distance r from the origin along u."""
    return np.concatenate([[math.cosh(r)], math.sinh(r) * np.asarray(direction)])


def minkowski_inner(x, y) -> float:
    """The plain bilinear form -x0 y0 + sum_i xi yi, with no manifold check."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(x[1:] @ y[1:] - x[0] * y[0])


def dist(x: np.ndarray, y: np.ndarray) -> float:
    """Geodesic distance between two points, through the library's kernel."""
    return float(hy.dist_many(x, y[None, :])[0])


def log_map(base: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tangent vector at ``base`` that the exp map carries to ``x``."""
    alpha = max(-minkowski_inner(base, x), 1.0)  # cosh of the distance
    sinh_d = math.sqrt(alpha * alpha - 1.0)
    if sinh_d < 1e-15:
        return np.zeros_like(base)
    return math.acosh(alpha) / sinh_d * (x - alpha * base)


def lorentz_to_poincare(x: np.ndarray) -> np.ndarray:
    """Stereographic projection p_i = x_i / (1 + x0) of a Lorentz point or of each row."""
    return x[..., 1:] / (1.0 + x[..., :1])


def poincare_dist(p: np.ndarray, q: np.ndarray) -> float:
    """Distance from the Poincare metric directly, independent of the Lorentz form."""
    diff2 = float((p - q) @ (p - q))
    den = (1.0 - float(p @ p)) * (1.0 - float(q @ q))
    return float(np.arccosh(1.0 + 2.0 * diff2 / den))


def sqrt_det_metric(chart: str, x: np.ndarray):
    """Volume-element factor sqrt(det g) of ``chart`` at the Lorentz point ``x``.

    ``x`` may also be an (m, D+1) array, giving one factor per row.
    Poincare chart: (2 / (1 - |p|^2))^D at the stereographic image p.
    Lorentz graph chart over the spatial coordinates (x1..xD):
    1 / sqrt(1 + |x_{1:D}|^2).
    """
    if chart == hy.CHART_POINCARE:
        p = lorentz_to_poincare(x)
        return (2.0 / (1.0 - (p * p).sum(axis=-1))) ** p.shape[-1]
    assert chart == hy.CHART_LORENTZ_GRAPH, chart
    return 1.0 / np.sqrt(1.0 + (x[..., 1:] ** 2).sum(axis=-1))


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^(dim-1) in R^dim, 2 pi^(D/2) / Gamma(D/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def log_ball_volume_oracle(dim: int, radius: float) -> float:
    """log vol of a geodesic ball in H^dim by adaptive Simpson in r.

    log |S^(D-1)| + (D-1) log sinh R + log of the integral over [0, R] of
    (sinh r / sinh R)^(D-1).  The log of the ratio is taken as
    (r - R) + log(expm1(-2r) / expm1(-2R)), which stays accurate to a few
    ulps at every radius, so the integrand's rounding does not grow with R.
    """
    def scaled(r):
        if dim == 1:
            return np.ones_like(r)
        with np.errstate(divide="ignore"):  # log 0 = -inf at r = 0
            return np.exp((dim - 1) * (r - radius + np.log(
                np.expm1(-2.0 * r) / math.expm1(-2.0 * radius))))

    return (hy.log_sphere_area(dim) + (dim - 1) * float(hy.log_sinh(radius))
            + math.log(integrate_1d(scaled, 0.0, radius, 1e-11)))


def xi_fd_derivatives(dim: int, sigma):
    """Finite-difference oracle for the derivatives of the closed-form xi.

    First derivative: central difference with h = 1e-5 sigma.  Second
    derivative: Richardson-extrapolated central second difference with
    h = 3e-4 sigma, which balances truncation against roundoff.
    """
    h1 = 1e-5 * sigma
    d1 = (xi(dim, sigma + h1) - xi(dim, sigma - h1)) / (2.0 * h1)

    def second(h):
        return (xi(dim, sigma + h) - 2.0 * xi(dim, sigma) + xi(dim, sigma - h)) / h ** 2

    h2 = 3e-4 * sigma
    d2 = (4.0 * second(h2 / 2.0) - second(h2)) / 3.0
    return d1, d2


def closed_fisher_factors(dim: int, sigma, derivatives=xi_derivatives):
    """The paper's Fisher factors from the closed form of xi, apart from the kernel.

    c_mu = xi'/(D sigma xi) and I_sigma = xi''/xi - (xi'/xi)^2 + (3/sigma) xi'/xi,
    with (xi', xi'') from ``derivatives``: exact by default, or
    :func:`xi_fd_derivatives`.
    """
    value = xi(dim, sigma)
    d1, d2 = derivatives(dim, sigma)
    ratio = d1 / value
    return d1 / (dim * sigma * value), d2 / value - ratio * ratio + 3.0 / sigma * ratio


def closed_sigma_integrand(dim: int, sigma, derivatives=xi_derivatives):
    """sqrt(c_mu^D I_sigma) from :func:`closed_fisher_factors`."""
    c_mu, i_sigma = closed_fisher_factors(dim, sigma, derivatives)
    return np.sqrt(np.float_power(c_mu, dim) * i_sigma)


def fisher_factors(dim: int, sigma):
    """c_mu and I_sigma, the exponentials of the library's log formula."""
    log_c_mu, log_i_sigma = log_fisher_factors(dim, sigma)
    return np.exp(log_c_mu), np.exp(log_i_sigma)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
