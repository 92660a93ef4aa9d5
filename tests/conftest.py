import math

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml import gaussian, quadrature, validation
from rmnml.gaussian import Dataset, RgdParams, log_fisher_factors, log_pdf_vol_many, sample
from rmnml.quadrature import integrate_1d
from rmnml.validation import FisherBlock, normal_chart, xi, xi_derivatives


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


def fisher_numeric_per_offset(params: RgdParams, n_samples: int, seed: int) -> FisherBlock:
    """The Monte-Carlo Fisher estimate with one log_pdf_vol_many call per offset.

    The reference for the distance passes that :func:`rmnml.validation.fisher_numeric`
    shares between offsets: the same draws, chart and central differences,
    with each offset's density evaluated from scratch.
    """
    x = sample(n_samples, params, seed).coords
    dim, sigma, step = params.dim, params.sigma, validation._FD_STEP
    chart = normal_chart(params.mu)
    k = dim + 1

    def logp(offset):
        return log_pdf_vol_many(x, RgdParams(chart(offset[:dim]), sigma + offset[dim]))

    f0 = logp(np.zeros(k))
    unit = np.eye(k) * step
    neg_h = np.empty((k, k, x.shape[0]))
    for i in range(k):
        neg_h[i, i] = -(logp(unit[i]) - 2.0 * f0 + logp(-unit[i])) / step ** 2
        for j in range(i):
            neg_h[i, j] = neg_h[j, i] = -(
                logp(unit[j] + unit[i]) - logp(unit[j] - unit[i])
                - logp(-unit[j] + unit[i]) + logp(-unit[j] - unit[i])) / (4.0 * step ** 2)
    est = neg_h.mean(axis=2)
    se = neg_h.std(axis=2, ddof=1) / math.sqrt(x.shape[0])
    return FisherBlock(est[:dim, :dim], float(est[dim, dim]), est[:dim, dim].copy(),
                       se[:dim, :dim], float(se[dim, dim]), se[:dim, dim].copy(), x.shape[0])


def radial_moments_plain(dim: int, sigma):
    """:func:`rmnml.gaussian.radial_moments` written as plain expressions.

    The reference for the kernel's in-place passes: each pass allocates its
    result, in the same order of operations, so every output is the same float.
    """
    s = np.asarray(sigma, dtype=float)[..., None]
    if dim > 1:
        capped = np.minimum(s, 20.0 / math.sqrt(dim - 1))
        a = (dim - 1) * capped * capped
        mode = np.sqrt(a * (a + 1.0))
        for _ in range(2):
            tanh = np.tanh(mode)
            mode = mode - (mode * tanh - a) / (tanh + mode * (1.0 - tanh * tanh))
        slope = (dim - 1) / np.tanh(mode)
    else:
        slope = np.zeros_like(s)
    window = gaussian._RADIAL_WINDOW
    k_sigma = slope * s
    below = np.minimum(k_sigma, window)
    half = 0.5 * (window + below)
    x, w = quadrature.gauss_legendre(gaussian._RADIAL_NODES)
    tau = half * (x + 1.0) - below
    log_w = tau * (s * ((dim - 1) - slope) - 0.5 * tau) + np.log(w)
    with np.errstate(over="ignore"):
        mode = k_sigma * s
        offset = mode * ((dim - 1) - 0.5 * slope)
        if dim > 1:
            tail = np.expm1(-2.0 * mode)
            log_w = log_w + (dim - 1) * np.log(np.expm1(-2.0 * s * (k_sigma + tau)) / tail)
            offset = offset + (dim - 1) * np.log(-tail)
    p = np.exp(log_w)
    z = p.sum(axis=-1)
    width = 2.0 * k_sigma + window
    q = tau * (2.0 * k_sigma + tau) / width
    mean_q = gaussian._row_dot(p, q) / z
    dev = q - mean_q[..., None]
    var_q = gaussian._row_dot(p, dev * dev) / z
    log_s = np.log(s[..., 0])
    log_scale = 2.0 * log_s + np.log(width[..., 0])
    mode_sq = (k_sigma * (k_sigma / width))[..., 0]
    log_xi = (hy.log_sphere_area(dim) - (dim - 1) * math.log(2.0) + offset[..., 0]
              + np.log(z * half[..., 0]) + log_s)
    return log_xi, log_scale + np.log(mode_sq + mean_q), 2.0 * log_scale + np.log(var_q)


def refine_by_columns(f, panels, tol) -> float:
    """Adaptive Simpson's refinement with the panels as seven separate arrays.

    The reference for :func:`rmnml.quadrature._refine`, which holds them as
    one (7, m) array: the same local test on each panel, and the halves of the
    split ones joined column by column.
    """
    x0, x1, x2, f0, f1, f2, s = panels
    accepted = []
    splits = 0
    while x0.size:
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        mid_values = f(np.concatenate([lm, rm]))
        flm, frm = mid_values[:x0.size], mid_values[x0.size:]
        left = quadrature._simpson(f0, flm, f1, x1 - x0)
        right = quadrature._simpson(f1, frm, f2, x2 - x1)
        err = (left + right - s) / 15.0
        done = (np.abs(err) <= tol * (x2 - x0)) | ~(
            (x0 < lm) & (lm < x1) & (x1 < rm) & (rm < x2))
        accepted.append((left + right + err)[done])
        split = ~done
        splits += int(np.count_nonzero(split))
        if splits > quadrature._MAX_SUBDIVISIONS:
            best = math.fsum(np.concatenate([*accepted, left[split], right[split]]))
            raise quadrature.QuadratureError("budget", best_estimate=best)
        x0, x1, x2, f0, f1, f2, s = (
            np.column_stack([lo[split], hi[split]]).ravel()
            for lo, hi in ((x0, x1), (lm, rm), (x1, x2), (f0, f1), (flm, frm),
                           (f1, f2), (left, right)))
    return math.fsum(np.concatenate(accepted))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
