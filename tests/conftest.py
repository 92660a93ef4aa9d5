import math

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml import quadrature, validation
from rmnml.gaussian import Dataset, RgdParams, log_fisher_factors, log_pdf_vol_many, sample
from rmnml.validation import FisherBlock, adaptive_gauss_kronrod, xi, xi_derivatives


def exp_map(base: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Geodesic exponential cosh(|v|) base + sinh(|v|) v/|v|.

    ``vec`` is a tangent vector at ``base`` (Minkowski-orthogonal to it);
    that is not checked.
    """
    sq = float(vec[1:] @ vec[1:] - vec[0] * vec[0])
    nrm = math.sqrt(max(sq, 0.0))
    if nrm == 0.0:
        return base.copy()
    out = math.cosh(nrm) * base + math.sinh(nrm) / nrm * vec
    # exact hyperboloid projection; without it iterated maps amplify the
    # rounding residual geometrically
    out[0] = math.hypot(1.0, float(np.linalg.norm(out[1:])))
    return out


def isometry_matrix(mu: np.ndarray) -> np.ndarray:
    """The (D+1)x(D+1) Lorentz boost T with T o = mu, written out entry by entry.

    With mu = (mu0, s u), |u| = 1: T = [[mu0, s u^T], [s u, I + (mu0 - 1) u u^T]].
    The reference that :func:`rmnml.hyperbolic.boost` is checked against.
    """
    s = math.hypot(*mu[1:])
    T = np.eye(mu.size)
    if s == 0.0:
        return T
    u = mu[1:] / s
    T[0, 0] = mu[0]
    T[0, 1:] = T[1:, 0] = s * u
    T[1:, 1:] += (mu[0] - 1.0) * np.outer(u, u)
    return T


def random_point(rng: np.random.Generator, dim: int, max_radius: float = 2.0) -> np.ndarray:
    """Uniform-direction point at a random radius, built through the exp map."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    r = rng.uniform(0.0, max_radius)
    vec = np.zeros(dim + 1)
    vec[1:] = r * direction
    return exp_map(hy.origin(dim), vec)


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
    """log vol of a geodesic ball in H^dim by adaptive Gauss-Kronrod in r.

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
            + math.log(adaptive_gauss_kronrod(scaled, 0.0, radius, 1e-11)))


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
    shares between offsets: the same draws, normal coordinates and central differences,
    with each offset's density evaluated from scratch.
    """
    x = sample(n_samples, params, seed).coords
    dim, sigma, step = params.dim, params.sigma, validation._FD_STEP
    k = dim + 1

    def logp(offset):
        return log_pdf_vol_many(x, RgdParams(hy.exp_normal(params.mu, offset[:dim]),
                                             sigma + offset[dim]))

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


def int64_bits(values) -> np.ndarray:
    """The bit patterns of float ``values``, to compare them exactly, nan and -0.0 included."""
    return np.asarray(values, dtype=float).view(np.int64)


def gauss_kronrod_one_integral(f, a: float, b: float, rel_tol: float) -> float:
    """The adaptive Gauss-Kronrod rule on one integral, refined on its own.

    The reference for :func:`rmnml.validation.adaptive_gauss_kronrod`, which
    refines a stack of integrals together: the rule as it was before it took
    stacks, with ``np.linspace(a, b, 9)`` seed panels, a running total, budget,
    capped redo and split budget of its own, and the sums of one (15, m)
    block of values per level.  ``f`` takes the abscissae alone.
    """
    edges = np.linspace(a, b, validation._SEED_PANELS + 1)
    cap = math.inf
    for _ in range(3):
        total, error = _refine_one_integral(f, np.stack((edges[:-1], edges[1:])), rel_tol,
                                            cap, b - a)
        if error <= rel_tol * abs(total):
            break
        cap = abs(total)
    return total


def _refine_one_integral(f, panels, rel_tol, cap, length):
    accepted, errors = [], []
    splits = 0
    while True:
        lo, hi = panels
        half = 0.5 * (hi - lo)
        values = f((0.5 * (lo + hi) + np.multiply.outer(validation._NODES_15, half)).ravel())
        values = values.reshape(validation._NODES_15.size, lo.size)
        kron = half * (validation._KRONROD_15 @ values)
        gauss = half * (validation._GAUSS_15 @ values[1::2])
        mass = half * (validation._KRONROD_15 @ np.abs(values))
        diff = np.abs(kron - gauss)
        total = math.fsum(np.concatenate([*accepted, kron]).tolist())
        budget = rel_tol * min(abs(total), cap) / length
        within = diff <= budget * (hi - lo)
        mid = 0.5 * (lo + hi)
        done = within | (diff <= validation._ROUNDING_FLOOR * mass) | ~((lo < mid) & (mid < hi))
        accepted.append(kron[done])
        errors.append(diff[within])
        split = ~done
        count = int(np.count_nonzero(split))
        if not count:
            return (math.fsum(np.concatenate(accepted).tolist()),
                    math.fsum(np.concatenate(errors).tolist()))
        splits += count
        if splits > validation._MAX_SUBDIVISIONS:
            raise quadrature.QuadratureError("budget", best_estimate=total)
        panels = np.stack((lo, mid, mid, hi)).T[split].reshape(-1, 2).T


def refine_by_columns(f, panels, owner, rel_tol, cap, length):
    """The adaptive Gauss-Kronrod level loop on one integral, with the panel
    ends as two separate arrays.

    The reference for :func:`rmnml.validation._refine` on a stack of one,
    which holds the ends as one (2, m) array: the same sums, budget and
    tests on each panel, and the halves of the split ones joined column by
    column.  Returns the total and the summed estimates as the two rows of an
    array as long as the stack, as the rule reads them.
    """
    (j,) = set(owner.tolist())
    result = np.full((2, cap.size), math.nan)
    cap, length = cap[j], length[j]
    lo, hi = panels
    accepted, errors = [], []
    splits = 0
    while lo.size:
        kron, gauss, mass = validation._kronrod_sums(f, lo, hi, np.full(lo.size, j),
                                                     [(0, lo.size)])
        diff = np.abs(kron - gauss)
        total = math.fsum(np.concatenate([*accepted, kron]))
        budget = rel_tol * min(abs(total), cap) / length
        within = diff <= budget * (hi - lo)
        mid = 0.5 * (lo + hi)
        done = within | (diff <= validation._ROUNDING_FLOOR * mass) | ~((lo < mid) & (mid < hi))
        accepted.append(kron[done])
        errors.append(diff[within])
        split = ~done
        splits += int(np.count_nonzero(split))
        if splits > validation._MAX_SUBDIVISIONS:
            raise quadrature.QuadratureError("budget", best_estimate=total)
        lo, hi = (np.column_stack([left[split], right[split]]).ravel()
                  for left, right in ((lo, mid), (mid, hi)))
    result[:, j] = math.fsum(np.concatenate(accepted)), math.fsum(np.concatenate(errors))
    return result


def hyperboloid_violation_by_norms(coords: np.ndarray):
    """The hyperboloid row check with per-row norms and per-row finiteness.

    The reference for :func:`rmnml.hyperbolic.hyperboloid_violation`, which
    takes the spatial square norms from one ``einsum`` and checks finiteness
    over the whole array: the same residual, tolerance, row and message.
    """
    x0 = coords[:, 0]
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(1.0, x0)
        s = np.hypot(1.0 / scale, np.linalg.norm(coords[:, 1:] / scale[:, None], axis=1))
        scaled = (s - x0 / scale) * (s + x0 / scale)
        finite = np.isfinite(coords).all(axis=1)
        ok = finite & (x0 > 0) & (np.abs(scaled) <= hy.ON_MANIFOLD_TOL)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    if not finite[i]:
        return i, "coordinates must be finite"
    if not x0[i] > 0:
        return i, f"x0 must be positive, got {x0[i]}"
    product = float(scaled[i]) * float(scale[i]) * float(scale[i]) - 1.0
    if math.isfinite(product):
        return i, f"point is off the hyperboloid: <x,x>_L = {product!r}"
    return i, f"point is off the hyperboloid: (<x,x>_L + 1) / x0^2 = {float(scaled[i])!r}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
