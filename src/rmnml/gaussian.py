"""Riemannian Gaussian distribution on hyperbolic space.

Density with respect to the volume element:

    p_vol(x | mu, sigma) = exp(-d^2(x, mu) / (2 sigma^2)) / xi(sigma)

with the normalization constant xi.  log xi and the first two moments of
d^2 come from one log-domain radial quadrature, :func:`radial_moments`,
which is also the kernel of the Fisher information in
:mod:`rmnml.fisher`.  The paper's closed form of xi is kept as an oracle
in :mod:`rmnml.validation`.  Also log-likelihoods, seeded sampling and
maximum likelihood estimation (Frechet mean + safeguarded Newton for
sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import hyperbolic as hy
from .quadrature import gauss_legendre

if TYPE_CHECKING:
    from .complexity import ParamDomain

_MAX_FRECHET_ITERATIONS = 10_000
_FRECHET_STEP_TOL = 1e-10
#: Share of the first-order decrease a Frechet step must achieve.
_FRECHET_ARMIJO = 0.25
_MAX_SIGMA_ITERATIONS = 60
#: Newton steps in log sigma below this size end the sigma solve.
_SIGMA_STEP_TOL = 1e-14
#: Gauss-Legendre nodes of the radial rule in :func:`radial_moments`.
_RADIAL_NODES = 96
#: Half-width, in units of sigma, of the radial window about the mode.
_RADIAL_WINDOW = 10.0


class EstimationError(RuntimeError):
    """Maximum likelihood estimation failed to converge."""


@dataclass(frozen=True, eq=False)
class RgdParams:
    """Location/scale parameters (mu, sigma) of the hyperbolic Gaussian.

    ``mu`` is stored as a read-only copy of its (D+1,) Lorentz coordinates,
    checked to lie on H^D.
    """

    mu: np.ndarray
    sigma: float

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size < 2:
            raise hy.GeometryError(f"mu needs a 1-D array of at least 2 Lorentz "
                                   f"components, got shape {mu.shape}")
        bad = hy.hyperboloid_violation(mu[None, :])
        if bad is not None:
            raise hy.GeometryError(bad[1])
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def dim(self) -> int:
        return self.mu.size - 1


class Dataset:
    """Sample of points of H^D stored as an (n, D+1) Lorentz coordinate array."""

    def __init__(self, coords: np.ndarray):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] < 2:
            raise ValueError(f"expected an (n, D+1) array, got shape {coords.shape}")
        if coords.shape[0] < 1:
            raise ValueError("a dataset needs at least one point")
        bad = hy.hyperboloid_violation(coords)
        if bad is not None:
            raise ValueError(f"point {bad[0]} is invalid: {bad[1]}")
        self._coords = coords.copy()
        self._coords.setflags(write=False)

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[1] - 1

    @property
    def n(self) -> int:
        return self._coords.shape[0]

    def __len__(self) -> int:
        return self.n

    def transformed(self, T: np.ndarray) -> "Dataset":
        """Dataset with every point mapped through the isometry matrix T."""
        return Dataset(self._coords @ T.T)


def radial_cutoff(dim: int, sigma: float, tail: float = 40.0) -> float:
    """Truncation radius for integrals of exp(-r^2/2s^2) sinh^(D-1) r.

    The integrand completes to a Gaussian centered near sigma^2 (D-1) with
    width sigma, so ``tail`` standard deviations beyond that point leave a
    negligible remainder (below 1e-300 at the default).
    """
    return sigma * sigma * (dim - 1) + tail * sigma


def log_radial_weight(dim: int, r: np.ndarray, sigma: float) -> np.ndarray:
    """log of exp(-r^2 / 2 sigma^2) sinh^(D-1)(r), stable for large r."""
    r = np.asarray(r, dtype=float)
    gauss = -r * r / (2.0 * sigma * sigma)
    if dim == 1:
        return gauss
    return gauss + (dim - 1) * hy.log_sinh(r)


def radial_moments(dim: int, sigma):
    """log xi(sigma), E[d^2] and Var(d^2) under the hyperbolic Gaussian.

    ``sigma`` may be a scalar or an array; each result has its shape.  The
    moments are those of r^2 under the radial density proportional to
    w(r) = exp(-r^2 / 2 sigma^2) sinh^(D-1) r, and xi is the sphere area
    times the integral of w.  They give the Fisher factors:
    xi'/(D sigma xi) = E[d^2] / (D sigma^4) and I_sigma = Var(d^2) / sigma^6.

    One fixed Gauss-Legendre rule in r covers a window of +-10 sigma about
    the mode m of log w, clipped at 0.  log w is concave with curvature at
    least 1/sigma^2, so the window leaves out less than exp(-50) of the
    mass.  The mode solves r tanh r = a with a = (D-1) sigma^2; it starts
    at sqrt(a^2 + a) and takes one Newton step, and m is then a / tanh m.

    Everything is relative to the mode, whose log w(m), about
    (D-1)^2 sigma^2 / 2, would swamp the spread across the window with its
    rounding at large sigma.  With t = r - m, k = m / sigma^2 and
    c = -m^2 / (2 sigma^2) + (D-1) (m - log 2),
    log w(r) - c = t ((D-1) - k) - t^2 / (2 sigma^2) + (D-1) log(1 - exp(-2r)),
    and the moments are those of q = r^2 - m^2 = t (2m + t).
    k = (D-1) / tanh m is D-1 exactly once tanh m rounds to 1, so the
    window stays on the mode where m itself is too large to place it
    within sigma.  Each row's largest log weight is subtracted before exp,
    and the variance is summed about the mean.
    """
    s = np.asarray(sigma, dtype=float)[..., None]
    two_s2 = 2.0 * s * s
    if dim > 1:
        a = (dim - 1) * s * s
        mode = np.sqrt(a * (a + 1.0))
        tanh = np.tanh(mode)
        mode = mode - (mode * tanh - a) / (tanh + mode * (1.0 - tanh * tanh))
        slope = (dim - 1) / np.tanh(mode)  # k
        mode = slope * s * s
    else:
        slope = mode = np.zeros_like(s)
    t_lo = -np.minimum(mode, _RADIAL_WINDOW * s)
    half = 0.5 * (_RADIAL_WINDOW * s - t_lo)
    x, w = gauss_legendre(_RADIAL_NODES)
    t = t_lo + half * (x + 1.0)
    log_w = t * ((dim - 1) - slope - t / two_s2) + np.log(w)
    offset = -0.5 * slope * mode  # c
    if dim > 1:
        log_w += (dim - 1) * np.log(-np.expm1(-2.0 * (mode + t)))
        offset += (dim - 1) * (mode - math.log(2.0))
    top = log_w.max(axis=-1, keepdims=True)
    p = np.exp(log_w - top)
    z = p.sum(axis=-1)
    q = t * (2.0 * mode + t)
    mean_q = (p * q).sum(axis=-1) / z
    var = (p * (q - mean_q[..., None]) ** 2).sum(axis=-1) / z
    log_xi = (hy.log_sphere_area(dim) + (offset + top)[..., 0]
              + np.log(z * half[..., 0]))
    return log_xi, mode[..., 0] ** 2 + mean_q, var


def log_pdf_vol_many(coords: np.ndarray, params: RgdParams) -> np.ndarray:
    """log p_vol for every row of an (n, D+1) Lorentz coordinate array."""
    d = hy.dist_many(params.mu, coords)
    log_xi = float(radial_moments(params.dim, params.sigma)[0])
    return -d * d / (2.0 * params.sigma ** 2) - log_xi


def log_lik(data: Dataset, params: RgdParams) -> float:
    """Log-likelihood -n log xi(sigma) - sum_i d^2(x_i, mu) / (2 sigma^2)."""
    if data.dim != params.dim:
        raise ValueError(f"data dimension {data.dim} != parameter dimension {params.dim}")
    return float(np.sum(log_pdf_vol_many(data.coords, params)))


def _radial_table(dim: int, sigma: float):
    """4096-node inverse-CDF table of the radial density on [0, cutoff]."""
    r = np.linspace(0.0, radial_cutoff(dim, sigma, tail=12.0), 4096)
    logw = log_radial_weight(dim, r, sigma)
    w = np.exp(logw - np.max(logw))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(r))])
    cdf /= cdf[-1]
    return r, cdf


def sample(n: int, params: RgdParams, seed: int) -> Dataset:
    """Draw ``n`` points: tabulated inverse-CDF radius, uniform direction.

    The radius follows the density proportional to
    exp(-r^2 / 2 sigma^2) sinh^(D-1) r via a 4096-node inverse-CDF table
    with linear interpolation; the direction is uniform on S^(D-1).  The
    polar point at the origin is then carried to ``mu`` by the isometry
    :func:`rmnml.hyperbolic.isometry_to`.  Deterministic for a fixed seed.

    The nodes lie (sigma^2 (D-1) + 12 sigma) / 4095 apart, and interpolation
    adds about spacing^2 / 3 to Var(r).  Against :func:`radial_moments`, the
    drawn law's E[d^2] is within a relative 1e-5, but Var(d^2) runs high by
    2.9% at (D, sigma) = (3000, 0.4) (spacing 0.30 sigma) and by 8.0% at
    (10000, 0.2) (spacing 0.49 sigma).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = params.dim
    rng = np.random.default_rng(seed)
    grid, cdf = _radial_table(dim, params.sigma)
    radii = np.interp(rng.uniform(0.0, 1.0, n), cdf, grid)
    if dim == 1:
        dirs = (rng.integers(0, 2, size=(n, 1)) * 2 - 1).astype(float)
    else:
        g = rng.standard_normal((n, dim))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        # a zero draw has probability 0; regularize anyway
        dirs = g / np.maximum(norms, 1e-300)
    coords = np.empty((n, dim + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        coords[:, 0] = np.cosh(radii)
        coords[:, 1:] = np.sinh(radii)[:, None] * dirs
        moved = coords @ hy.isometry_to(params.mu).T
    if not np.isfinite(moved).all():
        r_mu = math.acosh(max(float(params.mu[0]), 1.0))
        raise ValueError(f"sigma = {params.sigma!r} with mu at distance {r_mu:.6g} draws "
                         f"points past 710 from the origin, where Lorentz coordinates "
                         f"overflow (farthest draw {radii.max():.6g} from mu)")
    return Dataset(moved)


def frechet_mean(coords: np.ndarray) -> np.ndarray:
    """Minimizer of sum_i d^2(x_i, mu) by Riemannian gradient descent.

    Update mu <- exp_mu((eta/n) sum_i log_mu(x_i)) starting from eta = 1.
    A step is taken only on sufficient decrease, by at least a quarter of
    the first-order decrease 2 n eta |grad|^2; otherwise eta is halved.
    Plain decrease is not enough: near a Hessian eigenvalue of 2 the unit
    step oscillates, contracting by a factor of about 0.9994 per
    iteration.  Stops when the step norm drops below 1e-10.
    """
    n = coords.shape[0]
    mean = coords.mean(axis=0)
    # the Euclidean mean of hyperboloid points is timelike, so this projection
    # onto the sheet is always defined
    mink = float(mean[1:] @ mean[1:] - mean[0] * mean[0])
    mu = mean / math.sqrt(-mink)
    d = hy.dist_many(mu, coords)
    value = float(d @ d)
    eta = 1.0
    for _ in range(_MAX_FRECHET_ITERATIONS):
        alpha = np.cosh(d)
        u = coords - alpha[:, None] * mu[None, :]
        sinh_d = np.sqrt(np.maximum(alpha * alpha - 1.0, 0.0))
        coef = np.where(sinh_d > 1e-15, d / np.maximum(sinh_d, 1e-300), 1.0)
        grad = (coef[:, None] * u).sum(axis=0) / n
        # re-project: rounding in alpha leaves a non-tangent component that
        # would otherwise feed back through the exponential map
        grad += (grad[1:] @ mu[1:] - grad[0] * mu[0]) * mu
        grad_sq = max(float(grad[1:] @ grad[1:] - grad[0] * grad[0]), 0.0)
        if eta * math.sqrt(grad_sq) < _FRECHET_STEP_TOL:
            return mu
        candidate = hy.exp_map(mu, eta * grad)
        new_d = hy.dist_many(candidate, coords)
        new_value = float(new_d @ new_d)
        if new_value <= value - _FRECHET_ARMIJO * 2.0 * n * eta * grad_sq:
            mu, value, d = candidate, new_value, new_d
        else:
            eta *= 0.5
    raise EstimationError(
        f"Frechet mean did not converge in {_MAX_FRECHET_ITERATIONS} iterations")


def _solve_sigma(dim: int, target: float, lo: float, hi: float) -> tuple[float, bool]:
    """sigma in [lo, hi] with E[d^2](sigma) = target, and whether it clamped.

    E[d^2](sigma) = sigma^3 xi'(sigma) / xi(sigma) is strictly increasing
    in sigma, so the root is unique.  Newton's method on log E[d^2]
    against u = log sigma, whose slope d log E / du = Var(d^2) /
    (sigma^2 E[d^2]) follows from dE/dsigma = Var(d^2) / sigma^3.  The
    slope runs from 2 (small sigma) to 4 (large), so the log-log curve is
    nearly straight.  A bracket on u is kept, and a step that leaves it is
    replaced by bisection.
    """
    _, ends, _ = radial_moments(dim, np.array([lo, hi]))
    if target <= ends[0]:
        return lo, True
    if target >= ends[1]:
        return hi, True
    log_target = math.log(target)
    u_lo, u_hi = math.log(lo), math.log(hi)
    log_lo, log_hi = math.log(ends[0]), math.log(ends[1])
    # secant through the bracket ends as the first iterate
    u = u_lo + (log_target - log_lo) * (u_hi - u_lo) / (log_hi - log_lo)
    for _ in range(_MAX_SIGMA_ITERATIONS):
        sigma = math.exp(u)
        _, mean, var = radial_moments(dim, sigma)
        gap = math.log(mean) - log_target
        if gap < 0.0:
            u_lo = u
        else:
            u_hi = u
        step = gap * sigma * sigma * float(mean) / float(var)
        new = u - step
        if not u_lo <= new <= u_hi:
            new = 0.5 * (u_lo + u_hi)
        if abs(new - u) <= _SIGMA_STEP_TOL or u_hi - u_lo <= _SIGMA_STEP_TOL:
            return math.exp(new), False
        u = new
    raise EstimationError(
        f"sigma solve did not converge in {_MAX_SIGMA_ITERATIONS} iterations")


@dataclass(frozen=True)
class MleFit:
    """MLE result with flags recording clamping to the parameter domain."""

    params: RgdParams
    mu_clamped: bool
    sigma_clamped: bool

    @property
    def boundary(self) -> bool:
        return self.mu_clamped or self.sigma_clamped


def mle(data: Dataset, domain: "ParamDomain") -> MleFit:
    """Maximum likelihood fit of (mu, sigma), clamped to ``domain``.

    Every point must lie within ``hyperbolic.DATA_RADIUS`` (350) of the
    origin, or ``ValueError`` names the farthest one.  mu is the Frechet
    mean, pulled back to the geodesic ball of radius ``domain.radius_R``
    about the origin if it falls outside; sigma solves
    E[d^2](sigma) = sigma^3 xi'/xi = mean d^2(x_i, mu) by safeguarded
    Newton on [sigma_min, sigma_max], with boundary values used (and
    flagged) when the equation has no interior root.
    """
    if data.n < 2:
        raise ValueError("the MLE needs at least 2 points (sigma is degenerate at n=1)")
    far = int(np.argmax(data.coords[:, 0]))
    if data.coords[far, 0] > math.cosh(hy.DATA_RADIUS):
        raise ValueError(f"point {far} lies {math.acosh(data.coords[far, 0]):.6g} from "
                         f"the origin, past the data bound of {hy.DATA_RADIUS:g}: "
                         f"the estimators need x0 <= cosh {hy.DATA_RADIUS:g}")
    dim = data.dim
    mu = frechet_mean(data.coords)

    mu_clamped = False
    r_mu = float(np.arccosh(max(mu[0], 1.0)))
    if r_mu > domain.radius_R:
        # the point at radius R in the direction of mu: (cosh R, sinh R s/|s|)
        radius, spatial = domain.radius_R, mu[1:]
        direction = spatial / math.hypot(*spatial)
        mu = np.concatenate([[math.cosh(radius)], math.sinh(radius) * direction])
        mu_clamped = True

    d = hy.dist_many(mu, data.coords)
    target = float(d @ d) / data.n

    sigma, sigma_clamped = _solve_sigma(dim, target, domain.sigma_min,
                                        domain.sigma_max)
    return MleFit(RgdParams(mu, sigma), mu_clamped, sigma_clamped)
