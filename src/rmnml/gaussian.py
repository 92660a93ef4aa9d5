"""Riemannian Gaussian distribution on hyperbolic space.

Density with respect to the volume element:

    p_vol(x | mu, sigma) = exp(-d^2(x, mu) / (2 sigma^2)) / xi(sigma)

with the normalization constant xi.  log xi and the logs of the first two
moments of d^2 come from one log-domain radial quadrature,
:func:`radial_moments`, and the Fisher information is one log formula
over those moments, :func:`log_fisher_factors`.  The paper's closed form
of xi, and the Monte-Carlo and quadrature oracles of the Fisher information,
are kept in :mod:`rmnml.validation`.  Also log-likelihoods, seeded sampling and
maximum likelihood estimation by safeguarded Newton: for mu, the Frechet
mean in the frame of the boost to mu (:func:`rmnml.hyperbolic.boost`, the
one isometry kernel, which also carries the draws of :func:`sample`), with
the Hessian sum_i [u u^T + d coth d (I - u u^T)] >= n I, step
halving on too little decrease, and a stop below 1e-10 or at the rounding
floor of its frame; for sigma, on log E[d^2].
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import hyperbolic as hy
from .quadrature import gauss_legendre

if TYPE_CHECKING:
    from .complexity import ParamDomain

_MAX_FRECHET_ITERATIONS = 100
_FRECHET_STEP_TOL = 1e-10
#: Share of the first-order decrease a Frechet step must achieve.
_FRECHET_ARMIJO = 0.25
#: Rounding of a log map in :func:`frechet_mean`, per unit of mu0 x0_i d_i / sinh d_i.
_FRECHET_ROUNDING = 1e-15
_MAX_SIGMA_ITERATIONS = 60
#: A Newton step in log sigma whose square is at most this ends the sigma
#: solve: the next step is at most 0.37 times that square (measured to D = 100).
_SIGMA_SQUARED_STEP_TOL = 1e-15
#: Gauss-Legendre nodes of the radial rule in :func:`radial_moments`.
_RADIAL_NODES = 96
#: Half-width, in units of sigma, of the radial window about the mode.
_RADIAL_WINDOW = 10.0
#: sigma past which sigma^2 overflows.
_SIGMA_SQUARE_MAX = math.sqrt(sys.float_info.max)
#: sigma below which sigma^2 is no longer a normal float.
_SIGMA_SQUARE_MIN = math.sqrt(sys.float_info.min)
#: (D-1) times the largest sigma :func:`radial_moments` holds at D >= 2.
_SIGMA_CEILING = sys.float_info.max / (2.0 * _RADIAL_WINDOW)


class EstimationError(RuntimeError):
    """A solver of the fit, :func:`frechet_mean` or :func:`_solve_sigma`, did not converge."""


class RgdParams:
    """Location/scale parameters (mu, sigma) of the hyperbolic Gaussian.

    ``mu`` is stored as a read-only copy of its (D+1,) Lorentz coordinates,
    checked to lie on H^D.  ``sigma`` must be finite and at least
    sqrt(float min), about 1.49e-154, where sigma^2 is still a normal float.
    """

    def __init__(self, mu: np.ndarray, sigma: float):
        mu = np.array(mu, dtype=float)
        if mu.ndim != 1 or mu.size < 2:
            raise hy.GeometryError(f"mu needs a 1-D array of at least 2 Lorentz "
                                   f"components, got shape {mu.shape}")
        bad = hy.hyperboloid_violation(mu[None, :])
        if bad is not None:
            raise hy.GeometryError(bad[1])
        mu.setflags(write=False)
        if not 0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        if sigma < _SIGMA_SQUARE_MIN:
            raise ValueError(f"sigma must be at least {_SIGMA_SQUARE_MIN:.3g}, where "
                             f"sigma^2 underflows; got {sigma}")
        self._mu, self._sigma = mu, sigma

    @property
    def mu(self) -> np.ndarray:
        return self._mu

    @property
    def sigma(self) -> float:
        return self._sigma

    @property
    def dim(self) -> int:
        return self._mu.size - 1


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


def radial_moments(dim: int, sigma):
    """log xi(sigma), log E[d^2] and log Var(d^2) under the hyperbolic Gaussian.

    ``sigma`` may be a scalar or an array; each result has its shape.  The
    moments are those of r^2 under the radial density proportional to
    w(r) = exp(-r^2 / 2 sigma^2) sinh^(D-1) r, and xi is the sphere area
    times the integral of w.  :func:`log_fisher_factors` reads the Fisher
    information from the two moments.

    One fixed Gauss-Legendre rule in r covers a window of +-10 sigma about
    the mode m of log w, clipped at 0.  log w is concave with curvature at
    least 1/sigma^2, so the window leaves out less than exp(-50) of the
    mass.  The mode solves r tanh r = a with a = (D-1) sigma^2; it starts
    at sqrt(a^2 + a) and takes two Newton steps, and m is then a / tanh m.
    One step leaves the window off the mode at D >= 1e6, where the start is
    furthest off.  Past a = 400, tanh m rounds to 1, so a is capped there.

    Everything is relative to the mode, whose log w(m), about
    (D-1)^2 sigma^2 / 2, would swamp the spread across the window with its
    rounding at large sigma.  With r = m + sigma tau, k = m / sigma^2 and
    c = log w(m) = -k m / 2 + (D-1) log sinh m,
    log w(r) - c = tau sigma ((D-1) - k) - tau^2 / 2
                   + (D-1) log(expm1(-2r) / expm1(-2m)),
    about 0 at the mode, so exp needs no shift; the ratio keeps its digits
    where log sinh r is large and negative (small sigma, large D).  k is
    D-1 exactly once tanh m rounds to 1, so the window stays on the mode
    where m is too large to place it within sigma.  The moments are those
    of q = r^2 - m^2 = sigma^2 tau (2 k sigma + tau), divided by its scale
    S = sigma^2 (2 k sigma + 10) before any square and summed about the
    mean, so log E and log Var are finite while 20 (D-1) sigma is a float
    (:func:`check_sigma_max`).
    log xi, about (D-1)^2 sigma^2 / 2, is +inf past sigma = 1e154 / (D-1).
    The rule is :func:`gauss_legendre`'s cached, read-only pair, and each
    pass allocates its result, so a call leaves the rule and ``sigma`` as
    they were.
    """
    s = np.asarray(sigma, dtype=float)[..., None]
    slope = _mode_slope(dim, s)  # k
    k_sigma = slope * s  # m / sigma
    below = np.minimum(k_sigma, _RADIAL_WINDOW)  # the window is tau in [-below, 10]
    half = 0.5 * (_RADIAL_WINDOW + below)
    x, w = gauss_legendre(_RADIAL_NODES)
    tau = half * (x + 1.0) - below
    log_w = tau * (s * ((dim - 1) - slope) - 0.5 * tau) + np.log(w)
    # past sigma ~ 1e154 / (D-1), m and r overflow to inf: the expm1 ratio
    # is then 1, as it is, and log xi is +inf
    with np.errstate(over="ignore"):
        mode = k_sigma * s
        offset = mode * ((dim - 1) - 0.5 * slope)  # c + (D-1) log 2
        if dim > 1:
            tail = np.expm1(-2.0 * mode)
            log_w = log_w + (dim - 1) * np.log(np.expm1(-2.0 * s * (k_sigma + tau)) / tail)
            offset = offset + (dim - 1) * np.log(-tail)
    p = np.exp(log_w)
    z = p.sum(axis=-1)
    width = 2.0 * k_sigma + _RADIAL_WINDOW  # S / sigma^2
    q = tau * (2.0 * k_sigma + tau) / width  # (r^2 - m^2) / S
    mean_q = _row_dot(p, q) / z
    dev = q - mean_q[..., None]
    var_q = _row_dot(p, dev * dev) / z
    log_s = np.log(s[..., 0])
    log_scale = 2.0 * log_s + np.log(width[..., 0])  # log S
    mode_sq = (k_sigma * (k_sigma / width))[..., 0]  # m^2 / S
    log_xi = (hy.log_sphere_area(dim) - (dim - 1) * math.log(2.0) + offset[..., 0]
              + np.log(z * half[..., 0]) + log_s)
    return log_xi, log_scale + np.log(mode_sq + mean_q), 2.0 * log_scale + np.log(var_q)


def _mode_slope(dim: int, s: np.ndarray) -> np.ndarray:
    """k = m / sigma^2 at the mode m of log w, as :func:`radial_moments` finds it."""
    if dim == 1:
        return np.zeros_like(s)
    capped = np.minimum(s, 20.0 / math.sqrt(dim - 1))
    a = (dim - 1) * capped * capped
    mode = np.sqrt(a * (a + 1.0))
    for _ in range(2):
        tanh = np.tanh(mode)
        mode = mode - (mode * tanh - a) / (tanh + mode * (1.0 - tanh * tanh))
    return (dim - 1) / np.tanh(mode)


def check_sigma_max(dim: int, sigma_max: float) -> None:
    """Raise ValueError if ``sigma_max`` is past the largest sigma of :func:`radial_moments`.

    Past about sigma = 1e154 / (D-1) the kernel's log xi is +inf and its
    moments stay finite, but the window's scaled r^2 - m^2,
    (2 k sigma + tau) tau with k sigma = (D-1) sigma and tau below 10,
    overflows past float max / (20 (D-1)), about 9e306 / (D-1).  D = 1 has
    no bound.
    """
    if dim > 1 and sigma_max > _SIGMA_CEILING / (dim - 1):
        raise ValueError(
            f"sigma_max = {sigma_max!r} is past the largest sigma the moment kernel "
            f"holds at D = {dim}: float max / (20 (D - 1)) = {_SIGMA_CEILING / (dim - 1)!r}")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis, as one batched matrix product."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def log_fisher_factors(dim: int, sigma):
    """log c_mu and log I_sigma, the Fisher information of the hyperbolic Gaussian.

    In a normal orthonormal basis at mu, I_mu = c_mu Identity_D with the
    paper's c_mu = xi'/(D sigma xi) = E[d^2] / (D sigma^4), and
    I_sigma = Var(d^2) / sigma^6: log E - log D - 4 log sigma and
    log Var - 6 log sigma from one :func:`radial_moments` call.  ``sigma``
    may be a scalar or an array.  Raises ValueError unless D >= 1 and every
    sigma is positive.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    s = np.asarray(sigma, dtype=float)
    if not (s > 0).all():
        raise ValueError(f"sigma must be positive, got {sigma}")
    _, log_mean, log_var = radial_moments(dim, s)
    log_s = np.log(s)
    return log_mean - math.log(dim) - 4.0 * log_s, log_var - 6.0 * log_s


def log_pdf_vol_many(coords: np.ndarray, params: RgdParams) -> np.ndarray:
    """log p_vol for every row of an (n, D+1) Lorentz coordinate array."""
    return _log_pdf_vol(hy.dist_many(params.mu, coords), params)


def _sigma_overflow(params: RgdParams, n: int) -> OverflowError:
    """n log xi, about n (D-1)^2 sigma^2 / 2, past the float range, from about sigma =
    sqrt(float max) min(1, sqrt(2/n) / (D-1)) at D >= 2 (at D = 1 log xi is finite for
    every sigma): named as the log density at n = 1, else as the log-likelihood."""
    stage, size = ("log density", "") if n == 1 else ("log-likelihood", f" and n = {n}")
    bound = _SIGMA_SQUARE_MAX * min(1.0, math.sqrt(2.0 / n) / (params.dim - 1))
    return OverflowError(f"the {stage} at sigma = {params.sigma:.6g} overflows: at D = "
                         f"{params.dim}{size} it is finite only below about sigma = {bound:.3g}")


def _log_pdf_vol(d: np.ndarray, params: RgdParams, n: int = 1) -> np.ndarray:
    """log p_vol at the distances ``d`` from ``params.mu``; OverflowError where log xi
    overflows, named for a sum of ``n`` terms (:func:`_sigma_overflow`), and below
    sigma = d_max / (sqrt 2 sqrt(float max)), where d_max^2 / (2 sigma^2) does.  At
    D = 1, sigma^2 may be inf: d^2 / (2 sigma^2) is then 0, as it is to rounding."""
    log_xi = float(radial_moments(params.dim, params.sigma)[0])
    if log_xi == math.inf:
        raise _sigma_overflow(params, n)
    with np.errstate(over="ignore"):  # named below
        terms = -d * d / (2.0 * params.sigma * params.sigma) - log_xi
    if not np.isfinite(terms).all():
        far = float(np.max(d))
        raise OverflowError(f"the log density at sigma = {params.sigma:.6g} overflows: "
                            f"d^2 / (2 sigma^2) at the farthest distance, d = {far:.6g}, is "
                            f"finite only above about sigma = "
                            f"{far / (math.sqrt(2.0) * _SIGMA_SQUARE_MAX):.3g}")
    return terms


def _log_lik_sum(d: np.ndarray, params: RgdParams) -> float:
    """Sum -n log xi - sum d^2 / (2 sigma^2) of log p_vol at the distances ``d``;
    OverflowError naming a term (:func:`_log_pdf_vol`) or the larger part of a sum
    of finite terms: below sigma = 1, where n log xi is small, the distance part,
    finite above about sqrt(sum d^2 / 2) / sqrt(float max); above it, n log xi
    (:func:`_sigma_overflow`)."""
    with np.errstate(over="ignore"):  # named below
        total = float(np.sum(_log_pdf_vol(d, params, d.size)))
    if total == -math.inf and params.sigma < 1.0:
        raise OverflowError(f"the log-likelihood at sigma = {params.sigma:.6g} overflows: the "
                            f"sum of d^2 / (2 sigma^2) over n = {d.size} points is finite only "
                            f"above about sigma = {math.sqrt(d @ d / 2.0) / _SIGMA_SQUARE_MAX:.3g}")
    if total == -math.inf:
        raise _sigma_overflow(params, d.size)
    return total


def log_lik(data: Dataset, params: RgdParams) -> float:
    """Log-likelihood -n log xi(sigma) - sum_i d^2(x_i, mu) / (2 sigma^2);
    OverflowError names the stage past the float range (:func:`_log_lik_sum`)."""
    if data.dim != params.dim:
        raise ValueError(f"data dimension {data.dim} != parameter dimension {params.dim}")
    return _log_lik_sum(hy.dist_many(params.mu, data.coords), params)


def _radial_table(dim: int, sigma: float):
    """4096-node inverse-CDF table of the radial density on [0, end]; end is at
    least 10 sigma past the mode m = k sigma^2, where D is large and (D-1) sigma^2 small."""
    mode = float(_mode_slope(dim, np.float64(sigma))) * sigma * sigma
    end = max(sigma * sigma * (dim - 1) + 12.0 * sigma, mode + _RADIAL_WINDOW * sigma)
    r = np.linspace(0.0, end, 4096)
    logw = -r * r / (2.0 * sigma * sigma)  # log of exp(-r^2 / 2 sigma^2) sinh^(D-1) r
    if dim > 1:
        logw = logw + (dim - 1) * hy.log_sinh(r)
    w = np.exp(logw - np.max(logw))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(r))])
    cdf /= cdf[-1]
    return r, cdf


def sample(n: int, params: RgdParams, seed: int) -> Dataset:
    """Draw ``n`` points: tabulated inverse-CDF radius, uniform direction.

    The radius follows the density proportional to
    exp(-r^2 / 2 sigma^2) sinh^(D-1) r via a 4096-node inverse-CDF table
    with linear interpolation; the direction, a normal draw over its norm (at
    D = 1, its sign), is uniform on S^(D-1).  :func:`rmnml.hyperbolic.polar`
    builds the points at the origin and :func:`rmnml.hyperbolic.boost`
    carries them to ``mu`` in O(nD).  Deterministic for a fixed seed.

    The table spans [0, max(sigma^2 (D-1) + 12 sigma, m + 10 sigma)] in 4095
    steps, m the mode, and interpolation adds about step^2 / 3 to Var(r).
    E[d^2] of the drawn law is within a relative 1e-5 of
    :func:`radial_moments`, but Var(d^2) runs high by 2.9% at (D, sigma) =
    (3000, 0.4) (step 0.30 sigma) and by 8.0% at (10000, 0.2) (step 0.49
    sigma).  Item 2 of ROADMAP.md plans exact rejection sampling in place of
    the table.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = params.dim
    rng = np.random.default_rng(seed)
    # a sigma too wide for the float range leaves non-finite points, named below
    with np.errstate(over="ignore", invalid="ignore"):
        grid, cdf = _radial_table(dim, params.sigma)
        radii = np.interp(rng.uniform(0.0, 1.0, n), cdf, grid)
    g = rng.standard_normal((n, dim))
    # a zero draw has probability 0; regularize anyway
    dirs = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        moved = hy.boost(params.mu, hy.polar(radii, dirs))
    if not np.isfinite(moved).all():
        r_mu = math.acosh(max(float(params.mu[0]), 1.0))
        raise ValueError(f"sigma = {params.sigma!r} with mu at distance {r_mu:.6g} draws "
                         f"points past 710 from the origin, where Lorentz coordinates "
                         f"overflow (farthest draw {radii.max():.6g} from mu)")
    return Dataset(moved)


def frechet_mean(coords: np.ndarray) -> np.ndarray:
    """Minimizer of f(mu) = sum_i d^2(x_i, mu) by safeguarded Riemannian Newton.

    One (n, D) pass per iteration, in the frame of the boost T to mu
    (:func:`rmnml.hyperbolic.boost`): a_i, the spatial part of T^-1 x_i, the
    boost at (mu0, -mu_s), gives sinh d_i = |a_i| and
    log_mu x_i = (d_i / sinh d_i) a_i.  The Hessian of f/2,
    sum_i [u_i u_i^T + d_i coth d_i (I - u_i u_i^T)] with u_i = a_i / |a_i|, is
    >= n I, so the Newton step s exists; mu moves to the point with normal
    coordinates s about it, T (cosh|s|, sinh|s| s/|s|)
    (:func:`rmnml.hyperbolic.exp_normal`).
    A step is kept when f drops by a quarter of its first-order prediction,
    less the rounding of f, and is halved otherwise.  The frame rounds each
    log map by about 1e-15 mu0 x0_i d_i / sinh d_i, which sets that rounding
    and the accuracy of s.  Stops, taking the last step, when s is below
    1e-10 or stalls below that accuracy, as it does far from the origin.
    Starts from the Euclidean mean m scaled onto the sheet, or from the first
    point where rounding leaves -<m, m>_L below 1, as far clusters do.
    """
    mean = coords.mean(axis=0)
    # the Euclidean mean of points on the sheet has -<m, m>_L >= 1 (reverse
    # Cauchy-Schwarz), so a smaller value is rounding that destroyed the
    # projection: start from a data point instead
    mink = float(mean[1:] @ mean[1:] - mean[0] * mean[0])
    mu = mean / math.sqrt(-mink) if mink <= -1.0 else coords[0].copy()
    frame, eta, done = None, 1.0, False  # frame: the last kept point
    for _ in range(_MAX_FRECHET_ITERATIONS):
        inverse = np.concatenate([mu[:1], -mu[1:]])
        a = hy.boost(inverse, coords)[:, 1:]
        sinh_d = np.sqrt(np.einsum("ij,ij->i", a, a))
        d = np.arcsinh(sinh_d)
        value = float(d @ d)
        on_mu = sinh_d == 0.0  # where d = 0 too, and d / sinh d is 1 in the limit
        safe = sinh_d + on_mu
        coef = (d + on_mu) / safe
        error = _FRECHET_ROUNDING * mu[0] * coords[:, 0] * coef  # of each log map
        if frame is not None and value > kept_value - eta * decrease + 2.0 * float(d @ error):
            eta *= 0.5
        else:
            grad = coef @ a  # sum_i log_mu x_i in the frame
            u = a / safe[:, None]
            d_coth = coef * np.hypot(1.0, sinh_d)
            hess = (u.T * (1.0 - d_coth)) @ u
            hess.flat[::a.shape[1] + 1] += d_coth.sum()
            step = np.linalg.solve(hess, grad)
            norm = math.sqrt(float(step @ step))
            done = norm < max(_FRECHET_STEP_TOL, float(error.mean()))
            frame, kept_value, decrease, eta = mu, value, _FRECHET_ARMIJO * 2.0 * (grad @ step), 1.0
        mu = hy.exp_normal(frame, eta * step)
        if done:
            return mu
    raise EstimationError(
        f"Frechet mean did not converge in {_MAX_FRECHET_ITERATIONS} iterations")


def _solve_sigma(dim: int, target: float, lo: float, hi: float) -> tuple[float, bool]:
    """sigma in [lo, hi] with E[d^2](sigma) = target, and whether it clamped.

    E[d^2](sigma) = sigma^3 xi'(sigma) / xi(sigma) is strictly increasing
    in sigma, so the root is unique.  Newton's method on log E[d^2]
    against u = log sigma, whose slope d log E / du = Var(d^2) /
    (sigma^2 E[d^2]) follows from dE/dsigma = Var(d^2) / sigma^3.  The
    kernel gives log E and log Var, so the slope is exp(log Var - log E - 2u).
    The slope rises from 2 (small sigma) to 4 (large), so log E is convex
    and increasing in u.  From the right of the root a Newton step then
    never passes it, and from the left one step lands to its right, so the
    iterates need no bracket; each is clipped to [log lo, log hi], which
    keeps sigma in the domain.  The next step is at most 0.37 times the last one
    squared (measured to D = 100), so a step whose square is at most 1e-15 ends it.

    The first kernel call reads lo, hi and sigma_g = sqrt(s) clipped to
    [lo, hi], where s is the positive root of D s + (D-1)^2 s^2 = target,
    2 target / (D + sqrt(D^2 + 4 (D-1)^2 target)): E[d^2] runs from
    D sigma^2 (small sigma) to (D-1)^2 sigma^4 (large), and is sigma^2 at
    D = 1.  The first iterate is the cubic (Hermite) interpolant of u
    against log E, with those slopes, across whichever of [lo, sigma_g] and
    [sigma_g, hi] holds the target.
    """
    root = 2.0 * target / (dim + math.sqrt(dim * dim + 4.0 * (dim - 1) ** 2 * target))
    sigmas = [lo, min(max(math.sqrt(root), lo), hi), hi]
    _, log_e, log_v = (moment.tolist() for moment in radial_moments(dim, np.array(sigmas)))
    log_target = math.log(target) if target > 0.0 else -math.inf
    if log_target <= log_e[0]:
        return lo, True
    if log_target >= log_e[2]:
        return hi, True
    i = 0 if log_target <= log_e[1] else 1  # the points on either side of the root
    (u_0, u_1), (e_0, e_1), (v_0, v_1) = (map(math.log, sigmas[i:i + 2]), log_e[i:i + 2],
                                          log_v[i:i + 2])
    width = e_1 - e_0  # t runs from 0 to 1 across the pair
    t = (log_target - e_0) / width
    d_0 = width * math.exp(2.0 * u_0 + e_0 - v_0)
    d_1 = width * math.exp(2.0 * u_1 + e_1 - v_1)
    u = (u_0 + t * t * (3.0 - 2.0 * t) * (u_1 - u_0)
         + t * (1.0 - t) * ((1.0 - t) * d_0 - t * d_1))
    u = min(max(u, u_0), u_1)
    u_lo, u_hi = math.log(lo), math.log(hi)
    for _ in range(_MAX_SIGMA_ITERATIONS):
        _, log_mean, log_var = map(float, radial_moments(dim, math.exp(u)))
        new = u - (log_mean - log_target) * math.exp(2.0 * u + log_mean - log_var)
        new = min(max(new, u_lo), u_hi)
        if (new - u) ** 2 <= _SIGMA_SQUARED_STEP_TOL:
            return math.exp(new), False
        u = new
    raise EstimationError(
        f"sigma solve did not converge in {_MAX_SIGMA_ITERATIONS} iterations")


class MleFit(NamedTuple):
    """MLE result with flags recording clamping to the parameter domain, and
    ``max_log_lik``: the sum of :func:`log_lik` over the fit's distances, so
    ``log_lik(data, params)`` bit for bit."""

    params: RgdParams
    mu_clamped: bool
    sigma_clamped: bool
    max_log_lik: float

    @property
    def boundary(self) -> bool:
        return self.mu_clamped or self.sigma_clamped


def mle(data: Dataset, domain: "ParamDomain") -> MleFit:
    """Maximum likelihood fit of (mu, sigma), clamped to ``domain``.

    Every point must lie within ``hyperbolic.DATA_RADIUS`` (350) of the
    origin, or ``ValueError`` names the farthest one.  mu is the Frechet
    mean, pulled back to the geodesic ball of radius ``domain.radius_R``
    about the origin if it falls outside (:func:`rmnml.hyperbolic.polar`);
    sigma solves E[d^2](sigma) = sigma^3 xi'/xi = mean d^2(x_i, mu) by Newton
    on log E[d^2], convex in log sigma, from a cubic start between a
    closed-form sigma and the domain end beyond the root, each iterate clipped
    to [sigma_min, sigma_max] (:func:`_solve_sigma`), with boundary values used
    (and flagged) when the equation has no interior root.  A ``sigma_max`` past
    :func:`check_sigma_max`'s bound is a ValueError.  The maximized
    log-likelihood is :func:`log_lik`'s one sum over the fit's distances, whose
    OverflowError names sigma_hat and its bound (:func:`_log_lik_sum`).
    """
    if data.n < 2:
        raise ValueError("the MLE needs at least 2 points (sigma is degenerate at n=1)")
    check_sigma_max(data.dim, domain.sigma_max)
    far = int(np.argmax(data.coords[:, 0]))
    if data.coords[far, 0] > math.cosh(hy.DATA_RADIUS):
        raise ValueError(f"point {far} lies {math.acosh(data.coords[far, 0]):.6g} from "
                         f"the origin, past the data bound of {hy.DATA_RADIUS:g}: "
                         f"the estimators need x0 <= cosh {hy.DATA_RADIUS:g}")
    dim = data.dim
    mu = frechet_mean(data.coords)

    mu_clamped = float(np.arccosh(max(mu[0], 1.0))) > domain.radius_R
    if mu_clamped:  # the point at radius R in the direction of mu
        mu = hy.polar(domain.radius_R, mu[1:] / math.hypot(*mu[1:]))

    d = hy.dist_many(mu, data.coords)
    target = float(d @ d) / data.n

    sigma, sigma_clamped = _solve_sigma(dim, target, domain.sigma_min,
                                        domain.sigma_max)
    params = RgdParams(mu, sigma)
    return MleFit(params, mu_clamped, sigma_clamped, _log_lik_sum(d, params))
