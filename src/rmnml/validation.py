"""Oracles of the library's kernels, and the self-check suites of ``validate``.

Each suite reruns one of the independent oracles (quadrature, Monte
Carlo, reparameterization, Kraft) against the production kernels and
reports a pass/fail line.  The oracles live here only: the paper's
closed-form :func:`xi` and its derivatives and :func:`xi_quadrature_oracle`
for :func:`rmnml.gaussian.radial_moments`; the Monte-Carlo Fisher estimate
:func:`fisher_numeric` for :func:`rmnml.gaussian.log_fisher_factors`; the
Simpson integral :func:`fisher_integral` for the complexity's rule in
log sigma; and :func:`pc_mc_gauss1d`, a Monte-Carlo parametric complexity
of N(theta, 1), for the asymptotic formula.  The Kraft suite codes with
:func:`rmnml.gaussian.log_pdf_vol_many`, the density of the code-length.
Tests confirm that the suites detect errors by patching the names ``xi``,
``radial_moments`` and ``log_pdf_vol_many`` here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import coding, hyperbolic as hy
from .complexity import ParamDomain, pc_general, pc_hgd
from .gaussian import (RgdParams, _log_pdf_vol, log_fisher_factors, log_pdf_vol_many,
                       log_radial_weight, radial_cutoff, radial_moments, sample)
from .quadrature import integrate_1d

#: Step of the central differences in :func:`fisher_numeric`.
_FD_STEP = 1e-4


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    #: Wall time of the suite, set by :func:`run_all`.
    seconds: float = 0.0


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    """math.fsum over the last axis: each sum is exactly rounded."""
    sums = map(math.fsum, a.reshape(-1, a.shape[-1]).tolist())
    return np.fromiter(sums, float).reshape(a.shape[:-1])


def _xi_terms(dim: int, sigma: np.ndarray):
    """Prefactor K and per-term arrays of the xi expansion.

    xi(sigma) = K * sigma * sum_i a_i with
    a_i = (-1)^i C(D-1, i) exp(sigma^2 p_i^2 / 2) erfc(-p_i sigma / sqrt 2),
    p_i = (D - 1) - 2i.  ``a`` has the shape of ``sigma`` plus a last axis
    of the D terms.
    """
    K = (math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
         * math.sqrt(math.pi / 2.0) / 2.0 ** (dim - 2))
    i = np.arange(dim)
    p = (dim - 1) - 2.0 * i
    b = (-1.0) ** i * np.array([math.comb(dim - 1, k) for k in range(dim)], dtype=float)
    s = sigma[..., None]
    erfc = _erfc(-p * s / math.sqrt(2.0)).astype(float)
    a = b * np.exp(0.5 * s * s * p * p) * erfc
    return K, a, b, p


def _checked_sigma(dim: int, sigma) -> np.ndarray:
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    s = np.asarray(sigma, dtype=float)
    if not np.all(s > 0):
        raise ValueError("sigma must be positive")
    return s


def xi(dim: int, sigma):
    """Normalization constant of the hyperbolic Gaussian, in closed form.

    ``sigma`` may be a scalar or an array; the result has its shape.
    Accurate to about 1e-12 relative for D <= 5 (4e-12 at D = 5,
    sigma = 0.05; 1e-13 for sigma >= 0.1).  Beyond that the alternating
    binomial sum amplifies the rounding of each term: on sigma in
    [0.05, 3] the error reaches 1e-8 at D = 9 and 4e-6 at D = 12, and at
    D >= 16 the terms overflow.  An oracle for
    :func:`rmnml.gaussian.radial_moments`.
    """
    s = _checked_sigma(dim, sigma)
    K, a, _, _ = _xi_terms(dim, s)
    return (K * s * _fsum_rows(a))[()]


def xi_derivatives(dim: int, sigma):
    """First and second derivatives of :func:`xi` with respect to sigma.

    ``sigma`` may be a scalar or an array; both results have its shape.
    Obtained by differentiating the closed form; the b_i p_i sums vanish
    for most dimensions but are required at D = 2 (and contribute to the
    second derivative at even D >= 4).
    """
    s = _checked_sigma(dim, sigma)
    K, a, b, p = _xi_terms(dim, s)
    sum_a = _fsum_rows(a)
    sum_ap2 = _fsum_rows(a * p * p)
    sum_ap4 = _fsum_rows(a * p ** 4)
    sum_bp = math.fsum(b * p)
    sum_bp3 = math.fsum(b * p ** 3)
    c = math.sqrt(2.0 / math.pi)
    d1 = K * (sum_a + s * s * sum_ap2 + s * c * sum_bp)
    # float_power rounds as a Python float's ** does; numpy's ** on arrays
    # can differ in the last bit
    d2 = K * (3.0 * s * sum_ap2 + np.float_power(s, 3) * sum_ap4
              + c * (2.0 * sum_bp + s * s * sum_bp3))
    return d1[()], d2[()]


def xi_quadrature_oracle(dim: int, sigma: float) -> float:
    """xi by direct quadrature of its defining radial integral."""
    cutoff = radial_cutoff(dim, sigma)
    integral = integrate_1d(
        lambda r: np.exp(log_radial_weight(dim, r, sigma)),
        0.0, cutoff, 1e-12)
    return math.exp(hy.log_sphere_area(dim)) * integral


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
    Standard errors are reported per entry.  The distances take one
    :func:`rmnml.hyperbolic.dist_many` pass per distinct mu offset (3, 9
    and 19 at D = 1, 2 and 3), which the sigma offsets share through the
    density step of :func:`rmnml.gaussian.log_pdf_vol_many`.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be >= 1e4 for a usable estimate")
    x = sample(n_samples, params, seed).coords
    n = x.shape[0]
    dim = params.dim
    sigma = params.sigma
    chart = normal_chart(params.mu)
    k = dim + 1  # eta = (t_1..t_D, sigma)

    dists = {}  # by the mu offset's value, so -0.0 and 0.0 share a key

    def logp(offset: np.ndarray) -> np.ndarray:
        key = tuple(offset[:dim].tolist())
        if key not in dists:
            dists[key] = hy.dist_many(chart(offset[:dim]), x)
        return _log_pdf_vol(dists[key], RgdParams(params.mu, sigma + offset[dim]))

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


def fisher_integral(dim: int, domain: ParamDomain, rel_tol: float = 1e-10) -> float:
    """Integral of sqrt(det I) over the compact domain Theta x Gamma.

    Factorizes as vol(Theta) * integral_{sigma_min}^{sigma_max}
    sqrt(c_mu^D I_sigma) d sigma, taken in sigma by adaptive Simpson on the
    exponential of the log formula :func:`rmnml.gaussian.log_fisher_factors`.
    The complexity takes the same integral in log sigma
    (:func:`rmnml.complexity.pc_hgd`); the two agree because the integral
    is invariant under reparameterization.
    """
    def integrand(sigma):
        log_c_mu, log_i_sigma = log_fisher_factors(dim, sigma)
        return np.exp(0.5 * (dim * log_c_mu + log_i_sigma))

    vol_theta = math.exp(hy.log_ball_volume(dim, domain.radius_R))
    return vol_theta * integrate_1d(integrand, domain.sigma_min, domain.sigma_max, rel_tol)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-z / sqrt 2), accurate in both tails."""
    return 0.5 * _erfc(-z / math.sqrt(2.0)).astype(float)


def pc_mc_gauss1d(n: int, a: float, b: float, samples: int,
                  seed: int) -> tuple[float, float]:
    """Monte-Carlo log parametric complexity of N(theta, 1), theta in [a, b].

    Importance sampling with theta uniform on [a, b] and the data drawn
    from N(theta, 1): the estimate targets
    integral p(y^n | thetahat(y^n)) 1{thetahat in [a, b]} dy^n, which this
    family admits exactly as (b - a) sqrt(n / 2 pi).  Weights use the
    mixture (marginal) proposal density, which keeps them bounded; the
    per-theta conditional weight exp(n (thetahat - theta)^2 / 2) has such a
    heavy tail that feasible sample sizes systematically miss part of the
    mass.  Everything depends on y^n only through its mean, so the mean is
    drawn directly from its exact law N(theta, 1/n).  Returns the log
    estimate (via log-sum-exp) and its delta-method standard error.
    """
    if not b > a:
        raise ValueError(f"degenerate interval: [{a}, {b}]")
    if n < 10:
        raise ValueError("n must be >= 10")
    if samples < 10_000:
        raise ValueError("samples must be >= 1e4")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(a, b, samples)
    ybar = theta + rng.standard_normal(samples) / math.sqrt(n)
    inside = (ybar >= a) & (ybar <= b)
    sqrt_n = math.sqrt(n)
    marginal = _normal_cdf(sqrt_n * (b - ybar)) - _normal_cdf(sqrt_n * (a - ybar))
    log_w = np.where(
        inside,
        0.5 * math.log(n / (2.0 * math.pi)) + math.log(b - a)
        - np.log(np.maximum(marginal, 1e-300)),
        -np.inf)
    shift = float(np.max(log_w))
    w = np.exp(log_w - shift)
    mean_w = float(w.mean())
    se_w = float(w.std(ddof=1) / math.sqrt(samples))
    return shift + math.log(mean_w), se_w / mean_w


def check_xi() -> SuiteResult:
    """Closed-form xi and the moment kernel's log xi against quadrature."""
    worst = 0.0
    for dim in range(1, 6):
        for sigma in (0.1, 0.5, 1.0, 2.0, 3.0):
            oracle = xi_quadrature_oracle(dim, sigma)
            kernel = math.exp(radial_moments(dim, sigma)[0])
            for value in (xi(dim, sigma), kernel):
                worst = max(worst, float(abs(value - oracle) / oracle))
    return SuiteResult("xi-vs-quadrature", worst <= 1e-8,
                       f"max rel error {worst:.3e} (tol 1e-08)")


def check_fisher(quick: bool = False) -> SuiteResult:
    configs = [(1, 1.0), (2, 1.0)] if quick else [
        (d, s) for d in (1, 2, 3) for s in (0.5, 1.0, 2.0)]
    n_samples = 20_000 if quick else 100_000
    worst = 0.0
    for dim, sigma in configs:
        params = RgdParams(hy.origin(dim), sigma)
        block = fisher_numeric(params, n_samples, seed=2024 + dim)
        mu_ref, sig_ref = map(math.exp, log_fisher_factors(dim, sigma))
        for i in range(dim):
            gap = abs(block.mu_block[i, i] - mu_ref)
            allowed = max(0.05 * mu_ref, 3.0 * block.mu_block_se[i, i])
            worst = max(worst, gap / allowed)
        gap = abs(block.sigma_entry - sig_ref)
        allowed = max(0.05 * sig_ref, 3.0 * block.sigma_entry_se)
        worst = max(worst, gap / allowed)
    return SuiteResult("fisher-closed-vs-numeric", worst <= 1.0,
                       f"max gap/allowance {worst:.3f} "
                       f"({len(configs)} configs, N={n_samples})")


def check_reparameterization() -> SuiteResult:
    """The Fisher integral in sigma against the complexity's rule in log sigma."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        lo = float(rng.uniform(0.1, 1.0))
        hi = lo + float(rng.uniform(0.5, 2.0))
        domain = ParamDomain(float(rng.uniform(0.5, 4.0)), lo, hi)
        a = fisher_integral(dim, domain, 1e-11)
        pc = pc_hgd(dim, 2, domain)
        b = math.exp(pc.term_volume + pc.term_fisher)
        worst = max(worst, abs(a - b) / a)
    return SuiteResult("reparameterization-invariance", worst <= 1e-8,
                       f"max rel gap {worst:.3e} (tol 1e-08)")


def check_kraft() -> SuiteResult:
    partition = coding.partition_ball(radius=3.0, n_r=32, n_angle=32)
    ok = True
    details = []
    for sigma in (0.5, 1.0):
        params = RgdParams(hy.origin(2), sigma)
        code = coding.prefix_code(partition, lambda points: log_pdf_vol_many(points, params))
        avg, lower = code.average_bits, code.lower_bound_bits
        ok = ok and code.kraft_sum <= 1.0 and lower <= avg <= lower + 2.0
        details.append(f"sigma={sigma}: kraft={code.kraft_sum:.4f} avg={avg:.2f} "
                       f"lower={lower:.2f}")
    return SuiteResult("kraft-and-expected-length", ok, "; ".join(details))


def check_mc_pipeline(quick: bool = False) -> SuiteResult:
    samples = 100_000 if quick else 1_000_000
    estimate, stderr = pc_mc_gauss1d(100, 0.0, 1.0, samples, seed=11)
    reference = pc_general(1, 100, 0.0).total_log_pc
    gap = abs(estimate - reference)
    allowed = max(3.0 * stderr, 0.05)
    return SuiteResult("mc-parametric-complexity", gap <= allowed,
                       f"|{estimate:.4f} - {reference:.4f}| = {gap:.4f} "
                       f"(allowed {allowed:.4f})")


def run_all(quick: bool = False) -> list[SuiteResult]:
    """Run every suite in order, each result carrying its wall time."""
    suites = [
        check_xi,
        lambda: check_fisher(quick=quick),
        check_reparameterization,
        check_kraft,
        lambda: check_mc_pipeline(quick=quick),
    ]
    results = []
    for suite in suites:
        start = time.perf_counter()
        result = suite()
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
