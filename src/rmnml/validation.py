"""Self-check suites surfaced by the ``validate`` CLI subcommand.

Each suite reruns one of the library's independent oracles (quadrature,
Monte Carlo, reparameterization, Kraft) against the production kernels
and reports a pass/fail line.  The paper's closed-form :func:`xi` and its
derivatives live here as oracles only; the library reads log xi and the
Fisher information from :func:`rmnml.gaussian.radial_moments`.  The Kraft
suite codes with :func:`rmnml.gaussian.log_pdf_vol_many`, the density of
the code-length.  Tests confirm that the suites detect errors by patching
the names ``xi``, ``radial_moments`` and ``log_pdf_vol_many`` here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import coding, hyperbolic as hy
from .complexity import ParamDomain, pc_general, pc_hgd, pc_mc_gauss1d
from .fisher import (fisher_integral, fisher_mu_closed, fisher_numeric,
                     fisher_sigma_closed)
from .gaussian import (RgdParams, log_pdf_vol_many, log_radial_weight,
                       radial_cutoff, radial_moments)
from .quadrature import integrate_1d


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    #: Wall time of the suite, set by :func:`run_all`.
    seconds: float = 0.0


_erf = np.frompyfunc(math.erf, 1, 1)


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    """math.fsum over the last axis: each sum is exactly rounded."""
    sums = map(math.fsum, a.reshape(-1, a.shape[-1]).tolist())
    return np.fromiter(sums, float).reshape(a.shape[:-1])


def _xi_terms(dim: int, sigma: np.ndarray):
    """Prefactor K and per-term arrays of the xi expansion.

    xi(sigma) = K * sigma * sum_i a_i with
    a_i = (-1)^i C(D-1, i) exp(sigma^2 p_i^2 / 2) (1 + erf(p_i sigma / sqrt 2)),
    p_i = (D - 1) - 2i.  ``a`` has the shape of ``sigma`` plus a last axis
    of the D terms.
    """
    K = (math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
         * math.sqrt(math.pi / 2.0) / 2.0 ** (dim - 2))
    i = np.arange(dim)
    p = (dim - 1) - 2.0 * i
    b = (-1.0) ** i * np.array([math.comb(dim - 1, k) for k in range(dim)], dtype=float)
    s = sigma[..., None]
    erf = _erf(p * s / math.sqrt(2.0)).astype(float)
    a = b * np.exp(0.5 * s * s * p * p) * (1.0 + erf)
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
    return hy.sphere_area(dim) * integral


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
        mu_ref = fisher_mu_closed(dim, sigma)[0, 0]
        sig_ref = fisher_sigma_closed(dim, sigma)
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
