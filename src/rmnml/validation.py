"""Self-check suites surfaced by the ``validate`` CLI subcommand.

Each suite reruns one of the library's independent oracles (quadrature,
Monte Carlo, reparameterization, Kraft) against the closed forms and
reports a pass/fail line.  The Kraft suite codes with the density of
:func:`rmnml.gaussian.log_pdf_vol_many`, the one the code-length uses.
Tests confirm that the suites detect errors by patching the names
``xi`` and ``log_pdf_vol_many`` of this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import coding, hyperbolic as hy
from .complexity import ParamDomain, pc_general, pc_mc_gauss1d
from .fisher import (LOG_SIGMA_PARAM, SIGMA_PARAM, fisher_integral,
                     fisher_mu_closed, fisher_numeric, fisher_sigma_closed)
from .gaussian import (RgdParams, log_pdf_vol_many, log_radial_weight,
                       radial_cutoff, xi)
from .quadrature import integrate_1d


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    #: Wall time of the suite, set by :func:`run_all`.
    seconds: float = 0.0


def xi_quadrature_oracle(dim: int, sigma: float) -> float:
    """xi by direct quadrature of its defining radial integral."""
    cutoff = radial_cutoff(dim, sigma)
    integral = integrate_1d(
        lambda r: np.exp(log_radial_weight(dim, r, sigma)),
        0.0, cutoff, 1e-12)
    return hy.sphere_area(dim) * integral


def check_xi() -> SuiteResult:
    worst = 0.0
    for dim in range(1, 6):
        for sigma in (0.1, 0.5, 1.0, 2.0, 3.0):
            oracle = xi_quadrature_oracle(dim, sigma)
            worst = max(worst, float(abs(xi(dim, sigma) - oracle) / oracle))
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
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        lo = float(rng.uniform(0.1, 1.0))
        hi = lo + float(rng.uniform(0.5, 2.0))
        domain = ParamDomain(float(rng.uniform(0.5, 4.0)), lo, hi)
        a = fisher_integral(dim, domain, SIGMA_PARAM, 1e-11)
        b = fisher_integral(dim, domain, LOG_SIGMA_PARAM, 1e-11)
        worst = max(worst, abs(a - b) / a)
    return SuiteResult("reparameterization-invariance", worst <= 1e-8,
                       f"max rel gap {worst:.3e} (tol 1e-08)")


def check_kraft() -> SuiteResult:
    partition = coding.partition_ball(radius=3.0, n_r=32, n_angle=32)
    ok = True
    details = []
    for sigma in (0.5, 1.0):
        params = RgdParams(hy.origin(2), sigma)

        def log_pdf(points):
            return log_pdf_vol_many(points, params)

        lengths = coding.cell_codelengths(partition, log_pdf)
        ksum = coding.kraft_sum(lengths)
        avg = coding.average_codelength(partition, log_pdf, lengths)
        lower = coding.expected_lower_bound(partition, log_pdf)
        ok = ok and ksum <= 1.0 and lower <= avg <= lower + 2.0
        details.append(f"sigma={sigma}: kraft={ksum:.4f} avg={avg:.2f} "
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
