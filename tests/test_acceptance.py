"""Acceptance gate: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The slower statistical criteria use fixed seeds and
stay inside their stated runtime budgets.
"""

import json
import math
import time

import numpy as np

from rmnml import hyperbolic as hy
from rmnml.cli import main as cli_main
from rmnml.coding import partition_ball, prefix_code
from rmnml.complexity import (ParamDomain, chart_gap, hgd_sigma_integral,
                              pc_general, pc_hgd, regret, rm_nml_codelength)
from rmnml.gaussian import RgdParams, log_pdf_vol_many, mle, sample
from rmnml.validation import (adaptive_gauss_kronrod, exp_map, fisher_integral, fisher_numeric,
                              pc_mc_gauss1d, xi, xi_quadrature_oracle)

from conftest import (closed_sigma_integrand, fisher_factors, sphere_area,
                      sqrt_det_metric, xi_fd_derivatives)

DOMAIN = ParamDomain(radius_R=3.0, sigma_min=0.1, sigma_max=3.0)


def report(number: int, name: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_xi_quadrature_oracle():
    start = time.perf_counter()
    worst = 0.0
    for dim in range(1, 6):
        for sigma in (0.1, 0.5, 1.0, 2.0, 3.0):
            oracle = xi_quadrature_oracle(dim, sigma)
            worst = max(worst, abs(xi(dim, sigma) - oracle) / oracle)
    elapsed = time.perf_counter() - start
    report(1, "xi oracle", worst <= 1e-8 and elapsed < 5.0,
           f"max rel err {worst:.2e} (tol 1e-08), {elapsed:.2f}s (< 5s)")


def test_criterion_02_euclidean_reductions():
    worst = 0.0
    for sigma in (0.1, 0.35, 1.0, 1.7, 3.0):
        worst = max(worst, abs(xi(1, sigma) / (sigma * math.sqrt(2 * math.pi)) - 1))
        c_mu, i_sigma = fisher_factors(1, sigma)
        worst = max(worst, abs(c_mu * sigma ** 2 - 1))
        worst = max(worst, abs(i_sigma * sigma ** 2 / 2 - 1))
    report(2, "Euclidean reductions", worst <= 1e-10,
           f"max rel err {worst:.2e} (tol 1e-10)")


def test_criterion_03_fisher_oracle():
    start = time.perf_counter()
    worst_ratio = 0.0
    for dim in (1, 2, 3):
        for sigma in (0.5, 1.0, 2.0):
            params = RgdParams(hy.origin(dim), sigma)
            block = fisher_numeric(params, 100_000, seed=300 + 10 * dim + int(2 * sigma))
            mu_ref, sigma_ref = fisher_factors(dim, sigma)
            for i in range(dim):
                gap = abs(block.mu_block[i, i] - mu_ref)
                allowed = max(0.05 * mu_ref, 3.0 * block.mu_block_se[i, i])
                worst_ratio = max(worst_ratio, gap / allowed)
            gap = abs(block.sigma_entry - sigma_ref)
            allowed = max(0.05 * sigma_ref, 3.0 * block.sigma_entry_se)
            worst_ratio = max(worst_ratio, gap / allowed)
    elapsed = time.perf_counter() - start
    report(3, "Fisher oracle", worst_ratio <= 1.0 and elapsed < 120.0,
           f"max gap/allowance {worst_ratio:.3f} over 9 configs, "
           f"{elapsed:.1f}s (< 120s)")


def test_criterion_04_reparameterization_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    rel_tol = 1e-11
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        lo = float(rng.uniform(0.1, 1.0))
        hi = lo + float(rng.uniform(0.5, 2.0))
        domain = ParamDomain(float(rng.uniform(0.5, 4.0)), lo, hi)
        # Gauss-Kronrod in sigma against the complexity's rule in log sigma
        a = fisher_integral(dim, domain, rel_tol)
        pc = pc_hgd(dim, 2, domain)
        b = math.exp(pc.term_volume + pc.term_fisher)
        worst = max(worst, abs(a - b) / a)
    elapsed = time.perf_counter() - start
    report(4, "Thm-5 invariance", worst <= 1e-8 and elapsed < 10.0,
           f"max rel gap {worst:.2e} over 20 domains (tol 1e-08), "
           f"{elapsed:.1f}s (< 10s)")


def test_criterion_05_symmetric_space_lemmas():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    sigma = 1.0
    blocks = []
    for j in range(5):
        if j == 0:
            mu = hy.origin(2)
        else:
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            vec = np.zeros(3)
            vec[1:] = float(rng.uniform(0.3, 1.5)) * direction
            mu = exp_map(hy.origin(2), vec)
        blocks.append(fisher_numeric(RgdParams(mu, sigma), 100_000, seed=550 + j))

    cross_ok = all(np.all(np.abs(b.cross_block) <= 3.0 * b.cross_block_se)
                   for b in blocks)
    det0, se0 = blocks[0].mu_det()
    det_ok = all(abs(det - det0) <= 3.0 * (se + se0)
                 for det, se in (b.mu_det() for b in blocks[1:]))
    sig_ok = all(abs(b.sigma_entry - blocks[0].sigma_entry)
                 <= 3.0 * (b.sigma_entry_se + blocks[0].sigma_entry_se)
                 for b in blocks[1:])
    elapsed = time.perf_counter() - start
    report(5, "Appendix-C lemmas",
           cross_ok and det_ok and sig_ok and elapsed < 180.0,
           f"cross-diag ok={cross_ok}, det-independence ok={det_ok}, "
           f"sigma-independence ok={sig_ok}, {elapsed:.1f}s (< 180s)")


def test_criterion_06_chart_gap_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    pc_cache = {}
    for _ in range(20):
        n = int(rng.integers(5, 40))
        mu_vec = np.zeros(3)
        direction = rng.standard_normal(2)
        mu_vec[1:] = float(rng.uniform(0, 1.2)) * direction / np.linalg.norm(direction)
        mu = exp_map(hy.origin(2), mu_vec)
        data = sample(n, RgdParams(mu, float(rng.uniform(0.3, 1.5))),
                      seed=int(rng.integers(2 ** 31)))
        if n not in pc_cache:
            pc_cache[n] = pc_hgd(2, n, DOMAIN).total_log_pc
        fit = mle(data, DOMAIN)
        vol_codelength = -float(log_pdf_vol_many(data.coords, fit.params).sum()) + pc_cache[n]
        for chart in (hy.CHART_LORENTZ_GRAPH, hy.CHART_POINCARE):
            log_det_sum = sum(math.log(sqrt_det_metric(chart, row))
                              for row in data.coords)
            chart_nml = -(float(log_pdf_vol_many(data.coords, fit.params).sum())
                          + log_det_sum) + pc_cache[n]
            gap = chart_nml - vol_codelength
            worst = max(worst, abs(gap - (-log_det_sum)),
                        abs(chart_gap(data, chart) - (-log_det_sum)))
    report(6, "chart gap identity", worst <= 1e-12,
           f"max |gap - (-sum log sqrt det g)| = {worst:.2e} (tol 1e-12)")


def test_criterion_07_constant_regret():
    rng = np.random.default_rng(707)
    n = 30
    log_pc = pc_hgd(2, n, DOMAIN).total_log_pc
    worst = 0.0
    for _ in range(20):
        data = sample(n, RgdParams(hy.origin(2), float(rng.uniform(0.4, 1.6))),
                      seed=int(rng.integers(2 ** 31)))
        total = rm_nml_codelength(data, DOMAIN).total
        worst = max(worst, abs(regret(data, total, DOMAIN) - log_pc))
    report(7, "constant regret", worst <= 1e-9,
           f"max |regret - log PC| = {worst:.2e} over 20 datasets (tol 1e-09)")


def test_criterion_08_mc_pipeline():
    start = time.perf_counter()
    estimate, stderr = pc_mc_gauss1d(100, 0.0, 1.0, 1_000_000, seed=808)
    reference = pc_general(1, 100, 0.0).total_log_pc
    gap = abs(estimate - reference)
    allowed = max(3.0 * stderr, 0.05)
    elapsed = time.perf_counter() - start
    report(8, "MC pipeline", gap <= allowed and elapsed < 60.0,
           f"|{estimate:.4f} - {reference:.4f}| = {gap:.4f} "
           f"(allowed {allowed:.4f}), {elapsed:.1f}s (< 60s)")


def test_criterion_09_ball_volume_oracle():
    worst = 0.0
    rel_tol = 1e-12
    for dim in range(1, 6):
        area = sphere_area(dim)
        for radius in (0.5, 1.0, 2.0, 4.0):
            oracle = area * adaptive_gauss_kronrod(
                lambda r: np.sinh(r) ** (dim - 1), 0.0, radius, rel_tol)
            volume = math.exp(hy.log_ball_volume(dim, radius))
            worst = max(worst, abs(volume - oracle) / oracle)
    report(9, "ball volume oracle", worst <= 1e-8,
           f"max rel err {worst:.2e} over D=1..5, R in 0.5..4 (tol 1e-08)")


def test_criterion_10_coding_demo():
    start = time.perf_counter()
    partition = partition_ball(3.0, 32, 32)
    ok = True
    details = []
    for sigma in (0.5, 1.0):
        log_norm = math.log(xi(2, sigma))

        def log_pdf(points):
            d = np.arccosh(np.maximum(points[..., 0], 1.0))
            return -d * d / (2.0 * sigma * sigma) - log_norm

        code = prefix_code(partition, log_pdf)
        ksum, avg, lower = code.kraft_sum, code.average_bits, code.lower_bound_bits
        ok = ok and (ksum <= 1.0) and (lower <= avg <= lower + 2.0)
        details.append(f"sigma={sigma}: kraft={ksum:.4f}, "
                       f"avg={avg:.2f} in [{lower:.2f}, {lower + 2:.2f}]")
    elapsed = time.perf_counter() - start
    report(10, "prefix-code demo", ok and elapsed < 10.0,
           "; ".join(details) + f", {elapsed:.1f}s (< 10s)")


def test_criterion_11_dimension_selection(tmp_path, capsys):
    start = time.perf_counter()
    wins = 0
    trials = 50
    for trial in range(trials):
        data = sample(500, RgdParams(hy.origin(2), 1.0), seed=9_000 + trial)
        paths = {}
        for dim in (1, 2, 3, 5):
            coords = np.concatenate(
                [data.coords, np.zeros((data.n, max(dim, 2) - 2))], axis=1)
            path = tmp_path / f"t{trial}_d{dim}.json"
            path.write_text(json.dumps({
                "chart": "lorentz",
                "dim": dim,
                "points": coords.tolist(),
            }))
            paths[dim] = path
        argv = ["select-dim", "--sigma", "0.1:3", "--radius", "3"]
        for dim, path in paths.items():
            argv += ["--candidate", f"{dim}={path}"]
        out = tmp_path / f"sel{trial}.json"
        argv += ["--out", str(out)]
        assert cli_main(argv) == 0
        selection = json.loads(out.read_text())
        if selection["selected_dim"] == 2:
            wins += 1
    rate = wins / trials
    elapsed = time.perf_counter() - start
    report(11, "dimension selection", rate >= 0.8 and elapsed < 300.0,
           f"true dimension recovered in {wins}/{trials} trials "
           f"({rate:.0%}, need >= 80%), {elapsed:.1f}s (< 300s)")


def test_criterion_12_corollary_discrepancy_resolution():
    # the adopted location-Fisher form xi'/(D sigma xi) must reproduce the
    # parametric complexity when the sigma integrand is rebuilt from
    # finite-difference derivatives of the closed-form xi, apart from the
    # moment kernel
    worst = 0.0
    rel_tol = 1e-8
    for dim, n, domain in [(1, 100, ParamDomain(1.5, 0.5, 2.0)),
                           (2, 1000, ParamDomain(3.0, 0.3, 2.0)),
                           (3, 500, ParamDomain(2.0, 0.4, 2.5))]:
        kernel = pc_hgd(dim, n, domain).total_log_pc
        int_rebuilt = adaptive_gauss_kronrod(
            lambda s: closed_sigma_integrand(dim, s, xi_fd_derivatives),
            domain.sigma_min, domain.sigma_max, rel_tol)
        rebuilt = pc_general(
            dim + 1, n, math.log(int_rebuilt),
            log_vol_theta=hy.log_ball_volume(dim, domain.radius_R)).total_log_pc
        worst = max(worst, abs(rebuilt - kernel) / abs(kernel))
        int_kernel = math.exp(hgd_sigma_integral(dim, domain))
        worst = max(worst, abs(int_rebuilt - int_kernel) / int_kernel)
    report(12, "Fisher-form resolution", worst <= 1e-5,
           f"max rel gap kernel vs derivative-oracle rebuild {worst:.2e} (tol 1e-05)")
