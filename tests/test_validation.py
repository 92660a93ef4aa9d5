import math
from collections import Counter

import numpy as np

from rmnml import hyperbolic as hy, validation
from rmnml.complexity import ParamDomain
from rmnml.validation import (check_kraft, check_mc_pipeline,
                              check_reparameterization, check_xi)

from conftest import gauss_kronrod_one_integral, int64_bits


def test_xi_suite_passes():
    assert check_xi().passed


def test_xi_suite_detects_injected_error(monkeypatch):
    xi = validation.xi
    monkeypatch.setattr(validation, "xi", lambda dim, sigma: 1.02 * xi(dim, sigma))
    result = check_xi()
    assert not result.passed


def test_xi_suite_checks_the_moment_kernel(monkeypatch):
    # the kernel that every density and the complexity read, not only the
    # closed form
    radial_moments = validation.radial_moments

    def off_by_two_percent(dim, sigma):
        log_xi, mean, var = radial_moments(dim, sigma)
        return log_xi + math.log(1.02), mean, var

    monkeypatch.setattr(validation, "radial_moments", off_by_two_percent)
    assert not check_xi().passed


def test_kraft_suite_detects_injected_error(monkeypatch):
    # a density four times too large breaks the Kraft inequality
    assert check_kraft().passed
    log_pdf = validation.log_pdf_vol_many
    monkeypatch.setattr(validation, "log_pdf_vol_many",
                        lambda coords, params: log_pdf(coords, params) + math.log(4.0))
    assert not check_kraft().passed


def test_reparameterization_suite_passes():
    assert check_reparameterization().passed


def test_mc_pipeline_quick_passes():
    assert check_mc_pipeline().passed


def test_mc_pipeline_detects_an_error_in_the_pipeline(monkeypatch):
    # a log complexity off by 1e-9, in its Fisher term, is ten times the
    # suite's tolerance
    pc_hgd = validation.pc_hgd

    def off(dim, n, domain):
        result = pc_hgd(dim, n, domain)
        return result._replace(term_fisher=result.term_fisher + 1e-9)

    monkeypatch.setattr(validation, "pc_hgd", off)
    assert not check_mc_pipeline().passed


def test_mc_pipeline_sees_the_dropped_order_one_over_n_term(monkeypatch):
    # with the gap taken as 0 the formula must equal the exact normalizer,
    # which it misses by about 11/12n: 0.009 at n = 100, which a tolerance
    # of 0.05 there would pass
    monkeypatch.setattr(validation, "exact_d1_gap", lambda n: 0.0)
    assert not check_mc_pipeline().passed


def _abscissae_through_f(monkeypatch):
    """Count the abscissae the oracles in ``validation`` pass to their integrands."""
    count = [0]
    adaptive_gauss_kronrod = validation.adaptive_gauss_kronrod

    def counted(f, *args, **kwargs):
        def g(x, *index):  # a stack's integrand also takes the abscissae's integrals
            count[0] += x.size
            return f(x, *index)
        return adaptive_gauss_kronrod(g, *args, **kwargs)

    monkeypatch.setattr(validation, "adaptive_gauss_kronrod", counted)
    return count


def test_reparameterization_oracle_evaluation_count(monkeypatch):
    # fisher_integral over the suite's 20 domains: 2,580 abscissae; adaptive
    # Simpson took 23,636
    count = _abscissae_through_f(monkeypatch)
    assert check_reparameterization().passed
    assert 0 < count[0] <= 4_000
    assert count[0] == 2_580


def test_xi_oracle_evaluation_count(monkeypatch):
    # xi_quadrature_oracle over the suite's 25 cases: 9,720 abscissae;
    # adaptive Simpson took 138,329
    count = _abscissae_through_f(monkeypatch)
    assert check_xi().passed
    assert 0 < count[0] <= 15_000
    assert count[0] == 9_720


def test_xi_oracle_stack_is_each_integral_alone_bit_for_bit():
    # the xi suite's 25 (D, sigma) integrals in one rule call give the floats
    # of the rule on each integral alone, with its own np.linspace seed panels
    dims = np.repeat(np.arange(1, 6), 5)
    sigmas = np.tile([0.1, 0.5, 1.0, 2.0, 3.0], 5)
    stacked = validation.xi_quadrature_oracle(dims, sigmas)
    alone, scalar = [], []
    for dim, sigma in zip(dims.tolist(), sigmas.tolist()):
        integral = gauss_kronrod_one_integral(
            lambda r: np.exp(validation.log_radial_weight(dim, r, sigma)), 0.0,
            validation.radial_cutoff(dim, sigma), 1e-12)
        alone.append(math.exp(hy.log_sphere_area(dim)) * integral)
        scalar.append(validation.xi_quadrature_oracle(dim, sigma))
    assert all(type(value) is float for value in scalar)
    np.testing.assert_array_equal(int64_bits(stacked), int64_bits(alone))
    np.testing.assert_array_equal(int64_bits(scalar), int64_bits(alone))


def _reparameterization_domains():
    """The reparameterization suite's 20 (D, domain) draws, in its order."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        lo = float(rng.uniform(0.1, 1.0))
        hi = lo + float(rng.uniform(0.5, 2.0))
        cases.append((dim, ParamDomain(float(rng.uniform(0.5, 4.0)), lo, hi)))
    return cases


def test_fisher_integral_stack_is_each_integral_alone_bit_for_bit(monkeypatch):
    # the reparameterization suite's 20 integrals, one stack per dimension
    # as the suite takes them, give the floats of the rule on each alone
    calls = []
    rule = validation.adaptive_gauss_kronrod
    monkeypatch.setattr(validation, "adaptive_gauss_kronrod",
                        lambda f, a, b, *args: calls.append(len(a)) or rule(f, a, b, *args))
    assert check_reparameterization().passed
    cases = _reparameterization_domains()
    assert sorted(calls) == sorted(Counter(dim for dim, _ in cases).values())
    # and stacks with decimal ends, where sigma_min + (sigma_max - sigma_min)
    # is not always sigma_max, so seed panels from one shared linspace(0, 1, 9)
    # would move the results
    # (four of these 24 would move by up to 2.2e-16)
    rng = np.random.default_rng(37)
    decimal = [(dim, ParamDomain(1.5, lo, round(lo + width, 2))) for dim in (1, 2, 3)
               for lo, width in zip(np.round(rng.uniform(0.05, 1.0, 8), 2).tolist(),
                                    rng.uniform(0.5, 3.0, 8).tolist())]
    assert any(d.sigma_min + (d.sigma_max - d.sigma_min) != d.sigma_max for _, d in decimal)
    for dim, cases in ((dim, group) for group in (cases, decimal) for dim in (1, 2, 3)):
        domains = [domain for d, domain in cases if d == dim]
        stacked = validation.fisher_integral(dim, domains, 1e-11)

        def root(sigma, dim=dim):
            log_c_mu, log_i_sigma = validation.log_fisher_factors(dim, sigma)
            return np.exp(0.5 * (dim * log_c_mu + log_i_sigma))

        alone = [math.exp(hy.log_ball_volume(dim, d.radius_R))
                 * gauss_kronrod_one_integral(root, d.sigma_min, d.sigma_max, 1e-11)
                 for d in domains]
        scalar = [validation.fisher_integral(dim, d, 1e-11) for d in domains]
        assert all(type(value) is float for value in scalar)
        np.testing.assert_array_equal(int64_bits(stacked), int64_bits(alone))
        np.testing.assert_array_equal(int64_bits(scalar), int64_bits(alone))


def test_xi_suite_takes_one_rule_call(monkeypatch):
    calls = []
    rule = validation.adaptive_gauss_kronrod
    monkeypatch.setattr(validation, "adaptive_gauss_kronrod",
                        lambda f, a, b, *args: calls.append(len(a)) or rule(f, a, b, *args))
    assert check_xi().passed
    assert calls == [25]
