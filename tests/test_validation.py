import math
import sys
from collections import Counter

import numpy as np
import pytest

from rmnml import hyperbolic as hy, validation
from rmnml.complexity import ParamDomain
from rmnml.validation import (check_kraft, check_mc_pipeline,
                              check_reparameterization, check_xi)

from conftest import erfc_block_by_masks, gauss_kronrod_one_integral, int64_bits


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
    assert check_mc_pipeline(quick=True).passed


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


def _math_erfc(x: np.ndarray) -> np.ndarray:
    return np.array([math.erfc(v) for v in x.ravel().tolist()]).reshape(x.shape)


def test_erfc_matches_math_erfc_on_a_dense_grid():
    x = np.linspace(-7.0, 27.5, 345_001)  # step 1e-4
    got, ref = validation._erfc(x), _math_erfc(x)
    normal = ref >= sys.float_info.min
    assert np.max(np.abs(got - ref)[normal] / ref[normal]) <= 1e-14
    assert np.max(np.abs(got - ref)[~normal]) <= 1e-320  # the subnormal tail, x > 26.55


@pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan, 26.6, 27.0,
                                   27.2, 27.3, 28.0, 1e300, -1e300, 5e-324])
def test_erfc_special_values_and_the_subnormal_tail(value):
    got = float(validation._erfc(np.array([value]))[0])
    ref = math.erfc(value)
    if math.isnan(ref):
        assert math.isnan(got)
    elif ref < sys.float_info.min:
        assert abs(got - ref) <= 1e-320
    else:
        assert got == ref


def test_erfc_entry_does_not_depend_on_the_array_size():
    block = validation._ERFC_BLOCK
    x = np.random.default_rng(5).uniform(-8.0, 30.0, block + 1)
    whole = validation._erfc(x)
    for size in (0, 1, block - 1, block, block + 1):
        assert np.array_equal(validation._erfc(x[:size]), whole[:size])
    shaped = validation._erfc(x[:-1].reshape(128, -1))
    assert shaped.shape == (128, block // 128)
    assert np.array_equal(shaped.ravel(), whole[:-1])
    # the last entry alone, and in the first block of a shifted array
    assert validation._erfc(x[-1:])[0] == whole[-1]
    assert validation._erfc(x[::-1])[0] == whole[-1]


def _edge_arguments() -> np.ndarray:
    """+-0, +-inf and nan, and the branch and tail edges with their neighbouring floats."""
    edges = np.array([0.46875, 4.0, 26.5, 27.3, 28.0])
    edges = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    return np.concatenate([[0.0, -0.0, math.inf, -math.inf, math.nan], edges, -edges])


def test_erfc_is_the_boolean_mask_block_bit_for_bit():
    # the branches picked by index arrays give the floats of conftest's
    # boolean-mask block: three blocks and a remainder of random arguments,
    # and the edges, compared as int64 bit patterns
    block = validation._ERFC_BLOCK
    x = np.random.default_rng(33).uniform(-30.0, 30.0, 3 * block + 1_234)
    reference = np.concatenate([erfc_block_by_masks(x[start:start + block])
                                for start in range(0, x.size, block)])
    assert np.array_equal(validation._erfc(x).view(np.int64), reference.view(np.int64))
    edges = _edge_arguments()
    assert np.array_equal(validation._erfc(edges).view(np.int64),
                          erfc_block_by_masks(edges).view(np.int64))
