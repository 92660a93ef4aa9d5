import math

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml.complexity import ParamDomain
from rmnml.fisher import (LOG_SIGMA_PARAM, SIGMA_PARAM, _fisher_factors,
                          fisher_integral, fisher_mu_closed, fisher_numeric,
                          fisher_sigma_closed, normal_chart,
                          sqrt_fisher_sigma_integrand)
from rmnml.gaussian import (RgdParams, log_radial_weight, radial_cutoff, xi,
                            xi_derivatives)
from rmnml.quadrature import integrate_1d

from conftest import dist, random_point

TIGHT = 1e-12


def sigma_score_variance(dim: int, sigma: float) -> float:
    """Independent route to the sigma Fisher information.

    Var of the sigma score d log p / d sigma = d^2/sigma^3 - xi'/xi under
    the model, computed by radial quadrature; equals the negative-Hessian
    closed form by the information identity.
    """
    d1, _ = xi_derivatives(dim, sigma)
    ratio = d1 / xi(dim, sigma)
    cutoff = radial_cutoff(dim, sigma)

    def weight(r, k=0):
        return (r * r / sigma ** 3 - ratio) ** k * np.exp(
            log_radial_weight(dim, r, sigma))

    z = integrate_1d(lambda r: weight(r), 0.0, cutoff, TIGHT)
    return integrate_1d(lambda r: weight(r, 2), 0.0, cutoff, TIGHT) / z


class TestClosedForms:
    def test_dimension_one_is_euclidean_gaussian(self):
        for sigma in (0.4, 1.0, 2.0):
            mu_info = fisher_mu_closed(1, sigma)
            assert mu_info.shape == (1, 1)
            assert mu_info[0, 0] == pytest.approx(1.0 / sigma ** 2, rel=1e-12)
            assert fisher_sigma_closed(1, sigma) == pytest.approx(
                2.0 / sigma ** 2, rel=1e-12)

    def test_mu_block_is_scalar_matrix(self):
        for dim in (2, 3, 5):
            block = fisher_mu_closed(dim, 0.8)
            assert np.allclose(block, block[0, 0] * np.eye(dim))

    def test_array_sigma_matches_scalar_calls(self):
        # the closed forms on an array of sigmas, element for element, are the
        # floats of one scalar call each
        sigma = np.linspace(0.05, 3.5, 24).reshape(4, 6)
        for dim in range(1, 6):
            arrays = [xi(dim, sigma), *xi_derivatives(dim, sigma),
                      *_fisher_factors(dim, sigma), sqrt_fisher_sigma_integrand(dim, sigma)]
            for index in np.ndindex(sigma.shape):
                s = float(sigma[index])
                scalars = [xi(dim, s), *xi_derivatives(dim, s), *_fisher_factors(dim, s),
                           sqrt_fisher_sigma_integrand(dim, s)]
                assert [a.shape for a in arrays] == [sigma.shape] * 6
                assert [a[index] for a in arrays] == scalars

    def test_positivity(self):
        for dim in range(1, 6):
            for sigma in np.linspace(0.1, 3.0, 12):
                assert fisher_mu_closed(dim, float(sigma))[0, 0] > 0
                assert fisher_sigma_closed(dim, float(sigma)) > 0

    def test_sigma_fisher_against_score_variance(self):
        # information identity: E[-d^2 log p] = Var[d log p]
        for dim in (1, 2, 3):
            for sigma in (0.5, 1.0, 2.0):
                assert fisher_sigma_closed(dim, sigma) == pytest.approx(
                    sigma_score_variance(dim, sigma), rel=1e-8)


class TestNumericOracle:
    def test_matches_closed_forms(self):
        params = RgdParams(hy.origin(2), 1.0)
        block = fisher_numeric(params, 20_000, seed=101)
        mu_ref = fisher_mu_closed(2, 1.0)[0, 0]
        sigma_ref = fisher_sigma_closed(2, 1.0)
        for i in range(2):
            assert abs(block.mu_block[i, i] - mu_ref) <= max(
                0.05 * mu_ref, 3.0 * block.mu_block_se[i, i])
        assert abs(block.sigma_entry - sigma_ref) <= max(
            0.05 * sigma_ref, 3.0 * block.sigma_entry_se)

    def test_cross_terms_vanish(self):
        params = RgdParams(hy.origin(2), 0.8)
        block = fisher_numeric(params, 20_000, seed=103)
        assert np.all(np.abs(block.cross_block) <= 3.0 * block.cross_block_se)

    def test_base_point_independence(self, rng):
        sigma = 1.0
        at_origin = fisher_numeric(RgdParams(hy.origin(2), sigma), 20_000, seed=105)
        moved = fisher_numeric(RgdParams(random_point(rng, 2, 1.5), sigma),
                               20_000, seed=106)
        det0, se0 = at_origin.mu_det()
        det1, se1 = moved.mu_det()
        assert abs(det0 - det1) <= 3.0 * (se0 + se1)
        assert abs(at_origin.sigma_entry - moved.sigma_entry) <= 3.0 * (
            at_origin.sigma_entry_se + moved.sigma_entry_se)

    def test_sample_budget_guard(self):
        with pytest.raises(ValueError):
            fisher_numeric(RgdParams(hy.origin(2), 1.0), 100, seed=0)

    def test_normal_chart_centers_at_mu(self, rng):
        mu = random_point(rng, 3)
        chart = normal_chart(mu)
        assert np.max(np.abs(chart(np.zeros(3)) - mu)) < 1e-12
        # moving along a chart axis by t covers geodesic distance t
        moved = chart(np.array([0.3, 0.0, 0.0]))
        assert dist(mu, moved) == pytest.approx(0.3, abs=1e-9)


class TestFisherIntegral:
    def test_one_dimensional_analytic_value(self):
        # D=1, vol(Theta)=2R=1, sigma in [0.5, 2]:
        # integral of sqrt(2)/sigma^2 = sqrt(2) (2 - 1/2) = 3/sqrt(2)
        domain = ParamDomain(radius_R=0.5, sigma_min=0.5, sigma_max=2.0)
        value = fisher_integral(1, domain, SIGMA_PARAM, 1e-11)
        assert value == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-10)

    def test_parameterization_invariance(self):
        rel_tol = 1e-11
        for dim, lo, hi, radius in [(1, 0.5, 2.0, 1.0), (2, 0.3, 2.0, 3.0),
                                    (3, 0.2, 1.5, 2.0)]:
            domain = ParamDomain(radius, lo, hi)
            a = fisher_integral(dim, domain, SIGMA_PARAM, rel_tol)
            b = fisher_integral(dim, domain, LOG_SIGMA_PARAM, rel_tol)
            assert a == pytest.approx(b, rel=1e-8)

    def test_volume_scaling(self):
        domain_small = ParamDomain(1.0, 0.5, 1.5)
        domain_large = ParamDomain(2.0, 0.5, 1.5)
        ratio = math.exp(hy.log_ball_volume(2, 2.0) - hy.log_ball_volume(2, 1.0))
        a = fisher_integral(2, domain_small)
        b = fisher_integral(2, domain_large)
        assert b == pytest.approx(ratio * a, rel=1e-10)

    def test_unknown_parameterization(self):
        with pytest.raises(ValueError):
            fisher_integral(2, ParamDomain(), "sqrt-sigma")


def test_pointwise_reparameterization_identity():
    # Fisher determinant transformation under sigma <-> log sigma:
    # I_{log sigma}(sigma) = sigma^2 I_sigma(sigma).  The left side comes
    # from finite differences of the expected log-likelihood in log-sigma
    # coordinates (independent of the chain-rule algebra); the right side
    # is the closed form.  The comparison tolerance is set by the finite
    # differences, not the identity itself.
    dim = 2
    for sigma in np.linspace(0.3, 2.5, 20):
        sigma = float(sigma)
        cutoff = radial_cutoff(dim, sigma)

        def weight(r, k=0):
            return r ** k * np.exp(log_radial_weight(dim, r, sigma))

        z = integrate_1d(lambda r: weight(r), 0.0, cutoff, TIGHT)
        mean_d2 = integrate_1d(lambda r: weight(r, 2), 0.0, cutoff, TIGHT) / z

        def expected_loglik(s):
            return -math.log(xi(dim, math.exp(s))) - mean_d2 / (2.0 * math.exp(2 * s))

        s0 = math.log(sigma)

        def second(h):
            return -(expected_loglik(s0 + h) - 2 * expected_loglik(s0)
                     + expected_loglik(s0 - h)) / h ** 2

        h = 3e-4
        info_log_sigma = (4.0 * second(h / 2) - second(h)) / 3.0
        assert info_log_sigma == pytest.approx(
            sigma ** 2 * fisher_sigma_closed(dim, sigma), rel=1e-7)
