"""The Fisher information: the log formula against its oracles."""

import math
import weakref

import numpy as np
import pytest

from rmnml import gaussian, validation
from rmnml import hyperbolic as hy
from rmnml.complexity import ParamDomain, pc_hgd
from rmnml.gaussian import RgdParams, log_fisher_factors
from rmnml.validation import (FisherBlock, adaptive_gauss_kronrod, fisher_integral,
                              fisher_numeric, log_radial_weight, radial_cutoff, xi,
                              xi_derivatives)

from conftest import dist, fisher_factors, fisher_numeric_per_offset, random_point

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

    z = adaptive_gauss_kronrod(lambda r: weight(r), 0.0, cutoff, TIGHT)
    return adaptive_gauss_kronrod(lambda r: weight(r, 2), 0.0, cutoff, TIGHT) / z


class TestClosedForms:
    def test_dimension_one_is_euclidean_gaussian(self):
        for sigma in (0.4, 1.0, 2.0):
            c_mu, i_sigma = fisher_factors(1, sigma)
            assert c_mu == pytest.approx(1.0 / sigma ** 2, rel=1e-12)
            assert i_sigma == pytest.approx(2.0 / sigma ** 2, rel=1e-12)

    def test_mu_block_is_scalar_matrix(self):
        # I_mu = c_mu times the identity in a normal orthonormal basis at mu:
        # the Monte-Carlo block has equal diagonal entries and no off-diagonal
        # ones, within its standard errors
        block = fisher_numeric(RgdParams(hy.origin(3), 0.8), 20_000, seed=107)
        c_mu = fisher_factors(3, 0.8)[0]
        diag, se = np.diag(block.mu_block), np.diag(block.mu_block_se)
        assert np.all(np.abs(diag - c_mu) <= np.maximum(0.05 * c_mu, 3.0 * se))
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.abs(block.mu_block[off]) <= 3.0 * block.mu_block_se[off])

    def test_array_sigma_matches_scalar_calls(self):
        # the closed forms and the log formula on an array of sigmas, element
        # for element, are the floats of one scalar call each
        sigma = np.linspace(0.05, 3.5, 24).reshape(4, 6)
        for dim in range(1, 6):
            arrays = [xi(dim, sigma), *xi_derivatives(dim, sigma),
                      *log_fisher_factors(dim, sigma)]
            for index in np.ndindex(sigma.shape):
                s = float(sigma[index])
                scalars = [xi(dim, s), *xi_derivatives(dim, s), *log_fisher_factors(dim, s)]
                assert [a.shape for a in arrays] == [sigma.shape] * 5
                assert [a[index] for a in arrays] == scalars

    @pytest.mark.parametrize("dim, sigma", [(2, 0.0), (2, -1.0), (2, math.nan), (0, 1.0)])
    def test_invalid_arguments_are_value_errors(self, dim, sigma):
        with pytest.raises(ValueError):
            log_fisher_factors(dim, sigma)

    def test_finite_where_the_closed_form_overflows(self):
        # the closed form's binomial sum overflows at D = 50; the kernel does not
        c_mu, i_sigma = fisher_factors(50, 1.0)
        assert 0 < c_mu < math.inf
        assert 0 < i_sigma < math.inf

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_small_sigma_is_euclidean(self, dim):
        # as sigma -> 0, I_mu = 1 / sigma^2 and I_sigma = 2 D / sigma^2; sigma^6
        # is below the float range here
        sigma = 1e-60
        log_c_mu, log_i_sigma = log_fisher_factors(dim, sigma)
        assert math.exp(log_c_mu + 2 * math.log(sigma)) == pytest.approx(1.0, rel=1e-12)
        assert math.exp(log_i_sigma + 2 * math.log(sigma)) == pytest.approx(2.0 * dim,
                                                                             rel=1e-12)

    def test_positivity(self):
        # both factors are positive: their logs are finite
        for dim in range(1, 6):
            logs = log_fisher_factors(dim, np.linspace(0.1, 3.0, 12))
            assert np.all(np.isfinite(logs))

    def test_sigma_fisher_against_score_variance(self):
        # information identity: E[-d^2 log p] = Var[d log p]
        for dim in (1, 2, 3):
            for sigma in (0.5, 1.0, 2.0):
                assert fisher_factors(dim, sigma)[1] == pytest.approx(
                    sigma_score_variance(dim, sigma), rel=1e-8)


class TestNumericOracle:
    def test_matches_closed_forms(self):
        params = RgdParams(hy.origin(2), 1.0)
        block = fisher_numeric(params, 20_000, seed=101)
        mu_ref, sigma_ref = fisher_factors(2, 1.0)
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

    @pytest.mark.parametrize("dim, passes", [(1, 3), (2, 9), (3, 19)])
    def test_one_distance_pass_per_mu_offset(self, dim, passes, rng, monkeypatch):
        # 9, 19 and 33 offsets share 3, 9 and 19 distinct mu offsets: the sigma
        # offsets reuse their mu offset's distances, and -0.0 and 0.0 are one
        # offset.  The estimate is the per-offset loop's, field for field and
        # bit for bit, and no more than one distance array per mu offset is
        # alive at a time: 1.44 MB at D = 2, the quick suite's largest.
        params = RgdParams(random_point(rng, dim, 1.0), 0.9)
        reference = fisher_numeric_per_offset(params, 20_000, seed=31)
        returned = []
        live_bytes = []

        def counted(x, ys, dist_many=hy.dist_many):
            d = dist_many(x, ys)
            returned.append(weakref.ref(d))
            live_bytes.append(sum(a.nbytes for a in (r() for r in returned) if a is not None))
            return d

        monkeypatch.setattr(hy, "dist_many", counted)
        block = fisher_numeric(params, 20_000, seed=31)
        assert len(returned) == passes
        assert max(live_bytes) <= passes * 20_000 * 8
        for field in FisherBlock._fields:
            assert np.array_equal(getattr(block, field), getattr(reference, field))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_kernel_call_per_estimate(self, dim, monkeypatch):
        # log xi at sigma - h, sigma and sigma + h comes from one moment-kernel
        # call of three rows, where one call per offset made 9, 19 and 33;
        # both names are spied on, the library's and the oracle module's
        rows = []

        def counted(d, sigma, kernel=gaussian.radial_moments):
            rows.append(np.size(sigma))
            return kernel(d, sigma)

        monkeypatch.setattr(gaussian, "radial_moments", counted)
        monkeypatch.setattr(validation, "radial_moments", counted)
        fisher_numeric(RgdParams(hy.origin(dim), 0.9), 10_000, seed=5)
        assert rows == [3]

    @pytest.mark.parametrize("sigma", [1e-4, 5e-5])
    def test_sigma_within_the_step_is_refused(self, sigma):
        with pytest.raises(ValueError, match="finite-difference step"):
            fisher_numeric(RgdParams(hy.origin(2), sigma), 10_000, seed=0)

    def test_sample_budget_guard(self):
        with pytest.raises(ValueError):
            fisher_numeric(RgdParams(hy.origin(2), 1.0), 100, seed=0)

    def test_normal_chart_centers_at_mu(self, rng):
        mu = random_point(rng, 3)
        # fisher_numeric's normal coordinates about mu
        assert np.max(np.abs(hy.exp_normal(mu, np.zeros(3)) - mu)) < 1e-12
        # moving along a chart axis by t covers geodesic distance t
        moved = hy.exp_normal(mu, np.array([0.3, 0.0, 0.0]))
        assert dist(mu, moved) == pytest.approx(0.3, abs=1e-9)


class TestFisherIntegral:
    def test_one_dimensional_analytic_value(self):
        # D=1, vol(Theta)=2R=1, sigma in [0.5, 2]:
        # integral of sqrt(2)/sigma^2 = sqrt(2) (2 - 1/2) = 3/sqrt(2)
        domain = ParamDomain(radius_R=0.5, sigma_min=0.5, sigma_max=2.0)
        value = fisher_integral(1, domain, 1e-11)
        assert value == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-10)

    def test_parameterization_invariance(self):
        # Gauss-Kronrod in sigma against the complexity's Gauss-Legendre rule in
        # log sigma
        rel_tol = 1e-11
        for dim, lo, hi, radius in [(1, 0.5, 2.0, 1.0), (2, 0.3, 2.0, 3.0),
                                    (3, 0.2, 1.5, 2.0)]:
            domain = ParamDomain(radius, lo, hi)
            a = fisher_integral(dim, domain, rel_tol)
            pc = pc_hgd(dim, 2, domain)
            assert a == pytest.approx(math.exp(pc.term_volume + pc.term_fisher), rel=1e-8)

    def test_volume_scaling(self):
        domain_small = ParamDomain(1.0, 0.5, 1.5)
        domain_large = ParamDomain(2.0, 0.5, 1.5)
        ratio = math.exp(hy.log_ball_volume(2, 2.0) - hy.log_ball_volume(2, 1.0))
        a = fisher_integral(2, domain_small)
        b = fisher_integral(2, domain_large)
        assert b == pytest.approx(ratio * a, rel=1e-10)


    @pytest.mark.parametrize("rows", [1, validation._FISHER_ROWS, validation._FISHER_ROWS + 1,
                                      10 * validation._FISHER_ROWS])
    def test_sigma_rows_in_blocks_are_the_row_by_row_floats(self, rows, monkeypatch):
        # the integrand hands the moment kernel _FISHER_ROWS sigmas at a time;
        # each row's value does not depend on the block it shares, so stacks
        # of 1, a block, a block and one, and ten blocks of rows give the
        # floats of one row at a time, and so does the whole integral
        sigma = np.random.default_rng(34).uniform(0.05, 4.0, rows)
        for dim in (1, 2, 3):
            one_at_a_time = np.concatenate([validation._root_det_fisher(dim, sigma[i:i + 1])
                                            for i in range(rows)])
            np.testing.assert_array_equal(validation._root_det_fisher(dim, sigma).view(np.int64),
                                          one_at_a_time.view(np.int64))
        domains = [ParamDomain(1.0, 0.3, 2.0), ParamDomain(2.5, 0.2, 1.1)]
        blocked = fisher_integral(2, domains, 1e-11)
        monkeypatch.setattr(validation, "_FISHER_ROWS", rows)
        np.testing.assert_array_equal(fisher_integral(2, domains, 1e-11).view(np.int64),
                                      blocked.view(np.int64))


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

        z = adaptive_gauss_kronrod(lambda r: weight(r), 0.0, cutoff, TIGHT)
        mean_d2 = adaptive_gauss_kronrod(lambda r: weight(r, 2), 0.0, cutoff, TIGHT) / z

        def expected_loglik(s):
            return -math.log(xi(dim, math.exp(s))) - mean_d2 / (2.0 * math.exp(2 * s))

        s0 = math.log(sigma)

        def second(h):
            return -(expected_loglik(s0 + h) - 2 * expected_loglik(s0)
                     + expected_loglik(s0 - h)) / h ** 2

        h = 3e-4
        info_log_sigma = (4.0 * second(h / 2) - second(h)) / 3.0
        assert info_log_sigma == pytest.approx(
            sigma ** 2 * fisher_factors(dim, sigma)[1], rel=1e-7)
