import math

import numpy as np
import pytest

from rmnml import complexity, hyperbolic as hy, quadrature
from rmnml.complexity import (ParamDomain, chart_gap, hgd_sigma_integral,
                              pc_general, pc_hgd, regret, rm_nml_codelength)
from rmnml.gaussian import Dataset, RgdParams, log_pdf_vol_many, mle, sample
from rmnml.quadrature import QuadratureError
from rmnml.validation import adaptive_gauss_kronrod, exact_d1_gap, log_exact_complexity_d1

from conftest import (closed_sigma_integrand, lorentz_to_poincare, polar_point, random_dataset,
                      random_point, sqrt_det_metric, xi_fd_derivatives)

DOMAIN = ParamDomain(radius_R=3.0, sigma_min=0.1, sigma_max=3.0)


class TestPcGeneral:
    def test_known_value(self):
        result = pc_general(1, 100, 0.0)
        assert result.term_kn == pytest.approx(0.5 * math.log(100 / (2 * math.pi)))
        assert result.term_kn == pytest.approx(1.38364, abs=1e-5)
        assert result.term_volume == 0.0
        assert result.term_fisher == 0.0
        assert result.total_log_pc == result.term_kn + result.term_volume + result.term_fisher

    def test_doubling_n_adds_half_k_log_two(self):
        for k in (1, 3):
            base = pc_general(k, 500, math.log(2.5)).total_log_pc
            doubled = pc_general(k, 1000, math.log(2.5)).total_log_pc
            assert doubled - base == pytest.approx(0.5 * k * math.log(2.0), rel=1e-12)

    def test_rejects_bad_inputs(self):
        for bad in (-math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="log Fisher integral must be finite"):
                pc_general(1, 100, bad)
            with pytest.raises(ValueError, match="log parameter volume must be finite"):
                pc_general(2, 100, 0.0, log_vol_theta=bad)
        with pytest.raises(ValueError):
            pc_general(0, 100, 0.0)
        with pytest.raises(ValueError):
            pc_general(1, 1, 0.0)


class TestPcSymmetric:
    """The symmetric-space split: vol(Theta) times the sigma integral."""

    def test_example_value(self):
        result = pc_general(2, 100, math.log(3.0 / math.sqrt(2.0)), log_vol_theta=0.0)
        expected = 2 * 0.5 * math.log(100 / (2 * math.pi)) + math.log(3 / math.sqrt(2))
        assert result.total_log_pc == pytest.approx(expected, rel=1e-12)
        assert result.total_log_pc == pytest.approx(3.5195, abs=2e-4)

    def test_unit_factors_reduce_to_kn_term(self):
        result = pc_general(3, 64, 0.0, log_vol_theta=0.0)
        assert result.total_log_pc == result.term_kn

    def test_consistency_with_pc_general(self):
        vol, integral = 2.75, 0.4
        a = pc_general(3, 50, math.log(integral), log_vol_theta=math.log(vol))
        b = pc_general(3, 50, math.log(vol * integral))
        assert a.term_volume == math.log(vol) and b.term_volume == 0.0
        assert a.total_log_pc == pytest.approx(b.total_log_pc, rel=1e-14)


class TestPcHgd:
    def test_dimension_one_reduction(self):
        # D=1: the sigma integrand is exactly sqrt(2)/sigma^2
        domain = ParamDomain(radius_R=1.5, sigma_min=0.5, sigma_max=2.0)
        analytic = math.sqrt(2.0) * (1.0 / 0.5 - 1.0 / 2.0)
        reference = pc_general(2, 100, math.log(analytic),
                               log_vol_theta=hy.log_ball_volume(1, 1.5))
        result = pc_hgd(1, 100, domain)
        assert result.total_log_pc == pytest.approx(reference.total_log_pc, rel=1e-10)
        assert hy.log_ball_volume(1, 1.5) == math.log(3.0)  # vol = 2R on the line

    @pytest.mark.parametrize("n", [10, 100, 1_000, 10_000, 100_000])
    def test_exact_finite_n_complexity_at_dim_one(self, n):
        # the dropped o(1) term at D = 1: n (log C_n - pc_hgd) = -11/12 - 1/2n + O(n^-2)
        domain = ParamDomain()
        direct = log_exact_complexity_d1(n, domain) - pc_hgd(1, n, domain).total_log_pc
        gap = exact_d1_gap(n)
        assert abs(direct - gap) <= 1e-10
        assert abs(n * gap + 11.0 / 12.0) <= 0.6 / n

    def test_monotone_in_radius(self):
        totals = [pc_hgd(2, 200, ParamDomain(r, 0.3, 2.0)).total_log_pc
                  for r in (1.0, 2.0, 3.0, 4.0)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_decomposition_sums_to_total(self):
        result = pc_hgd(3, 500, DOMAIN)
        assert result.total_log_pc == result.term_kn + result.term_volume + result.term_fisher
        assert result.k == 4

    def test_derivative_oracle_rebuild(self):
        # rebuild the sigma integrand from finite-difference xi derivatives
        # and integrate it by adaptive Gauss-Kronrod, apart from the moment kernel
        domain = ParamDomain(radius_R=3.0, sigma_min=0.3, sigma_max=2.0)
        rel_tol = 1e-8
        kernel = pc_hgd(2, 1000, domain)
        rebuilt_int = adaptive_gauss_kronrod(
            lambda s: closed_sigma_integrand(2, s, xi_fd_derivatives),
            domain.sigma_min, domain.sigma_max, rel_tol)
        rebuilt = pc_general(3, 1000, math.log(rebuilt_int),
                             log_vol_theta=hy.log_ball_volume(2, 3.0))
        assert rebuilt.total_log_pc == pytest.approx(kernel.total_log_pc, rel=1e-5)
        kernel_int = math.exp(hgd_sigma_integral(2, domain))
        assert rebuilt_int == pytest.approx(kernel_int, rel=1e-5)


class TestSigmaIntegral:
    def test_kernel_matches_gauss_kronrod_oracle_over_benchmark_domains(self):
        # closed-form integrand by adaptive Gauss-Kronrod, on domains drawn from
        # the benchmark's range
        rng = np.random.default_rng(33)
        for _ in range(10):
            domain = ParamDomain(float(rng.uniform(2.5, 4.0)),
                                 float(rng.uniform(0.08, 0.3)),
                                 float(rng.uniform(2.0, 3.5)))
            for dim in range(1, 6):
                oracle = adaptive_gauss_kronrod(
                    lambda s: closed_sigma_integrand(dim, s),
                    domain.sigma_min, domain.sigma_max, 1e-11)
                assert math.exp(hgd_sigma_integral(dim, domain)) == pytest.approx(
                    oracle, rel=1e-10)

    def test_node_cap_raises_with_best_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_GL_NODES_MAX", quadrature._GL_NODES_MIN)
        with pytest.raises(QuadratureError) as excinfo:
            hgd_sigma_integral(2, DOMAIN)
        monkeypatch.undo()
        # the best estimate is the log of the integral
        assert math.exp(excinfo.value.best_estimate) == pytest.approx(
            math.exp(hgd_sigma_integral(2, DOMAIN)), rel=1e-6)

    def test_layer_that_never_falls_by_one_spans_the_domain(self, monkeypatch):
        # on sigma 1:1.01 at D = 2 the log integrand falls by about 0.03, never
        # by 1, so the layer named on a quadrature failure is the whole domain,
        # log sigma_max - log sigma_min wide
        def failing(log_f, a, b):
            raise QuadratureError("still disagree at 2048 nodes", best_estimate=-4.5)

        monkeypatch.setattr(complexity, "integrate_1d", failing)
        with pytest.raises(QuadratureError) as excinfo:
            hgd_sigma_integral(2, ParamDomain(3.0, 1.0, 1.01))
        assert str(excinfo.value) == (
            "still disagree at 2048 nodes: the integrand peaks at sigma = 1, in a layer "
            f"{math.log(1.01) - math.log(1.0):.2g} wide in log sigma")
        assert excinfo.value.best_estimate == -4.5


class TestCodeLength:
    def test_finite_and_positive(self, rng):
        for n in (10, 100, 1000):
            data = random_dataset(rng, 2, n, sigma=0.8)
            report = rm_nml_codelength(data, DOMAIN)
            assert math.isfinite(report.total)
            assert report.total > 0
            assert report.total == report.neg_max_loglik + report.log_pc

    def test_isometry_invariance(self, rng):
        data = random_dataset(rng, 2, 60, sigma=0.7, mu_radius=0.5)
        nu = random_point(rng, 2, 1.0)
        a = rm_nml_codelength(data, DOMAIN)
        b = rm_nml_codelength(Dataset(hy.boost(nu, data.coords)), DOMAIN)
        assert b.total == pytest.approx(a.total, abs=1e-6)

    @pytest.mark.parametrize("r, sigma", [(0.5, 0.8), (4.0, 0.8), (0.5, 0.01)])
    def test_one_distance_pass_and_constant_regret(self, r, sigma, monkeypatch):
        # interior, mu-clamped and sigma-clamped fits at D = 3
        data = sample(100, RgdParams(polar_point(r, [0.6, 0.0, 0.8]), sigma), seed=7)
        rows = []

        def counted(x, ys, dist_many=hy.dist_many):
            rows.append(len(ys))
            return dist_many(x, ys)

        monkeypatch.setattr(hy, "dist_many", counted)
        report = rm_nml_codelength(data, DOMAIN)
        assert rows == [data.n]
        assert report.boundary_flag == (r > DOMAIN.radius_R or sigma < DOMAIN.sigma_min)
        assert regret(data, report.total, DOMAIN) == pytest.approx(
            pc_hgd(3, data.n, DOMAIN).total_log_pc, abs=1e-9)

    def test_tight_cluster_sets_boundary_flag(self, rng):
        x = random_point(rng, 2, 0.5)
        jitter = sample(20, RgdParams(x, 0.01), seed=1)
        report = rm_nml_codelength(jitter, ParamDomain(3.0, 0.1, 3.0))
        assert report.boundary_flag


class TestChartGap:
    def test_lorentz_graph_at_origin(self):
        data = Dataset(np.tile(hy.origin(2), (4, 1)))
        assert chart_gap(data, hy.CHART_LORENTZ_GRAPH) == 0.0

    def test_poincare_at_origin(self):
        data = Dataset(np.tile(hy.origin(2), (3, 1)))
        assert chart_gap(data, hy.CHART_POINCARE) == pytest.approx(
            -3.0 * math.log(4.0), rel=1e-12)
        assert chart_gap(data, hy.CHART_POINCARE) == pytest.approx(-4.1589, abs=2e-4)

    def test_gap_difference_matches_transform_factor(self, rng):
        data = random_dataset(rng, 2, 25, sigma=1.0)
        diff = chart_gap(data, hy.CHART_POINCARE) - chart_gap(data, hy.CHART_LORENTZ_GRAPH)
        expected = 0.0
        for point in data.coords:
            s2 = float(point[1:] @ point[1:])
            p = lorentz_to_poincare(point)
            pn2 = float(p @ p)
            expected -= math.log(math.sqrt(1 + s2) * (2.0 / (1.0 - pn2)) ** 2)
        assert diff == pytest.approx(expected, rel=1e-12)


class TestRegret:
    def test_constant_regret_identity(self, rng):
        # the NML regret equals log PC for every dataset
        n = 40
        pc_total = pc_hgd(2, n, DOMAIN).total_log_pc
        for _ in range(20):
            data = random_dataset(rng, 2, n, sigma=float(rng.uniform(0.4, 1.5)))
            report = rm_nml_codelength(data, DOMAIN)
            assert regret(data, report.total, DOMAIN) == pytest.approx(
                pc_total, abs=1e-9)

    def test_chart_regret_matches_volume_regret(self, rng):
        # compute the code-length and the maximized log-loss through chart
        # densities; the chart factors cancel in the regret
        data = random_dataset(rng, 2, 30, sigma=0.9)
        report = rm_nml_codelength(data, DOMAIN)
        fit = mle(data, DOMAIN)
        vol_regret = regret(data, report.total, DOMAIN)
        for chart in (hy.CHART_LORENTZ_GRAPH, hy.CHART_POINCARE):
            gap = chart_gap(data, chart)
            chart_codelength = report.total + gap
            chart_max_loglik = float(log_pdf_vol_many(data.coords, fit.params).sum())
            for point in data.coords:
                chart_max_loglik += math.log(sqrt_det_metric(chart, point))
            chart_regret = chart_codelength - (-chart_max_loglik)
            assert chart_regret == pytest.approx(vol_regret, abs=1e-9)

    def test_zero_for_maximized_loglik(self, rng):
        from rmnml.gaussian import log_lik
        data = random_dataset(rng, 2, 25, sigma=0.8)
        fit = mle(data, DOMAIN)
        assert regret(data, -log_lik(data, fit.params), DOMAIN) == pytest.approx(
            0.0, abs=1e-12)


def test_param_domain_validation():
    with pytest.raises(ValueError):
        ParamDomain(0.0, 0.1, 3.0)
    with pytest.raises(ValueError):
        ParamDomain(1.0, 2.0, 1.0)
