import math
import warnings

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml.complexity import ParamDomain, _log_sigma_integrand, hgd_sigma_integral
from rmnml.gaussian import (_SIGMA_SQUARE_MIN, Dataset, RgdParams,
                            _radial_table, frechet_mean, log_lik, log_pdf_vol_many, mle,
                            radial_moments, sample)
from rmnml.validation import (adaptive_gauss_kronrod, log_radial_weight, radial_cutoff, xi,
                              xi_derivatives, xi_quadrature_oracle)

from conftest import (closed_fisher_factors, dist, log_map, minkowski_inner,
                      polar_point, random_point, sphere_area,
                      xi_fd_derivatives)

TIGHT = 1e-12
DOMAIN = ParamDomain(radius_R=3.0, sigma_min=0.05, sigma_max=3.0)


def pdf_vol(x: np.ndarray, params: RgdParams) -> float:
    """Density at one point with respect to the volume element."""
    return float(np.exp(log_pdf_vol_many(x[None, :], params)[0]))


def radial_mode(dim: int, sigma: float) -> float:
    """Root of r tanh r = (D-1) sigma^2, the mode of the radial weight, by bisection."""
    target = (dim - 1) * sigma * sigma
    lo, hi = 0.0, target + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.tanh(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestXi:
    def test_dimension_one_is_gaussian(self):
        for sigma in (0.1, 0.7, 1.0, 2.5):
            assert xi(1, sigma) == pytest.approx(sigma * math.sqrt(2 * math.pi), rel=1e-14)

    def test_dimension_two_value(self):
        # oracle: 2 pi \int_0^inf exp(-r^2/2) sinh r dr
        oracle = 2 * math.pi * adaptive_gauss_kronrod(
            lambda r: np.exp(-r * r / 2.0) * np.sinh(r), 0.0, 42.0, TIGHT)
        assert xi(2, 1.0) == pytest.approx(oracle, rel=1e-10)
        assert oracle == pytest.approx(8.8636, abs=5e-4)

    def test_dimension_three_small_sigma(self):
        sigma = 0.5
        oracle = 4 * math.pi * adaptive_gauss_kronrod(
            lambda r: np.exp(-r * r / (2 * sigma ** 2)) * np.sinh(r) ** 2,
            0.0, radial_cutoff(3, sigma), TIGHT)
        assert xi(3, sigma) == pytest.approx(oracle, rel=1e-8)

    def test_closed_form_against_quadrature_grid(self):
        for dim in range(1, 6):
            for sigma in (0.1, 0.5, 1.0, 2.0, 3.0):
                oracle = xi_quadrature_oracle(dim, sigma)
                assert xi(dim, sigma) == pytest.approx(oracle, rel=1e-8)

    def test_strictly_increasing_in_sigma(self):
        for dim in (1, 2, 4):
            values = [xi(dim, s) for s in np.linspace(0.05, 3.0, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert values[0] > 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            xi(0, 1.0)
        with pytest.raises(ValueError):
            xi(2, 0.0)


class TestRadialMoments:
    def test_log_xi_against_quadrature_oracle(self):
        # well past D = 5, where the closed form loses digits, to D = 12
        sigmas = (0.05, 0.1, 0.5, 1.0, 2.0, 3.0)
        for dim in range(1, 13):
            log_xi, _, _ = radial_moments(dim, np.array(sigmas))
            for sigma, value in zip(sigmas, log_xi):
                oracle = xi_quadrature_oracle(dim, sigma)
                assert math.exp(value) == pytest.approx(oracle, rel=1e-10)

    def test_moments_against_closed_form(self):
        # E[d^2] = sigma^3 xi'/xi and Var(d^2) = sigma^6 I_sigma, with xi and
        # I_sigma in the paper's closed form
        for dim in range(1, 6):
            for sigma in (0.1, 0.3, 1.0, 2.0, 3.5):
                log_xi, log_mean, log_var = radial_moments(dim, sigma)
                value = xi(dim, sigma)
                assert float(log_xi) == pytest.approx(math.log(value), abs=1e-12)
                assert math.exp(log_mean) == pytest.approx(
                    sigma ** 3 * xi_derivatives(dim, sigma)[0] / value, rel=1e-12)
                assert math.exp(log_var) == pytest.approx(
                    sigma ** 6 * closed_fisher_factors(dim, sigma)[1], rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 50])
    @pytest.mark.parametrize("sigma", [1e3, 8e7, 1e10, 1e17, 1e40])
    def test_large_sigma_limits(self, dim, sigma):
        # far from the origin sinh r = e^r / 2 to double precision, so r is
        # normal with mean (D-1) sigma^2 and variance sigma^2: E[d^2] and
        # Var(d^2) are exact there
        _, log_mean, log_var = radial_moments(dim, sigma)
        a = (dim - 1) * sigma * sigma
        assert math.exp(log_mean) == pytest.approx(a * a + sigma ** 2, rel=1e-12)
        assert math.exp(log_var) == pytest.approx(4 * a * a * sigma ** 2 + 2 * sigma ** 4,
                                                  rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 50, 1000, 10_000])
    def test_normal_limit_up_to_the_float_range(self, dim):
        # once the window lies past r = 19, that is (D-1) sigma^2 - 10 sigma > 19,
        # sinh r = e^r / 2 to double precision and r is normal with mean
        # (D-1) sigma^2 and variance sigma^2: E[d^2] = (D-1)^2 sigma^4 + sigma^2
        # and Var(d^2) = 4 (D-1)^2 sigma^6 + 2 sigma^4.  A relative 1e-12 in a
        # moment is an absolute 1e-12 in its log.
        sigmas = [s for s in np.geomspace(0.1, 1e300, 61).tolist()
                  if (dim - 1) * s * s - 10 * s > 19]
        assert sigmas[-1] == 1e300
        _, log_mean, log_var = radial_moments(dim, np.array(sigmas))
        log_a, inv = math.log(dim - 1), [1.0 / ((dim - 1) * s) for s in sigmas]
        assert log_mean.tolist() == pytest.approx(
            [2 * log_a + 4 * math.log(s) + math.log1p(v * v) for s, v in zip(sigmas, inv)],
            abs=1e-12)
        assert log_var.tolist() == pytest.approx(
            [math.log(4.0) + 2 * log_a + 6 * math.log(s) + math.log1p(0.5 * v * v)
             for s, v in zip(sigmas, inv)], abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 1000, 10_000])
    def test_small_sigma_limits(self, dim):
        # sinh^(D-1) r = r^(D-1) (1 + (D-1) r^2 / 6 + ...) gives
        # E[d^2] = D s^2 (1 + (D-1) s^2 / 3) and
        # Var(d^2) = 2 D s^4 (1 + 2 (D-1) s^2 / 3) up to O(s^4) relative;
        # at large D the kernel's log sinh r is large and negative here
        for sigma in (1e-6, 1e-12, 1e-20):
            _, log_mean, log_var = radial_moments(dim, sigma)
            s2 = sigma * sigma
            assert math.exp(log_mean) == pytest.approx(
                dim * s2 * (1 + (dim - 1) * s2 / 3), rel=1e-12)
            assert math.exp(log_var) == pytest.approx(
                2 * dim * s2 * s2 * (1 + 2 * (dim - 1) * s2 / 3), rel=1e-12)

    def test_shapes_follow_sigma(self):
        log_xi, log_mean, log_var = radial_moments(3, 0.7)
        assert log_xi.shape == log_mean.shape == log_var.shape == ()
        grid = np.linspace(0.1, 3.0, 12).reshape(3, 4)
        log_xi, log_mean, log_var = radial_moments(3, grid)
        assert log_xi.shape == log_mean.shape == log_var.shape == (3, 4)
        assert float(log_mean[1, 2]) == float(radial_moments(3, grid[1, 2])[1])

    def test_finite_in_high_dimension(self):
        for dim in (8, 16, 30, 100):
            moments = radial_moments(dim, np.array([0.05, 0.5, 3.0]))
            assert np.all(np.isfinite(moments))

    @pytest.mark.parametrize("dim", [10**6, 10**7, 10**8, 10**10])
    def test_window_on_the_mode_at_large_dim(self, dim):
        # near sigma = 0.2 / sqrt(D) one Newton step from sqrt(a (a + 1)) left
        # the window off the mode, and exp overflowed at D = 1e10; warnings
        # are errors here.  The moments match a trapezoid rule on a dense grid
        # of plain log w about the bisected mode, whose log w rounds by up to
        # 3e-5 at D = 1e10.
        sigmas = np.linspace(0.05, 5.0, 100) / math.sqrt(dim)
        for result in radial_moments(dim, sigmas):
            assert np.isfinite(result).all()
        for sigma in sigmas[[0, 3, 19, 99]].tolist():
            m = radial_mode(dim, sigma)
            r = np.linspace(max(m - 20.0 * sigma, 0.0), m + 20.0 * sigma, 4001)
            log_w = log_radial_weight(dim, r, sigma)
            top = float(log_w.max())
            w = np.exp(log_w - top)
            z = np.trapezoid(w, r)
            mean = np.trapezoid(w * r * r, r) / z
            var = np.trapezoid(w * (r * r - mean) ** 2, r) / z
            log_area = math.log(2.0) + 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim)
            log_xi, log_mean, log_var = radial_moments(dim, sigma)
            assert float(log_xi) == pytest.approx(log_area + top + math.log(z), rel=1e-12)
            assert float(log_mean) == pytest.approx(math.log(mean), abs=1e-9)
            assert float(log_var) == pytest.approx(math.log(var), abs=1e-5)

    def test_rule_is_read_only_and_calls_repeat(self):
        # a call leaves the cached rule and sigma as they were, so a second
        # call gives the same floats
        sigmas = np.linspace(0.05, 3.0, 7)
        for dim in (1, 3):
            first, second = radial_moments(dim, sigmas), radial_moments(dim, sigmas)
            for a, b in zip(first, second):
                assert np.array_equal(a, b)
        assert np.array_equal(sigmas, np.linspace(0.05, 3.0, 7))

    @pytest.mark.parametrize("dim", [10, 100, 1000])
    def test_moments_against_gauss_kronrod_in_high_dimension(self, dim):
        # direct adaptive Gauss-Kronrod integrals of w(r) = exp(-r^2/2s^2) sinh^(D-1) r,
        # r^2 w and (r^2 - E)^2 w over the mode m +- 40 sigma.  log w is taken
        # relative to log w(m) in a form that does not subtract two numbers of
        # size 1e6-1e7; the direct difference exhausted adaptive Simpson's budget.
        for sigma in (0.05, 0.3, 1.0, 3.0):
            m = radial_mode(dim, sigma)

            def w(r):
                with np.errstate(divide="ignore"):  # log 0 = -inf at r = 0
                    return np.exp(-(r - m) * (r + m) / (2 * sigma * sigma) + (dim - 1) * (
                        (r - m) + np.log(np.expm1(-2.0 * r) / math.expm1(-2.0 * m))))

            a, b = max(m - 40 * sigma, 0.0), m + 40 * sigma
            z = adaptive_gauss_kronrod(w, a, b, TIGHT)
            mean = adaptive_gauss_kronrod(lambda r: r * r * w(r), a, b, TIGHT) / z
            var = adaptive_gauss_kronrod(lambda r: (r * r - mean) ** 2 * w(r), a, b, TIGHT) / z
            log_w_mode = -m * m / (2 * sigma * sigma) + (dim - 1) * (
                m + math.log(-math.expm1(-2.0 * m)) - math.log(2.0))
            log_area = math.log(2.0) + 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim)

            log_xi, log_mean, log_var = radial_moments(dim, sigma)
            assert float(log_xi) == pytest.approx(log_area + log_w_mode + math.log(z),
                                                  rel=1e-12)
            assert math.exp(log_mean) == pytest.approx(mean, rel=1e-11)
            assert math.exp(log_var) == pytest.approx(var, rel=1e-9)

    @pytest.mark.parametrize("dim", [10, 100, 1000])
    def test_sigma_integral_against_gauss_kronrod_in_high_dimension(self, dim):
        # the Gauss-Legendre rule in log sigma against adaptive Gauss-Kronrod
        # over the same log-integrand, shifted by its maximum before exp; abs
        # 1e-10 on the log is the rule's own default stopping tolerance.  The
        # oracle runs at 1e-11: at D = 1000 the integrand's rounding, near
        # 1e-12, exhausted adaptive Simpson's budget at 1e-12.
        domain = ParamDomain()
        a, b = math.log(domain.sigma_min), math.log(domain.sigma_max)
        top = float(_log_sigma_integrand(dim, np.linspace(a, b, 257)).max())
        oracle = top + math.log(adaptive_gauss_kronrod(
            lambda u: np.exp(_log_sigma_integrand(dim, u) - top), a, b, 1e-11))
        assert hgd_sigma_integral(dim, domain) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("dim", [10, 100, 1000])
    def test_sigma_integral_against_simpson_in_high_dimension(self, dim):
        # the same log-integral against composite Simpson on 2^16 equal panels
        # in log sigma, a rule with no adaptive panel choice and so no end
        # blind spot.  Quartering the panels cuts its error 16-fold; at 2^16
        # the default domain's worst case (D = 100) is near 6e-13.
        domain = ParamDomain()
        a, b = math.log(domain.sigma_min), math.log(domain.sigma_max)
        n = 2 ** 16
        log_f = _log_sigma_integrand(dim, np.linspace(a, b, n + 1))
        top = float(log_f.max())
        f = np.exp(log_f - top)
        simpson = (b - a) / (3 * n) * (f[0] + f[-1] + 4 * math.fsum(f[1:-1:2])
                                       + 2 * math.fsum(f[2:-1:2]))
        oracle = top + math.log(simpson)
        assert hgd_sigma_integral(dim, domain) == pytest.approx(oracle, abs=1e-10)


class TestXiDerivatives:
    def test_dimension_one_exact(self):
        for sigma in (0.3, 1.0, 2.0):
            d1, d2 = xi_derivatives(1, sigma)
            assert d1 == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)
            assert d2 == 0.0

    def test_against_finite_differences(self):
        for dim in (2, 3, 4, 5):
            for sigma in (0.3, 0.5, 1.0, 2.0):
                d1, d2 = xi_derivatives(dim, sigma)
                f1, f2 = xi_fd_derivatives(dim, sigma)
                assert d1 == pytest.approx(f1, rel=1e-6)
                assert d2 == pytest.approx(f2, rel=1e-6)

    def test_first_derivative_positive(self):
        for dim in (1, 2, 3, 5):
            for sigma in np.linspace(0.1, 3.0, 15):
                d1, _ = xi_derivatives(dim, float(sigma))
                assert d1 > 0


class TestPdf:
    def test_value_at_mean(self):
        params = RgdParams(hy.origin(2), 0.9)
        assert pdf_vol(params.mu, params) == pytest.approx(1.0 / xi(2, 0.9), rel=1e-12)

    def test_isometry_invariance(self, rng):
        params = RgdParams(random_point(rng, 2), 1.1)
        nu = random_point(rng, 2)
        x = random_point(rng, 2)
        moved_mu, moved_x = hy.boost(nu, np.stack([params.mu, x]))
        assert pdf_vol(moved_x, RgdParams(moved_mu, params.sigma)) == pytest.approx(
            pdf_vol(x, params), rel=1e-9)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
    def test_normalization(self, dim, sigma):
        params = RgdParams(hy.origin(dim), sigma)
        area = sphere_area(dim)

        def integrand(r):
            # the points at distance r from the origin along the first axis
            x = np.zeros((r.size, dim + 1))
            x[:, 0], x[:, 1] = np.cosh(r), np.sinh(r)
            return np.exp(log_pdf_vol_many(x, params)) * np.sinh(r) ** (dim - 1)

        mass = area * adaptive_gauss_kronrod(integrand, 0.0,
                                             min(30.0, radial_cutoff(dim, sigma)), 1e-9)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestLogLik:
    def test_single_point_at_mean(self):
        params = RgdParams(hy.origin(2), 0.7)
        data = Dataset(params.mu[None, :])
        assert log_lik(data, params) == pytest.approx(-math.log(xi(2, 0.7)), rel=1e-12)

    def test_additive_over_concatenation(self, rng):
        params = RgdParams(hy.origin(3), 1.0)
        a = sample(40, params, seed=1)
        b = sample(60, params, seed=2)
        both = Dataset(np.vstack([a.coords, b.coords]))
        assert log_lik(both, params) == pytest.approx(
            log_lik(a, params) + log_lik(b, params), rel=1e-12)

    def test_matches_sum_of_log_densities(self, rng):
        params = RgdParams(random_point(rng, 2), 0.8)
        data = sample(50, params, seed=3)
        total = log_pdf_vol_many(data.coords, params).sum()
        assert log_lik(data, params) == pytest.approx(float(total), abs=1e-12)

    @pytest.mark.parametrize("dim, bound, n, sigma", [
        (1, 1.34e154, 1, 1e200), (2, 1.34e154, 1, 1e200), (3, 9.48e153, 1, 1e200),
        (3, 6.7e153, 2, 9.4e153), (3, 1.58e-152, 1, 1.5e-154), (1, 3.54e-152, 5, 2e-152)],
        ids=["1-1.34e+154", "2-1.34e+154", "3-9.48e+153", "3-sum", "3-term", "1-sum-small"])
    def test_overflow_names_the_stage(self, dim, bound, n, sigma):
        # sigma^2 overflows past 1.34e154, and log xi, about (D-1)^2 sigma^2 / 2,
        # past 1.34e154 sqrt(2) / (D-1); below both the density is finite.  With
        # n = 2 at 9.4e153 each term is finite (about -1.77e308) but their sum is
        # not.  A point 300 from mu overflows d^2 / (2 sigma^2) below
        # 300 / (sqrt 2 sqrt(float max)) = 1.58e-152, and the sum of 5 such
        # terms, each finite, below sqrt(5 300^2 / 2) / sqrt(float max) =
        # 3.54e-152.  At D = 1, log xi = log(sqrt(2 pi) sigma) is finite for
        # every sigma, and so is the density past sigma = 1.34e154
        small = sigma < bound
        data = Dataset(np.tile(hy.polar(300.0 if small else 0.0, np.eye(dim)[0]), (n, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite = (1.01 if small else 0.99) * bound
            assert math.isfinite(log_lik(data, RgdParams(hy.origin(dim), finite)))
            if dim == 1 and not small:
                closed = -n * (0.5 * math.log(2.0 * math.pi) + math.log(sigma))
                assert log_lik(data, RgdParams(hy.origin(dim), sigma)) == pytest.approx(
                    closed, rel=1e-15)
                return
            with pytest.raises(OverflowError) as info:
                log_lik(data, RgdParams(hy.origin(dim), sigma))
        stage = "log density" if n == 1 else "log-likelihood"
        if small and n == 1:
            reason = (f"d^2 / (2 sigma^2) at the farthest distance, d = 300, is finite only "
                      f"above about sigma = {bound:.3g}")
        elif small:
            reason = (f"the sum of d^2 / (2 sigma^2) over n = {n} points is finite only "
                      f"above about sigma = {bound:.3g}")
        else:
            sample_size = "" if n == 1 else f" and n = {n}"
            reason = f"at D = {dim}{sample_size} it is finite only below about sigma = {bound:.3g}"
        assert str(info.value) == f"the {stage} at sigma = {sigma:.6g} overflows: {reason}"


class TestSample:
    def test_deterministic(self):
        params = RgdParams(hy.origin(2), 1.0)
        assert np.array_equal(sample(500, params, seed=7).coords,
                              sample(500, params, seed=7).coords)

    def test_mean_squared_distance(self):
        # oracle: E[d^2] = \int r^2 w(r) dr / \int w(r) dr by quadrature
        for dim, sigma in [(1, 0.8), (2, 1.0), (3, 0.6)]:
            params = RgdParams(hy.origin(dim), sigma)
            cutoff = radial_cutoff(dim, sigma)

            def w(r, k=0):
                return r ** k * np.exp(-r * r / (2 * sigma ** 2)) * (
                    np.sinh(r) ** (dim - 1))

            z = adaptive_gauss_kronrod(lambda r: w(r), 0.0, cutoff, TIGHT)
            second = adaptive_gauss_kronrod(lambda r: w(r, 2), 0.0, cutoff, TIGHT)
            fourth = adaptive_gauss_kronrod(lambda r: w(r, 4), 0.0, cutoff, TIGHT)
            expect = second / z
            var_d2 = fourth / z - expect ** 2

            data = sample(100_000, params, seed=11 + dim)
            d2 = hy.dist_many(params.mu, data.coords) ** 2
            stderr = math.sqrt(var_d2 / data.n)
            assert abs(float(d2.mean()) - expect) <= 3.0 * stderr

    def test_isometry_preserves_radial_distribution(self, rng):
        params = RgdParams(hy.origin(2), 1.0)
        data = sample(200, params, seed=5)
        nu = random_point(rng, 2)
        moved = Dataset(hy.boost(nu, data.coords))
        d_before = hy.dist_many(params.mu, data.coords)
        d_after = hy.dist_many(hy.boost(nu, params.mu[None, :])[0], moved.coords)
        assert np.max(np.abs(d_before - d_after)) < 1e-9

    def test_centered_at_mu(self, rng):
        mu = random_point(rng, 3)
        data = sample(20_000, RgdParams(mu, 0.5), seed=9)
        frechet = mle(data, DOMAIN).params.mu
        assert dist(mu, frechet) < 0.02

    def test_beyond_float_range_names_sigma_and_mu(self):
        # points beyond about 710 from the origin overflow cosh
        mu = polar_point(705.0, [1.0, 0.0])
        with pytest.raises(ValueError, match=r"sigma = 2\.0 with mu at distance 705 "):
            sample(100, RgdParams(mu, 2.0), seed=0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            RgdParams(hy.origin(2), sigma)

    def test_sigma_whose_square_underflows_names_the_bound(self):
        assert RgdParams(hy.origin(2), _SIGMA_SQUARE_MIN).sigma ** 2 > 0.0
        with pytest.raises(ValueError, match=r"sigma must be at least 1\.49e-154, where "
                                             r"sigma\^2 underflows; got 1e-160"):
            RgdParams(hy.origin(2), 1e-160)

    @pytest.mark.parametrize("dim, sigma", [(1000, 0.02), (10_000, 0.005)])
    def test_table_reaches_the_mode(self, dim, sigma):
        # the mode m lies past sigma^2 (D-1) + 12 sigma here, where the table
        # used to end; sample maps its first n uniforms through the table, so
        # these are the distances from mu of its seed-1 draws
        grid, cdf = _radial_table(dim, sigma)
        r = np.interp(np.random.default_rng(1).uniform(0.0, 1.0, 4000), cdf, grid)
        _, log_mean, log_var = radial_moments(dim, sigma)
        stderr = math.sqrt(math.exp(log_var) / r.size)
        assert abs(float(np.mean(r * r)) - math.exp(log_mean)) <= 4.0 * stderr


class TestMle:
    def test_degenerate_cluster(self, rng):
        x = random_point(rng, 2)
        data = Dataset(np.tile(x, (3, 1)))
        fit = mle(data, DOMAIN)
        assert dist(fit.params.mu, x) < 1e-9
        assert fit.params.sigma == DOMAIN.sigma_min
        assert fit.sigma_clamped and fit.boundary

    def test_dimension_one_reduction(self, rng):
        # on H^1 the Frechet mean is the arithmetic mean of the signed
        # radii and sigma-hat the RMS deviation
        t = rng.normal(0.4, 0.9, size=200)
        coords = np.stack([np.cosh(t), np.sinh(t)], axis=1)
        fit = mle(Dataset(coords), DOMAIN)
        t_bar = float(t.mean())
        rms = float(np.sqrt(((t - t_bar) ** 2).mean()))
        mu_hat = float(np.arcsinh(fit.params.mu[1]))
        assert mu_hat == pytest.approx(t_bar, abs=1e-8)
        assert fit.params.sigma == pytest.approx(rms, rel=1e-9)
        assert not fit.boundary

    def test_stationarity(self, rng):
        data = sample(300, RgdParams(random_point(rng, 2, 1.0), 0.9), seed=21)
        fit = mle(data, DOMAIN)
        mu, sigma = fit.params.mu, fit.params.sigma
        h = 1e-6

        def loglik_at(t0, t1, s):
            moved = hy.exp_normal(mu, np.array([t0, t1], dtype=float))
            return log_lik(data, RgdParams(moved, s))

        for grad in (
            (loglik_at(h, 0, sigma) - loglik_at(-h, 0, sigma)) / (2 * h),
            (loglik_at(0, h, sigma) - loglik_at(0, -h, sigma)) / (2 * h),
            (loglik_at(0, 0, sigma + h) - loglik_at(0, 0, sigma - h)) / (2 * h),
        ):
            assert abs(grad) / data.n < 1e-6

    def test_isometry_equivariance(self, rng):
        data = sample(150, RgdParams(random_point(rng, 2, 0.8), 0.7), seed=31)
        nu = random_point(rng, 2, 1.0)
        fit = mle(data, DOMAIN)
        fit_moved = mle(Dataset(hy.boost(nu, data.coords)), DOMAIN)
        assert dist(fit_moved.params.mu, hy.boost(nu, fit.params.mu[None, :])[0]) < 1e-6
        assert fit_moved.params.sigma == pytest.approx(fit.params.sigma, abs=1e-6)

    def test_dominates_random_alternatives(self, rng):
        data = sample(80, RgdParams(random_point(rng, 2, 1.0), 1.2), seed=41)
        fit = mle(data, DOMAIN)
        best = log_lik(data, fit.params)
        for _ in range(100):
            other = RgdParams(random_point(rng, 2, DOMAIN.radius_R),
                              float(rng.uniform(DOMAIN.sigma_min, DOMAIN.sigma_max)))
            assert best >= log_lik(data, other) - 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("r, sigma, clamped", [(0.5, 0.8, (False, False)),
                                                    (4.0, 0.8, (True, False)),
                                                    (0.5, 0.01, (False, True))])
    def test_max_log_lik_is_log_lik_bit_for_bit(self, dim, r, sigma, clamped, rng):
        direction = rng.standard_normal(dim)
        mu = polar_point(r, direction / np.linalg.norm(direction))
        data = sample(200, RgdParams(mu, sigma), seed=dim)
        fit = mle(data, DOMAIN)
        assert (fit.mu_clamped, fit.sigma_clamped) == clamped
        assert fit.max_log_lik == log_lik(data, fit.params)

    def test_needs_two_points(self, rng):
        data = Dataset(hy.origin(2)[None, :])
        with pytest.raises(ValueError):
            mle(data, DOMAIN)

    def test_frechet_mean_converges_at_unit_step_stability_edge(self):
        # D = 5, n = 500 cloud whose objective has its largest Hessian
        # eigenvalue near 2, the stability edge of a unit gradient step,
        # which oscillated there and ran out of its 10,000 iterations; the
        # Newton step divides by the Hessian, so it has no such edge
        rng = np.random.default_rng([501, 2, 107])
        center = rng.standard_normal(5)
        center *= rng.uniform(0.0, 1.0) / np.linalg.norm(center)
        v = center + rng.uniform(0.3, 1.2) * rng.standard_normal((500, 5))
        r = np.linalg.norm(v, axis=1)
        coords = np.column_stack([np.cosh(r), (np.sinh(r) / r)[:, None] * v])
        mu = frechet_mean(coords)
        mean_log = sum(log_map(mu, x) for x in coords) / len(coords)
        assert minkowski_inner(mean_log, mean_log) < 1e-16

    @pytest.mark.parametrize("k", range(8))
    def test_frechet_mean_stationary_at_large_n(self, k):
        # at n = 1e4, sum d^2 (about 1e4) rounds by more than a step of
        # 3e-8 decreases it, so a plain decrease test halves such steps away
        # and stops short of the mean
        rng = np.random.default_rng([11, k])
        spatial = rng.standard_normal(2)
        spatial *= math.sinh(rng.uniform(0.0, 1.5)) / np.linalg.norm(spatial)
        center = np.concatenate([[math.hypot(1.0, np.linalg.norm(spatial))], spatial])
        coords = sample(10_000, RgdParams(center, 0.5 + 0.9 * k / 7), seed=k).coords
        mu = frechet_mean(coords)
        alpha = np.maximum(coords[:, 0] * mu[0] - coords[:, 1:] @ mu[1:], 1.0)
        sinh_d = np.sqrt(alpha * alpha - 1.0)
        coef = np.divide(np.arccosh(alpha), sinh_d, out=np.ones_like(alpha),
                         where=sinh_d > 0.0)
        mean_log = (coef[:, None] * (coords - alpha[:, None] * mu)).mean(axis=0)
        # the Euclidean norm bounds the Minkowski norm of a tangent vector
        assert np.linalg.norm(mean_log) <= 1e-10

    def test_mu_clamped_to_ball(self, rng):
        far = polar_point(2.5, [1.0, 0.0])
        data = sample(100, RgdParams(far, 0.5), seed=51)
        tight = ParamDomain(radius_R=1.0, sigma_min=0.05, sigma_max=3.0)
        fit = mle(data, tight)
        assert fit.mu_clamped and fit.boundary
        assert dist(hy.origin(2), fit.params.mu) == pytest.approx(1.0, abs=1e-9)
        # the clamp keeps the direction of the Frechet mean
        spatial = frechet_mean(data.coords)[1:]
        np.testing.assert_allclose(fit.params.mu[1:] / np.linalg.norm(fit.params.mu[1:]),
                                   spatial / np.linalg.norm(spatial), rtol=1e-12)

    def test_sigma_clamped_at_sigma_max(self):
        # draws at sigma = 5 have a mean d^2 past E[d^2](3), so the solve
        # returns the upper end itself
        data = sample(200, RgdParams(hy.origin(2), 5.0), seed=1)
        fit = mle(data, ParamDomain())
        assert fit.params.sigma == 3.0
        assert fit.sigma_clamped and fit.boundary and not fit.mu_clamped

    def test_frechet_step_halving_ends_stationary(self, monkeypatch):
        # a far-flung H^2 cloud whose first Newton step overshoots: the next
        # call of exp_normal repeats the step from the same point at half length
        rng = np.random.default_rng(0)
        directions = rng.standard_normal((20, 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        coords = hy.polar(rng.exponential(6.0, 20), directions)
        calls, exp_normal = [], hy.exp_normal

        def recorded(base, t):
            calls.append((np.array(base), np.array(t)))
            return exp_normal(base, t)

        monkeypatch.setattr(hy, "exp_normal", recorded)
        mu = frechet_mean(coords)
        assert any(np.array_equal(base, before) and np.array_equal(t, 0.5 * t_before)
                   for (before, t_before), (base, t) in zip(calls, calls[1:]))
        total = sum(log_map(mu, x) for x in coords)
        assert np.linalg.norm(total) <= 1e-9 * len(coords)


class TestDataset:
    def test_rejects_invalid_point_with_index(self):
        rows = np.stack([hy.origin(2), np.array([2.0, 0.0, 0.0])])
        with pytest.raises(ValueError, match="point 1"):
            Dataset(rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates_with_index(self, bad):
        rows = np.tile(hy.origin(2), (3, 1))
        rows[2, 1] = bad
        with pytest.raises(ValueError, match="point 2 is invalid: coordinates must be finite"):
            Dataset(rows)

    def test_rejects_far_point_off_the_hyperboloid(self):
        # |spatial|^2 and x0^2 overflow here; the check must still see that
        # <x,x>_L is about -0.75 x0^2, not -1
        with pytest.raises(ValueError, match="point 0 is invalid: point is off the hyperboloid"):
            Dataset(np.array([[1e160, 5e159, 0.0], [1.0, 0.0, 0.0]]))

    def test_accepts_points_near_the_float_range(self):
        r = 705.0
        Dataset(np.array([[math.cosh(r), 0.6 * math.sinh(r), 0.8 * math.sinh(r)]]))

    def test_len(self):
        data = sample(5, RgdParams(hy.origin(2), 1.0), seed=0)
        assert len(data) == data.n == 5


def _bisection_sigma(dim, target, lo, hi):
    """The sigma step as bisection on the closed-form sigma^3 xi'/xi."""
    def closed(sigma):
        return sigma ** 3 * xi_derivatives(dim, sigma)[0] / xi(dim, sigma)

    if target <= closed(lo):
        return lo
    if target >= closed(hi):
        return hi
    while hi - lo >= 1e-14 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if closed(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_mean_dispersion_and_newton_sigma_match_bisection():
    for dim in range(1, 6):
        for sigma in (0.1, 0.4, 1.0, 2.5):
            d1, _ = xi_derivatives(dim, sigma)
            assert math.exp(radial_moments(dim, sigma)[1]) == pytest.approx(
                sigma ** 3 * d1 / xi(dim, sigma), rel=1e-12)
        for seed, sigma in enumerate((0.3, 0.8, 1.6)):
            data = sample(200, RgdParams(hy.origin(dim), sigma), seed=seed)
            fit = mle(data, DOMAIN)
            d = hy.dist_many(fit.params.mu, data.coords)
            target = float(d @ d) / data.n
            expected = _bisection_sigma(dim, target, DOMAIN.sigma_min, DOMAIN.sigma_max)
            assert not fit.sigma_clamped
            assert fit.params.sigma == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 100, 10**4, 10**6])
def test_log_mean_dispersion_convex_in_log_sigma(dim):
    # the sigma solve keeps no bracket because log E[d^2] is convex and
    # increasing in u = log sigma: its slope Var(d^2) / (sigma^2 E[d^2])
    # rises from 2 to 4, with no fall past rounding
    sigmas = np.geomspace(1e-6, 1e4, 2001)
    _, log_mean, log_var = radial_moments(dim, sigmas)
    slope = np.exp(log_var - log_mean - 2.0 * np.log(sigmas))
    assert slope.min() >= 2.0 - 1e-9 and slope.max() <= 4.0 + 1e-9
    assert np.diff(slope).min() >= -1e-10


def test_mean_dispersion_monotone():
    for dim in (1, 2, 3, 5):
        values = [radial_moments(dim, s)[1] for s in np.linspace(0.05, 4.0, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))
