import math

from rmnml import validation
from rmnml.validation import (check_kraft, check_mc_pipeline,
                              check_reparameterization, check_xi)


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
        def g(x):
            count[0] += x.size
            return f(x)
        return adaptive_gauss_kronrod(g, *args, **kwargs)

    monkeypatch.setattr(validation, "adaptive_gauss_kronrod", counted)
    return count


def test_reparameterization_oracle_evaluation_count(monkeypatch):
    # fisher_integral over the suite's 20 domains: 2,580 abscissae; adaptive
    # Simpson took 23,636
    count = _abscissae_through_f(monkeypatch)
    assert check_reparameterization().passed
    assert 0 < count[0] <= 4_000


def test_xi_oracle_evaluation_count(monkeypatch):
    # xi_quadrature_oracle over the suite's 25 cases: 9,720 abscissae;
    # adaptive Simpson took 138,329
    count = _abscissae_through_f(monkeypatch)
    assert check_xi().passed
    assert 0 < count[0] <= 15_000
