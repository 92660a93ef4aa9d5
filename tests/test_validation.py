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
