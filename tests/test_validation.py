import math
import sys

import numpy as np
import pytest

from rmnml import validation
from rmnml.validation import (check_kraft, check_mc_pipeline,
                              check_reparameterization, check_xi)

from conftest import erfc_block_by_masks


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
