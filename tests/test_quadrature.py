import math

import pytest

from rmnml import quadrature
from rmnml.quadrature import QuadratureError, integrate_1d

TIGHT = 1e-12


def test_constant_integral():
    assert integrate_1d(lambda x: 1.0, 0.0, 1.0, TIGHT) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_tail_integral():
    # \int_0^inf exp(-r^2/2) dr truncated at 40 sigma
    value = integrate_1d(lambda r: math.exp(-r * r / 2.0), 0.0, 40.0, TIGHT)
    assert value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-11)


def test_sinh_antiderivative():
    value = integrate_1d(math.sinh, 0.0, 1.0, TIGHT)
    assert value == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-11)


def test_linearity():
    f = lambda x: math.exp(-x) * math.sin(3 * x)
    g = lambda x: x ** 3 - 2 * x
    a, b = 0.2, 1.7
    lhs = integrate_1d(lambda x: 2.5 * f(x) - 1.25 * g(x), a, b, TIGHT)
    rhs = 2.5 * integrate_1d(f, a, b, TIGHT) - 1.25 * integrate_1d(g, a, b, TIGHT)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_subdivision_budget_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(QuadratureError) as excinfo:
        integrate_1d(lambda x: math.sqrt(abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-14)
    exact = ((1 / 3) ** 1.5 + (2 / 3) ** 1.5) * 2 / 3
    assert excinfo.value.best_estimate == pytest.approx(exact, rel=1e-2)


def test_invalid_interval_and_spec():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 0.0)
    for rel_tol in (0.0, -1e-10, math.nan):
        for rule in ("simpson", "log-gauss-legendre"):
            with pytest.raises(ValueError, match="rel_tol must be positive"):
                integrate_1d(lambda x: x, 0.0, 1.0, rel_tol, rule=rule)


def test_log_gauss_legendre_rule():
    # log of exp(-x^2/2) over [-10, 10]; the rule sums in the log domain
    # and returns the log of the integral
    value = integrate_1d(lambda x: -0.5 * x * x, -10.0, 10.0, TIGHT,
                         rule="log-gauss-legendre")
    assert math.exp(value) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
    big = integrate_1d(lambda x: 700.0 + 0.0 * x, 0.0, 1.0, TIGHT,
                       rule="log-gauss-legendre")
    assert math.exp(big) == pytest.approx(math.exp(700.0), rel=1e-12)
    # an integral beyond the float range has a finite log; abs 1e-12 on the
    # log is rel 1e-12 on the integral
    huge = integrate_1d(lambda x: 710.0 + 0.0 * x, 0.0, 2.0, TIGHT,
                        rule="log-gauss-legendre")
    assert huge == pytest.approx(710.0 + math.log(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 0.0, 1.0, rule="trapezoid")
