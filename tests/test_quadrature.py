import math

import numpy as np
import pytest

from rmnml import quadrature
from rmnml.quadrature import QuadratureError, integrate_1d

from conftest import refine_by_columns

TIGHT = 1e-12


def test_constant_integral():
    assert integrate_1d(np.ones_like, 0.0, 1.0, TIGHT) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_tail_integral():
    # \int_0^inf exp(-r^2/2) dr truncated at 40 sigma
    value = integrate_1d(lambda r: np.exp(-r * r / 2.0), 0.0, 40.0, TIGHT)
    assert value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-11)


def test_sinh_antiderivative():
    value = integrate_1d(np.sinh, 0.0, 1.0, TIGHT)
    assert value == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-11)


def test_linearity():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    g = lambda x: x ** 3 - 2 * x
    a, b = 0.2, 1.7
    lhs = integrate_1d(lambda x: 2.5 * f(x) - 1.25 * g(x), a, b, TIGHT)
    rhs = 2.5 * integrate_1d(f, a, b, TIGHT) - 1.25 * integrate_1d(g, a, b, TIGHT)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_subdivision_budget_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(QuadratureError) as excinfo:
        integrate_1d(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-14)
    exact = ((1 / 3) ** 1.5 + (2 / 3) ** 1.5) * 2 / 3
    assert excinfo.value.best_estimate == pytest.approx(exact, rel=1e-2)


@pytest.mark.parametrize("budget", [3, 40, quadrature._MAX_SUBDIVISIONS])
def test_panel_array_matches_column_reference(budget, monkeypatch):
    # the (7, m) panel array accepts the panels that seven separate arrays
    # accept, so the sums, and the best estimates past a budget, are the
    # same floats
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
    cases = [(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-12),
             (lambda x: np.exp(-x * x) * np.cos(3.0 * x), 0.0, 10.0, 1e-13),
             (lambda x: 1.0 / (1e-4 + x * x), -1.0, 2.0, 1e-11)]

    def outcome():
        try:
            return integrate_1d(f, a, b, tol)
        except QuadratureError as exc:
            return "best", exc.best_estimate

    for f, a, b, tol in cases:
        panel_array = outcome()
        monkeypatch.setattr(quadrature, "_refine", refine_by_columns)
        columns = outcome()
        monkeypatch.undo()
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
        assert panel_array == columns


def test_simpson_calls_f_on_float_arrays():
    seen = []

    def f(x):
        seen.append(x)
        return np.exp(-x * x / 2.0)

    integrate_1d(f, 0.0, 40.0, TIGHT)
    assert all(isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == float
               for x in seen)
    # one call per refinement level, not one per abscissa
    assert len(seen) < 100
    assert sum(x.size for x in seen) > 1000


def stack_simpson(f, a, b, rel_tol):
    """Adaptive Simpson on scalar calls of ``f`` with a LIFO stack of panels.

    The reference for the level-by-level rule: the same 64 seed panels, local
    test, budget and magnitude redo.  Returns the integral and the number of
    calls of ``f``.
    """
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    def simpson(f0, fm, f1, h):
        return h / 6.0 * (f0 + 4.0 * fm + f1)

    edges = np.linspace(a, b, 65).tolist()
    ends = [g(x) for x in edges]
    panels = []
    for x0, x2, f0, f2 in zip(edges, edges[1:], ends, ends[1:]):
        x1 = 0.5 * (x0 + x2)
        f1 = g(x1)
        panels.append((x0, x1, x2, f0, f1, f2, simpson(f0, f1, f2, x2 - x0)))
    estimate = math.fsum(p[6] for p in panels)
    for _ in range(3):
        target = max(rel_tol * abs(estimate), 1e-300)
        tol, stack, accepted = target / (b - a), panels[::-1], []
        while stack:
            x0, x1, x2, f0, f1, f2, s = stack.pop()
            lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
            flm, frm = g(lm), g(rm)
            left, right = simpson(f0, flm, f1, x1 - x0), simpson(f1, frm, f2, x2 - x1)
            err = (left + right - s) / 15.0
            if abs(err) <= tol * (x2 - x0) or not (x0 < lm < x1 < rm < x2):
                accepted.append(left + right + err)
            else:
                stack += [(x1, rm, x2, f1, frm, f2, right), (x0, lm, x1, f0, flm, f1, left)]
        total = math.fsum(accepted)
        if target >= 0.5 * rel_tol * abs(total):
            break
        estimate = total
    return total, calls[0]


@pytest.mark.parametrize("f, a, b, rel_tol", [
    (lambda x: np.exp(-x * x / 2.0), 0.0, 40.0, TIGHT),
    (lambda x: np.sqrt(x) * np.cos(7 * x), 0.0, 2.0, TIGHT),
    (lambda x: np.sinh(x) ** 4 * np.exp(-x * x / 0.5), 0.0, 12.0, 1e-9),
    (lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, 1e-11),
    # a peak the seed grid underestimates, so the magnitude redo runs
    (lambda x: np.exp(-((x - 0.3) / 0.002) ** 2), 0.0, 1.0, 1e-10),
])
def test_simpson_accepts_the_panels_of_the_stack_rule(f, a, b, rel_tol):
    # same panels accepted: the same number of abscissae, and the value up
    # to the rounding of the integrand's numpy and scalar evaluations
    abscissae = []

    def counted(x):
        abscissae.append(x.size)
        return f(x)

    value = integrate_1d(counted, a, b, rel_tol)
    reference, calls = stack_simpson(lambda x: float(f(np.float64(x))), a, b, rel_tol)
    assert sum(abscissae) == calls
    assert value == pytest.approx(reference, rel=1e-14)


def test_simpson_is_deterministic():
    f = lambda x: np.sqrt(x) * np.cos(7 * x)
    first = integrate_1d(f, 0.0, 2.0, TIGHT)
    second = integrate_1d(f, 0.0, 2.0, TIGHT)
    assert first.hex() == second.hex()


def test_budget_error_estimate_is_finite_and_improves_with_budget(monkeypatch):
    # the kink at 1/3 needs more splits than either budget allows; the
    # estimate counts every accepted panel and the halves of the open ones
    exact = ((1 / 3) ** 1.5 + (2 / 3) ** 1.5) * 2 / 3
    gaps = []
    for budget in (30, 300):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_1d(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-14)
        assert math.isfinite(excinfo.value.best_estimate)
        gaps.append(abs(excinfo.value.best_estimate - exact) / exact)
    assert gaps[1] < gaps[0] < 1e-4


def test_invalid_interval_and_spec():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 0.0)
    for rel_tol in (0.0, -1e-10, math.nan):
        for rule in ("simpson", "log-gauss-legendre"):
            with pytest.raises(ValueError, match="rel_tol must be positive"):
                integrate_1d(lambda x: x, 0.0, 1.0, rel_tol, rule=rule)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 32, 64, 96, 128, 256, 1024])
def test_gauss_legendre_rule(n):
    from numpy.polynomial.legendre import leggauss  # the oracle for the nodes
    x, w = quadrature.gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert not x.flags.writeable and not w.flags.writeable
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 1e-15
    # exact for every even power up to degree 2n - 1
    powers = 2 * np.arange(n)
    moments = (x ** powers[:, None]) @ w
    np.testing.assert_allclose(moments, 2.0 / (powers + 1.0), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(x, leggauss(n)[0], rtol=0.0, atol=1e-15)


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
