import math

import numpy as np
import pytest

from rmnml import hyperbolic as hy, quadrature, validation
from rmnml.complexity import _log_sigma_integrand
from rmnml.quadrature import QuadratureError, integrate_1d
from rmnml.validation import adaptive_gauss_kronrod

from conftest import log_ball_volume_oracle, refine_by_columns

TIGHT = 1e-12


def test_constant_integral():
    assert adaptive_gauss_kronrod(np.ones_like, 0.0, 1.0, TIGHT) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_tail_integral():
    # \int_0^inf exp(-r^2/2) dr truncated at 40 sigma
    value = adaptive_gauss_kronrod(lambda r: np.exp(-r * r / 2.0), 0.0, 40.0, TIGHT)
    assert value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-11)


def test_sinh_antiderivative():
    value = adaptive_gauss_kronrod(np.sinh, 0.0, 1.0, TIGHT)
    assert value == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-11)


def test_linearity():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    g = lambda x: x ** 3 - 2 * x
    a, b = 0.2, 1.7
    lhs = adaptive_gauss_kronrod(lambda x: 2.5 * f(x) - 1.25 * g(x), a, b, TIGHT)
    rhs = (2.5 * adaptive_gauss_kronrod(f, a, b, TIGHT)
           - 1.25 * adaptive_gauss_kronrod(g, a, b, TIGHT))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_subdivision_budget_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(validation, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(QuadratureError) as excinfo:
        adaptive_gauss_kronrod(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-14)
    exact = ((1 / 3) ** 1.5 + (2 / 3) ** 1.5) * 2 / 3
    assert excinfo.value.best_estimate == pytest.approx(exact, rel=1e-2)


@pytest.mark.parametrize("budget", [3, 40, validation._MAX_SUBDIVISIONS])
def test_panel_array_matches_column_reference(budget, monkeypatch):
    # the (2, m) panel array accepts the panels that two separate arrays
    # accept, so the sums, and the best estimates past a budget, are the
    # same floats
    monkeypatch.setattr(validation, "_MAX_SUBDIVISIONS", budget)
    cases = [(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-12),
             (lambda x: np.exp(-x * x) * np.cos(3.0 * x), 0.0, 10.0, 1e-13),
             (lambda x: 1.0 / (1e-4 + x * x), -1.0, 2.0, 1e-11)]

    def outcome():
        try:
            return adaptive_gauss_kronrod(f, a, b, tol)
        except QuadratureError as exc:
            return "best", exc.best_estimate

    for f, a, b, tol in cases:
        panel_array = outcome()
        monkeypatch.setattr(validation, "_refine", refine_by_columns)
        columns = outcome()
        monkeypatch.undo()
        monkeypatch.setattr(validation, "_MAX_SUBDIVISIONS", budget)
        assert panel_array == columns


def test_adaptive_rule_calls_f_on_float_arrays():
    seen = []

    def f(x):
        seen.append(x)
        return np.exp(-x * x / 2.0)

    adaptive_gauss_kronrod(f, 0.0, 40.0, TIGHT)
    assert all(isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == float
               for x in seen)
    # one call per refinement level, not one per abscissa; 300 abscissae in
    # 4 calls, where adaptive Simpson took 3,865 in 10
    assert len(seen) < 100
    assert sum(x.size for x in seen) <= 500


def recursive_gauss_kronrod(f, a, b, rel_tol):
    """Adaptive G7-K15 on scalar calls of ``f``, one panel at a time.

    The reference for the level-by-level rule: the same 8 seed panels,
    budget from the running total, rounding floor, narrow-panel test and
    redo, written on Python floats as a recursion that takes one level's
    panels from a stack.  Returns the integral and the number of calls of
    ``f``.
    """
    calls = [0]
    nodes, kronrod, gauss = (validation._NODES_15.tolist(), validation._KRONROD_15.tolist(),
                             validation._GAUSS_15.tolist())

    def sums(lo, hi):
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values = [f(centre + x * half) for x in nodes]
        calls[0] += len(values)
        return (half * sum(w * v for w, v in zip(kronrod, values)),
                half * sum(w * v for w, v in zip(gauss, values[1::2])),
                half * sum(w * abs(v) for w, v in zip(kronrod, values)))

    def level(stack, accepted, errors, cap):
        panels = []
        while stack:
            lo, hi = stack.pop()
            panels.append((lo, hi, *sums(lo, hi)))
        total = math.fsum(accepted + [p[2] for p in panels])
        budget = rel_tol * min(abs(total), cap) / (b - a)
        for lo, hi, kron, gk, mass in panels:
            diff, mid = abs(kron - gk), 0.5 * (lo + hi)
            within = diff <= budget * (hi - lo)
            if within or diff <= validation._ROUNDING_FLOOR * mass or not lo < mid < hi:
                accepted.append(kron)
                errors += [diff] if within else []
            else:
                stack += [(lo, mid), (mid, hi)]
        if not stack:
            return math.fsum(accepted), math.fsum(errors)
        return level(stack, accepted, errors, cap)

    edges = np.linspace(a, b, 9).tolist()
    cap = math.inf
    for _ in range(3):
        total, error = level(list(zip(edges, edges[1:])), [], [], cap)
        if error <= rel_tol * abs(total):
            break
        cap = abs(total)
    return total, calls[0]


@pytest.mark.parametrize("f, a, b, rel_tol", [
    (lambda x: np.exp(-x * x / 2.0), 0.0, 40.0, TIGHT),
    (lambda x: np.sqrt(x) * np.cos(7 * x), 0.0, 2.0, TIGHT),
    (lambda x: np.sinh(x) ** 4 * np.exp(-x * x / 0.5), 0.0, 12.0, 1e-9),
    (lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, 1e-11),
    # a peak the seed panels underestimate, so the running total grows
    (lambda x: np.exp(-((x - 0.3) / 0.002) ** 2), 0.0, 1.0, 1e-10),
    # a peak on a seed panel's middle node, which K15 overestimates 74-fold,
    # so the total shrinks and the redo runs
    (lambda x: np.exp(-((x - 0.0625) / 1e-4) ** 2) + 1e-3 * (1.0 + np.cos(60.0 * x)),
     0.0, 1.0, 1e-8),
])
def test_level_loop_accepts_the_panels_of_the_recursive_rule(f, a, b, rel_tol):
    # same panels accepted: the same number of abscissae, and the value up
    # to the rounding of the integrand's numpy and scalar evaluations and of
    # the weighted sums
    abscissae = []

    def counted(x):
        abscissae.append(x.size)
        return f(x)

    value = adaptive_gauss_kronrod(counted, a, b, rel_tol)
    reference, calls = recursive_gauss_kronrod(lambda x: float(f(np.float64(x))), a, b,
                                               rel_tol)
    assert sum(abscissae) == calls
    assert value == pytest.approx(reference, rel=1e-14)


def test_adaptive_rule_redoes_a_budget_set_from_a_shrinking_total(monkeypatch):
    # the overestimated peak of the last case above: the first pass ends
    # with its accepted estimates above rel_tol * |result|, the second does not
    passes = []
    refine = validation._refine

    def recorded(*args):
        passes.append(refine(*args))
        return passes[-1]

    monkeypatch.setattr(validation, "_refine", recorded)
    rel_tol = 1e-8
    value = adaptive_gauss_kronrod(lambda x: np.exp(-((x - 0.0625) / 1e-4) ** 2)
                                   + 1e-3 * (1.0 + np.cos(60.0 * x)), 0.0, 1.0, rel_tol)
    assert len(passes) == 2
    assert passes[0][1] > rel_tol * abs(passes[0][0])
    assert passes[1][1] <= rel_tol * abs(value)
    exact = 1e-4 * math.sqrt(math.pi) + 1e-3 * (1.0 + math.sin(60.0) / 60.0)
    assert value == pytest.approx(exact, rel=rel_tol)


def test_adaptive_rule_is_deterministic():
    f = lambda x: np.sqrt(x) * np.cos(7 * x)
    first = adaptive_gauss_kronrod(f, 0.0, 2.0, TIGHT)
    second = adaptive_gauss_kronrod(f, 0.0, 2.0, TIGHT)
    assert first.hex() == second.hex()


def test_kronrod_rule_is_exact_to_degree_22():
    x, w = validation._NODES_15, validation._KRONROD_15
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    powers = np.arange(25)
    moments = (x ** powers[:, None]) @ w
    exact = np.where(powers % 2 == 0, 2.0 / (powers + 1.0), 0.0)
    np.testing.assert_allclose(moments[:23], exact[:23], rtol=0.0, atol=1e-15)
    assert abs(moments[24] - exact[24]) > 1e-10  # and no further


def test_gauss_rule_is_exact_to_degree_13_on_the_legendre_nodes():
    from numpy.polynomial.legendre import leggauss  # the oracle for the nodes
    x, w = validation._NODES_15[1::2], validation._GAUSS_15
    np.testing.assert_allclose(x, leggauss(7)[0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, leggauss(7)[1], rtol=0.0, atol=1e-15)
    powers = np.arange(15)
    moments = (x ** powers[:, None]) @ w
    exact = np.where(powers % 2 == 0, 2.0 / (powers + 1.0), 0.0)
    np.testing.assert_allclose(moments[:14], exact[:14], rtol=0.0, atol=1e-15)
    assert abs(moments[14] - exact[14]) > 1e-5  # and no further


@pytest.mark.parametrize("dim, radius", [(148, 131.0), (500, 700.0), (400, 1000.0)])
def test_rounding_floor_resolves_an_endpoint_spike(dim, radius):
    # the ball volume's integrand is a spike of width about 1 / (D - 1) at
    # r = R, whose mass the seed panels' nodes barely see; without the
    # rounding floor the panels under it exhaust the budget at (500, 700)
    # and (400, 1000)
    assert log_ball_volume_oracle(dim, radius) == pytest.approx(
        hy.log_ball_volume(dim, radius), rel=1e-12)


def test_budget_error_estimate_is_finite_and_improves_with_budget(monkeypatch):
    # the kink at 1/3 needs more splits than either budget allows; the
    # estimate counts every accepted panel and the halves of the open ones
    exact = ((1 / 3) ** 1.5 + (2 / 3) ** 1.5) * 2 / 3
    gaps = []
    for budget in (30, 300):
        monkeypatch.setattr(validation, "_MAX_SUBDIVISIONS", budget)
        with pytest.raises(QuadratureError) as excinfo:
            adaptive_gauss_kronrod(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-14)
        assert math.isfinite(excinfo.value.best_estimate)
        gaps.append(abs(excinfo.value.best_estimate - exact) / exact)
    assert gaps[1] < gaps[0] < 1e-4


def test_invalid_interval_and_spec():
    for integrate in (adaptive_gauss_kronrod, integrate_1d):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)
    for rel_tol in (0.0, -1e-10, math.nan):
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            adaptive_gauss_kronrod(lambda x: x, 0.0, 1.0, rel_tol)


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
    value = integrate_1d(lambda x: -0.5 * x * x, -10.0, 10.0)
    assert math.exp(value) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
    big = integrate_1d(lambda x: 700.0 + 0.0 * x, 0.0, 1.0)
    assert math.exp(big) == pytest.approx(math.exp(700.0), rel=1e-12)
    # an integral beyond the float range has a finite log; abs 1e-12 on the
    # log is rel 1e-12 on the integral
    huge = integrate_1d(lambda x: 710.0 + 0.0 * x, 0.0, 2.0)
    assert huge == pytest.approx(710.0 + math.log(2.0), abs=1e-12)


def _counted(log_f):
    """``log_f`` and the list of the sizes of the arrays it is called on."""
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return log_f(x)

    return counted, sizes


@pytest.mark.parametrize("log_f, a, b", [
    (lambda x: -0.5 * x * x, -3.0, 4.0),
    (lambda u: _log_sigma_integrand(2, u), math.log(0.1), math.log(3.0)),
    (lambda u: _log_sigma_integrand(5, u), math.log(0.08), math.log(3.5)),
], ids=["gaussian", "sigma-D2", "sigma-D5"])
def test_first_two_levels_take_one_call(log_f, a, b):
    # where the 32- and 64-node sums agree, one call on the joined 96
    # abscissae ends the rule, and its result is the 64-node sum bit for bit
    counted, sizes = _counted(log_f)
    value = integrate_1d(counted, a, b)
    assert sizes == [96]
    assert value.hex() == quadrature.log_gauss_legendre(log_f, a, b, 64)[0].hex()


def test_levels_that_disagree_still_double():
    # a peak of width 0.03 on [0, 1]: 32 and 64 nodes disagree, 64 and 128
    # agree, so one more call, on the 128 nodes alone, ends the rule
    def log_f(x):
        return -0.5 * ((x - 0.4) / 0.03) ** 2

    levels = [quadrature.log_gauss_legendre(log_f, 0.0, 1.0, n)[0] for n in (32, 64, 128)]
    assert abs(levels[1] - levels[0]) > quadrature._GL_LOG_TOL
    assert abs(levels[2] - levels[1]) <= quadrature._GL_LOG_TOL
    counted, sizes = _counted(log_f)
    value = integrate_1d(counted, 0.0, 1.0)
    assert sizes == [96, 128]
    assert value.hex() == levels[2].hex()


def test_a_cap_at_the_first_rule_raises_there(monkeypatch):
    # the cap is read as before: at 32 nodes the rule raises at 32, with the
    # 32-node sum as its best estimate
    monkeypatch.setattr(quadrature, "_GL_NODES_MAX", quadrature._GL_NODES_MIN)
    log_f = lambda x: -0.5 * x * x
    with pytest.raises(QuadratureError, match="disagree at 32 nodes") as excinfo:
        integrate_1d(log_f, -10.0, 10.0)
    assert excinfo.value.best_estimate.hex() == quadrature.log_gauss_legendre(
        log_f, -10.0, 10.0, 32)[0].hex()
