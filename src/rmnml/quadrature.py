"""Deterministic 1-D integration with error control.

Adaptive Simpson with a fixed panel order, and doubling Gauss-Legendre
log-sums over a vectorized log-integrand; every result is reproducible.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

#: Panel splits adaptive Simpson may make before it gives up.
_MAX_SUBDIVISIONS = 100_000


class QuadratureError(RuntimeError):
    """Tolerance not reached within the subdivision budget.

    Carries the best estimate obtained so far in ``best_estimate``.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


@functools.cache
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the Gauss-Legendre rule on [-1, 1].

    numpy.polynomial is imported on first use, so that importing the
    package does not load it.
    """
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _simpson(f0: float, fm: float, f1: float, h: float) -> float:
    return h / 6.0 * (f0 + 4.0 * fm + f1)


#: Node counts of the Gauss-Legendre rule in :func:`integrate_1d`: the
#: first rule, and the count past which it stops doubling.
_GL_NODES_MIN = 32
_GL_NODES_MAX = 1024


def integrate_1d(f: Callable, a: float, b: float, rel_tol: float = 1e-10,
                 rule: str = "simpson") -> float:
    """Integrate ``f`` over ``[a, b]`` to the relative tolerance ``rel_tol``.

    ``rule="simpson"`` is adaptive Simpson on scalar calls of ``f``.  The
    estimated error of the returned value is at most ``rel_tol * |result|``.
    Raises :class:`QuadratureError` (carrying the best estimate) if the
    budget of ``_MAX_SUBDIVISIONS`` panel splits is exhausted first.

    ``rule="log-gauss-legendre"`` calls ``f`` on an array of abscissae for
    the log of the integrand and returns the log of the integral.  Rules of
    32, 64, ... nodes are summed in the log domain until two successive logs
    differ by at most ``rel_tol``; past 1024 nodes it raises
    :class:`QuadratureError` with the last log as its best estimate.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    if not a < b:
        raise ValueError(f"invalid interval: [{a}, {b}]")
    if rule == "simpson":
        return _adaptive_simpson(f, a, b, rel_tol)
    if rule != "log-gauss-legendre":
        raise ValueError(f"unknown rule: {rule!r}")
    nodes = _GL_NODES_MIN
    coarse = log_gauss_legendre(f, a, b, nodes)
    while nodes < _GL_NODES_MAX:
        nodes *= 2
        fine = log_gauss_legendre(f, a, b, nodes)
        if abs(fine - coarse) <= rel_tol:
            return fine
        coarse = fine
    raise QuadratureError(f"Gauss-Legendre rules for the log of the integral still "
                          f"disagree at {nodes} nodes", best_estimate=coarse)


def log_gauss_legendre(log_f: Callable, a: float, b: float, nodes: int) -> float:
    """log of the Gauss-Legendre sum for the integral of exp(log_f) over [a, b]."""
    x, w = gauss_legendre(nodes)
    half = 0.5 * (b - a)
    log_values = log_f(a + half * (x + 1.0))
    top = float(log_values.max())
    return top + math.log(half * float(w @ np.exp(log_values - top)))


_COARSE_PANELS = 64


def _adaptive_simpson(f, a, b, rel_tol: float) -> float:
    # seed panels on a uniform grid so peaked integrands cannot fool the
    # magnitude estimate that sets the error budget
    edges = np.linspace(a, b, _COARSE_PANELS + 1)
    values = [f(x) for x in edges]
    mids = 0.5 * (edges[:-1] + edges[1:])
    mid_values = [f(x) for x in mids]
    panels = [
        (edges[i], mids[i], edges[i + 1], values[i], mid_values[i], values[i + 1],
         _simpson(values[i], mid_values[i], values[i + 1], edges[i + 1] - edges[i]))
        for i in range(_COARSE_PANELS)
    ]
    estimate = sum(p[6] for p in panels)

    total = estimate
    for _ in range(3):
        target = max(rel_tol * abs(estimate), 1e-300)
        total = _refine(f, panels, target / (b - a))
        if target >= 0.5 * rel_tol * abs(total):
            break
        # the budget was set from a poor magnitude estimate; redo with the
        # improved one (deterministic, at most twice)
        estimate = total
    return total


def _refine(f, panels, tol) -> float:
    # LIFO stack keeps the refinement order independent of intermediate
    # results, so the evaluation sequence is deterministic.
    stack = list(reversed(panels))
    total = 0.0
    splits = 0
    while stack:
        x0, x1, x2, f0, f1, f2, s = stack.pop()
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = _simpson(f0, flm, f1, x1 - x0)
        right = _simpson(f1, frm, f2, x2 - x1)
        err = (left + right - s) / 15.0
        # a panel too narrow to subdivide in floating point is accepted as is
        if abs(err) <= tol * (x2 - x0) or not (x0 < lm < x1 < rm < x2):
            total += left + right + err
            continue
        splits += 1
        if splits > _MAX_SUBDIVISIONS:
            best = total + left + right + sum(p[6] for p in stack)
            raise QuadratureError(
                f"tolerance not reached after {_MAX_SUBDIVISIONS} subdivisions",
                best_estimate=best)
        stack.append((x1, rm, x2, f1, frm, f2, right))
        stack.append((x0, lm, x1, f0, flm, f1, left))
    return total
