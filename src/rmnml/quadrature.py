"""Deterministic 1-D integration with error control.

Adaptive Simpson refined level by level, and doubling Gauss-Legendre
log-sums over a log-integrand.  Both rules call the integrand on arrays of
abscissae, and every result is reproducible.  A Gauss-Legendre rule is
built with numpy alone, by Newton's method on the Legendre P_n, the
first time its node count is asked for, and cached.
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
    """Read-only nodes (ascending) and weights of the Gauss-Legendre rule on [-1, 1].

    Three Newton steps in theta, x = cos theta, from the Tricomi guess
    theta_j = pi (4j - 1) / (4n + 2), on the cosine series
    P_n(cos theta) = sum_k c_k c_(n-k) cos((n - 2k) theta), c_k = C(2k, k) / 4^k,
    whose terms k and n - k are folded into one.  Each step evaluates P_n and
    dP_n/dtheta at the nodes with x >= 0 as two matrix-vector products; the
    weights are 2 / (dP_n/dtheta)^2 at the final nodes, scaled to sum to 2.
    """
    n = nodes
    i = np.arange(1, n + 1)
    c = np.concatenate([[1.0], np.cumprod((2 * i - 1) / (2 * i))])
    k = np.arange(n // 2 + 1)
    m = n - 2 * k
    a = c[k] * c[n - k] * np.where(m > 0, 2.0, 1.0)
    am = a * m
    theta = math.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    for _ in range(3):  # theta - P_n / (dP_n/dtheta), dP_n/dtheta = -sum a m sin(m theta)
        arg = np.outer(theta, m)
        theta = theta + (np.cos(arg) @ a) / (np.sin(arg) @ am)
    x = np.cos(theta)
    if n % 2:  # the middle node
        theta[-1], x[-1] = 0.5 * math.pi, 0.0
    w = 2.0 / (np.sin(np.outer(theta, m)) @ am) ** 2
    # mirror the x >= 0 half; an odd rule's middle node 0 appears once
    x = np.concatenate([-x[:n // 2], x[::-1]])
    w = np.concatenate([w[:n // 2], w[::-1]])
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _simpson(f0, fm, f1, h):
    return h / 6.0 * (f0 + 4.0 * fm + f1)


#: Node counts of the Gauss-Legendre rule in :func:`integrate_1d`: the
#: first rule, and the count past which it stops doubling.
_GL_NODES_MIN = 32
_GL_NODES_MAX = 1024


def integrate_1d(f: Callable, a: float, b: float, rel_tol: float = 1e-10,
                 rule: str = "simpson") -> float:
    """Integrate ``f`` over ``[a, b]`` to the relative tolerance ``rel_tol``.

    Both rules call ``f`` on a 1-D float array of abscissae, and ``f``
    returns an array of the same shape.

    ``rule="simpson"`` is adaptive Simpson, refined level by level: each
    pass evaluates the two midpoints of every open panel in one call of
    ``f``, and a panel is accepted once its local error estimate is at most
    its width's share of the error budget.  The estimated error of the
    returned value is at most ``rel_tol * |result|``.  Raises
    :class:`QuadratureError` (carrying the best estimate) if the budget of
    ``_MAX_SUBDIVISIONS`` panel splits is exhausted first.

    ``rule="log-gauss-legendre"`` takes ``f`` as the log of the integrand
    and returns the log of the integral.  Rules of 32, 64, ... nodes are
    summed in the log domain until two successive logs differ by at most
    ``rel_tol``; past 1024 nodes it raises
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
    mids = 0.5 * (edges[:-1] + edges[1:])
    values = f(np.concatenate([edges, mids]))
    ends, mid_values = values[:_COARSE_PANELS + 1], values[_COARSE_PANELS + 1:]
    sums = _simpson(ends[:-1], mid_values, ends[1:], edges[1:] - edges[:-1])
    panels = np.stack((edges[:-1], mids, edges[1:], ends[:-1], mid_values, ends[1:], sums))
    estimate = math.fsum(sums)

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


def _refine(f, panels: np.ndarray, tol) -> float:
    # Level by level: one call of f evaluates both midpoints of every open
    # panel.  The open panels are one (7, m) array of rows x0, x1, x2, f0,
    # f1, f2 and the Simpson value s; the halves of the split ones, in
    # position order, come from one stack, one index and one reshape.  Each
    # panel passes or fails its own local test, so the accepted set does not
    # depend on the order of refinement, and math.fsum rounds their sum
    # once, whatever the order.
    accepted = []
    splits = 0
    while True:
        x0, x1, x2, f0, f1, f2, s = panels
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        mid_values = f(np.concatenate([lm, rm]))
        flm, frm = mid_values[:x0.size], mid_values[x0.size:]
        left = _simpson(f0, flm, f1, x1 - x0)
        right = _simpson(f1, frm, f2, x2 - x1)
        err = (left + right - s) / 15.0
        # a panel too narrow to subdivide in floating point is accepted as is
        done = (np.abs(err) <= tol * (x2 - x0)) | ~(
            (x0 < lm) & (lm < x1) & (x1 < rm) & (rm < x2))
        accepted.append((left + right + err)[done])
        split = ~done
        count = int(np.count_nonzero(split))
        if not count:
            return math.fsum(np.concatenate(accepted).tolist())
        splits += count
        if splits > _MAX_SUBDIVISIONS:
            best = math.fsum(np.concatenate([*accepted, left[split], right[split]]).tolist())
            raise QuadratureError(
                f"tolerance not reached after {_MAX_SUBDIVISIONS} subdivisions",
                best_estimate=best)
        # one row per split panel: its left half's seven values, then its right half's
        halves = np.stack((x0, lm, x1, f0, flm, f1, left, x1, rm, x2, f1, frm, f2, right)).T[split]
        panels = halves.reshape(-1, 7).T
