"""Deterministic 1-D integration with error control.

Adaptive Gauss-Kronrod (7 and 15 points) refined level by level, and
doubling Gauss-Legendre log-sums over a log-integrand.  Both rules call
the integrand on arrays of abscissae, and every result is reproducible.
The Gauss-Kronrod rule is a literal table; a Gauss-Legendre rule is built
with numpy alone, by Newton's method on the Legendre P_n, the first time
its node count is asked for, and cached.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import numpy as np

#: Panel splits the adaptive Gauss-Kronrod rule may make before it gives up.
_MAX_SUBDIVISIONS = 100_000
#: Equal panels the adaptive Gauss-Kronrod rule starts from.
_SEED_PANELS = 8
#: A panel with |K15 - G7| at most this share of its integral of |f| is at
#: the rounding floor of its sums, and is accepted.
_ROUNDING_FLOOR = 50.0 * sys.float_info.epsilon

# The 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule it extends
# (Piessens et al., QUADPACK, 1983, routine QK15), as printed there: the
# nonnegative nodes, descending, with their Kronrod weights, and the Gauss
# weights of the nodes 1, 3, 5 and 7 of that list.  A literal table, so the
# oracle rule shares nothing with gauss_legendre.
_KRONROD_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245, 0.0)
_KRONROD_W = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
              0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
              0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
              0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GAUSS_W = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
#: The 15 nodes in ascending order and their Kronrod weights; the Gauss
#: nodes are every second one, from the second, with the weights _GAUSS_15.
_NODES_15 = np.array([-x for x in _KRONROD_X[:7]] + list(_KRONROD_X[::-1]))
_KRONROD_15 = np.array(_KRONROD_W[:7] + _KRONROD_W[::-1])
_GAUSS_15 = np.array(_GAUSS_W[:3] + _GAUSS_W[::-1])
for _table in (_NODES_15, _KRONROD_15, _GAUSS_15):
    _table.setflags(write=False)


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


#: Node counts of the Gauss-Legendre rule in :func:`integrate_1d`: the
#: first rule, and the count past which it stops doubling.
_GL_NODES_MIN = 32
_GL_NODES_MAX = 1024


def integrate_1d(f: Callable, a: float, b: float, rel_tol: float = 1e-10,
                 rule: str = "gauss-kronrod") -> float:
    """Integrate ``f`` over ``[a, b]`` to the relative tolerance ``rel_tol``.

    Both rules call ``f`` on a 1-D float array of abscissae, and ``f``
    returns an array of the same shape.

    ``rule="gauss-kronrod"`` is adaptive Gauss-Kronrod, refined level by
    level from 8 equal panels: each pass evaluates the 15 Kronrod nodes of
    every open panel in one call of ``f``, and |K15 - G7| is a panel's error
    estimate.  A panel is accepted once that estimate is at most its width's
    share of ``rel_tol`` times the running total (the accepted panels plus
    the open panels' K15, recomputed at each level), or once it is at the
    rounding floor, 50 eps times the panel's integral of |f|: the nodes never
    touch a panel's ends, so a spike there can stay hidden from the seed
    panels and the first totals.  A panel too narrow to split is accepted
    as it is.  If the total ends below the magnitude the budget came from,
    the refinement is redone with the budget capped at the final total (at
    most twice), so the summed estimates of the panels accepted on their
    budget are at most ``rel_tol * |result|``.  Raises
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
    if rule == "gauss-kronrod":
        return _adaptive_gauss_kronrod(f, a, b, rel_tol)
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


def _adaptive_gauss_kronrod(f, a, b, rel_tol: float) -> float:
    edges = np.linspace(a, b, _SEED_PANELS + 1)
    seeds = np.stack((edges[:-1], edges[1:]))
    cap = math.inf
    for _ in range(3):
        total, error = _refine(f, seeds, rel_tol, cap, b - a)
        if error <= rel_tol * abs(total):
            break
        # the total fell below the magnitude that set the budget; redo with
        # the budget capped at the final total (deterministic, at most twice)
        cap = abs(total)
    return total


def _kronrod_sums(f, lo: np.ndarray, hi: np.ndarray):
    """K15, G7 and the K15 of |f| on each panel [lo, hi], from one call of ``f``."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + np.multiply.outer(_NODES_15, half)
    values = f(x.ravel()).reshape(x.shape)
    return (half * (_KRONROD_15 @ values), half * (_GAUSS_15 @ values[1::2]),
            half * (_KRONROD_15 @ np.abs(values)))


def _refine(f, panels: np.ndarray, rel_tol: float, cap: float, length: float):
    # Level by level: one call of f evaluates the 15 nodes of every open
    # panel.  The open panels are one (2, m) array of rows lo and hi; the
    # halves of the split ones, in position order, come from one stack, one
    # index and one reshape.  The budget follows the running total of the
    # level, so the accepted set does not depend on the order of refinement
    # within a level, and math.fsum rounds each sum once, whatever the order.
    # Returns the total and the summed estimates of the panels accepted on
    # their budget.
    accepted, errors = [], []
    splits = 0
    while True:
        lo, hi = panels
        kron, gauss, mass = _kronrod_sums(f, lo, hi)
        diff = np.abs(kron - gauss)
        total = math.fsum(np.concatenate([*accepted, kron]).tolist())
        budget = rel_tol * min(abs(total), cap) / length
        within = diff <= budget * (hi - lo)
        mid = 0.5 * (lo + hi)
        # at the rounding floor, or too narrow to split in floating point
        done = within | (diff <= _ROUNDING_FLOOR * mass) | ~((lo < mid) & (mid < hi))
        accepted.append(kron[done])
        errors.append(diff[within])
        split = ~done
        count = int(np.count_nonzero(split))
        if not count:
            return (math.fsum(np.concatenate(accepted).tolist()),
                    math.fsum(np.concatenate(errors).tolist()))
        splits += count
        if splits > _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"tolerance not reached after {_MAX_SUBDIVISIONS} subdivisions",
                best_estimate=total)
        # one row per split panel: its left half's ends, then its right half's
        panels = np.stack((lo, mid, mid, hi)).T[split].reshape(-1, 2).T
