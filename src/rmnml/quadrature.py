"""Deterministic 1-D integration in the log domain.

:func:`integrate_1d`, the complexity's integral in log sigma, doubles a
Gauss-Legendre rule summed over the log of the integrand until two
successive logs agree; its first two rules take one call of the integrand.
Each rule is built with numpy alone, by Newton's method on the Legendre
P_n, when its node count is first asked for, and cached.  The oracle rule,
adaptive Gauss-Kronrod, is in :mod:`rmnml.validation`.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Tolerance not reached within the rule's budget.

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
_GL_NODES_MAX = 2048
#: Largest difference of two successive logs that :func:`integrate_1d` accepts.
_GL_LOG_TOL = 1e-10


def integrate_1d(log_f: Callable, a: float, b: float) -> float:
    """log of the integral of exp(log_f) over ``[a, b]``, to 1e-10 on the log.

    ``log_f`` is called on a 1-D float array of abscissae and returns the
    log of the integrand there, an array of the same shape.  Rules of 32,
    64, ... nodes are summed in the log domain until two successive logs
    differ by at most 1e-10; past 2048 nodes it raises
    :class:`QuadratureError` with the last log as its best estimate.  The
    first two rules take one ``log_f`` call on their joined abscissae.
    """
    if not a < b:
        raise ValueError(f"invalid interval: [{a}, {b}]")
    nodes = _GL_NODES_MIN
    coarse, fine = _log_gauss_legendre_levels(log_f, a, b, (nodes, 2 * nodes))
    while nodes < _GL_NODES_MAX:
        nodes *= 2
        if nodes > 2 * _GL_NODES_MIN:
            fine = log_gauss_legendre(log_f, a, b, nodes)
        if abs(fine - coarse) <= _GL_LOG_TOL:
            return fine
        coarse = fine
    raise QuadratureError(f"Gauss-Legendre rules for the log of the integral still "
                          f"disagree at {nodes} nodes", best_estimate=coarse)


def log_gauss_legendre(log_f: Callable, a: float, b: float, nodes: int) -> float:
    """log of the Gauss-Legendre sum for the integral of exp(log_f) over [a, b]."""
    return _log_gauss_legendre_levels(log_f, a, b, (nodes,))[0]


def _log_gauss_legendre_levels(log_f: Callable, a: float, b: float,
                               counts: tuple[int, ...]) -> list[float]:
    """:func:`log_gauss_legendre` at each node count of ``counts``, from one
    ``log_f`` call on the joined abscissae; each sum reads only its own nodes."""
    rules = [gauss_legendre(nodes) for nodes in counts]
    half = 0.5 * (b - a)
    log_values = log_f(a + half * (np.concatenate([x for x, _ in rules]) + 1.0))
    logs, start = [], 0
    for _, w in rules:
        part = log_values[start:start + w.size]
        start += w.size
        top = float(part.max())
        logs.append(top + math.log(half * float(w @ np.exp(part - top))))
    return logs
