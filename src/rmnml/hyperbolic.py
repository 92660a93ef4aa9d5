"""Hyperbolic space H^D with curvature -1 in the Lorentz model.

A point is a (D+1,) float array on the upper sheet of the hyperboloid
<x,x>_L = -1 in Minkowski space R^{D,1}, and a set of points an (n, D+1)
array.  This module provides the hyperboloid check, distances, the
conversion of Poincare-ball input, isometries and log geodesic ball
volumes.  All functions are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import log_gauss_legendre

CHART_LORENTZ_GRAPH = "lorentz-graph"
CHART_POINCARE = "poincare"

#: Tolerance of the hyperboloid check in :func:`hyperboloid_violation`.
ON_MANIFOLD_TOL = 1e-9
#: Rejection band for arccosh arguments below 1 (off-manifold inputs).
ACOSH_REJECT_TOL = 1e-7
#: Largest distance from the origin of a point the estimators accept.  Up
#: to x0 = cosh 350 (about 5e151), x0^2, the Minkowski products and the
#: chords of two such points stay finite floats.
DATA_RADIUS = 350.0


class GeometryError(ValueError):
    """Input violates a manifold invariant or a chart precondition."""


def hyperboloid_violation(coords: np.ndarray) -> tuple[int, str] | None:
    """First row of an (n, D+1) array that is not a point of H^D, with the reason.

    A row passes when every coordinate is finite, x0 > 0 and
    |<x,x>_L + 1| <= ON_MANIFOLD_TOL * max(1, x0)^2.  Returns None when
    every row passes.
    """
    x0 = coords[:, 0]
    # <x,x>_L + 1 factored as (s - x0)(s + x0) with s = sqrt(1 + |spatial|^2)
    # to avoid the catastrophic cancellation of the direct form far from
    # the origin; equals the self-product residual up to rounding.  Each
    # row is divided by max(1, x0) first, so no square overflows.
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(1.0, x0)
        s = np.hypot(1.0 / scale, np.linalg.norm(coords[:, 1:] / scale[:, None], axis=1))
        scaled = (s - x0 / scale) * (s + x0 / scale)
        finite = np.isfinite(coords).all(axis=1)
        ok = finite & (x0 > 0) & (np.abs(scaled) <= ON_MANIFOLD_TOL)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    if not finite[i]:
        return i, "coordinates must be finite"
    if not x0[i] > 0:
        return i, f"x0 must be positive, got {x0[i]}"
    product = float(scaled[i]) * float(scale[i]) * float(scale[i]) - 1.0
    if math.isfinite(product):
        return i, f"point is off the hyperboloid: <x,x>_L = {product!r}"
    return i, f"point is off the hyperboloid: (<x,x>_L + 1) / x0^2 = {float(scaled[i])!r}"


def origin(dim: int) -> np.ndarray:
    """The point (1, 0, ..., 0) of H^dim."""
    c = np.zeros(dim + 1)
    c[0] = 1.0
    return c


def dist_many(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Distances from the single point ``x`` to the rows of ``ys``.

    Evaluated as d = 2 arcsinh(sinh(d/2)).  Below -<x,y>_L = 2
    (d < 1.317), sinh^2(d/2) is a quarter of the chord |x - y|_L^2, which
    is exact at coincident points where the inner-product form loses half
    its digits to cancellation.  Beyond that it is (-<x,y>_L - 1) / 2,
    whose relative error stays near eps, while the chord cancels with an
    error of eps * e^d.
    """
    m = x[0] * ys[:, 0] - ys[:, 1:] @ x[1:]  # -<x,y>_L
    if np.any(m < 1.0 - ACOSH_REJECT_TOL):
        raise GeometryError("arccosh argument below 1: points are off-manifold")
    sinh_half_sq = 0.5 * (m - 1.0)
    near = np.flatnonzero(~(m >= 2.0))  # the chord's rows; far rows may square past float max
    delta = ys.take(near, axis=0) - x
    # <x-y, x-y>_L = 4 sinh^2(d/2) >= 0 on the manifold
    sinh_half_sq[near] = 0.25 * (np.einsum("ij,ij->i", delta[:, 1:], delta[:, 1:])
                                 - delta[:, 0] ** 2)
    return 2.0 * np.arcsinh(np.sqrt(np.maximum(sinh_half_sq, 0.0)))


def poincare_to_lorentz(points: np.ndarray) -> np.ndarray:
    """Lorentz rows (1 + |p|^2, 2p) / (1 - |p|^2) of an (n, D) Poincare array.

    Raises GeometryError naming the first row outside the open unit ball.
    """
    nrm2 = np.einsum("ij,ij->i", points, points)
    outside = np.flatnonzero(nrm2 >= 1.0)
    if outside.size:
        raise GeometryError(f"point {outside[0]} is invalid: Poincare "
                            f"coordinates must have norm < 1")
    denom = 1.0 - nrm2
    return np.column_stack([(1.0 + nrm2) / denom, 2.0 * points / denom[:, None]])


def isometry_to(mu: np.ndarray) -> np.ndarray:
    """Lorentz boost T with T o = mu and <Tx,Ty>_L = <x,y>_L.

    The returned (D+1)x(D+1) matrix maps the origin to ``mu`` and preserves
    all Minkowski products, hence all distances.  Its spatial block
    I + (mu0 - 1) u u^T is written in place, so T is the only (D+1)^2 array.
    """
    d = mu.size - 1
    spatial = mu[1:]
    s = math.hypot(*spatial)  # np.linalg.norm overflows past |spatial| = 1.3e154
    T = np.eye(d + 1)
    if s == 0.0:
        return T
    u = spatial / s
    T[0, 0] = mu[0]                     # cosh(r)
    T[0, 1:] = s * u                    # sinh(r) u
    T[1:, 0] = s * u
    block = np.outer(u, u, out=T[1:, 1:])
    block *= mu[0] - 1.0
    block += 0.0  # -0.0 to 0.0, as the sum with the identity gives
    block[np.diag_indices(d)] += 1.0
    return T


def log_sphere_area(dim: int) -> float:
    """log of the surface area 2 pi^(D/2) / Gamma(D/2) of the unit sphere S^(D-1)
    in R^D, finite at every dimension."""
    return math.log(2.0) + 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim)


def log_sinh(r) -> np.ndarray:
    """log sinh(r) = r + log(1 - exp(-2r)) - log 2 for r >= 0; -inf at 0."""
    with np.errstate(divide="ignore"):
        return r + np.log(-np.expm1(-2.0 * r)) - math.log(2.0)


def log_ball_volume(dim: int, radius: float) -> float:
    """log of the volume of a geodesic ball of the given radius in H^dim.

    log |S^(D-1)| + log of the integral of sinh^(D-1) over [0, R], by one
    96-node Gauss-Legendre log-sum in t = R - r on t <= 40 tanh(R) / (D-1):
    log sinh is concave with slope coth, so the rest holds < exp(-40) of the
    mass.  Counting t from R resolves the window at any radius.
    """
    if dim < 1 or radius < 0:
        raise GeometryError(f"need dim >= 1 and radius >= 0, got {dim} and {radius}")
    if radius == 0.0:
        return -math.inf
    if dim == 1:
        return math.log(2.0 * radius)  # exact
    width = min(40.0 * math.tanh(radius) / (dim - 1), radius)
    return log_sphere_area(dim) + log_gauss_legendre(
        lambda t: (dim - 1) * log_sinh(radius - t), 0.0, width, 96)
