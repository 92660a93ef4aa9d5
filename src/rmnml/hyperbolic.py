"""Hyperbolic space H^D with curvature -1 in the Lorentz model.

A point is a (D+1,) float array on the upper sheet of the hyperboloid
<x,x>_L = -1 in Minkowski space R^{D,1}, and a set of points an (n, D+1)
array.  This module provides the hyperboloid check, distances, the
conversion of Poincare-ball input, the polar points (cosh r, sinh r u) at
the origin, the Lorentz boost that carries the origin to any point, and
log geodesic ball volumes.  All functions are pure.
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
    every row passes.  The rows are checked in whole-array passes, with the
    spatial square norms from one ``einsum``; the per-row masks that find
    the failing row and its reason are built only when some row fails.
    """
    x0 = coords[:, 0]
    # <x,x>_L + 1 factored as (s - x0)(s + x0) with s = sqrt(1 + |spatial|^2)
    # to avoid the catastrophic cancellation of the direct form far from
    # the origin; equals the self-product residual up to rounding.  Each
    # row is divided by max(1, x0) first, so no square overflows.
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(1.0, x0)
        unit = coords / scale[:, None]
        spatial = unit[:, 1:]
        s = np.hypot(1.0 / scale, np.sqrt(np.einsum("ij,ij->i", spatial, spatial)))
        scaled = (s - unit[:, 0]) * (s + unit[:, 0])
        within = np.abs(scaled) <= ON_MANIFOLD_TOL
    if np.isfinite(coords).all() and (x0 > 0).all() and within.all():
        return None
    finite = np.isfinite(coords).all(axis=1)
    i = int(np.argmin(finite & (x0 > 0) & within))
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


def polar(r, u: np.ndarray) -> np.ndarray:
    """Lorentz rows (cosh r, sinh r u) of the points at distance r from the origin
    along u: radii of any shape, unit vectors on the last axis of ``u``, broadcast."""
    out = np.empty(np.broadcast_shapes(np.shape(r), u.shape[:-1]) + (u.shape[-1] + 1,))
    out[..., 0] = np.cosh(r)
    np.multiply(np.sinh(r)[..., None], u, out=out[..., 1:])
    return out


def boost(mu: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` carried by the Lorentz boost T with T o = mu, in O(nD).

    T preserves Minkowski products, hence distances, and is the identity
    plus a rank-2 update: with mu = (mu0, s u), |u| = 1, T = I + B^T M B,
    where B holds the rows e0 and (0, u) and M = [[mu0 - 1, s], [s, mu0 - 1]].
    So the rows move as P + (P B^T)(M B), and no (D+1)^2 matrix is formed.
    The inverse boost is the one at (mu0, -s u).  At the origin ``points``
    itself is returned.
    """
    spatial = mu[1:]
    s = math.hypot(*spatial)  # np.linalg.norm overflows past |spatial| = 1.3e154
    if s == 0.0:
        return points
    basis = np.zeros((2, mu.size))
    basis[0, 0] = 1.0
    basis[1, 1:] = spatial / s
    c = mu[0] - 1.0
    moved = (points @ basis.T) @ (np.array([[c, s], [s, c]]) @ basis)
    moved += points
    return moved


def exp_normal(base: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The point with normal coordinates ``t`` (in R^D) about ``base``.

    The boost to ``base`` carries the origin's orthonormal tangent frame to
    one at ``base``, so the point is that boost applied to
    :func:`polar` (|t|, t/|t|), the geodesic exponential at the origin.  x0
    is then reset to sqrt(1 + |spatial|^2), back onto the sheet.
    """
    norm = math.sqrt(float(t @ t))
    point = boost(base, polar(norm, (t / norm if norm > 0.0 else t)[None, :]))[0]
    # exact hyperboloid projection; without it iterated maps amplify the
    # rounding residual geometrically
    point[0] = math.hypot(1.0, float(np.linalg.norm(point[1:])))
    return point


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
    if dim < 1 or not 0 <= radius < math.inf:
        raise GeometryError(f"need dim >= 1 and a finite radius >= 0, got {dim} and {radius}")
    if radius == 0.0:
        return -math.inf
    if dim == 1:
        return math.log(2.0 * radius)  # exact
    width = min(40.0 * math.tanh(radius) / (dim - 1), radius)
    return log_sphere_area(dim) + log_gauss_legendre(
        lambda t: (dim - 1) * log_sinh(radius - t), 0.0, width, 96)[0]
