"""Hyperbolic space H^D with curvature -1: Lorentz and Poincare models.

Points live on the upper sheet of the hyperboloid <x,x>_L = -1 in Minkowski
space R^{D,1} (Lorentz model) or in the open unit ball (Poincare model).
This module provides distances, chart conversions, exponential/logarithm
maps, isometries, polar coordinates, volume-element factors and log
geodesic ball volumes.  All types are immutable and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import log_gauss_legendre

CHART_LORENTZ_GRAPH = "lorentz-graph"
CHART_POINCARE = "poincare"

#: Tolerance for the hyperboloid / tangency invariants of the point types.
ON_MANIFOLD_TOL = 1e-9
#: Rejection band for arccosh arguments below 1 (off-manifold inputs).
ACOSH_REJECT_TOL = 1e-7


class GeometryError(ValueError):
    """Input violates a manifold invariant or a chart precondition."""


def _as_vector(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1:
        raise GeometryError(f"expected a 1-D coordinate vector, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def minkowski_inner(x, y) -> float:
    """Minkowski bilinear form -x0*y0 + sum_i xi*yi.

    Accepts raw vectors or point/tangent objects; no manifold check is
    performed, this is the plain bilinear form.
    """
    xv = np.asarray(getattr(x, "coords", getattr(x, "vec", x)), dtype=float)
    yv = np.asarray(getattr(y, "coords", getattr(y, "vec", y)), dtype=float)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise GeometryError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    return float(xv[1:] @ yv[1:] - xv[0] * yv[0])


def hyperboloid_violation(coords: np.ndarray) -> tuple[int, str] | None:
    """First row of an (n, D+1) array that is not a point of H^D, with the reason.

    A row passes when every coordinate is finite, x0 > 0 and
    |<x,x>_L + 1| <= ON_MANIFOLD_TOL * max(1, x0^2).  Returns None when
    every row passes.
    """
    x0 = coords[:, 0]
    # <x,x>_L + 1 factored as (s - x0)(s + x0) with s = sqrt(1 + |spatial|^2)
    # to avoid the catastrophic cancellation of the direct form far from
    # the origin; equals the self-product residual up to rounding.
    with np.errstate(invalid="ignore", over="ignore"):
        s = np.hypot(1.0, np.linalg.norm(coords[:, 1:], axis=1))
        residual = (s - x0) * (s + x0)
        finite = np.isfinite(coords).all(axis=1)
        ok = finite & (x0 > 0) & (
            np.abs(residual) <= ON_MANIFOLD_TOL * np.maximum(1.0, x0 * x0))
    if ok.all():
        return None
    i = int(np.argmin(ok))
    if not finite[i]:
        return i, "coordinates must be finite"
    if not x0[i] > 0:
        return i, f"x0 must be positive, got {x0[i]}"
    return i, f"point is off the hyperboloid: <x,x>_L = {-1 + float(residual[i])!r}"


@dataclass(frozen=True, eq=False)
class LorentzPoint:
    """Point of H^D as (x0, ..., xD) with <x,x>_L = -1 and x0 > 0."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_vector(self.coords))
        if self.coords.size < 2:
            raise GeometryError("a Lorentz point needs at least 2 components")
        bad = hyperboloid_violation(self.coords[None, :])
        if bad is not None:
            raise GeometryError(bad[1])

    @property
    def dim(self) -> int:
        return self.coords.size - 1


@dataclass(frozen=True, eq=False)
class PoincarePoint:
    """Point of H^D in the Poincare ball, Euclidean norm < 1."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_vector(self.coords))
        if self.coords.size < 1:
            raise GeometryError("a Poincare point needs at least 1 component")
        if not float(self.coords @ self.coords) < 1.0:
            raise GeometryError("Poincare coordinates must have norm < 1")

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent vector at ``base``: Minkowski-orthogonal to the base point."""

    base: LorentzPoint
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _as_vector(self.vec))
        if self.vec.size != self.base.coords.size:
            raise GeometryError("tangent vector and base point dimensions differ")
        inner = minkowski_inner(self.base.coords, self.vec)
        scale = max(1.0, float(self.base.coords[0]) * self.norm())
        if abs(inner) > ON_MANIFOLD_TOL * scale:
            raise GeometryError(
                f"vector is not tangent at base: <base,v>_L = {inner!r}")

    def norm(self) -> float:
        sq = minkowski_inner(self.vec, self.vec)
        return math.sqrt(max(sq, 0.0))


@dataclass(frozen=True, eq=False)
class PolarCoords:
    """Geodesic polar coordinates about the origin: radius and unit direction."""

    r: float
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_vector(self.direction))
        if self.r < 0:
            raise GeometryError("polar radius must be nonnegative")
        nrm = float(np.linalg.norm(self.direction))
        if abs(nrm - 1.0) > 1e-12:
            raise GeometryError(f"direction must be a unit vector, |u| = {nrm!r}")


def origin(dim: int) -> LorentzPoint:
    """The point (1, 0, ..., 0) of H^dim."""
    c = np.zeros(dim + 1)
    c[0] = 1.0
    return LorentzPoint(c)


def dist(x: LorentzPoint, y: LorentzPoint) -> float:
    """Geodesic distance arccosh(-<x,y>_L)."""
    return float(dist_many(x.coords, y.coords[None, :])[0])


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
    delta = ys - x
    # <x-y, x-y>_L = 4 sinh^2(d/2) >= 0 on the manifold
    chord2 = np.einsum("ij,ij->i", delta[:, 1:], delta[:, 1:]) - delta[:, 0] ** 2
    sinh_half_sq = np.where(m >= 2.0, 0.5 * (m - 1.0), 0.25 * chord2)
    return 2.0 * np.arcsinh(np.sqrt(np.maximum(sinh_half_sq, 0.0)))


def lorentz_to_poincare(x: LorentzPoint) -> PoincarePoint:
    """Stereographic projection p_i = x_i / (1 + x0)."""
    c = x.coords
    return PoincarePoint(c[1:] / (1.0 + c[0]))


def poincare_to_lorentz(p: PoincarePoint) -> LorentzPoint:
    c = p.coords
    nrm2 = float(c @ c)
    if nrm2 >= 1.0:
        raise GeometryError("Poincare coordinates must have norm < 1")
    denom = 1.0 - nrm2
    out = np.empty(c.size + 1)
    out[0] = (1.0 + nrm2) / denom
    out[1:] = 2.0 * c / denom
    return LorentzPoint(out)


def chart_convert(p: LorentzPoint | PoincarePoint) -> PoincarePoint | LorentzPoint:
    """Convert a point to the other chart (Lorentz <-> Poincare)."""
    if isinstance(p, LorentzPoint):
        return lorentz_to_poincare(p)
    if isinstance(p, PoincarePoint):
        return poincare_to_lorentz(p)
    raise GeometryError(f"not a manifold point: {type(p).__name__}")


def poincare_dist(p: PoincarePoint, q: PoincarePoint) -> float:
    """Distance computed from the Poincare metric directly.

    Kept separate from :func:`dist` so chart conversions can be validated
    against an independent formula.
    """
    pc, qc = p.coords, q.coords
    diff2 = float((pc - qc) @ (pc - qc))
    den = (1.0 - float(pc @ pc)) * (1.0 - float(qc @ qc))
    return float(np.arccosh(1.0 + 2.0 * diff2 / den))


def exp_map(base: LorentzPoint, v: TangentVector) -> LorentzPoint:
    """Geodesic exponential: cosh(|v|) base + sinh(|v|) v/|v|."""
    if v.base is not base and not np.array_equal(v.base.coords, base.coords):
        raise GeometryError("tangent vector is attached to a different base point")
    inner = minkowski_inner(base.coords, v.vec)
    if abs(inner) > ACOSH_REJECT_TOL * max(1.0, base.coords[0] * max(v.norm(), 1.0)):
        raise GeometryError("vector is not tangent to the base point")
    return LorentzPoint(_exp_map_coords(base.coords, v.vec))


def _exp_map_coords(base: np.ndarray, vec: np.ndarray) -> np.ndarray:
    sq = float(vec[1:] @ vec[1:] - vec[0] * vec[0])
    nrm = math.sqrt(max(sq, 0.0))
    if nrm == 0.0:
        return base.copy()
    out = math.cosh(nrm) * base + math.sinh(nrm) / nrm * vec
    # exact hyperboloid projection; without it iterated maps amplify the
    # rounding residual geometrically
    out[0] = math.hypot(1.0, float(np.linalg.norm(out[1:])))
    return out


def log_map(base: LorentzPoint, x: LorentzPoint) -> TangentVector:
    """Inverse of :func:`exp_map`: the tangent vector reaching ``x``."""
    b, xc = base.coords, x.coords
    alpha = -minkowski_inner(b, xc)  # = cosh(dist)
    alpha = max(alpha, 1.0)
    u = xc - alpha * b
    sinh_d = math.sqrt(max(alpha * alpha - 1.0, 0.0))
    if sinh_d < 1e-15:
        return TangentVector(base, np.zeros_like(b))
    d = math.acosh(alpha)
    return TangentVector(base, (d / sinh_d) * u)


def isometry_to(mu: LorentzPoint) -> np.ndarray:
    """Lorentz boost T with T o = mu and <Tx,Ty>_L = <x,y>_L.

    The returned (D+1)x(D+1) matrix maps the origin to ``mu`` and preserves
    all Minkowski products, hence all distances.
    """
    c = mu.coords
    d = c.size - 1
    spatial = c[1:]
    s = math.hypot(*spatial)  # np.linalg.norm overflows past |spatial| = 1.3e154
    T = np.eye(d + 1)
    if s == 0.0:
        return T
    u = spatial / s
    T[0, 0] = c[0]                      # cosh(r)
    T[0, 1:] = s * u                    # sinh(r) u
    T[1:, 0] = s * u
    T[1:, 1:] = np.eye(d) + (c[0] - 1.0) * np.outer(u, u)
    return T


def from_polar(polar: PolarCoords) -> LorentzPoint:
    """(r, u) -> (cosh r, sinh r * u)."""
    r, u = polar.r, polar.direction
    out = np.empty(u.size + 1)
    out[0] = math.cosh(r)
    out[1:] = math.sinh(r) * u
    return LorentzPoint(out)


def to_polar(x: LorentzPoint) -> PolarCoords:
    """Inverse of :func:`from_polar`; the radius equals dist(o, x)."""
    c = x.coords
    spatial = c[1:]
    s = float(np.linalg.norm(spatial))
    r = float(np.arccosh(max(c[0], 1.0)))
    if s == 0.0:
        if r > ACOSH_REJECT_TOL:
            raise GeometryError("zero spatial part with positive radius")
        u = np.zeros(c.size - 1)
        u[0] = 1.0
        return PolarCoords(0.0, u)
    return PolarCoords(r, spatial / s)


def sqrt_det_metric(chart: str, point: LorentzPoint | PoincarePoint) -> float:
    """Volume-element factor sqrt(det g) of the given chart at ``point``.

    Poincare chart: (2 / (1 - |p|^2))^D.  Lorentz graph chart over the
    spatial coordinates (x1..xD): 1 / sqrt(1 + |x_{1:D}|^2).
    """
    if chart == CHART_POINCARE:
        p = point if isinstance(point, PoincarePoint) else lorentz_to_poincare(point)
        nrm2 = float(p.coords @ p.coords)
        return (2.0 / (1.0 - nrm2)) ** p.dim
    if chart == CHART_LORENTZ_GRAPH:
        x = point if isinstance(point, LorentzPoint) else poincare_to_lorentz(point)
        s2 = float(x.coords[1:] @ x.coords[1:])
        return 1.0 / math.sqrt(1.0 + s2)
    raise GeometryError(f"unknown chart: {chart!r}")


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^(dim-1) in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def log_sphere_area(dim: int) -> float:
    """log of :func:`sphere_area`, finite at every dimension."""
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
