"""Prefix-code demonstration on a discretized geodesic ball (D = 2).

A polar grid partitions the ball; each cell S gets the integer code-length

    l_S = ceil( -(inf_{x in S} log p(x) + log vol(S)) / ln 2 )

for a density p on the ball, given by its natural log against the volume
element.  Such lengths always satisfy the Kraft inequality (so a prefix
code with these lengths exists), and the expected code-length of any
uniquely decodable code over the partition is bounded below by
E_S[ -(sup_{x in S} log p(x) + log vol(S)) / ln 2 ].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Cell extrema are approximated on this many points per axis.
SUBGRID = 5


@dataclass(frozen=True)
class Partition:
    """Polar-grid partition of a geodesic ball in H^2."""

    representatives: np.ndarray   # (m, 3) Lorentz coordinates of cell centers
    volumes: np.ndarray           # (m,)
    r_ranges: np.ndarray          # (m, 2)
    angle_ranges: np.ndarray      # (m, 2)

    def __len__(self) -> int:
        return self.volumes.size


def _lorentz_of_polar(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    out = np.empty(r.shape + (3,))
    out[..., 0] = np.cosh(r)
    out[..., 1] = np.sinh(r) * np.cos(theta)
    out[..., 2] = np.sinh(r) * np.sin(theta)
    return out


def partition_ball(radius: float, n_r: int, n_angle: int) -> Partition:
    """Split the radius-``radius`` ball of H^2 into an n_r x n_angle polar grid.

    Cell volumes are exact: delta_theta * (cosh r_hi - cosh r_lo), and they
    telescope to the full ball volume.
    """
    if n_r < 1 or n_angle < 1:
        raise ValueError("n_r and n_angle must be >= 1")
    if not radius > 0:
        raise ValueError("radius must be positive")
    r_edges = np.linspace(0.0, radius, n_r + 1)
    t_edges = np.linspace(0.0, 2.0 * math.pi, n_angle + 1)
    r_lo = np.repeat(r_edges[:-1], n_angle)
    r_hi = np.repeat(r_edges[1:], n_angle)
    t_lo = np.tile(t_edges[:-1], n_r)
    t_hi = np.tile(t_edges[1:], n_r)
    dtheta = t_hi - t_lo
    volumes = dtheta * (np.cosh(r_hi) - np.cosh(r_lo))
    reps = _lorentz_of_polar(0.5 * (r_lo + r_hi), 0.5 * (t_lo + t_hi))
    return Partition(
        representatives=reps,
        volumes=volumes,
        r_ranges=np.stack([r_lo, r_hi], axis=1),
        angle_ranges=np.stack([t_lo, t_hi], axis=1))


def _log_density(log_pdf, points: np.ndarray) -> np.ndarray:
    # a value past the float range is reported by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(log_pdf(points), dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("the log density must be finite on the ball")
    return values


def _cell_extrema(partition: Partition, log_pdf) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (min, max) of the log density on an inclusive sub-grid."""
    frac = np.linspace(0.0, 1.0, SUBGRID)
    lo = np.full(len(partition), np.inf)
    hi = np.full(len(partition), -np.inf)
    for fr in frac:
        r = partition.r_ranges[:, 0] + fr * (partition.r_ranges[:, 1] - partition.r_ranges[:, 0])
        for ft in frac:
            t = partition.angle_ranges[:, 0] + ft * (
                partition.angle_ranges[:, 1] - partition.angle_ranges[:, 0])
            values = _log_density(log_pdf, _lorentz_of_polar(r, t))
            lo = np.minimum(lo, values)
            hi = np.maximum(hi, values)
    return lo, hi


def cell_codelengths(partition: Partition, log_pdf) -> np.ndarray:
    """Integer code-lengths (bits) per cell for the log density ``log_pdf``.

    ``log_pdf`` maps an (m, 3) array of Lorentz coordinates to m natural-log
    density values (with respect to the volume element), each finite.  The
    infimum of log p over each cell is taken on a SUBGRID x SUBGRID
    inclusive grid.  Raises ValueError when a length does not fit an int64.
    """
    lo, _ = _cell_extrema(partition, log_pdf)
    bits = np.ceil(-(lo + np.log(partition.volumes)) / math.log(2.0))
    if not np.all(np.abs(bits) < 2.0 ** 63):
        raise ValueError(f"code-lengths up to {np.max(np.abs(bits)):.6g} bits "
                         f"do not fit an int64")
    return bits.astype(np.int64)


def cell_probabilities(partition: Partition, log_pdf) -> np.ndarray:
    """Cell masses approximated by p(representative) * volume, renormalized.

    The log masses are shifted by their maximum before exp, so densities
    beyond the float range still give finite probabilities.
    """
    log_mass = _log_density(log_pdf, partition.representatives) + np.log(partition.volumes)
    mass = np.exp(log_mass - log_mass.max())
    return mass / mass.sum()


def expected_lower_bound(partition: Partition, log_pdf) -> float:
    """Lower bound (bits) on the expected code-length over the partition."""
    _, hi = _cell_extrema(partition, log_pdf)
    prob = cell_probabilities(partition, log_pdf)
    return float(prob @ (-(hi + np.log(partition.volumes)) / math.log(2.0)))


def average_codelength(partition: Partition, log_pdf, lengths: np.ndarray) -> float:
    """Expected code-length sum_S P(S) l_S in bits."""
    return float(cell_probabilities(partition, log_pdf) @ lengths)


def kraft_sum(lengths: np.ndarray) -> float:
    """sum_S 2^(-l_S); at most 1 for any prefix-codeable length assignment."""
    return float(np.sum(np.exp2(-np.asarray(lengths, dtype=float))))
