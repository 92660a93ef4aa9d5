"""Prefix-code demonstration on a discretized geodesic ball (D = 2).

A polar grid partitions the ball; each cell S gets the integer code-length

    l_S = ceil( -(inf_{x in S} log p(x) + log vol(S)) / ln 2 )

for a density p on the ball, given by its natural log against the volume
element.  Such lengths always satisfy the Kraft inequality (so a prefix
code with these lengths exists), and the expected code-length of any
uniquely decodable code over the partition is bounded below by
E_S[ -(sup_{x in S} log p(x) + log vol(S)) / ln 2 ].  The inf and sup are
taken on a sub-grid of each cell, and P(S) is p(midpoint of S) vol(S), renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Cell extrema are approximated on this many points per axis.  It must be odd:
#: the middle node of a cell's sub-grid is its midpoint, which gives its probability.
SUBGRID = 5
#: Cells per call of the log density in :func:`prefix_code`, which bounds its memory.
BLOCK_CELLS = 4096
#: Largest ball radius, about 708.638: up to it the ball volume 2 pi (cosh r - 1),
#: and so every cell volume and every x0 = cosh r, is a finite float.
MAX_RADIUS = math.acosh(np.finfo(float).max / (2.0 * math.pi))


@dataclass(frozen=True)
class Partition:
    """Polar-grid partition of a geodesic ball in H^2.

    Cells are in ring-major order: cell k spans the radii
    r_edges[i : i + 2] and the angles angle_edges[j : j + 2], where
    (i, j) = divmod(k, n_angle).
    """

    r_edges: np.ndarray       # (n_r + 1,)
    angle_edges: np.ndarray   # (n_angle + 1,)
    volumes: np.ndarray       # (m,) = (n_r * n_angle,)

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
    if not 0 < radius <= MAX_RADIUS:
        raise ValueError(f"radius must be positive and at most {MAX_RADIUS:.6g}, "
                         f"past which the ball volume overflows; got {radius!r}")
    r_edges = np.linspace(0.0, radius, n_r + 1)
    angle_edges = np.linspace(0.0, 2.0 * math.pi, n_angle + 1)
    volumes = np.outer(np.diff(np.cosh(r_edges)), np.diff(angle_edges)).ravel()
    return Partition(r_edges, angle_edges, volumes)


@dataclass(frozen=True)
class PrefixCode:
    """Integer code-lengths of the cells and what they cost, in bits."""

    lengths: np.ndarray        # (m,) int64
    kraft_sum: float           # sum_S 2^(-l_S); at most 1
    average_bits: float        # sum_S P(S) l_S
    lower_bound_bits: float    # sum_S P(S) (-(sup_S log p + log vol S) / ln 2)


def prefix_code(partition: Partition, log_pdf) -> PrefixCode:
    """The prefix code of ``partition`` for the log density ``log_pdf``.

    ``log_pdf`` maps an (m, 3) array of Lorentz coordinates to m finite
    natural-log densities against the volume element.  It is called once per
    block of up to BLOCK_CELLS cells, on the SUBGRID x SUBGRID inclusive
    sub-grid of every cell of the block: its min and max stand in for the
    cell's inf and sup, and its middle node is the cell's midpoint.  Raises
    ValueError when the log density is not finite or a length does not fit
    an int64.
    """
    m = len(partition)
    n_angle = partition.angle_edges.size - 1
    frac = np.linspace(0.0, 1.0, SUBGRID)[:, None]
    log_inf, log_sup, log_mid = np.empty(m), np.empty(m), np.empty(m)
    for start in range(0, m, BLOCK_CELLS):
        block = slice(start, start + BLOCK_CELLS)
        ring, sector = np.divmod(np.arange(start, min(start + BLOCK_CELLS, m)), n_angle)
        (r_lo, r_hi) = partition.r_edges[ring], partition.r_edges[ring + 1]
        (t_lo, t_hi) = partition.angle_edges[sector], partition.angle_edges[sector + 1]
        r, t = np.broadcast_arrays((r_lo + frac * (r_hi - r_lo))[:, None],
                                   t_lo + frac * (t_hi - t_lo))
        # a value past the float range is reported by the check below
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(log_pdf(_lorentz_of_polar(r, t).reshape(-1, 3)), dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("the log density must be finite on the ball")
        grid = values.reshape(SUBGRID * SUBGRID, -1)
        log_inf[block], log_sup[block] = grid.min(axis=0), grid.max(axis=0)
        log_mid[block] = grid[SUBGRID ** 2 // 2]
    log_vol = np.log(partition.volumes)
    bits = np.ceil(-(log_inf + log_vol) / math.log(2.0))
    if not np.all(np.abs(bits) < 2.0 ** 63):
        raise ValueError(f"code-lengths up to {np.max(np.abs(bits)):.6g} bits "
                         f"do not fit an int64")
    lengths = bits.astype(np.int64)
    # shifted by the largest log mass: densities past the float range still code
    log_mass = log_mid + log_vol
    mass = np.exp(log_mass - log_mass.max())
    prob = mass / mass.sum()
    return PrefixCode(
        lengths=lengths,
        kraft_sum=float(np.sum(np.exp2(-lengths.astype(float)))),
        average_bits=float(prob @ lengths),
        lower_bound_bits=float(prob @ (-(log_sup + log_vol) / math.log(2.0))))
