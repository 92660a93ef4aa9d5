import math

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml.coding import (average_codelength, cell_codelengths,
                          cell_probabilities, expected_lower_bound, kraft_sum,
                          partition_ball)
from rmnml.gaussian import xi


def rgd_density(sigma: float):
    """Closed-form log density of the hyperbolic Gaussian at the origin."""
    log_norm = math.log(xi(2, sigma))

    def log_pdf(points):
        d = np.arccosh(np.maximum(points[..., 0], 1.0))
        return -d * d / (2.0 * sigma * sigma) - log_norm

    return log_pdf


def uniform_density(radius: float):
    log_volume = hy.log_ball_volume(2, radius)

    def log_pdf(points):
        return np.full(points.shape[:-1], -log_volume)

    return log_pdf


class TestPartition:
    def test_single_cell_volume(self):
        partition = partition_ball(1.3, 1, 1)
        assert len(partition) == 1
        assert partition.volumes[0] == pytest.approx(
            2 * math.pi * (math.cosh(1.3) - 1.0), rel=1e-12)
        assert partition.volumes[0] == pytest.approx(
            math.exp(hy.log_ball_volume(2, 1.3)), rel=1e-12)

    def test_volumes_telescope_to_ball_volume(self):
        partition = partition_ball(2.0, 16, 24)
        assert float(partition.volumes.sum()) == pytest.approx(
            math.exp(hy.log_ball_volume(2, 2.0)), rel=1e-10)

    def test_refinement_halves_max_volume(self):
        coarse = partition_ball(2.0, 8, 8)
        fine = partition_ball(2.0, 8, 16)
        assert len(fine) == 2 * len(coarse)
        assert fine.volumes.max() == pytest.approx(coarse.volumes.max() / 2, rel=1e-12)

    def test_representatives_inside_cells(self):
        partition = partition_ball(1.5, 5, 7)
        radii = np.arccosh(partition.representatives[:, 0])
        assert np.all(radii >= partition.r_ranges[:, 0] - 1e-12)
        assert np.all(radii <= partition.r_ranges[:, 1] + 1e-12)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            partition_ball(1.0, 0, 4)
        with pytest.raises(ValueError):
            partition_ball(0.0, 4, 4)


class TestCodeLengths:
    def test_uniform_single_cell_is_zero_bits(self):
        partition = partition_ball(1.0, 1, 1)
        lengths = cell_codelengths(partition, uniform_density(1.0))
        assert lengths.tolist() == [0]

    def test_kraft_inequality_on_grid(self):
        partition = partition_ball(3.0, 32, 32)
        for sigma in (0.5, 1.0):
            lengths = cell_codelengths(partition, rgd_density(sigma))
            assert kraft_sum(lengths) <= 1.0

    def test_halving_volumes_adds_one_bit(self):
        coarse = partition_ball(2.0, 8, 8)
        fine = partition_ball(2.0, 8, 16)
        pdf = rgd_density(1.0)
        l_coarse = cell_codelengths(coarse, pdf)
        l_fine = cell_codelengths(fine, pdf)
        # each coarse cell splits into two of half the volume; the density
        # extrema barely move, so lengths grow by one bit up to ceiling slack
        pair_min = np.minimum(l_fine[0::2], l_fine[1::2]).reshape(-1)
        diffs = pair_min - l_coarse
        assert np.all((diffs >= 0) & (diffs <= 2))
        assert np.mean(diffs) == pytest.approx(1.0, abs=0.3)

    def test_positive_density_required(self):
        partition = partition_ball(1.0, 2, 2)
        with pytest.raises(ValueError):
            cell_codelengths(partition, lambda pts: np.full(pts.shape[:-1], -np.inf))


class TestExpectedLength:
    def test_average_length_bounded_below(self):
        partition = partition_ball(3.0, 32, 32)
        for sigma in (0.5, 1.0):
            pdf = rgd_density(sigma)
            lengths = cell_codelengths(partition, pdf)
            lower = expected_lower_bound(partition, pdf)
            avg = average_codelength(partition, pdf, lengths)
            assert lower <= avg <= lower + 2.0

    def test_uniform_density_bound_tight(self):
        partition = partition_ball(1.5, 6, 6)
        pdf = uniform_density(1.5)
        lengths = cell_codelengths(partition, pdf)
        lower = expected_lower_bound(partition, pdf)
        avg = average_codelength(partition, pdf, lengths)
        assert lower <= avg <= lower + 1.0  # only ceiling slack for uniform

    def test_probabilities_normalized(self):
        partition = partition_ball(2.0, 10, 12)
        prob = cell_probabilities(partition, rgd_density(0.8))
        assert float(prob.sum()) == pytest.approx(1.0, rel=1e-12)
        assert np.all(prob >= 0)


def test_refinement_approaches_pointwise_density():
    # l_S + log2 vol(S) -> -log2 pdf(x_S) as cells shrink
    pdf = rgd_density(1.0)
    for n in (8, 16, 32, 64):
        partition = partition_ball(2.0, n, n)
        lengths = cell_codelengths(partition, pdf)
        target = -pdf(partition.representatives) / math.log(2.0)
        gap = lengths + np.log2(partition.volumes) - target
        assert np.all(gap >= -1e-9)      # ceiling never undershoots
        if n == 64:
            assert np.max(gap) <= 1.0 + 0.35  # ceiling plus sup-vs-center slack
