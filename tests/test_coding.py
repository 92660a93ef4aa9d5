import math

import numpy as np
import pytest

from rmnml import coding, hyperbolic as hy
from rmnml.coding import SUBGRID, PrefixCode, partition_ball, prefix_code
from rmnml.validation import xi


def rgd_density(sigma: float):
    """Closed-form log density of the hyperbolic Gaussian at the origin."""
    log_norm = math.log(xi(2, sigma))

    def log_pdf(points):
        d = np.arccosh(np.maximum(points[..., 0], 1.0))
        return -d * d / (2.0 * sigma * sigma) - log_norm

    return log_pdf


def shifted_density(sigma: float):
    """Unnormalized hyperbolic Gaussian about a point off the origin, so that
    its density varies with the angle."""
    mu = coding._lorentz_of_polar(np.array(1.0), np.array(0.3))

    def log_pdf(points):
        inner = mu[0] * points[..., 0] - points[..., 1:] @ mu[1:]
        d = np.arccosh(np.maximum(inner, 1.0))
        return -d * d / (2.0 * sigma * sigma)

    return log_pdf


def uniform_density(radius: float):
    log_volume = hy.log_ball_volume(2, radius)

    def log_pdf(points):
        return np.full(points.shape[:-1], -log_volume)

    return log_pdf


def cell_ranges(partition):
    """Per-cell (r_lo, r_hi, t_lo, t_hi) in the ring-major order of the cells."""
    n_r, n_angle = partition.r_edges.size - 1, partition.angle_edges.size - 1
    return (np.repeat(partition.r_edges[:-1], n_angle), np.repeat(partition.r_edges[1:], n_angle),
            np.tile(partition.angle_edges[:-1], n_r), np.tile(partition.angle_edges[1:], n_r))


def cell_centres(partition):
    """Lorentz coordinates of each cell's midpoint in radius and angle."""
    r_lo, r_hi, t_lo, t_hi = cell_ranges(partition)
    return coding._lorentz_of_polar(0.5 * (r_lo + r_hi), 0.5 * (t_lo + t_hi))


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

    def test_middle_subgrid_node_is_midpoint(self):
        # the cell probabilities read p at the middle sub-grid node
        assert SUBGRID % 2 == 1
        rng = np.random.default_rng(5)
        radii = np.exp(rng.uniform(-5.0, math.log(coding.MAX_RADIUS), size=200))
        for radius in [coding.MAX_RADIUS, *radii]:
            partition = partition_ball(float(radius), *rng.integers(1, 40, size=2))
            seen = []

            def log_pdf(points):
                seen.append(points.copy())
                return np.zeros(len(points))

            prefix_code(partition, log_pdf)
            middle = seen[0].reshape(SUBGRID * SUBGRID, -1, 3)[SUBGRID ** 2 // 2]
            assert np.array_equal(middle, cell_centres(partition))

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            partition_ball(1.0, 0, 4)
        with pytest.raises(ValueError):
            partition_ball(0.0, 4, 4)


class TestCodeLengths:
    def test_uniform_single_cell_is_zero_bits(self):
        partition = partition_ball(1.0, 1, 1)
        lengths = prefix_code(partition, uniform_density(1.0)).lengths
        assert lengths.tolist() == [0]

    def test_kraft_inequality_on_grid(self):
        partition = partition_ball(3.0, 32, 32)
        for sigma in (0.5, 1.0):
            assert prefix_code(partition, rgd_density(sigma)).kraft_sum <= 1.0

    def test_halving_volumes_adds_one_bit(self):
        coarse = partition_ball(2.0, 8, 8)
        fine = partition_ball(2.0, 8, 16)
        pdf = rgd_density(1.0)
        l_coarse = prefix_code(coarse, pdf).lengths
        l_fine = prefix_code(fine, pdf).lengths
        # each coarse cell splits into two of half the volume; the density
        # extrema barely move, so lengths grow by one bit up to ceiling slack
        pair_min = np.minimum(l_fine[0::2], l_fine[1::2]).reshape(-1)
        diffs = pair_min - l_coarse
        assert np.all((diffs >= 0) & (diffs <= 2))
        assert np.mean(diffs) == pytest.approx(1.0, abs=0.3)

    def test_positive_density_required(self):
        partition = partition_ball(1.0, 2, 2)
        with pytest.raises(ValueError):
            prefix_code(partition, lambda pts: np.full(pts.shape[:-1], -np.inf))


class TestExpectedLength:
    def test_average_length_bounded_below(self):
        partition = partition_ball(3.0, 32, 32)
        for sigma in (0.5, 1.0):
            code = prefix_code(partition, rgd_density(sigma))
            lower, avg = code.lower_bound_bits, code.average_bits
            assert lower <= avg <= lower + 2.0

    def test_uniform_density_bound_tight(self):
        partition = partition_ball(1.5, 6, 6)
        code = prefix_code(partition, uniform_density(1.5))
        lower, avg = code.lower_bound_bits, code.average_bits
        assert lower <= avg <= lower + 1.0  # only ceiling slack for uniform

    def test_probabilities_normalized(self):
        # a uniform density on one ring: every cell has the same length L,
        # so the average is L exactly when the probabilities sum to 1
        code = prefix_code(partition_ball(2.0, 1, 12), uniform_density(2.0))
        assert np.all(code.lengths == code.lengths[0])
        assert code.average_bits == pytest.approx(float(code.lengths[0]), rel=1e-12)


def test_refinement_approaches_pointwise_density():
    # l_S + log2 vol(S) -> -log2 pdf(x_S) as cells shrink
    pdf = rgd_density(1.0)
    for n in (8, 16, 32, 64):
        partition = partition_ball(2.0, n, n)
        lengths = prefix_code(partition, pdf).lengths
        target = -pdf(cell_centres(partition)) / math.log(2.0)
        gap = lengths + np.log2(partition.volumes) - target
        assert np.all(gap >= -1e-9)      # ceiling never undershoots
        if n == 64:
            assert np.max(gap) <= 1.0 + 0.35  # ceiling plus sup-vs-center slack


def loop_reference(partition, log_pdf):
    """The code built with one ``log_pdf`` call per sub-grid point.

    Cell extrema come from SUBGRID * SUBGRID separate calls on the cells,
    and the probabilities from one more call at the cell centres.
    """
    frac = np.linspace(0.0, 1.0, SUBGRID)
    lo = np.full(len(partition), np.inf)
    hi = np.full(len(partition), -np.inf)
    r_lo, r_hi, t_lo, t_hi = cell_ranges(partition)
    for fr in frac:
        r = r_lo + fr * (r_hi - r_lo)
        for ft in frac:
            t = t_lo + ft * (t_hi - t_lo)
            values = log_pdf(coding._lorentz_of_polar(r, t))
            lo = np.minimum(lo, values)
            hi = np.maximum(hi, values)
    log_vol = np.log(partition.volumes)
    lengths = np.ceil(-(lo + log_vol) / math.log(2.0)).astype(np.int64)
    log_mass = log_pdf(cell_centres(partition)) + log_vol
    mass = np.exp(log_mass - log_mass.max())
    prob = mass / mass.sum()
    return PrefixCode(
        lengths=lengths,
        kraft_sum=float(np.sum(np.exp2(-np.asarray(lengths, dtype=float)))),
        average_bits=float(prob @ lengths),
        lower_bound_bits=float(prob @ (-(hi + log_vol) / math.log(2.0))))


class TestPrefixCode:
    def test_log_pdf_called_once_on_one_array(self):
        partition = partition_ball(2.0, 8, 16)
        calls = []
        pdf = rgd_density(1.0)

        def log_pdf(points):
            calls.append(points.shape)
            return pdf(points)

        prefix_code(partition, log_pdf)
        assert calls == [(SUBGRID * SUBGRID * len(partition), 3)]

    @pytest.mark.parametrize("grid", [(8, 16), (5, 9)])
    def test_blocks_match_one_call_bit_for_bit(self, grid, monkeypatch):
        partition = partition_ball(2.5, *grid)
        pdf = rgd_density(0.7)
        whole = prefix_code(partition, pdf)
        calls = []

        def log_pdf(points):
            calls.append(points.shape[0])
            return pdf(points)

        monkeypatch.setattr(coding, "BLOCK_CELLS", 7)
        blocked = prefix_code(partition, log_pdf)
        m = len(partition)
        assert len(calls) == math.ceil(m / 7)
        assert sum(calls) == SUBGRID * SUBGRID * m
        assert np.array_equal(blocked.lengths, whole.lengths)
        assert blocked.kraft_sum == whole.kraft_sum
        assert blocked.average_bits == whole.average_bits
        assert blocked.lower_bound_bits == whole.lower_bound_bits

    @pytest.mark.parametrize("grid", [(32, 32), (8, 16)])
    @pytest.mark.parametrize("density", ["rgd-0.5", "rgd-1.0", "uniform", "shifted"])
    def test_matches_loop_reference_bit_for_bit(self, grid, density):
        radius = 3.0
        pdf = {"rgd-0.5": rgd_density(0.5), "rgd-1.0": rgd_density(1.0),
               "uniform": uniform_density(radius), "shifted": shifted_density(0.7)}[density]
        partition = partition_ball(radius, *grid)
        code = prefix_code(partition, pdf)
        reference = loop_reference(partition, pdf)
        assert code.lengths.dtype == np.int64
        assert np.array_equal(code.lengths, reference.lengths)
        assert code.kraft_sum == reference.kraft_sum
        assert code.average_bits == reference.average_bits
        assert code.lower_bound_bits == reference.lower_bound_bits

    def test_record_is_frozen(self):
        code = prefix_code(partition_ball(1.0, 2, 2), rgd_density(1.0))
        with pytest.raises(AttributeError):
            code.kraft_sum = 0.5


class TestRadiusBound:
    @pytest.mark.parametrize("radius", [709.0, 711.0, 1e3, math.inf, math.nan, 0.0, -1.0])
    def test_radius_outside_range_is_value_error(self, radius):
        with pytest.raises(ValueError, match=r"at most 708\.638.*got"):
            partition_ball(radius, 4, 4)

    @pytest.mark.parametrize("grid", [(1, 1), (4, 4)])
    def test_largest_radius_gives_finite_cells(self, grid):
        partition = partition_ball(coding.MAX_RADIUS, *grid)
        assert np.isfinite(cell_centres(partition)).all()
        assert np.isfinite(partition.volumes).all()
        assert np.all(partition.volumes > 0)
