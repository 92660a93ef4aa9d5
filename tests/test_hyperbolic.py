import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml.complexity import RADIUS_MAX, ParamDomain, chart_gap
from rmnml.gaussian import Dataset, RgdParams, log_lik, sample
from rmnml.validation import adaptive_gauss_kronrod, xi

from conftest import (dist, exp_map, hyperboloid_violation_by_norms, isometry_matrix,
                      log_ball_volume_oracle, log_map, lorentz_to_poincare, minkowski_inner,
                      poincare_dist, polar_point, random_point, sphere_area, sqrt_det_metric)

TIGHT = 1e-12


class TestMinkowskiInner:
    # the test-side bilinear form that the log-map and stationarity oracles use
    def test_origin_self_product(self):
        o = hy.origin(1)
        assert minkowski_inner(o, o) == pytest.approx(-1.0, abs=1e-15)

    def test_bilinear_form_value(self):
        x = [math.cosh(1.0), math.sinh(1.0)]
        assert minkowski_inner(x, [1.0, 0.0]) == pytest.approx(-math.cosh(1.0))

    def test_no_manifold_check(self):
        # pure bilinear form: off-manifold vectors are fine
        assert minkowski_inner([1.0, 0.0, 0.0], [1.0, 0.5, 0.0]) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_inner([1.0, 0.0], [1.0, 0.0, 0.0])


class TestPointInvariants:
    # a point enters the library as RgdParams.mu or as Poincare input
    def test_off_manifold_rejected(self):
        with pytest.raises(hy.GeometryError, match="off the hyperboloid"):
            RgdParams(np.array([1.1, 0.0, 0.0]), 1.0)

    def test_negative_time_component_rejected(self):
        with pytest.raises(hy.GeometryError, match="x0 must be positive"):
            RgdParams(np.array([-1.0, 0.0]), 1.0)

    def test_poincare_norm_bound(self):
        with pytest.raises(hy.GeometryError, match="point 1 is invalid: Poincare"):
            hy.poincare_to_lorentz(np.array([[0.1, 0.2], [0.8, 0.7]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        for coords in ([bad, 0.0, 0.0], [1.0, bad, 0.0], [math.cosh(1.0), 0.0, bad]):
            with pytest.raises(hy.GeometryError, match="finite"):
                RgdParams(np.array(coords), 1.0)

    def test_far_points_construct(self):
        # the hyperboloid residual check must stay meaningful at large radius
        r = 40.0
        params = RgdParams(np.array([math.cosh(r), math.sinh(r), 0.0]), 1.0)
        assert params.dim == 2

    def test_mu_is_a_read_only_copy(self):
        coords = hy.origin(2)
        params = RgdParams(coords, 1.0)
        coords[0] = 2.0
        assert params.mu[0] == 1.0
        with pytest.raises(ValueError):
            params.mu[0] = 2.0

    @pytest.mark.parametrize("shape", [(1,), (2, 3)])
    def test_mu_shape_rejected(self, shape):
        coords = np.zeros(shape)
        coords[..., 0] = 1.0
        with pytest.raises(hy.GeometryError, match="at least 2 Lorentz components"):
            RgdParams(coords, 1.0)


def _scaled_residual(message: str, x0: float) -> float:
    """(<x,x>_L + 1) / max(1, x0)^2 as an off-hyperboloid message prints it."""
    value = float(message.rsplit(" = ", 1)[1])
    if "<x,x>_L =" not in message:
        return value
    scale = max(1.0, x0)
    return (value + 1.0) / scale / scale


class TestRowCheck:
    # hyperboloid_violation against conftest's per-row reference: the same
    # row and message.  At D <= 2 the einsum's square norms are the
    # reference's bit for bit.  At D >= 3 it sums the D squares in another
    # order, which moves the scaled residual (<x,x>_L + 1) / max(1, x0)^2 by
    # a few eps (2 eps at D = 3 and 50, 6 at D = 1,000, measured), within
    # the band (D + 2) eps of a D-term sum's rounding: a row whose residual
    # is within that band of ON_MANIFOLD_TOL may be judged either way, and a
    # failing row's printed <x,x>_L moves by no more than the band.
    @staticmethod
    def agree(coords):
        got, want = hy.hyperboloid_violation(coords), hyperboloid_violation_by_norms(coords)
        dim = coords.shape[1] - 1
        if dim <= 2 or got == want:
            assert got == want
            return
        band = (dim + 2) * np.finfo(float).eps
        if got is None or want is None:
            i, message = got or want
            residual = _scaled_residual(message, float(coords[i, 0]))
            assert abs(abs(residual) - hy.ON_MANIFOLD_TOL) <= band
            return
        assert got[0] == want[0]
        x0 = float(coords[got[0], 0])
        assert got[1].rsplit(" = ", 1)[0] == want[1].rsplit(" = ", 1)[0]
        assert abs(_scaled_residual(got[1], x0) - _scaled_residual(want[1], x0)) <= band

    @pytest.mark.parametrize("dim, n, sigma", [(1, 2_000, 1.0), (2, 2_000, 1.0),
                                               (3, 2_000, 0.8), (50, 500, 0.2),
                                               (1000, 100, 0.05)])
    def test_valid_draws(self, dim, n, sigma, rng):
        for mu in (hy.origin(dim), random_point(rng, dim, 3.0)):
            coords = sample(n, RgdParams(mu, sigma), seed=int(rng.integers(2**32))).coords
            assert hyperboloid_violation_by_norms(coords) is None
            self.agree(coords)

    @pytest.mark.parametrize("dim", [1, 2, 3, 50, 1000])
    def test_rows_at_the_tolerance(self, dim, rng):
        # x0 moved so that the residual is +-ON_MANIFOLD_TOL, then stepped 8
        # ulps either way, near the origin and far from it
        for r in (0.7, 4.0, 120.0):
            u = rng.standard_normal(dim)
            spatial = math.sinh(r) * u / np.linalg.norm(u)
            for sign in (1.0, -1.0):
                x0 = math.cosh(r) / math.sqrt(1.0 - sign * hy.ON_MANIFOLD_TOL)
                for _ in range(8):
                    x0 = math.nextafter(x0, 0.0)
                for _ in range(17):
                    row = np.concatenate([[x0], spatial])
                    self.agree(row[None, :])
                    # behind a valid row, so the index is the second
                    self.agree(np.stack([polar_point(r, u / np.linalg.norm(u)), row]))
                    x0 = math.nextafter(x0, math.inf)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coordinate_in_each_column(self, dim, bad):
        coords = sample(5, RgdParams(hy.origin(dim), 1.0), seed=7).coords
        for column in range(dim + 1):
            moved = coords.copy()
            moved[3, column] = bad
            self.agree(moved)

    @pytest.mark.parametrize("x0", [0.0, -0.0, -1.0, -math.cosh(2.0)])
    def test_x0_not_positive(self, x0):
        # -cosh 2 with sinh 2 u is a point of the lower sheet
        for dim in (1, 2, 3):
            coords = np.array([hy.origin(dim), polar_point(2.0, np.eye(dim)[0])])
            coords[1, 0] = x0
            self.agree(coords)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_near_x0_1e300(self, dim):
        u = np.ones(dim) / math.sqrt(dim)
        for x0 in (1e300, 1.7e308, sys.float_info.max):
            for stretch in (1.0, 1.0 - 1e-12, 0.5, 1.0 + 1e-9):
                with np.errstate(over="ignore"):
                    row = np.concatenate([[x0], x0 * stretch * u])
                self.agree(row[None, :])


class TestDistance:
    def test_coincident(self):
        o = hy.origin(3)
        assert dist(o, o) == 0.0

    def test_radial_isometry(self):
        o = hy.origin(2)
        assert dist(o, exp_map(o, np.array([0.0, 1.3, 0.0]))) == pytest.approx(
            1.3, abs=1e-12)

    def test_known_value(self):
        x = np.array([math.cosh(2.0), math.sinh(2.0)])
        assert dist(x, hy.origin(1)) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_and_identity(self, rng):
        for _ in range(50):
            x, y = random_point(rng, 3), random_point(rng, 3)
            assert dist(x, y) == pytest.approx(dist(y, x), abs=1e-9)
            assert dist(x, y) >= 0.0
            assert dist(x, x) <= 1e-9

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            x, y, z = (random_point(rng, 2) for _ in range(3))
            assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_far_points_at_known_radii(self, rng, dim):
        # pairs at a known distance, carried off the origin by one isometry
        radii = np.array([1.0, 1.3, 1.35, 5.0, 10.0, 20.0, 30.0, 40.0])
        for _ in range(5):
            mu = random_point(rng, dim, max_radius=1.0)
            directions = rng.standard_normal((radii.size, dim))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            ys = np.column_stack([np.cosh(radii), np.sinh(radii)[:, None] * directions])
            moved = hy.boost(mu, np.vstack([hy.origin(dim), ys]))
            d = hy.dist_many(moved[0], moved[1:])
            np.testing.assert_allclose(d, radii, rtol=1e-12, atol=0.0)

    def test_far_row_warns_nothing(self):
        # the chord of the row at r = 400 squares past the float range; only
        # the inner-product form is used there, and it is exact
        radii = np.array([400.0, 1.0])
        ys = np.column_stack([np.cosh(radii), np.sinh(radii), np.zeros(2)])
        params = RgdParams(hy.origin(2), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(hy.dist_many(hy.origin(2), ys), radii)
            value = log_lik(Dataset(ys), params)
        assert value == pytest.approx(-(400.0 ** 2 + 1.0) / 2.0 - 2.0 * math.log(xi(2, 1.0)),
                                      rel=1e-15)

    def test_off_manifold_rejection(self):
        with pytest.raises(hy.GeometryError):
            hy.dist_many(np.array([1.0, 0.0]), np.array([[0.9, 0.0]]))


class TestChartConversion:
    # the Poincare -> Lorentz kernel against the test-side stereographic
    # projection and the Poincare-metric distance
    def test_origin_maps_to_origin(self):
        x = hy.poincare_to_lorentz(np.zeros((1, 3)))
        assert np.array_equal(x[0], hy.origin(3))

    def test_stereographic_value(self):
        x = np.array([math.cosh(1.0), math.sinh(1.0)])
        p = lorentz_to_poincare(x)
        assert p[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        # independent check: Poincare-metric distance to the origin is 1
        assert poincare_dist(p, np.zeros(1)) == pytest.approx(1.0, abs=1e-12)
        back = hy.poincare_to_lorentz(np.array([[math.tanh(0.5)]]))[0]
        assert np.max(np.abs(back - x)) < 1e-12

    def test_round_trip(self, rng):
        xs = np.stack([random_point(rng, 3) for _ in range(100)])
        back = hy.poincare_to_lorentz(np.stack([lorentz_to_poincare(x) for x in xs]))
        assert np.max(np.abs(back - xs)) < 1e-12

    def test_distance_preserved(self, rng):
        for _ in range(50):
            p, q = (lorentz_to_poincare(random_point(rng, 2)) for _ in range(2))
            x, y = hy.poincare_to_lorentz(np.stack([p, q]))
            assert dist(x, y) == pytest.approx(poincare_dist(p, q), abs=1e-10)

    def test_invalid_poincare_rejected(self):
        with pytest.raises(hy.GeometryError, match="point 0 is invalid"):
            hy.poincare_to_lorentz(np.array([[0.9, 0.9]]))


class TestExpLog:
    # the array exp map, with the test-side log map as its inverse
    def test_zero_vector(self):
        o = hy.origin(2)
        assert np.array_equal(exp_map(o, np.zeros(3)), o)

    def test_closed_form_at_origin(self):
        x = exp_map(hy.origin(2), np.array([0.0, 1.5, 0.0]))
        assert x == pytest.approx([math.cosh(1.5), math.sinh(1.5), 0.0], abs=1e-12)

    def test_radial_isometry_random(self, rng):
        for _ in range(30):
            base = random_point(rng, 3)
            v = rng.standard_normal(4)
            v += minkowski_inner(base, v) * base  # project onto the tangent space
            norm = math.sqrt(minkowski_inner(v, v))
            assert dist(base, exp_map(base, v)) == pytest.approx(norm, abs=1e-9)

    def test_log_of_coincident_point(self):
        o = hy.origin(2)
        assert not np.any(log_map(o, o))

    def test_log_inverts_exp(self, rng):
        for _ in range(30):
            base = random_point(rng, 2)
            v = rng.standard_normal(3)
            v += minkowski_inner(base, v) * base
            w = log_map(base, exp_map(base, v))
            assert np.max(np.abs(w - v)) < 1e-9

    def test_exp_inverts_log(self, rng):
        for _ in range(30):
            base, x = random_point(rng, 2), random_point(rng, 2)
            y = exp_map(base, log_map(base, x))
            assert np.max(np.abs(y - x)) < 1e-9

    def test_log_norm_equals_distance(self):
        x = np.array([math.cosh(2.0), math.sinh(2.0)])
        v = log_map(hy.origin(1), x)
        assert math.sqrt(minkowski_inner(v, v)) == pytest.approx(2.0, abs=1e-12)


class TestPolar:
    # geodesic polar coordinates about the origin: (r, u) -> exp_o(r u), and
    # back through the test-side log map
    def test_round_trip(self, rng):
        o = hy.origin(3)
        for _ in range(50):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            r = float(rng.uniform(0.01, 3.0))
            v = log_map(o, exp_map(o, np.concatenate([[0.0], r * u])))
            radius = math.sqrt(minkowski_inner(v, v))
            assert radius == pytest.approx(r, abs=1e-10)
            assert np.max(np.abs(v[1:] / radius - u)) < 1e-10

    def test_radius_is_distance_to_origin(self, rng):
        x = random_point(rng, 2)
        v = log_map(hy.origin(2), x)
        assert math.sqrt(minkowski_inner(v, v)) == pytest.approx(
            dist(hy.origin(2), x), abs=1e-12)

    @staticmethod
    def unit_vectors(rng, shape, dim):
        u = rng.standard_normal(shape + (dim,))
        return u / np.linalg.norm(u, axis=-1, keepdims=True)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_kernel_rows_lie_on_the_sheet(self, dim, rng):
        r = np.concatenate([[0.0], np.exp(rng.uniform(-10.0, math.log(705.0), 200)), [705.0]])
        rows = hy.polar(r, self.unit_vectors(rng, r.shape, dim))
        assert rows.shape == (r.size, dim + 1)
        assert hy.hyperboloid_violation(rows) is None
        near = r < 20.0
        assert np.allclose(hy.dist_many(hy.origin(dim), rows[near]), r[near],
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
    def test_kernel_shapes(self, lead, rng):
        r = rng.uniform(0.0, 3.0, lead)
        u = self.unit_vectors(rng, lead, 2)
        assert hy.polar(r, u).shape == lead + (3,)
        # one direction for every radius, and one radius for every direction
        assert hy.polar(r, u[..., :1, :] if lead else u).shape == lead + (3,)
        assert hy.polar(1.5, u).shape == lead + (3,)

    def test_kernel_is_the_hand_written_row(self, rng):
        r = rng.uniform(0.0, 700.0, (6, 5))
        u = self.unit_vectors(rng, (6, 5), 3)
        by_hand = np.concatenate([np.cosh(r)[..., None], np.sinh(r)[..., None] * u], axis=-1)
        assert np.array_equal(hy.polar(r, u), by_hand)
        assert np.array_equal(hy.polar(2.0, u[0, 0]),
                              np.concatenate([[np.cosh(2.0)], np.sinh(2.0) * u[0, 0]]))

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_exp_normal_at_the_origin_is_the_kernel(self, dim, rng):
        # exp_normal builds its point with polar, so its spatial part is
        # polar's bit for bit; x0 is then put back on the sheet
        for t in rng.standard_normal((200, dim)) * rng.uniform(0.0, 5.0, (200, 1)):
            norm = math.sqrt(float(t @ t))
            assert np.array_equal(hy.exp_normal(hy.origin(dim), t)[1:],
                                  hy.polar(norm, t / norm)[1:])


class TestIsometry:
    def test_identity_at_origin(self, rng):
        points = np.array([random_point(rng, 3) for _ in range(5)])
        assert hy.boost(hy.origin(3), points) is points

    def test_moves_origin_to_target(self, rng):
        for _ in range(20):
            mu = random_point(rng, 3)
            assert np.max(np.abs(hy.boost(mu, hy.origin(3)[None, :])[0] - mu)) < 1e-12

    def test_far_target_stays_finite(self):
        # |spatial| = sinh 400 is past 1.3e154, where a squared norm overflows
        mu = polar_point(400.0, [0.6, 0.8])
        moved = hy.boost(mu, hy.origin(2)[None, :])
        assert np.all(np.isfinite(moved))
        np.testing.assert_allclose(moved[0], mu, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 50])
    def test_boost_applies_the_matrix(self, dim, rng):
        points = np.array([random_point(rng, dim, 3.0) for _ in range(40)])
        for _ in range(5):
            mu = random_point(rng, dim, 3.0)
            expected = points @ isometry_matrix(mu).T
            scale = mu[0] * points[:, :1]  # the size of each moved row's terms
            assert np.all(np.abs(hy.boost(mu, points) - expected) <= 1e-14 * scale)
        assert hy.boost(hy.origin(dim), points) is points

    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 50])
    def test_inverse_boost_undoes_boost(self, dim, rng):
        points = np.array([random_point(rng, dim, 3.0) for _ in range(40)])
        for _ in range(5):
            mu = random_point(rng, dim, 3.0)
            inverse = np.concatenate([mu[:1], -mu[1:]])
            back = hy.boost(inverse, hy.boost(mu, points))
            scale = mu[0] * mu[0] * points[:, :1]  # the size of the round trip's terms
            assert np.all(np.abs(back - points) <= 1e-14 * scale)

    def test_boost_does_not_form_the_matrix(self):
        dim = 2000
        mu = polar_point(2.0, np.ones(dim) / math.sqrt(dim))
        points = np.tile(hy.origin(dim), (10, 1))
        tracemalloc.start()
        try:
            hy.boost(mu, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and one (n, D) temporary; T would be 200 times the points
        assert peak < 5 * points.nbytes

    def test_preserves_minkowski_products(self, rng):
        mu = random_point(rng, 2)
        points = np.array([random_point(rng, 2) for _ in range(20)])
        J = np.diag([-1.0, 1.0, 1.0])
        moved = hy.boost(mu, points)
        assert np.max(np.abs(moved @ J @ moved.T - points @ J @ points.T)) < 1e-12 * mu[0] ** 2

    def test_preserves_distances(self, rng):
        mu = random_point(rng, 2)
        for _ in range(100):
            x, y = random_point(rng, 2), random_point(rng, 2)
            moved_x, moved_y = hy.boost(mu, np.stack([x, y]))
            assert dist(moved_x, moved_y) == pytest.approx(dist(x, y), abs=1e-9)


class TestVolumeElement:
    # the test-side per-point factor that checks chart_gap
    def test_poincare_origin(self):
        assert sqrt_det_metric(hy.CHART_POINCARE, hy.origin(3)) == pytest.approx(8.0)

    def test_lorentz_graph_origin(self):
        assert sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, hy.origin(2)) == 1.0

    def test_unknown_chart(self):
        with pytest.raises(hy.GeometryError):
            chart_gap(Dataset(hy.origin(2)[None, :]), "klein")

    def test_factor_ratio_matches_transform(self, rng):
        # the quotient of the two chart factors is exactly the density
        # transformation factor between the models
        for _ in range(20):
            x = random_point(rng, 2)
            p = lorentz_to_poincare(x)
            s2 = float(x[1:] @ x[1:])
            pn2 = float(p @ p)
            expected = math.sqrt(1.0 + s2) * (2.0 / (1.0 - pn2)) ** 2
            ratio = (sqrt_det_metric(hy.CHART_POINCARE, x)
                     / sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, x))
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_factor_at_origin(self):
        o = hy.origin(2)
        ratio = (sqrt_det_metric(hy.CHART_POINCARE, o)
                 / sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, o))
        assert ratio == pytest.approx(4.0)

    def test_mass_invariance_under_chart_change(self):
        # Gaussian-type density over a radius-2 geodesic ball in H^2: the
        # total mass must agree between the Lorentz-graph chart and the
        # Poincare chart (change-of-variables oracle).
        sigma = 0.8

        def p_vol_at_radius(r):
            return np.exp(-r * r / (2.0 * sigma * sigma))

        reference = 2.0 * math.pi * adaptive_gauss_kronrod(
            lambda r: p_vol_at_radius(r) * np.sinh(r), 0.0, 2.0, TIGHT)

        def f_lorentz(s):  # graph-chart density at spatial radius s
            x = np.column_stack([np.hypot(1.0, s), s, np.zeros_like(s)])
            r = hy.dist_many(hy.origin(2), x)
            return p_vol_at_radius(r) * sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, x)

        mass_lorentz = 2.0 * math.pi * adaptive_gauss_kronrod(
            lambda s: f_lorentz(s) * s, 0.0, math.sinh(2.0), 1e-9)

        def f_poincare(rho):
            # re-express the graph-chart density in the Poincare chart: the
            # factor is the ratio of the two volume-element factors
            x = hy.poincare_to_lorentz(np.column_stack([rho, np.zeros_like(rho)]))
            factor = (sqrt_det_metric(hy.CHART_POINCARE, x)
                      / sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, x))
            return f_lorentz(x[:, 1]) * factor

        mass_poincare = 2.0 * math.pi * adaptive_gauss_kronrod(
            lambda rho: f_poincare(rho) * rho, 0.0, math.tanh(1.0), 1e-9)

        assert mass_lorentz == pytest.approx(reference, rel=1e-6)
        assert mass_poincare == pytest.approx(reference, rel=1e-6)


class TestBallVolume:
    def test_zero_radius(self):
        for dim in range(1, 6):
            assert hy.log_ball_volume(dim, 0.0) == -math.inf

    def test_dimension_two(self):
        # oracle: 2 pi \int_0^1 sinh r dr = 2 pi (cosh 1 - 1)
        oracle = 2.0 * math.pi * adaptive_gauss_kronrod(np.sinh, 0.0, 1.0, TIGHT)
        volume = math.exp(hy.log_ball_volume(2, 1.0))
        assert volume == pytest.approx(oracle, rel=1e-10)
        assert volume == pytest.approx(2 * math.pi * (math.cosh(1) - 1), rel=1e-12)

    def test_dimension_three_exercises_limit_term(self):
        # oracle: 4 pi \int_0^1 sinh^2 r dr
        oracle = 4.0 * math.pi * adaptive_gauss_kronrod(lambda r: np.sinh(r) ** 2, 0.0, 1.0, TIGHT)
        volume = math.exp(hy.log_ball_volume(3, 1.0))
        assert volume == pytest.approx(oracle, rel=1e-10)
        assert volume == pytest.approx(math.pi * (math.sinh(2) - 2), rel=1e-12)

    def test_closed_form_against_quadrature(self):
        for dim in range(1, 6):
            area = sphere_area(dim)
            for radius in (0.5, 1.0, 2.0, 4.0):
                oracle = area * adaptive_gauss_kronrod(
                    lambda r: np.sinh(r) ** (dim - 1), 0.0, radius, TIGHT)
                assert math.exp(hy.log_ball_volume(dim, radius)) == pytest.approx(
                    oracle, rel=1e-8)

    def test_monotone_in_radius(self):
        radii = np.linspace(0.1, 5.0, 25)
        for dim in (1, 2, 5):
            values = [hy.log_ball_volume(dim, r) for r in radii]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_dimension(self):
        with pytest.raises(hy.GeometryError):
            hy.log_ball_volume(0, 1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1.0])
    def test_radius_not_finite_or_negative_is_refused(self, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hy.GeometryError, match="a finite radius >= 0"):
                hy.log_ball_volume(2, radius)

    def test_log_factors_against_direct_forms(self):
        for r in (1e-300, 1e-8, 0.3, 1.0, 20.0, 700.0):
            assert float(hy.log_sinh(r)) == pytest.approx(
                math.log(math.sinh(r)), rel=1e-14)
        assert float(hy.log_sinh(0.0)) == -math.inf
        for dim in range(1, 30):
            assert hy.log_sphere_area(dim) == pytest.approx(
                math.log(sphere_area(dim)), rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 50, 1000])
    def test_large_radius_asymptote(self, dim):
        # vol = |S^(D-1)| e^((D-1) R) / (2^(D-1) (D-1)) up to a factor 1 + O(e^-2R)
        ParamDomain(radius_R=RADIUS_MAX)
        for radius in (50.0, RADIUS_MAX):
            asymptote = (hy.log_sphere_area(dim) + (dim - 1) * (radius - math.log(2.0))
                         - math.log(dim - 1))
            assert hy.log_ball_volume(dim, radius) == pytest.approx(asymptote, rel=1e-12)

    def test_property_finite_increasing_and_matches_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(deadline=None, derandomize=True)
        @hypothesis.given(st.integers(1, 400), st.floats(1e-3, 1e3),
                          st.floats(1e-6, 1.0))
        def check(dim, radius, step):
            value = hy.log_ball_volume(dim, radius)
            assert math.isfinite(value)
            assert hy.log_ball_volume(dim, radius * (1.0 + step)) > value
            assert value == pytest.approx(log_ball_volume_oracle(dim, radius),
                                          rel=1e-10, abs=1e-10)

        check()
