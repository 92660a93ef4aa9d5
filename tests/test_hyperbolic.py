import math

import numpy as np
import pytest

from rmnml import hyperbolic as hy
from rmnml.complexity import RADIUS_MAX, ParamDomain
from rmnml.quadrature import integrate_1d

from conftest import log_ball_volume_oracle, random_point

TIGHT = 1e-12


class TestMinkowskiInner:
    def test_origin_self_product(self):
        o = hy.origin(1)
        assert hy.minkowski_inner(o, o) == pytest.approx(-1.0, abs=1e-15)

    def test_bilinear_form_value(self):
        x = [math.cosh(1.0), math.sinh(1.0)]
        assert hy.minkowski_inner(x, [1.0, 0.0]) == pytest.approx(-math.cosh(1.0))

    def test_no_manifold_check(self):
        # pure bilinear form: off-manifold vectors are fine
        assert hy.minkowski_inner([1.0, 0.0, 0.0], [1.0, 0.5, 0.0]) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(hy.GeometryError):
            hy.minkowski_inner([1.0, 0.0], [1.0, 0.0, 0.0])


class TestPointInvariants:
    def test_off_manifold_rejected(self):
        with pytest.raises(hy.GeometryError):
            hy.LorentzPoint([1.1, 0.0, 0.0])

    def test_negative_time_component_rejected(self):
        with pytest.raises(hy.GeometryError):
            hy.LorentzPoint([-1.0, 0.0])

    def test_poincare_norm_bound(self):
        with pytest.raises(hy.GeometryError):
            hy.PoincarePoint([0.8, 0.7])

    def test_tangent_orthogonality_enforced(self):
        o = hy.origin(2)
        with pytest.raises(hy.GeometryError):
            hy.TangentVector(o, [0.5, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        for coords in ([bad, 0.0, 0.0], [1.0, bad, 0.0], [math.cosh(1.0), 0.0, bad]):
            with pytest.raises(hy.GeometryError, match="finite"):
                hy.LorentzPoint(coords)

    def test_far_points_construct(self):
        # the hyperboloid residual check must stay meaningful at large radius
        r = 40.0
        p = hy.LorentzPoint([math.cosh(r), math.sinh(r), 0.0])
        assert p.dim == 2


class TestDistance:
    def test_coincident(self):
        o = hy.origin(3)
        assert hy.dist(o, o) == 0.0

    def test_radial_isometry(self):
        o = hy.origin(2)
        v = hy.TangentVector(o, [0.0, 1.3, 0.0])
        assert hy.dist(o, hy.exp_map(o, v)) == pytest.approx(1.3, abs=1e-12)

    def test_known_value(self):
        x = hy.LorentzPoint([math.cosh(2.0), math.sinh(2.0)])
        assert hy.dist(x, hy.origin(1)) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_and_identity(self, rng):
        for _ in range(50):
            x, y = random_point(rng, 3), random_point(rng, 3)
            assert hy.dist(x, y) == pytest.approx(hy.dist(y, x), abs=1e-9)
            assert hy.dist(x, y) >= 0.0
            assert hy.dist(x, x) <= 1e-9

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            x, y, z = (random_point(rng, 2) for _ in range(3))
            assert hy.dist(x, z) <= hy.dist(x, y) + hy.dist(y, z) + 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_far_points_at_known_radii(self, rng, dim):
        # pairs at a known distance, carried off the origin by one isometry
        radii = np.array([1.0, 1.3, 1.35, 5.0, 10.0, 20.0, 30.0, 40.0])
        for _ in range(5):
            mu = random_point(rng, dim, max_radius=1.0)
            T = hy.isometry_to(mu)
            directions = rng.standard_normal((radii.size, dim))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            ys = np.column_stack([np.cosh(radii), np.sinh(radii)[:, None] * directions])
            d = hy.dist_many(T[:, 0], ys @ T.T)
            np.testing.assert_allclose(d, radii, rtol=1e-12, atol=0.0)

    def test_off_manifold_rejection(self):
        with pytest.raises(hy.GeometryError):
            hy.dist_many(np.array([1.0, 0.0]), np.array([[0.9, 0.0]]))


class TestChartConversion:
    def test_origin_maps_to_origin(self):
        p = hy.chart_convert(hy.origin(3))
        assert np.allclose(p.coords, 0.0)

    def test_stereographic_value(self):
        x = hy.LorentzPoint([math.cosh(1.0), math.sinh(1.0)])
        p = hy.lorentz_to_poincare(x)
        assert p.coords[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        # independent check: Poincare-metric distance to the origin is 1
        d = hy.poincare_dist(p, hy.PoincarePoint([0.0]))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self, rng):
        for _ in range(100):
            x = random_point(rng, 3)
            back = hy.poincare_to_lorentz(hy.lorentz_to_poincare(x))
            assert np.max(np.abs(back.coords - x.coords)) < 1e-12

    def test_distance_preserved(self, rng):
        for _ in range(50):
            x, y = random_point(rng, 2), random_point(rng, 2)
            dp = hy.poincare_dist(hy.lorentz_to_poincare(x), hy.lorentz_to_poincare(y))
            assert dp == pytest.approx(hy.dist(x, y), abs=1e-10)

    def test_invalid_poincare_rejected(self):
        with pytest.raises(hy.GeometryError):
            hy.PoincarePoint([0.9, 0.9])
        with pytest.raises(hy.GeometryError):
            hy.chart_convert(np.zeros(3))


class TestExpLog:
    def test_zero_vector(self):
        o = hy.origin(2)
        v = hy.TangentVector(o, np.zeros(3))
        assert np.array_equal(hy.exp_map(o, v).coords, o.coords)

    def test_closed_form_at_origin(self):
        o = hy.origin(2)
        x = hy.exp_map(o, hy.TangentVector(o, [0.0, 1.5, 0.0]))
        assert x.coords == pytest.approx([math.cosh(1.5), math.sinh(1.5), 0.0], abs=1e-12)

    def test_radial_isometry_random(self, rng):
        for _ in range(30):
            base = random_point(rng, 3)
            raw = rng.standard_normal(4)
            raw += hy.minkowski_inner(base.coords, raw) * base.coords  # project
            v = hy.TangentVector(base, raw)
            assert hy.dist(base, hy.exp_map(base, v)) == pytest.approx(v.norm(), abs=1e-9)

    def test_log_of_coincident_point(self):
        o = hy.origin(2)
        assert hy.log_map(o, o).norm() == 0.0

    def test_log_inverts_exp(self, rng):
        for _ in range(30):
            base = random_point(rng, 2)
            raw = rng.standard_normal(3)
            raw += hy.minkowski_inner(base.coords, raw) * base.coords
            v = hy.TangentVector(base, raw)
            w = hy.log_map(base, hy.exp_map(base, v))
            assert np.max(np.abs(w.vec - v.vec)) < 1e-9

    def test_exp_inverts_log(self, rng):
        for _ in range(30):
            base, x = random_point(rng, 2), random_point(rng, 2)
            y = hy.exp_map(base, hy.log_map(base, x))
            assert np.max(np.abs(y.coords - x.coords)) < 1e-9

    def test_log_norm_equals_distance(self):
        x = hy.LorentzPoint([math.cosh(2.0), math.sinh(2.0)])
        assert hy.log_map(hy.origin(1), x).norm() == pytest.approx(2.0, abs=1e-12)

    def test_exp_rejects_foreign_base(self, rng):
        o = hy.origin(2)
        other = random_point(rng, 2)
        v = hy.TangentVector(o, [0.0, 0.4, 0.0])
        with pytest.raises(hy.GeometryError):
            hy.exp_map(other, v)


class TestIsometry:
    def test_identity_at_origin(self):
        assert np.array_equal(hy.isometry_to(hy.origin(3)), np.eye(4))

    def test_moves_origin_to_target(self, rng):
        for _ in range(20):
            mu = random_point(rng, 3)
            T = hy.isometry_to(mu)
            assert np.max(np.abs(T @ hy.origin(3).coords - mu.coords)) < 1e-12

    def test_far_target_stays_finite(self):
        # |spatial| = sinh 400 is past 1.3e154, where a squared norm overflows
        mu = hy.from_polar(hy.PolarCoords(400.0, np.array([0.6, 0.8])))
        T = hy.isometry_to(mu)
        assert np.all(np.isfinite(T))
        np.testing.assert_allclose(T @ hy.origin(2).coords, mu.coords, rtol=1e-12)

    def test_preserves_minkowski_products(self, rng):
        mu = random_point(rng, 2)
        T = hy.isometry_to(mu)
        J = np.diag([-1.0, 1.0, 1.0])
        assert np.max(np.abs(T.T @ J @ T - J)) < 1e-12

    def test_preserves_distances(self, rng):
        mu = random_point(rng, 2)
        T = hy.isometry_to(mu)
        for _ in range(100):
            x, y = random_point(rng, 2), random_point(rng, 2)
            tx = hy.LorentzPoint(T @ x.coords)
            ty = hy.LorentzPoint(T @ y.coords)
            assert hy.dist(tx, ty) == pytest.approx(hy.dist(x, y), abs=1e-9)


class TestPolar:
    def test_zero_radius(self):
        p = hy.from_polar(hy.PolarCoords(0.0, [1.0, 0.0]))
        assert np.array_equal(p.coords, hy.origin(2).coords)

    def test_unit_radius_first_axis(self):
        p = hy.from_polar(hy.PolarCoords(1.0, [1.0, 0.0]))
        assert p.coords == pytest.approx([math.cosh(1.0), math.sinh(1.0), 0.0])

    def test_round_trip(self, rng):
        for _ in range(50):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            r = float(rng.uniform(0.01, 3.0))
            polar = hy.to_polar(hy.from_polar(hy.PolarCoords(r, u)))
            assert polar.r == pytest.approx(r, abs=1e-10)
            assert np.max(np.abs(polar.direction - u)) < 1e-10

    def test_radius_is_distance_to_origin(self, rng):
        x = random_point(rng, 2)
        assert hy.to_polar(x).r == pytest.approx(hy.dist(hy.origin(2), x), abs=1e-12)

    def test_direction_must_be_unit(self):
        with pytest.raises(hy.GeometryError):
            hy.PolarCoords(1.0, [1.0, 1.0])


class TestVolumeElement:
    def test_poincare_origin(self):
        assert hy.sqrt_det_metric(hy.CHART_POINCARE, hy.origin(3)) == pytest.approx(8.0)

    def test_lorentz_graph_origin(self):
        assert hy.sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, hy.origin(2)) == 1.0

    def test_unknown_chart(self):
        with pytest.raises(hy.GeometryError):
            hy.sqrt_det_metric("klein", hy.origin(2))

    def test_factor_ratio_matches_transform(self, rng):
        # the quotient of the two chart factors is exactly the density
        # transformation factor between the models
        for _ in range(20):
            x = random_point(rng, 2)
            p = hy.lorentz_to_poincare(x)
            s2 = float(x.coords[1:] @ x.coords[1:])
            pn2 = float(p.coords @ p.coords)
            expected = math.sqrt(1.0 + s2) * (2.0 / (1.0 - pn2)) ** 2
            ratio = (hy.sqrt_det_metric(hy.CHART_POINCARE, x)
                     / hy.sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, x))
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_factor_at_origin(self):
        o = hy.origin(2)
        ratio = (hy.sqrt_det_metric(hy.CHART_POINCARE, o)
                 / hy.sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, o))
        assert ratio == pytest.approx(4.0)

    def test_mass_invariance_under_chart_change(self):
        # Gaussian-type density over a radius-2 geodesic ball in H^2: the
        # total mass must agree between the Lorentz-graph chart and the
        # Poincare chart (change-of-variables oracle).
        sigma = 0.8

        def p_vol_at_radius(r):
            return math.exp(-r * r / (2.0 * sigma * sigma))

        reference = 2.0 * math.pi * integrate_1d(
            lambda r: p_vol_at_radius(r) * math.sinh(r), 0.0, 2.0, TIGHT)

        def f_lorentz(s):  # graph-chart density at spatial radius s
            x = hy.LorentzPoint([math.hypot(1.0, s), s, 0.0])
            r = hy.dist(hy.origin(2), x)
            return p_vol_at_radius(r) * hy.sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, x)

        mass_lorentz = 2.0 * math.pi * integrate_1d(
            lambda s: f_lorentz(s) * s, 0.0, math.sinh(2.0), 1e-9)

        def f_poincare(rho):
            # re-express the graph-chart density in the Poincare chart: the
            # factor is the ratio of the two volume-element factors
            x = hy.poincare_to_lorentz(hy.PoincarePoint([rho, 0.0]))
            factor = (hy.sqrt_det_metric(hy.CHART_POINCARE, x)
                      / hy.sqrt_det_metric(hy.CHART_LORENTZ_GRAPH, x))
            return f_lorentz(float(x.coords[1])) * factor

        mass_poincare = 2.0 * math.pi * integrate_1d(
            lambda rho: f_poincare(rho) * rho, 0.0, math.tanh(1.0), 1e-9)

        assert mass_lorentz == pytest.approx(reference, rel=1e-6)
        assert mass_poincare == pytest.approx(reference, rel=1e-6)


class TestBallVolume:
    def test_zero_radius(self):
        for dim in range(1, 6):
            assert hy.log_ball_volume(dim, 0.0) == -math.inf

    def test_dimension_two(self):
        # oracle: 2 pi \int_0^1 sinh r dr = 2 pi (cosh 1 - 1)
        oracle = 2.0 * math.pi * integrate_1d(math.sinh, 0.0, 1.0, TIGHT)
        volume = math.exp(hy.log_ball_volume(2, 1.0))
        assert volume == pytest.approx(oracle, rel=1e-10)
        assert volume == pytest.approx(2 * math.pi * (math.cosh(1) - 1), rel=1e-12)

    def test_dimension_three_exercises_limit_term(self):
        # oracle: 4 pi \int_0^1 sinh^2 r dr
        oracle = 4.0 * math.pi * integrate_1d(lambda r: math.sinh(r) ** 2, 0.0, 1.0, TIGHT)
        volume = math.exp(hy.log_ball_volume(3, 1.0))
        assert volume == pytest.approx(oracle, rel=1e-10)
        assert volume == pytest.approx(math.pi * (math.sinh(2) - 2), rel=1e-12)

    def test_closed_form_against_quadrature(self):
        for dim in range(1, 6):
            area = hy.sphere_area(dim)
            for radius in (0.5, 1.0, 2.0, 4.0):
                oracle = area * integrate_1d(
                    lambda r: math.sinh(r) ** (dim - 1), 0.0, radius, TIGHT)
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

    def test_log_factors_against_direct_forms(self):
        for r in (1e-300, 1e-8, 0.3, 1.0, 20.0, 700.0):
            assert float(hy.log_sinh(r)) == pytest.approx(
                math.log(math.sinh(r)), rel=1e-14)
        assert float(hy.log_sinh(0.0)) == -math.inf
        for dim in range(1, 30):
            assert hy.log_sphere_area(dim) == pytest.approx(
                math.log(hy.sphere_area(dim)), rel=1e-14, abs=1e-14)

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
