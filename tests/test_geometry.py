import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from grf_tomo import (ConeBeamGeometry, CovariancePredictor, DegenerateProjectionError,
                      Radon2DGeometry)
from conftest import Radon2DWithGradient, admissible_points


class TestSourcePosition:
    def test_cardinal_angles(self, geometry):
        assert_allclose(geometry.source_position(0.0), [10.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(geometry.source_position(np.pi / 2), [0.0, 10.0, 0.0], atol=1e-14)
        assert_allclose(geometry.source_position(np.pi), [-10.0, 0.0, 0.0], atol=1e-14)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            ConeBeamGeometry(radius=0.0)
        for radius in (np.inf, np.nan):
            with pytest.raises(ValueError, match="radius"):
                ConeBeamGeometry(radius=radius)
        # True compares as 1, so only a type check keeps it out
        for true in (True, np.True_):
            with pytest.raises(ValueError, match="radius"):
                ConeBeamGeometry(radius=true)


class TestProject:
    def test_origin_is_fixed(self, geometry):
        for s in [0.0, 1.1, 4.9]:
            u, v = geometry.project([0.0, 0.0, 0.0], s)
            assert u == 0.0 and v == 0.0

    def test_axis_point_maps_to_itself(self, geometry):
        for s in np.linspace(0, 2 * np.pi, 17, endpoint=False):
            u, v = geometry.project([0.0, 0.0, 2.3], s)
            assert u == 0.0
            assert v == 2.3

    def test_hand_evaluated_projection(self, geometry):
        # x = (2.7, -3.1, 0.8), s = 0: denominator 0.73
        u, v = geometry.project([2.7, -3.1, 0.8], 0.0)
        assert_allclose(u, -3.1 / 0.73, rtol=1e-15)
        assert_allclose(v, 0.8 / 0.73, rtol=1e-15)

    def test_periodic_in_angle(self, geometry):
        rng = np.random.default_rng(7)
        pts = admissible_points(geometry, rng, 50)
        s = rng.uniform(0, 2 * np.pi, size=50)
        u0, v0 = geometry.project(pts, s)
        u1, v1 = geometry.project(pts, s + 2 * np.pi)
        assert_allclose(u1, u0, rtol=1e-10, atol=1e-12)
        assert_allclose(v1, v0, rtol=1e-10, atol=1e-12)

    def test_degenerate_projection_raises(self, geometry):
        with pytest.raises(DegenerateProjectionError):
            geometry.project([10.0 - 1e-12, 0.0, 0.0], 0.0)


class TestProjectGradient:
    def test_origin_gradient(self, geometry):
        for s in [0.0, 0.7, 2.9]:
            grad = geometry.project_gradient([0.0, 0.0, 0.0], s)
            expected = np.array([[-np.sin(s), np.cos(s), 0.0], [0.0, 0.0, 1.0]])
            assert_allclose(grad, expected, rtol=0, atol=1e-15)

    def test_v_slope_in_x3_is_projection_scale(self, geometry):
        # for x3 = 0 the v-row reduces to (0, 0, T)
        x = np.array([2.7, -3.1, 0.0])
        s = 1.234
        den = 1.0 - (x[0] * np.cos(s) + x[1] * np.sin(s)) / geometry.radius
        grad = geometry.project_gradient(x, s)
        assert_allclose(grad[1, 2], 1.0 / den, rtol=1e-15)
        assert_allclose(grad[1, :2], 0.0, atol=1e-15)

    def test_matches_central_differences(self, geometry):
        rng = np.random.default_rng(11)
        pts = admissible_points(geometry, rng, 200)
        angles = rng.uniform(0, 2 * np.pi, size=200)
        h = 1e-6
        grad = geometry.project_gradient(pts, angles)
        fd = np.empty_like(grad)
        for axis in range(3):
            delta = np.zeros(3)
            delta[axis] = h
            up = np.stack(geometry.project(pts + delta, angles), axis=-1)
            dn = np.stack(geometry.project(pts - delta, angles), axis=-1)
            fd[..., axis] = (up - dn) / (2 * h)
        scale = np.max(np.abs(grad), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(grad - fd) / scale) < 1e-6


class TestCheckAdmissible:
    def test_floor_binds_near_the_trajectory(self):
        # at fraction 1 - 1e-10 a point inside fraction * R can still bound
        # the denominator 1 - rho/R below the 1e-9 floor; the rule refuses it
        geometry = ConeBeamGeometry(radius=10.0, admissible_fraction=1.0 - 1e-10)
        point = [10.0 - 5e-9, 0.0, 1.0]
        with pytest.raises(DegenerateProjectionError, match="point 0 at cylinder radius 10"):
            geometry.check_admissible(point)
        with pytest.raises(DegenerateProjectionError, match="floor"):
            geometry.project(point, 0.0)
        geometry.check_admissible([10.0 - 2e-8, 0.0, 1.0])

    @pytest.mark.parametrize("point", [[np.nan, 0.0, 0.8], [2.7, -3.1, np.nan],
                                       [2.7, -3.1, np.inf]], ids=["x1-nan", "x3-nan", "x3-inf"])
    def test_refuses_a_non_finite_point(self, geometry, point):
        # rho > limit is false for NaN, and the cylinder rule never reads x3
        with pytest.raises(DegenerateProjectionError,
                           match=r"^point 1 has a non-finite coordinate"):
            geometry.check_admissible([[2.7, -3.1, 0.8], point, [2.7, -3.1, np.nan]])

    @pytest.mark.parametrize("point", [[np.nan, 0.0, 0.8], [2.7, -3.1, np.inf]],
                             ids=["x1-nan", "x3-inf"])
    def test_predictor_refuses_a_non_finite_point(self, geometry, kernel, point):
        # refused at construction, before any angle quadrature runs
        with pytest.raises(DegenerateProjectionError, match="non-finite"):
            CovariancePredictor(geometry, kernel, point)

    @given(radius=st.floats(0.1, 100.0), fraction=st.floats(1e-3, 1.0 - 1e-6),
           scale=st.floats(0.0, 1.001), phi=st.floats(0.0, 2 * np.pi),
           z=st.floats(-10.0, 10.0), s=st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_accepted_points_project_at_any_angle(self, radius, fraction, scale, phi, z, s):
        # 1 - rho/R >= 1 - fraction bounds every view's denominator, the
        # smallest one at s = phi included
        geometry = ConeBeamGeometry(radius=radius, admissible_fraction=fraction)
        rho = scale * fraction * radius
        x = np.array([rho * np.cos(phi), rho * np.sin(phi), z])
        if np.hypot(x[0], x[1]) > fraction * radius:
            with pytest.raises(DegenerateProjectionError):
                geometry.check_admissible(x)
            return
        geometry.check_admissible(x)
        geometry.project(x, np.array([s, phi]))
        geometry.project_gradient(x, np.array([s, phi]))


class TestEllipseResidual:
    def test_reference_point(self, geometry):
        res = geometry.ellipse_residual([2.7, -3.1, 0.8], 1.3)
        assert abs(res) < 1e-10 * geometry.radius**4

    def test_axis_point_vanishes(self, geometry):
        for s in [0.0, 2.2, 5.1]:
            assert abs(geometry.ellipse_residual([0.0, 0.0, 1.0], s)) < 1e-12

    def test_random_admissible_points(self, geometry):
        rng = np.random.default_rng(3)
        pts = admissible_points(geometry, rng, 100)
        s = rng.uniform(0, 2 * np.pi, size=100)
        res = geometry.ellipse_residual(pts, s)
        assert np.max(np.abs(res)) < 1e-10 * geometry.radius**4


class TestEllipseSample:
    @given(st.integers(1, 300), st.integers(0, 2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_admissible_and_prefix_stable(self, count, seed):
        geometry = ConeBeamGeometry(radius=10.0)
        pts, s = geometry.ellipse_sample(count, seed)
        assert pts.shape == (count, 3) and s.shape == (count,)
        geometry.check_admissible(pts)
        assert np.all((pts[:, 2] >= -3.0) & (pts[:, 2] < 3.0))
        assert np.all((s >= 0.0) & (s < 2 * np.pi))
        # keyed by index, so a longer sample starts with the shorter one
        longer, s_longer = geometry.ellipse_sample(2 * count, seed)
        assert np.array_equal(longer[:count], pts) and np.array_equal(s_longer[:count], s)
        other, s_other = geometry.ellipse_sample(count, (seed + 1) % 2**64)
        assert not np.array_equal(other, pts) and not np.array_equal(s_other, s)


class TestRadon2D:
    def test_psi_values(self):
        geo = Radon2DGeometry()
        assert geo.projection([1.0, 0.0], 0.0)[..., 0] == 1.0
        assert abs(geo.projection([1.0, 0.0], np.pi / 2)[..., 0]) < 1e-15
        assert_allclose(geo.projection([3.0, 4.0], np.arctan2(4.0, 3.0))[..., 0], 5.0,
                        rtol=1e-15)

    def test_geometry_interface_shapes(self):
        geo = Radon2DGeometry()
        alphas = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        assert geo.projection([1.0, 2.0], alphas).shape == (9, 1)
        # the Jacobian lives in the tests, the only callers of it
        assert Radon2DWithGradient().project_gradient([1.0, 2.0], alphas).shape == (9, 1, 2)
