"""Projection primitives and rigid transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymerge.geometry import (
    Pose,
    _segment_foot,
    arc_length,
    as_points,
    min_distance_to_polyline,
    project_point_to_polyline,
    transform_to_world,
)

from oracles import dense_polyline_projection, dense_projection
from helpers import random_polyline, random_pose


class TestProjectPointToSegment:
    def test_midpoint_foot(self):
        pr = project_point_to_polyline((1, 1), ((0, 0), (2, 0)))
        np.testing.assert_allclose(pr.point, [1.0, 0.0])
        assert pr.t == 0.5
        assert pr.distance == 1.0

    def test_point_on_endpoint(self):
        pr = project_point_to_polyline((0, 0), ((0, 0), (1, 0)))
        np.testing.assert_allclose(pr.point, [0.0, 0.0])
        assert pr.t == 0.0
        assert pr.distance == 0.0

    def test_clamped_past_end(self):
        pr = project_point_to_polyline((5, 3), ((0, 0), (2, 0)))
        np.testing.assert_allclose(pr.point, [2.0, 0.0])
        assert pr.t == 1.0
        assert pr.distance == pytest.approx(np.sqrt(18.0), abs=1e-12)

    def test_degenerate_segment_projects_to_endpoint(self):
        pr = project_point_to_polyline((3, 4), ((1, 1), (1, 1)))
        np.testing.assert_allclose(pr.point, [1.0, 1.0])
        assert pr.t == 0.0
        assert pr.distance == pytest.approx(np.hypot(2, 3))

    def test_t_is_exactly_the_clamped_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = rng.uniform(-5, 5, (3, 2))
            dx, dy = c - b
            if np.hypot(dx, dy) < 1e-6:
                continue
            pr = project_point_to_polyline(a, (b, c))
            raw = ((a[0] - b[0]) * dx + (a[1] - b[1]) * dy) / (dx * dx + dy * dy)
            assert pr.t == max(0.0, min(1.0, raw))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b, c = rng.uniform(-3, 3, (3, 2))
            pr = project_point_to_polyline(a, (b, c))
            d_oracle, foot_oracle = dense_projection(a, b, c)
            assert pr.distance == pytest.approx(d_oracle, abs=1e-4)
            np.testing.assert_allclose(pr.point, foot_oracle, atol=1e-4)


class TestProjectPointToPolyline:
    def test_tie_breaks_to_lowest_segment(self):
        # (1,1) is 1.0 from both segments; the first one wins
        pr = project_point_to_polyline((1, 1), [(0, 0), (2, 0), (2, 2)])
        assert pr.segment_index == 0
        np.testing.assert_allclose(pr.point, [1.0, 0.0])
        assert pr.distance == 1.0

    def test_point_on_vertex(self):
        pr = project_point_to_polyline((2, 0), [(0, 0), (2, 0), (2, 2)])
        assert pr.distance == 0.0
        np.testing.assert_allclose(pr.point, [2.0, 0.0])

    def test_before_first_vertex(self):
        pr = project_point_to_polyline((-1, 0.1), [(0, 0), (2, 0)])
        np.testing.assert_allclose(pr.point, [0.0, 0.0])
        assert pr.t == 0.0
        assert pr.distance == pytest.approx(np.hypot(1.0, 0.1), abs=1e-12)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            project_point_to_polyline((0, 0), [(1, 1)])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            poly = random_polyline(rng, n_min=2, n_max=6, scale=4.0)
            a = rng.uniform(-5, 5, 2)
            pr = project_point_to_polyline(a, poly)
            assert pr.distance == pytest.approx(
                dense_polyline_projection(a, poly, n=20_000), abs=1e-3
            )

    def test_foot_point_lies_on_its_segment(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            poly = random_polyline(rng, scale=6.0)
            a = rng.uniform(-8, 8, 2)
            pr = project_point_to_polyline(a, poly)
            b, c = poly[pr.segment_index], poly[pr.segment_index + 1]
            expect = b + pr.t * (c - b)
            np.testing.assert_allclose(pr.point, expect, atol=1e-9)
            assert 0.0 <= pr.t <= 1.0


class TestMinDistanceToPolyline:
    def test_matches_per_vertex_projection(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_polyline(rng, scale=5.0)
            b = random_polyline(rng, scale=5.0)
            expect = min(project_point_to_polyline(p, b).distance for p in a)
            assert min_distance_to_polyline(a, b) == expect

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=2, max_size=6),
        st.integers(0, 5),
        st.lists(st.tuples(st.floats(-60, 60), st.floats(-60, 60)), min_size=1, max_size=6),
    )
    def test_degenerate_segment_matches_per_vertex_projection(self, poly, k, points):
        k %= len(poly)
        # vertex k twice: a zero-length segment
        q = np.array(poly[: k + 1] + poly[k:])
        p = np.array(points)
        expect = min(project_point_to_polyline(v, q).distance for v in p)
        assert min_distance_to_polyline(p, q) == expect

    def test_not_symmetric_in_general(self):
        # vertices of a are far from b even though b has a vertex near a
        a = np.array([[0.0, 5.0], [10.0, 5.0]])
        b = np.array([[5.0, 5.2], [5.0, 20.0]])
        assert min_distance_to_polyline(b, a) == pytest.approx(0.2, abs=1e-12)
        assert min_distance_to_polyline(a, b) > 5.0


class TestArcLengthAndAsPoints:
    def test_arc_length(self):
        assert arc_length([(0, 0), (3, 4)]) == 5.0
        assert arc_length([(0, 0), (1, 0), (1, 1)]) == 2.0

    def test_as_points_shapes(self):
        assert as_points([(1, 2)]).shape == (1, 2)
        assert as_points(np.zeros((4, 2))).shape == (4, 2)
        with pytest.raises(ValueError):
            as_points(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            as_points([[0.0, np.nan]])
        with pytest.raises(ValueError):
            as_points([[0.0, np.inf]])


class TestPose:
    def test_identity_translation(self):
        out = transform_to_world([(3, 4)], Pose(np.array([1.0, 0, 0, 0]), np.array([10.0, 20.0, 0.0])))
        np.testing.assert_allclose(out, [[13.0, 24.0]])

    def test_yaw_90(self):
        pose = Pose(np.array([np.sqrt(0.5), 0, 0, np.sqrt(0.5)]), np.array([5.0, 5.0, 0.0]))
        out = transform_to_world([(1, 0)], pose)
        np.testing.assert_allclose(out, [[5.0, 6.0]], atol=1e-12)

    def test_matches_rotation_matrix(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            yaw = rng.uniform(-np.pi, np.pi)
            t = rng.uniform(-10, 10, 2)
            pose = Pose.from_yaw(yaw, *t)
            pts = rng.uniform(-5, 5, (6, 2))
            c, s = np.cos(yaw), np.sin(yaw)
            expect = pts @ np.array([[c, s], [-s, c]]) + t
            np.testing.assert_allclose(transform_to_world(pts, pose), expect, atol=1e-9)

    def test_rigid_lengths_preserved(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-5, 5, (10, 2))
        pose = random_pose(rng)
        out = transform_to_world(pts, pose)
        d_in = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        d_out = np.linalg.norm(out[:, None, :] - out[None, :, :], axis=2)
        np.testing.assert_allclose(d_out, d_in, atol=1e-9)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            pose = random_pose(rng)
            pts = rng.uniform(-20, 20, (5, 2))
            back = transform_to_world(transform_to_world(pts, pose), pose.inverse())
            np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_non_yaw_rotation_keeps_map_planar(self):
        # rotation about the x axis: (x, y) -> (x, y cos), z discarded
        theta = 0.7
        q = np.array([np.cos(theta / 2), np.sin(theta / 2), 0.0, 0.0])
        out = transform_to_world([(2.0, 3.0)], Pose(q, np.zeros(3)))
        np.testing.assert_allclose(out, [[2.0, 3.0 * np.cos(theta)]], atol=1e-12)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(3))
        # within 1e-6 of unit: silently normalized
        q = np.array([1.0 + 5e-7, 0.0, 0.0, 0.0])
        pose = Pose(q, np.zeros(3))
        assert np.linalg.norm(pose.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(2))
        with pytest.raises(ValueError):
            Pose(np.array([np.nan, 0.0, 0.0, 0.0]), np.zeros(3))

    def test_pose_arrays_read_only(self):
        pose = Pose.identity()
        with pytest.raises(ValueError):
            pose.rotation[0] = 2.0

    def test_from_yaw_zero_is_identity(self):
        pts = np.array([[1.0, 2.0], [-3.0, 4.0]])
        np.testing.assert_allclose(transform_to_world(pts, Pose.from_yaw(0.0)), pts)


class TestSegmentParameter:
    """The unclamped parameter of ``_segment_foot``, the scalar kernel."""

    def test_unclamped_values(self):
        assert _segment_foot(3.0, 1.0, 0.0, 0.0, 2.0, 0.0) == (1.5, 1.0, 2.0, 0.0, math.hypot(1, 1))
        assert _segment_foot(-1.0, 1.0, 0.0, 0.0, 2.0, 0.0)[:2] == (-0.5, 0.0)

    def test_degenerate_is_zero(self):
        assert _segment_foot(5.0, 5.0, 1.0, 1.0, 1.0, 1.0)[:4] == (0.0, 0.0, 1.0, 1.0)


# UTM-scale positions, segments from 1 mm to 100 m and segments around the
# 1e-12 degeneracy cut-off; the point sits up to 200 m from the segment
_coord = st.floats(-1e5, 1e5)
_length = st.one_of(st.floats(1e-3, 100.0), st.floats(0.0, 1e-11))


class TestOneArithmetic:
    """Every projection and pose normalisation computes with elementwise
    float operations in one order, so its bits cannot depend on the BLAS
    kernel numpy dispatches to: ``@`` and ``np.linalg.norm`` of a vector
    may fuse multiply-adds."""

    @settings(max_examples=300, deadline=None)
    @given(_coord, _coord, _length, st.floats(0.0, 2 * math.pi),
           st.floats(-200.0, 200.0), st.floats(-200.0, 200.0))
    def test_segment_parameter_and_projection_match_the_kernel(self, bx, by, length, angle, u, v):
        b = np.array([bx, by])
        c = b + length * np.array([math.cos(angle), math.sin(angle)])
        a = b + np.array([u, v])
        raw, t, fx, fy, dist = _segment_foot(*a.tolist(), *b.tolist(), *c.tolist())
        pr = project_point_to_polyline(a, [b, c])
        # the kernel's unclamped parameter: its expression on float64 scalars
        (dx, dy), (ex, ey) = c - b, a - b
        len_sq = dx * dx + dy * dy
        assert raw == (0.0 if len_sq < 1e-24 else (ex * dx + ey * dy) / len_sq)
        assert pr.t == t == max(0.0, min(1.0, raw))
        assert (pr.point.tolist(), pr.distance) == ([fx, fy], dist)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda v: math.hypot(*v) > 0.1), st.floats(-5e-7, 5e-7))
    def test_pose_rotation_is_divided_by_its_elementwise_norm(self, v, scale):
        q = np.array(v) / math.hypot(*v) * (1.0 + scale)
        w, x, y, z = q.tolist()
        expect = q / math.sqrt(w * w + x * x + y * y + z * z)
        assert np.array_equal(Pose(q, np.zeros(3)).rotation, expect)
