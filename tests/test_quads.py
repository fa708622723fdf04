"""Coverage-grid pipeline for crossing quads and the rotated rectangle fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymerge import (
    MergeConfig,
    MergeReport,
    blur_coverage,
    merge_quads,
    min_rotated_rect,
    rasterize_coverage,
    threshold_region,
)
from polymerge.quads import CoverageGrid, EmptyRegionError
from polymerge.quads import (
    _cell_corner_points,
    _convex_hull,
    _points_in_quad,
    gaussian_kernel,
    quad_area,
)

from helpers import quad_element, rect_quad
from oracles import monotone_chain_hull, quad_iou, reference_points_in_quad, sweep_min_rect_area


def _signed_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestCoverageGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageGrid(np.zeros(2), 0.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            CoverageGrid(np.zeros(3), 0.1, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            CoverageGrid(np.zeros(2), 0.1, np.zeros(4))

    def test_cell_centers_row_major(self):
        grid = CoverageGrid(np.array([1.0, 2.0]), 0.5, np.zeros((2, 3)))
        centers = grid.cell_centers()
        assert centers.shape == (6, 2)
        np.testing.assert_allclose(centers[0], [1.25, 2.25])
        np.testing.assert_allclose(centers[1], [1.75, 2.25])
        np.testing.assert_allclose(centers[3], [1.25, 2.75])


@st.composite
def _quad_and_probes(draw):
    """A tilted rectangle, perhaps with its corners moved, and probe points:
    raster cell centers, corners, points on the edges and points within a
    few 1e-9 m of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1e-3, 0.01, 1.0, 10.0]))
    offset = draw(st.sampled_from([0.0, 1e3, 1e5]))
    quad = rect_quad(offset * rng.choice([-1.0, 1.0]), offset * rng.choice([-1.0, 1.0]),
                     w=size * rng.uniform(0.2, 1.0), h=size * rng.uniform(0.2, 1.0),
                     angle=draw(st.floats(0.0, 2 * np.pi)))
    if draw(st.booleans()):
        quad = quad + rng.uniform(-0.2, 0.2, (4, 2)) * size
    start, end = quad, np.roll(quad, -1, axis=0)
    t = rng.uniform(0.0, 1.0, (4, 8, 1))
    on_edge = (start[:, None] + t * (end - start)[:, None]).reshape(-1, 2)
    normal = rng.normal(size=on_edge.shape)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    near = on_edge + normal * rng.choice([1e-10, 5e-10, 1e-9, 2e-9], (len(on_edge), 1))
    centers = rasterize_coverage([quad], size / 7).cell_centers()
    return quad, np.vstack([centers, quad, on_edge, near])


class TestPointsInQuad:
    @settings(max_examples=200, deadline=None)
    @given(_quad_and_probes())
    def test_matches_per_edge_reference(self, case):
        quad, points = case
        np.testing.assert_array_equal(
            _points_in_quad(points, quad), reference_points_in_quad(points, quad)
        )

    def test_edges_and_corners_are_covered(self):
        quad = rect_quad(0.5, 0.5, 1, 1)
        points = np.array([(0.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.5, 1.0 + 2e-9), (1.5, 0.5)])
        assert _points_in_quad(points, quad).tolist() == [True, True, True, False, False]


class TestRasterize:
    def test_single_unit_square(self):
        grid = rasterize_coverage([rect_quad(0.5, 0.5, 1, 1)], 0.1)
        centers = grid.cell_centers()
        values = grid.values.ravel()
        inside = (
            (centers[:, 0] > 0) & (centers[:, 0] < 1) & (centers[:, 1] > 0) & (centers[:, 1] < 1)
        )
        assert np.all(values[inside] == 1.0)
        outside = (
            (centers[:, 0] < -0.01) | (centers[:, 0] > 1.01)
            | (centers[:, 1] < -0.01) | (centers[:, 1] > 1.01)
        )
        assert np.all(values[outside] == 0.0)

    def test_identical_squares_normalize_away(self):
        sq = rect_quad(0, 0, 1, 1)
        one = rasterize_coverage([sq], 0.1)
        two = rasterize_coverage([sq, sq], 0.1)
        np.testing.assert_array_equal(one.values, two.values)

    def test_offset_squares_coverage_fractions(self):
        a = rect_quad(0.5, 0.5, 1, 1)
        b = rect_quad(1.0, 0.5, 1, 1)
        grid = rasterize_coverage([a, b], 0.1)
        centers = grid.cell_centers()
        values = grid.values.ravel()
        overlap = (
            (centers[:, 0] > 0.52) & (centers[:, 0] < 0.98)
            & (centers[:, 1] > 0.02) & (centers[:, 1] < 0.98)
        )
        assert np.all(values[overlap] == 1.0)
        single = (
            (centers[:, 0] > 0.02) & (centers[:, 0] < 0.48)
            & (centers[:, 1] > 0.02) & (centers[:, 1] < 0.98)
        )
        assert np.all(values[single] == 0.5)

    def test_grid_has_one_cell_apron(self):
        grid = rasterize_coverage([rect_quad(0.5, 0.5, 1, 1)], 0.25)
        np.testing.assert_allclose(grid.origin, [-0.25, -0.25])
        assert grid.width * grid.cell_size >= 1.5
        assert grid.height * grid.cell_size >= 1.5

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rasterize_coverage([], 0.1)
        with pytest.raises(ValueError):
            rasterize_coverage([np.zeros((3, 2))], 0.1)
        with pytest.raises(ValueError):
            rasterize_coverage([rect_quad(0, 0, 1, 1)], 0.0)

    def test_values_stay_within_unit_interval(self):
        rng = np.random.default_rng(71)
        quads = [
            rect_quad(*rng.uniform(-1, 1, 2), w=rng.uniform(1, 2), h=rng.uniform(1, 2),
                      angle=rng.uniform(0, np.pi))
            for _ in range(4)
        ]
        grid = rasterize_coverage(quads, 0.2)
        assert grid.values.min() >= 0.0
        assert grid.values.max() <= 1.0


class TestBlur:
    def test_kernel_normalized(self):
        for sigma in (0.5, 1.0, 2.0, 3.5):
            k = gaussian_kernel(sigma)
            radius = int(np.ceil(3 * sigma))
            assert k.shape == (2 * radius + 1, 2 * radius + 1)
            assert k.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(k, k.T)

    def test_zero_grid_stays_zero_but_grows(self):
        grid = CoverageGrid(np.zeros(2), 0.1, np.zeros((5, 5)))
        out = blur_coverage(grid, 2.0)
        assert np.all(out.values == 0.0)
        assert out.width == 5 + 2 * 6
        assert out.height == 5 + 2 * 6

    def test_single_cell_mass_preserved(self):
        values = np.zeros((7, 7))
        values[3, 3] = 1.0
        out = blur_coverage(CoverageGrid(np.zeros(2), 0.1, values), 1.5)
        assert out.values.sum() == pytest.approx(1.0, rel=1e-6)
        assert out.values.max() < 1.0

    def test_mass_preserved_on_random_grid(self):
        rng = np.random.default_rng(73)
        values = rng.uniform(0, 1, (12, 9))
        out = blur_coverage(CoverageGrid(np.zeros(2), 0.1, values), 2.0)
        assert out.values.sum() == pytest.approx(values.sum(), rel=1e-6)

    def test_symmetric_input_symmetric_output(self):
        values = np.zeros((9, 9))
        values[3:6, 3:6] = 1.0
        out = blur_coverage(CoverageGrid(np.zeros(2), 0.1, values), 1.0)
        np.testing.assert_allclose(out.values, out.values[::-1, :], atol=1e-12)
        np.testing.assert_allclose(out.values, out.values[:, ::-1], atol=1e-12)

    def test_origin_shifts_by_radius(self):
        grid = CoverageGrid(np.array([2.0, 3.0]), 0.5, np.zeros((4, 4)))
        out = blur_coverage(grid, 1.0)
        np.testing.assert_allclose(out.origin, [2.0 - 3 * 0.5, 3.0 - 3 * 0.5])

    def test_cell_centers_keep_world_positions(self):
        # the same world point carries the peak before and after blurring
        values = np.zeros((9, 9))
        values[4, 4] = 1.0
        grid = CoverageGrid(np.array([1.0, 1.0]), 0.2, values)
        out = blur_coverage(grid, 1.0)
        peak = out.cell_centers()[np.argmax(out.values.ravel())]
        np.testing.assert_allclose(peak, grid.cell_centers()[4 * 9 + 4], atol=1e-12)


class TestThresholdRegion:
    def test_inclusive_cut(self):
        values = np.array([[0.2, 0.5], [0.7, 0.9]])
        grid = CoverageGrid(np.zeros(2), 1.0, values)
        region = threshold_region(grid, 0.5)
        assert len(region) == 3

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(79)
        values = rng.uniform(0, 1, (10, 10))
        grid = CoverageGrid(np.zeros(2), 0.5, values)
        sizes = [len(threshold_region(grid, th)) for th in (0.1, 0.5, 0.95)]
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_region_area_tracks_square(self):
        grid = rasterize_coverage([rect_quad(0, 0, 1, 1)], 0.1)
        region = threshold_region(blur_coverage(grid, 2.0), 0.5)
        area = len(region) * 0.1 * 0.1
        assert abs(area - 1.0) <= 0.15

    def test_all_equal_grid_selects_everything(self):
        grid = CoverageGrid(np.zeros(2), 1.0, np.full((3, 4), 0.6))
        assert len(threshold_region(grid, 0.5)) == 12

    def test_empty_region_error(self):
        grid = CoverageGrid(np.zeros(2), 1.0, np.full((3, 3), 0.1))
        with pytest.raises(EmptyRegionError):
            threshold_region(grid, 0.9)

    def test_all_zero_grid_rejected(self):
        grid = CoverageGrid(np.zeros(2), 1.0, np.zeros((3, 3)))
        with pytest.raises(EmptyRegionError):
            threshold_region(grid, 0.5)

    def test_threshold_range_validated(self):
        grid = CoverageGrid(np.zeros(2), 1.0, np.full((2, 2), 0.5))
        for th in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                threshold_region(grid, th)


class TestMinRotatedRect:
    def test_axis_aligned_unit_square(self):
        rect = min_rotated_rect(rect_quad(0.5, 0.5, 1, 1))
        assert quad_area(rect) == pytest.approx(1.0, abs=1e-9)
        assert _signed_area(rect) > 0  # counter-clockwise

    def test_rotated_square_not_axis_aligned_box(self):
        pts = rect_quad(0, 0, 1, 1, angle=np.pi / 4)
        rect = min_rotated_rect(pts)
        assert quad_area(rect) == pytest.approx(1.0, abs=1e-9)
        assert quad_area(rect) == pytest.approx(sweep_min_rect_area(pts), abs=1e-3)

    def test_right_triangle_rect_area(self):
        tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        # frozen from the 0.1-degree rotation sweep oracle
        assert sweep_min_rect_area(tri) == pytest.approx(12.0, abs=1e-2)
        assert quad_area(min_rotated_rect(tri)) == pytest.approx(12.0, abs=1e-9)

    def test_contains_all_points(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            pts = rng.uniform(-5, 5, (int(rng.integers(3, 30)), 2))
            rect = min_rotated_rect(pts)
            # membership via the rect's own edge frame
            u = rect[1] - rect[0]
            v = rect[3] - rect[0]
            rel = pts - rect[0]
            su = rel @ u / (u @ u)
            sv = rel @ v / (v @ v)
            assert np.all(su >= -1e-9) and np.all(su <= 1 + 1e-9)
            assert np.all(sv >= -1e-9) and np.all(sv <= 1 + 1e-9)

    def test_never_beats_axis_aligned_box(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            pts = rng.uniform(-5, 5, (int(rng.integers(3, 20)), 2))
            rect = min_rotated_rect(pts)
            aabb = np.prod(pts.max(axis=0) - pts.min(axis=0))
            assert quad_area(rect) <= aabb + 1e-9

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            pts = rng.uniform(-4, 4, (int(rng.integers(3, 25)), 2))
            area = quad_area(min_rotated_rect(pts))
            oracle = sweep_min_rect_area(pts, step_deg=0.01)
            assert area <= oracle + 1e-9
            assert oracle - area <= 0.005 * oracle

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            min_rotated_rect([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            min_rotated_rect([(0, 0), (1, 1), (2, 2), (3, 3)])
        with pytest.raises(ValueError):
            min_rotated_rect([(0, 0), (0, 0), (0, 0)])


class TestConvexHull:
    def test_trimmed_hull_equals_untrimmed_random(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            # few distinct y values, so that rows hold several points
            rows = rng.uniform(-5, 5, int(rng.integers(1, n + 1)))
            pts = np.column_stack([rng.uniform(-5, 5, n), rng.choice(rows, n)])
            pts = np.vstack([pts, pts[: int(rng.integers(0, n + 1))]])
            assert np.array_equal(_convex_hull(pts), monotone_chain_hull(pts))

    def test_trimmed_hull_equals_untrimmed_grid_corners(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            cell = float(rng.choice([0.1, 0.25, 0.3]))
            origin = rng.uniform(-50, 50, 2)
            mask = rng.random((int(rng.integers(1, 30)), int(rng.integers(1, 30)))) < rng.uniform(0.05, 1)
            rows, cols = np.nonzero(mask)
            centers = origin + (np.column_stack([cols, rows]) + 0.5) * cell
            pts = _cell_corner_points(centers, cell)
            assert np.array_equal(_convex_hull(pts), monotone_chain_hull(pts))


class TestMergeQuads:
    def test_identical_squares_keep_shape(self, config):
        square = rect_quad(0.5, 0.5, 1, 1)
        members = [quad_element(f"q{k}", 0.5, 0.5, w=1, h=1) for k in range(5)]
        out = merge_quads(members, config)
        assert out.label == "ped_crossing"
        assert out.is_main
        assert quad_iou(out.points, square) >= 0.9

    def test_offset_squares_center_between(self, config):
        members = [
            quad_element("a", 0.0, 0.0, w=1, h=1),
            quad_element("b", 0.2, 0.0, w=1, h=1),
        ]
        out = merge_quads(members, config)
        np.testing.assert_allclose(out.points.mean(axis=0), [0.1, 0.0], atol=0.1)

    def test_threshold_sweep_monotone_area(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            center = rng.uniform(-2, 2, 2)
            members = [
                quad_element(
                    f"q{k}", *(center + rng.uniform(-0.2, 0.2, 2)),
                    w=rng.uniform(2, 3), h=rng.uniform(1.5, 2.5),
                    angle=rng.uniform(0, np.pi),
                )
                for k in range(4)
            ]
            areas = []
            for th in (0.1, 0.5, 0.95):
                out = merge_quads(members, MergeConfig(th_cov=th))
                areas.append(quad_area(out.points))
            assert areas[0] >= areas[1] - 1e-9
            assert areas[1] >= areas[2] - 1e-9

    def test_main_id_wins(self, config):
        members = [
            quad_element("zz", 0, 0, w=2, h=2),
            quad_element("aa", 0.1, 0, w=2, h=2, is_main=True),
        ]
        assert merge_quads(members, config).id == "aa"

    def test_smallest_id_without_main(self, config):
        members = [quad_element("b", 0, 0, w=2, h=2), quad_element("a", 0.1, 0, w=2, h=2)]
        assert merge_quads(members, config).id == "a"

    def test_chain_order_invariance(self, config):
        rng = np.random.default_rng(103)
        members = [
            quad_element(f"q{k}", *rng.uniform(-0.3, 0.3, 2), w=2.5, h=1.8,
                         angle=rng.uniform(0, 0.3))
            for k in range(4)
        ]
        a = merge_quads(members, config)
        b = merge_quads(members[::-1], config)
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)
        assert a.id == b.id

    def test_fallback_to_largest_quad(self):
        # far-apart squares: nothing can reach a 0.9 coverage cut
        members = [
            quad_element("small", 0, 0, w=1, h=1),
            quad_element("big", 30, 0, w=2, h=2),
        ]
        report = MergeReport()
        out = merge_quads(members, MergeConfig(th_cov=0.9), report)
        np.testing.assert_allclose(out.points, members[1].points)
        assert report.chains[0].fallback is True

    def test_no_fallback_flag_on_clean_merge(self, config):
        members = [quad_element("a", 0, 0, w=2, h=2), quad_element("b", 0.1, 0, w=2, h=2)]
        report = MergeReport()
        merge_quads(members, config, report)
        assert report.chains[0].fallback is False
        assert report.chains[0].kind == "quad"

    def test_crossings_smaller_than_a_cell_fall_back(self, config):
        # no cell center lies in either 1 cm quad, so the raster is all zero
        members = [quad_element("a", 0, 0, w=0.01, h=0.01),
                   quad_element("b", 0.002, 0, w=0.012, h=0.012)]
        report = MergeReport()
        out = merge_quads(members, config, report)
        np.testing.assert_array_equal(out.points, members[1].points)
        assert report.chains[0].fallback is True

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_valid_chain_gives_valid_crossing(self, data):
        log_size = st.floats(-3.0, 1.0)
        size = 10.0 ** data.draw(log_size)
        tilt = data.draw(st.floats(0.0, np.pi))
        center = np.array([data.draw(st.floats(-1e5, 1e5)) for _ in range(2)])
        members = []
        for k in range(data.draw(st.integers(2, 5))):
            jitter = np.array([data.draw(st.floats(-1.0, 1.0)) for _ in range(2)]) * size
            members.append(quad_element(
                f"q{k}", *(center + jitter),
                w=10.0 ** data.draw(log_size), h=10.0 ** data.draw(log_size),
                angle=tilt + data.draw(st.floats(-0.3, 0.3)),
            ))
        config = MergeConfig(cell_size=data.draw(st.floats(0.05, 2.0)))
        report = MergeReport()
        out = merge_quads(members, config, report)
        assert out.label == "ped_crossing" and out.is_main and out.points.shape == (4, 2)
        assert out.id == "q0"
        # every cell that can carry coverage lies in the members' box grown by
        # the apron, the blur radius and the rounded-up last cell; each
        # corner of a rectangle fitted around such cells lies within one
        # diameter of that box
        stacked = np.vstack([m.points for m in members])
        reach = (math.ceil(3.0 * config.blur_sigma_cells) + 2) * config.cell_size
        lo, hi = stacked.min(axis=0) - reach, stacked.max(axis=0) + reach
        diameter = float(np.hypot(*(hi - lo)))
        assert np.all(out.points >= lo - diameter) and np.all(out.points <= hi + diameter)
        if report.chains[0].fallback:
            largest = max(members, key=lambda m: (quad_area(m.points), m.id))
            np.testing.assert_array_equal(out.points, largest.points)

    def test_wrong_label_rejected(self, config):
        from helpers import line_element

        members = [quad_element("a", 0, 0), line_element("b", "divider", (0, 0), (1, 0))]
        with pytest.raises(ValueError, match="'b'"):
            merge_quads(members, config)

    def test_single_member_rejected(self, config):
        with pytest.raises(ValueError):
            merge_quads([quad_element("a", 0, 0)], config)

    def test_output_contains_region_centers(self, config):
        members = [quad_element("a", 0, 0, w=2, h=1.5), quad_element("b", 0.15, 0.1, w=2, h=1.5)]
        out = merge_quads(members, config)
        grid = blur_coverage(
            rasterize_coverage([m.points for m in members], config.cell_size),
            config.blur_sigma_cells,
        )
        centers = threshold_region(grid, config.th_cov)
        u = out.points[1] - out.points[0]
        v = out.points[3] - out.points[0]
        rel = centers - out.points[0]
        su = rel @ u / (u @ u)
        sv = rel @ v / (v @ v)
        assert np.all(su >= -1e-9) and np.all(su <= 1 + 1e-9)
        assert np.all(sv >= -1e-9) and np.all(sv <= 1 + 1e-9)
