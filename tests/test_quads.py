"""Coverage-grid pipeline for crossing quads and the rotated rectangle fit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d

from polymerge import (
    MapElement,
    MergeConfig,
    MergeReport,
    merge_quads,
    min_rotated_rect,
    rasterize_coverage,
)
from polymerge import quads
from polymerge.quads import CoverageGrid, EmptyRegionError, blur_coverage, threshold_region
from polymerge.quads import (
    _blurred_mask,
    _cell_corner_points,
    _convex_hull,
    _separable_blur,
    gaussian_kernel,
    quad_area,
)

from helpers import quad_element, rect_quad
from oracles import (
    monotone_chain_hull,
    quad_iou,
    reference_merge_quads,
    reference_min_rotated_rect,
    reference_rasterize_coverage,
    reference_region_mask,
    sweep_min_rect_area,
)


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
def _tilted_quads(draw):
    """1-3 tilted rectangles, perhaps with their corners moved, up to 1e6 m
    from the origin, and a cell size of a 3rd to a 12th of their size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1e-3, 0.01, 1.0, 10.0]))
    offset = draw(st.sampled_from([0.0, 1e3, 1e5, 1e6]))
    center = offset * rng.choice([-1.0, 1.0], 2)
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        quad = rect_quad(*(center + rng.uniform(-0.3, 0.3, 2) * size),
                         w=size * rng.uniform(0.2, 1.0), h=size * rng.uniform(0.2, 1.0),
                         angle=draw(st.floats(0.0, 2 * np.pi)))
        if draw(st.booleans()):
            quad = quad + rng.uniform(-0.2, 0.2, (4, 2)) * size
        shapes.append(quad)
    return shapes, size / draw(st.sampled_from([3, 7, 12]))


@st.composite
def _lattice_quads(draw):
    """1-3 quads with corners on the half-cell lattice of their raster, so
    on cell centers and cell borders, with horizontal and vertical edges,
    up to 1e6 m from the origin; one corner may then move by up to 2e-9."""
    cell = draw(st.sampled_from([0.125, 0.25, 0.5]))
    offset = draw(st.sampled_from([0.0, 1e3, 1e6])) * draw(st.sampled_from([-1.0, 1.0]))
    half_steps = st.integers(1, 8)
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        cx, cy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        shapes.append(np.array([
            [offset + (cx + sx * draw(half_steps)) * cell / 2,
             offset + (cy + sy * draw(half_steps)) * cell / 2]
            for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))
        ]))
    nudge = draw(st.sampled_from([0.0, 0.0, 5e-10, -1e-9, 1e-9, 2e-9]))
    shapes[0][draw(st.integers(0, 3)), draw(st.integers(0, 1))] += nudge
    return shapes, cell


def _side_by_side_squares(size, offset):
    """Two squares sharing an edge: every covered center has coverage 0.5,
    so the blurred interior lands on 0.5 up to rounding."""
    return [quad_element("a", offset, offset, w=size, h=size),
            quad_element("b", offset + size, offset, w=size, h=size)]


class TestRasterize:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_tilted_quads(), _lattice_quads()))
    def test_matches_per_edge_reference(self, case):
        shapes, cell = case
        grid = rasterize_coverage(shapes, cell)
        origin, values = reference_rasterize_coverage(shapes, cell)
        assert grid.origin.tobytes() == origin.tobytes()
        assert grid.values.tobytes() == values.tobytes()

    def test_edges_and_corners_are_covered(self):
        # centers lie at -0.25 + 0.5 k: on the right and top edges and the corner
        square = np.array([(0.0, 0.0), (1.25, 0.0), (1.25, 1.25), (0.0, 1.25)])
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = 1.0
        np.testing.assert_array_equal(rasterize_coverage([square], 0.5).values, expected)
        # 2e-9 inside, the right column and the top row are no longer on an edge
        shrunk = square - [(0.0, 0.0), (2e-9, 0.0), (2e-9, 2e-9), (0.0, 2e-9)]
        expected[1:4, 3] = expected[3, 1:4] = 0.0
        np.testing.assert_array_equal(rasterize_coverage([shrunk], 0.5).values, expected)

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

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_sizes_must_be_finite_and_positive(self, bad):
        grid = CoverageGrid(np.zeros(2), 0.1, np.ones((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cell_size must be finite and positive"):
                CoverageGrid(np.zeros(2), bad, np.zeros((2, 2)))
            with pytest.raises(ValueError, match="cell_size must be finite and positive"):
                rasterize_coverage([rect_quad(0, 0, 1, 1)], bad)
            with pytest.raises(ValueError, match="sigma_cells must be finite and positive"):
                blur_coverage(grid, bad)
            with pytest.raises(ValueError, match="sigma_cells must be finite and positive"):
                gaussian_kernel(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_quad_coordinates_must_be_finite(self, bad):
        quad = rect_quad(0, 0, 1, 1)
        quad[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="quad coordinates must be finite"):
                rasterize_coverage([rect_quad(2, 0, 1, 1), quad], 0.1)

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


    @pytest.mark.parametrize("sigma", [0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 3.3, 4.0])
    def test_separable_estimate_within_margin(self, sigma):
        # 1000x inside the band in which the threshold cut rechecks exactly
        rng = np.random.default_rng(int(sigma * 10))
        kernel = gaussian_kernel(sigma)
        for members in range(1, 9):
            values = rng.integers(0, members + 1, (24, 31)) / members
            exact = convolve2d(values, kernel, mode="full")
            assert np.abs(_separable_blur(values, kernel) - exact).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mask_matches_full_convolution(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        members = data.draw(st.integers(1, 8))
        height, width = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
        values = rng.integers(0, members + 1, (height, width)) / members
        if data.draw(st.booleans()):
            # a constant half coverage blurs to 0.5 up to rounding
            values = np.full((height, width), 0.5)
        sigma = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.3, 4.0]))
        # 0.5 and its float neighbours, which the blur of 0.5 can land on
        th = data.draw(st.sampled_from([0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                                        1.0 / members, 0.3, 0.9]))
        assume(0.0 < th < 1.0)
        grid = CoverageGrid(rng.uniform(-1e6, 1e6, 2), 0.1, values)
        mask, origin = _blurred_mask(grid, sigma, th)
        assert mask.tobytes() == reference_region_mask(values, sigma, th).tobytes()
        assert origin.tobytes() == blur_coverage(grid, sigma).origin.tobytes()


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


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_calipers(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        offset = data.draw(st.sampled_from([0.0, 1e3, 1e6]))
        if data.draw(st.booleans()):
            pts = rng.uniform(-5, 5, (data.draw(st.integers(3, 40)), 2))
        else:
            # corners of grid cells: collinear runs and tied areas
            cell = float(rng.choice([0.1, 0.25]))
            mask = rng.random((data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)))) < 0.6
            rows, cols = np.nonzero(mask)
            assume(len(rows))
            pts = _cell_corner_points((np.column_stack([cols, rows]) + 0.5) * cell, cell)
        pts = pts + offset
        assume(len(monotone_chain_hull(pts)) >= 3)
        expected = reference_min_rotated_rect(pts)
        if expected is None:
            with pytest.raises(ValueError, match="hull edge"):
                min_rotated_rect(pts)
        else:
            assert min_rotated_rect(pts).tobytes() == expected.tobytes()


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

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_whole_raster_pipeline(self, data):
        kind = data.draw(st.sampled_from(["tilted", "lattice", "side by side"]))
        if kind == "side by side":
            cell = 0.1
            members = _side_by_side_squares(data.draw(st.sampled_from([1.0, 2.0, 3.0])),
                                            data.draw(st.sampled_from([0.0, 1e3, 1e6])))
        else:
            shapes, cell = data.draw(_tilted_quads() if kind == "tilted" else _lattice_quads())
            members = []
            for k, shape in enumerate(shapes):
                try:
                    members.append(MapElement(f"q{k}", "ped_crossing", shape))
                except ValueError:  # moved corners may make the quad invalid
                    pass
            assume(len(members) >= 2)
        config = MergeConfig(cell_size=cell, th_cov=data.draw(st.sampled_from([0.3, 0.5, 0.9])),
                             blur_sigma_cells=data.draw(st.sampled_from([0.5, 2.0])))
        out = merge_quads(members, config)
        assert out.points.tobytes() == reference_merge_quads(members, config).tobytes()

    @pytest.mark.parametrize("th_cov", [0.5, np.nextafter(0.5, 1.0)])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_exact_recheck_decides_cells_on_the_threshold(self, monkeypatch, offset, th_cov):
        # the interior blurs to 0.5 + 1.1e-16 under convolve2d but to 0.5
        # under the separable estimate, so only the recheck keeps it above
        # the upper threshold
        config = MergeConfig(th_cov=th_cov)
        windows = []

        def counting(a, b, mode="full"):
            windows.append(mode)
            return convolve2d(a, b, mode=mode)

        monkeypatch.setattr(quads, "convolve2d", counting)
        members = _side_by_side_squares(3.0, offset)
        report = MergeReport()
        out = merge_quads(members, config, report)
        assert windows and set(windows) == {"valid"}
        assert report.chains[0].fallback is False
        assert out.points.tobytes() == reference_merge_quads(members, config).tobytes()

    def test_work_stays_near_the_region_edge(self, config, monkeypatch):
        members = [quad_element("a", 0.0, 0.0, w=4, h=3, angle=0.4),
                   quad_element("b", 0.15, -0.1, w=4, h=3, angle=0.45)]
        seen = {"foot points": 0, "windows": 0}
        foot_points, conv = quads._foot_points, quads.convolve2d

        def counting_foot(points, poly):
            seen["foot points"] += len(points)
            return foot_points(points, poly)

        def counting_conv(a, b, mode="full"):
            seen["windows"] += 1
            return conv(a, b, mode=mode)

        monkeypatch.setattr(quads, "_foot_points", counting_foot)
        monkeypatch.setattr(quads, "convolve2d", counting_conv)
        cells = rasterize_coverage([m.points for m in members], config.cell_size).values.size
        out = merge_quads(members, config)
        assert cells > 2000
        # the whole-raster pipeline tests ~2 x cells points and convolves
        # every cell with the full kernel
        assert seen["foot points"] <= 20
        assert seen["windows"] <= 20
        assert out.points.tobytes() == reference_merge_quads(members, config).tobytes()

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
