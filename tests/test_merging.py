"""Point folding scenarios, chain merging and the full map merge."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polymerge import (
    MapElement,
    MergeConfig,
    MergeReport,
    VectorMap,
    discrete_frechet,
    merge_chain,
    merge_maps,
    merge_polyline,
    project_point_to_polyline,
    save_map,
    smooth,
)

from polymerge import merging
from polymerge.geometry import _segment_foot

from helpers import line_element, quad_element, random_polyline
from oracles import reference_merge_polyline, reference_orient, reference_smooth


class TestMergePoint:
    def test_midpoint_insertion_inside_segment(self):
        out = merge_polyline((1, 1), [(0, 0), (2, 0)])
        np.testing.assert_allclose(out, [[0, 0], [1, 0.5], [2, 0]])

    def test_vertex_hit_replaces_with_midpoint(self):
        out = merge_polyline((1, 0.6), [(0, 0), (1, 0), (2, 0)])
        np.testing.assert_allclose(out, [[0, 0], [1, 0.3], [2, 0]])

    def test_past_end_appends_foot_point(self):
        out = merge_polyline((3, 0.4), [(0, 0), (2, 0)])
        np.testing.assert_allclose(out, [[0, 0], [2, 0], [3, 0]])

    def test_before_start_prepends_foot_point(self):
        out = merge_polyline((-1, 0.4), [(0, 0), (2, 0)])
        np.testing.assert_allclose(out, [[-1, 0], [0, 0], [2, 0]])

    def test_endpoint_hit_is_still_a_replacement(self):
        # clamped onto the first vertex but not beyond it: midpoint replace
        out = merge_polyline((0, 0.4), [(0, 0), (2, 0)])
        np.testing.assert_allclose(out, [[0, 0.2], [2, 0]])

    def test_inserted_vertex_is_midpoint_of_source_and_foot(self):
        rng = np.random.default_rng(53)
        hits = 0
        for _ in range(200):
            base = random_polyline(rng, n_min=3, n_max=6, scale=5.0)
            k = int(rng.integers(0, len(base) - 1))
            along = base[k] + rng.uniform(0.1, 0.9) * (base[k + 1] - base[k])
            a = along + rng.uniform(-0.5, 0.5, 2)
            out = merge_polyline(a, base)
            if len(out) != len(base) + 1:
                continue  # vertex hit replaced in place
            fresh = [
                i for i, v in enumerate(out)
                if not any(np.array_equal(v, b) for b in base)
            ]
            if fresh != [0] and fresh != [len(out) - 1]:
                pr = project_point_to_polyline(a, base)
                np.testing.assert_allclose(
                    out[fresh[0]], 0.5 * (np.asarray(a) + pr.point), atol=1e-9
                )
                hits += 1
        assert hits >= 50

    def test_base_vertex_order_preserved(self):
        base = [(0.0, 0), (1, 0), (2, 1), (3, 1)]
        out = merge_polyline((1.5, 0.2), base)
        kept = [v for v in out.tolist() if v in [list(map(float, b)) for b in base]]
        assert kept == [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]]

    def test_short_base_rejected(self):
        with pytest.raises(ValueError):
            merge_polyline((0, 0), [(1, 1)])


class TestMergePolyline:
    def test_identical_source_is_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            p = random_polyline(rng, n_min=2, n_max=8, scale=8.0)
            np.testing.assert_array_equal(merge_polyline(p, p), p)

    def test_parallel_offset_fold_frozen(self):
        out = merge_polyline([(0, 0.4), (2, 0.4)], [(0, 0), (2, 0)])
        expect = np.array([[0.0, 0.2], [200.0 / 101.0, 102.0 / 505.0], [2.0, 0.0]])
        np.testing.assert_allclose(out, expect, atol=1e-9)

    def test_collinear_extension_grows_base(self):
        out = merge_polyline([(3, 0), (4, 0)], [(0, 0), (2, 0)])
        np.testing.assert_allclose(out, [[0, 0], [2, 0], [3, 0], [4, 0]])

    def test_scenario_counts_collected(self):
        counts = {}
        merge_polyline([(1, 1), (3, 0.4)], [(0, 0), (2, 0)], scenario_counts=counts)
        assert counts == {1: 1, 4: 1}


class TestSmooth:
    def test_straight_line_unchanged(self):
        pts = np.column_stack([np.linspace(0, 10, 9), np.linspace(0, 5, 9)])
        np.testing.assert_allclose(smooth(pts, 5), pts, atol=1e-12)

    def test_zigzag_window3(self):
        zig = np.array([[0.0, 0], [1, 1], [2, 0], [3, 1], [4, 0]])
        out = smooth(zig, 3)
        expect = np.array([[0, 0], [1, 1 / 3], [2, 2 / 3], [3, 1 / 3], [4, 0]])
        np.testing.assert_allclose(out, expect, atol=1e-12)
        assert np.all(np.abs(out[1:-1, 1]) < 1.0)

    def test_endpoints_fixed_for_large_window(self):
        zig = np.array([[0.0, 0], [1, 2], [2, -1], [3, 2], [4, 0]])
        out = smooth(zig, 9)
        np.testing.assert_array_equal(out[0], zig[0])
        np.testing.assert_array_equal(out[-1], zig[-1])
        assert len(out) == len(zig)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 80),
        st.sampled_from([3, 5, 7, 9]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e3, 1e6]),
    )
    def test_matches_per_vertex_mean_exactly(self, n, window, seed, offset):
        pts = np.random.default_rng(seed).normal(0.0, 5.0, (n, 2)) + offset
        np.testing.assert_array_equal(smooth(pts, window), reference_smooth(pts, window))

    def test_window_validation(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0]])
        with pytest.raises(ValueError):
            smooth(pts, 4)
        with pytest.raises(ValueError):
            smooth(pts, 1)


class TestMergeConfig:
    def test_defaults(self, config):
        assert config.th_prox == 1.0
        assert config.th_cov == 0.5
        assert config.cell_size == 0.1
        assert config.blur_sigma_cells == 2.0
        assert config.smoothing_enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"th_prox": 0.0},
            {"th_cov": 0.0},
            {"th_cov": 1.0},
            {"cell_size": -0.1},
            {"blur_sigma_cells": 0.0},
            {"th_prox": math.nan},
            {"th_prox": math.inf},
            {"th_cov": math.nan},
            {"cell_size": math.nan},
            {"cell_size": math.inf},
            {"blur_sigma_cells": math.inf},
            {"blur_sigma_cells": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MergeConfig(**kwargs)


_lat = st.integers(-4, 4).map(float)


def _lattice_line(min_size=2, max_size=6):
    return st.lists(st.tuples(_lat, _lat), min_size=min_size, max_size=max_size).filter(
        lambda vs: len(set(vs)) > 1
    )


@st.composite
def _fold_cases(draw):
    """(source, base) for the fold: lines on an integer lattice (exact
    distance ties), bases with repeated vertices (degenerate segments),
    sources that run past both ends of the base and noisy copies of it,
    shifted by 0 or 1e5 m or scaled to 1e148 .. 1e150, where the fold's
    margin is widest and squares of differences are still finite; map
    files hold coordinates within 1e16 m."""
    base = draw(st.lists(st.tuples(_lat, _lat), min_size=2, max_size=8))
    kind = draw(st.sampled_from(["lattice", "repeated", "past_ends", "noisy"]))
    if kind == "repeated":
        base = [v for v in base for _ in range(draw(st.integers(1, 3)))]
    source = draw(st.lists(st.tuples(_lat, _lat), min_size=0, max_size=6))
    if kind == "past_ends":
        (x0, y0), (x1, y1), (xm, ym), (xn, yn) = base[0], base[1], base[-2], base[-1]
        before = [(x0 + j * (x0 - x1), y0 + j * (y0 - y1)) for j in range(3, 0, -1)]
        after = [(xn + j * (xn - xm), yn + j * (yn - ym)) for j in range(1, 4)]
        source = before + source + after
    base, source = np.array(base), np.array(source).reshape(-1, 2)
    if kind == "noisy":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        source = np.concatenate([source, base + rng.normal(0.0, 0.3, base.shape)])
    if draw(st.booleans()):
        source = source[::-1]
    scale, offset = draw(st.sampled_from([(1.0, 0.0), (1.0, 1e5), (1.0, -1e5), (1e148, 0.0),
                                          (1e149, 0.0), (1e150, 0.0)]))
    return source * scale + offset, base * scale + offset


# The nearest segment is the untouched first or last one, and the kernel's
# clamped t is exactly 0.0 or 1.0: only the unclamped parameter tells a
# vertex hit (raw 0 or 1, scenario 2) from an extension (raw < 0, scenario
# 3; raw > 1, scenario 4).
_STRAIGHT_BASE = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
_CLAMPED_FEET = [
    np.array([[0.0, 0.5]]),  # raw == 0 on the first segment
    np.array([[2.0, 0.5]]),  # raw == 1 on the last segment
    np.array([[-1.0, 0.5]]),  # raw < 0 on the first segment
    np.array([[3.0, 0.5]]),  # raw > 1 on the last segment
    np.array([[3.0, 0.5], [-1.0, -0.5], [2.0, 0.5], [0.0, 0.5]]),
]


class TestFold:
    @settings(max_examples=600, deadline=None)
    @given(_fold_cases(), st.sampled_from([merging._BLOCK_CELLS, 1, 7]))
    @example(case=(_CLAMPED_FEET[0], _STRAIGHT_BASE), block_cells=merging._BLOCK_CELLS)
    @example(case=(_CLAMPED_FEET[1], _STRAIGHT_BASE), block_cells=merging._BLOCK_CELLS)
    @example(case=(_CLAMPED_FEET[2], _STRAIGHT_BASE), block_cells=merging._BLOCK_CELLS)
    @example(case=(_CLAMPED_FEET[3], _STRAIGHT_BASE), block_cells=merging._BLOCK_CELLS)
    @example(case=(_CLAMPED_FEET[4], _STRAIGHT_BASE), block_cells=merging._BLOCK_CELLS)
    def test_matches_per_vertex_fold_bitwise(self, case, block_cells):
        source, base = case
        got_counts, want_counts = {}, {}
        with mock.patch.object(merging, "_BLOCK_CELLS", block_cells):
            got = merge_polyline(source, base, got_counts)
        want = reference_merge_polyline(source, base, want_counts)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_counts == want_counts

    def test_noisy_copy_reprojects_few_segments(self, monkeypatch):
        rng = np.random.default_rng(5)
        base = np.column_stack([np.linspace(0.0, 150.0, 201), np.zeros(201)])
        source = base + rng.normal(0.0, 0.2, base.shape)
        calls = []

        def counting(*args):
            calls.append(args)
            return _segment_foot(*args)

        monkeypatch.setattr(merging, "_segment_foot", counting)
        got = merge_polyline(source, base)
        assert got.tobytes() == reference_merge_polyline(source, base).tobytes()
        # the per-vertex fold projects onto ~300 segments per vertex
        assert len(calls) <= 5 * len(source)


@st.composite
def _orientation_chains(draw):
    """A divider chain that stresses the member orientation rule: exact and
    reversed copies of the first member, palindromes (equal distance both
    ways), 2-vertex members, noisy copies and free lines on an integer
    lattice (many distance ties), all shifted by up to 1e5 m, or scaled
    to near 1e150, where squares of differences start to overflow, to
    1e155 and 1e300, where they do, or to 1e-150."""
    first = np.array(draw(_lattice_line()))
    members = [first]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["reversed", "copy", "palindrome", "two", "lattice", "noisy"]))
        if kind == "reversed":
            pts = first[::-1]
        elif kind == "copy":
            pts = first
        elif kind == "palindrome":
            half = draw(_lattice_line(max_size=4))
            pts = np.array(half + half[-2::-1])
        elif kind == "two":
            pts = np.array(draw(_lattice_line(max_size=2)))
        elif kind == "lattice":
            pts = np.array(draw(_lattice_line()))
        else:
            noise = np.random.default_rng(draw(st.integers(0, 2**16))).normal(0.0, 0.2, first.shape)
            pts = first + noise
        members.append(pts)
    scale, offset = draw(st.sampled_from([(1.0, 0.0), (1.0, 1e5), (1.0, -1e5), (1e148, 0.0),
                                          (1e150, 0.0), (1e155, 0.0), (1e300, 0.0), (1e-150, 0.0)]))
    main = draw(st.integers(-1, len(members) - 1))
    with np.errstate(over="ignore"):
        return [MapElement(f"m{k}", "divider", pts * scale + offset * np.array([1.0, 0.5]),
                           is_main=(k == main))
                for k, pts in enumerate(members)]


# smoothing averages both interior vertices onto the shared start and end
_COLLAPSING_PAIR = [
    MapElement("m0", "divider", np.array([[1.0, 2], [0, 0], [2, 4], [1, 2]]), is_main=True),
    MapElement("m1", "divider", np.array([[1.0, 2], [2, 4], [0, 0], [1, 2]])),
]

# the greedy coupling must test the first pair: the rest of it stays within
# the reversed member's end-pair bound 1, the first pair is sqrt(2) apart,
# and the reversed member is the closer one
_START_PAIR_ABOVE_BOUND = [
    MapElement("m0", "divider", np.array([[1.0, 0], [0, 0]]), is_main=True),
    MapElement("m1", "divider", np.array([[0.0, 1], [0, 0]])),
]


# at 1e155 the fold overflows to NaN and the merge raises, so only the
# orientation rule itself is compared on this chain
_OVERFLOWING_CHAIN = [
    MapElement("m0", "divider", np.array([[0.0, 1e155], [1e155, 1e155]]), is_main=True),
    MapElement("m1", "divider", np.array([[2e155, 3e155], [-3e155, 0.0]])),
    MapElement("m2", "divider", np.array([[1e155, 1e155], [0.0, 1e155]])),
    MapElement("m3", "divider", np.array([[1e155, 1e155], [0.0, 1e155]])),
]


class TestOrientation:
    @settings(max_examples=400, deadline=None)
    @given(_orientation_chains(), st.booleans())
    @example(_COLLAPSING_PAIR, True)
    @example(_START_PAIR_ABOVE_BOUND, False)
    @example(_OVERFLOWING_CHAIN, False)
    def test_matches_two_dp_rule_bitwise(self, chain, smoothing):
        # the rule alone, at every scale: each member against each other one
        with np.errstate(over="ignore", invalid="ignore"):
            for src, base in itertools.permutations([el.points for el in chain], 2):
                assert merging._orient(src, base).tobytes() == reference_orient(src, base).tobytes()
        # the rule inside the fold, on chains up to the 1e150 scale (lattice
        # coordinates reach 4), as in the fold property; the fold overflows
        # on the 1e155 and 1e300 chains
        if max(float(np.abs(el.points).max()) for el in chain) > 1e151:
            return
        config = MergeConfig(smoothing_enabled=smoothing)
        got_report, want_report = MergeReport(), MergeReport()
        got = merge_chain(chain, config, got_report)
        with mock.patch.object(merging, "_orient", reference_orient):
            want = merge_chain(chain, config, want_report)
        assert got.id == want.id
        assert got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()
        assert got_report.to_dict() == want_report.to_dict()

    def test_noisy_copy_of_straight_line_needs_no_dp(self, config, monkeypatch):
        rng = np.random.default_rng(11)
        base = line_element("m", "divider", (0, 0), (20, 0), n=27, is_main=True)
        noisy = base.points + rng.normal(0.0, 0.2, base.points.shape)
        calls = []

        def counting(p, q):
            calls.append(len(p) * len(q))
            return discrete_frechet(p, q)

        monkeypatch.setattr(merging, "discrete_frechet", counting)
        fwd = merge_chain([base, MapElement("s", "divider", noisy)], config)
        assert calls == []
        # a reversed copy is not settled by the bounds, and the DPs reverse it
        rev = merge_chain([base, MapElement("s", "divider", noisy[::-1])], config)
        assert len(calls) == 2
        assert rev.points.tobytes() == fwd.points.tobytes()


class TestMergeChain:
    def test_main_element_is_base(self, config):
        main = line_element("m", "divider", (0, 0), (2, 0), n=3, is_main=True)
        sec = line_element("s", "divider", (0, 0.4), (2, 0.4), n=3)
        out = merge_chain([sec, main], config)
        assert out.id == "m"
        assert out.is_main
        np.testing.assert_array_equal(
            out.points, merge_polyline(sec.points, main.points)
        )

    def test_identical_secondaries_merge_to_same_geometry(self, config):
        a = line_element("a", "boundary", (0, 0), (5, 1), n=4)
        b = line_element("b", "boundary", (0, 0), (5, 1), n=4)
        out = merge_chain([a, b], config)
        np.testing.assert_allclose(out.points, a.points, atol=1e-12)
        assert out.id == "a"

    def test_longest_is_base_without_main(self, config):
        short = line_element("s", "divider", (0, 0.3), (3, 0.3), n=3)
        long = line_element("l", "divider", (0, 0), (6, 0), n=4)
        out = merge_chain([short, long], config)
        assert out.id == "l"

    def test_three_parallel_offsets(self, config):
        chain = [
            line_element("a", "divider", (0, 0.0), (2, 0.0), n=3),
            line_element("b", "divider", (0, 0.2), (2, 0.2), n=3),
            line_element("c", "divider", (0, 0.4), (2, 0.4), n=3),
        ]
        out = merge_chain(chain, config)
        ys = out.points[:, 1]
        # stays inside the offset band and gets pulled off the base line
        assert ys.min() >= -1e-12
        assert ys.max() <= 0.4 + 1e-12
        assert 0.05 <= ys.mean() <= 0.35
        assert len(out.points) >= 3

    def test_reversed_source_aligned_before_merge(self, config):
        base = line_element("m", "divider", (0, 0), (4, 0), n=5, is_main=True)
        fwd = line_element("s", "divider", (0, 0.3), (4, 0.3), n=5)
        rev = MapElement("s", "divider", fwd.points[::-1])
        out_fwd = merge_chain([base, fwd], config)
        out_rev = merge_chain([base, rev], config)
        np.testing.assert_allclose(out_rev.points, out_fwd.points, atol=1e-12)

    def test_mixed_labels_rejected(self, config):
        a = line_element("a", "divider", (0, 0), (1, 0))
        b = line_element("b", "boundary", (0, 0.1), (1, 0.1))
        with pytest.raises(ValueError, match="label"):
            merge_chain([a, b], config)

    def test_crossings_rejected(self, config):
        with pytest.raises(ValueError):
            merge_chain([quad_element("a", 0, 0), quad_element("b", 0.1, 0)], config)

    def test_single_member_rejected(self, config):
        with pytest.raises(ValueError):
            merge_chain([line_element("a", "divider", (0, 0), (1, 0))], config)

    def test_smoothing_applied_when_enabled(self):
        base = line_element("m", "divider", (0, 0), (4, 0), n=9, is_main=True)
        zig = np.array(base.points)
        zig[1::2, 1] += 0.6
        sec = MapElement("s", "divider", zig)
        rough = merge_chain([base, sec], MergeConfig())
        smoothed = merge_chain([base, sec], MergeConfig(smoothing_enabled=True))
        assert len(rough.points) == len(smoothed.points)
        # the moving average damps the zigzag amplitude
        assert smoothed.points[1:-1, 1].std() < rough.points[1:-1, 1].std()

    def test_report_records_chain(self, config):
        report = MergeReport()
        main = line_element("m", "divider", (0, 0), (2, 0), n=3, is_main=True)
        sec = line_element("s", "divider", (0, 0.4), (2, 0.4), n=3)
        merge_chain([main, sec], config, report)
        assert len(report.chains) == 1
        rec = report.chains[0]
        assert rec.base_id == "m" and rec.kind == "polyline"
        assert rec.members == ["m", "s"]
        assert sum(rec.scenarios.values()) == 3


class TestMergeMaps:
    def test_empty_secondary_keeps_main_geometry(self, small_world_map, config):
        out = merge_maps(small_world_map, [VectorMap((), "world")], config)
        assert len(out) == 3
        for el in small_world_map.elements:
            merged = out.element(f"0:{el.id}")
            np.testing.assert_array_equal(merged.points, el.points)
            assert merged.is_main

    def test_zero_secondaries_identity(self, small_world_map, config):
        out = merge_maps(small_world_map, [], config)
        assert len(out) == len(small_world_map)
        assert all(el.is_main for el in out.elements)

    def test_bootstrap_single_secondary(self, small_world_map, config):
        out = merge_maps(VectorMap((), "world"), [small_world_map], config)
        assert len(out) == 3
        assert all(el.is_main for el in out.elements)
        np.testing.assert_array_equal(
            out.element("1:b1").points, small_world_map.element("b1").points
        )

    def test_pair_merges_into_one(self, config):
        main = VectorMap(
            (line_element("m", "divider", (0, 0), (4, 0), n=3, is_main=True),), "world"
        )
        sec = VectorMap((line_element("s", "divider", (0, 0.4), (4, 0.4), n=3),), "world")
        report = MergeReport()
        out = merge_maps(main, [sec], config, report)
        assert len(out) == 1
        assert out.elements[0].id == "0:m"
        assert report.passes == 1
        assert [c.members for c in report.chains] == [["0:m", "1:s"]]

    def test_batch_and_online_agree_on_count(self, config):
        main = VectorMap(
            (line_element("m", "divider", (0, 0), (4, 0), n=5, is_main=True),), "world"
        )
        s1 = VectorMap((line_element("s", "divider", (0, 0.3), (4, 0.3), n=5),), "world")
        s2 = VectorMap((line_element("s", "divider", (0, 0.6), (4, 0.6), n=5),), "world")
        batch = merge_maps(main, [s1, s2], config)
        step1 = merge_maps(main, [s1], config)
        online = merge_maps(step1, [s2], config)
        assert len(batch) == len(online) == 1
        assert (
            discrete_frechet(batch.elements[0].points, online.elements[0].points) < 0.2
        )

    def test_crossings_smaller_than_a_cell_fall_back(self, config):
        # no raster cell center lies in a 1 cm crossing: the largest input passes
        main = VectorMap((quad_element("m", 0, 0, w=0.01, h=0.01, is_main=True),), "world")
        sec = VectorMap((quad_element("s", 0.002, 0, w=0.012, h=0.012),), "world")
        report = MergeReport()
        out = merge_maps(main, [sec], config, report)
        assert [el.id for el in out.elements] == ["0:m"]
        np.testing.assert_array_equal(out.elements[0].points, sec.elements[0].points)
        assert [(c.kind, c.fallback) for c in report.chains] == [("quad", True)]

    def test_isolated_secondary_reported_and_kept(self, config):
        main = VectorMap(
            (line_element("m", "divider", (0, 0), (4, 0), is_main=True),), "world"
        )
        far = VectorMap((line_element("f", "divider", (0, 50), (4, 50)),), "world")
        report = MergeReport()
        out = merge_maps(main, [far], config, report)
        assert len(out) == 2
        assert out.element("1:f").is_main
        assert report.isolated == ["1:f"]

    def test_fixpoint_no_candidates_remain(self, config):
        rng = np.random.default_rng(61)
        from helpers import random_world_map
        from polymerge import polyline_merge_check

        for _ in range(10):
            vmap = random_world_map(rng, 12, scale=8.0)
            out = merge_maps(VectorMap((), "world"), [vmap], config)
            els = out.elements
            leftovers = [
                (a.id, b.id)
                for i, a in enumerate(els)
                for b in els[i + 1 :]
                if polyline_merge_check(a, b, config.th_prox)
            ]
            assert leftovers == []

    def test_deterministic_output_bytes(self, tmp_path, config):
        rng = np.random.default_rng(67)
        from helpers import random_world_map

        sec = random_world_map(rng, 15, scale=10.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_map(merge_maps(VectorMap((), "world"), [sec], config), p1)
        save_map(merge_maps(VectorMap((), "world"), [sec], config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_serializes_to_json(self, config):
        main = VectorMap(
            (line_element("m", "divider", (0, 0), (4, 0), n=3, is_main=True),), "world"
        )
        sec = VectorMap((line_element("s", "divider", (0, 0.4), (4, 0.4), n=3),), "world")
        report = MergeReport()
        merge_maps(main, [sec], config, report)
        doc = report.to_dict()
        text = json.dumps(doc)
        assert doc["passes"] == 1
        assert doc["chains"][0]["kind"] == "polyline"
        assert isinstance(text, str)
