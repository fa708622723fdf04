"""Point folding scenarios, chain merging and the full map merge."""

import itertools
import json
import math
import sys
from pathlib import Path
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
    arc_length,
    discrete_frechet,
    merge_chain,
    merge_maps,
    merge_polyline,
    merge_quads,
    project_point_to_polyline,
    save_map,
    smooth,
)

from polymerge import geometry, merging

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
        with pytest.raises(ValueError):
            smooth(pts, 5.0)
        with pytest.raises(ValueError):
            smooth(pts, "5")
        np.testing.assert_array_equal(smooth(pts, np.int64(5)), smooth(pts, 5))


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

    @pytest.mark.parametrize("kwargs, name", [
        ({"th_prox": "1"}, "th_prox"), ({"th_cov": "0.5"}, "th_cov"),
        ({"cell_size": True}, "cell_size"), ({"blur_sigma_cells": None}, "blur_sigma_cells"),
        ({"smoothing_enabled": "false"}, "smoothing_enabled"),
        ({"smoothing_enabled": 1}, "smoothing_enabled"),
    ])
    def test_wrong_type_names_the_field(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
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
# The nearest segment is the first one, 1e-13 long: the kernel takes it as
# degenerate, with t 0 and the unclamped parameter 0, so a vertex before it
# moves the first vertex (scenario 2) rather than extending the line.
_SHORT_FIRST_SEGMENT = (np.array([[-1.0, 0.5]]), np.array([[0.0, 0.0], [1e-13, 0.0], [1.0, 0.0]]))


class TestFold:
    @settings(max_examples=600, deadline=None)
    @given(_fold_cases())
    @example(case=(_CLAMPED_FEET[0], _STRAIGHT_BASE))
    @example(case=(_CLAMPED_FEET[1], _STRAIGHT_BASE))
    @example(case=(_CLAMPED_FEET[2], _STRAIGHT_BASE))
    @example(case=(_CLAMPED_FEET[3], _STRAIGHT_BASE))
    @example(case=(_CLAMPED_FEET[4], _STRAIGHT_BASE))
    @example(case=_SHORT_FIRST_SEGMENT)
    def test_matches_per_vertex_fold_bitwise(self, case):
        source, base = case
        got_counts, want_counts = {}, {}
        got = merge_polyline(source, base, got_counts)
        want = reference_merge_polyline(source, base, want_counts)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_counts == want_counts


@st.composite
def _lockstep_chains(draw):
    """1 to 30 chains, each a ``_fold_cases`` base and its source cut into
    1 to 3 members (the reversed base when the source is empty)."""
    chains = []
    for _ in range(draw(st.integers(1, 30))):
        source, base = draw(_fold_cases())
        members = [p for p in np.array_split(source, draw(st.integers(1, 3))) if len(p)]
        chains.append((base, members or [base[::-1]]))
    return chains


class TestLockstepFold:
    @settings(max_examples=150, deadline=None)
    @given(_lockstep_chains())
    @example([(_SHORT_FIRST_SEGMENT[1], [_SHORT_FIRST_SEGMENT[0]]), (_STRAIGHT_BASE, _CLAMPED_FEET)])
    def test_matches_per_vertex_fold_of_each_chain_bitwise(self, chains):
        got = merging._fold_lockstep(chains)
        assert len(got) == len(chains)
        for (base, members), (got_line, got_counts) in zip(chains, got):
            want, want_counts = base, {}
            for member in members:
                want = reference_merge_polyline(reference_orient(member, want), want, want_counts)
            assert got_line.shape == want.shape
            assert got_line.tobytes() == want.tobytes()
            assert got_counts == want_counts


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

# the lattice-path coupling must test the first pair: the rest of it stays within
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


def _oriented(src, base):
    """``src`` in the vertex order the fold takes it in against ``base``:
    ``merging._flips`` of one member."""
    flip = merging._flips(src, np.array([len(src)]), base.T, np.zeros(1, int), np.array([len(base)]))
    return src[::-1] if flip[0] else src


def _reference_flips(src, n, cells, first, size):
    """``merging._flips`` by ``oracles.reference_orient``, member by member."""
    offsets = np.cumsum(n) - n
    members = [src[o:o + k] for o, k in zip(offsets.tolist(), n.tolist())]
    bases = [cells[:, f:f + m].T for f, m in zip(first.tolist(), size.tolist())]
    return np.array([reference_orient(p, b) is not p for p, b in zip(members, bases)], dtype=bool)


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
                assert _oriented(src, base).tobytes() == reference_orient(src, base).tobytes()
        # the rule inside the fold, on chains up to the 1e150 scale (lattice
        # coordinates reach 4), as in the fold property; the fold overflows
        # on the 1e155 and 1e300 chains
        if max(float(np.abs(el.points).max()) for el in chain) > 1e151:
            return
        config = MergeConfig(smoothing_enabled=smoothing)
        got_report, want_report = MergeReport(), MergeReport()
        got = merge_chain(chain, config, got_report)
        # the fold's stacked orientation replaced by the reference rule
        with mock.patch.object(merging, "_flips", _reference_flips):
            want = merge_chain(chain, config, want_report)
        assert got.id == want.id
        assert got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()
        assert got_report.to_dict() == want_report.to_dict()

    def test_noisy_copy_of_straight_line_needs_no_dp(self, config, monkeypatch):
        rng = np.random.default_rng(11)
        base = line_element("m", "divider", (0, 0), (20, 0), n=27, is_main=True)
        noisy = base.points + rng.normal(0.0, 0.2, base.points.shape)
        calls = _counting_frechet(monkeypatch)
        fwd = merge_chain([base, MapElement("s", "divider", noisy)], config)
        assert calls == []
        # a reversed copy is not settled by the bounds, and the DPs reverse it
        rev = merge_chain([base, MapElement("s", "divider", noisy[::-1])], config)
        assert len(calls) == 2
        assert rev.points.tobytes() == fwd.points.tobytes()


def _counting_frechet(monkeypatch) -> list:
    """Record the shape of every ``discrete_frechet`` call ``merging`` makes."""
    calls = []
    original = merging.discrete_frechet

    def counting(p, q):
        calls.append((len(p), len(q)))
        return original(p, q)

    monkeypatch.setattr(merging, "discrete_frechet", counting)
    return calls


class TestOrientationCertificate:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60))
    def test_lattice_path_is_a_coupling(self, n, m):
        if n + m < 3:
            return
        i, j = merging._lattice_path(n, m, np.arange(n + m - 1))
        assert len(i) == len(j) == n + m - 1
        assert (i[0], j[0]) == (0, 0)
        assert (i[-1], j[-1]) == (n - 1, m - 1)
        steps = set(zip(np.diff(i).tolist(), np.diff(j).tolist()))
        assert steps <= {(1, 0), (0, 1)}

    @pytest.mark.parametrize("case", ["forward", "reversed", "loop", "loop_reversed",
                                      "two_vertex_base", "two_vertex_member"])
    def test_matches_reference_where_path_decides_and_not(self, case, monkeypatch):
        rng = np.random.default_rng(5)
        xs = np.linspace(0.0, 20.0, 27)
        line = np.column_stack([xs, 0.1 * xs])
        noisy = line + rng.normal(0.0, 0.2, line.shape)
        angles = np.linspace(0.0, 2.0 * np.pi, 25)
        loop = np.column_stack([5.0 * np.cos(angles), 5.0 * np.sin(angles)])
        loop[-1] = loop[0]
        src, base, decided = {
            "forward": (noisy, line, True),
            "reversed": (noisy[::-1], line, False),
            # a closed loop's end pairs are 0 apart: its bound is 0, which
            # the staircase path leaves even on an exact copy
            "loop": (loop, loop, False),
            "loop_reversed": (loop[::-1] + [0.0, 0.3], loop, False),
            "two_vertex_base": (noisy, line[[0, -1]], True),
            "two_vertex_member": (noisy[[-1, 0]], line, False),
        }[case]
        calls = _counting_frechet(monkeypatch)
        got = _oriented(src, base)
        assert got.tobytes() == reference_orient(src, base).tobytes()
        # the path settles the member with no DF, or both DFs decide
        assert len(calls) == (0 if decided else 2)

    def test_forward_members_of_a_block_drive_skip_the_matrix(self, monkeypatch):
        # the benchmark's block scene: 30 views of one block, folded into
        # the main map one at a time
        scenes = _bench_scenes()
        gt = scenes.ground_truth(scenes.BLOCK)
        views = scenes.views(scenes.BLOCK, gt, 0)
        flipped = []
        flips = merging._flips

        def recording(*args):
            got = flips(*args)
            flipped.extend(got.tolist())
            return got

        monkeypatch.setattr(merging, "_flips", recording)
        calls = _counting_frechet(monkeypatch)
        main = VectorMap((), "world")
        config = MergeConfig(smoothing_enabled=True)
        for view in views:
            main = merge_maps(main, [view], config)
        # every view runs along the lines, so every member keeps its order
        assert len(flipped) > 100 and not any(flipped)
        assert calls == []


def _bench_scenes():
    """The benchmark's scene module, ``bench/scenes.py``."""
    bench_dir = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench_dir)
    try:
        import scenes
    finally:
        sys.path.remove(bench_dir)
    return scenes


def _path_settles(src, base) -> bool:
    """The lattice-path certificate of one member on Python floats: no
    distance on the coupling ``_lattice_path`` exceeds the larger end-pair
    distance of the reversed member."""
    (n, m), src, base = (len(src), len(base)), src.tolist(), base.tolist()

    def dist(a, b):
        dx, dy = a[0] - b[0], a[1] - b[1]
        return math.sqrt(dx * dx + dy * dy)

    bound = max(dist(src[-1], base[0]), dist(src[0], base[-1]))
    steps = [(k * (n - 1) // (n + m - 2), k) for k in range(n + m - 1)]
    return all(dist(src[i], base[k - i]) <= bound for i, k in steps)


@st.composite
def _stacked_lines(draw, max_size=60, min_lines=1):
    """``min_lines`` to 12 random lines of 2 to ``max_size`` vertices, each
    drawn on its own scale and offset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for _ in range(draw(st.integers(min_lines, 12))):
        n = draw(st.integers(2, max_size))
        scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
        offset = draw(st.sampled_from([0.0, 1e3, -1e6]))
        lines.append(np.cumsum(rng.normal(0.0, scale, (n, 2)), axis=0) + offset)
    return lines


@st.composite
def _line_chains(draw):
    """1 to 12 divider chains, each a random line and 1 to 3 noisy copies,
    some reversed, the first member main or not; and, when drawn, the pair
    of ``_COLLAPSING_PAIR``, whose smoothed line collapses onto its start,
    at a drawn place among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chains = []
    for c, line in enumerate(draw(_stacked_lines(max_size=30))):
        members = [line] + [line + rng.normal(0.0, 0.3, line.shape) for _ in range(draw(st.integers(1, 3)))]
        main = draw(st.booleans())
        chains.append([MapElement(f"c{c}m{k}", "divider", p[::-1] if draw(st.booleans()) else p,
                                  is_main=main and k == 0) for k, p in enumerate(members)])
    if draw(st.booleans()):
        chains.insert(draw(st.integers(0, len(chains))), _COLLAPSING_PAIR)
    return chains


def _circle(n: int) -> np.ndarray:
    """A closed loop of n vertices, radius 5 m: the last vertex is the first."""
    angles = np.linspace(0.0, 2.0 * np.pi, n)
    loop = np.column_stack([5.0 * np.cos(angles), 5.0 * np.sin(angles)])
    loop[-1] = loop[0]
    return loop


class TestStackedStages:
    """The stages a merge pass runs over all its line chains at once (arc
    lengths, orientation, smoothing) against their rules for one item."""

    @settings(max_examples=100, deadline=None)
    @given(_stacked_lines(max_size=300, min_lines=2))
    def test_arc_lengths_equal_arc_length_bitwise(self, lines):
        # chains of 2 consecutive lines, the last one of 3 when they are odd
        cuts = list(range(0, len(lines) - 1, 2))
        chains = [[MapElement(f"c{a}m{k}", "divider", p) for k, p in enumerate(lines[a:b])]
                  for a, b in zip(cuts, cuts[1:] + [len(lines)])]
        seen = {}
        fold_order = merging._fold_order

        def recording(members, length):
            seen.update({el.id: (el.points, length[id(el)]) for el in members})
            return fold_order(members, length)

        with mock.patch.object(merging, "_fold_order", recording):
            merging._fold_chains(chains, MergeConfig())
        assert len(seen) == len(lines)
        for points, length in seen.values():
            assert float(length).hex() == arc_length(points).hex()

    @settings(max_examples=200, deadline=None)
    @given(_stacked_lines(), st.sampled_from([3, 5, 7, 9]))
    def test_smoothing_matches_reference_per_line(self, lines, window):
        got = merging._smooth_runs(np.concatenate(lines), [len(p) for p in lines], window)
        want = np.concatenate([reference_smooth(p, window) for p in lines])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_line_chains())
    @example([_COLLAPSING_PAIR])
    def test_smoothing_guard_is_per_chain(self, chains):
        folded = merging._fold_chains(chains, MergeConfig())
        got = merging._fold_chains(chains, MergeConfig(smoothing_enabled=True))
        for chain, (base_el, line, counts), (got_base, got_line, got_counts) in zip(chains, folded, got):
            smoothed = reference_smooth(line, merging._SMOOTHING_WINDOW)
            steps = smoothed[1:] - smoothed[:-1]
            want = smoothed if (steps * steps).any() else line
            # the collapsing pair keeps its fold, and only it does
            assert (want is line) == (chain is _COLLAPSING_PAIR)
            assert got_base is base_el and got_counts == counts
            assert got_line.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["forward", "reversed", "loop", "loop_reversed"]),
                              st.integers(2, 30), st.integers(2, 30), st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=12))
    def test_mixed_orientation_batch_matches_reference(self, specs):
        # noisy copies of open lines settle on the lattice path, reversed
        # ones and loops (end pairs about 0 apart) need both DFs
        members, bases = [], []
        for kind, n, m, seed in specs:
            rng = np.random.default_rng(seed)
            if kind.startswith("loop"):
                base, src = _circle(m), _circle(n)
            else:
                length, slope = rng.uniform(5.0, 40.0), rng.uniform(-0.3, 0.3)
                shift = rng.uniform(-1e3, 1e3, 2)
                base, src = (np.column_stack([xs, slope * xs]) + shift
                             for xs in (np.linspace(0.0, length, m), np.linspace(0.0, length, n)))
            src = src + rng.normal(0.0, 0.2, src.shape)
            members.append(src[::-1] if kind.endswith("reversed") else src)
            bases.append(base)
        n, size = np.array([len(p) for p in members]), np.array([len(b) for b in bases])
        calls = []

        def counting(p, q):
            calls.append((len(p), len(q)))
            return discrete_frechet(p, q)

        with mock.patch.object(merging, "discrete_frechet", counting):
            flip = merging._flips(np.concatenate(members), n, np.concatenate(bases).T,
                                  np.cumsum(size) - size, size)
        assert flip.tolist() == [reference_orient(p, b) is not p for p, b in zip(members, bases)]
        # both DFs run for each member the lattice path leaves, and only then
        assert calls == [(len(p), len(b)) for p, b in zip(members, bases) if not _path_settles(p, b)
                         for _ in range(2)]

    def test_bench_grid_scene_runs_no_per_chain_stage(self, monkeypatch):
        # the benchmark's grid scene at seed 0: one merge_maps call measures,
        # orients and smooths its line chains only in stacked passes
        scenes = _bench_scenes()
        views = scenes.views(scenes.GRID, scenes.ground_truth(scenes.GRID), 0)
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append((name, len(args[1]) if name == "_flips" else 1))
                return original(*args, **kwargs)
            return wrapper

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "polymerge"]:
            if hasattr(module, "arc_length"):
                monkeypatch.setattr(module, "arc_length", counting("arc_length", module.arc_length))
        for name in ("smooth", "_fold_chains", "_flips", "_smooth_runs"):
            monkeypatch.setattr(merging, name, counting(name, getattr(merging, name)))
        report = MergeReport()
        merge_maps(VectorMap((), "world"), views, MergeConfig(smoothing_enabled=True), report)
        per_chain = sum(c.kind == "polyline" for c in report.chains)
        count = {name: sum(1 for n, _ in calls if n == name) for name, _ in calls}
        oriented = sum(k for n, k in calls if n == "_flips")
        # no per-member length or per-chain smoothing: one smoothing per
        # group, and one orientation test for all members due at a step
        # (seed 0: 377 members of 144 chains in 8 tests)
        assert per_chain > 100 and "arc_length" not in count and "smooth" not in count
        assert count["_smooth_runs"] == count["_fold_chains"] < per_chain
        assert oriented > per_chain and oriented > 10 * count["_flips"]

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

    def test_crossing_chain_and_isolated_line_fold_no_line(self, config, monkeypatch):
        # the pass has a crossing chain and isolated lines but no line chain
        main = VectorMap((quad_element("q", 0, 0, is_main=True),
                          line_element("m", "divider", (0, 20), (4, 20), n=3, is_main=True)), "world")
        sec = VectorMap((quad_element("q", 0.3, 0.1),
                         line_element("f", "divider", (0, 50), (4, 50), n=3)), "world")

        def no_fold(folds):
            raise AssertionError("a pass without line chains folded lines")

        monkeypatch.setattr(merging, "_fold_lockstep", no_fold)
        report = MergeReport()
        out = merge_maps(main, [sec], config, report)
        assert [el.id for el in out.elements] == ["0:q", "0:m", "1:f"]
        assert all(el.is_main for el in out.elements)
        np.testing.assert_array_equal(out.element("1:f").points, sec.element("f").points)
        assert [(c.kind, c.members) for c in report.chains] == [("quad", ["0:q", "1:q"])]
        assert report.isolated == ["1:f"]

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

    @pytest.mark.parametrize("block_cells", [geometry._BLOCK_CELLS, 300])
    def test_lockstep_and_per_chain_folds_agree(self, tmp_path, block_cells):
        # 40 lines 5 m apart, each its own chain of 3 noisy copies (some
        # reversed, some past the ends), and a crossing chain beside them;
        # the second merge folds one more view into the first's mains
        rng = np.random.default_rng(71)
        views = []
        for v in range(4):
            els = [quad_element("c", 10.0 + 0.1 * v, -10.0)]
            for i in range(40):
                n = int(rng.integers(3, 30))
                xs = np.linspace(rng.uniform(-2.0, 2.0), rng.uniform(18.0, 22.0), n)
                pts = np.column_stack([xs, np.full(n, 5.0 * i)]) + rng.normal(0.0, 0.2, (n, 2))
                els.append(MapElement(f"l{i}", ("divider", "boundary")[i % 2],
                                      pts[::-1] if rng.random() < 0.3 else pts))
            views.append(VectorMap(tuple(els), "world"))
        runs = []
        fold_lockstep = merging._fold_lockstep
        # a group may hold no chain's capacity at 1 cell, so each chain
        # folds on its own, in a group of one
        for cells in (block_cells, 1):
            groups = []

            def recording(folds):
                groups.append(len(folds))
                return fold_lockstep(folds)

            report = MergeReport()
            with mock.patch.object(geometry, "_BLOCK_CELLS", cells), \
                    mock.patch.object(merging, "_fold_lockstep", recording):
                first = merge_maps(VectorMap((), "world"), views[:3], MergeConfig(smoothing_enabled=True),
                                   report)
                out = merge_maps(first, views[3:], MergeConfig(smoothing_enabled=True), report)
            save_map(out, tmp_path / f"{cells}.json")
            runs.append(((tmp_path / f"{cells}.json").read_bytes(), report.to_dict(), groups))
        (lock_map, lock_report, lock_groups), (chain_map, chain_report, chain_groups) = runs
        assert lock_map == chain_map
        assert lock_report == chain_report
        assert len(lock_report["chains"]) == 82
        # each patch changes the grouping: every line chain of both merges
        # folds in lockstep, in one group per merge by default, but alone at
        # 1 cell and in many groups at 300 cells
        assert chain_groups == [1] * 80
        assert sum(lock_groups) == 80
        if block_cells == geometry._BLOCK_CELLS:
            assert lock_groups == [40, 40]
        else:
            assert len(lock_groups) > 4

    def test_mixed_chains_keep_their_report_order(self, config):
        # line and crossing chains interleaved in the input, 10 m apart: each
        # chain is reported and emitted where its first member stands, as
        # the element and the record its members merge to on their own; no
        # cell reaches th_cov in the last crossing chain, of 1 cm quads, so
        # it falls back to its largest quad
        rng = np.random.default_rng(73)
        views = []
        for _ in range(3):
            els = []
            for i in range(12):
                if i % 3 == 2:
                    side = (3.0, 2.0) if i < 11 else (0.01, 0.01)
                    els.append(quad_element(f"c{i}", 8.0 + rng.uniform(-0.2, 0.2),
                                            10.0 * i + rng.uniform(-0.2, 0.2), *side, angle=0.2))
                else:
                    pts = np.column_stack([np.linspace(0.0, 16.0, 9), np.full(9, 10.0 * i)])
                    els.append(MapElement(f"l{i}", ("divider", "boundary")[i % 2],
                                          pts + rng.normal(0.0, 0.1, (9, 2))))
            views.append(VectorMap(tuple(els), "world"))
        report = MergeReport()
        out = merge_maps(VectorMap((), "world"), views, config, report)
        stacked = merging.concatenate(VectorMap((), "world"), views).elements
        position = {el.id: k for k, el in enumerate(stacked)}
        assert report.passes == 1
        assert [c.kind for c in report.chains] == ["polyline", "polyline", "quad"] * 4
        firsts = [position[c.members[0]] for c in report.chains]
        assert firsts == sorted(firsts)
        assert [el.id for el in out.elements] == [c.base_id for c in report.chains]
        assert [c.fallback for c in report.chains] == [False] * 11 + [True]
        for chain, el in zip(report.chains, out.elements):
            members = [stacked[position[i]] for i in chain.members]
            alone_report = MergeReport()
            alone = (merge_quads if chain.kind == "quad" else merge_chain)(members, config, alone_report)
            assert el.points.tobytes() == alone.points.tobytes()
            assert alone_report.chains == [chain]

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
