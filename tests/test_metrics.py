"""Curve metrics and the map evaluation report."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymerge import (
    Pose,
    VectorMap,
    discrete_frechet,
    evaluate_map,
    match_elements,
    pcm,
    polyline_merge_check,
)
from polymerge.geometry import arc_length
import polymerge.metrics
from polymerge.metrics import CSV_HEADER

from helpers import line_element, quad_element, random_polyline, random_world_map, tricky_world_maps
from oracles import (frechet_exhaustive, pcm_offset_sweep, reference_eval_stats, reference_frechet_dp,
                     reference_pcm)

# integer-lattice coordinates give distance ties; free floats give the rest
_coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-20.0, 20.0))
_chain = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=15)


_offset = st.sampled_from([0.0, 1e3, 1e6, 1e5, -1e5])
_not_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def _frechet_cases(draw):
    """(p, q) vertex chains: free pairs, noisy and reversed copies, zigzags
    about a chain, on the lattice or off it, far from the origin, and now
    and then with a NaN or an infinite coordinate."""
    p = np.array(draw(_chain))
    kind = draw(st.sampled_from(["free", "noisy", "reversed", "zigzag"]))
    if kind == "free":
        q = np.array(draw(_chain))
    else:
        noise = draw(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                              min_size=len(p), max_size=len(p)))
        q = p + np.array(noise)
        if kind == "reversed":
            q = q[::-1]
        elif kind == "zigzag":
            q[::2, 1] += draw(st.floats(0.1, 3.0))
    p, q = p + draw(_offset), q + draw(_offset)
    if draw(st.integers(0, 9)) == 0:
        chain = draw(st.sampled_from([p, q]))
        chain[draw(st.integers(0, len(chain) - 1)), draw(st.integers(0, 1))] = draw(_not_finite)
    return p, q


@st.composite
def _pcm_cases(draw):
    """(p, q) curves for pcm: free coordinates or a unit-step lattice walk,
    whose arcs are integers that inner samples land on exactly; 2-vertex
    curves; repeated vertices; a mirror image, whose arc length is the
    same to the bit (span 0); far from the origin now and then."""
    coord = st.floats(-20.0, 20.0) if draw(st.booleans()) else st.integers(-3, 3).map(float)
    curve = st.lists(st.tuples(coord, coord), min_size=2, max_size=25)
    p = np.array(draw(curve))
    kind = draw(st.sampled_from(["free", "walk", "mirror"]))
    if kind == "free":
        q = np.array(draw(curve))
    elif kind == "walk":
        steps = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)]
        q = np.cumsum(draw(st.lists(st.sampled_from(steps), min_size=2, max_size=60)), axis=0)
        p = q[draw(st.integers(0, len(q) // 2)):] + draw(st.sampled_from([0.0, 0.5]))
    else:
        q = None
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(p), max_size=len(p)))
    shift = draw(_offset)
    p = np.repeat(p, repeats, axis=0) + shift
    q = p * (1.0, -1.0) if q is None else q + shift
    assume(arc_length(p) > 0 and arc_length(q) > 0)
    return p, q


# a lattice walk of 800 vertices and a 40-vertex piece of it, half a step
# off the lattice: at the default block size its rows fill several blocks
_WALK = np.cumsum(np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)])[
    np.random.default_rng(47).integers(0, 5, 800)], axis=0)
_LONG_PAIR = (_WALK[100:140] + (0.0, 0.5), _WALK)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _count_dp(monkeypatch) -> list:
    """Record every run of the Frechet DP behind ``discrete_frechet``."""
    runs = []
    real = polymerge.metrics._frechet_dp

    def counting(dist):
        runs.append(dist.shape)
        return real(dist)

    monkeypatch.setattr(polymerge.metrics, "_frechet_dp", counting)
    return runs


class TestDiscreteFrechet:
    def test_identical_curves(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_polyline(rng)
            assert discrete_frechet(p, p) == 0.0

    def test_uniform_translation(self):
        assert discrete_frechet([(0, 0), (1, 0)], [(0, 1), (1, 1)]) == pytest.approx(1.0)

    def test_detour_vertex(self):
        d = discrete_frechet([(0, 0), (2, 0)], [(0, 0), (1, 1), (2, 0)])
        assert d == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_single_vertex_chains(self):
        assert discrete_frechet([(0, 0)], [(3, 4)]) == pytest.approx(5.0)

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_polyline(rng)
            q = random_polyline(rng)
            assert discrete_frechet(p, q) == pytest.approx(discrete_frechet(q, p), abs=1e-12)

    def test_translation_distance_any_polyline(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_polyline(rng)
            v = rng.uniform(-5, 5, 2)
            assert discrete_frechet(p, p + v) == pytest.approx(np.linalg.norm(v), abs=1e-9)

    def test_shared_translation_invariance(self):
        rng = np.random.default_rng(19)
        p = random_polyline(rng)
        q = random_polyline(rng)
        v = np.array([3.7, -1.2])
        assert discrete_frechet(p + v, q + v) == pytest.approx(
            discrete_frechet(p, q), abs=1e-12
        )

    def test_matches_exhaustive_couplings(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_polyline(rng, n_min=2, n_max=5, scale=4.0)
            q = random_polyline(rng, n_min=2, n_max=5, scale=4.0)
            assert discrete_frechet(p, q) == pytest.approx(
                frechet_exhaustive(p, q), abs=1e-12
            )

    @settings(max_examples=400, deadline=None)
    @given(_frechet_cases(), st.booleans())
    def test_matches_reference_dp_exactly(self, case, doubled):
        # bounds that meet and bounds that do not: 1-vertex chains, repeated
        # vertices (doubled, or lattice repeats), lattice ties, far offsets;
        # the result has the bits of the reference DP, and a NaN or an
        # infinite coordinate is an error
        p, q = case
        if doubled:
            p = np.repeat(p, 2, axis=0)
        finite = np.isfinite(p).all() and np.isfinite(q).all()
        for a, b in ((p, q), (q, p)):
            if finite:
                assert _bits(discrete_frechet(a, b)) == _bits(reference_frechet_dp(a, b))
            else:
                with pytest.raises(ValueError, match="finite coordinates"):
                    discrete_frechet(a, b)

    def test_bounds_settle_noisy_copies_and_lone_vertices(self, monkeypatch):
        dp_runs = _count_dp(monkeypatch)
        rng = np.random.default_rng(41)
        line = np.column_stack([np.arange(30) * 0.75, np.zeros(30)])
        cases = [(line, line + rng.normal(0.0, 0.2, line.shape)) for _ in range(20)]
        # a lone vertex against a chain farthest in its middle: only the
        # column (row) minima bound the distance from below
        peak = np.array([[1.0, 0.0], [5.0, 0.0], [1.0, 0.0]])
        cases += [([(0.0, 0.0)], peak), (peak, [(0.0, 0.0)])]
        for p, q in cases:
            assert _bits(discrete_frechet(p, q)) == _bits(reference_frechet_dp(p, q))
        assert dp_runs == []

    def test_dp_decides_when_the_bounds_differ(self, monkeypatch):
        dp_runs = _count_dp(monkeypatch)
        # q runs the segment forth, back and forth again: every vertex of
        # either chain has a partner at distance 0, so the lower bound is 0,
        # but no monotone coupling follows q back
        p = [(0.0, 0.0), (4.0, 0.0)]
        q = [(0.0, 0.0), (4.0, 0.0), (0.0, 0.0), (4.0, 0.0)]
        assert discrete_frechet(p, q) == reference_frechet_dp(p, q) == 4.0
        assert len(dp_runs) == 1

    def test_greedy_coupling_tests_the_start_pair(self):
        # every coupling contains the first pair: within the limit elsewhere
        # is not enough when that pair is above it
        dist = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert not polymerge.metrics._greedy_coupling_within(dist, 1.0)
        assert polymerge.metrics._greedy_coupling_within(dist, 2.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            discrete_frechet([], [(0, 0)])
        with pytest.raises(ValueError):
            discrete_frechet([(0, 0)], [])

    @pytest.mark.parametrize("q", [
        [(0, 0), (float("nan"), 5)],  # the reference DP reads 0.0 here
        [(float("nan"), 0), (1, 0)],
        [(0, 0), (1, float("inf"))],
        [(float("-inf"), 0)],
    ])
    def test_non_finite_input_rejected(self, q):
        for a, b in (([(0, 0), (1, 0)], q), (q, [(0, 0), (1, 0)])):
            with pytest.raises(ValueError, match="finite coordinates"):
                discrete_frechet(a, b)


class TestPcm:
    def test_identical_curves(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = random_polyline(rng)
            assert pcm(p, p) <= 1e-9

    def test_optimal_subsection_on_dense_reference(self):
        # candidate offsets live at the reference's vertices, so the short
        # segment can lock onto the matching stretch exactly
        q = np.column_stack([np.arange(0.0, 10.0 + 1e-9, 1.0), np.zeros(11)])
        p = [(2.0, 0.0), (3.0, 0.0)]
        assert pcm(p, q) <= 1e-6
        assert pcm_offset_sweep(p, q, step=0.01) / 10.0 <= 1e-6

    def test_parallel_offset_proportional(self):
        q = [(0.0, 0.0), (10.0, 0.0)]
        one = pcm([(0.0, 1.0), (10.0, 1.0)], q)
        two = pcm([(0.0, 2.0), (10.0, 2.0)], q)
        assert one == pytest.approx(1.0, abs=1e-9)
        assert two == pytest.approx(2 * one, abs=1e-6)

    def test_rigid_motion_of_both_curves(self):
        rng = np.random.default_rng(31)
        c, s = np.cos(0.8), np.sin(0.8)
        rot = np.array([[c, -s], [s, c]])
        shift = np.array([3.0, -2.0])
        for _ in range(10):
            p = random_polyline(rng)
            q = random_polyline(rng)
            assert pcm(p @ rot.T + shift, q @ rot.T + shift) == pytest.approx(
                pcm(p, q), abs=1e-9
            )

    def test_swap_scales_by_reference_length(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = random_polyline(rng)
            q = random_polyline(rng)
            lp, lq = arc_length(p), arc_length(q)
            assert pcm(p, q) * lq == pytest.approx(pcm(q, p) * lp, abs=1e-9)

    def test_dense_sweep_never_beats_candidates_by_much(self):
        # the dense-offset oracle explores strictly more slide positions, so
        # it can only find an equal or smaller area
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(5, 12))
            q = np.column_stack([np.linspace(0, 10, n), rng.normal(0, 0.15, n)])
            m = int(rng.integers(3, 8))
            xs = np.linspace(rng.uniform(0, 2), rng.uniform(7, 10), m)
            p = np.column_stack([xs, rng.normal(0.2, 0.15, m)])
            oracle = pcm_offset_sweep(p, q, step=0.005) / arc_length(q)
            assert oracle <= pcm(p, q) + 0.02

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            pcm([(0, 0)], [(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            pcm([(0, 0), (0, 0)], [(0, 0), (1, 0)])

    @pytest.mark.parametrize("bad", [
        [(0, 0), (float("nan"), 5)],
        [(float("nan"), 0), (1, 0), (2, 0)],
        [(0, 0), (1, float("inf"))],
        [(float("-inf"), 0), (float("-inf"), 1)],
        # finite, but the step's square overflows
        [(0, 0), (1e300, 0)],
        [(-1e300, 0), (0, 0), (1e300, 0)],
    ])
    def test_non_finite_input_rejected(self, bad):
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in ((bad, [(0, 0), (1, 0)]), ([(0, 0), (1, 0)], bad)):
                with pytest.raises(ValueError, match="finite arc length"):
                    pcm(a, b)

    @settings(max_examples=300, deadline=None)
    @given(_pcm_cases(), st.sampled_from([polymerge.metrics._PCM_BLOCK_CELLS, 16, 1]))
    def test_matches_per_offset_loop_exactly(self, case, block_cells):
        # small blocks put nearly every offset in a block of its own
        p, q = case
        default = polymerge.metrics._PCM_BLOCK_CELLS
        polymerge.metrics._PCM_BLOCK_CELLS = block_cells
        try:
            for a, b in ((p, q), (q, p)):
                assert _bits(pcm(a, b)) == _bits(reference_pcm(a, b))
        finally:
            polymerge.metrics._PCM_BLOCK_CELLS = default

    def test_long_curves_span_several_blocks(self):
        # lattice walks of hundreds of vertices, whose inner arcs land
        # exactly on the shorter curve's arcs; a block holds at most
        # _PCM_BLOCK_CELLS // len(short) offsets, far fewer than there are
        rng = np.random.default_rng(43)
        steps = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)])
        for n_long in (700, 1500):
            long = np.cumsum(steps[rng.integers(0, 5, n_long)], axis=0)
            short = long[40:80] + (0.0, 0.5)
            arcs = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(long, axis=0), axis=1))])
            n_offsets = len(np.unique(np.clip(arcs, 0.0, arcs[-1] - arc_length(short))))
            assert n_offsets > 2 * (polymerge.metrics._PCM_BLOCK_CELLS // len(short))
            assert _bits(pcm(short, long)) == _bits(reference_pcm(short, long))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_pcm_cases(), min_size=1, max_size=12),
           st.sampled_from([polymerge.metrics._PCM_BLOCK_CELLS, 16, 1]),
           st.one_of(st.none(), st.integers(0, 24)))
    def test_batch_matches_per_pair_loop_exactly(self, cases, block_cells, long_at):
        # rows of several pairs share a block, and the long pair's rows,
        # among short pairs, straddle blocks
        pairs = [pair for p, q in cases for pair in ((p, q), (q, p))]
        if long_at is not None:
            pairs.insert(min(long_at, len(pairs)), _LONG_PAIR)
        default = polymerge.metrics._PCM_BLOCK_CELLS
        polymerge.metrics._PCM_BLOCK_CELLS = block_cells
        try:
            areas = polymerge.metrics._pcm_pairs(pairs)
        finally:
            polymerge.metrics._PCM_BLOCK_CELLS = default
        assert [_bits(a) for a in areas] == [_bits(reference_pcm(p, q)) for p, q in pairs]

    def test_long_pair_fills_several_blocks(self):
        short, long = _LONG_PAIR
        arcs = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(long, axis=0), axis=1))])
        n_offsets = len(np.unique(np.clip(arcs, 0.0, arcs[-1] - arc_length(short))))
        assert n_offsets * len(short) > 2 * polymerge.metrics._PCM_BLOCK_CELLS

    def test_least_block_sum_is_not_always_the_least_area(self):
        # parallel lines 1 m apart: every slide encloses about 10 m², and the
        # offset whose reduceat sum is least has an np.sum above another
        # offset's in the last bits, so only re-summing the rows within the
        # slack gives the loop's bits
        p = np.column_stack([[0.0, 0.6377836535966119, 1.2347562815298363,
                              4.952015825261059, 7.785397322133548, 10.0], np.ones(6)])
        q = np.column_stack([[-3.0, 4.42135534854312, 5.063841693628445, 5.125679135140652,
                              7.928215149056392, 9.248070244789313, 9.44852053928616,
                              9.886179541320343, 11.230870442775739, 11.452035101807668,
                              13.0], np.zeros(11)])
        assert pcm(p, q) == reference_pcm(p, q) == 1.9764235376052373

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                    min_size=1, max_size=20))
    def test_gap_is_the_row_norm(self, diffs):
        # pcm's gap, sqrt(dx*dx + dy*dy), is what norm(axis=1) computes: it
        # squares each entry and adds the two, so overflow, underflow and
        # subnormals round alike
        d = np.array(diffs)
        dx, dy = d[:, 0], d[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.sqrt(dx * dx + dy * dy)
            assert gap.tobytes() == np.linalg.norm(d, axis=1).tobytes()


def _world_map(elements):
    return VectorMap(tuple(elements), "world")


def _naive_match(est, gt, th_prox):
    """The merge check on every est x GT pair, then the same selection rule."""
    pairs, unmatched_est, matched_gt = [], [], set()
    for e in est.elements:
        candidates = [g for g in gt.elements if polyline_merge_check(e, g, th_prox)]
        if not candidates:
            unmatched_est.append(e.id)
            continue
        best = min(candidates, key=lambda g: (discrete_frechet(e.points, g.points), g.id))
        pairs.append((e.id, best.id))
        matched_gt.add(best.id)
    return pairs, unmatched_est, [g.id for g in gt.elements if g.id not in matched_gt]


class TestMatchElements:
    def test_identity_match(self, small_world_map):
        pairs, un_est, un_gt = match_elements(small_world_map, small_world_map, 1.0)
        assert sorted(pairs) == [("b1", "b1"), ("c1", "c1"), ("d1", "d1")]
        assert un_est == [] and un_gt == []

    def test_hallucinated_element_unmatched(self, small_world_map):
        extra = line_element("x9", "divider", (50, 50), (55, 50))
        est = _world_map(list(small_world_map.elements) + [extra])
        pairs, un_est, un_gt = match_elements(est, small_world_map, 1.0)
        assert un_est == ["x9"]
        assert len(pairs) == 3

    def test_missing_element_unmatched_gt(self, small_world_map):
        est = _world_map([el for el in small_world_map.elements if el.id != "d1"])
        _, un_est, un_gt = match_elements(est, small_world_map, 1.0)
        assert un_est == [] and un_gt == ["d1"]

    def test_picks_frechet_closer_candidate(self):
        gt = _world_map([
            line_element("low", "divider", (0, 0), (10, 0)),
            line_element("high", "divider", (0, 0.9), (10, 0.9)),
        ])
        est = _world_map([line_element("e", "divider", (0, 0.2), (10, 0.2))])
        pairs, _, un_gt = match_elements(est, gt, 2.0)
        assert pairs == [("e", "low")]
        assert un_gt == ["high"]

    def test_tie_breaks_on_smaller_gt_id(self):
        geom = [(0.0, 0.0), (5.0, 0.0)]
        gt = _world_map([
            line_element("g2", "divider", *geom),
            line_element("g1", "divider", *geom),
        ])
        est = _world_map([line_element("e", "divider", *geom)])
        pairs, _, _ = match_elements(est, gt, 1.0)
        assert pairs == [("e", "g1")]

    def test_label_must_agree(self):
        gt = _world_map([line_element("g", "divider", (0, 0), (5, 0))])
        est = _world_map([line_element("e", "boundary", (0, 0.1), (5, 0.1))])
        pairs, un_est, un_gt = match_elements(est, gt, 1.0)
        assert pairs == [] and un_est == ["e"] and un_gt == ["g"]

    def test_matches_naive_all_pairs_random(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            gt = random_world_map(rng, int(rng.integers(1, 25)), scale=10.0)
            noisy = [
                el.with_points(el.points + rng.normal(0.0, 0.3, el.points.shape))
                for el in gt.elements
                if el.label != "ped_crossing"
            ]
            taken = {el.id for el in noisy}
            extra = random_world_map(rng, int(rng.integers(0, 10)), scale=10.0).elements
            est = _world_map(noisy + [el for el in extra if el.id not in taken])
            th = float(rng.uniform(0.3, 2.0))
            assert match_elements(est, gt, th) == _naive_match(est, gt, th)

    @settings(max_examples=100, deadline=None)
    @given(tricky_world_maps())
    def test_matches_naive_all_pairs_tricky(self, case):
        vmap, th = case
        half = len(vmap.elements) // 2
        est, gt = _world_map(vmap.elements[:half]), _world_map(vmap.elements[half:])
        assert match_elements(est, gt, th) == _naive_match(est, gt, th)

    def test_frechet_ranks_only_several_candidates(self, small_world_map, monkeypatch):
        calls = []
        real = polymerge.metrics.discrete_frechet

        def counting(p, q):
            calls.append(1)
            return real(p, q)

        monkeypatch.setattr(polymerge.metrics, "discrete_frechet", counting)
        # one candidate per estimate: nothing to rank
        pairs, _, _ = match_elements(small_world_map, small_world_map, 1.0)
        assert len(pairs) == 3 and calls == []
        # two candidates: ranked, with the rule of the all-pairs reference
        gt = _world_map([
            line_element("low", "divider", (0, 0), (10, 0)),
            line_element("high", "divider", (0, 0.9), (10, 0.9)),
        ])
        est = _world_map([line_element("e", "divider", (0, 0.2), (10, 0.2))])
        assert match_elements(est, gt, 2.0) == _naive_match(est, gt, 2.0)
        assert len(calls) == 2

    def test_world_frame_required(self, small_world_map):
        ego = VectorMap(small_world_map.elements, "ego", Pose.identity())
        with pytest.raises(ValueError):
            match_elements(ego, small_world_map, 1.0)
        with pytest.raises(ValueError):
            match_elements(small_world_map, ego, 1.0)


def _translate(vm, dx, dy):
    shift = np.array([dx, dy])
    return _world_map([el.with_points(el.points + shift) for el in vm.elements])


class TestEvaluateMap:
    def test_non_finite_threshold_rejected(self, small_world_map):
        # nan would otherwise compare False everywhere and match nothing
        for th in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                evaluate_map(small_world_map, small_world_map, th)

    def test_self_evaluation_all_zero(self, small_world_map):
        report = evaluate_map(small_world_map, small_world_map, 1.0)
        for row in report.rows:
            if row.metric in ("pcm", "df") and row.count:
                assert row.mean == 0.0 and row.max == 0.0
            if row.metric.startswith("unmatched"):
                assert row.count == 0

    def test_translated_map_df_half_meter(self, small_world_map):
        est = _translate(small_world_map, 0.5, 0.0)
        report = evaluate_map(est, small_world_map, 1.0)
        for row in report.rows:
            if row.metric == "df":
                assert row.count == 1
                assert row.mean == pytest.approx(0.5, abs=1e-9)
                assert row.min == pytest.approx(0.5, abs=1e-9)
                assert row.max == pytest.approx(0.5, abs=1e-9)
                assert row.std == pytest.approx(0.0, abs=1e-9)

    def test_unmatched_rows_counted(self, small_world_map):
        extra = line_element("x9", "divider", (50, 50), (55, 50))
        est = _world_map(
            [el for el in small_world_map.elements if el.label != "boundary"] + [extra]
        )
        report = evaluate_map(est, small_world_map, 1.0)
        rows = {(r.label, r.metric): r for r in report.rows}
        assert rows[("divider", "unmatched_est")].count == 1
        assert rows[("boundary", "unmatched_gt")].count == 1
        assert rows[("boundary", "pcm")].count == 0
        assert rows[("boundary", "pcm")].mean is None

    def test_element_order_invariance(self, small_world_map):
        est = _translate(small_world_map, 0.3, 0.1)
        shuffled = _world_map(list(est.elements)[::-1])
        a = evaluate_map(est, small_world_map, 1.0)
        b = evaluate_map(shuffled, small_world_map, 1.0)
        assert a.rows == b.rows

    def test_row_statistics_are_consistent(self):
        rng = np.random.default_rng(43)
        gt_els, est_els = [], []
        for k in range(6):
            y = 3.0 * k
            gt_els.append(line_element(f"g{k}", "divider", (0, y), (10, y), n=4))
            est_els.append(
                line_element(f"e{k}", "divider", (0, y + rng.uniform(0, 0.4)),
                             (10, y + rng.uniform(0, 0.4)), n=4)
            )
        report = evaluate_map(_world_map(est_els), _world_map(gt_els), 1.0)
        for row in report.rows:
            if row.count and row.mean is not None:
                assert row.min <= row.mean <= row.max
                assert row.std >= 0.0

    def test_csv_shape_and_formatting(self, small_world_map):
        est = _translate(small_world_map, 0.5, 0.0)
        text = evaluate_map(est, small_world_map, 1.0, kind="merged").to_csv()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 4
        assert text.endswith("\n")
        df_lines = [ln for ln in lines if ",df," in ln]
        assert df_lines and all(",0.5000,0.5000,0.5000,0.0000,1" in ln for ln in df_lines)
        empty = [ln for ln in lines if ",unmatched_est," in ln]
        assert all(ln.endswith(",,,,0") for ln in empty)
        assert all(ln.split(",")[1] == "merged" for ln in lines[1:])

    def test_rows_match_per_pair_loop(self):
        # pcm through one batch of every matched pair and df reused from
        # ranking candidates, against each pair scored on its own
        rng = np.random.default_rng(71)
        for _ in range(12):
            gt = random_world_map(rng, int(rng.integers(1, 25)), scale=10.0)
            est = _world_map([
                el.with_points(el.points + rng.normal(0.0, 0.3, 2 if el.label == "ped_crossing"
                                                      else el.points.shape))
                for el in gt.elements
            ])
            th = float(rng.uniform(0.5, 3.0))
            stats = {(r.label, r.metric): (r.mean, r.min, r.max, r.std, r.count)
                     for r in evaluate_map(est, gt, th).rows if r.metric in ("pcm", "df")}
            assert repr(stats) == repr(reference_eval_stats(est, gt, th))

    def test_labels_without_elements_get_rows(self):
        est = _world_map([line_element("e", "divider", (0, 0), (5, 0))])
        gt = _world_map([line_element("g", "divider", (0, 0), (5, 0))])
        report = evaluate_map(est, gt, 1.0)
        labels = [r.label for r in report.rows]
        assert labels.count("ped_crossing") == 4
        assert labels.count("boundary") == 4
