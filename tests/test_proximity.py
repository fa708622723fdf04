"""Merge-candidate checks and proximity graph construction."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polymerge.proximity
from polymerge import MapElement, VectorMap, build_graph, merge_chains, polyline_merge_check
from polymerge.proximity import ProximityGraph, candidate_pairs

from helpers import line_element, random_world_map, tricky_world_maps
from oracles import naive_graph_edges, naive_merge_check, reference_merge_chains


# b's start lies exactly 0.1 right of a's box, but the kernel's foot on a's
# end, -2.1 + 1.9, rounds right of -0.2: its distance rounds below 0.1, so
# the check and the oracle accept a pair whose box gap is th_prox
_ULP_TIE = (VectorMap((MapElement("a", "divider", np.array([[-2.1, 0.0], [-0.2, 0.0]])),
                       MapElement("b", "divider", np.array([[-0.1, 0.0], [-0.1, 1.0]]))),
                      "world"), 0.1)


def _edges(graph):
    return set(map(frozenset, graph.edges))


def _unflagged(vmap):
    return VectorMap(tuple(el.with_points(el.points, is_main=False) for el in vmap.elements), "world")


def _all_pairs_edges(vmap, th_prox, skip_main_pairs=True):
    """The exact check on every unordered pair, no candidate sweep."""
    els = vmap.elements
    return {
        frozenset((a.id, b.id))
        for i, a in enumerate(els)
        for b in els[i + 1 :]
        if not (skip_main_pairs and a.is_main and b.is_main) and polyline_merge_check(a, b, th_prox)
    }


@st.composite
def _overlap_pairs(draw):
    """(a, b, th_prox): a lattice chain and a piece of it, moved across by
    0, th_prox / 2, th_prox or 2 th_prox, so that middle-vertex witnesses
    hit, miss on partial overlaps, or lie exactly th_prox away."""
    th = draw(st.sampled_from([0.25, 0.5, 1.0]))
    coord = st.integers(-8, 8).map(lambda k: k * 0.25)
    steps = draw(st.lists(st.tuples(st.integers(1, 8).map(lambda k: k * 0.25), coord),
                          min_size=1, max_size=10))
    pts = np.cumsum([(draw(coord), draw(coord)), *steps], axis=0)
    lo = draw(st.integers(0, len(pts) - 2))
    hi = draw(st.integers(lo + 2, len(pts)))
    piece = pts[lo:hi] + [draw(coord), draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) * th]
    if draw(st.booleans()):
        piece = piece[::-1]
    return MapElement("a", "divider", pts), MapElement("b", "divider", piece), th


def _count_kernel(monkeypatch) -> list:
    """Record every ``min_distance_to_polyline`` call of the merge check."""
    calls = []
    real = polymerge.proximity.min_distance_to_polyline

    def counting(points, poly):
        calls.append(len(points))
        return real(points, poly)

    monkeypatch.setattr(polymerge.proximity, "min_distance_to_polyline", counting)
    return calls


class TestMergeCheck:
    def test_parallel_within_threshold(self):
        a = line_element("a", "boundary", (0, 0), (10, 0))
        b = line_element("b", "boundary", (0, 0.5), (10, 0.5))
        assert polyline_merge_check(a, b, 1.0)

    def test_label_mismatch_blocks(self):
        a = line_element("a", "boundary", (0, 0), (10, 0))
        b = line_element("b", "divider", (0, 0.1), (10, 0.1))
        assert not polyline_merge_check(a, b, 1.0)

    def test_far_apart(self):
        a = line_element("a", "divider", (0, 0), (10, 0))
        b = line_element("b", "divider", (0, 5), (10, 5))
        assert not polyline_merge_check(a, b, 1.0)

    def test_threshold_is_strict(self):
        a = line_element("a", "divider", (0, 0), (10, 0))
        b = line_element("b", "divider", (0, 1), (10, 1))
        assert not polyline_merge_check(a, b, 1.0)
        assert polyline_merge_check(a, b, 1.0 + 1e-9)

    def test_one_sided_vertex_proximity_counts(self):
        # only b has a vertex near a; a's vertices are all far from b
        a = line_element("a", "divider", (0, 5), (10, 5))
        b = line_element("b", "divider", (5, 5.2), (5, 20))
        assert polyline_merge_check(a, b, 1.0)
        assert polyline_merge_check(b, a, 1.0)

    def test_symmetric_random(self):
        rng = np.random.default_rng(31)
        vmap = random_world_map(rng, 20, scale=8.0)
        for a in vmap.elements:
            for b in vmap.elements:
                assert polyline_merge_check(a, b, 1.5) == polyline_merge_check(b, a, 1.5)

    def test_threshold_monotone(self):
        rng = np.random.default_rng(37)
        vmap = random_world_map(rng, 15, scale=6.0)
        for a in vmap.elements:
            for b in vmap.elements:
                if a.id != b.id and polyline_merge_check(a, b, 0.5):
                    assert polyline_merge_check(a, b, 2.0)

    def test_bad_threshold(self):
        a = line_element("a", "divider", (0, 0), (1, 0))
        for th in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                polyline_merge_check(a, a, th)

    @settings(max_examples=300, deadline=None)
    @given(_overlap_pairs())
    def test_matches_naive_oracle_on_overlaps(self, case):
        a, b, th = case
        assert polyline_merge_check(a, b, th) == naive_merge_check(a, b, th)
        assert polyline_merge_check(b, a, th) == naive_merge_check(b, a, th)

    def test_witness_at_exactly_th_prox_does_not_settle(self, monkeypatch):
        kernel = _count_kernel(monkeypatch)
        # every middle-vertex witness is exactly th_prox away; only the
        # kernel, over all vertices, finds a's end vertex 0.5 from b
        a = MapElement("a", "divider", np.array([[0, 0], [4, 0], [8, 0], [8, 0.5]]))
        b = MapElement("b", "divider", np.array([[0, 1], [4, 1], [8, 1]]))
        assert polyline_merge_check(a, b, 1.0) and naive_merge_check(a, b, 1.0)
        assert len(kernel) == 1
        # boxes overlap, and no vertex comes closer than exactly th_prox
        c = line_element("c", "divider", (0, 0), (8, 0), n=3)
        d = MapElement("d", "divider", np.array([[0, 1], [4, 1], [8, 1], [12, 1], [12, -3]]))
        assert not polyline_merge_check(c, d, 1.0) and not naive_merge_check(c, d, 1.0)

    def test_partial_overlap_misses_the_witness(self, monkeypatch):
        kernel = _count_kernel(monkeypatch)
        # b covers only a's first fifth: both middle vertices are far
        a = line_element("a", "divider", (0, 0), (50, 0), n=51)
        b = line_element("b", "divider", (0, 0.5), (10, 0.5), n=11)
        assert polyline_merge_check(a, b, 1.0) and naive_merge_check(a, b, 1.0)
        assert len(kernel) == 1

    def test_noisy_copy_needs_no_kernel(self, monkeypatch):
        kernel = _count_kernel(monkeypatch)
        rng = np.random.default_rng(43)
        line = np.column_stack([np.arange(30) * 0.75, np.zeros(30)])
        a = MapElement("a", "divider", line)
        for _ in range(20):
            b = MapElement("b", "divider", line + rng.normal(0.0, 0.2, line.shape))
            assert polyline_merge_check(a, b, 1.0) and polyline_merge_check(b, a, 1.0)
        assert kernel == []


class TestBuildGraph:
    def test_requires_world_frame(self):
        from polymerge import Pose

        el = line_element("a", "divider", (0, 0), (1, 0))
        ego = VectorMap((el,), "ego", Pose.identity())
        with pytest.raises(ValueError):
            build_graph(ego, 1.0)

    def test_all_ids_become_nodes(self, small_world_map):
        graph = build_graph(small_world_map, 1.0)
        assert set(graph.nodes) == {"b1", "d1", "c1"}

    def test_all_main_map_has_no_edges(self):
        a = line_element("a", "divider", (0, 0), (10, 0), is_main=True)
        b = line_element("b", "divider", (0, 0.2), (10, 0.2), is_main=True)
        graph = build_graph(VectorMap((a, b), "world"), 1.0)
        assert len(graph.edges) == 0

    def test_secondary_bridges_two_mains(self):
        a = line_element("a", "divider", (0, 0), (10, 0), is_main=True)
        b = line_element("b", "divider", (0, 0.4), (10, 0.4), is_main=True)
        s = line_element("s", "divider", (0, 0.2), (10, 0.2))
        graph = build_graph(VectorMap((a, b, s), "world"), 1.0)
        assert set(map(frozenset, graph.edges)) == {
            frozenset({"s", "a"}),
            frozenset({"s", "b"}),
        }

    def test_triangle_of_secondaries(self):
        els = tuple(
            line_element(f"s{k}", "boundary", (0, 0.3 * k), (10, 0.3 * k)) for k in range(3)
        )
        graph = build_graph(VectorMap(els, "world"), 1.0)
        assert len(graph.edges) == 3

    def test_label_pairs(self):
        d = line_element("d", "divider", (0, 0), (10, 0))
        b1 = line_element("b1", "boundary", (0, 0.1), (10, 0.1))
        b2 = line_element("b2", "boundary", (0, 0.3), (10, 0.3))
        graph = build_graph(VectorMap((d, b1, b2), "world"), 1.0)
        assert set(map(frozenset, graph.edges)) == {frozenset({"b1", "b2"})}

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            vmap = random_world_map(rng, int(rng.integers(2, 25)), scale=10.0)
            th = float(rng.uniform(0.5, 3.0))
            graph = build_graph(vmap, th)
            assert set(map(frozenset, graph.edges)) == naive_graph_edges(vmap, th)

    def test_edge_invariants(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            vmap = random_world_map(rng, 20, scale=8.0)
            graph = build_graph(vmap, 1.5)
            for u, v in graph.edges:
                eu, ev = vmap.element(u), vmap.element(v)
                assert u != v
                assert eu.label == ev.label
                assert not (eu.is_main and ev.is_main)

    def test_order_invariance(self):
        rng = np.random.default_rng(47)
        vmap = random_world_map(rng, 20, scale=6.0)
        shuffled = VectorMap(tuple(vmap.elements[::-1]), "world")
        e1 = set(map(frozenset, build_graph(vmap, 1.0).edges))
        e2 = set(map(frozenset, build_graph(shuffled, 1.0).edges))
        assert e1 == e2

    def test_later_pass_graph_matches_naive_all_pairs(self):
        # after a pass every element is main; the re-pass graph checks all pairs
        rng = np.random.default_rng(53)
        for _ in range(25):
            vmap = random_world_map(rng, int(rng.integers(2, 30)), scale=10.0, main_fraction=1.0)
            th = float(rng.uniform(0.5, 3.0))
            graph = build_graph(vmap, th, skip_main_pairs=False)
            assert _edges(graph) == naive_graph_edges(_unflagged(vmap), th)

    def test_box_gap_of_exactly_th_prox(self):
        for dx, dy in ((1.0, 0.0), (0.0, 1.0)):
            a = line_element("a", "divider", (0, 0), (2, 0))
            b = line_element("b", "divider", (2 + dx, dy), (4 + dx, dy))
            vmap = VectorMap((a, b), "world")
            assert len(build_graph(vmap, 1.0).edges) == 0
            assert len(build_graph(vmap, 1.0 + 1e-9).edges) == 1


@st.composite
def _signed_zero_maps(draw):
    """``tricky_world_maps`` with the sign of each zero coordinate drawn:
    -0.0 equals 0.0, and a min or max may return either."""
    vmap, th = draw(tricky_world_maps(step=0.5))
    elements = []
    for el in vmap.elements:
        pts = el.points.copy()
        flip = draw(st.lists(st.booleans(), min_size=pts.size, max_size=pts.size))
        pts[(pts == 0.0) & np.reshape(flip, pts.shape)] = -0.0
        elements.append(el.with_points(pts))
    return VectorMap(tuple(elements), "world"), th


def _per_element_boxes(elements):
    return (np.array([el.points.min(axis=0) for el in elements]),
            np.array([el.points.max(axis=0) for el in elements]))


class TestCandidateSweep:
    @settings(max_examples=200, deadline=None)
    @given(_signed_zero_maps())
    def test_boxes_are_per_element_min_max(self, case):
        lo, hi = polymerge.proximity._boxes(case[0].elements)
        ref_lo, ref_hi = _per_element_boxes(case[0].elements)
        # == takes -0.0 for 0.0: the sign of a zero is all that may differ
        assert lo.shape == ref_lo.shape and (lo == ref_lo).all() and (hi == ref_hi).all()

    @settings(max_examples=200, deadline=None)
    @given(_signed_zero_maps())
    def test_pairs_as_with_per_element_boxes(self, case):
        vmap, th = case
        pairs = candidate_pairs(vmap.elements, th)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polymerge.proximity, "_boxes", _per_element_boxes)
            before = candidate_pairs(vmap.elements, th)
        assert pairs.dtype == before.dtype and np.array_equal(pairs, before)

    @settings(max_examples=200, deadline=None)
    @given(tricky_world_maps())
    @example(_ULP_TIE)
    def test_graph_matches_naive_oracle(self, case):
        vmap, th = case
        assert _edges(build_graph(vmap, th)) == naive_graph_edges(vmap, th)
        later = build_graph(vmap, th, skip_main_pairs=False)
        assert _edges(later) == naive_graph_edges(_unflagged(vmap), th)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.0, 1e3 + 0.1, 1e6 + 0.3, 3e7 + 0.7]).flatmap(
        lambda offset: tricky_world_maps(step=0.1, thresholds=(0.1, 0.3, 0.7, 1.0), offset=offset)))
    @example(_ULP_TIE)
    def test_sweep_drops_no_pair_the_check_accepts(self, case):
        # on a 0.1 lattice a box bound plus th_prox rounds, and so do the
        # check's distances far from the origin; no accepted pair may drop
        vmap, th = case
        for skip in (True, False):
            graph = build_graph(vmap, th, skip_main_pairs=skip)
            assert _edges(graph) == _all_pairs_edges(vmap, th, skip)

    @settings(max_examples=100, deadline=None)
    @given(tricky_world_maps())
    def test_pairs_sorted_unique_and_same_label(self, case):
        vmap, th = case
        pairs = list(map(tuple, candidate_pairs(vmap.elements, th).tolist()))
        assert pairs == sorted(set(pairs))
        for i, j in pairs:
            assert i < j
            assert vmap.elements[i].label == vmap.elements[j].label

    def test_bad_threshold(self):
        for th in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                candidate_pairs([], th)


class TestMergeChains:
    def test_triangle_is_one_chain(self):
        els = tuple(
            line_element(f"s{k}", "boundary", (0, 0.2 * k), (10, 0.2 * k)) for k in range(3)
        )
        graph = build_graph(VectorMap(els, "world"), 1.0)
        assert merge_chains(graph) == [["s0", "s1", "s2"]]

    def test_two_disjoint_pairs(self):
        els = (
            line_element("a1", "divider", (0, 0), (10, 0)),
            line_element("a2", "divider", (0, 0.2), (10, 0.2)),
            line_element("b1", "divider", (0, 50), (10, 50)),
            line_element("b2", "divider", (0, 50.2), (10, 50.2)),
        )
        graph = build_graph(VectorMap(els, "world"), 1.0)
        assert merge_chains(graph) == [["a1", "a2"], ["b1", "b2"]]

    def test_singletons_dropped(self, small_world_map):
        graph = build_graph(small_world_map, 1.0)
        assert merge_chains(graph) == []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_sparse_components(self, data):
        n = data.draw(st.integers(0, 30))
        nodes = data.draw(st.permutations([f"n{k}" for k in range(n)]))
        # self-loops, duplicate and reversed edges, nodes no edge touches and
        # graphs with no edge
        edges = []
        if nodes:
            edges = data.draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                                       max_size=3 * n))
        if edges:
            again = data.draw(st.lists(st.sampled_from(edges), max_size=5))
            edges += again + [(v, u) for u, v in again[::2]]
        graph = ProximityGraph(tuple(nodes), tuple(data.draw(st.permutations(edges))))
        assert merge_chains(graph) == reference_merge_chains(graph)
