"""Data model validation, canonicalization and JSON round trips."""

import json
import math
import os
import stat
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymerge import (
    LABELS,
    MapElement,
    MapFormatError,
    MergeConfig,
    Pose,
    VectorMap,
    concatenate,
    load_map,
    merge_maps,
    save_map,
    to_world,
)
from polymerge import map_model
from polymerge.cli import main as cli_main
from polymerge.geometry import transform_to_world
from polymerge.map_model import atomic_writer

from helpers import line_element, quad_element, random_polyline, random_world_map, rect_quad
from oracles import reference_canonical_quad, reference_map_doc, reference_quad_problem

# corners on the integer lattice around the origin, some moved by about the
# 1e-12 tolerances of the crossing check: coincident, collinear and crossing
# cases, and cases on either side of each threshold
_nudge = st.sampled_from([0.0, 1e-12, -1e-12, 5e-13, 2e-12])
_lattice_corner = st.tuples(st.integers(-2, 2), st.integers(-2, 2), _nudge, _nudge).map(
    lambda c: (c[0] + c[2], c[1] + c[3])
)


class TestMapElement:
    def test_unknown_label_names_element(self):
        with pytest.raises(ValueError, match="'e1'.*lane"):
            MapElement("e1", "lane", np.zeros((2, 2)) + [[0, 0], [1, 0]])

    def test_too_few_vertices(self):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            MapElement("e1", "divider", np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("pts", [
        [[1.0, 1.0], [1.0, 1.0]],
        [[2.0, 3.0], [2.0, 3.0], [2.0, 3.0]],
        [[1e6, 1e6], [1e6, 1e6]],
        # 1e-200 apart: each step squares to 0, so the arc length is 0
        [[0.0, 0.0], [1e-200, 0.0]],
    ])
    @pytest.mark.parametrize("label", ["divider", "boundary"])
    def test_zero_length_polyline_rejected(self, pts, label):
        with pytest.raises(ValueError, match="'e'.*zero arc length"):
            MapElement("e", label, np.array(pts))

    @pytest.mark.parametrize("flag", [1, 0, np.True_, "yes", None])
    def test_is_main_must_be_bool(self, flag):
        # the map writer spells the flag as json's true/false
        with pytest.raises(ValueError, match="'e'.*is_main"):
            MapElement("e", "divider", np.array([[0.0, 0.0], [1.0, 0.0]]), flag)

    @pytest.mark.parametrize("pts", [
        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
        # a repeated first vertex, then a real step
        [[0.0, 0.0], [0.0, 0.0], [0.0, 1e-150]],
    ])
    def test_positive_length_polyline_accepted(self, pts):
        el = MapElement("e", "divider", np.array(pts))
        assert len(el.points) == 3

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MapElement("", "divider", np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_quad_needs_exactly_four_vertices(self):
        tri = np.array([[0.0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError, match="4 vertices"):
            MapElement("c", "ped_crossing", tri)
        penta = np.vstack([rect_quad(0, 0, 2, 2), [[0.0, 3.0]]])
        with pytest.raises(ValueError, match="4 vertices"):
            MapElement("c", "ped_crossing", penta)

    def test_bowtie_quad_rejected(self):
        bowtie = np.array([[0.0, 0], [1, 1], [1, 0], [0, 1]])
        with pytest.raises(ValueError, match="self-intersect"):
            MapElement("c", "ped_crossing", bowtie)

    def test_coincident_corners_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            MapElement("c", "ped_crossing", np.array([[0.0, 0], [1, 0], [1, 0], [0, 1]]))

    @pytest.mark.parametrize("offset", [1e6, 5e6])
    def test_crossing_at_utm_scale_accepted(self, offset):
        # corners a few meters apart are distinct however far from the origin
        quad = rect_quad(offset, offset / 2, 4.0, 3.0, angle=0.3)
        el = MapElement("c", "ped_crossing", quad)
        assert sorted(map(tuple, el.points)) == sorted(map(tuple, quad))

    @pytest.mark.parametrize("offset", [1e3, 1e4, 1e6])
    def test_collinear_corners_rejected_far_from_origin(self, offset):
        # 4 points on one line, rounded to the float grid at the offset,
        # have a shoelace area of rounding noise, not 0
        rng = np.random.default_rng(7)
        for _ in range(200):
            direction = rng.normal(size=2)
            t = rng.uniform(-3.0, 3.0, 4)
            quad = offset + t[:, None] * (direction / np.linalg.norm(direction))
            with pytest.raises(ValueError, match="has zero area"):
                MapElement("c", "ped_crossing", quad)
        for size in (0.01, 0.001):
            MapElement("c", "ped_crossing", rect_quad(offset, offset / 2, size, size, 0.3))

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
    def test_edge_test_scales_with_offset(self, offset):
        # the straddle cut grows with the coordinates like the zero-area
        # bound: a real bow-tie still crosses, a thin crossing still stands
        corners = rect_quad(offset, offset / 2, 4.0, 3.0, angle=0.3)
        with pytest.raises(ValueError, match="edges self-intersect"):
            MapElement("c", "ped_crossing", corners[[0, 1, 3, 2]])
        thin = rect_quad(offset, offset / 2, 0.01, 4.0, angle=0.3)
        el = MapElement("c", "ped_crossing", thin)
        assert sorted(map(tuple, el.points)) == sorted(map(tuple, thin))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_lattice_corner, min_size=4, max_size=4))
    def test_crossing_check_matches_reference(self, corners):
        quad = np.array(corners)
        expected = reference_quad_problem(quad)
        try:
            el = MapElement("c", "ped_crossing", quad)
        except ValueError as exc:
            assert str(exc) == f"element 'c': {expected}"
        else:
            assert expected is None
            np.testing.assert_array_equal(el.points, reference_canonical_quad(quad))

    def test_quad_canonical_form(self):
        # clockwise ring, arbitrary start: stored counter-clockwise from the
        # lexicographically smallest corner
        cw = np.array([[0.0, 1], [1, 1], [1, 0], [0, 0]])
        el = MapElement("c", "ped_crossing", cw)
        np.testing.assert_allclose(el.points, [[0, 0], [1, 0], [1, 1], [0, 1]])

    def test_quad_rotation_invariant_storage(self):
        base = rect_quad(3, 2, 4, 2, angle=0.4)
        stored = MapElement("c", "ped_crossing", base).points
        for shift in range(1, 4):
            rolled = np.roll(base, shift, axis=0)
            np.testing.assert_allclose(
                MapElement("c", "ped_crossing", rolled).points, stored, atol=1e-12
            )

    def test_points_read_only(self):
        el = line_element("e", "divider", (0, 0), (1, 0))
        with pytest.raises(ValueError):
            el.points[0, 0] = 9.0

    def test_with_points(self):
        el = line_element("e", "divider", (0, 0), (1, 0))
        moved = el.with_points(el.points + 1.0, is_main=True)
        assert moved.id == "e" and moved.label == "divider" and moved.is_main
        np.testing.assert_allclose(moved.points, [[1, 1], [2, 1]])


class TestVectorMap:
    def test_duplicate_ids_rejected(self):
        a = line_element("x", "divider", (0, 0), (1, 0))
        b = line_element("x", "boundary", (0, 1), (1, 1))
        with pytest.raises(ValueError, match="duplicate"):
            VectorMap((a, b), "world")

    def test_ego_requires_pose(self):
        el = line_element("x", "divider", (0, 0), (1, 0))
        with pytest.raises(ValueError, match="pose"):
            VectorMap((el,), "ego")
        VectorMap((el,), "ego", Pose.identity())

    def test_unknown_frame(self):
        with pytest.raises(ValueError, match="frame"):
            VectorMap((), "map")

    def test_element_lookup(self, small_world_map):
        assert small_world_map.element("d1").label == "divider"
        with pytest.raises(KeyError):
            small_world_map.element("nope")
        assert len(small_world_map) == 3

    def test_to_world_identity_for_world_maps(self, small_world_map):
        assert to_world(small_world_map) is small_world_map

    def test_to_world_applies_pose(self):
        el = line_element("x", "divider", (1, 0), (2, 0))
        ego = VectorMap((el,), "ego", Pose.from_yaw(np.pi / 2, 5.0, 5.0))
        world = to_world(ego)
        assert world.frame == "world"
        np.testing.assert_allclose(world.element("x").points, [[5, 6], [5, 7]], atol=1e-12)


class TestConcatenate:
    def test_counts_and_main_flags(self, small_world_map):
        sec = VectorMap((line_element("s", "divider", (0, 9), (1, 9)),), "world")
        out = concatenate(small_world_map, [sec, sec])
        assert len(out) == 5
        mains = [el.id for el in out.elements if el.is_main]
        assert mains == ["0:b1", "0:d1", "0:c1"]
        assert {el.id for el in out.elements if not el.is_main} == {"1:s", "2:s"}

    def test_bootstrap_empty_main(self):
        sec = VectorMap((line_element("s", "divider", (0, 0), (1, 0)),), "world")
        out = concatenate(VectorMap((), "world"), [sec])
        assert [el.is_main for el in out.elements] == [False]
        assert out.elements[0].id == "1:s"

    def test_ego_secondary_transformed(self):
        sec = VectorMap(
            (line_element("s", "divider", (1, 0), (2, 0)),),
            "ego",
            Pose.from_yaw(np.pi / 2, 5.0, 5.0),
        )
        out = concatenate(VectorMap((), "world"), [sec])
        np.testing.assert_allclose(out.element("1:s").points, [[5, 6], [5, 7]], atol=1e-12)

    def test_builds_each_element_once(self, small_world_map, monkeypatch):
        # a tilted crossing whose canonical first corner changes under the pose
        crossing = MapElement("c", "ped_crossing", rect_quad(3.0, 1.0, 4.0, 3.0, angle=0.3))
        ego = VectorMap(
            (line_element("s", "divider", (1, 0), (2, 0), n=3), crossing),
            "ego",
            Pose.from_yaw(2.0, 5.0, 5.0),
        )
        moved = transform_to_world(crossing.points, ego.pose)
        built, batches = [], []
        post_init = MapElement.__post_init__
        certify = map_model._certified_elements

        def counting(el):
            built.append(el.id)
            post_init(el)

        def batched(specs):
            batches.append([spec[0] for spec in specs])
            return certify(specs)

        monkeypatch.setattr(MapElement, "__post_init__", counting)
        monkeypatch.setattr(map_model, "_certified_elements", batched)
        out = concatenate(small_world_map, [ego])
        # world elements are re-tagged unchecked, and the moved ego elements
        # go to one batch check, which leaves a batch this small to MapElement
        assert batches == [["1:s", "1:c"]]
        assert built == ["1:s", "1:c"]
        monkeypatch.undo()
        world = to_world(ego)
        assert not np.array_equal(world.element("c").points[0], moved[0])
        for el in ego.elements:
            expected = world.element(el.id).points
            assert out.element(f"1:{el.id}").points.tobytes() == expected.tobytes()

    def test_one_transform_for_all_ego_maps_with_per_element_bits(self, small_world_map, monkeypatch):
        rng = np.random.default_rng(41)
        egos = [
            VectorMap(tuple(MapElement(f"e{k}", "divider", random_polyline(rng, scale=30.0))
                            for k in range(int(rng.integers(1, 6))))
                      + (MapElement("c", "ped_crossing", rect_quad(3.0, 1.0, 4.0, 3.0, 0.3)),),
                      "ego", Pose.from_yaw(rng.uniform(-np.pi, np.pi), *rng.uniform(-1e5, 1e5, 2)))
            for _ in range(3)
        ]
        calls = []
        kernel = map_model._transform_rows

        def counting(points, rotations, translations):
            calls.append(len(points))
            return kernel(points, rotations, translations)

        monkeypatch.setattr(map_model, "_transform_rows", counting)
        out = concatenate(small_world_map, egos)
        assert calls == [sum(len(el.points) for ego in egos for el in ego.elements)]
        for idx, ego in enumerate(egos, start=1):
            for el in ego.elements:
                expected = MapElement("x", el.label, transform_to_world(el.points, ego.pose)).points
                assert out.element(f"{idx}:{el.id}").points.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["ego", "world"]), st.integers(0, 4),
                              st.floats(-np.pi, np.pi), st.sampled_from([0.0, 1e3, 1e6]),
                              st.integers(0, 2**32 - 1)), min_size=1, max_size=5))
    def test_matches_per_view_to_world(self, specs):
        # ego and world sources, empty ones too, the main map among them
        maps = []
        for frame, n, yaw, offset, seed in specs:
            rng = np.random.default_rng(seed)
            elements = [MapElement(f"e{k}", "divider", random_polyline(rng, scale=30.0))
                        for k in range(n)]
            if n and rng.random() < 0.5:
                elements.append(MapElement("c", "ped_crossing",
                                           rect_quad(*rng.uniform(-20, 20, 2), 4.0, 3.0, yaw)))
            pose = Pose.from_yaw(yaw, *(offset * rng.uniform(-1, 1, 2))) if frame == "ego" else None
            maps.append(VectorMap(tuple(elements), frame, pose))
        out = concatenate(maps[0], maps[1:])
        assert len(out) == sum(len(vmap) for vmap in maps)
        for idx, vmap in enumerate(maps):
            for el in to_world(vmap).elements:
                assert out.element(f"{idx}:{el.id}").points.tobytes() == el.points.tobytes()

    def test_inputs_not_mutated(self, small_world_map):
        before = [el.points.copy() for el in small_world_map.elements]
        concatenate(small_world_map, [small_world_map])
        for el, pts in zip(small_world_map.elements, before):
            np.testing.assert_array_equal(el.points, pts)


# offsets of drawn lines and crossings from the origin, in metres
_offset = st.sampled_from([0.0, 1.0, 1e3, 1e5, 1e7]).flatmap(
    lambda d: st.tuples(st.sampled_from([-d, d]), st.sampled_from([-d, d])))
# relative moves of a quad's critical cross product or area off the cut
_near = st.sampled_from([-1e-6, -1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9, 1e-6])


def _cross(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _area(c):
    (x0, y0), *rest = c.tolist()
    (x1, y1), (x2, y2), (x3, y3) = [(x - x0, y - y0) for x, y in rest]
    return 0.5 * ((x1 * y2 - x2 * y1) + (x2 * y3 - x3 * y2))


def _cut(c):
    """The tol of MapElement's crossing test for corners c."""
    c = c.tolist()
    diameter = max(math.hypot(c[i][0] - c[j][0], c[i][1] - c[j][1])
                   for i in range(4) for j in range(i + 1, 4))
    return 1e-12 + 8 * map_model._EPS * max(abs(v) for xy in c for v in xy) * diameter


# quads of size s and one free height h, and the value that h sets: the
# area of a thin parallelogram (its cross products at corners 1 and 2 too),
# the cross product of a straight angle at corner 1, and that of a bow-tie
# whose edge 2-3 meets edge 0-1 within 2h
_AT_CUT = {
    "thin": (lambda h, s: [[0, 0], [s, 0], [3 * s, h], [2 * s, h]], _area),
    "straight": (lambda h, s: [[0, 0], [s, 0], [2 * s, h], [0, 5 * s]],
                 lambda c: _cross(*c[:3].tolist())),
    "bowtie": (lambda h, s: [[0, 0], [2 * s, 0], [s, -h], [s, 5 * s]],
               lambda c: _cross(*c[:3].tolist())),
}


@st.composite
def _crossing(draw):
    kind = draw(st.sampled_from(["valid", "coincident", "bowtie", "collinear", "cut", "cut", "cut"]))
    offset = np.array(draw(_offset))
    if kind == "cut":
        shape, value = _AT_CUT[draw(st.sampled_from(sorted(_AT_CUT)))]
        # the shift is along x alone and the h of a corner stays near y = 0,
        # so h is not rounded to the float grid of the shift; at size 1e3,
        # or shifted, the diameter term leads the cut
        size = draw(st.sampled_from([1.0, 1e3]))
        shift = np.array([draw(st.sampled_from([0.0, 1e3, 1e7])), 0.0])
        # scale h until its value sits at the cut
        h = 1e-12
        for _ in range(4):
            q = np.array(shape(h, size), float) + shift
            h *= _cut(q) / abs(value(q))
        q = np.array(shape(h * (1.0 + draw(_near)), size), float) + shift
    elif kind == "collinear":
        along = draw(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
        q = offset + np.outer(along, [np.cos(0.4), np.sin(0.4)])
    else:
        q = rect_quad(*offset, draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0)),
                      draw(st.floats(0.0, np.pi)))
        if kind == "coincident":
            i, j = draw(st.sampled_from([(0, 1), (0, 2), (1, 3), (2, 3)]))
            q[j] = q[i] + draw(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]))
        elif kind == "bowtie":
            q[[2, 3]] = q[[3, 2]]
    q = np.roll(q, draw(st.integers(0, 3)), axis=0)
    return q[::-1] if draw(st.booleans()) else q


# line steps: 1e-10 rounds away at the larger offsets
_lattice_step = st.sampled_from([0.0, 1e-10, 0.25, -1.5, 3.0])


@st.composite
def _line(draw):
    kind = draw(st.sampled_from(["valid", "valid", "zero", "flat_start", "not_finite", "short"]))
    n = draw(st.integers(2, 6))
    pts = np.array(draw(_offset)) + np.array(
        draw(st.lists(st.tuples(_lattice_step, _lattice_step), min_size=n, max_size=n)))
    if kind == "zero":
        pts[:] = pts[0]
    elif kind == "flat_start":
        # a first step of 0: the rest of the line decides
        pts[1] = pts[0]
    elif kind == "not_finite":
        pts[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "short":
        pts = pts[:draw(st.integers(0, 1))]
    return pts


@st.composite
def _batch(draw):
    """(id, label, points, is_main) specs of lines and crossings, valid or
    not, with now and then a field or a point container MapElement must
    judge itself."""
    specs = []
    for k in range(draw(st.integers(0, 8))):
        label = draw(st.sampled_from(LABELS))
        pts = draw(_crossing() if label == "ped_crossing" else _line())
        form = draw(st.sampled_from(["array"] * 6 + ["list", "fortran", "float32", "label", "id"]))
        el_id = f"e{k}"
        if form == "list":
            pts = pts.tolist()
        elif form == "fortran":
            pts = np.asfortranarray(pts)
        elif form == "float32":
            pts = pts.astype(np.float32)
        elif form == "label":
            label = "lane"
        elif form == "id":
            el_id = ""
        specs.append((el_id, label, pts, draw(st.booleans())))
    return specs


def _assert_same_element(a, b):
    assert isinstance(a, MapElement)
    assert (a.id, a.label, a.is_main) == (b.id, b.label, b.is_main)
    assert a.points.dtype == b.points.dtype
    assert a.points.shape == b.points.shape
    assert a.points.tobytes() == b.points.tobytes()
    assert a.points.flags.c_contiguous and b.points.flags.c_contiguous
    assert not a.points.flags.writeable and not b.points.flags.writeable


def _copies(specs):
    return [(el_id, label, pts.copy() if isinstance(pts, np.ndarray) else pts, is_main)
            for el_id, label, pts, is_main in specs]


class TestBatchBuild:
    @settings(max_examples=500, deadline=None)
    @given(_batch())
    def test_equals_map_element(self, specs):
        try:
            expected = [MapElement(*spec) for spec in _copies(specs)]
        except ValueError as exc:
            expected = str(exc)
        # batches of any size, small ones included, go through the batch check
        with mock.patch.object(map_model, "_BATCH_MIN", 0):
            try:
                got = map_model._build_elements(_copies(specs))
            except ValueError as exc:
                got = str(exc)
            certified = map_model._certified_elements(_copies(specs))
        # where MapElement raises, the batch raises its text for the first bad element
        if isinstance(expected, str):
            assert got == expected
        else:
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                _assert_same_element(a, b)
        # past the first bad element too, every element the batch certifies
        # is one MapElement builds the same
        for el, spec in zip(certified, _copies(specs)):
            if el is not None:
                _assert_same_element(el, MapElement(*spec))

    def test_bench_grid_scene_builds_nothing_one_by_one(self, monkeypatch):
        # the benchmark's grid scene at seed 0: every noisy crossing is
        # certified by the batch, and stacking its world-frame views runs no
        # element check
        bench_dir = str(Path(__file__).resolve().parent.parent / "bench")
        sys.path.insert(0, bench_dir)
        try:
            import scenes
        finally:
            sys.path.remove(bench_dir)
        gt = scenes.ground_truth(scenes.GRID)
        quads, checks, batched = [], [], []
        canonical_quad = map_model._canonical_quad
        post_init = MapElement.__post_init__
        certify = map_model._certified_elements

        def counted_quad(pts):
            quads.append(1)
            return canonical_quad(pts)

        def counted_check(el):
            checks.append(el.id)
            post_init(el)

        def counted_batch(specs):
            batched.extend(spec[0] for spec in specs)
            return certify(specs)

        monkeypatch.setattr(map_model, "_canonical_quad", counted_quad)
        views = scenes.views(scenes.GRID, gt, 0)
        assert quads == []
        assert sum(el.label == "ped_crossing" for v in views for el in v.elements) > 200
        worlds = [to_world(v) for v in views]
        monkeypatch.setattr(MapElement, "__post_init__", counted_check)
        monkeypatch.setattr(map_model, "_certified_elements", counted_batch)
        out = concatenate(worlds[0], worlds[1:])
        assert checks == [] and batched == []
        assert len(out) == sum(len(v) for v in views)


class TestSerialization:
    def test_round_trip_random_map(self, tmp_path):
        rng = np.random.default_rng(23)
        vmap = random_world_map(rng, 40)
        path = tmp_path / "m.json"
        save_map(vmap, path)
        loaded = load_map(path)
        assert loaded.frame == "world"
        assert len(loaded) == len(vmap)
        for a, b in zip(vmap.elements, loaded.elements):
            assert a.id == b.id and a.label == b.label and a.is_main == b.is_main
            np.testing.assert_array_equal(a.points, b.points)

    def test_round_trip_ego_pose(self, tmp_path):
        vmap = VectorMap(
            (line_element("x", "boundary", (0, 0), (4, 0)),),
            "ego",
            Pose.from_yaw(0.3, 1.0, 2.0),
        )
        path = tmp_path / "ego.json"
        save_map(vmap, path)
        loaded = load_map(path)
        assert loaded.frame == "ego"
        np.testing.assert_array_equal(loaded.pose.rotation, vmap.pose.rotation)
        np.testing.assert_array_equal(loaded.pose.translation, vmap.pose.translation)

    def test_resave_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(29)
        vmap = random_world_map(rng, 10)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_map(vmap, p1)
        save_map(load_map(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_temp_leftovers(self, tmp_path):
        save_map(VectorMap((), "world"), tmp_path / "m.json")
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_failed_replace_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        save_map(VectorMap((), "world"), path)
        before = path.read_bytes()

        def boom(*args):
            raise OSError("induced")

        monkeypatch.setattr("polymerge.map_model.os.replace", boom)
        with pytest.raises(OSError):
            save_map(random_world_map(np.random.default_rng(3), 5), path)
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
        assert path.read_bytes() == before

    def test_merged_map_beyond_the_range_is_not_written(self, tmp_path):
        # both inputs are within the range; the fold extends the main line
        # past its end to x = 1.2e16, which load_map would reject
        main = VectorMap((MapElement("d", "divider", [(0, 0), (1e16, 5e15)]),), "world")
        sec = VectorMap((MapElement("d", "divider", [(1e16, 5e15), (1e16, 1e16)]),), "world")
        merged = merge_maps(main, [sec], MergeConfig())
        path = tmp_path / "m.json"
        save_map(VectorMap((), "world"), path)
        before = path.read_bytes()
        with pytest.raises(MapFormatError, match=rf"^element '0:d': points\[2\] {_RANGE}$"):
            save_map(merged, path)
        with pytest.raises(MapFormatError, match=rf"^element '0:d': points\[2\] {_RANGE}$"):
            save_map(merged, tmp_path / "new.json")
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
        assert path.read_bytes() == before

    def test_pose_translation_beyond_the_range_is_not_written(self, tmp_path):
        far = float(np.nextafter(1e16, np.inf))
        vmap = VectorMap((), "ego", Pose(np.array([1.0, 0, 0, 0]), np.array([0, far, 0])))
        with pytest.raises(MapFormatError, match=rf"^pose translation {_RANGE}$"):
            save_map(vmap, tmp_path / "m.json")
        assert list(tmp_path.iterdir()) == []
        edge = VectorMap((line_element("e", "divider", (0, -1e16), (1e16, 0)),), "ego",
                         Pose(np.array([1.0, 0, 0, 0]), np.array([0, -1e16, 0])))
        save_map(edge, tmp_path / "edge.json")
        assert load_map(tmp_path / "edge.json").element("e").points.tolist() == [[0, -1e16], [1e16, 0]]

    @pytest.mark.parametrize("umask", [0o022, 0o027])
    def test_written_file_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with atomic_writer(tmp_path / "r.csv") as fh:
                fh.write("a,b\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "r.csv").stat().st_mode) == 0o666 & ~umask


# ids that need escaping: quotes, backslashes, control characters, non-ASCII
# and astral (surrogate-pair) characters, mixed with free text
_id_chars = st.one_of(
    st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u4e2d",
                     "\u2028", "\U0001f600", "\U0001d11e"]),
    st.characters(),
)
# floats whose repr needs care: signed zero, subnormals, exponents either
# side of 1e16 (repr switches to '1e+16' there), and offsets up to 1e6 m
_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300,
                     1e15, 1e16, -1e16, 123456789012345.67, 0.1, 1e6 + 0.1]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(-1e-5, 1e-5, allow_nan=False, allow_infinity=False),
)


@st.composite
def _any_element(draw, el_id):
    is_main = draw(st.booleans())
    if draw(st.booleans()):
        w, h = draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0))
        center = draw(st.sampled_from([0.0, 1e3, 1e6, -1e6]))
        return quad_element(el_id, center, -center, w, h, draw(st.floats(0.0, 3.2)), is_main)
    pts = np.array(draw(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=6)))
    assume(np.any(np.diff(pts, axis=0) ** 2))
    return MapElement(el_id, draw(st.sampled_from(["divider", "boundary"])), pts, is_main)


@st.composite
def _any_map(draw):
    ids = draw(st.lists(st.text(_id_chars, min_size=1, max_size=8), max_size=5, unique=True))
    elements = tuple(draw(_any_element(el_id)) for el_id in ids)
    if draw(st.booleans()):
        return VectorMap(elements, "world")
    pose = Pose.from_yaw(draw(st.floats(-4.0, 4.0)), draw(_coord), draw(_coord))
    return VectorMap(elements, "ego", pose)


class TestWriterLayout:
    @settings(max_examples=300, deadline=None)
    @given(_any_map())
    def test_bytes_equal_json_dump(self, tmp_path_factory, vmap):
        tmp = tmp_path_factory.mktemp("w")
        save_map(vmap, tmp / "m.json")
        with open(tmp / "ref.json", "w", encoding="utf-8") as fh:
            json.dump(reference_map_doc(vmap), fh, indent=2)
            fh.write("\n")
        assert (tmp / "m.json").read_bytes() == (tmp / "ref.json").read_bytes()

    @pytest.mark.parametrize("vmap", [
        VectorMap((), "world"),
        VectorMap((), "ego", Pose.from_yaw(0.3, 1e16, -0.0)),
    ], ids=["world", "ego"])
    def test_empty_map(self, tmp_path, vmap):
        save_map(vmap, tmp_path / "m.json")
        expected = json.dumps(reference_map_doc(vmap), indent=2) + "\n"
        assert (tmp_path / "m.json").read_text(encoding="utf-8") == expected
        assert load_map(tmp_path / "m.json").frame == vmap.frame


_RANGE = r"holds a number beyond the coordinate range \[-1e16, 1e16\] m"


def _write(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoadErrors:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MapFormatError, match="invalid JSON"):
            load_map(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"frame": "world", "elements": [{"id": "caf\xe9", "label": "divider",'
                         b' "points": [[0, 0], [1, 0]]}]}')
        with pytest.raises(MapFormatError, match="latin1.json: not UTF-8 text"):
            load_map(path)

    @pytest.mark.parametrize("key", ["rotation", "translation"])
    def test_pose_integer_beyond_the_float_range(self, tmp_path, key):
        pose = {"rotation": [1, 0, 0, 0], "translation": [0, 0, 0]}
        pose[key][1] = 10**400
        path = _write(tmp_path, {"frame": "ego", "pose": pose, "elements": []})
        with pytest.raises(MapFormatError, match=rf"bad.json: pose {key} {_RANGE}"):
            load_map(path)

    @pytest.mark.parametrize("far", [float(np.nextafter(1e16, np.inf)), -1e155])
    def test_pose_translation_beyond_the_coordinate_range(self, tmp_path, far):
        pose = {"rotation": [1, 0, 0, 0], "translation": [0, far, 0]}
        path = _write(tmp_path, {"frame": "ego", "pose": pose, "elements": []})
        with pytest.raises(MapFormatError, match=rf"bad.json: pose translation {_RANGE}"):
            load_map(path)

    def test_top_level_not_object(self, tmp_path):
        with pytest.raises(MapFormatError, match="top level"):
            load_map(_write(tmp_path, [1, 2]))

    def test_missing_frame(self, tmp_path):
        with pytest.raises(MapFormatError, match="'frame'"):
            load_map(_write(tmp_path, {"elements": []}))

    def test_bad_frame_value(self, tmp_path):
        with pytest.raises(MapFormatError, match="'frame'"):
            load_map(_write(tmp_path, {"frame": "map", "elements": []}))

    def test_ego_without_pose(self, tmp_path):
        with pytest.raises(MapFormatError, match="'pose'"):
            load_map(_write(tmp_path, {"frame": "ego", "elements": []}))

    def test_bad_rotation_shape(self, tmp_path):
        doc = {
            "frame": "ego",
            "pose": {"rotation": [1, 0, 0], "translation": [0, 0, 0]},
            "elements": [],
        }
        with pytest.raises(MapFormatError, match="rotation"):
            load_map(_write(tmp_path, doc))

    def test_bad_translation_shape(self, tmp_path):
        doc = {
            "frame": "ego",
            "pose": {"rotation": [1, 0, 0, 0], "translation": [0, 0]},
            "elements": [],
        }
        with pytest.raises(MapFormatError, match="translation"):
            load_map(_write(tmp_path, doc))

    @pytest.mark.parametrize("key, bad", [
        ("rotation", ["1", 0, 0, 0]), ("rotation", [1, 0, 0, False]), ("translation", [0, None, 0]),
    ])
    def test_pose_component_that_is_not_a_number(self, tmp_path, key, bad):
        pose = {"rotation": [1, 0, 0, 0], "translation": [0, 0, 0], key: bad}
        with pytest.raises(MapFormatError, match=f"pose {key} must hold numbers"):
            load_map(_write(tmp_path, {"frame": "ego", "pose": pose, "elements": []}))

    def test_elements_not_list(self, tmp_path):
        with pytest.raises(MapFormatError, match="'elements'"):
            load_map(_write(tmp_path, {"frame": "world", "elements": {}}))

    def test_element_missing_id(self, tmp_path):
        doc = {"frame": "world", "elements": [{"label": "divider", "points": [[0, 0], [1, 0]]}]}
        with pytest.raises(MapFormatError, match="'id'"):
            load_map(_write(tmp_path, doc))

    def test_unknown_label_names_element(self, tmp_path):
        doc = {"frame": "world", "elements": [{"id": "e7", "label": "lane", "points": [[0, 0], [1, 0]]}]}
        with pytest.raises(MapFormatError, match="'e7'.*lane"):
            load_map(_write(tmp_path, doc))

    def test_single_vertex_names_element(self, tmp_path):
        doc = {"frame": "world", "elements": [{"id": "e9", "label": "divider", "points": [[0, 0]]}]}
        with pytest.raises(MapFormatError, match="'e9'"):
            load_map(_write(tmp_path, doc))

    def test_zero_length_divider_names_element(self, tmp_path):
        doc = {"frame": "world", "elements": [{"id": "z", "label": "divider", "points": [[1, 1], [1, 1]]}]}
        with pytest.raises(MapFormatError, match="bad.json.*'z'.*zero arc length"):
            load_map(_write(tmp_path, doc))

    def test_first_error_in_file_order_across_error_kinds(self, tmp_path):
        # element 3 fails MapElement's rule and element 12 a JSON field
        # check, in a file as long as a batch check would take: the one
        # earlier in the file is named
        elements = [{"id": f"e{k}", "label": "divider", "points": [[0, k], [1, k]]} for k in range(20)]
        elements[3]["points"] = [[2, 3], [2, 3], [2, 3]]
        elements[12]["points"] = [[0, 12], ["1.5", 0]]
        path = _write(tmp_path, {"frame": "world", "elements": elements})
        with pytest.raises(MapFormatError) as info:
            load_map(path)
        assert str(info.value) == f"{path}: element 'e3': polyline has zero arc length: its vertices coincide"
        out = tmp_path / "merged.json"
        result = CliRunner().invoke(cli_main, ["merge", "--bootstrap", "--secondary", str(path),
                                               "--out", str(out)])
        assert result.exit_code == 2
        assert "'e3'" in result.output and "'e12'" not in result.output
        assert not out.exists()

    def test_bad_point_pair(self, tmp_path):
        doc = {"frame": "world", "elements": [{"id": "e", "label": "divider", "points": [[0, 0], [1]]}]}
        with pytest.raises(MapFormatError, match=r"points\[1\]"):
            load_map(_write(tmp_path, doc))

    @pytest.mark.parametrize("bad", ["1.5", " 7 ", True, False, None, [1], {"x": 1}])
    def test_coordinate_that_is_not_a_number(self, tmp_path, bad):
        doc = {"frame": "world", "elements": [{"id": "e", "label": "divider", "points": [[0, 0], [1, bad]]}]}
        with pytest.raises(MapFormatError, match=r"'e': points\[1\] must hold two numbers"):
            load_map(_write(tmp_path, doc))

    def test_integer_coordinates_load_as_floats(self, tmp_path):
        doc = {"frame": "world", "elements": [
            {"id": "e", "label": "divider", "points": [[0, -3], [2**53 + 1, 2.5]]}]}
        pts = load_map(_write(tmp_path, doc)).element("e").points
        assert pts.dtype == np.float64
        assert pts.tolist() == [[0.0, -3.0], [float(2**53 + 1), 2.5]]

    def test_integer_beyond_the_float_range(self, tmp_path):
        doc = {"frame": "world", "elements": [
            {"id": "e", "label": "divider", "points": [[0, 0], [1, 1], [10**400, 0]]}]}
        with pytest.raises(MapFormatError, match=rf"'e': points\[2\] {_RANGE}"):
            load_map(_write(tmp_path, doc))

    def test_coordinate_range_bound_is_inclusive(self, tmp_path):
        doc = {"frame": "world", "elements": [
            {"id": "e", "label": "divider", "points": [[0, -1e16], [1e16, 2.5]]}]}
        assert load_map(_write(tmp_path, doc)).element("e").points.tolist() == [[0, -1e16], [1e16, 2.5]]

    @pytest.mark.parametrize("far", [float(np.nextafter(1e16, np.inf)), 1e155])
    def test_coordinate_beyond_the_range_names_the_point(self, tmp_path, far):
        # the number as written is repr(far): 1.0000000000000002e+16, 1e+155
        doc = {"frame": "world", "elements": [
            {"id": "ok", "label": "divider", "points": [[0, 0], [1, 1]]},
            {"id": "e", "label": "divider", "points": [[0, 0], [1, 1], [2, 2], [3, -far], [4, 4]]}]}
        with pytest.raises(MapFormatError, match=rf"bad.json: element 'e': points\[3\] {_RANGE}"):
            load_map(_write(tmp_path, doc))

    def test_nan_coordinate_is_not_finite(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"frame": "world", "elements": [{"id": "e", "label": "divider",'
                        ' "points": [[0, 0], [1, NaN]]}]}')
        with pytest.raises(MapFormatError, match="'e'.*finite"):
            load_map(path)

    def test_is_main_not_bool(self, tmp_path):
        doc = {
            "frame": "world",
            "elements": [{"id": "e", "label": "divider", "is_main": 1, "points": [[0, 0], [1, 0]]}],
        }
        with pytest.raises(MapFormatError, match="'is_main'"):
            load_map(_write(tmp_path, doc))

    def test_errors_name_the_file(self, tmp_path):
        path = _write(tmp_path, {"frame": "world"})
        with pytest.raises(MapFormatError, match="bad.json"):
            load_map(path)

    def test_is_main_defaults_false(self, tmp_path):
        doc = {"frame": "world", "elements": [{"id": "e", "label": "divider", "points": [[0, 0], [1, 0]]}]}
        assert load_map(_write(tmp_path, doc)).element("e").is_main is False


def test_labels_constant():
    assert LABELS == ("ped_crossing", "divider", "boundary")
