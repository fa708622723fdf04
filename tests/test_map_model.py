"""Data model validation, canonicalization and JSON round trips."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymerge import (
    LABELS,
    MapElement,
    MapFormatError,
    Pose,
    VectorMap,
    concatenate,
    load_map,
    save_map,
    to_world,
)
from polymerge.geometry import transform_to_world
from polymerge.map_model import atomic_writer

from helpers import line_element, quad_element, random_world_map, rect_quad
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
        built = []
        post_init = MapElement.__post_init__

        def counting(el):
            built.append(el.id)
            post_init(el)

        monkeypatch.setattr(MapElement, "__post_init__", counting)
        out = concatenate(small_world_map, [ego])
        assert built == ["0:b1", "0:d1", "0:c1", "1:s", "1:c"]
        monkeypatch.undo()
        world = to_world(ego)
        assert not np.array_equal(world.element("c").points[0], moved[0])
        for el in ego.elements:
            expected = world.element(el.id).points
            assert out.element(f"1:{el.id}").points.tobytes() == expected.tobytes()

    def test_inputs_not_mutated(self, small_world_map):
        before = [el.points.copy() for el in small_world_map.elements]
        concatenate(small_world_map, [small_world_map])
        for el, pts in zip(small_world_map.elements, before):
            np.testing.assert_array_equal(el.points, pts)


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

    def test_bad_point_pair(self, tmp_path):
        doc = {"frame": "world", "elements": [{"id": "e", "label": "divider", "points": [[0, 0], [1]]}]}
        with pytest.raises(MapFormatError, match=r"points\[1\]"):
            load_map(_write(tmp_path, doc))

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
