"""Synthetic windowed observations of a ground-truth map."""

import json
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymerge.synth as synth
from polymerge import geometry
from polymerge import (
    MapElement,
    MapFormatError,
    NoiseConfig,
    Pose,
    VectorMap,
    generate_instances,
    straight_path_poses,
    to_world,
    write_instances,
)
from polymerge.geometry import transform_to_world

from helpers import line_element, quad_element, rect_quad
from oracles import (_reference_crop_polyline, reference_clip_polygon,
                     reference_generate_instances)


def _gt_map():
    return VectorMap(
        (
            line_element("d1", "divider", (0, 3), (20, 3), n=9),
            line_element("b1", "boundary", (0, -3), (20, -3), n=9),
            quad_element("c1", 10, 0, w=4, h=2, angle=0.3),
        ),
        "world",
    )


class TestNoiseConfig:
    def test_defaults(self):
        cfg = NoiseConfig()
        assert cfg.sigma == 0.0
        assert cfg.dropout == 0.0
        assert cfg.window == (30.0, 60.0)
        assert cfg.n_instances == 1
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": -0.1},
            {"dropout": -0.01},
            {"dropout": 1.0},
            {"window": (0.0, 10.0)},
            {"window": (10.0, -5.0)},
            {"n_instances": 0},
            {"sigma": math.nan},
            {"sigma": math.inf},
            {"window": (math.nan, 60.0)},
            {"window": (30.0, math.inf)},
            {"window": (-math.inf, 60.0)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NoiseConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"seed": -5}, "seed"), ({"seed": -1}, "seed"),
        ({"window": (1.0, 2.0, 3.0)}, "window"), ({"window": (30.0,)}, "window"),
        ({"window": 30.0}, "window"), ({"window": "ab"}, "window"),
        ({"window": (30.0, None)}, "window"), ({"seed": 1.5}, "seed"),
        ({"seed": "3"}, "seed"), ({"seed": np.float64(2.0)}, "seed"),
    ])
    def test_error_names_the_field(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            NoiseConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"sigma": "a"}, "sigma"), ({"sigma": None}, "sigma"), ({"sigma": True}, "sigma"),
        ({"dropout": "a"}, "dropout"), ({"n_instances": "2"}, "n_instances"),
        ({"n_instances": 1.5}, "n_instances"), ({"n_instances": True}, "n_instances"),
        ({"seed": True}, "seed"), ({"window": (True, 60.0)}, "window"),
    ])
    def test_wrong_type_names_the_field(self, kwargs, name):
        # numbers are ints or floats, numpy's too, never bools or strings
        with pytest.raises(ValueError, match=name):
            NoiseConfig(**kwargs)

    @pytest.mark.parametrize("window", [[30, 60], (30, 60), np.array([30.0, 60.0]),
                                        (np.int64(30), np.float32(60.0))])
    def test_window_kept_as_a_tuple_of_floats(self, window):
        # a list or an array would leave the frozen config unhashable
        cfg = NoiseConfig(sigma=0.2, window=window)
        assert cfg.window == (30.0, 60.0)
        assert all(type(side) is float for side in cfg.window)
        assert cfg == NoiseConfig(sigma=0.2)
        assert hash(cfg) == hash(NoiseConfig(sigma=0.2))
        gt = _gt_map()
        poses = straight_path_poses(gt, 3)
        _assert_same_instances(generate_instances(gt, poses, cfg),
                               generate_instances(gt, poses, NoiseConfig(sigma=0.2)))

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint8(7), np.int32(7)])
    def test_numpy_integer_seed_matches_python_int(self, seed):
        # more views than a uint8 holds: instance k's stream is seed ^ k
        gt = _gt_map()
        poses = straight_path_poses(gt, 300)
        got = generate_instances(gt, poses, NoiseConfig(sigma=0.2, dropout=0.3, seed=seed))
        expected = generate_instances(gt, poses, NoiseConfig(sigma=0.2, dropout=0.3, seed=7))
        _assert_same_instances(got, expected)


class TestGenerateInstances:
    def test_noise_free_full_window_round_trip(self):
        gt = _gt_map()
        poses = [Pose.from_yaw(0.3, 2.0, 1.0), Pose.from_yaw(-0.2, 5.0, -1.0)]
        cfg = NoiseConfig(window=(200.0, 200.0))
        instances = generate_instances(gt, poses, cfg)
        assert len(instances) == 2
        for inst, pose in zip(instances, poses):
            assert inst.frame == "ego"
            assert inst.pose is pose
            world = to_world(inst)
            assert len(world) == len(gt)
            for el in gt.elements:
                np.testing.assert_allclose(
                    world.element(el.id).points, el.points, atol=1e-9
                )

    def test_polyline_split_into_window_runs(self):
        u = MapElement(
            "u", "divider",
            [(-4.0, 4.0), (-4.0, 8.0), (4.0, 8.0), (4.0, 4.0)],
        )
        gt = VectorMap((u,), "world")
        cfg = NoiseConfig(window=(10.0, 10.0))
        inst = generate_instances(gt, [Pose.identity()], cfg)[0]
        ids = sorted(el.id for el in inst.elements)
        assert ids == ["u", "u#1"]
        np.testing.assert_allclose(inst.element("u").points, [(-4, 4), (-4, 5)])
        np.testing.assert_allclose(inst.element("u#1").points, [(4, 5), (4, 4)])

    def test_partially_visible_quad_refit_to_window_overlap(self):
        quad = quad_element("c", 4.0, 0.0, w=6, h=2, angle=0.0)
        gt = VectorMap((quad,), "world")
        inst = generate_instances(gt, [Pose.identity()], NoiseConfig(window=(10.0, 10.0)))[0]
        got = inst.element("c")
        expected = MapElement("c", "ped_crossing", [(1, -1), (5, -1), (5, 1), (1, 1)])
        np.testing.assert_allclose(got.points, expected.points, atol=1e-9)

    def test_invisible_elements_dropped(self):
        gt = VectorMap(
            (
                line_element("far", "divider", (100, 100), (120, 100)),
                quad_element("c", 200.0, 0.0),
            ),
            "world",
        )
        inst = generate_instances(gt, [Pose.identity()], NoiseConfig(window=(10.0, 10.0)))[0]
        assert len(inst) == 0

    def test_deterministic_reruns(self):
        gt = _gt_map()
        poses = straight_path_poses(gt, 3)
        cfg = NoiseConfig(sigma=0.15, dropout=0.2, window=(12.0, 12.0), seed=9)
        a = generate_instances(gt, poses, cfg)
        b = generate_instances(gt, poses, cfg)
        for x, y in zip(a, b):
            assert [e.id for e in x.elements] == [e.id for e in y.elements]
            for ex, ey in zip(x.elements, y.elements):
                assert np.array_equal(ex.points, ey.points)

    def test_instance_streams_use_xored_seed(self):
        gt = _gt_map()
        poses = [Pose.from_yaw(0.0, 8.0, 0.0), Pose.from_yaw(0.0, 12.0, 0.0)]
        cfg = NoiseConfig(sigma=0.1, dropout=0.3, window=(14.0, 14.0), seed=6)
        second = generate_instances(gt, poses, cfg)[1]
        alone = generate_instances(gt, [poses[1]], NoiseConfig(
            sigma=0.1, dropout=0.3, window=(14.0, 14.0), seed=6 ^ 1
        ))[0]
        assert [e.id for e in second.elements] == [e.id for e in alone.elements]
        for x, y in zip(second.elements, alone.elements):
            assert np.array_equal(x.points, y.points)

    def test_noise_magnitude_matches_sigma(self):
        n = 1500
        xs = np.linspace(-9.0, 9.0, n)
        line = MapElement("l", "divider", np.column_stack([xs, np.zeros(n)]))
        gt = VectorMap((line,), "world")
        cfg = NoiseConfig(sigma=0.2, window=(20.0, 20.0), seed=3)
        inst = generate_instances(gt, [Pose.identity()], cfg)[0]
        delta = inst.element("l").points - line.points
        assert 0.17 <= delta.std() <= 0.23
        assert abs(delta.mean()) <= 0.02

    def test_dropout_thins_but_keeps_fraction(self):
        elements = tuple(
            line_element(f"d{k}", "divider", (k, 0), (k, 1)) for k in range(200)
        )
        gt = VectorMap(elements, "world")
        cfg = NoiseConfig(dropout=0.5, window=(500.0, 500.0), seed=5)
        inst = generate_instances(gt, [Pose.identity()], cfg)[0]
        assert 70 <= len(inst) <= 130
        again = generate_instances(gt, [Pose.identity()], cfg)[0]
        assert [e.id for e in inst.elements] == [e.id for e in again.elements]

    def test_sigma_zero_is_bitwise_clean(self):
        gt = _gt_map()
        pose = Pose.identity()
        inst = generate_instances(gt, [pose], NoiseConfig(window=(100.0, 100.0)))[0]
        for el in gt.elements:
            if el.label != "ped_crossing":
                assert np.array_equal(inst.element(el.id).points, el.points)


def _assert_same_instances(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.frame == b.frame == "ego"
        assert a.pose is b.pose
        assert [e.id for e in a.elements] == [e.id for e in b.elements]
        assert [e.label for e in a.elements] == [e.label for e in b.elements]
        for ea, eb in zip(a.elements, b.elements):
            assert np.array_equal(ea.points, eb.points)


_lattice = st.integers(-80, 80).map(lambda k: k * 0.25)


@st.composite
def _ego_element(draw, half_w, half_h):
    """Ego-frame points of one element placed against a half_w x half_h
    window: free, lying on an edge, straddling a corner, poking out past an
    edge by a hair, fully outside, or a tilted crossing.  Returns
    (label, points)."""
    kind = draw(st.sampled_from(["free", "edge", "corner", "spike", "outside", "quad"]))
    if kind == "quad":
        cx, cy = draw(_lattice), draw(_lattice)
        w, h = draw(st.floats(1.0, 6.0)), draw(st.floats(1.0, 6.0))
        return "ped_crossing", rect_quad(cx, cy, w, h, draw(st.floats(0.0, np.pi)))
    label = draw(st.sampled_from(["divider", "boundary"]))
    halves = np.array([half_w, half_h])
    if kind == "edge":
        axis, sign = draw(st.integers(0, 1)), draw(st.sampled_from([-1.0, 1.0]))
        along = draw(st.lists(_lattice, min_size=2, max_size=5, unique=True))
        pts = np.zeros((len(along), 2))
        pts[:, axis] = sign * halves[axis]
        pts[:, 1 - axis] = sorted(along)
        return label, pts
    if kind == "corner":
        corner = halves * [draw(st.sampled_from([-1.0, 1.0])) for _ in range(2)]
        # not both 0: a line whose vertices all coincide is not a valid element
        inner, outer = draw(st.tuples(_lattice, _lattice).filter(lambda io: any(io)))
        return label, np.array([corner + inner, corner, corner - outer])
    if kind == "spike":
        # the runs on either side of the tip end within, or just beyond,
        # the join tolerance 1e-9 + 1e-5 * |v| of each other
        tip = draw(st.sampled_from([1e-9, 1e-7, 1e-6, 1e-5, 1e-4]))
        axis, along = draw(st.integers(0, 1)), draw(_lattice)
        pts = np.array([[halves[axis] - 2.0, along - 1.0], [halves[axis] + tip, along],
                        [halves[axis] - 1.0, along + 2.0]])
        return label, pts[:, ::-1] if axis else pts
    pts = np.array(draw(st.lists(st.tuples(_lattice, _lattice), min_size=2, max_size=6)
                        .filter(lambda vs: len(set(vs)) > 1)))
    if kind == "outside":
        axis, sign = draw(st.integers(0, 1)), draw(st.sampled_from([-1.0, 1.0]))
        pts[:, axis] = sign * (halves[axis] + 21.0 + pts[:, axis])
    return label, pts


@st.composite
def _synth_cases(draw):
    """(gt, poses, cfg): a world map built around the first pose's window."""
    half_w, half_h = draw(st.sampled_from([5.0, 7.5, 15.0])), draw(st.sampled_from([5.0, 30.0]))
    yaw = draw(st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
    offset = draw(st.sampled_from([0.0, 1e3, 1e5]))
    x0 = offset * draw(st.sampled_from([-1.0, 1.0])) + draw(_lattice)
    y0 = offset * draw(st.sampled_from([-1.0, 1.0])) + draw(_lattice)
    pose = Pose.from_yaw(yaw, x0, y0)
    elements = []
    for k in range(draw(st.integers(0, 6))):
        label, ego = draw(_ego_element(half_w, half_h))
        elements.append(MapElement(f"e{k}", label, transform_to_world(ego, pose)))
    shifted = Pose.from_yaw(yaw + draw(st.sampled_from([0.0, 0.3])),
                            x0 + draw(_lattice), y0 + draw(_lattice))
    cfg = NoiseConfig(
        sigma=draw(st.sampled_from([0.0, 0.2])),
        dropout=draw(st.sampled_from([0.0, 0.3])),
        window=(2 * half_w, 2 * half_h),
        seed=draw(st.integers(0, 2**16)),
    )
    return VectorMap(tuple(elements), "world"), [pose, shifted], cfg


@st.composite
def _ring_and_window(draw):
    """A 4-vertex ring whose coordinates are free floats, window edge values
    or zero, so that vertices land inside, outside, on edges and on corners."""
    half_w, half_h = draw(st.floats(0.5, 50.0)), draw(st.floats(0.5, 50.0))
    coord = {half: st.one_of(st.floats(-2.0 * half, 2.0 * half),
                             st.sampled_from([-half, half, 0.0]))
             for half in (half_w, half_h)}
    ring = np.array([[draw(coord[half_w]), draw(coord[half_h])] for _ in range(4)])
    return ring, half_w, half_h


class TestClipPolygon:
    @settings(max_examples=500, deadline=None)
    @given(_ring_and_window())
    def test_matches_closure_reference(self, case):
        got, expected = synth._clip_polygon(*case), reference_clip_polygon(*case)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_tilted_quad_over_a_corner(self):
        ring = rect_quad(5.0, 5.0, 4.0, 2.0, 0.4)
        got = synth._clip_polygon(ring, 5.0, 5.0)
        assert got.tobytes() == reference_clip_polygon(ring, 5.0, 5.0).tobytes()
        # two cut points, one kept corner of the quad and the window corner
        assert len(got) == 4 and np.all(np.abs(got) <= 5.0)
        assert [5.0, 5.0] in got.tolist()


_tiny = st.sampled_from([0.0, 1e-10, -1e-10, 4e-10, 2e-9, -3e-9])


@st.composite
def _crop_cases(draw):
    """(polylines, half_w, half_h): lines of every ``_ego_element`` kind
    against one window, whose edges may sit 1e5 m out, plus runs shorter
    than 1e-9 m and lines through signed zeros and window edges."""
    offset = draw(st.sampled_from([0.0, 1e5]))
    half_w = offset + draw(st.sampled_from([5.0, 7.5, 15.0]))
    half_h = offset + draw(st.sampled_from([5.0, 30.0]))
    polys = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["element", "element", "tiny", "zeros"]))
        if kind == "element":
            label, pts = draw(_ego_element(half_w, half_h))
            if label == "ped_crossing":
                # a crossing's ring, closed, as a line
                pts = np.vstack([pts, pts[:1]])
        elif kind == "tiny":
            edge = st.sampled_from([0.0, -0.0, 1.0, half_w, -half_w, half_h])
            anchor = np.array([draw(edge), draw(edge)])
            steps = draw(st.lists(st.tuples(_tiny, _tiny), min_size=1, max_size=4))
            pts = anchor + np.cumsum(np.vstack([[0.0, 0.0], steps]), axis=0)
        else:
            coord = st.sampled_from([0.0, -0.0, 2.0, -2.0, half_w, -half_w, half_h, -half_h,
                                     2.0 * half_w, -2.0 * half_h])
            pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=6)))
        polys.append(np.ascontiguousarray(pts, dtype=float))
    return polys, half_w, half_h


class TestCropPolylines:
    # the case's lines cropped ``copies`` times over in one call: each copy's
    # segments sit at other offsets of the one pass, and no run may reach
    # from one line or copy into the next
    @pytest.mark.parametrize("copies", [1024, 1, 3])
    @settings(max_examples=200, deadline=None)
    @given(case=_crop_cases())
    def test_matches_per_segment_reference(self, case, copies):
        polys, half_w, half_h = case
        got = synth._crop_polylines(polys * copies, half_w, half_h)
        assert len(got) == len(polys) * copies
        expected_by_line = [_reference_crop_polyline(pts, half_w, half_h) for pts in polys]
        for pieces, expected in zip(got, expected_by_line * copies):
            assert len(pieces) == len(expected)
            for a, b in zip(pieces, expected):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_run_spread_over_blocks(self):
        # one run through the window of well over a thousand vertices
        xs = np.linspace(-9.0, 9.0, 3000)
        line = np.column_stack([xs, 0.5 * xs])
        expected = _reference_crop_polyline(line, 5.0, 5.0)
        assert len(expected) == 1 and len(expected[0]) > 1024
        (got,) = synth._crop_polylines([line], 5.0, 5.0)
        assert len(got) == 1
        assert got[0].tobytes() == expected[0].tobytes()

    def test_no_polylines(self):
        assert synth._crop_polylines([], 5.0, 5.0) == []


class TestBatchedViewsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(_synth_cases())
    def test_matches_per_element_reference(self, case):
        gt, poses, cfg = case
        _assert_same_instances(
            generate_instances(gt, poses, cfg), reference_generate_instances(gt, poses, cfg)
        )

    @settings(max_examples=150, deadline=None)
    @given(_synth_cases(), st.sampled_from([1, 2]))
    def test_pose_blocks_of_one_and_two_views(self, case, views):
        gt, poses, cfg = case
        # three views, so blocks of two leave one over
        poses = poses + poses[:1]
        vertices = sum(len(el.points) for el in gt.elements)
        with mock.patch.object(geometry, "_BLOCK_CELLS", views * vertices), \
                mock.patch.object(synth, "_inverse_poses", wraps=synth._inverse_poses) as spy, \
                mock.patch.object(synth, "_crop_polylines", wraps=synth._crop_polylines) as crops:
            got = generate_instances(gt, poses, cfg)
        blocks = [len(call.args[0]) for call in spy.call_args_list]
        assert blocks == ([] if not gt.elements else [1, 1, 1] if views == 1 else [2, 1])
        # every pose block crops its views' lines in one call
        assert crops.call_count == len(blocks)
        _assert_same_instances(got, reference_generate_instances(gt, poses, cfg))

    @pytest.mark.parametrize("offset", [0.0, 1e5])
    @pytest.mark.parametrize("side", [(1, 0), (-1, 0), (0, 1), (0, -1)])
    def test_line_on_window_edge_is_kept(self, side, offset):
        # the ego bounding box of each line touches the window from outside:
        # one lies on the edge, the other meets the window in a corner only
        half = np.array([5.0, 10.0])
        edge, along = np.multiply(side, half), np.array([side[1] != 0, side[0] != 0], float)
        on_edge = edge + np.outer([-2.0, 0.5, 3.0], along)
        corner = edge + along * half
        through_corner = corner + np.outer([0.0, 1.0], np.add(side, along))
        shift = [offset, -offset]
        gt = VectorMap((
            MapElement("edge", "divider", on_edge + shift),
            MapElement("corner", "boundary", through_corner + shift),
        ), "world")
        poses = [Pose.from_yaw(0.0, *shift)]
        cfg = NoiseConfig(window=tuple(2 * half))
        got = generate_instances(gt, poses, cfg)
        assert [e.id for e in got[0].elements] == ["edge"]
        np.testing.assert_array_equal(got[0].element("edge").points, on_edge)
        _assert_same_instances(got, reference_generate_instances(gt, poses, cfg))

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("tip, ids", [(1e-6, ["s"]), (1e-3, ["s", "s#1"])])
    def test_run_rejoins_across_hairline_exit(self, tip, ids, axis):
        # the exit and re-entry points differ by about tip along the edge:
        # one run when that is within 1e-9 + 1e-5 * |v|, two runs otherwise
        pts = np.array([(3.0, 0.0), (5.0 + tip, 1.0), (3.0, 2.0)])
        spike = MapElement("s", "divider", pts[:, ::-1] if axis else pts)
        gt, poses = VectorMap((spike,), "world"), [Pose.identity()]
        cfg = NoiseConfig(window=(10.0, 10.0))
        got = generate_instances(gt, poses, cfg)
        assert [e.id for e in got[0].elements] == ids
        _assert_same_instances(got, reference_generate_instances(gt, poses, cfg))

    def test_empty_map(self):
        empty, poses = VectorMap((), "world"), [Pose.identity(), Pose.from_yaw(1.0, 5.0, 5.0)]
        cfg = NoiseConfig(sigma=0.2, dropout=0.3)
        got = generate_instances(empty, poses, cfg)
        assert [len(inst) for inst in got] == [0, 0]
        _assert_same_instances(got, reference_generate_instances(empty, poses, cfg))

    def test_crops_only_elements_near_the_window(self, monkeypatch):
        block = _gt_map().elements
        gt = VectorMap(tuple(
            MapElement(f"{el.id}@{i}_{j}", el.label, el.points + [40.0 * i, 40.0 * j])
            for i in range(3) for j in range(3) for el in block
        ), "world")
        # the 9 block centers, plus two views between blocks
        poses = [Pose.from_yaw(0.0, 10.0 + 40.0 * i, 40.0 * j) for i in range(3) for j in range(3)]
        poses += [Pose.from_yaw(0.2, 30.0, 0.0), Pose.from_yaw(-0.1, 50.0, 22.0)]
        cfg = NoiseConfig(sigma=0.1, dropout=0.2, window=(30.0, 30.0), seed=11)
        near = rows = inside = 0
        for pose in poses:
            for el in gt.elements:
                # an element moves into a view's frame when the box of its
                # world box's corners there comes near the window
                (x0, y0), (x1, y1) = el.points.min(axis=0), el.points.max(axis=0)
                box = transform_to_world(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]),
                                         pose.inverse())
                if np.all(box.min(axis=0) <= 15.0) and np.all(box.max(axis=0) >= -15.0):
                    near += 1
                    rows += len(el.points)
                    ego = transform_to_world(el.points, pose.inverse())
                    inside += el.label == "ped_crossing" and bool(np.all(np.abs(ego) <= 15.0))
        # each center sees its own block's 3 elements, the view at (30, 0)
        # the 4 lines of two blocks, the one at (50, 22) a single boundary;
        # cropping everything would take 11 * 27 = 297 crops
        assert near == 9 * 3 + 4 + 1
        # each center sees its crossing wholly inside the window
        assert inside == 9

        moved, queued, quads = [], [], []
        transform_rows, crop_polylines, crop_quad = (synth._transform_rows, synth._crop_polylines,
                                                     synth._crop_quad)

        def counted_rows(points, *args):
            moved.append(len(points))
            return transform_rows(points, *args)

        def counted_lines(polys, *args):
            queued.append(len(polys))
            return crop_polylines(polys, *args)

        def counted_quad(*args):
            quads.append(1)
            return crop_quad(*args)

        monkeypatch.setattr(synth, "_transform_rows", counted_rows)
        monkeypatch.setattr(synth, "_crop_polylines", counted_lines)
        monkeypatch.setattr(synth, "_crop_quad", counted_quad)
        got = generate_instances(gt, poses, cfg)
        # the near elements of every view move in one call, every view's
        # lines go to the cropper in one call, and a crossing wholly inside
        # the window is not cropped
        assert moved == [rows]
        assert len(queued) == 1
        assert queued[0] + len(quads) + inside == near
        _assert_same_instances(got, reference_generate_instances(gt, poses, cfg))


@st.composite
def _world_box_cases(draw):
    """(gt, poses, cfg): elements just outside, on and just inside the world
    bounding box of a rotated or tilted window, at every box edge and
    corner, with gaps from 0 up past the margin within which a view
    transforms an element; lines may run along an edge.  One element inside
    keeps the RNG drawing."""
    half_w, half_h = draw(st.sampled_from([5.0, 7.5])), draw(st.sampled_from([5.0, 30.0]))
    yaw = draw(st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 2]),
                         st.floats(-np.pi, np.pi)))
    offset = draw(st.sampled_from([0.0, 1e3, 1e5]))
    pose = Pose.from_yaw(yaw, offset * draw(st.sampled_from([-1.0, 1.0])) + draw(_lattice),
                         offset * draw(st.sampled_from([-1.0, 1.0])) + draw(_lattice))
    if draw(st.booleans()):
        # a tilted sensor: any unit quaternion, the map plane seen at a slant
        q = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)
                          .filter(lambda v: sum(c * c for c in v) > 0.1)))
        pose = Pose(q / math.sqrt(sum(c * c for c in q.tolist())), pose.translation)
    window = transform_to_world(np.array([[-half_w, -half_h], [half_w, -half_h],
                                          [half_w, half_h], [-half_w, half_h]]), pose)
    lo, hi = window.min(axis=0), window.max(axis=0)
    unit = 1.0 + float(np.abs(window).max())
    # signed: a negative gap lies inside the box
    gaps = st.tuples(st.sampled_from([0.0, 1e-12, 1e-9, 3e-7, 1e-6, 3e-6, 1e-3, 0.5]),
                     st.sampled_from([-1.0, 1.0])).map(lambda g: g[0] * g[1] * unit)
    steps = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0])
    elements = [MapElement("inside", "divider", transform_to_world([[-1.0, 0.0], [1.0, 0.5]], pose))]
    for k in range(draw(st.integers(1, 6))):
        # per axis: below lo, anywhere along the box, or above hi
        side = draw(st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])))
        anchor = np.array([lo[a] - draw(gaps) if side[a] < 0 else hi[a] + draw(gaps) if side[a] > 0
                           else lo[a] + draw(st.floats(0.0, 1.0)) * (hi[a] - lo[a])
                           for a in range(2)])
        step = np.array(draw(st.tuples(steps, steps).filter(any)))
        if draw(st.booleans()):
            label = "ped_crossing"
            step[step == 0.0] = 0.5
            pts = anchor + np.array([[0.0, 0.0], [step[0], 0.0], step, [0.0, step[1]]])
        else:
            label = draw(st.sampled_from(["divider", "boundary"]))
            pts = anchor + np.outer([0.0, 1.0, 2.5][:draw(st.integers(2, 3))], step)
        try:
            elements.append(MapElement(f"e{k}", label, pts))
        except ValueError:  # a quad too thin at this offset
            pass
    cfg = NoiseConfig(sigma=draw(st.sampled_from([0.0, 0.2])),
                      dropout=draw(st.sampled_from([0.0, 0.3])),
                      window=(2 * half_w, 2 * half_h), seed=draw(st.integers(0, 2**16)))
    return VectorMap(tuple(elements), "world"), [pose], cfg


class TestWorldBoxSkip:
    @settings(max_examples=300, deadline=None)
    @given(_world_box_cases())
    def test_views_equal_reference_bitwise(self, case):
        gt, poses, cfg = case
        got, expected = generate_instances(gt, poses, cfg), reference_generate_instances(gt, poses, cfg)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert [e.id for e in a.elements] == [e.id for e in b.elements]
            assert [e.label for e in a.elements] == [e.label for e in b.elements]
            assert [e.points.tobytes() for e in a.elements] == [e.points.tobytes() for e in b.elements]

    def test_far_elements_are_not_transformed(self, monkeypatch):
        # one block in view, one 40 m away: only the near block's points move
        block = _gt_map().elements
        gt = VectorMap(tuple(MapElement(f"{el.id}@{i}", el.label, el.points + [40.0 * i, 0.0])
                             for i in range(2) for el in block), "world")
        moved = []
        kernel = synth._transform_rows

        def counting(points, rotations, translations):
            moved.append(len(points))
            return kernel(points, rotations, translations)

        monkeypatch.setattr(synth, "_transform_rows", counting)
        cfg, poses = NoiseConfig(sigma=0.1, window=(24.0, 24.0), seed=3), [Pose.from_yaw(0.3, 10.0)]
        got = generate_instances(gt, poses, cfg)
        assert moved == [sum(len(el.points) for el in block)]
        assert {e.id.split("@")[1] for e in got[0].elements} == {"0"}
        _assert_same_instances(got, reference_generate_instances(gt, poses, cfg))


class TestWriteInstances:
    def test_files_and_manifest(self, tmp_path):
        gt = _gt_map()
        poses = straight_path_poses(gt, 3)
        instances = generate_instances(gt, poses, NoiseConfig(window=(15.0, 15.0)))
        paths = write_instances(instances, tmp_path)
        assert len(paths) == 4
        for p in paths:
            assert os.path.exists(p)
        assert sorted(os.path.basename(p) for p in paths[:-1]) == [
            "instance_0.json", "instance_1.json", "instance_2.json",
        ]
        manifest = json.loads((tmp_path / "poses.json").read_text())
        assert len(manifest["poses"]) == 3
        for entry, pose in zip(manifest["poses"], poses):
            np.testing.assert_allclose(entry["rotation"], pose.rotation)
            np.testing.assert_allclose(entry["translation"], pose.translation)

    def test_rerun_is_byte_identical(self, tmp_path):
        gt = _gt_map()
        poses = straight_path_poses(gt, 2)
        cfg = NoiseConfig(sigma=0.1, window=(15.0, 15.0), seed=4)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_instances(generate_instances(gt, poses, cfg), dir_a)
        write_instances(generate_instances(gt, poses, cfg), dir_b)
        for name in os.listdir(dir_a):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    @staticmethod
    def _files(path):
        return {name: (path / name).read_bytes() for name in os.listdir(path)} if path.exists() else None

    @pytest.mark.parametrize("earlier_run", [False, True])
    def test_instance_beyond_the_range_writes_nothing(self, tmp_path, earlier_run):
        # instance 1 holds a vertex past the map format's range: no file of
        # it or of instance 0 is written, and neither is poses.json
        gt = _gt_map()
        instances = generate_instances(gt, straight_path_poses(gt, 3), NoiseConfig(window=(15.0, 15.0)))
        out = tmp_path / "out"
        if earlier_run:
            write_instances(instances, out)
        before = self._files(out)
        far = MapElement("far", "divider", np.array([[0.0, 0.0], [0.0, 5.0], [0.0, -3e16]]))
        instances[1] = VectorMap(instances[1].elements + (far,), "ego", instances[1].pose)
        message = "instance 1: element 'far': points[2] holds a number beyond the coordinate range"
        with pytest.raises(MapFormatError, match=re.escape(message)):
            write_instances(instances, out)
        assert self._files(out) == before

    @pytest.mark.parametrize("earlier_run", [False, True])
    def test_world_frame_instance_writes_nothing(self, tmp_path, earlier_run):
        # a world map has no pose for the manifest: it is refused before
        # instance_0.json is written
        gt = _gt_map()
        instances = generate_instances(gt, straight_path_poses(gt, 2), NoiseConfig(window=(15.0, 15.0)))
        out = tmp_path / "out"
        if earlier_run:
            write_instances(instances, out)
        before = self._files(out)
        instances[0] = to_world(instances[0])
        with pytest.raises(ValueError, match="instance 0: frame is 'world', not 'ego'"):
            write_instances(instances, out)
        assert self._files(out) == before


class TestStraightPathPoses:
    def test_sweeps_longer_axis(self):
        gt = _gt_map()
        poses = straight_path_poses(gt, 5)
        assert len(poses) == 5
        xs = [p.translation[0] for p in poses]
        np.testing.assert_allclose(xs, np.linspace(0, 20, 5))
        for p in poses:
            assert p.translation[1] == pytest.approx(0.0)
            np.testing.assert_allclose(p.rotation, [1, 0, 0, 0])

    def test_single_pose_centered(self):
        poses = straight_path_poses(_gt_map(), 1)
        assert len(poses) == 1
        assert poses[0].translation[0] == pytest.approx(10.0)

    def test_tall_map_sweeps_y(self):
        gt = VectorMap(
            (line_element("d", "divider", (0, 0), (0, 30), n=4),), "world"
        )
        poses = straight_path_poses(gt, 3)
        ys = [p.translation[1] for p in poses]
        np.testing.assert_allclose(ys, [0, 15, 30])

    def test_empty_map_identity_poses(self):
        poses = straight_path_poses(VectorMap((), "world"), 2)
        assert len(poses) == 2
        np.testing.assert_allclose(poses[0].translation, [0, 0, 0])

    def test_zero_poses_rejected(self):
        with pytest.raises(ValueError):
            straight_path_poses(_gt_map(), 0)
