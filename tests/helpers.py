"""Shared builders for test maps and random geometry."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from polymerge import MapElement, Pose, VectorMap


def line_element(el_id, label, start, end, n=2, is_main=False):
    pts = np.linspace(np.asarray(start, float), np.asarray(end, float), n)
    return MapElement(el_id, label, pts, is_main)


def rect_quad(cx, cy, w, h, angle=0.0):
    """Corners of a w x h rectangle centered at (cx, cy), rotated by angle."""
    local = np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]])
    c, s = np.cos(angle), np.sin(angle)
    rot = local @ np.array([[c, s], [-s, c]])
    return rot + np.array([cx, cy])


def quad_element(el_id, cx, cy, w=3.0, h=2.0, angle=0.0, is_main=False):
    return MapElement(el_id, "ped_crossing", rect_quad(cx, cy, w, h, angle), is_main)


def acceptance_block():
    """The 20 m acceptance block: boundaries at y = -10 and 10 m, dividers at
    y = -3 and 3 m, each with a vertex every 0.75 m along x, and two 4 x 3 m
    crossings at x = 6 and 14 m tilted by 0.25 and -0.25 rad."""
    xs = np.arange(0.0, 20.0 + 1e-9, 0.75)
    lines = [MapElement(el_id, label, np.column_stack([xs, np.full_like(xs, y)]))
             for el_id, label, y in (("bnd_s", "boundary", -10.0), ("bnd_n", "boundary", 10.0),
                                     ("div_s", "divider", -3.0), ("div_n", "divider", 3.0))]
    crossings = [MapElement(el_id, "ped_crossing", rect_quad(cx, 0.0, 4.0, 3.0, angle))
                 for el_id, cx, angle in (("cross_w", 6.0, 0.25), ("cross_e", 14.0, -0.25))]
    return VectorMap(tuple(lines + crossings), "world")


def acceptance_poses(n):
    """``n`` poses along the block from x = 2 to 18 m, yaw alternating 0.06 and -0.06 rad."""
    return [Pose.from_yaw(0.06 * (-1) ** k, x, 0.0) for k, x in enumerate(np.linspace(2.0, 18.0, n))]


def random_polyline(rng, n_min=2, n_max=8, scale=10.0):
    n = int(rng.integers(n_min, n_max + 1))
    start = rng.uniform(-scale, scale, 2)
    steps = rng.uniform(-2.0, 2.0, (n - 1, 2))
    pts = np.vstack([start, start + np.cumsum(steps, axis=0)])
    # re-draw duplicate consecutive vertices so arc length stays positive
    while np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1) < 1e-6):
        return random_polyline(rng, n_min, n_max, scale)
    return pts


def random_world_map(rng, n_elements, scale=20.0, main_fraction=0.3):
    """A random world map mixing all three labels, some flagged main."""
    elements = []
    for k in range(n_elements):
        is_main = bool(rng.random() < main_fraction)
        roll = rng.random()
        if roll < 0.25:
            cx, cy = rng.uniform(-scale, scale, 2)
            elements.append(
                quad_element(f"e{k}", cx, cy, w=rng.uniform(2, 4), h=rng.uniform(1.5, 3),
                             angle=rng.uniform(0, np.pi), is_main=is_main)
            )
        else:
            label = "divider" if roll < 0.6 else "boundary"
            pts = random_polyline(rng, scale=scale)
            elements.append(MapElement(f"e{k}", label, pts, is_main))
    return VectorMap(tuple(elements), "world")


def random_pose(rng, span=10.0):
    return Pose.from_yaw(rng.uniform(-np.pi, np.pi), *rng.uniform(-span, span, 2))


@st.composite
def tricky_world_maps(draw, step=0.25, thresholds=(0.25, 0.5, 1.0, 2.0), offset=0.0):
    """(map, th_prox) on a coordinate lattice of pitch ``step`` around
    ``offset`` on both axes, built to hit the proximity graph's edge cases:
    axis-parallel lines, quads, elements sharing one box under several
    labels and main flags, and copies whose box starts exactly ``th_prox``
    after the original's ends.  Far from the origin, box gaps and distances
    round."""
    th = draw(st.sampled_from(thresholds))
    coord = st.integers(-24, 24).map(lambda k: offset + k * step)
    length = st.integers(1, 16).map(lambda k: k * step)
    elements = []
    for k in range(draw(st.integers(2, 14))):
        kind = draw(st.sampled_from(["free", "hline", "vline", "rect", "copy", "shift"]))
        label = draw(st.sampled_from(["divider", "boundary"]))
        if kind in ("copy", "shift") and elements:
            src = draw(st.sampled_from(elements))
            pts = src.points
            if src.label == "ped_crossing" or draw(st.booleans()):
                label = src.label
            if kind == "shift":
                axis = draw(st.integers(0, 1))
                sign = draw(st.sampled_from([-1.0, 1.0]))
                move = np.zeros(2)
                move[axis] = sign * (np.ptp(pts[:, axis]) + th)
                pts = pts + move
        elif kind in ("hline", "vline", "copy", "shift"):
            x, y, d = draw(coord), draw(coord), draw(length)
            pts = [(x, y), (x + d, y)] if kind == "hline" else [(x, y), (x, y + d)]
        elif kind == "rect":
            x, y, w, h = draw(coord), draw(coord), draw(length), draw(length)
            pts = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
            label = "ped_crossing"
        else:
            # a line whose vertices all coincide is not a valid element
            pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=5)
                       .filter(lambda vs: len(set(vs)) > 1))
        elements.append(MapElement(f"e{k}", label, np.asarray(pts, float), draw(st.booleans())))
    return VectorMap(tuple(elements), "world"), th
