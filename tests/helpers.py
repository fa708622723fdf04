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
def tricky_world_maps(draw, step=0.25, thresholds=(0.25, 0.5, 1.0, 2.0)):
    """(map, th_prox) on a coordinate lattice of pitch ``step``, built to hit
    the proximity graph's edge cases: axis-parallel lines, quads, elements
    sharing one box under several labels and main flags, and copies whose
    box starts exactly ``th_prox`` after the original's ends."""
    th = draw(st.sampled_from(thresholds))
    coord = st.integers(-24, 24).map(lambda k: k * step)
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
                offset = np.zeros(2)
                offset[axis] = sign * (np.ptp(pts[:, axis]) + th)
                pts = pts + offset
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
