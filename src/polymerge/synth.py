"""Synthetic observation generator: noisy windowed views of a ground-truth map.

For every pose the ground truth is expressed in that pose's ego frame,
cropped to a rectangular sensing window around the origin, thinned by a
per-element dropout and jittered with Gaussian vertex noise.  The i-th
instance uses the RNG stream seeded with ``seed ^ i``, so any instance can
be regenerated independently and the whole run is deterministic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, arc_length, transform_to_world
from .map_model import (
    LABEL_PED_CROSSING,
    MapElement,
    VectorMap,
    pose_to_doc,
    save_map,
    to_world,
    write_json_atomic,
)
from .quads import min_rotated_rect

__all__ = [
    "NoiseConfig",
    "generate_instances",
    "write_instances",
    "straight_path_poses",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Parameters of the synthetic observation model."""

    sigma: float = 0.0
    dropout: float = 0.0
    window: tuple[float, float] = (30.0, 60.0)
    n_instances: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        w, h = self.window
        if not all(math.isfinite(side) and side > 0 for side in (w, h)):
            raise ValueError("window sides must be finite and positive")
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")


def _clip_segment(px: float, py: float, qx: float, qy: float, half_w: float, half_h: float):
    """Liang-Barsky clip of segment p-q against the centered window rect.

    Returns the (x, y) endpoints of the clipped piece, or None when the
    segment misses the window.
    """
    dx, dy = qx - px, qy - py
    t0, t1 = 0.0, 1.0
    for delta, lo, hi in ((dx, -half_w - px, half_w - px),
                          (dy, -half_h - py, half_h - py)):
        if delta == 0.0:
            if lo > 0.0 or hi < 0.0:
                return None
            continue
        ta, tb = lo / delta, hi / delta
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return None
    return (px + t0 * dx, py + t0 * dy), (px + t1 * dx, py + t1 * dy)


def _crop_polyline(pts: np.ndarray, half_w: float, half_h: float) -> list[np.ndarray]:
    """Crop a polyline to the window, splitting it where it leaves.

    Runs on Python floats; a clipped segment continues the current run
    when its start matches the run's end under ``np.allclose``'s rule
    (``|c - v| <= 1e-9 + 1e-5 * |v|`` per coordinate).
    """
    pieces: list[np.ndarray] = []
    current: list[tuple[float, float]] = []

    def flush():
        if len(current) >= 2:
            piece = np.array(current)
            if arc_length(piece) > 1e-9:
                pieces.append(piece)
        current.clear()

    xy = pts.tolist()
    for (px, py), (qx, qy) in zip(xy, xy[1:]):
        clipped = _clip_segment(px, py, qx, qy, half_w, half_h)
        if clipped is None:
            flush()
            continue
        a, b = clipped
        if current:
            (cx, cy), (ax, ay) = current[-1], a
            if (abs(cx - ax) <= 1e-9 + 1e-5 * abs(ax)
                    and abs(cy - ay) <= 1e-9 + 1e-5 * abs(ay)):
                current.append(b)
                continue
        flush()
        current.extend((a, b))
    flush()
    return pieces


def _clip_polygon(pts: np.ndarray, half_w: float, half_h: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a closed polygon against the window rect.

    Runs on Python floats, one pass per window edge: the half-plane
    ``side * p[axis] <= limit`` keeps the ring's points inside it and cuts
    every ring edge that crosses its boundary.
    """
    poly = pts.tolist()
    for axis, side, limit in ((0, -1.0, half_w), (0, 1.0, half_w),
                              (1, -1.0, half_h), (1, 1.0, half_h)):
        value = side * limit
        out = []
        for prev, cur in zip(poly[-1:] + poly[:-1], poly):
            cur_in = side * cur[axis] <= limit
            if cur_in != (side * prev[axis] <= limit):
                t = (value - prev[axis]) / (cur[axis] - prev[axis])
                cut = [value, value]
                cut[1 - axis] = prev[1 - axis] + t * (cur[1 - axis] - prev[1 - axis])
                out.append(cut)
            if cur_in:
                out.append(cur)
        poly = out
    return np.array(poly).reshape(-1, 2)


def _crop_quad(pts: np.ndarray, half_w: float, half_h: float) -> np.ndarray | None:
    """Crop a crossing quad; partially visible quads are re-fit to 4 corners."""
    inside = (np.abs(pts[:, 0]) <= half_w) & (np.abs(pts[:, 1]) <= half_h)
    if np.all(inside):
        return pts
    clipped = _clip_polygon(pts, half_w, half_h)
    if len(clipped) < 3:
        return None
    try:
        return min_rotated_rect(clipped)
    except ValueError:
        return None


def _quad_element(el_id: str, pts: np.ndarray) -> MapElement | None:
    """Build a crossing element, re-fitting when noise broke the quad shape."""
    try:
        return MapElement(el_id, LABEL_PED_CROSSING, pts)
    except ValueError:
        pass
    try:
        return MapElement(el_id, LABEL_PED_CROSSING, min_rotated_rect(pts))
    except ValueError:
        return None


def generate_instances(gt: VectorMap, poses, cfg: NoiseConfig) -> list[VectorMap]:
    """Produce one ego-frame instance of the ground truth per pose.

    A view moves into its ego frame only the elements whose world bounding
    box, mapped into that frame, comes within ``1e-6 * (1 + S)`` of the
    window, S bounding every coordinate magnitude: far above rounding.
    ``transform_to_world`` with the inverse pose is an affine map of the
    plane whose linear part B is the upper-left 2 x 2 block of the inverse's
    rotation matrix, so it maps a box of centre c and half extents h into
    the box of centre B c + d and half extents |B| h.  A skipped element's
    ego box thus lies beyond a window edge, which the ego-box test below
    would find too.  ``transform_to_world`` works on each row on its own,
    so the kept rows have the bits of a call on all of them.

    Of the moved elements, only those whose ego bounding box meets the
    window are cropped: a box strictly beyond one window edge fails the
    clippers' own comparisons, so the element would yield no piece.  The
    RNG is drawn per piece, so skipping changes no draw.
    """
    elements = to_world(gt).elements
    if not elements:
        return [VectorMap((), "ego", pose) for pose in poses]
    half_w, half_h = cfg.window[0] / 2.0, cfg.window[1] / 2.0
    stacked = np.vstack([el.points for el in elements])
    sizes = np.array([len(el.points) for el in elements])
    starts = np.cumsum(sizes) - sizes
    world_lo = np.minimum.reduceat(stacked, starts)
    world_hi = np.maximum.reduceat(stacked, starts)
    mid, half = 0.5 * (world_lo + world_hi), 0.5 * (world_hi - world_lo)
    scale = max(float(np.abs(stacked).max()), half_w, half_h)
    instances = []
    for k, pose in enumerate(poses):
        rng = np.random.default_rng(cfg.seed ^ k)
        inverse = pose.inverse()
        w, x, y, z = inverse.rotation.tolist()
        dx, dy, _ = inverse.translation.tolist()
        b = np.array([[1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z)],
                      [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z)]])
        margin = 1e-6 * (1.0 + max(scale, abs(dx), abs(dy)))
        ego_mid = mid[:, :1] * b[:, 0] + mid[:, 1:] * b[:, 1] + (dx, dy)
        ego_half = half[:, :1] * np.abs(b[:, 0]) + half[:, 1:] * np.abs(b[:, 1])
        keep = (np.abs(ego_mid) - ego_half <= (half_w + margin, half_h + margin)).all(axis=1)
        near = np.flatnonzero(keep)
        if not len(near):
            instances.append(VectorMap((), "ego", pose))
            continue
        counts = sizes[near]
        first = np.cumsum(counts) - counts
        ego = transform_to_world(stacked[np.repeat(keep, sizes)], inverse)
        lo = np.minimum.reduceat(ego, first)
        hi = np.maximum.reduceat(ego, first)
        meets = ((lo[:, 0] <= half_w) & (hi[:, 0] >= -half_w)
                 & (lo[:, 1] <= half_h) & (hi[:, 1] >= -half_h))
        observed: list[MapElement] = []
        for n in np.flatnonzero(meets).tolist():
            el = elements[near[n]]
            ego_pts = ego[first[n]:first[n] + counts[n]]
            if el.label == LABEL_PED_CROSSING:
                cropped = _crop_quad(ego_pts, half_w, half_h)
                pieces = [] if cropped is None else [(el.id, cropped)]
            else:
                runs = _crop_polyline(ego_pts, half_w, half_h)
                pieces = [
                    (el.id if j == 0 else f"{el.id}#{j}", run)
                    for j, run in enumerate(runs)
                ]
            for piece_id, pts in pieces:
                if rng.random() < cfg.dropout:
                    continue
                if cfg.sigma > 0:
                    pts = pts + rng.normal(0.0, cfg.sigma, pts.shape)
                if el.label == LABEL_PED_CROSSING:
                    noisy = _quad_element(piece_id, pts)
                    if noisy is not None:
                        observed.append(noisy)
                else:
                    observed.append(MapElement(piece_id, el.label, pts))
        instances.append(VectorMap(tuple(observed), "ego", pose))
    return instances


def write_instances(instances, out_dir) -> list[str]:
    """Write instance_<k>.json files plus a poses.json manifest."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    poses = []
    for k, inst in enumerate(instances):
        path = os.path.join(out_dir, f"instance_{k}.json")
        save_map(inst, path)
        paths.append(path)
        poses.append(pose_to_doc(inst.pose))
    manifest = os.path.join(out_dir, "poses.json")
    write_json_atomic({"poses": poses}, manifest)
    paths.append(manifest)
    return paths


def straight_path_poses(gt: VectorMap, n: int) -> list[Pose]:
    """Evenly spaced poses sweeping the map's longer bounding-box axis.

    The path runs through the middle of the shorter axis with identity
    heading, which suits the default tall sensing window.
    """
    if n < 1:
        raise ValueError("need at least one pose")
    world = to_world(gt)
    if not world.elements:
        return [Pose.identity() for _ in range(n)]
    stacked = np.vstack([el.points for el in world.elements])
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    mid = 0.5 * (lo + hi)
    along = 0 if (hi - lo)[0] >= (hi - lo)[1] else 1
    stops = np.linspace(lo[along], hi[along], n) if n > 1 else [mid[along]]
    poses = []
    for s in stops:
        origin = mid.copy()
        origin[along] = s
        poses.append(Pose.from_yaw(0.0, origin[0], origin[1]))
    return poses
