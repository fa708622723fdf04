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


# vertices per block of ``_crop_polylines``, each the start of at most one
# segment: its temporaries stay small however many views are cropped at once
_CROP_BLOCK = 1 << 10


def _crop_polylines(polys, half_w: float, half_h: float) -> list[list[np.ndarray]]:
    """Crop polylines (each an (n, 2) array, n >= 2) to the centered window,
    splitting each where it leaves: the runs of every polyline, in order.

    Each segment p-q gets a Liang-Barsky clip (Liang & Barsky, ACM TOG
    1984) with the per-segment rule's float expressions, on arrays of
    segments: per axis, ``delta = q - p``, ``lo = -half - p`` and
    ``hi = half - p``; a ``delta == 0.0`` axis misses when ``lo > 0`` or
    ``hi < 0`` and leaves the parameters alone, any other takes
    ``ta, tb = lo / delta, hi / delta``, swaps them when ``ta > tb``, and
    updates ``t0 = ta if ta > t0 else t0`` and ``t1 = tb if tb < t1 else t1``
    (Python's ``max``/``min``, signed zeros and infinities included).  t0
    only grows and t1 only shrinks, so a segment misses when some axis
    misses or ``t0 > t1`` after both.  The kept piece runs from
    ``p + t0 * delta`` to ``p + t1 * delta``.

    A kept segment continues the run of the segment before it in the same
    polyline when that one was kept too and its end matches this start
    under ``np.allclose``'s rule (``|c - v| <= 1e-9 + 1e-5 * |v|`` per
    coordinate); any other kept segment starts a run.  A run is kept when
    its arc length is above 1e-9.  A step with a component d above 2e-9
    proves that without summing: ``d * d`` is above 4e-18, so its rounding
    is above 4e-18 * (1 - u) (u the unit roundoff); adding the other
    square, which is not negative, cannot round below that; the rounded
    square root is then above 2e-9 * (1 - u)**2; and each rounded sum of
    non-negative terms is at least its larger term, so ``arc_length`` is
    above 1.99e-9.  A run with no such step, or spread over two blocks of
    at most ``_CROP_BLOCK`` vertices, is measured with ``arc_length``.
    """
    pieces: list[list[np.ndarray]] = [[] for _ in polys]
    if not polys:
        return pieces
    pts = np.concatenate(polys)
    ends = np.cumsum([len(poly) for poly in polys])
    # vertex s starts segment s, to s + 1, unless it ends its polyline; so
    # segment s - 1 comes before segment s in the same polyline when both exist
    starts = np.ones(len(pts) - 1, dtype=bool)
    starts[ends[:-1] - 1] = False
    run = None  # (polyline, chunks, certified) of the last kept segment's run
    last, last_end = -2, np.zeros(2)

    def flush():
        owner, chunks, certified = run
        piece = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        if certified or arc_length(piece) > 1e-9:
            pieces[owner].append(piece)

    for first in range(0, len(starts), _CROP_BLOCK):
        stop = min(first + _CROP_BLOCK, len(starts))
        p = pts[first:stop]
        d = pts[first + 1:stop + 1] - p
        t0, t1 = np.zeros(len(p)), np.ones(len(p))
        hit = starts[first:stop].copy()
        with np.errstate(over="ignore"):
            for axis, half in ((0, half_w), (1, half_h)):
                delta, c = d[:, axis], p[:, axis]
                lo, hi = -half - c, half - c
                flat = delta == 0.0
                hit &= ~(flat & ((lo > 0.0) | (hi < 0.0)))
                step = np.where(flat, 1.0, delta)
                ta, tb = lo / step, hi / step
                swap = ta > tb
                ta, tb = np.where(swap, tb, ta), np.where(swap, ta, tb)
                t0 = np.where(~flat & (ta > t0), ta, t0)
                t1 = np.where(~flat & (tb < t1), tb, t1)
        hit &= ~(t0 > t1)
        kept = np.flatnonzero(hit)
        if not len(kept):
            continue
        seg, p, d = first + kept, p[kept], d[kept]
        a = p + t0[kept, None] * d
        b = p + t1[kept, None] * d
        prev = np.concatenate(([last], seg[:-1]))
        prev_end = np.concatenate((last_end[None], b[:-1]))
        opens = (seg - 1 != prev) | ~(np.abs(prev_end - a) <= 1e-9 + 1e-5 * np.abs(a)).all(axis=1)
        last, last_end = seg[-1], b[-1]
        # the block's run points: each run's start, then every segment end
        rows = np.cumsum(1 + opens) - 1
        out = np.empty((rows[-1] + 1, 2))
        out[rows] = b
        heads = rows[opens] - 1
        out[heads] = a[opens]
        if not opens[0]:
            run[1].append(out[:heads[0] if len(heads) else len(out)])
        if not len(heads):
            continue
        big = (np.abs(out[1:] - out[:-1]) > 2e-9).any(axis=1)
        big[heads[heads > 0] - 1] = False
        certified = np.logical_or.reduceat(big, heads).tolist()
        owners = np.searchsorted(ends, seg[opens], side="right").tolist()
        bounds = heads.tolist() + [len(out)]
        for r, owner in enumerate(owners):
            if run is not None:
                flush()
            run = (owner, [out[bounds[r]:bounds[r + 1]]], certified[r])
    if run is not None:
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

    Views go in batches that queue at least ``_CROP_BLOCK`` line vertices
    (the last one fewer), so memory stays bounded, in three phases:

    1. Per view, the elements whose world bounding box, mapped into the
       view's ego frame, comes within ``1e-6 * (1 + S)`` of the window, S
       bounding every coordinate magnitude (far above rounding), move into
       that frame.  ``transform_to_world`` with the inverse pose is an
       affine map of the plane whose linear part B is the upper-left 2 x 2
       block of the inverse's rotation matrix, so it maps a box of centre c
       and half extents h into the box of centre B c + d and half extents
       |B| h.  A skipped element's ego box thus lies beyond a window edge,
       which the ego-box test below would find too.  ``transform_to_world``
       works on each row on its own, so the kept rows have the bits of a
       call on all of them.  Of the moved elements, only those whose ego
       bounding box meets the window are cropped: a box strictly beyond one
       window edge fails the clippers' own comparisons, so the element
       would yield no piece.  Each such line is queued for the cropper.
    2. One ``_crop_polylines`` call crops every queued line of the batch.
    3. Per view in order, on the RNG stream seeded with ``seed ^ k``, each
       cropped element's pieces (a crossing is cropped here by
       ``_crop_quad``) are dropped out and jittered piece by piece.  The
       RNG is drawn per piece, so neither skipping an element nor the
       batching changes a draw.
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

    def cropped_elements(pose) -> list[tuple[MapElement, np.ndarray]]:
        """Phase 1: (element, ego points) of each element the view crops."""
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
            return []
        counts = sizes[near]
        first = np.cumsum(counts) - counts
        ego = transform_to_world(stacked[np.repeat(keep, sizes)], inverse)
        lo = np.minimum.reduceat(ego, first)
        hi = np.maximum.reduceat(ego, first)
        meets = ((lo[:, 0] <= half_w) & (hi[:, 0] >= -half_w)
                 & (lo[:, 1] <= half_h) & (hi[:, 1] >= -half_h))
        return [(elements[near[n]], ego[first[n]:first[n] + counts[n]])
                for n in np.flatnonzero(meets).tolist()]

    instances: list[VectorMap] = []

    def observe(batch, lines) -> None:
        """Phases 2 and 3 for a batch of (pose, cropped elements) views."""
        runs = iter(_crop_polylines(lines, half_w, half_h))
        for pose, seen in batch:
            rng = np.random.default_rng(cfg.seed ^ len(instances))
            observed: list[MapElement] = []
            for el, ego_pts in seen:
                if el.label == LABEL_PED_CROSSING:
                    cropped = _crop_quad(ego_pts, half_w, half_h)
                    pieces = [] if cropped is None else [(el.id, cropped)]
                else:
                    pieces = [
                        (el.id if j == 0 else f"{el.id}#{j}", run)
                        for j, run in enumerate(next(runs))
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

    batch, lines, queued = [], [], 0
    for pose in poses:
        seen = cropped_elements(pose)
        batch.append((pose, seen))
        for el, ego_pts in seen:
            if el.label != LABEL_PED_CROSSING:
                lines.append(ego_pts)
                queued += len(ego_pts)
        if queued >= _CROP_BLOCK:
            observe(batch, lines)
            batch, lines, queued = [], [], 0
    observe(batch, lines)
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
