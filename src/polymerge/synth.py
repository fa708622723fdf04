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

from .geometry import (Pose, _inverse_poses, _per_block, _require_number, _runs, _starts,
                       _transform_rows, arc_length)
from .map_model import (
    LABEL_PED_CROSSING,
    MapElement,
    MapFormatError,
    VectorMap,
    _certified_elements,
    _check_range,
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
        _require_number("sigma", self.sigma)
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")
        _require_number("dropout", self.dropout)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        try:
            w, h = self.window
            for side in (w, h):
                _require_number("window", side)
        except (TypeError, ValueError):
            raise ValueError(
                f"window must be a (width, height) pair of numbers, got {self.window!r}"
            ) from None
        if not all(math.isfinite(side) and side > 0 for side in (w, h)):
            raise ValueError("window sides must be finite and positive")
        # a tuple keeps the frozen config hashable and equal to its tuple twin
        object.__setattr__(self, "window", (float(w), float(h)))
        object.__setattr__(self, "n_instances", _integer("n_instances", self.n_instances))
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        # instance k draws from the stream seeded with seed ^ k, which numpy
        # refuses for a negative seed; a numpy integer seed is kept as a
        # Python int, so that seed ^ k cannot overflow its dtype
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _integer(name: str, value) -> int:
    """An int or a numpy integer, as a Python int; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _crop_polylines(polys, half_w: float, half_h: float) -> list[list[np.ndarray]]:
    """Crop polylines (each an (n, 2) array, n >= 2) to the centered window,
    splitting each where it leaves: the runs of every polyline, in order.

    Each segment p-q gets a Liang-Barsky clip (Liang & Barsky, ACM TOG
    1984) with the per-segment rule's float expressions, on the array of
    all segments at once: per axis, ``delta = q - p``, ``lo = -half - p``
    and ``hi = half - p``; a ``delta == 0.0`` axis misses when ``lo > 0`` or
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
    above 1.99e-9.  A run with no such step is measured with ``arc_length``.
    """
    pieces: list[list[np.ndarray]] = [[] for _ in polys]
    if not polys:
        return pieces
    pts = np.concatenate(polys)
    ends = np.cumsum([len(poly) for poly in polys])
    # vertex s starts segment s, to s + 1, unless it ends its polyline; so
    # segment s - 1 comes before segment s in the same polyline when both exist
    hit = np.ones(len(pts) - 1, dtype=bool)
    hit[ends[:-1] - 1] = False
    p, d = pts[:-1], pts[1:] - pts[:-1]
    t0, t1 = np.zeros(len(p)), np.ones(len(p))
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
    seg = np.flatnonzero(hit)
    if not len(seg):
        return pieces
    p, d = p[seg], d[seg]
    a = p + t0[seg, None] * d
    b = p + t1[seg, None] * d
    joins = (np.abs(b[:-1] - a[1:]) <= 1e-9 + 1e-5 * np.abs(a[1:])).all(axis=1)
    opens = np.concatenate(([True], (seg[1:] - 1 != seg[:-1]) | ~joins))
    # the run points: each run's start, then every segment end
    rows = np.cumsum(1 + opens) - 1
    out = np.empty((rows[-1] + 1, 2))
    out[rows] = b
    heads = rows[opens] - 1
    out[heads] = a[opens]
    big = (np.abs(out[1:] - out[:-1]) > 2e-9).any(axis=1)
    # the step from a run's last point to the next run's start is no step
    big[heads[1:] - 1] = False
    certified = np.logical_or.reduceat(big, heads).tolist()
    owners = np.searchsorted(ends, seg[opens], side="right").tolist()
    bounds = heads.tolist() + [len(out)]
    for r, owner in enumerate(owners):
        run = out[bounds[r]:bounds[r + 1]]
        if certified[r] or arc_length(run) > 1e-9:
            pieces[owner].append(run)
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
    """Crop a crossing quad that is not wholly inside the window: what is
    visible is re-fit to 4 corners, None when less than a triangle is."""
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

    Views go in blocks that hold at most ``geometry._BLOCK_CELLS``
    ground-truth vertices over all their views (at least one view), so the
    rows a block moves and the line vertices it crops in one
    ``_crop_polylines`` call stay bounded.  Each block runs three phases:

    1. The elements whose world bounding box, mapped into a view's ego
       frame, comes within ``1e-6 * (1 + S)`` of the window, S bounding
       every coordinate magnitude (far above rounding), move into that
       view's frame.  ``transform_to_world`` with the inverse pose is an
       affine map of the plane whose linear part B is the upper-left 2 x 2
       block of the inverse's rotation matrix, so it maps a box of centre c
       and half extents h into the box of centre B c + d and half extents
       |B| h.  A skipped element's ego box thus lies beyond a window edge,
       which fails the clippers' own comparisons: it would yield no piece.
       Every kept element's rows move in one ``_transform_rows`` call, each
       row by its own view's inverse pose (``_inverse_poses``), which gives
       each row the bits of a ``transform_to_world`` call on that view's
       rows.  A moved crossing whose ego bounding box lies within the window
       has every corner within it, and is kept as it is; ``_crop_quad``
       crops the others.
    2. One ``_crop_polylines`` call crops every line the block's views keep.
    3. Per view in order, on the RNG stream seeded with ``seed ^ k``, each
       cropped element's pieces (a crossing is cropped here by
       ``_crop_quad``) are dropped out and jittered piece by piece.  The
       RNG is drawn per piece, so neither skipping an element nor the
       blocking changes a draw.  The noisy pieces of all the block's views
       are built in one ``_certified_elements`` call; a crossing it does
       not certify goes to ``_quad_element``, a line to ``MapElement``.

    A noisy line that is not a valid element, say one with a coordinate
    that overflowed, raises ValueError naming its instance and element.
    """
    poses = list(poses)
    elements = to_world(gt).elements
    if not elements:
        return [VectorMap((), "ego", pose) for pose in poses]
    half_w, half_h = cfg.window[0] / 2.0, cfg.window[1] / 2.0
    stacked = np.vstack([el.points for el in elements])
    sizes = np.array([len(el.points) for el in elements])
    starts = _starts(sizes)
    world_lo = np.minimum.reduceat(stacked, starts)
    world_hi = np.maximum.reduceat(stacked, starts)
    (mid_x, mid_y), (half_x, half_y) = 0.5 * (world_lo + world_hi).T, 0.5 * (world_hi - world_lo).T
    scale = max(float(np.abs(stacked).max()), half_w, half_h)

    def cropped_elements(block) -> list[list[tuple[MapElement, np.ndarray, bool]]]:
        """Phase 1: per view of the block, (element, ego points, wholly
        inside the window) of each element the view crops."""
        rotations, shifts = _inverse_poses(np.array([pose.rotation for pose in block]),
                                           np.array([pose.translation for pose in block]))
        # one row per view, one column per element
        w, x, y, z = rotations.T[:, :, np.newaxis]
        dx, dy = shifts[:, :1], shifts[:, 1:2]
        b00, b01 = 1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z)
        b10, b11 = 2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z)
        margin = 1e-6 * (1.0 + np.maximum(np.maximum(np.abs(dx), np.abs(dy)), scale))
        keep = ((np.abs(mid_x * b00 + mid_y * b01 + dx)
                 - (half_x * np.abs(b00) + half_y * np.abs(b01)) <= half_w + margin)
                & (np.abs(mid_x * b10 + mid_y * b11 + dy)
                   - (half_x * np.abs(b10) + half_y * np.abs(b11)) <= half_h + margin))
        view, near = np.nonzero(keep)
        seen: list[list[tuple[MapElement, np.ndarray, bool]]] = [[] for _ in block]
        if not len(near):
            return seen
        counts = sizes[near]
        pair, vertex = _runs(counts)
        first, owner = _starts(counts), view[pair]
        ego = _transform_rows(stacked[starts[near][pair] + vertex], rotations[owner], shifts[owner])
        lo = np.minimum.reduceat(ego, first)
        hi = np.maximum.reduceat(ego, first)
        inside = ((lo[:, 0] >= -half_w) & (hi[:, 0] <= half_w)
                  & (lo[:, 1] >= -half_h) & (hi[:, 1] <= half_h)).tolist()
        for n in range(len(near)):
            seen[view[n]].append((elements[near[n]], ego[first[n]:first[n] + counts[n]], inside[n]))
        return seen

    instances: list[VectorMap] = []
    per_block = _per_block(len(stacked))
    for b in range(0, len(poses), per_block):
        block = poses[b:b + per_block]
        seen = cropped_elements(block)
        runs = iter(_crop_polylines([ego_pts for view in seen for el, ego_pts, _ in view
                                     if el.label != LABEL_PED_CROSSING], half_w, half_h))
        # (view, piece id, label, noisy points) of every piece the block keeps
        noisy: list[tuple[int, str, str, np.ndarray]] = []
        for k, view in enumerate(seen, start=b):
            rng = np.random.default_rng(cfg.seed ^ k)
            for el, ego_pts, inside in view:
                if el.label == LABEL_PED_CROSSING:
                    cropped = ego_pts if inside else _crop_quad(ego_pts, half_w, half_h)
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
                    noisy.append((k, piece_id, el.label, pts))
        observed: list[list[MapElement]] = [[] for _ in block]
        built = _certified_elements([(piece_id, label, pts, False) for _, piece_id, label, pts in noisy])
        for (k, piece_id, label, pts), el in zip(noisy, built):
            if el is None and label == LABEL_PED_CROSSING:
                el = _quad_element(piece_id, pts)
            elif el is None:
                try:
                    el = MapElement(piece_id, label, pts)
                except ValueError as exc:
                    raise ValueError(f"instance {k}: {exc}") from None
            if el is not None:
                observed[k - b].append(el)
        instances += [VectorMap(tuple(els), "ego", pose) for pose, els in zip(block, observed)]
    return instances


def write_instances(instances, out_dir) -> list[str]:
    """Write instance_<k>.json files plus a poses.json manifest.

    Every instance is checked first, and nothing is written unless all
    pass: an instance not in the ego frame raises ValueError, and one with
    a number beyond the map format's coordinate range MapFormatError, each
    naming the instance.
    """
    instances = list(instances)
    for k, inst in enumerate(instances):
        if inst.frame != "ego":
            raise ValueError(f"instance {k}: frame is '{inst.frame}', not 'ego' with a pose")
        try:
            _check_range(inst)
        except MapFormatError as exc:
            raise MapFormatError(f"instance {k}: {exc}") from None
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
