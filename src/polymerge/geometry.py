"""Planar geometry: point-to-polyline projection and rigid frame transforms.

Polylines are float arrays of shape (N, 2).  Rigid transforms use unit
quaternions in (w, x, y, z) order; map points live in the z = 0 plane and
the z component is dropped again after rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Projection",
    "Pose",
    "as_points",
    "arc_length",
    "project_point_to_polyline",
    "min_distance_to_polyline",
    "transform_to_world",
]

# below this squared length a segment is treated as a single point
_DEGENERATE_SQ = 1e-12 ** 2
# cells of a stacked block, so that memory stays bounded: a lockstep or a
# crossing group of ``_budget_groups``, or a ``_per_block`` block of
# convolved cells' products or of a pose block's ground-truth vertices
_BLOCK_CELLS = 1 << 16


def as_points(points) -> np.ndarray:
    """Coerce to a float64 array of shape (N, 2) with finite entries."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.shape == (2,):
        pts = pts[np.newaxis, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def _require_number(name: str, value) -> None:
    """A number is an int or a float, numpy's too; never a bool or a str."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive")


def arc_length(points) -> float:
    """Total length of a polyline (sum of segment lengths)."""
    pts = as_points(points)
    if len(pts) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


@dataclass(frozen=True)
class Projection:
    """Result of projecting a point onto a segment or polyline.

    Attributes:
        point: foot point on the polyline.
        segment_index: index of the segment the foot point lies on.
        t: clamped parameter along that segment, in [0, 1].
        distance: Euclidean distance from the query point to the foot point.
    """

    point: np.ndarray
    segment_index: int
    t: float
    distance: float


def _foot_points(a, points) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clamped foot of ``a`` on every segment of a polyline: (t, x, y, distance).

    ``a`` is one point (2,) or many (M, 2); each result has shape (S,) or
    (M, S).  Working per coordinate builds no (M, S, 2) array.
    """
    pts = as_points(points)
    if len(pts) < 2:
        raise ValueError("polyline needs at least 2 vertices")
    # a[..., :1] keeps a length-1 axis that broadcasts over the segments
    return _segment_feet(a[..., :1], a[..., 1:], pts[:-1], pts[1:])


def _segment_feet(ax, ay, start, end) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clamped foot of (ax, ay) on each segment ``start[..., k, :]`` ->
    ``end[..., k, :]`` (arrays of shape (..., S, 2)): (t, x, y, distance),
    each shaped as ``ax - start[..., 0]`` broadcasts.  ``_foot_points`` is
    this on a polyline's consecutive vertices, so every entry has the bits
    of that kernel's entry for its point and segment."""
    x0, y0 = start[..., 0], start[..., 1]
    dx, dy = end[..., 0] - x0, end[..., 1] - y0
    len_sq = dx * dx + dy * dy
    # degenerate segments project onto their start vertex
    degenerate = len_sq < _DEGENERATE_SQ
    # t = clip(((ax - x0) dx + (ay - y0) dy) / len_sq, 0, 1), f = start + t d
    # and the distance sqrt(ox ox + oy oy), o = a - f, computed in place: each
    # step rounds as its out-of-place form, with fewer temporaries
    t = ax - x0
    t *= dx
    tmp = ay - y0
    tmp *= dy
    t += tmp
    t /= np.where(degenerate, 1.0, len_sq)
    np.clip(t, 0.0, 1.0, out=t)
    if degenerate.any():
        t[..., degenerate] = 0.0
    fx = t * dx
    fx += x0
    fy = t * dy
    fy += y0
    ox = ax - fx
    ox *= ox
    oy = ay - fy
    oy *= oy
    ox += oy
    return t, fx, fy, np.sqrt(ox, out=ox)


def _distance_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances between every vertex of ``p`` (n, 2) and of ``q`` (m, 2),
    shape (n, m).  Each entry is ``sqrt(dx*dx + dy*dy)`` of its own pair,
    the bits of scipy's ``cdist``, which sums ``0 + dx² + dy²``."""
    dx = p[:, :1] - q[:, 0]
    dy = p[:, 1:] - q[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _segment_foot(ax, ay, bx, by, cx, cy) -> tuple[float, float, float, float, float]:
    """``_foot_points`` of one point on one segment, on Python floats:
    (unclamped t, t, foot x, foot y, distance).

    The kernel's expressions in the kernel's order, so every value has the
    bits of the kernel's entry for that segment, and t is the unclamped
    parameter clamped to [0, 1].  A degenerate segment (``b`` and ``c``
    closer than 1e-12) has both parameters 0.
    """
    dx, dy = cx - bx, cy - by
    len_sq = dx * dx + dy * dy
    if len_sq < _DEGENERATE_SQ:
        raw = t = 0.0
    else:
        raw = ((ax - bx) * dx + (ay - by) * dy) / len_sq
        # as np.clip: NaN stays NaN
        t = 0.0 if raw < 0.0 else 1.0 if raw > 1.0 else raw
    fx, fy = bx + t * dx, by + t * dy
    ox, oy = ax - fx, ay - fy
    return raw, t, fx, fy, math.sqrt(ox * ox + oy * oy)


def _kernel_slack(scale: float) -> float:
    """``1e-12 * scale + 1e-150``: the rounding slack of a decision on kernel
    distances, where ``scale`` (S) bounds every coordinate magnitude in it.

    With u = 2^-53, the kernel's foot (``_foot_points``, ``_segment_feet``
    and ``_segment_foot`` share their bits) lies within 10 u S of a point of
    the segment (of its start, where the kernel treats it as degenerate),
    that point within 30 u S of the segment's nearest point, and the computed
    distance within 3 u S, plus 3.2e-162 from squares that go subnormal, of
    the distance to the foot.  So each distance is within E = 5.3e-15 S +
    3.2e-162 of the true one (``tests/test_geometry.py`` checks this in exact
    arithmetic).  A box gap, one rounded subtraction, is within 2.2e-16 S of
    the true gap, a lower bound of any distance between the boxes.  One
    rounding of a result up to 3 S, the most a distance or a coordinate
    difference can be, errs by 3.4e-16 S.  So comparing two kernel distances,
    or one against the difference of two, errs by at most 3 E plus 4 such
    roundings, 1.8e-14 S + 1e-161, which the slack covers 50 times over.
    """
    return 1e-12 * scale + 1e-150


def _starts(sizes) -> np.ndarray:
    """Where each run of ``sizes`` items starts when the runs are laid end to end."""
    return np.cumsum(sizes) - sizes


def _runs(sizes) -> tuple[np.ndarray, np.ndarray]:
    """The run of every item of runs of ``sizes`` items laid end to end, and
    its index within that run."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) - _starts(sizes)[run]


def _per_block(cost: int) -> int:
    """How many items of ``cost`` cells each fit ``_BLOCK_CELLS``, at least one."""
    return max(1, _BLOCK_CELLS // cost)


def _budget_groups(sizes) -> list[list[int]]:
    """Indices of ``sizes``, (rows, width) blocks, in groups to stack row-wise.

    Sorted by width, the blocks fill groups in turn, each as long as its
    summed rows times its largest width stay within ``_BLOCK_CELLS``; a
    block over the budget on its own forms a group of its own.  No blocks
    give no group.
    """
    groups, group, rows = [], [], 0
    for k in sorted(range(len(sizes)), key=lambda k: sizes[k][1]):
        height, width = sizes[k]
        if group and (rows + height) * width > _BLOCK_CELLS:
            groups.append(group)
            group, rows = [], 0
        group.append(k)
        rows += height
    if group:
        groups.append(group)
    return groups


def project_point_to_polyline(a, points) -> Projection:
    """Closest-point projection of ``a`` onto a polyline.

    Evaluates the clamped segment projection for every segment and keeps
    the minimum distance; among equidistant segments the lowest index wins.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"query point must have shape (2,), got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("query point coordinates must be finite")
    t, fx, fy, dist = _foot_points(a, points)
    k = int(np.argmin(dist))
    return Projection(np.array([fx[k], fy[k]]), k, float(t[k]), float(dist[k]))


def min_distance_to_polyline(points, poly) -> float:
    """Smallest distance from any vertex in ``points`` to the polyline ``poly``."""
    return float(_foot_points(as_points(points), poly)[3].min())


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions in (w, x, y, z) order, broadcasting."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def _quat_conjugate(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _inverse_poses(rotations: np.ndarray, translations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverses of the poses whose unit quaternions and translations are
    the rows of ``rotations`` (V, 4) and ``translations`` (V, 3): their
    rotations and translations, each row with the bits of ``Pose.inverse()``
    of its pose, which raises ValueError where this does.  As ``Pose``
    does, each conjugate is divided by its rounded norm
    ``sqrt(((w*w + x*x) + y*y) + z*z)``, summed in that order, after a check
    that the norm is within 1e-6 of 1."""
    conj = _quat_conjugate(rotations)
    w, x, y, z = conj.T
    norm = np.sqrt(w * w + x * x + y * y + z * z)
    off = np.abs(norm - 1.0) > 1e-6
    if off.any():
        raise ValueError(f"rotation quaternion norm {norm[off][0]:.9f} is not 1")
    vecs = np.zeros((len(translations), 4))
    vecs[:, 1:] = translations
    shifts = -_hamilton(_hamilton(conj, vecs), rotations)[:, 1:]
    if not np.isfinite(shifts).all():
        raise ValueError("translation components must be finite")
    return conj / norm[:, np.newaxis], shifts


def _transform_rows(points: np.ndarray, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Points (N, 2) rotated by unit quaternions and shifted by the x and y
    of translations: row k by ``rotations[k]`` and ``translations[k]``
    (shapes (N, 4) and (N, 3)), or every row by one (4,) and (3,).  Every
    step works on each row on its own, so a row has the bits of a
    ``transform_to_world`` call with its own pose."""
    vecs = np.zeros((len(points), 4))
    vecs[:, 1:3] = points
    rotated = _hamilton(_hamilton(rotations, vecs), _quat_conjugate(rotations))
    return rotated[:, 1:3] + translations[..., :2]


@dataclass(frozen=True)
class Pose:
    """Rigid transform from an ego frame into the world frame.

    ``rotation`` is a unit quaternion (w, x, y, z); ``translation`` is the
    frame origin in world coordinates.  Quaternions whose norm differs from
    1 by at most 1e-6 are normalized silently; anything further off is
    rejected.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"rotation must have 4 components, got shape {q.shape}")
        w, x, y, z = q.tolist()
        if not all(map(math.isfinite, (w, x, y, z))):
            raise ValueError("rotation components must be finite")
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"rotation quaternion norm {norm:.9f} is not 1")
        q = q / norm
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must have 3 components, got shape {t.shape}")
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError("translation components must be finite")
        q.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_yaw(cls, yaw: float, x: float = 0.0, y: float = 0.0) -> "Pose":
        """Pose rotating about the z axis by ``yaw`` radians, origin at (x, y)."""
        half = 0.5 * yaw
        return cls(
            np.array([np.cos(half), 0.0, 0.0, np.sin(half)]),
            np.array([x, y, 0.0]),
        )

    def inverse(self) -> "Pose":
        """Pose mapping world coordinates back into this pose's frame."""
        conj = _quat_conjugate(self.rotation)
        vec = np.concatenate([[0.0], self.translation])
        rotated = _hamilton(_hamilton(conj, vec), self.rotation)
        return Pose(conj, -rotated[1:])


def transform_to_world(points, pose: Pose) -> np.ndarray:
    """Map polyline vertices from the pose's frame into world coordinates.

    Each vertex (x, y) is lifted to the pure quaternion (0, x, y, 0),
    rotated as q v q^-1 and shifted by the translation; the z component is
    dropped afterwards since maps are planar.
    """
    return _transform_rows(as_points(points), pose.rotation, pose.translation)
