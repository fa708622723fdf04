"""Planar geometry: point-to-polyline projection, ring area and rigid frame transforms.

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
    "segment_parameter",
    "project_point_to_segment",
    "project_point_to_polyline",
    "min_distance_to_polyline",
    "signed_area",
    "transform_to_world",
]

# below this squared length a segment is treated as a single point
_DEGENERATE_SQ = 1e-12 ** 2


def as_points(points) -> np.ndarray:
    """Coerce to a float64 array of shape (N, 2) with finite entries."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.shape == (2,):
        pts = pts[np.newaxis, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


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


def segment_parameter(a, b, c) -> float:
    """Unclamped parameter of the foot of ``a`` on the line through ``b``, ``c``.

    The expression and its order of operations are those of the projection
    kernel, on Python floats, so the clamped parameter of any projection
    onto the same segment is this value clamped to [0, 1].  For a
    degenerate segment (``b`` and ``c`` closer than 1e-12) the parameter is
    defined as 0.
    """
    (ax, ay), (bx, by), (cx, cy) = (np.asarray(p, dtype=float).tolist() for p in (a, b, c))
    dx, dy = cx - bx, cy - by
    len_sq = dx * dx + dy * dy
    if len_sq < _DEGENERATE_SQ:
        return 0.0
    return ((ax - bx) * dx + (ay - by) * dy) / len_sq


def project_point_to_segment(a, b, c) -> Projection:
    """Project point ``a`` onto the segment from ``b`` to ``c``: the
    polyline projection onto ``(b, c)``.  The foot never leaves the segment,
    and a degenerate segment projects to ``b`` with t = 0.
    """
    return project_point_to_polyline(a, (b, c))


def _foot_points(a, points) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clamped foot of ``a`` on every segment of a polyline: (t, x, y, distance).

    ``a`` is one point (2,) or many (M, 2); each result has shape (S,) or
    (M, S).  Working per coordinate builds no (M, S, 2) array.
    """
    pts = as_points(points)
    if len(pts) < 2:
        raise ValueError("polyline needs at least 2 vertices")
    x0, y0 = pts[:-1, 0], pts[:-1, 1]
    dx, dy = pts[1:, 0] - x0, pts[1:, 1] - y0
    len_sq = dx * dx + dy * dy
    # a[..., :1] keeps a length-1 axis that broadcasts over the segments
    ax, ay = a[..., :1], a[..., 1:]
    # degenerate segments project onto their start vertex
    degenerate = len_sq < _DEGENERATE_SQ
    t = np.clip(((ax - x0) * dx + (ay - y0) * dy) / np.where(degenerate, 1.0, len_sq), 0.0, 1.0)
    t[..., degenerate] = 0.0
    fx, fy = x0 + t * dx, y0 + t * dy
    ox, oy = ax - fx, ay - fy
    return t, fx, fy, np.sqrt(ox * ox + oy * oy)


def project_point_to_polyline(a, points) -> Projection:
    """Closest-point projection of ``a`` onto a polyline.

    Evaluates the clamped segment projection for every segment and keeps
    the minimum distance; among equidistant segments the lowest index wins.
    """
    t, fx, fy, dist = _foot_points(np.asarray(a, dtype=float), points)
    k = int(np.argmin(dist))
    return Projection(np.array([fx[k], fy[k]]), k, float(t[k]), float(dist[k]))


def min_distance_to_polyline(points, poly) -> float:
    """Smallest distance from any vertex in ``points`` to the polyline ``poly``."""
    return float(_foot_points(as_points(points), poly)[3].min())


def signed_area(points) -> float:
    """Shoelace area of the closed ring through ``points``; positive when
    the ring winds counter-clockwise."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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
        if not np.all(np.isfinite(q)):
            raise ValueError("rotation components must be finite")
        w, x, y, z = q.tolist()
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"rotation quaternion norm {norm:.9f} is not 1")
        q = q / norm
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must have 3 components, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
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
    pts = as_points(points)
    q = pose.rotation
    vecs = np.zeros((len(pts), 4))
    vecs[:, 1:3] = pts
    rotated = _hamilton(_hamilton(q, vecs), _quat_conjugate(q))
    return rotated[:, 1:3] + pose.translation[:2]
