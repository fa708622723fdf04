"""Vector map data model and its JSON file format.

A map holds labeled elements: open polylines for dividers and road
boundaries, and pedestrian crossings stored as the 4 corners of a
quadrilateral (the closing edge is implied, never stored).  Maps are either
in a local ego frame (with the recording pose attached) or in the world
frame, and are immutable once built.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, _starts, _transform_rows, as_points

__all__ = [
    "LABELS",
    "LABEL_PED_CROSSING",
    "LABEL_DIVIDER",
    "LABEL_BOUNDARY",
    "MapFormatError",
    "MapElement",
    "VectorMap",
    "concatenate",
    "to_world",
    "load_map",
    "save_map",
]

LABEL_PED_CROSSING = "ped_crossing"
LABEL_DIVIDER = "divider"
LABEL_BOUNDARY = "boundary"
LABELS = (LABEL_PED_CROSSING, LABEL_DIVIDER, LABEL_BOUNDARY)

FRAMES = ("ego", "world")

_EPS = float(np.finfo(float).eps)
# the largest magnitude, in metres, of a coordinate or pose number a map file
# may hold: past 2**53 ~ 9e15 float steps are 2 m, and within it no square of
# a coordinate difference that merge or eval takes can overflow
_COORD_LIMIT = 1e16
_OUT_OF_RANGE = "holds a number beyond the coordinate range [-1e16, 1e16] m"
_JSON_NUMBERS = frozenset((int, float))


class MapFormatError(ValueError):
    """A map file or element violates the format contract."""


def _side(a, b, c, tol: float) -> int:
    """Which side of the line a-b the point c lies on: 1 left, -1 right,
    0 when their cross product is within ``tol`` of 0."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > tol) - (v < -tol)


def _canonical_quad(pts: np.ndarray) -> np.ndarray:
    """Check that 4 points form a simple quadrilateral and return them in
    canonical order; raises ValueError naming the problem otherwise.

    The stored ring of a quadrilateral has no natural first vertex, so the
    canonical form starts at the lexicographically smallest corner and
    winds counter-clockwise; it keeps serialization and curve comparisons
    stable.  A quad that is already canonical comes back unchanged.
    """
    if len(pts) != 4:
        raise ValueError(f"a {LABEL_PED_CROSSING} needs exactly 4 vertices, got {len(pts)}")
    c = pts.tolist()
    diameter = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            dx = c[i][0] - c[j][0]
            dy = c[i][1] - c[j][1]
            if abs(dx) <= 1e-12 and abs(dy) <= 1e-12:
                raise ValueError(f"{LABEL_PED_CROSSING} vertices {i} and {j} coincide")
            diameter = max(diameter, math.hypot(dx, dy))
    # corners rounded to the float grid of their coordinates are off by up
    # to eps * |coord|, so both zero tests below (cross products and the
    # shoelace) scale with how far the crossing sits from the origin
    tol = 1e-12 + 8 * _EPS * max(abs(v) for xy in c for v in xy) * diameter
    # opposite edges of the implied closed ring must not cross: each edge's
    # ends lie strictly on either side of the other edge's line
    for a, b, p, q in ((c[0], c[1], c[2], c[3]), (c[1], c[2], c[3], c[0])):
        if (_side(a, b, p, tol) * _side(a, b, q, tol) < 0
                and _side(p, q, a, tol) * _side(p, q, b, tol) < 0):
            raise ValueError(f"{LABEL_PED_CROSSING} edges self-intersect")
    # shoelace relative to corner 0
    (x0, y0), *rest = c
    (x1, y1), (x2, y2), (x3, y3) = [(x - x0, y - y0) for x, y in rest]
    area = 0.5 * ((x1 * y2 - x2 * y1) + (x2 * y3 - x3 * y2))
    if abs(area) <= tol:
        raise ValueError(f"{LABEL_PED_CROSSING} has zero area")
    order = [0, 1, 2, 3] if area > 0 else [3, 2, 1, 0]
    start = min(range(4), key=lambda i: c[order[i]])
    return pts[order[start:] + order[:start]]


@dataclass(frozen=True)
class MapElement:
    """One labeled map element.

    ``points`` is the open vertex chain; ``is_main`` marks elements that
    already belong to the growing global map.
    """

    id: str
    label: str
    points: np.ndarray
    is_main: bool = False

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("element id must be a non-empty string")
        if not isinstance(self.is_main, bool):
            raise ValueError(f"element '{self.id}': is_main must be a bool")
        if self.label not in LABELS:
            raise ValueError(
                f"element '{self.id}': unknown label '{self.label}'"
                f" (expected one of {', '.join(LABELS)})"
            )
        try:
            pts = as_points(self.points)
            if self.label == LABEL_PED_CROSSING:
                pts = _canonical_quad(pts)
            elif len(pts) < 2:
                raise ValueError(f"a polyline needs at least 2 vertices, got {len(pts)}")
            else:
                # when every step squares to 0, the arc length is 0 as well;
                # the first step, on Python floats, settles almost every line
                (x0, y0), (x1, y1) = pts[:2].tolist()
                dx, dy = x1 - x0, y1 - y0
                if not (dx * dx or dy * dy):
                    steps = pts[1:] - pts[:-1]
                    if not (steps * steps).any():
                        raise ValueError("polyline has zero arc length: its vertices coincide")
        except ValueError as exc:
            raise ValueError(f"element '{self.id}': {exc}") from None
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def with_points(self, points, is_main: bool | None = None) -> "MapElement":
        return MapElement(
            self.id,
            self.label,
            points,
            self.is_main if is_main is None else is_main,
        )


def _trusted(el_id: str, label: str, points: np.ndarray, is_main: bool) -> MapElement:
    """A MapElement built without ``__post_init__``, from fields that are
    already valid: a read-only C-contiguous float (N, 2) array of points
    that MapElement would keep as they are."""
    el = object.__new__(MapElement)
    el.__dict__.update(id=el_id, label=label, points=points, is_main=is_main)
    return el


# Rows of _canonical_quad's tests: the corner pairs (i, j) of the coincidence
# test, and the triples (a, b, c) of _side(a, b, c) in its edge test, for
# edges 0-1 and 2-3, then 1-2 and 3-0.
_PAIR_I, _PAIR_J = np.triu_indices(4, 1)
_SIDE_A, _SIDE_B, _SIDE_C = np.array([[0, 0, 2, 2, 1, 1, 3, 3], [1, 1, 3, 3, 2, 2, 0, 0],
                                      [2, 3, 0, 1, 3, 0, 1, 2]])
# The batch takes the diameter in tol with np.hypot, which can round one ulp
# away from math.hypot; a cross product or area this close, relative to tol,
# to the cut is left to MapElement.  Below the coordinate bound no product
# of the tests can overflow.
_CUT_MARGIN = 1e-9
_BATCH_BOUND = 1e100


def _certified_quads(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_canonical_quad on a (Q, 4, 2) batch of finite quads: (canonical
    corners, certified).  Each test takes the float expressions of
    _canonical_quad, so a certified quad passes it and comes back in its
    order; any other quad is for MapElement to decide."""
    pair = q[:, _PAIR_I] - q[:, _PAIR_J]
    apart = (np.abs(pair) > 1e-12).any(axis=2).all(axis=1)
    scale = np.abs(q).max(axis=(1, 2))
    tol = (1e-12 + 8 * _EPS * scale * np.hypot(pair[..., 0], pair[..., 1]).max(axis=1))[:, np.newaxis]
    # (b - a) x (c - a) of each triple, and the shoelace about corner 0
    e, f = q[:, _SIDE_B] - q[:, _SIDE_A], q[:, _SIDE_C] - q[:, _SIDE_A]
    cross = e[..., 0] * f[..., 1] - e[..., 1] * f[..., 0]
    (x1, x2, x3), (y1, y2, y3) = (q[:, 1:] - q[:, :1]).transpose(2, 1, 0)
    area = 0.5 * ((x1 * y2 - x2 * y1) + (x2 * y3 - x3 * y2))
    side = np.sign(cross) * (np.abs(cross) > tol)
    pairs = side[:, 0::2] * side[:, 1::2] < 0
    crossed = (pairs[:, 0] & pairs[:, 1]) | (pairs[:, 2] & pairs[:, 3])
    cuts = np.abs(np.concatenate([cross, area[:, np.newaxis]], axis=1))
    clear = (np.abs(cuts - tol) > _CUT_MARGIN * tol).all(axis=1)
    certified = apart & (scale <= _BATCH_BOUND) & ~crossed & (cuts[:, -1] > tol[:, 0]) & clear
    # counter-clockwise from the lexicographically smallest corner; the
    # corners of a certified quad are apart, so it has one
    rows = np.arange(len(q))[:, np.newaxis]
    ring = q[rows, np.where(area[:, np.newaxis] > 0, np.arange(4), np.arange(3, -1, -1))]
    x, y = ring[..., 0], ring[..., 1]
    start = np.where(x == x.min(axis=1, keepdims=True), y, np.inf).argmin(axis=1)
    return ring[rows, (start[:, np.newaxis] + np.arange(4)) % 4], certified


def _certified_elements(specs) -> list[MapElement | None]:
    """The elements of (id, label, points, is_main) specs that one batch
    check certifies, built without ``__post_init__``; None for the others.

    The check only accepts: an element it certifies passes MapElement's
    rule and gets its point bytes, and any other is for MapElement itself
    to build or reject.  It certifies a non-empty str id, a label of
    LABELS, a bool is_main and a float64 (N, 2) array of finite points: a
    line of 2 vertices or more with a nonzero first step, or a crossing
    whose 4 corners pass ``_certified_quads``.
    """
    out: list[MapElement | None] = [None] * len(specs)
    screened = [n for n, (el_id, label, pts, is_main) in enumerate(specs)
                if type(pts) is np.ndarray and pts.dtype == np.float64 and pts.shape[1:] == (2,)
                and (len(pts) == 4 if label == LABEL_PED_CROSSING else len(pts) >= 2 and label in LABELS)
                and type(is_main) is bool and type(el_id) is str and el_id]
    if not screened:
        return out
    points = [specs[n][2] for n in screened]
    sizes = np.array([len(pts) for pts in points])
    starts = _starts(sizes)
    stacked = np.concatenate(points)
    certified = np.logical_and.reduceat(np.isfinite(stacked).all(axis=1), starts)
    quad = np.array([specs[n][1] == LABEL_PED_CROSSING for n in screened])
    with np.errstate(all="ignore"):
        first = stacked[starts[~quad] + 1] - stacked[starts[~quad]]
        certified[~quad] &= (first * first != 0.0).any(axis=1)
        corners, whole = _certified_quads(stacked[starts[quad, np.newaxis] + np.arange(4)])
        certified[quad] &= whole
    stacked.flags.writeable = corners.flags.writeable = False
    quads = iter(corners)
    for n, a, b, is_quad, ok in zip(screened, starts.tolist(), (starts + sizes).tolist(),
                                    quad.tolist(), certified.tolist()):
        pts = next(quads) if is_quad else stacked[a:b]
        if ok:
            el_id, label, _, is_main = specs[n]
            out[n] = _trusted(el_id, label, pts, is_main)
    return out


def _build_elements(specs) -> list[MapElement]:
    """MapElements of (id, label, points, is_main) specs, in order: those
    the batch check does not certify are built by MapElement, which raises
    its own error for the first that is not valid."""
    return [MapElement(*spec) if el is None else el
            for el, spec in zip(_certified_elements(specs), specs)]


@dataclass(frozen=True)
class VectorMap:
    """An immutable collection of map elements in one coordinate frame."""

    elements: tuple[MapElement, ...]
    frame: str = "world"
    pose: Pose | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame '{self.frame}' (expected 'ego' or 'world')")
        if self.frame == "ego" and self.pose is None:
            raise ValueError("frame is 'ego' but no pose is given")
        seen = set()
        for el in self.elements:
            if not isinstance(el, MapElement):
                raise ValueError("map elements must be MapElement instances")
            if el.id in seen:
                raise ValueError(f"duplicate element id '{el.id}'")
            seen.add(el.id)

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, element_id: str) -> MapElement:
        for el in self.elements:
            if el.id == element_id:
                return el
        raise KeyError(element_id)


def _world_points(maps) -> list[list[np.ndarray]]:
    """Every element's points of every map, in the world frame.  The points
    of every ego map move in one ``_transform_rows`` call, each row by its
    own map's pose; the kernel works row by row, so each row has the bits of
    a per-element ``transform_to_world`` call.  Each moved element's points
    are a slice of the kernel's rows."""
    points = [[el.points for el in vmap.elements] for vmap in maps]
    egos = [k for k, vmap in enumerate(maps) if vmap.frame == "ego" and vmap.elements]
    if not egos:
        return points
    moving = [pts for k in egos for pts in points[k]]
    rows = [sum(len(pts) for pts in points[k]) for k in egos]
    rotations = np.repeat([maps[k].pose.rotation for k in egos], rows, axis=0)
    translations = np.repeat([maps[k].pose.translation for k in egos], rows, axis=0)
    moved = _transform_rows(np.concatenate(moving), rotations, translations)
    start = 0
    for k in egos:
        rows_k = []
        for pts in points[k]:
            rows_k.append(moved[start:start + len(pts)])
            start += len(pts)
        points[k] = rows_k
    return points


def to_world(vmap: VectorMap) -> VectorMap:
    """Express a map in the world frame (identity for world maps)."""
    if vmap.frame == "world":
        return vmap
    moved = zip(vmap.elements, _world_points([vmap])[0])
    return VectorMap(tuple(MapElement(el.id, el.label, pts, el.is_main) for el, pts in moved), "world")


def concatenate(main: VectorMap, secondaries) -> VectorMap:
    """Stack the main map and secondary maps into one world-frame map.

    Every element id is remapped to "<source-index>:<original-id>" (the main
    map is source 0) so the result stays collision-free, and elements of the
    main map are flagged ``is_main``.  An empty main map is legal; it
    bootstraps a global map from scratch.

    Elements of world maps keep their valid points and are only re-tagged;
    the moved elements of ego maps are built in one batch.
    """
    sources = [main, *secondaries]
    moved = iter(_build_elements([
        (f"{idx}:{el.id}", el.label, pts, idx == 0)
        for idx, (src, points) in enumerate(zip(sources, _world_points(sources))) if src.frame == "ego"
        for el, pts in zip(src.elements, points)
    ]))
    return VectorMap(tuple(
        next(moved) if src.frame == "ego" else _trusted(f"{idx}:{el.id}", el.label, el.points, idx == 0)
        for idx, src in enumerate(sources) for el in src.elements
    ), "world")


def _parse_pose(obj, where: str) -> Pose:
    if not isinstance(obj, dict):
        raise MapFormatError(f"{where}: pose must be an object")
    for key in ("rotation", "translation"):
        if key not in obj:
            raise MapFormatError(f"{where}: pose is missing '{key}'")
    rot = obj["rotation"]
    trans = obj["translation"]
    if not isinstance(rot, list) or len(rot) != 4:
        raise MapFormatError(f"{where}: pose rotation must be [w, x, y, z]")
    if not isinstance(trans, list) or len(trans) != 3:
        raise MapFormatError(f"{where}: pose translation must be [x, y, z]")
    for key, values in (("rotation", rot), ("translation", trans)):
        if any(type(v) not in _JSON_NUMBERS for v in values):
            raise MapFormatError(f"{where}: pose {key} must hold numbers, got {json.dumps(values)}")
        if any(abs(v) > _COORD_LIMIT for v in values):
            raise MapFormatError(f"{where}: pose {key} {_OUT_OF_RANGE}")
    try:
        return Pose(np.array(rot, dtype=float), np.array(trans, dtype=float))
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"{where}: {exc}") from None


def _parse_element(obj, index: int) -> MapElement:
    """The MapElement of a JSON element; raises MapFormatError for the first
    field at fault."""
    where = f"element #{index}"
    if not isinstance(obj, dict):
        raise MapFormatError(f"{where}: must be an object")
    el_id = obj.get("id")
    if not isinstance(el_id, str) or not el_id:
        raise MapFormatError(f"{where}: field 'id' must be a non-empty string")
    where = f"element '{el_id}'"
    label = obj.get("label")
    if label is None:
        raise MapFormatError(f"{where}: missing field 'label'")
    pts = obj.get("points")
    if not isinstance(pts, list):
        raise MapFormatError(f"{where}: field 'points' must be a list of [x, y] pairs")
    for k, p in enumerate(pts):
        if not isinstance(p, list) or len(p) != 2:
            raise MapFormatError(f"{where}: points[{k}] must be an [x, y] pair")
        # exact types: json reads true as a bool, which is an int subclass
        if type(p[0]) not in _JSON_NUMBERS or type(p[1]) not in _JSON_NUMBERS:
            raise MapFormatError(f"{where}: points[{k}] must hold two numbers, got {json.dumps(p)}")
    is_main = obj.get("is_main", False)
    if not isinstance(is_main, bool):
        raise MapFormatError(f"{where}: field 'is_main' must be a boolean")
    try:
        xy = np.fromiter(itertools.chain.from_iterable(pts), float, 2 * len(pts))
    except OverflowError:
        xy = None
    # a NaN maximum compares false; MapElement names it as not finite
    if xy is None or np.abs(xy).max(initial=0.0) > _COORD_LIMIT:
        k = next(k for k, p in enumerate(pts) if abs(p[0]) > _COORD_LIMIT or abs(p[1]) > _COORD_LIMIT)
        raise MapFormatError(f"{where}: points[{k}] {_OUT_OF_RANGE}")
    try:
        return MapElement(el_id, label, xy.reshape(-1, 2), is_main)
    except (TypeError, ValueError) as exc:
        raise MapFormatError(str(exc)) from None


def load_map(path) -> VectorMap:
    """Read a vector map from a JSON file.

    Raises MapFormatError naming the offending element or field whenever
    the file violates the format.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MapFormatError(f"{path}: not UTF-8 text: {exc}") from None
    if not isinstance(doc, dict):
        raise MapFormatError(f"{path}: top level must be an object")
    frame = doc.get("frame")
    if frame not in FRAMES:
        raise MapFormatError(f"{path}: field 'frame' must be 'ego' or 'world', got {frame!r}")
    pose = None
    if "pose" in doc and doc["pose"] is not None:
        pose = _parse_pose(doc["pose"], path)
    if frame == "ego" and pose is None:
        raise MapFormatError(f"{path}: frame is 'ego' but field 'pose' is missing")
    raw_elements = doc.get("elements")
    if not isinstance(raw_elements, list):
        raise MapFormatError(f"{path}: field 'elements' must be a list")
    elements = []
    for k, obj in enumerate(raw_elements):
        try:
            elements.append(_parse_element(obj, k))
        except MapFormatError as exc:
            raise MapFormatError(f"{path}: {exc}") from None
    try:
        return VectorMap(tuple(elements), frame, pose)
    except ValueError as exc:
        raise MapFormatError(f"{path}: {exc}") from None


def pose_to_doc(pose: Pose) -> dict:
    """The JSON form of a pose, as ``load_map`` reads it."""
    return {
        "rotation": pose.rotation.tolist(),
        "translation": pose.translation.tolist(),
    }


@contextlib.contextmanager
def atomic_writer(path):
    """Text file whose contents replace ``path`` by an atomic rename when the
    block completes; when anything fails the temp file is removed and
    ``path`` stays as it was.  The file gets the mode ``open()`` would give
    it (0o666 less the umask), not mkstemp's 0o600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(doc, path) -> None:
    """Serialize ``doc`` to ``path`` via a temp file and atomic rename."""
    with atomic_writer(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# The map file layout is the one ``json.dump(doc, fh, indent=2)`` gives, written
# one element at a time: floats as ``repr`` (what json writes for finite
# floats), strings escaped to ASCII by json's own encoder.
_json_str = json.encoder.encode_basestring_ascii
_VERTEX = "[\n          %r,\n          %r\n        ]"
_VERTEX_SEP = ",\n        "


def _float_list(values, indent: int) -> str:
    """A JSON list of floats whose items sit ``indent`` spaces deep."""
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(map(repr, values)) + pad[:-2] + "]"


def _element_json(el: MapElement) -> str:
    vertices = _VERTEX_SEP.join([_VERTEX] * len(el.points)) % tuple(el.points.ravel().tolist())
    return (
        "    {\n"
        f'      "id": {_json_str(el.id)},\n'
        f'      "label": {_json_str(el.label)},\n'
        f'      "is_main": {"true" if el.is_main else "false"},\n'
        f'      "points": [\n        {vertices}\n      ]\n'
        "    }"
    )


def _check_range(vmap: VectorMap) -> None:
    """Refuse a map ``load_map`` would reject for its range: a pose's
    translation or a fold's extension can take valid inputs past it."""
    points = [el.points for el in vmap.elements]
    if points and np.abs(np.concatenate(points)).max() > _COORD_LIMIT:
        el = next(el for el in vmap.elements if np.abs(el.points).max() > _COORD_LIMIT)
        k = int((np.abs(el.points) > _COORD_LIMIT).any(axis=1).argmax())
        raise MapFormatError(f"element '{el.id}': points[{k}] {_OUT_OF_RANGE}")
    if vmap.pose is not None and np.abs(vmap.pose.translation).max() > _COORD_LIMIT:
        raise MapFormatError(f"pose translation {_OUT_OF_RANGE}")


def save_map(vmap: VectorMap, path) -> None:
    """Write a vector map as JSON.  Floats keep their full round-trip
    precision, and the file is replaced atomically.  A map with a number
    beyond the coordinate range raises MapFormatError, and nothing is
    written."""
    _check_range(vmap)
    with atomic_writer(path) as fh:
        fh.write('{\n  "frame": ' + _json_str(vmap.frame))
        if vmap.pose is not None:
            fh.write(
                ',\n  "pose": {\n    "rotation": ' + _float_list(vmap.pose.rotation.tolist(), 6)
                + ',\n    "translation": ' + _float_list(vmap.pose.translation.tolist(), 6)
                + "\n  }"
            )
        if not vmap.elements:
            fh.write(',\n  "elements": []\n}\n')
            return
        fh.write(',\n  "elements": [\n')
        sep = ""
        for el in vmap.elements:
            fh.write(sep + _element_json(el))
            sep = ",\n"
        fh.write("\n  ]\n}\n")
