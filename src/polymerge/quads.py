"""Merging pedestrian-crossing quadrilaterals via a coverage grid.

All observed quads of one chain are rasterized into a shared occupancy
grid (cell value = fraction of quads covering the cell center), the grid
is softened with a Gaussian blur in full mode so nothing is cut off at the
borders, cells above a quantile threshold form the consensus region, and
the merged crossing is the minimum-area rotated rectangle around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d

from .geometry import _foot_points, signed_area
from .map_model import LABEL_PED_CROSSING, MapElement

__all__ = [
    "EmptyRegionError",
    "CoverageGrid",
    "rasterize_coverage",
    "blur_coverage",
    "threshold_region",
    "min_rotated_rect",
    "quad_area",
    "merge_quads",
]


class EmptyRegionError(ValueError):
    """No grid cell reached the coverage threshold."""


@dataclass(frozen=True)
class CoverageGrid:
    """A regular 2D grid of coverage probabilities in [0, 1].

    ``origin`` is the world position of the lower-left corner of cell
    (0, 0); ``values[row, col]`` maps to the cell whose center is
    ``origin + ((col + 0.5) * cell_size, (row + 0.5) * cell_size)``.
    """

    origin: np.ndarray
    cell_size: float
    values: np.ndarray

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        origin = np.asarray(self.origin, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if origin.shape != (2,):
            raise ValueError("origin must be a 2-vector")
        if values.ndim != 2:
            raise ValueError("values must be a 2D array")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def cell_centers(self) -> np.ndarray:
        """Centers of all cells, shape (height * width, 2), row-major."""
        cols = (np.arange(self.width) + 0.5) * self.cell_size + self.origin[0]
        rows = (np.arange(self.height) + 0.5) * self.cell_size + self.origin[1]
        xx, yy = np.meshgrid(cols, rows)
        return np.column_stack([xx.ravel(), yy.ravel()])


def _points_in_quad(points: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """Boundary-inclusive containment test for many points in one quad."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    for k in range(4):
        x1, y1 = quad[k]
        x2, y2 = quad[(k + 1) % 4]
        # crossing-number parity against an upward ray
        crosses = (y1 > y) != (y2 > y)
        if np.any(crosses):
            x_hit = (x2 - x1) * (y[crosses] - y1) / (y2 - y1) + x1
            flip = np.zeros(len(points), dtype=bool)
            flip[crosses] = x[crosses] < x_hit
            inside ^= flip
    # points the parity test leaves out still count when they sit on an edge
    rest = np.flatnonzero(~inside)
    edge_dist = _foot_points(points[rest], np.vstack([quad, quad[:1]]))[3]
    inside[rest] = (edge_dist <= 1e-9).any(axis=1)
    return inside


def rasterize_coverage(quads, cell_size: float) -> CoverageGrid:
    """Rasterize quads into a coverage grid.

    Cell value = number of quads containing the cell center, divided by the
    total quad count; boundary hits count as inside.  The grid covers the
    common bounding box with a one-cell apron so the border of the covered
    area is always representable.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    quads = [np.asarray(q, dtype=float) for q in quads]
    if not quads:
        raise ValueError("rasterize_coverage needs at least one quad")
    for q in quads:
        if q.shape != (4, 2):
            raise ValueError("each quad must have exactly 4 vertices")
    stacked = np.vstack(quads)
    lo = stacked.min(axis=0) - cell_size
    hi = stacked.max(axis=0) + cell_size
    width = max(1, int(math.ceil((hi[0] - lo[0]) / cell_size)))
    height = max(1, int(math.ceil((hi[1] - lo[1]) / cell_size)))
    grid = CoverageGrid(lo, cell_size, np.zeros((height, width)))
    centers = grid.cell_centers()
    counts = np.zeros(len(centers))
    for q in quads:
        counts += _points_in_quad(centers, q)
    values = (counts / len(quads)).reshape(height, width)
    return CoverageGrid(lo, cell_size, values)


def gaussian_kernel(sigma_cells: float) -> np.ndarray:
    """Square 2D Gaussian kernel of radius ceil(3 sigma), normalized to sum 1."""
    if sigma_cells <= 0:
        raise ValueError("sigma must be positive")
    radius = int(math.ceil(3.0 * sigma_cells))
    ax = np.arange(-radius, radius + 1)
    xx, yy = np.meshgrid(ax, ax)
    kernel = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma_cells * sigma_cells))
    return kernel / kernel.sum()


def blur_coverage(grid: CoverageGrid, sigma_cells: float) -> CoverageGrid:
    """Gaussian blur in full-convolution mode.

    The output grid grows by the kernel radius on every side instead of
    clipping, so coverage mass near the borders is not distorted; the total
    mass is preserved.
    """
    kernel = gaussian_kernel(sigma_cells)
    radius = kernel.shape[0] // 2
    blurred = convolve2d(grid.values, kernel, mode="full")
    origin = grid.origin - radius * grid.cell_size
    return CoverageGrid(origin, grid.cell_size, blurred)


def threshold_region(grid: CoverageGrid, th_cov: float) -> np.ndarray:
    """Centers of all cells with coverage >= ``th_cov`` (row-major order)."""
    if not 0.0 < th_cov < 1.0:
        raise ValueError("th_cov must lie strictly between 0 and 1")
    mask = grid.values >= th_cov
    if not np.any(mask):
        raise EmptyRegionError(f"no cell reaches coverage threshold {th_cov}")
    return grid.cell_centers()[mask.ravel()]


def _row_extremes(points: np.ndarray) -> np.ndarray:
    """The leftmost and rightmost point of each distinct y.

    A point between two others of its row lies on the segment joining them,
    so it is never a strict hull vertex.
    """
    pts = points[np.lexsort((points[:, 0], points[:, 1]))]
    row_start = np.ones(len(pts), dtype=bool)
    row_start[1:] = pts[1:, 1] != pts[:-1, 1]
    row_end = np.ones(len(pts), dtype=bool)
    row_end[:-1] = row_start[1:]
    return pts[row_start | row_end]


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise, no duplicate endpoint."""
    # np.unique returns the rows sorted by x, then y: the order the chain walks
    pts = np.unique(_row_extremes(points), axis=0)
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def min_rotated_rect(points) -> np.ndarray:
    """Minimum-area rotated rectangle enclosing a point set.

    Walks the convex hull with rotating calipers: the optimal rectangle has
    one side collinear with a hull edge, so each edge direction is tried and
    the smallest axis-aligned box in that rotated frame wins.  Returns the
    4 corners in counter-clockwise order.  Fewer than 3 distinct points or
    a collinear set are rejected.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    hull = _convex_hull(pts)
    if len(hull) < 3:
        if len(np.unique(pts, axis=0)) < 3:
            raise ValueError("min_rotated_rect needs at least 3 distinct points")
        raise ValueError("min_rotated_rect needs non-collinear points")

    best_area = np.inf
    best_corners = None
    edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)
    for edge in edges:
        norm = float(np.hypot(edge[0], edge[1]))
        if norm < 1e-12:
            continue
        c, s = edge[0] / norm, edge[1] / norm
        # coordinates in the frame where this edge is horizontal
        xs = hull[:, 0] * c + hull[:, 1] * s
        ys = -hull[:, 0] * s + hull[:, 1] * c
        x0, x1 = xs.min(), xs.max()
        y0, y1 = ys.min(), ys.max()
        area = (x1 - x0) * (y1 - y0)
        if area < best_area:
            best_area = area
            local = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
            back = np.column_stack(
                [local[:, 0] * c - local[:, 1] * s, local[:, 0] * s + local[:, 1] * c]
            )
            best_corners = back
    return best_corners


def quad_area(points) -> float:
    """Unsigned area of a quadrilateral given by its 4 corners."""
    return abs(signed_area(points))


def _cell_corner_points(centers: np.ndarray, cell_size: float) -> np.ndarray:
    """Corners of every selected cell.  The rectangle fit works on the cell
    extents rather than bare centers, otherwise the result shrinks by half
    a cell on every side."""
    h = 0.5 * cell_size
    offsets = np.array([[-h, -h], [h, -h], [h, h], [-h, h]])
    return (centers[:, np.newaxis, :] + offsets[np.newaxis, :, :]).reshape(-1, 2)


def merge_quads(chain, config, report=None) -> MapElement:
    """Merge a chain of pedestrian-crossing elements into one rectangle.

    The result keeps the id of the chain's main element when one exists
    (else the lexicographically smallest id) and is flagged as main.  When
    no cell reaches the coverage threshold the largest input quad passes
    through unchanged and the fallback is recorded in the report.
    """
    members = list(chain)
    if len(members) < 2:
        raise ValueError("a merge chain needs at least 2 elements")
    for el in members:
        if el.label != LABEL_PED_CROSSING:
            raise ValueError(f"element '{el.id}' is not a {LABEL_PED_CROSSING}")

    main_ids = sorted(el.id for el in members if el.is_main)
    out_id = main_ids[0] if main_ids else min(el.id for el in members)

    grid = rasterize_coverage([el.points for el in members], config.cell_size)
    blurred = blur_coverage(grid, config.blur_sigma_cells)
    fallback = False
    try:
        centers = threshold_region(blurred, config.th_cov)
        corners = min_rotated_rect(_cell_corner_points(centers, config.cell_size))
    except EmptyRegionError:
        fallback = True
        largest = max(members, key=lambda el: (quad_area(el.points), el.id))
        corners = largest.points
    if report is not None:
        report.add_chain(
            label=LABEL_PED_CROSSING,
            members=[el.id for el in members],
            base_id=out_id,
            kind="quad",
            fallback=fallback,
        )
    return MapElement(out_id, LABEL_PED_CROSSING, corners, is_main=True)
