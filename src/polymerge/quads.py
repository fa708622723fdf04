"""Merging pedestrian-crossing quadrilaterals via a coverage grid.

All observed quads of one chain are rasterized into a shared occupancy
grid (cell value = fraction of quads covering the cell center), the grid
is softened with a Gaussian blur in full mode so nothing is cut off at the
borders, cells above a quantile threshold form the consensus region, and
the merged crossing is the minimum-area rotated rectangle around it.

``merge_quads`` does work in proportion to the region's edge rather than
its area, with the same bits as the plain pipeline
(``rasterize_coverage`` → ``blur_coverage`` → ``threshold_region`` → fit):

- the raster fills each quad's row intervals from one crossing abscissa
  per row and edge, and measures edge distances only for cell centers
  that can lie within 1e-9 of an edge (a reach widened by the kernel's
  ``geometry._kernel_slack``), each against that edge alone;
- the blur is estimated by two 1-D passes of the kernel's marginal, built
  once per sigma and applied one tap at a time over shifted slices, and
  only cells whose estimate lies within 1e-9 of ``th_cov`` are convolved
  exactly, by ``blur_coverage``'s own kernel ``_convolve_cells``;
- the rectangle is fitted to the outline corners: per row, the leftmost
  cell's two left corners and the rightmost cell's two right corners, the
  only cell corners that can be hull vertices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import _kernel_slack, _require_finite_positive, _segment_feet
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

# A cell center this close to a quad edge counts as covered.
_ON_EDGE = 1e-9
# The two-pass blur estimate ``_separable_blur`` stays within 1e-12 of the
# exact blur over sigma 0.5-4 (tests/test_quads.py); cells whose estimate
# lies this close to th_cov are convolved exactly.
_RECHECK_BAND = 1e-9
# products per block of cells in ``_convolve_cells``, which bounds its memory
_CONVOLVE_BLOCK = 1 << 16


class EmptyRegionError(ValueError):
    """No grid cell reached the coverage threshold."""


def _center_axes(origin: np.ndarray, cell_size: float, shape) -> tuple[np.ndarray, np.ndarray]:
    """World x of every column center and world y of every row center."""
    height, width = shape
    cols = (np.arange(width) + 0.5) * cell_size + origin[0]
    rows = (np.arange(height) + 0.5) * cell_size + origin[1]
    return cols, rows


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
        _require_finite_positive("cell_size", self.cell_size)
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
        cols, rows = _center_axes(self.origin, self.cell_size, self.values.shape)
        xx, yy = np.meshgrid(cols, rows)
        return np.column_stack([xx.ravel(), yy.ravel()])


def _on_edge_candidates(start, end, cols, rows, reach):
    """(edge, row, col) of every cell center within ``reach`` of an edge.

    ``start`` and ``end`` are the edges' endpoints, shape (E, 2).  The rows
    come from the edge's y extent; each row's columns from the x extent and
    the band of half-width ``reach * length / |dy|`` around the edge line.
    """
    ax, ay, bx, by = start[:, 0], start[:, 1], end[:, 0], end[:, 1]
    first = rows.searchsorted(np.minimum(ay, by) - reach)
    n_rows = rows.searchsorted(np.maximum(ay, by) + reach, "right") - first
    edge = np.arange(len(start)).repeat(n_rows)
    row = np.arange(len(edge)) - (n_rows.cumsum() - n_rows - first).repeat(n_rows)
    y = rows[row]
    dx, dy = (bx - ax)[edge], (by - ay)[edge]
    x_lo = np.minimum(ax, bx)[edge] - reach
    x_hi = np.maximum(ax, bx)[edge] + reach
    sloped = dy != 0.0
    safe_dy = np.where(sloped, dy, 1.0)
    # a band that overflows is unbounded: fmax/fmin drop its NaN ends
    with np.errstate(over="ignore", invalid="ignore"):
        x_line = ax[edge] + dx * ((y - ay[edge]) / safe_dy)
        half = reach * np.hypot(dx, dy) / np.abs(safe_dy)
        x_lo = np.where(sloped, np.fmax(x_lo, x_line - half), x_lo)
        x_hi = np.where(sloped, np.fmin(x_hi, x_line + half), x_hi)
    col0 = cols.searchsorted(x_lo)
    n_cols = np.maximum(cols.searchsorted(x_hi, "right") - col0, 0)
    pair = np.arange(len(edge)).repeat(n_cols)
    col = np.arange(len(pair)) - (n_cols.cumsum() - n_cols - col0).repeat(n_cols)
    return edge[pair], row[pair], col


def rasterize_coverage(quads, cell_size: float) -> CoverageGrid:
    """Rasterize quads into a coverage grid.

    Cell value = number of quads containing the cell center, divided by the
    total quad count; boundary hits count as inside.  The grid covers the
    common bounding box with a one-cell apron so the border of the covered
    area is always representable.

    A center is inside by crossing-number parity against a ray to +x, or
    on an edge when its distance to it is at most 1e-9.  Per row, each
    crossing edge meets the ray's line at one abscissa, so a quad covers
    the columns between the 1st and 2nd and between the 3rd and 4th hit.

    The centers that can be on an edge are searched per edge and row, in a
    band around the edge (``_on_edge_candidates``).  The search is skipped
    when it cannot find one.  It visits, for an edge, the rows within
    ``reach`` of its y extent; when no row center lies within ``reach`` of
    a corner's y, each of those rows crosses the edge.  There, with u the
    unit roundoff and S the ``scale`` below, the parity's abscissa and the
    search's band center both lie within 9.1 u S of the point of the edge's
    line at that row, and a center the search accepts lies within
    ``h (1 + u) + 3.1 u S`` of the band center, h its half width.  The
    abscissa's neighbouring column centers are its nearest on each side;
    when both lie farther than the rounded ``h + _kernel_slack(S)``, the
    gap, at most a cell pitch, itself at most 2 S, bounds h by 2.01 S, so
    the slack's 9,000 u S covers the 26 u S of rounding (its 1e-150 any
    subnormal result) and no center lies in the band.
    """
    _require_finite_positive("cell_size", cell_size)
    quads = [np.asarray(q, dtype=float) for q in quads]
    if not quads:
        raise ValueError("rasterize_coverage needs at least one quad")
    for q in quads:
        if q.shape != (4, 2):
            raise ValueError("each quad must have exactly 4 vertices")
    stacked = np.stack(quads)
    if not np.isfinite(stacked).all():
        raise ValueError("quad coordinates must be finite")
    corners = stacked.reshape(-1, 2)
    lo = corners.min(axis=0) - cell_size
    hi = corners.max(axis=0) + cell_size
    width = max(1, int(math.ceil((hi[0] - lo[0]) / cell_size)))
    height = max(1, int(math.ceil((hi[1] - lo[1]) / cell_size)))
    cols, rows = _center_axes(lo, cell_size, (height, width))

    # parity: (row, quad, edge) crossing abscissae, then per row and quad the
    # number of columns left of each, i.e. with center x < x_hit
    start, end = stacked, stacked[:, [1, 2, 3, 0]]
    x1, y1, x2, y2 = start[..., 0], start[..., 1], end[..., 0], end[..., 1]
    y = rows[:, np.newaxis, np.newaxis]
    crosses = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_hit = (x2 - x1) * (y - y1) / (y2 - y1) + x1
    right = cols.searchsorted(x_hit)
    hits = np.sort(np.where(crosses, right, 0), axis=-1)
    row_base = (np.arange(height) * (width + 1))[:, np.newaxis, np.newaxis]
    size = height * (width + 1)
    steps = (np.bincount((hits[..., 0::2] + row_base).ravel(), minlength=size)
             - np.bincount((hits[..., 1::2] + row_base).ravel(), minlength=size))
    counts = np.cumsum(steps.reshape(height, width + 1)[:, :width], axis=1)

    # on-edge test for the centers parity left out, each measured against the
    # edge whose band found it by the kernel; scale bounds every corner and
    # center.  An accepted center lies within 1e-9 + slack of its edge, and
    # the filter rounds by less again, so twice that keeps every such center.
    scale = max(float(np.abs(corners).max()), abs(cols.item(0)), abs(cols.item(-1)),
                abs(rows.item(0)), abs(rows.item(-1)))
    reach = 2.0 * (_ON_EDGE + _kernel_slack(scale))
    # the search below finds nothing when no row center lies within reach of
    # a corner's y and every crossing abscissa clears both neighbouring
    # column centers by its band's half width plus slack (see the docstring)
    ys = corners[:, 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        band = reach * np.hypot(x2 - x1, y2 - y1) / np.abs(y2 - y1) + _kernel_slack(scale)
        clear = ((x_hit - cols.take(right - 1, mode="clip") > band)
                 & (cols.take(right, mode="clip") - x_hit > band))
    if ((clear | ~crosses).all()
            and (rows.searchsorted(ys + reach, "right") == rows.searchsorted(ys - reach)).all()):
        return CoverageGrid(lo, cell_size, counts / len(quads))
    start, end = start.reshape(-1, 2), end.reshape(-1, 2)
    edge, row, col = _on_edge_candidates(start, end, cols, rows, reach)
    quad = edge // 4
    quad_hits = hits[row, quad]
    outside = ~(((quad_hits[:, 0] <= col) & (col < quad_hits[:, 1]))
                | ((quad_hits[:, 2] <= col) & (col < quad_hits[:, 3])))
    if outside.any():
        edge, quad, row, col = edge[outside], quad[outside], row[outside], col[outside]
        on = _segment_feet(cols[col], rows[row], start[edge], end[edge])[3] <= _ON_EDGE
        # a center on two edges of one quad counts once for it
        cell = np.unique((quad[on] * height + row[on]) * width + col[on]) % (height * width)
        np.add.at(counts, (cell // width, cell % width), 1)
    return CoverageGrid(lo, cell_size, counts / len(quads))


def gaussian_kernel(sigma_cells: float) -> np.ndarray:
    """Square 2D Gaussian kernel of radius ceil(3 sigma), normalized to sum 1."""
    _require_finite_positive("sigma_cells", sigma_cells)
    radius = int(math.ceil(3.0 * sigma_cells))
    ax = np.arange(-radius, radius + 1)
    xx, yy = np.meshgrid(ax, ax)
    kernel = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma_cells * sigma_cells))
    return kernel / kernel.sum()


def _convolve_cells(values: np.ndarray, kernel: np.ndarray, rows, cols) -> np.ndarray:
    """The full-mode 2-D convolution of ``values`` with ``kernel`` at the
    output cells ``(rows[k], cols[k])``.

    Cell (i, j) sums ``kernel[a, b] * values[i - a, j - b]``, an input out
    of range counting as 0, in a fixed order: kernel rows in order; within
    a row, the columns in runs of 4, each run's products added left to
    right and then to the running sum, and the last ``width % 4`` products
    added one at a time.  That is the order of ``scipy.signal.convolve2d``
    (1.17), whose bits this has (tests/test_quads.py).  Cells go in blocks
    of at most ``_CONVOLVE_BLOCK`` products.
    """
    kh, kw = kernel.shape
    height, width = values.shape
    padded = np.zeros((height + 2 * (kh - 1), width + 2 * (kw - 1)))
    padded[kh - 1:kh - 1 + height, kw - 1:kw - 1 + width] = values
    # windows[i, j, a, b] = values[i - a, j - b]
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape)[:, :, ::-1, ::-1]
    runs = kw - kw % 4
    step = max(1, _CONVOLVE_BLOCK // kernel.size)
    out = np.empty(len(rows))
    for start in range(0, len(rows), step):
        products = windows[rows[start:start + step], cols[start:start + step]] * kernel
        addends = np.concatenate([((products[..., 0:runs:4] + products[..., 1:runs:4])
                                   + products[..., 2:runs:4]) + products[..., 3:runs:4],
                                  products[..., runs:]], axis=2)
        # add.accumulate adds left to right; the running sum starts at 0,
        # and 0 + x only differs from x when x is -0
        total = np.add.accumulate(addends.reshape(len(products), -1), axis=1)[:, -1]
        out[start:start + step] = total + 0.0
    return out


def blur_coverage(grid: CoverageGrid, sigma_cells: float) -> CoverageGrid:
    """Gaussian blur in full-convolution mode.

    The output grid grows by the kernel radius on every side instead of
    clipping, so coverage mass near the borders is not distorted; the total
    mass is preserved.
    """
    kernel = gaussian_kernel(sigma_cells)
    radius = kernel.shape[0] // 2
    shape = (grid.height + 2 * radius, grid.width + 2 * radius)
    rows, cols = np.indices(shape).reshape(2, -1)
    blurred = _convolve_cells(grid.values, kernel, rows, cols).reshape(shape)
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


@functools.lru_cache(maxsize=8)
def _kernel_and_marginal(sigma_cells: float) -> tuple[np.ndarray, np.ndarray]:
    """``gaussian_kernel(sigma_cells)`` and its column sums, read-only,
    built once per sigma."""
    kernel = gaussian_kernel(sigma_cells)
    marginal = kernel.sum(axis=0)
    kernel.flags.writeable = marginal.flags.writeable = False
    return kernel, marginal


def _separable_blur(values: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """Full-mode blur estimate: two 1-D passes with the kernel's marginal,
    one product and one shifted add per tap.

    Each row is followed by 2 * radius zeros and the rows are laid end to
    end, so shifting the flat array by t columns, or by t whole rows, moves
    every row without wrapping into the next.  The marginal is symmetric,
    so taps t and 2 * radius - t share their product.
    """
    radius = len(marginal) // 2  # at least 1
    side = 2 * radius
    height, width = values.shape
    wide = width + side
    padded = np.zeros((height, wide))
    padded[:, :width] = values
    padded = padded.ravel()
    n = len(padded)
    weights = marginal[:radius + 1].tolist()
    rows_blurred = np.zeros(n)
    for t, weight in enumerate(weights):
        tap = weight * padded
        rows_blurred[t:] += tap[:n - t]
        if t < radius:
            rows_blurred[side - t:] += tap[:n - side + t]
    blurred = np.zeros((height + side) * wide)
    for t, weight in enumerate(weights):
        tap = weight * rows_blurred
        blurred[t * wide:t * wide + n] += tap
        if t < radius:
            blurred[(side - t) * wide:(side - t) * wide + n] += tap
    return blurred.reshape(height + side, wide)


def _blurred_mask(grid: CoverageGrid, sigma_cells: float, th_cov: float):
    """``blur_coverage(grid, sigma_cells).values >= th_cov`` and that grid's
    origin, with the same bits.

    A cell whose separable estimate lies within ``_RECHECK_BAND`` of
    ``th_cov`` is convolved exactly by ``_convolve_cells``, as
    ``blur_coverage`` convolves every cell.
    """
    kernel, marginal = _kernel_and_marginal(sigma_cells)
    radius = len(marginal) // 2
    estimate = _separable_blur(grid.values, marginal)
    mask = estimate >= th_cov
    rows, cols = np.nonzero(np.abs(estimate - th_cov) <= _RECHECK_BAND)
    if len(rows):
        mask[rows, cols] = _convolve_cells(grid.values, kernel, rows, cols) >= th_cov
    return mask, grid.origin - radius * grid.cell_size


def _outline_corners(mask: np.ndarray, origin: np.ndarray, cell_size: float) -> np.ndarray:
    """The left corners of each row's leftmost selected cell and the right
    corners of its rightmost one, each a center plus or minus half a cell.

    The rectangle fit works on cell extents rather than bare centers,
    otherwise the result shrinks by half a cell on every side.  Within a
    row, corner x grows with the column, so these are the only corners
    that can be row extremes, the points the hull keeps (``_row_extremes``).
    """
    rows = np.flatnonzero(mask.any(axis=1))
    picked = mask[rows]
    left = picked.argmax(axis=1)
    right = mask.shape[1] - 1 - picked[:, ::-1].argmax(axis=1)
    col_x, row_y = _center_axes(origin, cell_size, mask.shape)
    h = 0.5 * cell_size
    x_left, x_right, y = col_x[left] - h, col_x[right] + h, row_y[rows]
    return np.column_stack([np.concatenate([x_left, x_left, x_right, x_right]),
                            np.concatenate([y - h, y + h, y - h, y + h])])


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


def _half_hull(pts) -> list:
    """One monotone chain: drops each point that does not turn left."""
    chain: list = []
    for p in pts:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise, no duplicate endpoint."""
    # sorted by x, then y: the order the chain walks.  Equal rows keep the
    # first, as np.unique(axis=0) does for rows with equal bits
    pts = _row_extremes(points)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (pts[1:, 0] != pts[:-1, 0]) | (pts[1:, 1] != pts[:-1, 1])
    pts = pts[fresh]
    if len(pts) < 3:
        return pts
    # Python floats round each operation as numpy float64 scalars do, faster
    pts = pts.tolist()
    return np.array(_half_hull(pts)[:-1] + _half_hull(reversed(pts))[:-1])


def min_rotated_rect(points) -> np.ndarray:
    """Minimum-area rotated rectangle enclosing a point set.

    Rotating calipers over the convex hull: the optimal rectangle has one
    side collinear with a hull edge, so each edge direction (of length at
    least 1e-12) is tried and the smallest axis-aligned box in that rotated
    frame wins; the first edge wins a tie.  Returns the 4 corners in
    counter-clockwise order.  Fewer than 3 distinct points, a collinear set
    or a hull without such an edge are rejected.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    hull = _convex_hull(pts)
    if len(hull) < 3:
        if len(np.unique(pts, axis=0)) < 3:
            raise ValueError("min_rotated_rect needs at least 3 distinct points")
        raise ValueError("min_rotated_rect needs non-collinear points")

    edges = np.concatenate([hull[1:], hull[:1]]) - hull
    norm = np.hypot(edges[:, 0], edges[:, 1])
    usable = norm >= 1e-12
    if not usable.any():
        raise ValueError("min_rotated_rect needs a hull edge of length >= 1e-12")
    # one row (cos, sin) per usable edge
    cs = edges[usable] / norm[usable, np.newaxis]
    c, s = cs[:, :1], cs[:, 1:]
    # hull coordinates in the frame where each edge is horizontal, one row per edge
    xs = hull[:, 0] * c + hull[:, 1] * s
    ys = -hull[:, 0] * s + hull[:, 1] * c
    x0, x1 = xs.min(axis=1), xs.max(axis=1)
    y0, y1 = ys.min(axis=1), ys.max(axis=1)
    k = int(np.argmin((x1 - x0) * (y1 - y0)))
    # the 4 corners rotated back, on Python floats
    c, s = cs[k].tolist()
    x0, x1, y0, y1 = x0.item(k), x1.item(k), y0.item(k), y1.item(k)
    return np.array([[x * c - y * s, x * s + y * c]
                     for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))])


def quad_area(points) -> float:
    """Unsigned shoelace area of a quadrilateral given by its 4 corners."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    return abs(0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


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
    mask, origin = _blurred_mask(grid, config.blur_sigma_cells, config.th_cov)
    fallback = not mask.any()
    if fallback:
        corners = max(members, key=lambda el: (quad_area(el.points), el.id)).points
    else:
        corners = min_rotated_rect(_outline_corners(mask, origin, config.cell_size))
    if report is not None:
        report.add_chain(
            label=LABEL_PED_CROSSING,
            members=[el.id for el in members],
            base_id=out_id,
            kind="quad",
            fallback=fallback,
        )
    return MapElement(out_id, LABEL_PED_CROSSING, corners, is_main=True)
