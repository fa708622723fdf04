"""Raster geometry of pedestrian-crossing fusion on a coverage grid.

All observed quads of one chain are rasterized into a shared occupancy
grid (cell value = fraction of quads covering the cell center), the grid
is softened with a Gaussian blur in full mode so nothing is cut off at the
borders, cells above a quantile threshold form the consensus region, and
the merged crossing is the minimum-area rotated rectangle around it.
``merging`` turns each rectangle into a map element and a report record.

A merge pass fuses its crossing chains in groups (``_fuse_crossings``),
each group's grids stacked row-wise in one array, with the same bits as
the plain pipeline of each chain on its own (``rasterize_coverage`` →
``blur_coverage`` → ``threshold_region`` → fit), and with work in
proportion to each region's edge rather than its area:

- the raster fills each quad's row intervals from one crossing abscissa
  per row and edge, and measures edge distances only for cell centers
  that can lie within 1e-9 of an edge (a reach widened by the kernel's
  ``geometry._kernel_slack``), each against that edge alone;
- the blur is estimated by two 1-D passes of the kernel's marginal (the
  kernel is built once per pass), applied one tap at a time over shifted
  slices, and only cells whose estimate lies within 1e-9 of ``th_cov``
  are convolved exactly, by ``blur_coverage``'s own kernel
  ``_convolve_cells``;
- the rectangle is fitted to the outline corners: per row, the leftmost
  cell's two left corners and the rightmost cell's two right corners, the
  only cell corners that can be hull vertices.  One sort orders them for
  the monotone-chain walk, whose lower and upper halves skip the points
  deep inside that half of the corners' octagon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (_budget_groups, _kernel_slack, _per_block, _require_finite_positive, _runs,
                       _segment_feet, _starts, as_points)

__all__ = [
    "EmptyRegionError",
    "CoverageGrid",
    "rasterize_coverage",
    "blur_coverage",
    "threshold_region",
    "min_rotated_rect",
    "quad_area",
]

# A cell center this close to a quad edge counts as covered.
_ON_EDGE = 1e-9
# The two-pass blur estimate ``_separable_blur`` stays within 1e-12 of the
# exact blur over sigma 0.5-4 (tests/test_quads.py); cells whose estimate
# lies this close to th_cov are convolved exactly.
_RECHECK_BAND = 1e-9


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
        rows, cols = (np.indices(self.values.shape).reshape(2, -1) + 0.5) * self.cell_size
        return np.column_stack([cols + self.origin[0], rows + self.origin[1]])


def _on_edge_candidates(start, end, cols, rows, reach):
    """(edge, row, col) of every cell center within ``reach`` of an edge.

    ``start`` and ``end`` are the edges' endpoints, shape (E, 2).  The rows
    come from the edge's y extent; each row's columns from the x extent and
    the band of half-width ``reach * length / |dy|`` around the edge line.
    """
    ax, ay, bx, by = start[:, 0], start[:, 1], end[:, 0], end[:, 1]
    first = rows.searchsorted(np.minimum(ay, by) - reach)
    edge, row = _runs(rows.searchsorted(np.maximum(ay, by) + reach, "right") - first)
    row += first[edge]
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
    pair, col = _runs(np.maximum(cols.searchsorted(x_hi, "right") - col0, 0))
    return edge[pair], row[pair], col + col0[pair]


def _axes(lo: np.ndarray, cell_size: float, lengths: np.ndarray) -> np.ndarray:
    """Center axes ``(i + 0.5) * cell_size + lo[k]``, i < lengths[k], one
    row per k: after a NaN column and before +inf ones up to the longest
    axis and one more, the sentinels of ``_axis_search``."""
    size = int(lengths.max())
    axes = np.where(np.arange(size + 2) > lengths[:, np.newaxis], np.inf,
                    (np.arange(-1, size + 1) + 0.5) * cell_size + lo[:, np.newaxis])
    axes[:, 0] = np.nan
    return axes


def _axis_search(axes: np.ndarray, base, length, lo, cell_size: float, values) -> np.ndarray:
    """``centers.searchsorted(values)`` on ``_axes`` rows, entry by entry:
    ``base`` is the flat index of an entry's row in ``axes``, ``length``
    its number of centers and ``lo`` its origin, each broadcasting against
    ``values``.

    The index is guessed from the axis formula, then moved one place at a
    time until the stored centers on both sides confirm it, so every
    comparison is one that ``searchsorted`` makes.  The sentinels stop the
    moves at the axis's ends: no center lies at or above the NaN before it,
    and every value lies below the +inf after it; a NaN value stays at the
    end, where it sorts.
    """
    guess = np.ceil((values - lo) / cell_size - 0.5)
    # the flat index of the center just below each guess
    at = base + np.fmax(np.fmin(guess, length), 0).astype(np.intp)
    flat = axes.ravel()
    while True:
        down, up = flat[at] >= values, flat[at + 1] < values
        if not (down.any() or up.any()):
            return at - base
        at += up
        at -= down


def _raster_extents(quads: np.ndarray, n_quads: np.ndarray, cell_size: float):
    """Lower-left corner (K, 2) and (width, height) (K, 2) of the raster of
    each chain of ``n_quads[k]`` consecutive quads of ``quads`` (Q, 4, 2):
    the chain's bounding box with a one-cell apron."""
    corners = quads.reshape(-1, 2)
    first = 4 * _starts(n_quads)
    lo = np.minimum.reduceat(corners, first) - cell_size
    hi = np.maximum.reduceat(corners, first) + cell_size
    return lo, np.maximum(1, np.ceil((hi - lo) / cell_size)).astype(np.intp)


def _raster_stack(quads, n_quads, lo, size, cell_size: float, gap: int):
    """The coverage grids of chains of quads, stacked row-wise: values and
    the first row of each chain's grid.

    Chain k holds ``n_quads[k]`` consecutive quads of ``quads`` (Q, 4, 2);
    its grid is the ``rasterize_coverage`` grid of origin ``lo[k]`` and
    (width, height) ``size[k]`` (``_raster_extents``), placed at its first
    row and column 0.  ``gap`` zero rows follow every grid but the last,
    and every row is as wide as the widest grid.

    A center is inside by crossing-number parity against a ray to +x, or
    on an edge when its distance to it is at most 1e-9.  Per row, each
    crossing edge meets the ray's line at one abscissa, so a quad covers
    the columns between the 1st and 2nd and between the 3rd and 4th hit.

    The centers that can be on an edge are searched per edge and row, in a
    band around the edge (``_on_edge_candidates``).  The search is skipped
    for a chain when it cannot find one.  It visits, for an edge, the rows
    within ``reach`` of its y extent; when no row center lies within
    ``reach`` of a corner's y, each of those rows crosses the edge.  There,
    with u the unit roundoff and S the stack's ``scale`` below, the
    parity's abscissa and the search's band center both lie within 9.1 u S
    of the point of the edge's line at that row, and a center the search
    accepts lies within ``h (1 + u) + 3.1 u S`` of the band center, h its
    half width.  The abscissa's neighbouring column centers are its
    nearest on each side; when both lie farther than the rounded ``h +
    _kernel_slack(S)``, the gap, at most a cell pitch, itself at most 2 S,
    bounds h by 2.01 S, so the slack's 9,000 u S covers the 26 u S of
    rounding (its 1e-150 any subnormal result) and no center lies in the
    band.
    """
    width, height = size[:, 0], size[:, 1]
    chains = np.arange(len(n_quads))
    first = _starts(height + gap)
    n_rows, wide = int(first[-1] + height[-1]), int(width.max())
    cols, rows = _axes(lo[:, 0], cell_size, width), _axes(lo[:, 1], cell_size, height)
    # each chain's quads, padded to the most with quads of one y: no row
    # crosses those
    padded = np.zeros((len(n_quads), int(n_quads.max()), 4, 2))
    padded[_runs(n_quads)] = quads
    # scale bounds every corner and center of the stack
    scale = max(float(np.abs(quads).max()),
                float(np.abs([cols[:, 1], cols[chains, width], rows[:, 1], rows[chains, height]]).max()))
    slack = _kernel_slack(scale)
    reach = 2.0 * (_ON_EDGE + slack)

    # parity: (chain, row, quad, edge) crossing abscissae, where the rows
    # past a chain's grid lie at +inf and cross no edge; then per (chain,
    # row, quad) the number of columns left of each, i.e. with center x <
    # x_hit.  The abscissa's left and right column centers are at ``left``
    # and ``left + 1`` of the flat ``cols``; past the last column lies +inf.
    start, end = padded[:, np.newaxis], padded[:, np.newaxis, :, [1, 2, 3, 0]]
    x1, y1, x2, y2 = start[..., 0], start[..., 1], end[..., 0], end[..., 1]
    y = rows[:, 1:-1, np.newaxis, np.newaxis]
    crosses = (y1 > y) != (y2 > y)
    base = (chains * cols.shape[1])[:, np.newaxis, np.newaxis, np.newaxis]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_hit = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        right = _axis_search(cols, base, width[:, np.newaxis, np.newaxis, np.newaxis],
                             lo[:, :1, np.newaxis, np.newaxis], cell_size, x_hit)
        left = base + right
        # the search for centers on an edge, below, finds nothing for a chain
        # when no row center lies within reach of a corner's y and every
        # crossing abscissa clears both neighbouring column centers by its
        # band's half width plus slack (see the docstring)
        band = reach * np.hypot(x2 - x1, y2 - y1) / np.abs(y2 - y1) + slack
        clear = (x_hit - cols.ravel()[left] > band) & (cols.ravel()[left + 1] - x_hit > band)
    hits = np.sort(np.where(crosses, right, 0), axis=-1)
    # a row past a grid has only zero hits, whose steps cancel in any row
    row_base = np.minimum(first[:, np.newaxis] + np.arange(rows.shape[1] - 2), n_rows - 1) * (wide + 1)
    row_base = row_base[..., np.newaxis, np.newaxis]
    n_cells = n_rows * (wide + 1)
    steps = (np.bincount((hits[..., 0::2] + row_base).ravel(), minlength=n_cells)
             - np.bincount((hits[..., 1::2] + row_base).ravel(), minlength=n_cells))
    counts = np.cumsum(steps.reshape(n_rows, wide + 1)[:, :wide], axis=1)

    # on-edge test for the centers parity left out, each measured against the
    # edge whose band found it by the kernel.  An accepted center lies within
    # 1e-9 + slack of its edge, and the filter rounds by less again, so twice
    # that keeps every such center.
    searched = (crosses & ~clear).reshape(len(n_quads), -1).any(axis=1)
    corner_chain = chains.repeat(4 * n_quads)
    ys = quads[..., 1].ravel()
    # the first row center at or above a corner's y - reach lies above its y + reach
    at = corner_chain * rows.shape[1]
    at += _axis_search(rows, at, height[corner_chain], lo[corner_chain, 1], cell_size, ys - reach)
    searched[corner_chain[rows.ravel()[at + 1] <= ys + reach]] = True
    for k in np.flatnonzero(searched):
        h, w, n = height[k], width[k], n_quads[k]
        start, end = padded[k, :n].reshape(-1, 2), padded[k, :n][:, [1, 2, 3, 0]].reshape(-1, 2)
        on_edge, on_row, on_col = _on_edge_candidates(start, end, cols[k, 1:w + 1], rows[k, 1:h + 1], reach)
        on_quad = on_edge // 4
        quad_hits = hits[k, on_row, on_quad]
        outside = ~(((quad_hits[:, 0] <= on_col) & (on_col < quad_hits[:, 1]))
                    | ((quad_hits[:, 2] <= on_col) & (on_col < quad_hits[:, 3])))
        if outside.any():
            on_edge, on_quad = on_edge[outside], on_quad[outside]
            on_row, on_col = on_row[outside], on_col[outside]
            on = _segment_feet(cols[k, on_col + 1], rows[k, on_row + 1], start[on_edge], end[on_edge])[3]
            on = on <= _ON_EDGE
            # a center on two edges of one quad counts once for it
            cell = np.unique((on_quad[on] * h + on_row[on]) * w + on_col[on]) % (h * w)
            np.add.at(counts, (first[k] + cell // w, cell % w), 1)
    # gap rows count 0 quads, whatever they are divided by
    members = n_quads[first.searchsorted(np.arange(n_rows), "right") - 1]
    return counts / members[:, np.newaxis], first


def rasterize_coverage(quads, cell_size: float) -> CoverageGrid:
    """Rasterize quads into a coverage grid.

    Cell value = number of quads containing the cell center, divided by the
    total quad count; boundary hits count as inside.  The grid covers the
    common bounding box with a one-cell apron so the border of the covered
    area is always representable.  The kernel is ``_raster_stack`` on a
    stack of one grid.
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
    n_quads = np.array([len(quads)])
    lo, size = _raster_extents(stacked, n_quads, cell_size)
    values, _ = _raster_stack(stacked, n_quads, lo, size, cell_size, 0)
    return CoverageGrid(lo[0], cell_size, values)


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
    of at most ``geometry._BLOCK_CELLS`` products.
    """
    kh, kw = kernel.shape
    height, width = values.shape
    padded = np.zeros((height + 2 * (kh - 1), width + 2 * (kw - 1)))
    padded[kh - 1:kh - 1 + height, kw - 1:kw - 1 + width] = values
    # windows[i, j, a, b] = values[i - a, j - b]
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel.shape)[:, :, ::-1, ::-1]
    runs = kw - kw % 4
    step = _per_block(kernel.size)
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
    # one buffer for every tap's products: a fresh large array per tap would
    # page-fault anew
    tap = np.empty(n)
    for t, weight in enumerate(weights):
        np.multiply(padded, weight, out=tap)
        rows_blurred[t:] += tap[:n - t]
        if t < radius:
            rows_blurred[side - t:] += tap[:n - side + t]
    blurred = np.zeros((height + side) * wide)
    for t, weight in enumerate(weights):
        np.multiply(rows_blurred, weight, out=tap)
        blurred[t * wide:t * wide + n] += tap
        if t < radius:
            blurred[(side - t) * wide:(side - t) * wide + n] += tap
    return blurred.reshape(height + side, wide)


def _blurred_mask(values: np.ndarray, kernel: np.ndarray, th_cov: float) -> np.ndarray:
    """``blur_coverage`` of a grid of ``values`` with ``gaussian_kernel``'s
    ``kernel``, cut at ``th_cov``: the cells whose blur is at least
    ``th_cov``, with the same bits.

    A cell whose separable estimate lies within ``_RECHECK_BAND`` of
    ``th_cov`` is convolved exactly by ``_convolve_cells``, as
    ``blur_coverage`` convolves every cell.  Zero cells add +0.0 to every
    sum, so grids stacked with 2 * radius zero rows between them blur as
    they do on their own.
    """
    estimate = _separable_blur(values, kernel.sum(axis=0))
    mask = estimate >= th_cov
    rows, cols = np.nonzero(np.abs(estimate - th_cov) <= _RECHECK_BAND)
    if len(rows):
        mask[rows, cols] = _convolve_cells(values, kernel, rows, cols) >= th_cov
    return mask


def _outline_corners(mask: np.ndarray, first: np.ndarray, origin: np.ndarray, cell_size: float):
    """The left corners of each row's leftmost selected cell and the right
    corners of its rightmost one, each a center plus or minus half a cell,
    of every grid in ``mask``: x, y and the grid of each corner.

    Grid k starts at row ``first[k]`` and column 0, its cell (0, 0) at
    ``origin[k]``.  The rectangle fit works on cell extents rather than
    bare centers, otherwise the result shrinks by half a cell on every
    side.  Within a row, corner x grows with the column, so these are the
    only corners that can be row extremes, and a corner between two others
    of its row lies on the segment joining them: every hull vertex is one
    of these.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    picked = mask[rows]
    left = picked.argmax(axis=1)
    right = mask.shape[1] - 1 - picked[:, ::-1].argmax(axis=1)
    grid = first.searchsorted(rows, "right") - 1
    h = 0.5 * cell_size
    x_left = (left + 0.5) * cell_size + origin[grid, 0] - h
    x_right = (right + 0.5) * cell_size + origin[grid, 0] + h
    y = (rows - first[grid] + 0.5) * cell_size + origin[grid, 1]
    return (np.concatenate([x_left, x_left, x_right, x_right]),
            np.concatenate([y - h, y + h, y - h, y + h]), np.tile(grid, 4))


def _octagon_sides(x: np.ndarray, y: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each point lies strictly inside the lower and the upper half
    of its set's octagon, by more than ``geometry._kernel_slack(S)``, S the
    largest coordinate magnitude of all sets.

    Set k is ``x[bounds[k]:bounds[k + 1]]``, at least one point, sorted by
    x, then y.  Its octagon joins its extreme points in x, y, x + y and
    x - y counter-clockwise (Akl & Toussaint, "A fast convex hull
    algorithm", IPL 1978): W, SW, S, SE and E make the lower chain, E, NE,
    N, NW and W the upper one.  A point strictly left of every edge of the
    lower chain is no vertex of the lower hull, which runs on or below it;
    likewise above.  A point is left of an edge a -> b by ``cross / |b -
    a|``, and the cross product errs by less than 1e-14 S |b - a|, well
    within the slack.  Edges of length 0 are skipped.  The sets are padded
    to the largest with copies of their first point, which moves no
    extreme.
    """
    n = bounds[1:] - bounds[:-1]
    sets = np.arange(len(n))
    set_of, slot = _runs(n)
    px = x[bounds[:-1]].repeat(n.max()).reshape(len(n), -1)
    py = y[bounds[:-1]].repeat(n.max()).reshape(len(n), -1)
    px[set_of, slot], py[set_of, slot] = x, y
    s, d = px + py, px - py
    # counter-clockwise, one row per set: W, SW, S, SE, E, NE, N, NW
    ring = np.array([np.zeros_like(n), s.argmin(axis=1), py.argmin(axis=1), d.argmax(axis=1), n - 1,
                     s.argmax(axis=1), py.argmax(axis=1), d.argmin(axis=1)])
    ax, ay = px[sets, ring], py[sets, ring]
    ex, ey = ax[[1, 2, 3, 4, 5, 6, 7, 0]] - ax, ay[[1, 2, 3, 4, 5, 6, 7, 0]] - ay
    tol = np.hypot(ex, ey) * _kernel_slack(max(float(np.abs(x).max()), float(np.abs(y).max())))
    tol[tol == 0.0] = -np.inf
    # (edge, set, point) tests
    ex, ey, ax, ay, tol = (v[..., np.newaxis] for v in (ex, ey, ax, ay, tol))
    left = ex * (py - ay) - ey * (px - ax) > tol
    return left[:4].all(axis=0)[set_of, slot], left[4:].all(axis=0)[set_of, slot]


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


def _convex_hulls(x: np.ndarray, y: np.ndarray, point_set: np.ndarray, n_sets: int) -> list[np.ndarray]:
    """Monotone-chain convex hull of each of ``n_sets`` point sets, the
    points (x, y) of set ``point_set``, every set at least one point:
    counter-clockwise, no duplicate endpoint; the distinct points
    themselves when fewer than 3.

    One stable sort over every set puts the points in the walk's order,
    by x, then y, so of equal points (``0.0`` equals ``-0.0``) the first
    in input order stays.  The lower walk skips the points strictly inside
    the lower half of the set's octagon and the upper walk those inside
    the upper half (``_octagon_sides``); the walk's turn tests decide the
    hull.
    """
    order = np.lexsort((y, x, point_set))
    x, y, point_set = x[order], y[order], point_set[order]
    fresh = np.ones(len(x), dtype=bool)
    fresh[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1]) | (point_set[1:] != point_set[:-1])
    x, y, point_set = x[fresh], y[fresh], point_set[fresh]
    bounds = point_set.searchsorted(np.arange(n_sets + 1))
    lower, upper = _octagon_sides(x, y, bounds)
    # Python floats round each operation as numpy float64 scalars do, faster
    pts = np.column_stack([x, y])
    low, high = pts[~lower].tolist(), pts[~upper].tolist()
    low_at = [0] + np.bincount(point_set[~lower], minlength=n_sets).cumsum().tolist()
    high_at = [0] + np.bincount(point_set[~upper], minlength=n_sets).cumsum().tolist()
    hulls = []
    for k in range(n_sets):
        if bounds[k + 1] - bounds[k] < 3:
            hulls.append(pts[bounds[k]:bounds[k + 1]])
        else:
            hulls.append(np.array(_half_hull(low[low_at[k]:low_at[k + 1]])[:-1]
                                  + _half_hull(reversed(high[high_at[k]:high_at[k + 1]]))[:-1]))
    return hulls


def _require_hull(hull: np.ndarray, points: np.ndarray) -> None:
    """The errors of ``min_rotated_rect`` for a hull of fewer than 3 points."""
    if len(hull) < 3:
        if len(np.unique(points, axis=0)) < 3:
            raise ValueError("min_rotated_rect needs at least 3 distinct points")
        raise ValueError("min_rotated_rect needs non-collinear points")


def _rotated_rects(hulls: list[np.ndarray]) -> np.ndarray:
    """The ``min_rotated_rect`` corners (K, 4, 2) around each hull of at
    least 3 vertices, in one rotating-calipers pass over the hulls padded
    to the longest: one (hull, edge, vertex) array per rotated coordinate.

    A padded vertex repeats the hull's first, which moves no extreme, and
    a padded edge is unusable.  Each entry takes the expressions of a
    single hull's fit, so every corner has its bits.
    """
    lengths = np.array([len(hull) for hull in hulls])
    pts = np.concatenate(hulls)
    j = np.arange(lengths.max())
    first = _starts(lengths)[:, np.newaxis]
    vertex = first + np.where(j < lengths[:, np.newaxis], j, 0)
    px, py = pts[vertex, 0], pts[vertex, 1]
    after = first + np.where(j + 1 < lengths[:, np.newaxis], j + 1, 0)
    ex, ey = pts[after, 0] - px, pts[after, 1] - py
    norm = np.hypot(ex, ey)
    usable = norm >= 1e-12
    if not usable.any(axis=1).all():
        raise ValueError("min_rotated_rect needs a hull edge of length >= 1e-12")
    # (cos, sin) of each usable edge; then the hull's coordinates in the
    # frame where that edge is horizontal, one row per edge
    norm[~usable] = 1.0
    c, s = (ex / norm)[..., np.newaxis], (ey / norm)[..., np.newaxis]
    px, py = px[:, np.newaxis], py[:, np.newaxis]
    xs = px * c + py * s
    # -px s + py c, with its bits
    ys = py * c - px * s
    x0, x1 = xs.min(axis=2), xs.max(axis=2)
    y0, y1 = ys.min(axis=2), ys.max(axis=2)
    # the first edge wins a tie
    sets = np.arange(len(hulls))
    k = np.where(usable, (x1 - x0) * (y1 - y0), np.inf).argmin(axis=1)
    c, s = c[sets, k], s[sets, k]
    x0, x1, y0, y1 = (v[sets, k, np.newaxis] for v in (x0, x1, y0, y1))
    # the 4 corners rotated back
    x = np.concatenate([x0, x1, x1, x0], axis=1)
    y = np.concatenate([y0, y0, y1, y1], axis=1)
    corners = np.empty((len(hulls), 4, 2))
    corners[..., 0] = x * c - y * s
    corners[..., 1] = x * s + y * c
    return corners


def min_rotated_rect(points) -> np.ndarray:
    """Minimum-area rotated rectangle enclosing a point set.

    Rotating calipers over the convex hull: the optimal rectangle has one
    side collinear with a hull edge, so each edge direction (of length at
    least 1e-12) is tried and the smallest axis-aligned box in that rotated
    frame wins; the first edge wins a tie.  Returns the 4 corners in
    counter-clockwise order.  Points not of shape (N, 2), non-finite points,
    fewer than 3 distinct points, a collinear set or a hull without such an
    edge are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size and (pts.ndim != 2 or pts.shape[1] != 2):
        raise ValueError(f"min_rotated_rect needs points of shape (N, 2), got shape {pts.shape}")
    pts = pts.reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    [hull] = _convex_hulls(pts[:, 0], pts[:, 1], np.zeros(len(pts), dtype=np.intp), 1) if len(pts) else [pts]
    _require_hull(hull, pts)
    return _rotated_rects([hull])[0]


def quad_area(points) -> float:
    """Unsigned shoelace area of a quadrilateral given by its 4 corners."""
    pts = as_points(points)
    x, y = pts[:, 0], pts[:, 1]
    return abs(0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def _fuse_crossings(quads, n_quads, config) -> list[np.ndarray | None]:
    """The fused rectangle's corners of each crossing chain, None where no
    cell reaches ``config.th_cov``.

    Chain k is ``n_quads[k]`` consecutive quads of ``quads``, each (4, 2).
    Chains are fused in groups (``geometry._budget_groups``) whose blurred
    stack, the largest of their stacked arrays, fits ``geometry._BLOCK_CELLS``
    cells: the group's rows, a grid's plus 2 * radius each, times its widest
    blurred grid; a chain over the budget on its own forms a group of its own.
    Per group: one stacked raster (``_raster_stack``), one blur and cut,
    one ``argmax`` outline, the hulls, and one rotating-calipers pass, each
    chain with the bits it has on its own.
    """
    if not len(n_quads):
        return []
    cell_size = config.cell_size
    quads, n_quads = np.stack(quads), np.asarray(n_quads)
    kernel = gaussian_kernel(config.blur_sigma_cells)
    side = len(kernel) - 1
    lo, size = _raster_extents(quads, n_quads, cell_size)
    quad_first = _starts(n_quads)
    out: list = [None] * len(n_quads)
    for group in _budget_groups((size[:, ::-1] + side).tolist()):
        group = np.array(group)
        counts = n_quads[group]
        chain, i = _runs(counts)
        take = quad_first[group][chain] + i
        values, first = _raster_stack(quads[take], counts, lo[group], size[group], cell_size, side)
        mask = _blurred_mask(values, kernel, config.th_cov)
        x, y, grid = _outline_corners(mask, first, lo[group] - side // 2 * cell_size, cell_size)
        if not len(grid):
            continue
        # the chains with a region, each a point set of the hulls
        fitted, point_set = np.unique(grid, return_inverse=True)
        hulls = _convex_hulls(x, y, point_set, len(fitted))
        for k, hull in enumerate(hulls):
            if len(hull) < 3:
                _require_hull(hull, np.column_stack([x, y])[point_set == k])
        for c, corners in zip(group[fitted], _rotated_rects(hulls)):
            out[c] = corners
    return out

