"""Independent oracles used to freeze expected values and cross-check results.

Everything here is deliberately brute force: dense sampling, exhaustive
enumeration, fine sweeps, or the plain cell-by-cell and vertex-by-vertex
loops that faster package code must reproduce bit for bit.  None of it
shares code with the package implementations it checks; where an oracle
reuses a package helper that the checked code leaves as it is, its
docstring says so.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from polymerge import (LABELS, MapElement, VectorMap, arc_length, discrete_frechet,
                       match_elements, min_rotated_rect, to_world)
from polymerge.geometry import project_point_to_polyline, transform_to_world
from polymerge.quads import gaussian_kernel
from polymerge.synth import _quad_element


def dense_projection(a, b, c, n: int = 100_000) -> tuple[float, np.ndarray]:
    """Closest point of segment b-c to a, by sampling n parameters."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    t = np.linspace(0.0, 1.0, n)
    v = c - b
    d2 = (b[0] + t * v[0] - a[0]) ** 2 + (b[1] + t * v[1] - a[1]) ** 2
    k = int(np.argmin(d2))
    return float(np.sqrt(d2[k])), b + t[k] * v


def dense_polyline_projection(a, polyline, n: int = 100_000) -> float:
    """Min distance of a to a polyline by dense sampling of every segment."""
    best = np.inf
    pts = np.asarray(polyline, dtype=float)
    for b, c in zip(pts[:-1], pts[1:]):
        d, _ = dense_projection(a, b, c, n)
        best = min(best, d)
    return best


def frechet_exhaustive(p, q) -> float:
    """Discrete Frechet distance by enumerating every monotone coupling."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, m = len(p), len(q)
    dist = np.linalg.norm(p[:, np.newaxis, :] - q[np.newaxis, :, :], axis=2)
    best = [np.inf]

    def walk(i, j, current):
        current = max(current, dist[i, j])
        if current >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = current
            return
        if i + 1 < n:
            walk(i + 1, j, current)
        if j + 1 < m:
            walk(i, j + 1, current)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, current)

    walk(0, 0, 0.0)
    return best[0]


def _segment_distance_matrix(points, poly):
    """Min distance of each point to a polyline, no shared code with the
    package: per-vertex loop over segments with the textbook formula."""
    out = []
    for p in points:
        best = np.inf
        for b, c in zip(poly[:-1], poly[1:]):
            bc = c - b
            denom = float(bc @ bc)
            if denom < 1e-24:
                d = float(np.linalg.norm(p - b))
            else:
                t = float((p - b) @ bc) / denom
                t = min(1.0, max(0.0, t))
                d = float(np.linalg.norm(p - (b + t * bc)))
            best = min(best, d)
        out.append(best)
    return out


def naive_merge_check(a, b, th_prox: float) -> bool:
    """Re-statement of the merge criterion from first principles."""
    if a.label != b.label:
        return False
    da = _segment_distance_matrix(a.points, b.points)
    db = _segment_distance_matrix(b.points, a.points)
    return min(da) < th_prox or min(db) < th_prox


def naive_graph_edges(vmap, th_prox: float) -> set[frozenset]:
    """All merge edges by the quadratic double loop over elements."""
    edges = set()
    for a in vmap.elements:
        if a.is_main:
            continue
        for b in vmap.elements:
            if a.id == b.id:
                continue
            if naive_merge_check(a, b, th_prox):
                edges.add(frozenset((a.id, b.id)))
    return edges


def reference_merge_chains(graph) -> list[list[str]]:
    """Connected components with at least 2 nodes by scipy's
    ``connected_components`` on the sparse adjacency matrix; components in
    order of their first node in ``graph.nodes``, ids in node order."""
    if not graph.edges:
        return []
    n = len(graph.nodes)
    index = {node: k for k, node in enumerate(graph.nodes)}
    rows = [index[u] for u, _ in graph.edges]
    cols = [index[v] for _, v in graph.edges]
    adjacency = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, component = connected_components(adjacency, directed=False)
    members: dict[int, list[str]] = {}
    for k, c in enumerate(component.tolist()):
        members.setdefault(c, []).append(graph.nodes[k])
    return [chain for chain in members.values() if len(chain) >= 2]


def sweep_min_rect_area(points, step_deg: float = 0.1) -> float:
    """Min enclosing-rectangle area over a fine sweep of orientations."""
    pts = np.asarray(points, dtype=float)
    angles = np.deg2rad(np.arange(0.0, 90.0, step_deg))
    c, s = np.cos(angles), np.sin(angles)
    xs = np.outer(c, pts[:, 0]) + np.outer(s, pts[:, 1])
    ys = -np.outer(s, pts[:, 0]) + np.outer(c, pts[:, 1])
    areas = (xs.max(axis=1) - xs.min(axis=1)) * (ys.max(axis=1) - ys.min(axis=1))
    return float(areas.min())


def convex_polygon_clip(subject, clipper):
    """Sutherland-Hodgman intersection of convex polygons (CCW)."""
    subject = [np.asarray(p, dtype=float) for p in subject]
    clipper = [np.asarray(p, dtype=float) for p in clipper]
    output = subject
    for i in range(len(clipper)):
        if not output:
            break
        a, b = clipper[i], clipper[(i + 1) % len(clipper)]
        edge = b - a

        def inside(p):
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= -1e-12

        def intersect(p, q):
            d = q - p
            denom = edge[0] * d[1] - edge[1] * d[0]
            t = (edge[0] * (a[1] - p[1]) - edge[1] * (a[0] - p[0])) / -denom
            return p + t * d

        current = output
        output = []
        for k, cur in enumerate(current):
            prev = current[k - 1]
            if inside(cur):
                if not inside(prev):
                    output.append(intersect(prev, cur))
                output.append(cur)
            elif inside(prev):
                output.append(intersect(prev, cur))
    return output


def polygon_area(points) -> float:
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def quad_iou(a, b) -> float:
    """Intersection over union of two convex quadrilaterals."""
    a = _ccw(np.asarray(a, dtype=float))
    b = _ccw(np.asarray(b, dtype=float))
    inter = polygon_area(convex_polygon_clip(list(a), list(b)))
    union = polygon_area(a) + polygon_area(b) - inter
    return inter / union if union > 0 else 0.0


def _ccw(pts):
    x, y = pts[:, 0], pts[:, 1]
    if 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) < 0:
        return pts[::-1]
    return pts


def pcm_offset_sweep(p, q, step: float = 0.01) -> float:
    """Partial-curve area with a dense offset sweep instead of vertex
    candidates; used to sanity-check optimal-subsection values."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def cum(pts):
        return np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])

    def interp(pts, arcs, s):
        return np.column_stack([np.interp(s, arcs, pts[:, 0]), np.interp(s, arcs, pts[:, 1])])

    ap, aq = cum(p), cum(q)
    if ap[-1] <= aq[-1]:
        short, a_s, long, a_l = p, ap, q, aq
    else:
        short, a_s, long, a_l = q, aq, p, ap
    span = a_l[-1] - a_s[-1]
    best = np.inf
    for off in np.arange(0.0, span + step, step):
        off = min(off, span)
        s = np.unique(np.concatenate([a_s, np.linspace(0, a_s[-1], 64)]))
        d = np.linalg.norm(interp(short, a_s, s) - interp(long, a_l, s + off), axis=1)
        area = float(np.sum(0.5 * (d[:-1] + d[1:]) * np.diff(s)))
        best = min(best, area)
    return best / float(aq[-1])


def monotone_chain_hull(points) -> np.ndarray:
    """Andrew's monotone chain over every distinct point, without the
    row-extremes trim: counter-clockwise strict vertices from the smallest
    (x, y).  Of equal points (``0.0`` equals ``-0.0``) the first in input
    order stays: a stable sort by (x, y) puts it first."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[fresh]
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def _segments_cross(p1, p2, p3, p4, tol: float) -> bool:
    """True if open segments p1-p2 and p3-p4 properly intersect; cross
    products within ``tol`` of 0 count as collinear."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if v > tol:
            return 1
        if v < -tol:
            return -1
        return 0

    o1 = orient(p1, p2, p3)
    o2 = orient(p1, p2, p4)
    o3 = orient(p3, p4, p1)
    o4 = orient(p3, p4, p2)
    return o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0


def reference_quad_problem(pts) -> str | None:
    """Crossing check on numpy rows: pairwise ``allclose`` for coincident
    corners, then a proper-intersection test on both pairs of opposite
    edges, then the zero-area test (shoelace about corner 0).  Both zero
    tests use the bound of the map format, which grows with the
    coordinates."""
    pts = np.asarray(pts, dtype=float)
    if len(pts) != 4:
        return f"a ped_crossing needs exactly 4 vertices, got {len(pts)}"
    for i in range(4):
        for j in range(i + 1, 4):
            if np.allclose(pts[i], pts[j], rtol=0.0, atol=1e-12):
                return f"ped_crossing vertices {i} and {j} coincide"
    diameter = max(np.linalg.norm(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4))
    tol = 1e-12 + 8 * np.finfo(float).eps * np.max(np.abs(pts)) * diameter
    if _segments_cross(pts[0], pts[1], pts[2], pts[3], tol) or _segments_cross(
        pts[1], pts[2], pts[3], pts[0], tol
    ):
        return "ped_crossing edges self-intersect"
    rel = pts - pts[0]
    area = 0.5 * ((rel[1, 0] * rel[2, 1] - rel[2, 0] * rel[1, 1])
                  + (rel[2, 0] * rel[3, 1] - rel[3, 0] * rel[2, 1]))
    if abs(area) <= tol:
        return "ped_crossing has zero area"
    return None


def reference_canonical_quad(pts) -> np.ndarray:
    """Counter-clockwise ring from the lexicographically smallest corner,
    winding taken from the plain shoelace."""
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    if float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) < 0:
        pts = pts[::-1]
    start = min(range(4), key=lambda i: (pts[i, 0], pts[i, 1]))
    return np.roll(pts, -start, axis=0)


def reference_frechet_dp(p, q) -> float:
    """Discrete Frechet distance by the coupling DP indexed cell by cell in
    a numpy array, with the comparison order of ``discrete_frechet``."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    dist = cdist(p, q)
    n, m = dist.shape
    dp = np.empty_like(dist)
    dp[0, 0] = dist[0, 0]
    for j in range(1, m):
        dp[0, j] = max(dp[0, j - 1], dist[0, j])
    for i in range(1, n):
        dp[i, 0] = max(dp[i - 1, 0], dist[i, 0])
        for j in range(1, m):
            best = dp[i - 1, j]
            if dp[i - 1, j - 1] < best:
                best = dp[i - 1, j - 1]
            if dp[i, j - 1] < best:
                best = dp[i, j - 1]
            dp[i, j] = dist[i, j] if dist[i, j] > best else best
    return float(dp[-1, -1])


def reference_orient(src, base) -> np.ndarray:
    """The member orientation rule with both DPs always run: ``src``
    reversed when its reversed order has the strictly smaller discrete
    Frechet distance to ``base``, else ``src`` as given."""
    if reference_frechet_dp(src[::-1], base) < reference_frechet_dp(src, base):
        return src[::-1]
    return src


def reference_merge_polyline(source, base, scenario_counts=None) -> np.ndarray:
    """The fold one source vertex at a time: a ``project_point_to_polyline``
    call on the whole current base per vertex, then a new base array.  The
    unclamped parameter is the projection kernel's expression on Python
    floats.  Reuses that package helper, which the fold no longer calls."""
    out = np.asarray(base, dtype=float)
    for a in np.asarray(source, dtype=float).reshape(-1, 2):
        pr = project_point_to_polyline(a, out)
        k = pr.segment_index
        (ax, ay), (bx, by), (cx, cy) = a.tolist(), out[k].tolist(), out[k + 1].tolist()
        dx, dy = cx - bx, cy - by
        len_sq = dx * dx + dy * dy
        raw = 0.0 if len_sq < 1e-24 else ((ax - bx) * dx + (ay - by) * dy) / len_sq
        if 0.0 < pr.t < 1.0:
            out, scenario = np.vstack([out[: k + 1], 0.5 * (a + pr.point), out[k + 1 :]]), 1
        elif k == 0 and raw < 0.0:
            out, scenario = np.vstack([out[0] + raw * (out[1] - out[0]), out]), 3
        elif k == len(out) - 2 and raw > 1.0:
            out, scenario = np.vstack([out, out[-2] + raw * (out[-1] - out[-2])]), 4
        else:
            j = k if pr.t == 0.0 else k + 1
            out = out.copy()
            out[j] = 0.5 * (a + out[j])
            scenario = 2
        if scenario_counts is not None:
            scenario_counts[scenario] = scenario_counts.get(scenario, 0) + 1
    return out


def reference_map_doc(vmap) -> dict:
    """The JSON document of a map, as ``json.dump`` would serialize it."""
    doc: dict = {"frame": vmap.frame}
    if vmap.pose is not None:
        doc["pose"] = {
            "rotation": vmap.pose.rotation.tolist(),
            "translation": vmap.pose.translation.tolist(),
        }
    doc["elements"] = [
        {
            "id": el.id,
            "label": el.label,
            "is_main": el.is_main,
            "points": el.points.tolist(),
        }
        for el in vmap.elements
    ]
    return doc


def reference_smooth(points, window: int) -> np.ndarray:
    """Moving average with endpoints fixed, one vertex at a time: each
    interior vertex is the mean of its window, shrunk symmetrically near
    the ends."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    out = pts.copy()
    for i in range(1, n - 1):
        half = min(window // 2, i, n - 1 - i)
        out[i] = pts[i - half : i + half + 1].mean(axis=0)
    return out


def _reference_clip_segment(p, q, half_w: float, half_h: float):
    """Liang-Barsky clip of segment p-q on numpy arrays; None when it misses."""
    d = q - p
    t0, t1 = 0.0, 1.0
    for delta, lo, hi in ((d[0], -half_w - p[0], half_w - p[0]),
                          (d[1], -half_h - p[1], half_h - p[1])):
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
    return p + t0 * d, p + t1 * d


def _reference_crop_polyline(pts, half_w: float, half_h: float) -> list[np.ndarray]:
    """Window runs of a polyline, one numpy segment clip at a time."""
    pieces = []
    current = []

    def flush():
        nonlocal current
        if len(current) >= 2 and arc_length(np.array(current)) > 1e-9:
            pieces.append(np.array(current))
        current = []

    for p, q in zip(pts[:-1], pts[1:]):
        clipped = _reference_clip_segment(p, q, half_w, half_h)
        if clipped is None:
            flush()
            continue
        a, b = clipped
        if current and np.allclose(current[-1], a, atol=1e-9):
            current.append(b)
        else:
            flush()
            current = [a, b]
    flush()
    return pieces


def reference_points_in_quad(points, quad) -> np.ndarray:
    """Boundary-inclusive containment: crossing-number parity plus an
    on-edge test that clamps and measures every edge on its own, counting
    a squared distance <= 1e-18 as on the edge."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    on_edge = np.zeros(len(points), dtype=bool)
    for k in range(4):
        x1, y1 = quad[k]
        x2, y2 = quad[(k + 1) % 4]
        crosses = (y1 > y) != (y2 > y)
        if np.any(crosses):
            x_hit = (x2 - x1) * (y[crosses] - y1) / (y2 - y1) + x1
            flip = np.zeros(len(points), dtype=bool)
            flip[crosses] = x[crosses] < x_hit
            inside ^= flip
        dx, dy = x2 - x1, y2 - y1
        len_sq = dx * dx + dy * dy
        t = np.clip(((x - x1) * dx + (y - y1) * dy) / len_sq, 0.0, 1.0)
        dist_sq = (x - (x1 + t * dx)) ** 2 + (y - (y1 + t * dy)) ** 2
        on_edge |= dist_sq <= 1e-18
    return inside | on_edge


def reference_rasterize_coverage(quads, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Coverage raster (origin, values) by testing every cell center of the
    apron-padded bounding box against every quad with
    ``reference_points_in_quad``."""
    quads = [np.asarray(q, dtype=float) for q in quads]
    stacked = np.vstack(quads)
    lo = stacked.min(axis=0) - cell_size
    hi = stacked.max(axis=0) + cell_size
    width = max(1, int(math.ceil((hi[0] - lo[0]) / cell_size)))
    height = max(1, int(math.ceil((hi[1] - lo[1]) / cell_size)))
    cols = (np.arange(width) + 0.5) * cell_size + lo[0]
    rows = (np.arange(height) + 0.5) * cell_size + lo[1]
    xx, yy = np.meshgrid(cols, rows)
    centers = np.column_stack([xx.ravel(), yy.ravel()])
    counts = np.zeros(len(centers))
    for q in quads:
        counts += reference_points_in_quad(centers, q)
    return lo, (counts / len(quads)).reshape(height, width)


def reference_convolve_full(values, kernel) -> np.ndarray:
    """Full-mode 2-D convolution summed in the package's documented order,
    one kernel tap at a time over the whole output grid.  Every cell (i, j)
    starts at 0 and, for each kernel row a in order, adds each run of 4
    products ``kernel[a, b] * values[i - a, j - b]`` over columns b to b + 3,
    the run summed left to right, then the last ``width % 4`` products one
    at a time.  Inputs out of range count as 0."""
    values = np.asarray(values, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    kh, kw = kernel.shape
    height, width = values.shape
    out_h, out_w = height + kh - 1, width + kw - 1
    padded = np.zeros((height + 2 * (kh - 1), width + 2 * (kw - 1)))
    padded[kh - 1:kh - 1 + height, kw - 1:kw - 1 + width] = values

    def product(a, b):
        return kernel[a, b] * padded[kh - 1 - a:kh - 1 - a + out_h, kw - 1 - b:kw - 1 - b + out_w]

    total = np.zeros((out_h, out_w))
    for a in range(kh):
        b = 0
        while b + 4 <= kw:
            run = ((product(a, b) + product(a, b + 1)) + product(a, b + 2)) + product(a, b + 3)
            total = total + run
            b += 4
        while b < kw:
            total = total + product(a, b)
            b += 1
    return total


def reference_region_mask(values, sigma_cells: float, th_cov: float) -> np.ndarray:
    """Cells whose full-mode Gaussian blur (``reference_convolve_full`` over
    the whole grid) reaches ``th_cov``.  The kernel is the package's
    ``gaussian_kernel``, which the checked code leaves as it is."""
    return reference_convolve_full(values, gaussian_kernel(sigma_cells)) >= th_cov


def reference_min_rotated_rect(points):
    """Rotating calipers one hull edge at a time on numpy scalars, over
    ``monotone_chain_hull``; an edge shorter than 1e-12 is skipped, and a
    later edge wins only with a strictly smaller area.  None when no edge
    is usable."""
    hull = monotone_chain_hull(points)
    best_area, best = np.inf, None
    for edge in np.diff(np.vstack([hull, hull[:1]]), axis=0):
        norm = float(np.hypot(edge[0], edge[1]))
        if norm < 1e-12:
            continue
        c, s = edge[0] / norm, edge[1] / norm
        xs = hull[:, 0] * c + hull[:, 1] * s
        ys = -hull[:, 0] * s + hull[:, 1] * c
        x0, x1, y0, y1 = xs.min(), xs.max(), ys.min(), ys.max()
        area = (x1 - x0) * (y1 - y0)
        if area < best_area:
            best_area = area
            local = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
            best = np.column_stack(
                [local[:, 0] * c - local[:, 1] * s, local[:, 0] * s + local[:, 1] * c]
            )
    return best


def reference_merge_quads(members, config) -> np.ndarray:
    """Fused crossing corners by the whole-raster pipeline: reference
    raster, full blur and cut, then the rectangle around the corners of
    every selected cell; the largest quad (ties to the larger id) when no
    cell is selected.  The rectangle goes through the package's
    ``MapElement`` corner order, as the fused element does."""
    origin, values = reference_rasterize_coverage([m.points for m in members], config.cell_size)
    mask = reference_region_mask(values, config.blur_sigma_cells, config.th_cov)
    if not mask.any():
        return max(members, key=lambda m: (polygon_area(m.points), m.id)).points
    radius = (gaussian_kernel(config.blur_sigma_cells).shape[0]) // 2
    origin = origin - radius * config.cell_size
    rows, cols = np.nonzero(mask)
    centers = np.column_stack([(cols + 0.5) * config.cell_size + origin[0],
                               (rows + 0.5) * config.cell_size + origin[1]])
    h = 0.5 * config.cell_size
    offsets = np.array([[-h, -h], [h, -h], [h, h], [-h, h]])
    rect = reference_min_rotated_rect((centers[:, None, :] + offsets[None]).reshape(-1, 2))
    return MapElement("fused", "ped_crossing", rect).points


def reference_clip_polygon(pts, half_w: float, half_h: float) -> np.ndarray:
    """Sutherland-Hodgman clip against the window, one closure per window
    edge, on numpy rows."""
    def clip_edge(poly, inside, intersect):
        out = []
        for i, cur in enumerate(poly):
            prev = poly[i - 1]
            cur_in, prev_in = inside(cur), inside(prev)
            if cur_in:
                if not prev_in:
                    out.append(intersect(prev, cur))
                out.append(cur)
            elif prev_in:
                out.append(intersect(prev, cur))
        return out

    def x_cut(value):
        def intersect(a, b):
            t = (value - a[0]) / (b[0] - a[0])
            return np.array([value, a[1] + t * (b[1] - a[1])])
        return intersect

    def y_cut(value):
        def intersect(a, b):
            t = (value - a[1]) / (b[1] - a[1])
            return np.array([a[0] + t * (b[0] - a[0]), value])
        return intersect

    poly = list(pts)
    for inside, intersect in (
        (lambda p: p[0] >= -half_w, x_cut(-half_w)),
        (lambda p: p[0] <= half_w, x_cut(half_w)),
        (lambda p: p[1] >= -half_h, y_cut(-half_h)),
        (lambda p: p[1] <= half_h, y_cut(half_h)),
    ):
        if not poly:
            break
        poly = clip_edge(poly, inside, intersect)
    return np.array(poly).reshape(-1, 2)


def _reference_crop_quad(pts, half_w: float, half_h: float):
    """A fully visible quad as is, else the package's rectangle fit of the
    clipped ring above; None when less than a triangle is left."""
    inside = (np.abs(pts[:, 0]) <= half_w) & (np.abs(pts[:, 1]) <= half_h)
    if np.all(inside):
        return pts
    clipped = reference_clip_polygon(pts, half_w, half_h)
    if len(clipped) < 3:
        return None
    try:
        return min_rotated_rect(clipped)
    except ValueError:
        return None


def reference_generate_instances(gt, poses, cfg):
    """Windowed noisy views transformed and cropped one element at a time,
    every element in every view.  Crossings are cropped by the numpy
    clip above and built by the package's ``_quad_element``, which the
    batched generator shares unchanged; the polyline crop is the numpy one
    above."""
    gt_world = to_world(gt)
    half_w, half_h = cfg.window[0] / 2.0, cfg.window[1] / 2.0
    instances = []
    for k, pose in enumerate(poses):
        rng = np.random.default_rng(cfg.seed ^ k)
        inv = pose.inverse()
        observed = []
        for el in gt_world.elements:
            ego_pts = transform_to_world(el.points, inv)
            if el.label == "ped_crossing":
                cropped = _reference_crop_quad(ego_pts, half_w, half_h)
                pieces = [] if cropped is None else [(el.id, cropped)]
            else:
                runs = _reference_crop_polyline(ego_pts, half_w, half_h)
                pieces = [
                    (el.id if j == 0 else f"{el.id}#{j}", run)
                    for j, run in enumerate(runs)
                ]
            for piece_id, pts in pieces:
                if rng.random() < cfg.dropout:
                    continue
                if cfg.sigma > 0:
                    pts = pts + rng.normal(0.0, cfg.sigma, pts.shape)
                if el.label == "ped_crossing":
                    noisy = _quad_element(piece_id, pts)
                    if noisy is not None:
                        observed.append(noisy)
                else:
                    observed.append(MapElement(piece_id, el.label, pts))
        instances.append(VectorMap(tuple(observed), "ego", pose))
    return instances


def reference_pcm(p, q) -> float:
    """Partial-curve area as one loop over the slide offsets, each scored
    on its own: the per-offset form that ``metrics.pcm`` must reproduce
    bit for bit."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))

    def cum_arc(pts):
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(steps)])

    def interp_along(pts, arcs, s):
        x = np.interp(s, arcs, pts[:, 0])
        y = np.interp(s, arcs, pts[:, 1])
        return np.column_stack([x, y])

    arcs_p = cum_arc(p)
    arcs_q = cum_arc(q)
    len_p, len_q = arcs_p[-1], arcs_q[-1]
    if len_p <= len_q:
        short, arcs_s = p, arcs_p
        long, arcs_l = q, arcs_q
    else:
        short, arcs_s = q, arcs_q
        long, arcs_l = p, arcs_p
    span = arcs_l[-1] - arcs_s[-1]

    offsets = np.clip(arcs_l, 0.0, span)
    offsets = np.unique(np.concatenate([offsets, [0.0, span]]))

    best = np.inf
    window = arcs_s[-1]
    for off in offsets:
        inner = arcs_l[(arcs_l > off) & (arcs_l < off + window)] - off
        s = np.unique(np.concatenate([arcs_s, inner]))
        a = interp_along(short, arcs_s, s)
        b = interp_along(long, arcs_l, s + off)
        gap = np.linalg.norm(a - b, axis=1)
        steps = np.diff(s)
        area = float(np.sum(0.5 * (gap[:-1] + gap[1:]) * steps))
        if area < best:
            best = area
    return best / float(len_q)


def reference_eval_stats(est, gt, th_prox: float) -> dict:
    """``evaluate_map``'s pcm and df statistics, ``(mean, min, max, std,
    count)`` keyed by ``(label, metric)``, from a loop over the matched
    pairs that scores each pair on its own with ``reference_pcm`` and
    ``discrete_frechet``.  It reuses ``match_elements`` and
    ``discrete_frechet``: what it checks is how the report batches pcm and
    reuses the distances that ranked candidates."""
    values = {(label, metric): [] for label in LABELS for metric in ("pcm", "df")}
    est_by_id = {el.id: el for el in est.elements}
    gt_by_id = {el.id: el for el in gt.elements}
    for est_id, gt_id in match_elements(est, gt, th_prox)[0]:
        e, g = est_by_id[est_id], gt_by_id[gt_id]
        values[e.label, "pcm"].append(reference_pcm(e.points, g.points))
        values[e.label, "df"].append(discrete_frechet(e.points, g.points))
    stats = {}
    for key, v in values.items():
        arr = np.asarray(v)
        stats[key] = (None, None, None, None, 0) if not v else (
            float(arr.mean()), float(arr.min()), float(arr.max()), float(arr.std()), len(v))
    return stats
