"""Curve similarity metrics and map-level evaluation.

Two polyline metrics are provided: the discrete Frechet distance and a
partial curve measure that slides the shorter curve along the longer one
and reports the smallest enclosed area per unit reference length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _distance_matrix
from .map_model import LABELS, VectorMap
from .proximity import candidate_pairs, polyline_merge_check

__all__ = [
    "discrete_frechet",
    "pcm",
    "match_elements",
    "MetricRow",
    "EvalReport",
    "evaluate_map",
]


def discrete_frechet(p, q) -> float:
    """Discrete Frechet distance between two vertex chains.

    Dynamic program over the coupling lattice:
    dp[i][j] = max(|p_i - q_j|, min(dp[i-1][j], dp[i][j-1], dp[i-1][j-1])),
    run only when two bounds from the same distance matrix do not meet.

    Every coupling contains both end pairs and a cell in every row and
    every column, so no coupling's largest distance is below either
    end-pair distance, any row's minimum or any column's minimum: the
    largest of these bounds the result from below.  One greedy coupling
    bounds it from above.  All three are picks from the same floats, so
    when the bounds are equal that float is the DP's answer.
    """
    message = "discrete_frechet needs non-empty vertex chains of (x, y) points"
    p, q = _vertex_array(p, message), _vertex_array(q, message)
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("discrete_frechet needs finite coordinates")
    return _frechet(p, q)


def _vertex_array(points, message: str) -> np.ndarray:
    """``points`` as a float (n, 2) array with n >= 1, where a lone (x, y)
    is one vertex; any other shape raises ``ValueError(message)``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError(message)
    return pts


def _frechet(p: np.ndarray, q: np.ndarray) -> float:
    """``discrete_frechet`` of float (n, 2) arrays of finite points, such
    as ``MapElement`` points, without checking them."""
    dist = _distance_matrix(p, q)
    lower = max(dist.item(0, 0), dist.item(-1, -1),
                dist.min(axis=1).max().item(), dist.min(axis=0).max().item())
    if _greedy_coupling_within(dist, lower):
        return lower
    return _frechet_dp(dist)


def _greedy_coupling_within(dist: np.ndarray, limit: float) -> bool:
    """True when the greedy monotone coupling on the distance matrix
    ``dist`` couples no distance above ``limit``.  It starts at the first
    pair; each step takes the cheapest of the diagonal, down and right
    moves, and once one chain is at its end the rest of the other pairs
    with that end.  Its caller passes distances between finite points,
    so no entry or limit is NaN."""
    at = dist.item
    if at(0, 0) > limit:
        return False
    n, m = dist.shape[0] - 1, dist.shape[1] - 1
    i = j = 0
    while i < n and j < m:
        d, down, right = at(i + 1, j + 1), at(i + 1, j), at(i, j + 1)
        if down < d and down <= right:
            d, i = down, i + 1
        elif right < d:
            d, j = right, j + 1
        else:
            i, j = i + 1, j + 1
        if d > limit:
            return False
    tail = dist[i, j + 1:] if i == n else dist[i + 1:, j]
    return not (tail > limit).any()


def _frechet_dp(dist: np.ndarray) -> float:
    """The discrete Frechet DP over a distance matrix, exactly as written in
    ``discrete_frechet``'s docstring."""
    # row by row on Python floats: indexing a numpy array per cell boxes a
    # scalar, which costs more than the comparisons; they only pick
    # existing values, so the result is exact
    first = dist[0].tolist()
    prev = []
    left = first[0]
    for x in first:
        left = x if x > left else left
        prev.append(left)
    for d in dist[1:]:
        x, *rest = d.tolist()
        diag = prev[0]
        left = x if x > diag else diag
        row = [left]
        for up, x in zip(prev[1:], rest):
            # min over dp[i-1][j], dp[i-1][j-1], dp[i][j-1], first one on ties
            best = up
            if diag < best:
                best = diag
            if left < best:
                best = left
            left = x if x > best else best
            row.append(left)
            diag = up
        prev = row
    return prev[-1]


# cells per block of rows, and vertices per batch of pairs, in
# ``_pcm_pairs``: blocks stay in cache, and neither a line of hundreds of
# vertices nor a map of thousands of pairs adds peak memory
_PCM_BLOCK_CELLS = 1 << 13
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def _blocks(rows, widths):
    """Split the rows of consecutive items into blocks of at most
    ``_PCM_BLOCK_CELLS`` cells, or of one row.  Item k has ``rows[k]`` rows
    of ``widths[k]`` cells, and a block's rows are as wide as its widest.
    Yields each block as a list of ``(k, start, stop)``, rows
    ``start:stop`` of item k, in item order; an item may span blocks."""
    block, n, width = [], 0, 0
    for k, (count, w) in enumerate(zip(rows, widths)):
        done = 0
        while done < count:
            wide = w if w > width else width
            take = _PCM_BLOCK_CELLS // wide - n
            if take <= 0 < n:
                yield block
                block, n, width = [], 0, 0
                continue
            take = min(count - done, max(take, 1))
            block.append((k, done, done + take))
            n, width, done = n + take, wide, done + take
    if block:
        yield block


def _cum_arcs(curves: list[np.ndarray]) -> list[np.ndarray]:
    """Cumulative arc length of each (n, 2) curve, with the bits of
    ``concatenate([[0.0], cumsum(norm(diff(c, axis=0), axis=1))])``.

    One ``np.diff`` covers the stacked curves, and ``sqrt(dx*dx + dy*dy)``
    is what ``norm(axis=1)`` computes.  Row c of a zero-padded matrix holds
    0 and curve c's steps; ``cumsum(axis=1)`` adds each row left to right,
    so every row has the bits of its own ``cumsum``.
    """
    sizes = [len(c) for c in curves]
    # the differences from one curve's last vertex to the next one's first
    # are dropped, and may overflow where no curve's own step does
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(np.concatenate(curves), axis=0)
        dx, dy = d[:, 0], d[:, 1]
        steps = np.delete(np.sqrt(dx * dx + dy * dy), np.cumsum(sizes[:-1]) - 1)
    n = np.array(sizes)
    mat = np.zeros((len(n), n.max()))
    mat[:, 1:][np.arange(1, n.max()) < n[:, None]] = steps
    return [row[:size] for row, size in zip(np.cumsum(mat, axis=1), sizes)]


def pcm(p, q) -> float:
    """Partial-curve area between ``p`` and the reference curve ``q``.

    Both curves are arc-length parameterized.  The shorter curve is slid
    along the longer one; candidate offsets come from the longer curve's
    vertex positions (clamped so the window always fits) plus the two flush
    positions.  At each offset, points are matched by equal normalized arc
    length within the window and the area between the curves is accumulated
    as trapezoids; the minimum over offsets is divided by the reference
    curve's total arc length.  ``_pcm_pairs`` computes it.
    """
    message = "pcm needs curves of (x, y) points"
    return _pcm_pairs([(_vertex_array(p, message), _vertex_array(q, message))])[0]


def _pcm_pairs(pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """``pcm`` of each ``(p, q)`` pair of float (n, 2) vertex arrays, with
    the float operations of a loop over each pair's offsets on its own.

    Pairs go in batches of at most ``_PCM_BLOCK_CELLS`` vertices, or of
    one pair.  A row is one (pair, offset), in pair-major order, and a
    block of a batch's rows (``_blocks``) may hold rows of several pairs.
    Offset ``off``'s samples are the distinct values among the shorter
    curve's vertex arcs and ``arcs_l[j] - off`` for the longer curve's
    vertex arcs strictly inside the window, ``arcs_l[lo:hi]`` as ``arcs_l``
    is non-decreasing.  A row holds both, padded with +inf, and is sorted;
    it keeps each finite value that differs from its left neighbour, which
    is what ``np.unique`` keeps.  ``np.interp`` runs on each pair's samples
    against that pair's curves, so every sample's gap and trapezoid term is
    the loop's float.

    Only the sums differ: a block sums each row's terms with
    ``np.add.reduceat``, in another order than ``np.sum``.  Summing n
    non-negative floats of exact sum S in any order gives a float within
    g*S of S, g = (n-1)u / (1-(n-1)u), u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 4.2; additions that
    underflow are exact).  So a row whose reduceat sum exceeds the least
    one of its pair, m, by more than the factor ((1+g)/(1-g))**2 = 1 +
    4g/(1-g)**2 has an ``np.sum`` above that of m's row, and cannot hold the
    least area.  As n is at most the N = len(arcs_s) + len(arcs_l) samples
    a row of the pair can have, and Nu < 1/100, that factor is below 1 +
    5Nu, which F = fl(1 + 8Nu) >= 1 + 7Nu exceeds; rounding is monotone, so
    every float up to m*F is also up to fl(m*F).  The rows within that
    slack of their pair's least sum so far, which is never below the least
    of all, are summed again with ``np.sum``, and the least of those sums
    is the loop's area.
    """
    if any(len(c) < 2 for pair in pairs for c in pair):
        raise ValueError("pcm needs curves with at least 2 vertices")
    areas = []
    for batch in _blocks([1] * len(pairs), [len(p) + len(q) for p, q in pairs]):
        areas += _pcm_batch(pairs[batch[0][0]:batch[-1][0] + 1])
    return areas


def _pcm_batch(pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """``_pcm_pairs`` of a batch of pairs, as its docstring says."""
    arcs = _cum_arcs([c for pair in pairs for c in pair])
    total = np.array([a[-1] for a in arcs])
    # a NaN or infinite vertex, or a step that overflows, gives a NaN or
    # infinite arc length
    if not ((0 < total) & (total < np.inf)).all():
        raise ValueError("pcm needs curves with positive, finite arc length")
    len_p, len_q = total[0::2], total[1::2]
    # the shorter curve is p unless q is strictly shorter
    swap = (len_p > len_q).tolist()
    shorts = [pair[s] for pair, s in zip(pairs, swap)]
    longs = [pair[1 - s] for pair, s in zip(pairs, swap)]
    arcs_s = [arcs[2 * k + s] for k, s in enumerate(swap)]
    arcs_l = [arcs[2 * k + 1 - s] for k, s in enumerate(swap)]
    n_s = np.array([len(a) for a in arcs_s])
    n_l = np.array([len(a) for a in arcs_l])
    window = np.minimum(len_p, len_q)
    span = np.maximum(len_p, len_q) - window

    # Rows: a pair's clipped long arcs run from 0 up to span, so np.unique
    # of them and the two flush positions keeps each one that differs from
    # its left neighbour
    flat_l = np.concatenate(arcs_l)
    first_l = np.cumsum(n_l) - n_l
    clipped = np.clip(flat_l, 0.0, np.repeat(span, n_l))
    fresh = np.empty(len(flat_l), dtype=bool)
    fresh[1:] = clipped[1:] != clipped[:-1]
    fresh[first_l] = True
    offsets = clipped[fresh]
    n_rows = np.add.reduceat(fresh, first_l)
    first_row = np.cumsum(n_rows) - n_rows
    pair_of = np.repeat(np.arange(len(pairs)), n_rows)
    # Row r's inner vertices are flat_l[lo[r]:hi[r]].  A row's offset is
    # below span unless it is its pair's last: every long arc from its
    # fresh position up to the next row's equals it, and every later one
    # exceeds it, so lo is the next row's position.  The last row's lo is
    # past each long arc up to span.
    lo = np.empty(len(offsets), dtype=np.intp)
    lo[:-1] = np.flatnonzero(fresh)[1:]
    lo[first_row + n_rows - 1] = first_l + np.add.reduceat(flat_l <= np.repeat(span, n_l), first_l)
    tops = offsets + window[pair_of]
    bounds = zip(arcs_l, first_row.tolist(), (first_row + n_rows).tolist())
    hi = np.concatenate([a.searchsorted(tops[f:r]) for a, f, r in bounds]) + first_l[pair_of]
    count = np.maximum(hi - lo, 0)
    n_inner = np.maximum.reduceat(count, first_row)
    last = (first_l + n_l - 1)[pair_of]
    flat_s = np.concatenate([*arcs_s, [np.inf]])
    first_s = (np.cumsum(n_s) - n_s)[pair_of]
    n_s_of = n_s[pair_of]
    cols = np.arange(int((n_s + n_inner).max()))

    slack = 1.0 + 8.0 * (n_s + n_l) * _UNIT_ROUNDOFF
    least = np.full(len(pairs), np.inf)
    best = [np.inf] * len(pairs)
    row_at = first_row.tolist()
    for block in _blocks(n_rows.tolist(), (n_s + n_inner).tolist()):
        ks = [k for k, _, _ in block]
        heads = [row_at[k] + a for k, a, _ in block]
        r0, r1 = heads[0], row_at[ks[-1]] + block[-1][2]
        wide_s, wide_l = int(n_s[ks].max()), int(n_inner[ks].max())
        off = offsets[r0:r1]
        samples = np.empty((r1 - r0, wide_s + wide_l))
        c = cols[:wide_s]
        short_at = first_s[r0:r1, None] + c
        short_at[c >= n_s_of[r0:r1, None]] = len(flat_s) - 1
        samples[:, :wide_s] = flat_s[short_at]
        c = cols[:wide_l]
        inner = samples[:, wide_s:]
        np.subtract(flat_l[np.minimum(lo[r0:r1, None] + c, last[r0:r1, None])], off[:, None],
                    out=inner)
        inner[c >= count[r0:r1, None]] = np.inf
        samples.sort(axis=1)
        keep = samples < np.inf
        keep[:, 1:] &= samples[:, 1:] != samples[:, :-1]
        s = samples[keep]
        n = keep.sum(axis=1)
        t = s + np.repeat(off, n)
        ends = np.cumsum(n)
        starts = ends - n
        cuts = starts[np.array(heads) - r0].tolist() + [len(s)]
        dx, dy = np.empty(len(s)), np.empty(len(s))
        for k, a, b in zip(ks, cuts, cuts[1:]):
            np.subtract(np.interp(s[a:b], arcs_s[k], shorts[k][:, 0]),
                        np.interp(t[a:b], arcs_l[k], longs[k][:, 0]), out=dx[a:b])
            np.subtract(np.interp(s[a:b], arcs_s[k], shorts[k][:, 1]),
                        np.interp(t[a:b], arcs_l[k], longs[k][:, 1]), out=dy[a:b])
        # the sum of the two squares is what norm(axis=1) adds
        gap = np.sqrt(dx * dx + dy * dy)
        terms = 0.5 * (gap[:-1] + gap[1:]) * (s[1:] - s[:-1])
        terms[ends[:-1] - 1] = 0.0  # the terms that straddle two rows
        sums = np.add.reduceat(terms, starts)
        # fmin passes over a NaN sum, as the loop's comparisons do
        least[ks] = np.fmin(least[ks], np.fmin.reduceat(sums, np.array(heads) - r0))
        of = pair_of[r0:r1]
        for r in np.flatnonzero(sums <= (least * slack)[of]).tolist():
            # ndarray.sum is the np.add.reduce that np.sum calls
            area = float(terms[starts[r]:ends[r] - 1].sum())
            if area < best[of[r]]:
                best[of[r]] = area
    return (np.array(best) / len_q).tolist()


def match_elements(
    est: VectorMap, gt: VectorMap, th_prox: float
) -> tuple[list[tuple[str, str]], list[str], list[str]]:
    """Pair estimated elements with ground-truth elements.

    Candidates must pass the merge check; among several candidates the one
    with the smallest Frechet distance wins, ties by smaller GT id.  The
    matching is many-to-one: each estimate picks on its own, so several
    may take the same GT element, and a GT element counts as unmatched
    only when no estimate picked it.
    Returns (pairs, unmatched_est_ids, unmatched_gt_ids).
    """
    matches, unmatched_est, unmatched_gt = _match(est, gt, th_prox)
    return [(e.id, g.id) for e, g, _ in matches], unmatched_est, unmatched_gt


def _match(est: VectorMap, gt: VectorMap, th_prox: float):
    """``match_elements`` with elements for ids: each match is ``(e, g,
    df)``, where df is the Frechet distance of e and g when ranking several
    candidates computed it, else None."""
    if est.frame != "world" or gt.frame != "world":
        raise ValueError("matching requires world-frame maps")
    n_est = len(est.elements)
    candidates_of: list[list] = [[] for _ in range(n_est)]
    # pairs come sorted by (est index, GT index), so candidates keep GT order
    for i, j in candidate_pairs(est.elements + gt.elements, th_prox).tolist():
        if i < n_est <= j:
            g = gt.elements[j - n_est]
            if polyline_merge_check(est.elements[i], g, th_prox):
                candidates_of[i].append(g)
    matches = []
    unmatched_est: list[str] = []
    matched_gt: set[str] = set()
    for e, candidates in zip(est.elements, candidates_of):
        if not candidates:
            unmatched_est.append(e.id)
            continue
        if len(candidates) == 1:
            df, best = None, candidates[0]
        else:
            df, _, best = min(
                (_frechet(e.points, g.points), g.id, g) for g in candidates
            )
        matches.append((e, best, df))
        matched_gt.add(best.id)
    unmatched_gt = [g.id for g in gt.elements if g.id not in matched_gt]
    return matches, unmatched_est, unmatched_gt


@dataclass(frozen=True)
class MetricRow:
    """One line of an evaluation report."""

    label: str
    kind: str
    metric: str
    mean: float | None
    min: float | None
    max: float | None
    std: float | None
    count: int


CSV_HEADER = "label,kind,metric,mean,min,max,std,count"


@dataclass(frozen=True)
class EvalReport:
    """Per-label metric statistics, serializable as CSV."""

    rows: tuple[MetricRow, ...]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            stats = [
                "" if v is None else f"{v:.4f}" for v in (r.mean, r.min, r.max, r.std)
            ]
            lines.append(",".join([r.label, r.kind, r.metric, *stats, str(r.count)]))
        return "\n".join(lines) + "\n"


def _stat_row(label: str, kind: str, metric: str, values: list[float]) -> MetricRow:
    if not values:
        return MetricRow(label, kind, metric, None, None, None, None, 0)
    arr = np.asarray(values)
    return MetricRow(
        label,
        kind,
        metric,
        float(arr.mean()),
        float(arr.min()),
        float(arr.max()),
        float(arr.std()),
        len(values),
    )


def evaluate_map(
    est: VectorMap, gt: VectorMap, th_prox: float, kind: str = "est"
) -> EvalReport:
    """Match ``est`` against ``gt`` and report per-label metric statistics.

    Every label gets rows for both metrics even when nothing matched
    (count 0, empty statistics), plus rows counting unmatched elements on
    either side.  The std is the population standard deviation.
    """
    matches, unmatched_est, unmatched_gt = _match(est, gt, th_prox)
    by_label: dict[str, dict[str, list[float]]] = {
        label: {"pcm": [], "df": []} for label in LABELS
    }
    areas = _pcm_pairs([(e.points, g.points) for e, g, _ in matches])
    for (e, g, df), area in zip(matches, areas):
        by_label[e.label]["pcm"].append(area)
        by_label[e.label]["df"].append(_frechet(e.points, g.points) if df is None else df)
    est_by_id = {el.id: el for el in est.elements}
    gt_by_id = {el.id: el for el in gt.elements}

    rows = []
    for label in LABELS:
        rows.append(_stat_row(label, kind, "pcm", by_label[label]["pcm"]))
        rows.append(_stat_row(label, kind, "df", by_label[label]["df"]))
        n_est = sum(1 for i in unmatched_est if est_by_id[i].label == label)
        n_gt = sum(1 for i in unmatched_gt if gt_by_id[i].label == label)
        rows.append(MetricRow(label, kind, "unmatched_est", None, None, None, None, n_est))
        rows.append(MetricRow(label, kind, "unmatched_gt", None, None, None, None, n_gt))
    return EvalReport(tuple(rows))
