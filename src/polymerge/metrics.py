"""Curve similarity metrics and map-level evaluation.

Two polyline metrics are provided: the discrete Frechet distance and a
partial curve measure that slides the shorter curve along the longer one
and reports the smallest enclosed area per unit reference length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if len(p) == 0 or len(q) == 0:
        raise ValueError("discrete_frechet needs non-empty vertex chains")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("discrete_frechet needs finite coordinates")
    dist = cdist(p, q)
    lower = float(np.max((dist[0, 0], dist[-1, -1],
                          dist.min(axis=1).max(), dist.min(axis=0).max())))
    if _greedy_coupling_within(dist, lower):
        return lower
    return _frechet_dp(dist)


def _greedy_coupling_within(dist: np.ndarray, limit: float) -> bool:
    """True when the greedy monotone coupling on the distance matrix
    ``dist`` couples no distance above ``limit``.  It starts at the first
    pair; each step takes the cheapest of the diagonal, down and right
    moves, and once one chain is at its end the rest of the other pairs
    with that end.  Both callers pass distances between finite points,
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


def _cum_arc(pts: np.ndarray) -> np.ndarray:
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


# cells per block of offsets in ``pcm``: small blocks stay in cache, and a
# line of hundreds of vertices adds no peak memory
_PCM_BLOCK_CELLS = 1 << 12
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


def pcm(p, q) -> float:
    """Partial-curve area between ``p`` and the reference curve ``q``.

    Both curves are arc-length parameterized.  The shorter curve is slid
    along the longer one; candidate offsets come from the longer curve's
    vertex positions (clamped so the window always fits) plus the two flush
    positions.  At each offset, points are matched by equal normalized arc
    length within the window and the area between the curves is accumulated
    as trapezoids; the minimum over offsets is divided by the reference
    curve's total arc length.

    Offsets are scored in blocks, one row per offset, with the float
    operations of a loop over offsets.  Offset ``off``'s samples are the
    distinct values among the shorter curve's vertex arcs and
    ``arcs_l[j] - off`` for the longer curve's vertex arcs strictly inside
    the window, ``arcs_l[lo:hi]`` as ``arcs_l`` is non-decreasing.  A row
    holds both, padded with +inf, and is sorted; it keeps each finite value
    that differs from its left neighbour, which is what ``np.unique`` keeps.
    Every sample's gap and trapezoid term is then the loop's float.

    Only the sums differ: a block sums each row's terms with
    ``np.add.reduceat``, in another order than ``np.sum``.  Summing n
    non-negative floats of exact sum S in any order gives a float within
    g*S of S, g = (n-1)u / (1-(n-1)u), u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 4.2; additions that
    underflow are exact).  So a row whose reduceat sum exceeds the least
    one, m, by more than the factor ((1+g)/(1-g))**2 = 1 + 4g/(1-g)**2 has
    an ``np.sum`` above that of m's row, and cannot hold the least area.
    As n is at most the N = len(arcs_s) + len(arcs_l) samples a row can
    have, and Nu < 1/100, that factor is below 1 + 5Nu, which
    F = fl(1 + 8Nu) >= 1 + 7Nu exceeds; rounding is monotone, so every
    float up to m*F is also up to fl(m*F).  The rows within that slack of
    the least sum so far, which is never below the least of all, are summed
    again with ``np.sum``, and the least of those sums is the loop's area.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if len(p) < 2 or len(q) < 2:
        raise ValueError("pcm needs curves with at least 2 vertices")
    arcs_p = _cum_arc(p)
    arcs_q = _cum_arc(q)
    len_p, len_q = arcs_p[-1], arcs_q[-1]
    # a NaN or infinite vertex, or a step that overflows, gives a NaN or
    # infinite arc length
    if not (0 < len_p < np.inf and 0 < len_q < np.inf):
        raise ValueError("pcm needs curves with positive, finite arc length")

    if len_p <= len_q:
        short, arcs_s = p, arcs_p
        long, arcs_l = q, arcs_q
    else:
        short, arcs_s = q, arcs_q
        long, arcs_l = p, arcs_p
    window = arcs_s[-1]
    span = arcs_l[-1] - window
    offsets = np.clip(arcs_l, 0.0, span)
    offsets = np.unique(np.concatenate([offsets, [0.0, span]]))

    # offset k's inner vertices are arcs_l[lo[k]:lo[k] + count[k]]
    lo = np.searchsorted(arcs_l, offsets, "right")
    count = np.maximum(np.searchsorted(arcs_l, offsets + window, "left") - lo, 0)
    n_s, last = len(arcs_s), len(arcs_l) - 1
    cols = np.arange(int(count.max()))
    rows = max(1, _PCM_BLOCK_CELLS // (n_s + len(cols)))
    slack = 1.0 + 8.0 * (n_s + len(arcs_l)) * _UNIT_ROUNDOFF
    least = best = np.inf
    for first in range(0, len(offsets), rows):
        off = offsets[first:first + rows, None]
        samples = np.empty((len(off), n_s + len(cols)))
        samples[:, :n_s] = arcs_s
        inner = samples[:, n_s:]
        np.subtract(arcs_l[np.minimum(lo[first:first + rows, None] + cols, last)], off,
                    out=inner)
        inner[cols >= count[first:first + rows, None]] = np.inf
        samples.sort(axis=1)
        keep = samples < np.inf
        keep[:, 1:] &= samples[:, 1:] != samples[:, :-1]
        s = samples[keep]
        n = keep.sum(axis=1)
        t = s + np.repeat(off[:, 0], n)
        dx = np.interp(s, arcs_s, short[:, 0]) - np.interp(t, arcs_l, long[:, 0])
        dy = np.interp(s, arcs_s, short[:, 1]) - np.interp(t, arcs_l, long[:, 1])
        # the sum of the two squares is what norm(axis=1) adds
        gap = np.sqrt(dx * dx + dy * dy)
        terms = 0.5 * (gap[:-1] + gap[1:]) * (s[1:] - s[:-1])
        ends = np.cumsum(n)
        terms[ends[:-1] - 1] = 0.0  # the terms that straddle two rows
        starts = ends - n
        sums = np.add.reduceat(terms, starts)
        least = min(least, sums.min())
        for k in np.flatnonzero(sums <= least * slack).tolist():
            best = min(best, float(np.sum(terms[starts[k]:ends[k] - 1])))
    return best / float(len_q)


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
    pairs: list[tuple[str, str]] = []
    unmatched_est: list[str] = []
    matched_gt: set[str] = set()
    for e, candidates in zip(est.elements, candidates_of):
        if not candidates:
            unmatched_est.append(e.id)
            continue
        if len(candidates) == 1:
            best = candidates[0]
        else:
            best = min(
                candidates, key=lambda g: (discrete_frechet(e.points, g.points), g.id)
            )
        pairs.append((e.id, best.id))
        matched_gt.add(best.id)
    unmatched_gt = [g.id for g in gt.elements if g.id not in matched_gt]
    return pairs, unmatched_est, unmatched_gt


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
    pairs, unmatched_est, unmatched_gt = match_elements(est, gt, th_prox)
    by_label: dict[str, dict[str, list[float]]] = {
        label: {"pcm": [], "df": []} for label in LABELS
    }
    est_by_id = {el.id: el for el in est.elements}
    gt_by_id = {el.id: el for el in gt.elements}
    for est_id, gt_id in pairs:
        e = est_by_id[est_id]
        g = gt_by_id[gt_id]
        by_label[e.label]["pcm"].append(pcm(e.points, g.points))
        by_label[e.label]["df"].append(discrete_frechet(e.points, g.points))

    rows = []
    for label in LABELS:
        rows.append(_stat_row(label, kind, "pcm", by_label[label]["pcm"]))
        rows.append(_stat_row(label, kind, "df", by_label[label]["df"]))
        n_est = sum(1 for i in unmatched_est if est_by_id[i].label == label)
        n_gt = sum(1 for i in unmatched_gt if gt_by_id[i].label == label)
        rows.append(MetricRow(label, kind, "unmatched_est", None, None, None, None, n_est))
        rows.append(MetricRow(label, kind, "unmatched_gt", None, None, None, None, n_gt))
    return EvalReport(tuple(rows))
