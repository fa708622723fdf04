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
    dp[i][j] = max(|p_i - q_j|, min(dp[i-1][j], dp[i][j-1], dp[i-1][j-1])).
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if len(p) == 0 or len(q) == 0:
        raise ValueError("discrete_frechet needs non-empty vertex chains")
    dist = cdist(p, q)
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


def _interp_along(pts: np.ndarray, arcs: np.ndarray, s: np.ndarray) -> np.ndarray:
    x = np.interp(s, arcs, pts[:, 0])
    y = np.interp(s, arcs, pts[:, 1])
    return np.column_stack([x, y])


def pcm(p, q) -> float:
    """Partial-curve area between ``p`` and the reference curve ``q``.

    Both curves are arc-length parameterized.  The shorter curve is slid
    along the longer one; candidate offsets come from the longer curve's
    vertex positions (clamped so the window always fits) plus the two flush
    positions.  At each offset, points are matched by equal normalized arc
    length within the window and the area between the curves is accumulated
    as trapezoids; the minimum over offsets is divided by the reference
    curve's total arc length.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if len(p) < 2 or len(q) < 2:
        raise ValueError("pcm needs curves with at least 2 vertices")
    arcs_p = _cum_arc(p)
    arcs_q = _cum_arc(q)
    len_p, len_q = arcs_p[-1], arcs_q[-1]
    if len_p <= 0 or len_q <= 0:
        raise ValueError("pcm needs curves with positive arc length")

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
        a = _interp_along(short, arcs_s, s)
        b = _interp_along(long, arcs_l, s + off)
        gap = np.linalg.norm(a - b, axis=1)
        steps = np.diff(s)
        area = float(np.sum(0.5 * (gap[:-1] + gap[1:]) * steps))
        if area < best:
            best = area
    return best / float(len_q)


def match_elements(
    est: VectorMap, gt: VectorMap, th_prox: float
) -> tuple[list[tuple[str, str]], list[str], list[str]]:
    """Pair estimated elements with ground-truth elements.

    Candidates must pass the merge check; among several candidates the one
    with the smallest Frechet distance wins, ties by smaller GT id.
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
    for est_id, gt_id in pairs:
        e = est.element(est_id)
        g = gt.element(gt_id)
        by_label[e.label]["pcm"].append(pcm(e.points, g.points))
        by_label[e.label]["df"].append(discrete_frechet(e.points, g.points))

    est_labels = {el.id: el.label for el in est.elements}
    gt_labels = {el.id: el.label for el in gt.elements}
    rows = []
    for label in LABELS:
        rows.append(_stat_row(label, kind, "pcm", by_label[label]["pcm"]))
        rows.append(_stat_row(label, kind, "df", by_label[label]["df"]))
        n_est = sum(1 for i in unmatched_est if est_labels[i] == label)
        n_gt = sum(1 for i in unmatched_gt if gt_labels[i] == label)
        rows.append(MetricRow(label, kind, "unmatched_est", None, None, None, None, n_est))
        rows.append(MetricRow(label, kind, "unmatched_gt", None, None, None, None, n_gt))
    return EvalReport(tuple(rows))
