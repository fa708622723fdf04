"""Proximity graph over map elements: who is close enough to merge with whom.

Two elements of one label connect when a vertex of one lies closer than
``th_prox`` to the other (``polyline_merge_check``).  A sweep over bounding
boxes (per label, sort by ``min_x`` and binary-search the boxes that start
within reach of where each one ends) is the only box test.  It drops a pair
only when the boxes lie ``th_prox`` plus the projection kernel's rounding
slack (``geometry._kernel_slack``) apart on an axis, which
``candidate_pairs`` proves the check would reject, so the graph is the check
run on every pair.  Merge chains are the graph's connected components, found
with one union-find.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (_kernel_slack, _require_finite_positive, _runs, _segment_foot, _starts,
                       min_distance_to_polyline)
from .map_model import MapElement, VectorMap

__all__ = ["ProximityGraph", "polyline_merge_check", "candidate_pairs", "build_graph", "merge_chains"]


def _witness_near(src: np.ndarray, poly: np.ndarray, th_prox: float) -> bool:
    """True when the middle vertex of ``src`` lies closer than ``th_prox``
    to the middle segment of ``poly`` or to one of its two neighbours."""
    ax, ay = src[len(src) // 2].tolist()
    k = (len(poly) - 2) // 2
    near = poly[max(k - 1, 0):k + 3].tolist()
    return any(
        _segment_foot(ax, ay, bx, by, cx, cy)[4] < th_prox
        for (bx, by), (cx, cy) in zip(near, near[1:])
    )


def polyline_merge_check(a: MapElement, b: MapElement, th_prox: float) -> bool:
    """Decide whether two elements are close enough to merge.

    True when the labels match and at least one vertex of either element
    lies strictly closer than ``th_prox`` to the other element (closest
    point on any segment).  Symmetric in its arguments.

    Each element's middle vertex is tried first against the other's middle
    segments, which settles most overlapping pairs without the full
    kernel.  ``_segment_foot`` gives the bits of the kernel's entry for
    that vertex and segment, so a witness closer than ``th_prox`` makes
    the kernel's minimum closer too, and a miss leaves the kernel to decide.
    """
    _require_finite_positive("th_prox", th_prox)
    if a.label != b.label:
        return False
    if _witness_near(a.points, b.points, th_prox) or _witness_near(b.points, a.points, th_prox):
        return True
    return (
        min_distance_to_polyline(a.points, b.points) < th_prox
        or min_distance_to_polyline(b.points, a.points) < th_prox
    )


def _boxes(elements) -> tuple[np.ndarray, np.ndarray]:
    """Each element's box as (N, 2) arrays of coordinate minima and maxima,
    from one pass over the stacked points.  A bound equals the element's
    ``points.min(axis=0)`` or ``max(axis=0)`` save, at most, the sign of a
    zero, which no gap, sort, search or slack in ``candidate_pairs`` tells
    apart."""
    sizes = [len(el.points) for el in elements]
    heads = _starts(sizes)
    points = np.concatenate([el.points for el in elements])
    return np.minimum.reduceat(points, heads), np.maximum.reduceat(points, heads)


def candidate_pairs(elements, th_prox: float) -> np.ndarray:
    """Index pairs ``(i, j)``, ``i < j``, that ``polyline_merge_check`` may accept.

    Pairs of one label whose boxes are less than ``limit = th_prox +
    _kernel_slack(S)`` apart on both axes, sorted by ``(i, j)``; S is the
    largest coordinate magnitude.  No pair the check accepts is dropped.
    The check accepts when a kernel distance from a vertex of one element
    to a segment of the other is below ``th_prox``, and the true distance
    is at least the box gap on each axis.  The slack covers the distance's
    and the computed gap's rounding while ``th_prox`` is at most 3 S; a
    larger ``th_prox`` exceeds every gap, at most 2 S, by itself.  The
    reach, the float after the rounded ``hi + limit``, lies past the exact
    sum, so the window misses no box that starts within ``limit``.  The
    slack adds exact checks, never an edge.
    """
    _require_finite_positive("th_prox", th_prox)
    n = len(elements)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    lo, hi = _boxes(elements)
    scale = max(-float(lo.min()), float(hi.max()))
    limit = th_prox + _kernel_slack(scale)
    labels = np.array([el.label for el in elements])
    found = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        idx = idx[np.argsort(lo[idx, 0], kind="stable")]
        start = lo[idx, 0]
        reach = np.nextafter(hi[idx, 0] + limit, np.inf)
        stop = np.searchsorted(start, reach, side="right")
        # sorted position k pairs with positions k+1 .. stop[k]-1
        counts = stop - np.arange(1, len(idx) + 1)
        first, second = _runs(counts)
        second += first + 1
        a, b = idx[first], idx[second]
        gap = np.maximum(np.maximum(lo[a], lo[b]) - np.minimum(hi[a], hi[b]), 0.0)
        keep = (gap < limit).all(axis=1)
        found.append(np.column_stack([np.minimum(a, b), np.maximum(a, b)])[keep])
    pairs = np.vstack(found)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


@dataclass(frozen=True)
class ProximityGraph:
    """Undirected merge-candidate graph: ``nodes`` in element order, ``edges`` as id pairs."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges


def build_graph(vmap: VectorMap, th_prox: float, *, skip_main_pairs: bool = True) -> ProximityGraph:
    """Build the merge-candidate graph of a concatenated world map.

    Nodes are element ids.  Every candidate pair from ``candidate_pairs``
    runs the exact ``polyline_merge_check`` once; passing pairs become
    edges.  With ``skip_main_pairs`` (the first merge pass), main-map
    elements are never checked against each other, so every edge has at
    least one non-main endpoint; later passes, where every element is
    already main, check all pairs.
    """
    if vmap.frame != "world":
        raise ValueError("proximity graph requires a world-frame map")
    elements = vmap.elements
    edges = []
    for i, j in candidate_pairs(elements, th_prox).tolist():
        a, b = elements[i], elements[j]
        if skip_main_pairs and a.is_main and b.is_main:
            continue
        if polyline_merge_check(a, b, th_prox):
            edges.append((a.id, b.id))
    return ProximityGraph(tuple(el.id for el in elements), tuple(edges))


def merge_chains(graph: ProximityGraph) -> list[list[str]]:
    """Connected components with at least 2 nodes, as id lists.

    Components are ordered by their first node's position in
    ``graph.nodes``, and ids inside a component the same way, so the result
    is deterministic for a deterministically built graph.
    """
    index = {node: k for k, node in enumerate(graph.nodes)}
    # union-find over node positions with path halving, inline: a helper
    # call per edge doubles the cost.  Each root is its component's first node
    parent = list(range(len(graph.nodes)))
    for u, v in graph.edges:
        a, b = index[u], index[v]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
    members: dict[int, list[str]] = {}
    for k, node in enumerate(graph.nodes):
        r = k
        while parent[r] != r:
            r = parent[r]
        members.setdefault(r, []).append(node)
    # dict order is first-seen order, i.e. by each component's first node
    return [chain for chain in members.values() if len(chain) >= 2]
