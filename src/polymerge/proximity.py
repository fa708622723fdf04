"""Proximity graph over map elements: who is close enough to merge with whom.

Candidate pairs come from a sweep over bounding boxes (per label, sort by
``min_x`` and binary-search the boxes that start within ``th_prox`` of where
each one ends), so only pairs whose boxes lie less than ``th_prox`` apart on
both axes reach the exact vertex-to-segment check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import min_distance_to_polyline
from .map_model import MapElement, VectorMap

__all__ = ["ProximityGraph", "polyline_merge_check", "candidate_pairs", "build_graph", "merge_chains"]


def _bbox_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Lower bound on the distance between two point sets via their boxes."""
    lo = np.maximum(a.min(axis=0), b.min(axis=0))
    hi = np.minimum(a.max(axis=0), b.max(axis=0))
    gap = np.maximum(lo - hi, 0.0)
    return float(np.hypot(gap[0], gap[1]))


def polyline_merge_check(a: MapElement, b: MapElement, th_prox: float) -> bool:
    """Decide whether two elements are close enough to merge.

    True when the labels match and at least one vertex of either element
    lies strictly closer than ``th_prox`` to the other element (closest
    point on any segment).  Symmetric in its arguments.
    """
    if not (math.isfinite(th_prox) and th_prox > 0):
        raise ValueError("th_prox must be finite and positive")
    if a.label != b.label:
        return False
    if _bbox_gap(a.points, b.points) >= th_prox:
        return False
    return (
        min_distance_to_polyline(a.points, b.points) < th_prox
        or min_distance_to_polyline(b.points, a.points) < th_prox
    )


def candidate_pairs(elements, th_prox: float) -> np.ndarray:
    """Index pairs ``(i, j)``, ``i < j``, that ``polyline_merge_check`` may accept.

    Pairs of one label whose boxes are less than ``th_prox`` apart on both
    axes, sorted by ``(i, j)``.  Every dropped pair has a box gap of at
    least ``th_prox`` on one axis, which the check rejects as well.
    """
    if not (math.isfinite(th_prox) and th_prox > 0):
        raise ValueError("th_prox must be finite and positive")
    n = len(elements)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    lo = np.array([el.points.min(axis=0) for el in elements])
    hi = np.array([el.points.max(axis=0) for el in elements])
    labels = np.array([el.label for el in elements])
    found = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        idx = idx[np.argsort(lo[idx, 0], kind="stable")]
        start = lo[idx, 0]
        # the next float up keeps the window a superset despite the rounded sum
        reach = np.nextafter(hi[idx, 0] + th_prox, np.inf)
        stop = np.searchsorted(start, reach, side="right")
        # sorted position k pairs with positions k+1 .. stop[k]-1
        counts = stop - np.arange(1, len(idx) + 1)
        first = np.repeat(np.arange(len(idx)), counts)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
        a, b = idx[first], idx[second]
        # the per-axis gaps exactly as _bbox_gap computes them
        gap = np.maximum(np.maximum(lo[a], lo[b]) - np.minimum(hi[a], hi[b]), 0.0)
        keep = (gap < th_prox).all(axis=1)
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
    # dict order is first-seen order, i.e. by each component's first node
    return [chain for chain in members.values() if len(chain) >= 2]
