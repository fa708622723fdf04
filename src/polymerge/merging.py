"""Folding observed polylines into a growing global map.

Each source vertex is projected onto the base polyline and handled by one
of four cases: midpoint insertion inside a segment, midpoint replacement
of a hit vertex, or extension past the first or last vertex.  Chains of
mutually close elements collapse into a single merged element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import arc_length, as_points, project_point_to_polyline, segment_parameter
from .map_model import _EPS, LABEL_PED_CROSSING, MapElement, VectorMap, concatenate
from .metrics import discrete_frechet
from .proximity import build_graph, merge_chains
# Re-exported as a module attribute: the benchmark's per-layer trace wraps
# ``polymerge.merging.polyline_merge_check``.
from .proximity import polyline_merge_check as polyline_merge_check
from .quads import merge_quads

__all__ = [
    "MergeConfig",
    "MergeReport",
    "merge_point",
    "merge_polyline",
    "merge_chain",
    "merge_maps",
    "smooth",
]

# moving-average window of the optional smoothing step
_SMOOTHING_WINDOW = 5


@dataclass(frozen=True)
class MergeConfig:
    """Tuning knobs of the merge pipeline."""

    th_prox: float = 1.0
    th_cov: float = 0.5
    cell_size: float = 0.1
    blur_sigma_cells: float = 2.0
    smoothing_enabled: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.th_prox) and self.th_prox > 0):
            raise ValueError("th_prox must be finite and positive")
        if not 0.0 < self.th_cov < 1.0:
            raise ValueError("th_cov must lie strictly between 0 and 1")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError("cell_size must be finite and positive")
        if not (math.isfinite(self.blur_sigma_cells) and self.blur_sigma_cells > 0):
            raise ValueError("blur_sigma_cells must be finite and positive")


@dataclass
class ChainRecord:
    """What happened to one merge chain."""

    label: str
    members: list[str]
    base_id: str
    kind: str
    scenarios: dict[int, int] | None = None
    fallback: bool = False


@dataclass
class MergeReport:
    """Collected bookkeeping of a merge run, serializable as JSON."""

    chains: list[ChainRecord] = field(default_factory=list)
    isolated: list[str] = field(default_factory=list)
    passes: int = 0

    def add_chain(self, label, members, base_id, kind, scenarios=None, fallback=False):
        self.chains.append(ChainRecord(label, members, base_id, kind, scenarios, fallback))

    def to_dict(self) -> dict:
        return {
            "passes": self.passes,
            "chains": [
                {
                    "label": c.label,
                    "members": c.members,
                    "base": c.base_id,
                    "kind": c.kind,
                    "scenarios": {str(k): v for k, v in sorted(c.scenarios.items())}
                    if c.scenarios is not None
                    else None,
                    "fallback": c.fallback,
                }
                for c in self.chains
            ],
            "isolated": self.isolated,
        }


def _merge_point(a: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, int]:
    """Merge one source vertex into the base; returns (new base, scenario)."""
    pr = project_point_to_polyline(a, base)
    k = pr.segment_index
    if 0.0 < pr.t < 1.0:
        # foot strictly inside a segment: insert the midpoint
        return np.vstack([base[: k + 1], 0.5 * (a + pr.point), base[k + 1 :]]), 1
    # pr.t is this parameter clamped, so only a foot on a vertex can lie past an end
    raw = segment_parameter(a, base[k], base[k + 1])
    if k == 0 and raw < 0.0:
        # beyond the start: extend backwards to the foot on the first segment's line
        return np.vstack([base[0] + raw * (base[1] - base[0]), base]), 3
    if k == len(base) - 2 and raw > 1.0:
        # beyond the end: extend forwards to the foot on the last segment's line
        return np.vstack([base, base[-2] + raw * (base[-1] - base[-2])]), 4
    # foot coincides with a vertex: replace it by the midpoint
    j = k if pr.t == 0.0 else k + 1
    out = base.copy()
    out[j] = 0.5 * (a + base[j])
    return out, 2


def merge_point(a, base) -> np.ndarray:
    """Merge a single source vertex ``a`` into the base polyline.

    The vertex is projected onto the base.  A foot point strictly inside a
    segment inserts the midpoint of vertex and foot; a foot point on a base
    vertex replaces that vertex with the midpoint; a vertex past the first
    or last vertex extends the base to its foot on the end segment's line.
    """
    return merge_polyline(np.reshape(a, (1, 2)), base)


def merge_polyline(source, base, scenario_counts=None) -> np.ndarray:
    """Fold every vertex of ``source`` into ``base``, in order.

    The updated base is threaded through the fold, so later vertices see
    the effect of earlier ones.
    """
    src = as_points(source)
    out = as_points(base)
    if len(out) < 2:
        raise ValueError("base polyline needs at least 2 vertices")
    for a in src:
        out, scenario = _merge_point(a, out)
        if scenario_counts is not None:
            scenario_counts[scenario] = scenario_counts.get(scenario, 0) + 1
    return out


def _select_base(members: list[MapElement]) -> MapElement:
    mains = [el for el in members if el.is_main]
    if len(mains) == 1:
        return mains[0]
    pool = mains if mains else members
    return sorted(pool, key=lambda el: (-arc_length(el.points), el.id))[0]


def _greedy_coupling_below(p: list, q: list, limit: float) -> bool:
    """True when one monotone coupling of the vertex chains ``p`` and ``q``
    keeps every coupled distance below ``limit``.  The coupling is greedy:
    each step takes the cheapest of the diagonal, down and right moves, and
    once one chain is at its end the rest of the other pairs with that end."""
    hypot = math.hypot
    n, m = len(p) - 1, len(q) - 1
    i = j = 0
    (x, y), (u, v) = p[0], q[0]
    if not hypot(x - u, y - v) < limit:
        return False
    while i < n and j < m:
        (x1, y1), (u1, v1) = p[i + 1], q[j + 1]
        d = hypot(x1 - u1, y1 - v1)
        down = hypot(x1 - u, y1 - v)
        right = hypot(x - u1, y - v1)
        if down < d and down <= right:
            d, i, x, y = down, i + 1, x1, y1
        elif right < d:
            d, j, u, v = right, j + 1, u1, v1
        else:
            i, j, x, y, u, v = i + 1, j + 1, x1, y1, u1, v1
        if not d < limit:
            return False
    return all(hypot(x - a, y - b) < limit for a, b in q[j + 1:]) and all(
        hypot(a - u, b - v) < limit for a, b in p[i + 1:]
    )


def _orient(src: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``src`` in the vertex order it is folded in: reversed when the
    reversed order has the strictly smaller discrete Frechet distance (DF)
    to ``base``.

    Bounds settle most members without either DP.  Every coupling contains
    both end pairs, so the larger end-pair distance of the reversed member,
    ``lb``, bounds its DF from below; any one monotone coupling bounds the
    forward DF from above.  When a greedy coupling stays below ``lb``, the
    reversed DF cannot be the smaller and the given order stands.  The DPs
    take their distances from ``cdist`` and the bounds from ``math.hypot``,
    which may differ in the last bits, so the coupling must stay below
    ``lb`` by a few ulps, plus what rounding squares to subnormals can lose;
    past 1e150, where squares overflow, the DPs decide.
    """
    p, q = src.tolist(), base.tolist()
    lb = max(math.hypot(p[-1][0] - q[0][0], p[-1][1] - q[0][1]),
             math.hypot(p[0][0] - q[-1][0], p[0][1] - q[-1][1]))
    if lb < 1e150 and _greedy_coupling_below(p, q, (lb - 1e-150) / (1.0 + 8.0 * _EPS)):
        return src
    if discrete_frechet(src[::-1], base) < discrete_frechet(src, base):
        return src[::-1]
    return src


def merge_chain(chain, config: MergeConfig, report=None) -> MapElement:
    """Merge a chain of same-label open polylines into one element.

    The base is the chain's main element (several mains: the longest one;
    none: the longest element overall, ties by smallest id).  The remaining
    members are folded in by descending arc length; each is reversed first
    when its reversed orientation is closer to the base in Frechet distance.
    The result keeps the base's id and label and is flagged as main.
    """
    members = list(chain)
    if len(members) < 2:
        raise ValueError("a merge chain needs at least 2 elements")
    labels = {el.label for el in members}
    if len(labels) != 1:
        raise ValueError(f"chain mixes labels: {sorted(labels)}")
    label = members[0].label
    if label == LABEL_PED_CROSSING:
        raise ValueError("crossing chains are merged via merge_quads")

    base_el = _select_base(members)
    rest = [el for el in members if el is not base_el]
    rest.sort(key=lambda el: -arc_length(el.points))

    base = np.array(base_el.points)
    counts: dict[int, int] = {}
    for el in rest:
        base = merge_polyline(_orient(el.points, base), base, counts)
    if config.smoothing_enabled:
        base = smooth(base, _SMOOTHING_WINDOW)
    if report is not None:
        report.add_chain(
            label=label,
            members=[el.id for el in members],
            base_id=base_el.id,
            kind="polyline",
            scenarios=counts,
        )
    return MapElement(base_el.id, label, base, is_main=True)


def _run_pass(elements: tuple[MapElement, ...], chains, config, report) -> list[MapElement]:
    by_id = {el.id: el for el in elements}
    chain_of: dict[str, int] = {}
    for c_idx, chain in enumerate(chains):
        for el_id in chain:
            chain_of[el_id] = c_idx
    emitted: set[int] = set()
    out: list[MapElement] = []
    for el in elements:
        c_idx = chain_of.get(el.id)
        if c_idx is None:
            if not el.is_main and report is not None:
                report.isolated.append(el.id)
            out.append(el if el.is_main else el.with_points(el.points, is_main=True))
            continue
        if c_idx in emitted:
            continue
        emitted.add(c_idx)
        members = [by_id[i] for i in chains[c_idx]]
        if members[0].label == LABEL_PED_CROSSING:
            out.append(merge_quads(members, config, report))
        else:
            out.append(merge_chain(members, config, report))
    return out


def merge_maps(main: VectorMap, secondaries, config: MergeConfig | None = None, report=None) -> VectorMap:
    """Merge secondary maps into the main map, producing one world map.

    The maps are concatenated, the proximity graph is built, and every
    chain collapses into a single element (crossings via the coverage-grid
    pipeline, everything else via polyline folding).  Isolated elements
    pass through unchanged, flagged as main.  Because merging can move
    elements, the pairwise check is re-run on the output and further merge
    passes follow while candidates remain, capped at 3 passes in total.
    """
    if config is None:
        config = MergeConfig()
    vmap = concatenate(main, secondaries)
    passes = 0
    while passes < 3:
        # after the first pass every element is main, so main/main pairs are candidates too
        chains = merge_chains(build_graph(vmap, config.th_prox, skip_main_pairs=(passes == 0)))
        # the first pass always runs: it flags every element main
        if passes and not chains:
            break
        vmap = VectorMap(tuple(_run_pass(vmap.elements, chains, config, report)), "world")
        passes += 1
    if report is not None:
        report.passes = passes
    return vmap


def smooth(points, window: int) -> np.ndarray:
    """Moving-average smoothing that keeps both endpoints fixed.

    Every interior vertex becomes the mean of the vertices in a centered
    window, shrunk symmetrically near the ends; the vertex count never
    changes.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd number >= 3")
    pts = as_points(points)
    n = len(pts)
    out = pts.copy()
    inner = np.arange(1, n - 1)
    halves = np.minimum(np.minimum(inner, n - 1 - inner), window // 2)
    for half in range(1, window // 2 + 1):
        idx = inner[halves == half]
        # rows summed left to right, then divided: the bits np.mean gives
        total = pts[idx - half]
        for k in range(1 - half, half + 1):
            total = total + pts[idx + k]
        out[idx] = total / (2 * half + 1)
    return out
