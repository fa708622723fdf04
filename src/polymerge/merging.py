"""Folding observed polylines into a growing global map.

Each source vertex is projected onto the base polyline and handled by one
of four cases: midpoint insertion inside a segment, midpoint replacement
of a hit vertex, or extension past the first or last vertex.  Chains of
mutually close elements collapse into a single merged element.

A member is projected onto its base once, onto the original segments.
Each current segment belongs to the family of the original segment it
descends from, or is an extension.  A running bound of how far a touched
family has moved from its original segment turns those distances into
lower bounds, so a vertex is re-projected exactly only onto the touched
families that could be nearest, and onto the extensions.  Equidistant
segments go to the lowest index, as ``np.argmin`` over the whole base.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (_distance_matrix, _foot_points, _kernel_slack, _require_finite_positive,
                       _segment_foot, arc_length, as_points)
# Re-exported as a module attribute: the benchmark's per-layer trace wraps
# ``polymerge.merging.project_point_to_polyline``; the fold no longer calls it.
from .geometry import project_point_to_polyline as project_point_to_polyline
from .map_model import LABEL_PED_CROSSING, MapElement, VectorMap, concatenate
from .metrics import _greedy_coupling_within, discrete_frechet
from .proximity import build_graph, merge_chains
# Re-exported as a module attribute: the benchmark's per-layer trace wraps
# ``polymerge.merging.polyline_merge_check``.
from .proximity import polyline_merge_check as polyline_merge_check
from .quads import merge_quads

__all__ = [
    "MergeConfig",
    "MergeReport",
    "merge_polyline",
    "merge_chain",
    "merge_maps",
    "smooth",
]

# moving-average window of the optional smoothing step
_SMOOTHING_WINDOW = 5
# cells of one block of the fold's (vertices, segments) distance matrix, so
# that its memory stays bounded when a long member meets a long base
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class MergeConfig:
    """Tuning knobs of the merge pipeline."""

    th_prox: float = 1.0
    th_cov: float = 0.5
    cell_size: float = 0.1
    blur_sigma_cells: float = 2.0
    smoothing_enabled: bool = False

    def __post_init__(self):
        _require_finite_positive("th_prox", self.th_prox)
        if not 0.0 < self.th_cov < 1.0:
            raise ValueError("th_cov must lie strictly between 0 and 1")
        _require_finite_positive("cell_size", self.cell_size)
        _require_finite_positive("blur_sigma_cells", self.blur_sigma_cells)


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


class _Fold:
    """One member's fold into a base; ``merge_polyline`` says how it works.

    Family f is original segment f.  Its current vertices are original
    vertex f, the midpoints ``inner[f]`` it gained, and original vertex
    f + 1, which it shares with family f + 1; vertices move in place.
    ``front`` and ``back`` hold the extensions before the first and after
    the last original vertex.  A segment is named (fam, pos): fam -1 for the
    front extensions, 0 .. n - 1 for a family, n for the back extensions,
    and pos its index in that chain, so the names sort in polyline order.
    """

    def __init__(self, src: np.ndarray, base: np.ndarray):
        self.src, self.base = src, base
        self.verts = base.tolist()
        # the bits each moved original vertex had before its first move
        self.moved: dict[int, tuple] = {}
        self.inner: dict[int, list] = {}
        self.front: list = []
        self.back: list = []
        n = self.n = len(self.verts) - 1
        # H[f], as Python floats and as the array the family test reads;
        # -inf while family f is untouched
        self.h = [-math.inf] * n
        self.bound = np.full(n, -np.inf)
        self.rows = max(1, _BLOCK_CELLS // n)
        self.scale = max(float(np.abs(src).max(initial=0.0)), float(np.abs(base).max()))
        self.slack = _kernel_slack(self.scale)

    def chain(self, fam: int) -> list:
        if fam < 0:
            return self.front + self.verts[:1]
        if fam == self.n:
            return self.verts[-1:] + self.back
        return [self.verts[fam], *self.inner.get(fam, ()), self.verts[fam + 1]]

    def polyline(self) -> np.ndarray:
        rows, verts, k = list(self.front), self.verts, 0
        for fam in sorted(self.inner):
            rows += verts[k:fam + 1]
            rows += self.inner[fam]
            k = fam + 1
        rows += verts[k:]
        rows += self.back
        return np.fromiter(itertools.chain.from_iterable(rows), float, 2 * len(rows)).reshape(-1, 2)

    def nearest(self, i: int, ax: float, ay: float):
        """The segment ``np.argmin`` over the current polyline picks for
        source vertex ``i`` at (ax, ay), and its ``_segment_foot``."""
        r = i % self.rows
        if r == 0:
            self.t, self.fx, self.fy, self.dist = _foot_points(self.src[i:i + self.rows], self.base)
            self.exact = self.dist.copy()
            self.exact[:, self.bound > -np.inf] = np.inf
            self.arg = self.exact.argmin(axis=1).tolist()
        fam = self.arg[r]
        if self.h[fam] > -math.inf:
            # touched after the block's argmin: that column is +inf now
            fam = int(self.exact[r].argmin())
        best_d, best, foot = self.exact.item(r, fam), (fam, 0), None
        if self.front or self.back:
            ends = ([-1] if self.front else []) + ([self.n] if self.back else [])
            best_d, best, foot = self._scan(ends, ax, ay, best_d, best, foot)
        limit = best_d + self.slack
        near = (self.dist[r] - self.bound <= limit).nonzero()[0].tolist()
        if near:
            best_d, best, foot = self._scan(near, ax, ay, best_d, best, foot)
        if foot is None:
            # the untouched family's own kernel entries; only a clamped foot
            # needs the unclamped parameter
            t = self.t.item(r, fam)
            if 0.0 < t < 1.0:
                foot = (t, t, self.fx.item(r, fam), self.fy.item(r, fam), best_d)
            else:
                (bx, by), (cx, cy) = self.verts[fam:fam + 2]
                foot = _segment_foot(ax, ay, bx, by, cx, cy)
        return best, foot

    def _scan(self, fams, ax, ay, best_d, best, foot):
        """The nearest of (best_d, best, foot) and every segment of ``fams``."""
        for fam in fams:
            chain = self.chain(fam)
            for pos in range(len(chain) - 1):
                (bx, by), (cx, cy) = chain[pos], chain[pos + 1]
                res = _segment_foot(ax, ay, bx, by, cx, cy)
                if res[4] < best_d or (res[4] == best_d and (fam, pos) < best):
                    best_d, best, foot = res[4], (fam, pos), res
        return best_d, best, foot

    def touch(self, fam: int, v: list) -> None:
        """Family ``fam`` (none if out of range) gained or moved vertex ``v``."""
        if 0 <= fam < self.n:
            moved, verts = self.moved, self.verts
            (bx, by), (cx, cy) = moved.get(fam) or verts[fam], moved.get(fam + 1) or verts[fam + 1]
            h, old = _segment_foot(v[0], v[1], bx, by, cx, cy)[4], self.h[fam]
            if old == -math.inf:
                self.exact[:, fam] = np.inf
            if h > old:
                self.h[fam] = h
                self.bound[fam] = h

    def fold(self, ax: float, ay: float, where, foot) -> int:
        """Fold (ax, ay) into segment ``where``; returns the scenario."""
        fam, pos = where
        raw, t, fx, fy, _ = foot
        n = self.n
        if 0.0 < t < 1.0:
            # foot strictly inside a segment: insert the midpoint
            m = [0.5 * (ax + fx), 0.5 * (ay + fy)]
            if fam < 0:
                self.front.insert(pos + 1, m)
            elif fam == n:
                self.back.insert(pos, m)
            else:
                self.inner.setdefault(fam, []).insert(pos, m)
                self.touch(fam, m)
            return 1
        # t is raw clamped, so only a foot on a vertex can lie past an end
        chain = self.chain(fam)
        (x0, y0), (x1, y1) = chain[pos], chain[pos + 1]
        if raw < 0.0 and where == ((-1, 0) if self.front else (0, 0)):
            # beyond the start: extend backwards to the foot on the first segment's line
            self.front.insert(0, self._grown(x0 + raw * (x1 - x0), y0 + raw * (y1 - y0)))
            return 3
        if raw > 1.0 and where == ((n, len(self.back) - 1) if self.back
                                   else (n - 1, len(self.inner.get(n - 1, ())))):
            # beyond the end: extend forwards to the foot on the last segment's line
            self.back.append(self._grown(x0 + raw * (x1 - x0), y0 + raw * (y1 - y0)))
            return 4
        # foot coincides with a vertex: replace it by the midpoint
        j = pos if t == 0.0 else pos + 1
        v = chain[j]
        # original vertex k, if v is one, belongs to families k - 1 and k
        k = fam if j == 0 else fam + 1 if j == len(chain) - 1 else -1
        if 0 <= k <= n:
            self.moved.setdefault(k, (v[0], v[1]))
        v[0], v[1] = 0.5 * (ax + v[0]), 0.5 * (ay + v[1])
        if 0 <= k <= n:
            self.touch(k - 1, v)
            self.touch(k, v)
        else:
            self.touch(fam, v)
        return 2

    def _grown(self, x: float, y: float) -> list:
        self.scale = max(self.scale, abs(x), abs(y))
        self.slack = _kernel_slack(self.scale)
        return [x, y]


def merge_polyline(source, base, scenario_counts=None) -> np.ndarray:
    """Fold every vertex of ``source`` into ``base``, in order.

    The updated base is threaded through the fold, so later vertices see
    the effect of earlier ones.  Each vertex folds into the current segment
    nearest to it, the lowest index among equidistant ones: the segment and
    the bits that ``np.argmin`` over ``_foot_points`` of the whole current
    base would give.

    The member is projected onto the base once: one ``_foot_points(src,
    base)`` call (per block of ``_BLOCK_CELLS`` cells) gives D[i, f], the
    distance of vertex i to original segment f.  Every current segment
    descends from one original segment, its family, or extends the base
    past an end.  A family no fold has touched is still its original
    segment, so D is its distance to the bit.  For a touched family, H[f] is
    the largest distance to segment f of any vertex its segments have had.
    A segment lies in the hull of its two vertices and the distance to a
    segment is convex, so every segment of family f lies within H[f] of
    segment f, and D[i, f] - H[f] bounds vertex i's distance to all of them
    from below.  For each vertex, the nearest untouched family (one argmin
    per block, taken again for a row whose pick a later fold touched) and
    every extension segment give an exact distance d; only the touched
    families whose bound is within d + ``_kernel_slack(S)`` are
    re-projected, segment by segment, with ``_segment_foot``.  An untouched
    winner takes its foot from the kernel's own t, x and y.  Only a clamped
    foot (t 0 or 1) is recomputed with ``_segment_foot``, whose unclamped
    parameter tells a vertex hit from an extension past an end.

    S bounds every coordinate of the source, the base and the extensions,
    so the slack is set where an extension grows it, not per vertex.  D, H
    and each re-projection are kernel distances: the computed D - H errs by
    two distance errors and a rounding, and a skipped segment's own
    distance by one more, which the slack covers.  So a segment skipped as
    farther than d + slack is farther than d by a computed distance too:
    it can neither win nor tie.

    The fold is specified where no square of a coordinate difference
    overflows.  Maps ``load_map`` accepts (coordinates within 1e16 m) stay
    there: for source vertex a and R the largest coordinate norm so far, a
    midpoint has norm at most max(R, |a|) and an extension's foot f has
    |f|^2 <= R^2 + |a|^2.
    """
    src = as_points(source)
    pts = as_points(base)
    if len(pts) < 2:
        raise ValueError("base polyline needs at least 2 vertices")
    fold = _Fold(src, pts)
    for i, (ax, ay) in enumerate(src.tolist()):
        scenario = fold.fold(ax, ay, *fold.nearest(i, ax, ay))
        if scenario_counts is not None:
            scenario_counts[scenario] = scenario_counts.get(scenario, 0) + 1
    return fold.polyline()


def _fold_order(members: list[MapElement]) -> tuple[MapElement, list[MapElement]]:
    """The chain's base and its other members in fold order, measuring each
    member's arc length at most once."""
    mains = [el for el in members if el.is_main]
    lone = mains[0] if len(mains) == 1 else None
    length = {id(el): arc_length(el.points) for el in members if el is not lone}
    base = lone or min(mains or members, key=lambda el: (-length[id(el)], el.id))
    # a stable sort: members of equal length keep their chain order
    rest = sorted((el for el in members if el is not base), key=lambda el: -length[id(el)])
    return base, rest


def _orient(src: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``src`` in the vertex order it is folded in: reversed when the
    reversed order has the strictly smaller discrete Frechet distance (DF)
    to ``base``.

    One greedy coupling on the DPs' own distance matrix settles most
    members without either DP.  ``_distance_matrix`` computes each entry
    on its own, so the reversed member's matrix is this one with its rows
    reversed, bit for bit.  Every coupling contains both end pairs, so the
    reversed DF is at least ``lb``, the larger of the distances from the
    member's last vertex to the base's first and from its first to the
    base's last; the greedy coupling bounds the forward DF from above.  When
    that coupling stays within ``lb``, the reversed DF cannot be the
    strictly smaller one and the given order stands.
    """
    dist = _distance_matrix(src, base)
    lb = max(dist.item(-1, 0), dist.item(0, -1))
    if _greedy_coupling_within(dist, lb):
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
    Smoothing, when enabled, is skipped where it would leave the line with
    no length.  The result keeps the base's id and label and is flagged as
    main.
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

    base_el, rest = _fold_order(members)

    base = base_el.points
    counts: dict[int, int] = {}
    for el in rest:
        base = merge_polyline(_orient(el.points, base), base, counts)
    if config.smoothing_enabled:
        smoothed = smooth(base, _SMOOTHING_WINDOW)
        # a line back at its start can average onto that point: no length left
        steps = smoothed[1:] - smoothed[:-1]
        if (steps * steps).any():
            base = smoothed
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
