"""Folding observed polylines into a growing global map.

Each source vertex is projected onto the base polyline and handled by one
of four cases: midpoint insertion inside a segment, midpoint replacement
of a hit vertex, or extension past the first or last vertex.  Chains of
mutually close elements collapse into a single merged element.

The line chains of a merge pass fold in lockstep: one step folds the next
source vertex of every chain, projected onto all of its chain's current
segments in one dense kernel call.  Its crossing chains are fused in
stacked groups (``quads._fuse_crossings``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (_DEGENERATE_SQ, _budget_groups, _require_finite_positive, _require_number,
                       _segment_feet, arc_length, as_points)
# Re-exported as a module attribute: the benchmark's per-layer trace wraps
# ``polymerge.merging.project_point_to_polyline``; the fold no longer calls it.
from .geometry import project_point_to_polyline as project_point_to_polyline
from .map_model import LABEL_PED_CROSSING, MapElement, VectorMap, _trusted, concatenate
from .metrics import discrete_frechet
from .proximity import build_graph, merge_chains
# Re-exported as a module attribute: the benchmark's per-layer trace wraps
# ``polymerge.merging.polyline_merge_check``.
from .proximity import polyline_merge_check as polyline_merge_check
from .quads import _crossing_element, _fuse_crossings
# Re-exported as a module attribute: the benchmark's per-layer trace wraps
# ``polymerge.merging.merge_quads``; a merge pass no longer calls it.
from .quads import merge_quads as merge_quads

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
# cells of a lockstep group's (chains, capacity) arrays and of a crossing
# group's blurred stack, so that memory stays bounded when many chains are
# stacked at once
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
        for name in ("th_prox", "th_cov", "cell_size", "blur_sigma_cells"):
            _require_number(name, getattr(self, name))
        if not isinstance(self.smoothing_enabled, bool):
            raise ValueError(f"smoothing_enabled must be a bool, got {self.smoothing_enabled!r}")
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


def merge_polyline(source, base, scenario_counts=None) -> np.ndarray:
    """Fold every vertex of ``source`` into ``base``, in order.

    The updated base is threaded through the fold, so later vertices see
    the effect of earlier ones.  Each vertex folds into the current segment
    nearest to it, the lowest index among equidistant ones: the segment and
    the bits that ``np.argmin`` over ``geometry._foot_points`` of the whole
    current base would give.  It is ``_fold_lockstep`` of one chain whose one
    member folds in its given order.

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
    [(out, counts)] = _fold_lockstep([(pts, [src])], orient=False)
    if scenario_counts is not None:
        for scenario, n in counts.items():
            scenario_counts[scenario] = scenario_counts.get(scenario, 0) + n
    return out


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


def _lattice_path(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells (i_k, j_k) of one monotone coupling of an n-vertex and an
    m-vertex chain, n + m >= 3: ``i_k = k * (n - 1) // (n + m - 2)`` and
    ``j_k = k - i_k`` for k = 0 .. n + m - 2, unit steps from (0, 0) to
    (n - 1, m - 1)."""
    k = np.arange(n + m - 1)
    i = k * (n - 1) // (n + m - 2)
    return i, k - i


def _orient(src: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``src`` in the vertex order it is folded in: reversed when the
    reversed order has the strictly smaller discrete Frechet distance (DF)
    to ``base``.

    Every coupling contains both end pairs, so the reversed DF is at least
    ``lb``, the larger of the distances from the member's last vertex to
    the base's first and from its first to the base's last.  Any one
    coupling bounds the forward DF from above.  So when the largest
    distance on some coupling is at most ``lb``, the reversed DF cannot be
    the strictly smaller one and the given order stands.

    The coupling tried is ``_lattice_path``, whose n + m - 1 entries (and
    the two of ``lb``) take ``geometry._distance_matrix``'s own expression,
    so each has the bits of the DPs' entry; this settles most members.
    Otherwise both DPs decide.
    """
    i, j = _lattice_path(len(src), len(base))
    i = np.append(i, (len(src) - 1, 0))
    j = np.append(j, (0, len(base) - 1))
    dx = src[i, 0] - base[j, 0]
    dy = src[i, 1] - base[j, 1]
    dx *= dx
    dy *= dy
    dx += dy
    path = np.sqrt(dx, out=dx)
    lb = max(path.item(-2), path.item(-1))
    if not (path[:-2] > lb).any():
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
    [(base, counts)] = _fold_lockstep([(base_el.points, [el.points for el in rest])])
    return _chain_element(members, base_el, base, counts, config, report)


def _chain_element(members, base_el: MapElement, base: np.ndarray, counts: dict[int, int],
                   config: MergeConfig, report) -> MapElement:
    """The element a chain whose members folded into ``base`` merges to:
    smoothed when enabled, and recorded in the report."""
    if config.smoothing_enabled:
        smoothed = smooth(base, _SMOOTHING_WINDOW)
        # a line back at its start can average onto that point: no length left
        steps = smoothed[1:] - smoothed[:-1]
        if (steps * steps).any():
            base = smoothed
    if report is not None:
        report.add_chain(
            label=base_el.label,
            members=[el.id for el in members],
            base_id=base_el.id,
            kind="polyline",
            scenarios=counts,
        )
    return MapElement(base_el.id, base_el.label, base, is_main=True)


def _fold_lockstep(folds, orient=True) -> list[tuple[np.ndarray, dict[int, int]]]:
    """Each (base, members in fold order) of ``folds``, point arrays, folded
    by ``merge_polyline``'s rule, with every chain's next source vertex folded
    in the same step: each chain's polyline and scenario counts.  Each member
    is first put in ``_orient``'s vertex order, or, with ``orient`` false,
    folds in its given order.

    Row r holds a chain's current polyline, padded to the group's largest
    capacity.  Each step projects every row's source vertex onto all of
    that row's segments in one ``_segment_feet`` call, the kernel of
    ``merge_polyline``'s specification, and pads the distances past each
    row's last segment with +inf, so a row ``argmin`` picks the nearest
    current segment, the lowest index on ties.  The four scenarios then
    update every row at once: a midpoint inserted after the foot's segment,
    a hit vertex moved, or a foot on an end segment's line put before the
    first or after the last vertex.  A member is oriented when its first
    vertex is due, against its chain's polyline as it is then.  Rows run in
    decreasing number of steps, so the chains still folding are always the
    leading rows.
    """
    steps = [sum(map(len, rest)) for _, rest in folds]
    order = sorted(range(len(folds)), key=lambda c: -steps[c])
    total = np.array([steps[c] for c in order])
    size = np.array([len(folds[c][0]) for c in order])
    cap = int((size + total).max())
    # x and y planes of the rows: ``pts[r, :size[r]]`` is row r's polyline as
    # an (N, 2) view, and each coordinate of a block of rows is contiguous
    planes = np.zeros((2, len(folds), cap))
    pts = planes.transpose(1, 2, 0)
    cells = planes.reshape(2, -1)
    row_start = np.arange(len(folds)) * cap
    # the oriented source vertices, and the scenario of each fold, by step
    src = np.zeros((2, len(folds), total[0]))
    scenario = np.zeros((len(folds), total[0]), dtype=np.int8)
    starts: dict[int, list] = {}
    for r, c in enumerate(order):
        base, rest = folds[c]
        pts[r, :size[r]] = base
        step = 0
        for member in rest:
            starts.setdefault(step, []).append((r, member))
            step += len(member)
    rows = len(folds)
    for step in range(total[0]):
        for r, member in starts.get(step, ()):
            if orient:
                member = _orient(member, pts[r, :size[r]])
            src[:, r, step:step + len(member)] = member.T
        while total[rows - 1] <= step:
            rows -= 1
        sz, first, n = size[:rows], row_start[:rows], size[:rows].max()
        a = src[:, :rows, step]
        dist = _segment_feet(a[0, :, None], a[1, :, None], pts[:rows, :n - 1], pts[:rows, 1:n])[3]
        np.putmask(dist, np.arange(n - 1) >= sz[:, None] - 1, np.inf)
        k = dist.argmin(axis=1)
        b = cells[:, first + k]
        d = cells[:, first + k + 1] - b
        # the unclamped parameter of the foot in the kernel's expressions, 0
        # on a degenerate segment, as ``_segment_foot`` has it; the clamped t
        # is this clipped to [0, 1], and the kernel's foot is b + t d
        len_sq = d[0] * d[0] + d[1] * d[1]
        flat = len_sq < _DEGENERATE_SQ
        raw = ((a[0] - b[0]) * d[0] + (a[1] - b[1]) * d[1]) / np.where(flat, 1.0, len_sq)
        raw[flat] = 0.0
        inside = (0.0 < raw) & (raw < 1.0)
        # only a foot clamped onto an end vertex can lie past that end
        front = (k == 0) & (raw < 0.0)
        back = (k == sz - 2) & (raw > 1.0)
        hit = ~(inside | front | back)
        # the vertex a clamped foot falls on, and the one after an inner foot
        j = np.where(raw <= 0.0, k, k + 1)
        line = b + raw * d
        new = np.where(hit, 0.5 * (a + cells[:, first + j]), np.where(inside, 0.5 * (a + line), line))
        at = np.where(front, 0, np.where(back, sz, j))
        # a row that grows shifts its vertices from ``at`` on one place back
        shift = np.arange(1, n + 1) > np.where(hit, cap, at)[:, None]
        np.copyto(planes[:, :rows, 1:n + 1], planes[:, :rows, :n], where=shift)
        cells[:, first + at] = new
        sz += ~hit
        scenario[:rows, step] = np.where(inside, 1, np.where(hit, 2, np.where(front, 3, 4)))
    out: list = [None] * len(folds)
    for r, c in enumerate(order):
        counts = np.bincount(scenario[r], minlength=5).tolist()
        out[c] = (pts[r, :size[r]].copy(), {s: counts[s] for s in range(1, 5) if counts[s]})
    return out


def _run_pass(elements: tuple[MapElement, ...], chains, config, report) -> list[MapElement]:
    by_id = {el.id: el for el in elements}
    chain_of: dict[str, int] = {}
    for c_idx, chain in enumerate(chains):
        for el_id in chain:
            chain_of[el_id] = c_idx
    members_of = [[by_id[i] for i in chain] for chain in chains]
    line = [c for c, members in enumerate(members_of) if members[0].label != LABEL_PED_CROSSING]
    crossing = [c for c, members in enumerate(members_of) if members[0].label == LABEL_PED_CROSSING]
    # chain index -> (base element, polyline, scenario counts) of every line
    # chain; a line chain is one row of its capacity (base plus member
    # vertices, the most its polyline can reach)
    folded: dict[int, tuple] = {}
    for group in _budget_groups([(1, sum(len(el.points) for el in members_of[c])) for c in line],
                                _BLOCK_CELLS):
        orders = [_fold_order(members_of[line[k]]) for k in group]
        folds = _fold_lockstep([(base_el.points, [el.points for el in rest]) for base_el, rest in orders])
        for k, (base_el, _), (base, counts) in zip(group, orders, folds):
            folded[line[k]] = (base_el, base, counts)
    # chain index -> fused corners of every crossing chain, None to fall back
    fused = dict(zip(crossing, _fuse_crossings([el.points for c in crossing for el in members_of[c]],
                                               [len(members_of[c]) for c in crossing], config,
                                               _BLOCK_CELLS)))
    emitted: set[int] = set()
    out: list[MapElement] = []
    for el in elements:
        c_idx = chain_of.get(el.id)
        if c_idx is None:
            if not el.is_main and report is not None:
                report.isolated.append(el.id)
            out.append(el if el.is_main else _trusted(el.id, el.label, el.points, True))
            continue
        if c_idx in emitted:
            continue
        emitted.add(c_idx)
        members = members_of[c_idx]
        if members[0].label == LABEL_PED_CROSSING:
            out.append(_crossing_element(members, fused[c_idx], report))
        else:
            out.append(_chain_element(members, *folded[c_idx], config, report))
    return out


def merge_maps(main: VectorMap, secondaries, config: MergeConfig | None = None, report=None) -> VectorMap:
    """Merge secondary maps into the main map, producing one world map.

    The maps are concatenated, the proximity graph is built, and every
    chain collapses into a single element (crossings via the coverage-grid
    pipeline, everything else via polyline folding).  Each pass stacks its
    chains in groups that fit ``_BLOCK_CELLS``: the line chains fold in
    lockstep, the crossing chains are fused group by group.  Isolated
    elements pass through unchanged, flagged as main.  Because merging can
    move elements, the pairwise check is re-run on the output and further merge
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
    if not isinstance(window, (int, np.integer)) or window < 3 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 3, got {window!r}")
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
