"""Folding observed polylines into a growing global map.

Each source vertex is projected onto the base polyline and handled by one
of four cases: midpoint insertion inside a segment, midpoint replacement
of a hit vertex, or extension past the first or last vertex.  Chains of
mutually close elements collapse into a single merged element.

A merge pass makes one call per kernel: its line chains fold in lockstep
(``_fold_chains``), one step folding the next source vertex of every
chain onto all of its chain's current segments in one dense kernel call,
and its crossing chains are fused on coverage grids
(``quads._fuse_crossings``).  ``_chain_element`` turns every merged chain
into its element and its report record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (_DEGENERATE_SQ, _budget_groups, _require_finite_positive, _require_number, _runs,
                       _segment_feet, _starts, as_points)
# Re-exported as a module attribute: the benchmark's per-layer trace wraps
# ``polymerge.merging.project_point_to_polyline``; the fold no longer calls it.
from .geometry import project_point_to_polyline as project_point_to_polyline
from .map_model import LABEL_PED_CROSSING, MapElement, VectorMap, _trusted, concatenate
from .metrics import discrete_frechet
from .proximity import build_graph, merge_chains
# Re-exported as a module attribute: the benchmark's per-layer trace wraps
# ``polymerge.merging.polyline_merge_check``.
from .proximity import polyline_merge_check as polyline_merge_check
from .quads import _fuse_crossings, quad_area

__all__ = [
    "MergeConfig",
    "MergeReport",
    "merge_polyline",
    "merge_chain",
    "merge_quads",
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


def _fold_order(members: list[MapElement], length: dict) -> tuple[MapElement, list[MapElement]]:
    """The chain's base and its other members in fold order, by the arc
    length ``length[id(el)]`` of each member."""
    mains = [el for el in members if el.is_main]
    base = min(mains or members, key=lambda el: (-length[id(el)], el.id))
    # a stable sort: members of equal length keep their chain order
    rest = sorted((el for el in members if el is not base), key=lambda el: -length[id(el)])
    return base, rest


def _lattice_path(n, m, k) -> tuple[np.ndarray, np.ndarray]:
    """The cells (i_k, j_k) at the steps ``k`` of one monotone coupling of
    an n-vertex and an m-vertex chain, n + m >= 3: ``i_k = k * (n - 1) //
    (n + m - 2)`` and ``j_k = k - i_k`` for k = 0 .. n + m - 2, unit steps
    from (0, 0) to (n - 1, m - 1); n, m and k may be arrays alike."""
    i = k * (n - 1) // (n + m - 2)
    return i, k - i


def _flips(src, n, cells, first, size) -> np.ndarray:
    """Whether each member of ``src``, members of ``n`` vertices laid end to
    end, folds reversed: when the reversed order has the strictly smaller
    discrete Frechet distance (DF) to its base, the ``size`` columns of
    ``cells``, rows x and y, from column ``first``.

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
    # each member's block: its two end pairs, then its lattice-path cells
    block = n + size + 1
    run, k = _runs(block)
    nn, mm, off, k = n[run], size[run], _starts(n), k - 2
    i, j = _lattice_path(nn, mm, k)
    i = np.where(k < 0, (k == -2) * (nn - 1), i) + off[run]
    j = np.where(k < 0, (k == -1) * (mm - 1), j) + first[run]
    dx, dy = src[i, 0] - cells[0, j], src[i, 1] - cells[1, j]
    path = np.sqrt(dx * dx + dy * dy)
    start = _starts(block)
    lb, worst = np.maximum.reduceat(path, np.stack([start, start + 2], axis=1).ravel()).reshape(-1, 2).T
    flip = worst > lb
    for r in np.flatnonzero(flip).tolist():
        p, base = src[off[r]:off[r] + n[r]], cells[:, first[r]:first[r] + size[r]].T
        flip[r] = discrete_frechet(p[::-1], base) < discrete_frechet(p, base)
    return flip


def merge_chain(chain, config: MergeConfig, report=None) -> MapElement:
    """Merge a chain of same-label open polylines into one element.

    The base is the chain's main element (several mains: the longest one;
    none: the longest element overall, ties by smallest id).  The remaining
    members are folded in by descending arc length; each is reversed first
    when its reversed orientation is closer to the base in Frechet distance.
    Smoothing, when enabled, is skipped where it would leave the line with
    no length.  The result keeps the base's id and label and is flagged as
    main.  It is ``_fold_chains`` of one chain.
    """
    members = list(chain)
    if len(members) < 2:
        raise ValueError("a merge chain needs at least 2 elements")
    labels = {el.label for el in members}
    if len(labels) != 1:
        raise ValueError(f"chain mixes labels: {sorted(labels)}")
    if members[0].label == LABEL_PED_CROSSING:
        raise ValueError("crossing chains are merged via merge_quads")
    [folded] = _fold_chains([members], config)
    return _chain_element(members, report, *folded)


def merge_quads(chain, config: MergeConfig, report=None) -> MapElement:
    """Merge a chain of pedestrian-crossing elements into one rectangle.

    The result keeps the id of the chain's main element when one exists
    (else the lexicographically smallest id) and is flagged as main.  When
    no cell reaches the coverage threshold the largest input quad passes
    through unchanged and the fallback is recorded in the report.  The
    kernel is ``quads._fuse_crossings`` on a group of one chain.
    """
    members = list(chain)
    if len(members) < 2:
        raise ValueError("a merge chain needs at least 2 elements")
    for el in members:
        if el.label != LABEL_PED_CROSSING:
            raise ValueError(f"element '{el.id}' is not a {LABEL_PED_CROSSING}")
    [corners] = _fuse_crossings([el.points for el in members], [len(members)], config)
    return _chain_element(members, report, None, corners)


def _chain_element(members, report, base: MapElement | None, points, scenarios=None) -> MapElement:
    """The main element a merge chain becomes, recorded in the report.  A
    line chain keeps the id of its fold ``base``; a crossing chain (no base)
    that of its main element if any, else its smallest id, and falls back to
    its largest quad where no cell reached th_cov (``points`` None)."""
    label, ids = members[0].label, [el.id for el in members]
    base_id = base.id if base is not None else min([el.id for el in members if el.is_main] or ids)
    fallback = points is None
    if fallback:
        points = max(members, key=lambda el: (quad_area(el.points), el.id)).points
    if report is not None:
        kind = "quad" if label == LABEL_PED_CROSSING else "polyline"
        report.chains.append(ChainRecord(label, ids, base_id, kind, scenarios, fallback))
    return MapElement(base_id, label, points, is_main=True)


def _fold_chains(chains, config: MergeConfig) -> list[tuple[MapElement, np.ndarray, dict[int, int]]]:
    """``merge_chain``'s rule on each chain of ``chains``, member lists: its
    base element, line and scenario counts.  Arc lengths and smoothing run
    once over all the chains, the fold once per ``geometry._budget_groups``
    group, a chain's row as wide as its base plus member vertices, the most
    its line can reach."""
    if not chains:
        return []
    members = [el for chain in chains for el in chain]
    step = np.linalg.norm(np.diff(np.concatenate([el.points for el in members]), axis=0), axis=1)
    # each member's own steps, a contiguous slice: the pairwise sum of ``arc_length``
    ends = np.cumsum([len(el.points) for el in members]).tolist()
    length = {id(el): step[b - len(el.points):b - 1].sum() for el, b in zip(members, ends)}
    orders = [_fold_order(chain, length) for chain in chains]
    folded: dict[int, tuple] = {}
    for group in _budget_groups([(1, sum(len(el.points) for el in chain)) for chain in chains]):
        folded.update(zip(group, _fold_lockstep([(orders[c][0].points, [el.points for el in orders[c][1]])
                                                 for c in group])))
    lines, counts = map(list, zip(*(folded[c] for c in range(len(chains)))))
    if config.smoothing_enabled:
        sizes = np.array([len(line) for line in lines])
        stops = np.cumsum(sizes)
        smoothed = _smooth_runs(np.concatenate(lines), sizes, _SMOOTHING_WINDOW)
        # a line back at its start can average onto that point: no length
        # left; each line tests its own steps, not the step into the next
        steps = smoothed[1:] - smoothed[:-1]
        moves = (steps * steps).any(axis=1)
        moves[stops[:-1] - 1] = False
        # a kept line is copied out, so that its element pins no group array
        for c in np.flatnonzero(np.logical_or.reduceat(moves, stops - sizes)).tolist():
            lines[c] = smoothed[stops[c] - sizes[c]:stops[c]].copy()
    return [(base, line, c) for (base, _), line, c in zip(orders, lines, counts)]


def _fold_lockstep(folds, orient=True) -> list[tuple[np.ndarray, dict[int, int]]]:
    """Each (base, members in fold order) of ``folds``, point arrays, folded
    by ``merge_polyline``'s rule, with every chain's next source vertex folded
    in the same step: each chain's polyline and scenario counts.  Each
    member is first put in ``_flips``'s vertex order, or, with ``orient``
    false, folds in its given order.

    Row r holds a chain's current polyline, padded to the group's largest
    capacity.  Each step projects every row's source vertex onto all of
    that row's segments in one ``_segment_feet`` call, the kernel of
    ``merge_polyline``'s specification, and pads the distances past each
    row's last segment with +inf, so a row ``argmin`` picks the nearest
    current segment, the lowest index on ties.  The four scenarios then
    update every row at once: a midpoint inserted after the foot's segment,
    a hit vertex moved, or a foot on an end segment's line put before the
    first or after the last vertex.  The members due at a step are oriented
    at once, each against its chain's polyline as it is then.  Rows run in
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
        if step in starts:
            due, members = zip(*starts[step])
            due, lens, stack = np.array(due), np.array([len(p) for p in members]), np.concatenate(members)
            flip = _flips(stack, lens, cells, row_start[due], size[due]) if orient else lens < 0
            run, i = _runs(lens)
            src[:, due[run], step + np.where(flip[run], lens[run] - 1 - i, i)] = stack.T
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
    members_of = [[by_id[i] for i in chain] for chain in chains]
    line = [members for members in members_of if members[0].label != LABEL_PED_CROSSING]
    crossing = [members for members in members_of if members[0].label == LABEL_PED_CROSSING]
    folded = iter(_fold_chains(line, config))
    fused = iter(_fuse_crossings([el.points for members in crossing for el in members],
                                 [len(members) for members in crossing], config))
    # chains come ordered by their first member, where each stands in the
    # output; the report records them in that order
    merged = {chain[0]: _chain_element(members, report, None, next(fused))
              if members[0].label == LABEL_PED_CROSSING else _chain_element(members, report, *next(folded))
              for chain, members in zip(chains, members_of)}
    chained = {i for chain in chains for i in chain}
    out: list[MapElement] = []
    for el in elements:
        if el.id in merged:
            out.append(merged[el.id])
        elif el.id not in chained:
            if not el.is_main and report is not None:
                report.isolated.append(el.id)
            out.append(el if el.is_main else _trusted(el.id, el.label, el.points, True))
    return out


def merge_maps(main: VectorMap, secondaries, config: MergeConfig | None = None, report=None) -> VectorMap:
    """Merge secondary maps into the main map, producing one world map.

    The maps are concatenated, the proximity graph is built, and every
    chain collapses into a single element (crossings via the coverage-grid
    pipeline, everything else via polyline folding).  Each pass stacks its
    chains in groups that fit ``geometry._BLOCK_CELLS``: the line chains
    fold in lockstep, the crossing chains are fused group by group.  Isolated
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
    return _smooth_runs(pts, [len(pts)], window)


def _smooth_runs(pts: np.ndarray, sizes, window: int) -> np.ndarray:
    """``smooth`` of every polyline of ``pts``, polylines of ``sizes``
    vertices laid end to end, in one pass: a window never leaves its line."""
    run, i = _runs(sizes)
    n = np.asarray(sizes)[run]
    out = pts.copy()
    halves = np.minimum(np.minimum(i, n - 1 - i), window // 2)
    for half in range(1, window // 2 + 1):
        idx = np.flatnonzero(halves == half)
        # rows summed left to right, then divided: the bits np.mean gives
        total = pts[idx - half]
        for k in range(1 - half, half + 1):
            total = total + pts[idx + k]
        out[idx] = total / (2 * half + 1)
    return out
