"""What the traced run wraps, and the per-layer metrics it derives.

Each target is a public function as one module sees another's: the
``build_graph`` name inside ``polymerge.merging``, the ``load_map`` name
inside ``polymerge.cli``.  The span name says which layer does the work.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Tracer


def _add(key, value_of):
    def hook(counts, args, kwargs, result):
        counts[key] += value_of(args, kwargs, result)
    return hook


def _check_hook(calls_key, hits_key):
    def hook(counts, args, kwargs, result):
        counts[calls_key] += 1
        counts[hits_key] += bool(result)
    return hook


def _cells(counts_key):
    return _add(counts_key, lambda a, k, r: len(np.atleast_2d(a[0])) * len(np.atleast_2d(a[1])))


def _fold_hook(counts, args, kwargs, result):
    counts["merging.fold_vertices"] += len(np.atleast_2d(args[0]))
    counts["merging.base_vertices_max"] = max(counts["merging.base_vertices_max"], len(result))


def _raster_hook(counts, args, kwargs, result):
    cells = result.values.size
    counts["quads.grid_cells"] += cells
    counts["quads.cell_quad_tests"] += cells * len(args[0])


def _merge_report_hook(counts, args, kwargs, result):
    report = args[3] if len(args) > 3 else kwargs.get("report")
    if report is None:
        return
    counts["merging.chains"] += len(report.chains)
    counts["merging.passes"] += report.passes
    for chain in report.chains:
        counts["quads.fallbacks"] += bool(chain.fallback)
        for scenario, n in (chain.scenarios or {}).items():
            counts[f"merging.scenario_{scenario}"] += n


# (calling module, attribute as it sees it, span name, count hook)
TRACE_TARGETS = [
    ("polymerge", "generate_instances", "synth.generate_instances", None),
    ("polymerge", "write_instances", "synth.write_instances", None),
    ("polymerge.cli", "merge.callback", "cli.merge", None),
    ("polymerge.cli", "load_map", "map_model.load_map",
     _add("map_model.bytes_read", lambda a, k, r: os.path.getsize(a[0]))),
    ("polymerge.cli", "save_map", "map_model.save_map",
     _add("map_model.bytes_written", lambda a, k, r: os.path.getsize(a[1]))),
    ("polymerge.cli", "write_json_atomic", "map_model.write_json_atomic",
     _add("map_model.bytes_written", lambda a, k, r: os.path.getsize(a[1]))),
    ("polymerge.cli", "merge_maps", "merging.merge_maps", _merge_report_hook),
    ("polymerge.merging", "merge_maps", "merging.merge_maps", _merge_report_hook),
    ("polymerge.merging", "concatenate", "merging.concatenate", None),
    ("polymerge.merging", "build_graph", "proximity.build_graph", None),
    ("polymerge.proximity", "polyline_merge_check", "proximity.polyline_merge_check.graph",
     _check_hook("proximity.checks", "proximity.edges")),
    ("polymerge.proximity", "min_distance_to_polyline", "geometry.min_distance_to_polyline",
     None),
    ("polymerge.merging", "merge_chains", "proximity.merge_chains", None),
    ("polymerge.merging", "polyline_merge_check", "proximity.polyline_merge_check.repass",
     _check_hook("proximity.repass_checks", "proximity.repass_hits")),
    ("polymerge.merging", "merge_chain", "merging.merge_chain", None),
    ("polymerge.merging", "discrete_frechet", "merging.orient_frechet",
     _cells("merging.orient_cells")),
    ("polymerge.merging", "merge_polyline", "merging.merge_polyline", _fold_hook),
    ("polymerge.merging", "project_point_to_polyline", "geometry.project_point_to_polyline",
     None),
    ("polymerge.merging", "smooth", "merging.smooth", None),
    ("polymerge.merging", "merge_quads", "quads.merge_quads", None),
    ("polymerge.quads", "rasterize_coverage", "quads.rasterize_coverage", _raster_hook),
    ("polymerge.quads", "blur_coverage", "quads.blur_coverage", None),
    ("polymerge.quads", "threshold_region", "quads.threshold_region", None),
    ("polymerge.quads", "min_rotated_rect", "quads.min_rotated_rect",
     _add("quads.hull_input_points", lambda a, k, r: len(np.reshape(a[0], (-1, 2))))),
    ("polymerge.metrics", "evaluate_map", "metrics.evaluate_map", None),
    ("polymerge.metrics", "match_elements", "metrics.match_elements", None),
    ("polymerge.metrics", "polyline_merge_check", "metrics.polyline_merge_check", None),
    ("polymerge.metrics", "discrete_frechet", "metrics.discrete_frechet",
     _cells("metrics.frechet_cells")),
    ("polymerge.metrics", "pcm", "metrics.pcm", None),
]

COUNT_NAMES = [
    "proximity.checks", "proximity.edges", "proximity.repass_checks", "proximity.repass_hits",
    "merging.orient_cells", "merging.fold_vertices", "merging.base_vertices_max",
    "merging.chains", "merging.passes", "merging.scenario_1", "merging.scenario_2",
    "merging.scenario_3", "merging.scenario_4", "quads.grid_cells", "quads.cell_quad_tests",
    "quads.hull_input_points", "quads.fallbacks", "metrics.frechet_cells",
    "map_model.bytes_read", "map_model.bytes_written",
]
SPAN_NAMES = list(dict.fromkeys(t[2] for t in TRACE_TARGETS))


def install(tracer: Tracer) -> None:
    for module, attr, name, hook in TRACE_TARGETS:
        tracer.wrap(module, attr, name, hook)


DERIVED_NAMES = ["proximity.edge_ratio", "geometry.min_dist_calls", "geometry.project_calls",
                 "metrics.match_checks"]
METRIC_NAMES = ([f"{name}.{field}" for name in SPAN_NAMES for field in ("calls", "total_s", "self_s")]
                + COUNT_NAMES + DERIVED_NAMES)


def layer_metrics(tracer: Tracer) -> dict:
    """Every name in METRIC_NAMES -> (value, unit); absent targets read 0."""
    spans = tracer.summary()
    out = {}
    for name in SPAN_NAMES:
        s = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.total_s"] = (s["total_s"], "s")
        out[f"{name}.self_s"] = (s["self_s"], "s")
    counts = tracer.counts
    for key in COUNT_NAMES:
        out[key] = (float(counts.get(key, 0.0)), "count")
    checks = counts.get("proximity.checks", 0.0)
    out["proximity.edge_ratio"] = (counts.get("proximity.edges", 0.0) / checks if checks else 0.0,
                                   "ratio")
    # eval's matching reaches the same wrapper; count the merge's calls only
    out["geometry.min_dist_calls"] = (
        tracer.calls_within("geometry.min_distance_to_polyline", "merging.merge_maps"), "count")
    out["geometry.project_calls"] = (spans.get("geometry.project_point_to_polyline",
                                               {"calls": 0})["calls"], "count")
    out["metrics.match_checks"] = (spans.get("metrics.polyline_merge_check",
                                             {"calls": 0})["calls"], "count")
    return out
