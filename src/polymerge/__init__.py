"""Fusion of labeled vector road maps from repeated local observations."""

from .geometry import Pose, arc_length, project_point_to_polyline
from .map_model import (
    LABELS,
    MapElement,
    MapFormatError,
    VectorMap,
    concatenate,
    load_map,
    save_map,
    to_world,
)
from .merging import MergeConfig, MergeReport, merge_chain, merge_maps, merge_polyline, merge_quads, smooth
from .metrics import discrete_frechet, evaluate_map, match_elements, pcm
from .proximity import build_graph, merge_chains, polyline_merge_check
from .quads import min_rotated_rect, rasterize_coverage
from .synth import NoiseConfig, generate_instances, straight_path_poses, write_instances

__version__ = "0.1.0"

__all__ = [
    "Pose",
    "arc_length",
    "project_point_to_polyline",
    "LABELS",
    "MapElement",
    "MapFormatError",
    "VectorMap",
    "concatenate",
    "to_world",
    "load_map",
    "save_map",
    "polyline_merge_check",
    "build_graph",
    "merge_chains",
    "MergeConfig",
    "MergeReport",
    "merge_polyline",
    "merge_chain",
    "merge_maps",
    "smooth",
    "rasterize_coverage",
    "min_rotated_rect",
    "merge_quads",
    "discrete_frechet",
    "pcm",
    "match_elements",
    "evaluate_map",
    "NoiseConfig",
    "generate_instances",
    "write_instances",
    "straight_path_poses",
]
