"""Benchmark scenes: ground truth, poses and synthetic views per workload.

Every scene is built from the 20 m acceptance block (4 lines at 0.75 m
vertex spacing, two tilted 4x3 m crossings) and observed through
``polymerge.synth.generate_instances``, so the inputs depend only on the
scene parameters and the seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

import polymerge as pm

BLOCK_LENGTH = 20.0
VERTEX_SPACING = 0.75
LINE_ROWS = (("bnd_s", "boundary", -10.0), ("bnd_n", "boundary", 10.0),
             ("div_s", "divider", -3.0), ("div_n", "divider", 3.0))
CROSSINGS = (("cross_w", 6.0, 0.25), ("cross_e", 14.0, -0.25))
YAW = 0.06


@dataclass(frozen=True)
class SceneParams:
    """What a workload observes: GT layout, view poses and noise model."""

    grid: tuple[int, int]  # blocks along x and y
    views_per_block: int
    pitch_m: tuple[float, float] = (40.0, 50.0)
    pose_x: tuple[float, float] = (2.0, 18.0)
    sigma: float = 0.2
    dropout: float = 0.1
    window: tuple[float, float] = (30.0, 60.0)

    def to_dict(self) -> dict:
        return asdict(self)


# pitch and window keep every view of the grid on a single block
GRID = SceneParams(grid=(6, 6), views_per_block=4)
BLOCK = SceneParams(grid=(1, 1), views_per_block=30)


def tilted_rect(cx: float, cy: float, w: float, h: float, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    base = np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]])
    return base @ np.array([[c, s], [-s, c]]) + [cx, cy]


def _block(dx: float, dy: float, suffix: str) -> list[pm.MapElement]:
    xs = np.arange(0.0, BLOCK_LENGTH + 1e-9, VERTEX_SPACING)
    elements = [
        pm.MapElement(f"{name}{suffix}", label,
                      np.column_stack([xs + dx, np.full_like(xs, y + dy)]))
        for name, label, y in LINE_ROWS
    ]
    elements += [
        pm.MapElement(f"{name}{suffix}", "ped_crossing", tilted_rect(dx + cx, dy, 4.0, 3.0, angle))
        for name, cx, angle in CROSSINGS
    ]
    return elements


def _offsets(params: SceneParams) -> list[tuple[int, int, float, float]]:
    cols, rows = params.grid
    px, py = params.pitch_m
    return [(i, j, i * px, j * py) for j in range(rows) for i in range(cols)]


def ground_truth(params: SceneParams) -> pm.VectorMap:
    """One block per grid cell; ids of a lattice carry an ``@col_row`` suffix."""
    lattice = params.grid != (1, 1)
    elements = []
    for i, j, dx, dy in _offsets(params):
        elements += _block(dx, dy, f"@{i}_{j}" if lattice else "")
    return pm.VectorMap(tuple(elements), "world")


def poses(params: SceneParams) -> list[pm.Pose]:
    """Views along x through each block, heading alternating +-YAW."""
    stops = np.linspace(*params.pose_x, params.views_per_block)
    xy = [(dx + x, dy) for _, _, dx, dy in _offsets(params) for x in stops]
    return [pm.Pose.from_yaw(YAW * (-1) ** k, x, y) for k, (x, y) in enumerate(xy)]


def views(params: SceneParams, gt: pm.VectorMap, seed: int) -> list[pm.VectorMap]:
    """Noisy ego-frame views of ``gt``, deterministic per seed."""
    view_poses = poses(params)
    cfg = pm.NoiseConfig(sigma=params.sigma, dropout=params.dropout, window=params.window,
                         n_instances=len(view_poses), seed=seed)
    return pm.generate_instances(gt, view_poses, cfg)
