"""Command line interface: merge, eval and synth subcommands."""

from __future__ import annotations

import math
import os
import re

import click
import numpy as np

from .map_model import (
    LABEL_PED_CROSSING,
    MapFormatError,
    VectorMap,
    atomic_writer,
    load_map,
    save_map,
    to_world,
    write_json_atomic,
)
from .merging import MergeConfig, MergeReport, merge_maps
from .metrics import evaluate_map
from .synth import NoiseConfig, generate_instances, straight_path_poses, write_instances


class _InputError(click.ClickException):
    """Invalid input data; exits with code 2 like a usage error."""

    exit_code = 2


def _load(path) -> VectorMap:
    """The map at ``path`` in the world frame.  An ego map can hold an
    element that is valid in its own frame but not once moved, say a line
    shorter than the float spacing at the pose's offset; that is bad input
    too."""
    try:
        vmap = load_map(path)
    except MapFormatError as exc:
        raise _InputError(str(exc)) from None
    try:
        return to_world(vmap)
    except ValueError as exc:
        raise _InputError(f"{path}: in the world frame, {exc}") from None


def _parse_window(value: str) -> tuple[float, float]:
    try:
        w, h = value.lower().split("x")
        window = (float(w), float(h))
    except ValueError:
        raise click.BadParameter(
            "expected WIDTHxHEIGHT, e.g. 30x60", param_hint="'--window'"
        ) from None
    if not all(math.isfinite(side) and side > 0 for side in window):
        raise click.BadParameter(
            "window sides must be finite and positive", param_hint="'--window'"
        )
    return window


def _finite(ctx, param, value: float) -> float:
    """Option callback: nan and inf are usage errors that name the option."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def _in_existing_dir(ctx, param, value):
    """Option callback: an output file goes into a directory that exists,
    checked before any work so that a bad path writes nothing."""
    parent = os.path.dirname(value) if value else ""
    if parent and not os.path.isdir(parent):
        raise click.BadParameter(f"Directory '{parent}' does not exist.")
    return value


@click.group()
def main():
    """Merge, evaluate and synthesize labeled vector road maps."""


@main.command()
@click.option("--main", "main_path", type=click.Path(exists=True, dir_okay=False),
              help="Main map file; omit with --bootstrap.")
@click.option("--secondary", "secondary_paths", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Secondary map file (repeatable).")
@click.option("--bootstrap", is_flag=True, help="Start from an empty main map.")
@click.option("--th-prox", default=1.0, show_default=True, callback=_finite,
              help="Proximity threshold in meters.")
@click.option("--th-cov", default=0.5, show_default=True, callback=_finite,
              help="Coverage quantile threshold.")
@click.option("--cell-size", default=0.1, show_default=True, callback=_finite,
              help="Raster cell size in meters.")
@click.option("--blur-sigma", default=2.0, show_default=True, callback=_finite,
              help="Blur sigma in cells.")
@click.option("--smooth", "smoothing", is_flag=True, help="Smooth merged polylines.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              callback=_in_existing_dir)
def merge(main_path, secondary_paths, bootstrap, th_prox, th_cov, cell_size,
          blur_sigma, smoothing, out_path):
    """Merge secondary maps into a main map."""
    if main_path is None and not bootstrap:
        raise click.UsageError("either --main or --bootstrap is required")
    if main_path is not None and bootstrap:
        raise click.UsageError("--main and --bootstrap are mutually exclusive")
    try:
        config = MergeConfig(
            th_prox=th_prox,
            th_cov=th_cov,
            cell_size=cell_size,
            blur_sigma_cells=blur_sigma,
            smoothing_enabled=smoothing,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None

    main_map = VectorMap((), "world") if bootstrap else _load(main_path)
    secondaries = [_load(p) for p in secondary_paths]
    report = MergeReport()
    merged = merge_maps(main_map, secondaries, config, report)
    try:
        save_map(merged, out_path)
    except MapFormatError as exc:
        raise _InputError(f"merged map: {exc}") from None
    root, ext = os.path.splitext(out_path)
    report_path = f"{root}.report{ext if ext == '.json' else '.json'}"
    write_json_atomic(report.to_dict(), report_path)
    click.echo(
        f"merged {len(secondaries)} secondary map(s) into {len(merged)} elements"
        f" ({len(report.chains)} chain(s), {report.passes} pass(es)) -> {out_path}"
    )


def _svg_plot(gt: VectorMap, est: VectorMap, path) -> None:
    """Overlay plot with one SVG path per map element."""
    pts = [el.points for el in gt.elements] + [el.points for el in est.elements]
    if pts:
        stacked = np.vstack(pts)
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    else:
        lo, hi = np.zeros(2), np.ones(2)
    pad = 0.05 * max(float(np.max(hi - lo)), 1.0)
    lo, hi = lo - pad, hi + pad
    width, height = hi - lo

    def path_d(points, closed):
        # flip y so north is up
        coords = [(p[0] - lo[0], hi[1] - p[1]) for p in points]
        d = "M " + " L ".join(f"{x:.4f} {y:.4f}" for x, y in coords)
        return d + " Z" if closed else d

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.4f} {height:.4f}">'
    ]
    for vmap, color in ((gt, "#888888"), (est, "#d62728")):
        for el in vmap.elements:
            closed = el.label == LABEL_PED_CROSSING
            parts.append(
                f'<path d="{path_d(el.points, closed)}" fill="none" '
                f'stroke="{color}" stroke-width="{0.004 * max(width, height):.4f}"/>'
            )
    parts.append("</svg>")
    with atomic_writer(path) as fh:
        fh.write("\n".join(parts) + "\n")


@main.command("eval")
@click.option("--est", "est_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--th-prox", default=1.0, show_default=True, callback=_finite,
              help="Match threshold in meters.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              callback=_in_existing_dir)
@click.option("--plot", "plot_path", type=click.Path(dir_okay=False), callback=_in_existing_dir,
              help="Optional SVG overlay of both maps.")
def eval_cmd(est_path, gt_path, th_prox, out_path, plot_path):
    """Evaluate an estimated map against ground truth; writes a CSV report."""
    if th_prox <= 0:
        raise click.UsageError("th-prox must be positive")
    est = _load(est_path)
    gt = _load(gt_path)
    report = evaluate_map(est, gt, th_prox)
    with atomic_writer(out_path) as fh:
        fh.write(report.to_csv())
    if plot_path:
        _svg_plot(gt, est, plot_path)
    click.echo(f"evaluated {len(est)} elements against {len(gt)} -> {out_path}")


@main.command()
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "n_instances", required=True, type=click.IntRange(min=1),
              help="Number of instances.")
@click.option("--sigma", required=True, type=click.FloatRange(min=0), callback=_finite,
              help="Vertex noise std in meters.")
@click.option("--dropout", default=0.0, show_default=True,
              type=click.FloatRange(min=0, max=1, max_open=True),
              help="Element dropout probability.")
@click.option("--window", default="30x60", show_default=True,
              help="Sensing window WIDTHxHEIGHT in meters.")
@click.option("--seed", required=True, type=click.IntRange(min=0), help="RNG seed.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def synth(gt_path, n_instances, sigma, dropout, window, seed, out_dir):
    """Generate noisy windowed instances of a ground-truth map."""
    # an earlier run's instance k >= n would sit beside this run's poses.json
    # and be read as one of its views: refuse before anything is written
    names = os.listdir(out_dir) if os.path.isdir(out_dir) else []
    found = (re.fullmatch(r"instance_(\d+)\.json", name) for name in names)
    stale = [int(m[1]) for m in found if m and int(m[1]) >= n_instances]
    if stale:
        raise click.BadParameter(f"{os.path.join(out_dir, f'instance_{min(stale)}.json')} is left from "
                                 "an earlier run with more instances", param_hint="'--out'")
    window_wh = _parse_window(window)
    gt = _load(gt_path)
    cfg = NoiseConfig(sigma=sigma, dropout=dropout, window=window_wh, seed=seed)
    poses = straight_path_poses(gt, n_instances)
    # a large --sigma can push a noisy vertex past the float range or the
    # map format's coordinate range: both raise before anything is written
    try:
        paths = write_instances(generate_instances(gt, poses, cfg), out_dir)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    click.echo(f"wrote {len(paths) - 1} instance(s) and poses.json to {out_dir}")


if __name__ == "__main__":
    main()
