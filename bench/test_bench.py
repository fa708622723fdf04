"""Tests of the benchmark's own code: scenes, tracer and metric lists.

Run with ``python3 -m pytest bench``.
"""

import json
import sys
import types

import numpy as np
import pytest

import layers
import run
import scenes
import worker
from conftest import BENCH_DIR
from tracer import Tracer, self_times


def _same_views(a, b):
    return len(a) == len(b) and all(
        [(el.id, el.label) for el in va.elements] == [(el.id, el.label) for el in vb.elements]
        and all(np.array_equal(x.points, y.points) for x, y in zip(va.elements, vb.elements))
        for va, vb in zip(a, b)
    )


@pytest.mark.parametrize("params, n_gt, n_crossings, n_views, observed", [
    (scenes.GRID, 216, 72, 144, (770, 820)),
    (scenes.BLOCK, 6, 2, 30, (155, 175)),
])
def test_scene_counts_and_determinism(params, n_gt, n_crossings, n_views, observed):
    gt = scenes.ground_truth(params)
    assert len(gt) == n_gt
    assert [el.label for el in gt.elements].count("ped_crossing") == n_crossings
    seed = worker.synth_seed(7)
    first = scenes.views(params, gt, seed)
    assert len(first) == n_views
    assert observed[0] <= sum(len(v) for v in first) <= observed[1]
    assert _same_views(first, scenes.views(params, gt, seed))
    assert not _same_views(first, scenes.views(params, gt, worker.synth_seed(8)))


def test_grid_views_each_see_one_block():
    gt = scenes.ground_truth(scenes.GRID)
    views = scenes.views(scenes.GRID, gt, 0)
    for view in views:
        blocks = {el.id.split("@")[1].split("#")[0] for el in view.elements}
        assert len(blocks) == 1


def test_self_time_of_nested_spans():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping) and [9, 12]
    # (clipped to 9..10); [1, 3] has a child [1.5, 2.5]
    start = np.array([0.0, 1.0, 2.0, 9.0, 1.5])
    end = np.array([10.0, 3.0, 5.0, 12.0, 2.5])
    parent = np.array([-1, 0, 0, 0, 1])
    own = self_times(start, end, parent)
    assert own.tolist() == pytest.approx([10 - 4 - 1, 2 - 1, 3, 3, 1])


def test_tracer_spans_counts_absent_and_restore(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    with Tracer() as tracer:
        tracer.wrap("fake_layer", "outer", "layer.outer")
        tracer.wrap("fake_layer", "inner", "layer.inner",
                    lambda counts, args, kwargs, result: counts.__setitem__(
                        "layer.sum", counts["layer.sum"] + result))
        tracer.wrap("fake_layer", "gone", "layer.gone")
        mod.twice = outer
        tracer.wrap("fake_layer", "twice", "layer.twice", lambda *a: 1 / 0)
        assert mod.twice(0) == 2
        tracer.wrap("no_such_module_here", "f", "other.f")
        assert mod.outer(1) == 4 and mod.outer(2) == 6
    assert mod.outer is outer and mod.inner is inner
    assert tracer.absent == ["layer.gone", "other.f"]
    summary = tracer.summary()
    assert summary["layer.outer"]["calls"] == 2 and summary["layer.inner"]["calls"] == 3
    assert summary["layer.gone"]["calls"] == 0
    assert summary["layer.outer"]["self_s"] <= summary["layer.outer"]["total_s"]
    assert tracer.counts["layer.sum"] == 6
    assert tracer.broken_hooks == {"layer.twice"}
    assert list(tracer.parent) == [-1, 0, -1, 2, -1, 4]
    assert tracer.calls_within("layer.inner", "layer.outer") == 2
    assert tracer.calls_within("layer.inner", "layer.twice") == 1
    assert tracer.calls_within("layer.outer", "layer.inner") == 0


def test_every_trace_target_exists():
    with Tracer() as tracer:
        layers.install(tracer)
    assert tracer.absent == []


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == worker.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == worker.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(worker.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(worker.WORKLOADS)
