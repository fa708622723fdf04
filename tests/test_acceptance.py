"""Acceptance gate for the whole pipeline.

Nine checks, each printing one PASS/FAIL line with its measured margin so a
plain test log shows how much headroom every guarantee has, and a check
that the acceptance scene's eval report does not depend on how ``pcm``
batches its offsets and pairs.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

import polymerge as pm
from polymerge.cli import main as cli_main
from polymerge.quads import quad_area

from helpers import (acceptance_block, acceptance_poses, line_element, quad_element, random_polyline,
                     random_world_map)
from oracles import (
    dense_projection,
    frechet_exhaustive,
    naive_graph_edges,
    quad_iou,
    reference_eval_stats,
    sweep_min_rect_area,
)


def _verdict(capsys, index, name, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {index}/9 {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_projection_against_dense_sampling(capsys):
    rng = np.random.default_rng(301)
    t0 = time.perf_counter()
    worst_pos = worst_dist = 0.0
    for _ in range(1000):
        a, b, c = rng.uniform(-3.0, 3.0, (3, 2))
        pr = pm.project_point_to_polyline(a, (b, c))
        d_ref, foot_ref = dense_projection(a, b, c, n=100_000)
        worst_pos = max(worst_pos, float(np.linalg.norm(pr.point - foot_ref)))
        worst_dist = max(worst_dist, abs(pr.distance - d_ref))
    elapsed = time.perf_counter() - t0
    ok = worst_pos <= 1e-4 and worst_dist <= 1e-4 and elapsed < 5.0
    _verdict(
        capsys, 1, "segment projection vs dense sampling", ok,
        f"1000 cases, max foot err {worst_pos:.2e} m, max dist err {worst_dist:.2e} m, {elapsed:.1f} s",
    )
    assert worst_pos <= 1e-4
    assert worst_dist <= 1e-4
    assert elapsed < 5.0


def test_frechet_against_exhaustive_couplings(capsys):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    exact = True
    for _ in range(500):
        p = random_polyline(rng, n_min=2, n_max=5, scale=6.0)
        q = random_polyline(rng, n_min=2, n_max=5, scale=6.0)
        if pm.discrete_frechet(p, q) != frechet_exhaustive(p, q):
            exact = False
    worst_shift = 0.0
    for _ in range(100):
        p = random_polyline(rng)
        v = rng.uniform(-5.0, 5.0, 2)
        worst_shift = max(
            worst_shift,
            abs(pm.discrete_frechet(p, p + v) - float(np.linalg.norm(v))),
        )
    elapsed = time.perf_counter() - t0
    ok = exact and worst_shift <= 1e-9 and elapsed < 10.0
    _verdict(
        capsys, 2, "frechet vs exhaustive couplings", ok,
        f"500 pairs exact={exact}, translation err {worst_shift:.2e} m, {elapsed:.1f} s",
    )
    assert exact
    assert worst_shift <= 1e-9
    assert elapsed < 10.0


def test_graph_against_naive_pairwise(capsys):
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    checked_edges = 0
    for _ in range(200):
        vmap = random_world_map(rng, int(rng.integers(2, 51)))
        graph = pm.build_graph(vmap, 1.0)
        impl = {frozenset(e) for e in graph.edges}
        assert impl == naive_graph_edges(vmap, 1.0)
        assert set(graph.nodes) == {el.id for el in vmap.elements}
        for u, v in graph.edges:
            eu, ev = vmap.element(u), vmap.element(v)
            assert eu.label == ev.label
            assert not (eu.is_main and ev.is_main)
            assert graph.has_edge(v, u)
        checked_edges += len(impl)
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys, 3, "proximity graph vs naive pairwise", True,
        f"200 maps, {checked_edges} edges equal, invariants hold, {elapsed:.1f} s",
    )


def test_point_merge_scenarios(capsys):
    inside = pm.merge_polyline((1, 1), [(0, 0), (2, 0)])
    hit = pm.merge_polyline((1, 0.6), [(0, 0), (1, 0), (2, 0)])
    beyond = pm.merge_polyline((3, 0.4), [(0, 0), (2, 0)])
    before = pm.merge_polyline((-1, 0.4), [(0, 0), (2, 0)])
    hand_ok = (
        np.array_equal(inside, [[0, 0], [1, 0.5], [2, 0]])
        and np.array_equal(hit, [[0, 0], [1, 0.3], [2, 0]])
        and np.array_equal(beyond, [[0, 0], [2, 0], [3, 0]])
        and np.array_equal(before, [[-1, 0], [0, 0], [2, 0]])
    )

    rng = np.random.default_rng(404)
    idempotent = True
    for _ in range(200):
        p = random_polyline(rng)
        if not np.array_equal(pm.merge_polyline(p, p), p):
            idempotent = False
    fold = pm.merge_polyline([(0, 0.4), (2, 0.4)], [(0, 0), (2, 0)])
    expect = np.array([[0.0, 0.2], [200.0 / 101.0, 102.0 / 505.0], [2.0, 0.0]])
    fold_err = float(np.max(np.abs(fold - expect)))

    ok = hand_ok and idempotent and fold_err <= 1e-9
    _verdict(
        capsys, 4, "point merge scenarios", ok,
        f"4 hand cases exact={hand_ok}, 200 self-merges exact={idempotent}, "
        f"offset-halving err {fold_err:.2e}",
    )
    assert hand_ok
    assert idempotent
    assert fold_err <= 1e-9


def test_quad_pipeline_quality(capsys):
    config = pm.MergeConfig()
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    worst_iou = 1.0
    for n in (2, 5, 15):
        members = [quad_element(f"q{k}", 0.5, 0.5, w=1, h=1) for k in range(n)]
        merged = pm.merge_quads(members, config)
        worst_iou = min(worst_iou, quad_iou(merged.points, square))

    rng = np.random.default_rng(505)
    monotone = True
    for _ in range(50):
        center = rng.uniform(-3, 3, 2)
        members = [
            quad_element(
                f"q{k}", *(center + rng.uniform(-0.25, 0.25, 2)),
                w=rng.uniform(2, 3.5), h=rng.uniform(1.5, 2.5),
                angle=rng.uniform(0, np.pi),
            )
            for k in range(int(rng.integers(2, 6)))
        ]
        areas = [
            quad_area(pm.merge_quads(members, pm.MergeConfig(th_cov=th)).points)
            for th in (0.1, 0.5, 0.95)
        ]
        if not (areas[0] >= areas[1] - 1e-9 and areas[1] >= areas[2] - 1e-9):
            monotone = False

    rng = np.random.default_rng(107)
    worst_gap = 0.0
    for _ in range(500):
        pts = rng.uniform(-5.0, 5.0, (int(rng.integers(6, 30)), 2))
        area = quad_area(pm.min_rotated_rect(pts))
        oracle = sweep_min_rect_area(pts, step_deg=0.1)
        assert area <= oracle + 1e-9
        worst_gap = max(worst_gap, (oracle - area) / oracle)

    ok = worst_iou >= 0.9 and monotone and worst_gap <= 0.005
    _verdict(
        capsys, 5, "quad pipeline quality", ok,
        f"identical-square IoU >= {worst_iou:.3f}, 50 chains monotone={monotone}, "
        f"rect vs 0.1-degree sweep gap {worst_gap:.4%} of area",
    )
    assert worst_iou >= 0.9
    assert monotone
    assert worst_gap <= 0.005


def _run_synthetic_seed(seed):
    gt = acceptance_block()
    poses = acceptance_poses(15)
    cfg = pm.NoiseConfig(sigma=0.2, dropout=0.1, window=(30, 60), n_instances=15, seed=seed)
    instances = pm.generate_instances(gt, poses, cfg)
    merged = pm.merge_maps(
        pm.VectorMap((), "world"), instances, pm.MergeConfig(smoothing_enabled=True)
    )

    def mean_df_per_label(est):
        sums = {label: [] for label in pm.LABELS}
        pairs, un_est, un_gt = pm.match_elements(est, gt, 1.0)
        for est_id, gt_id in pairs:
            el = est.element(est_id)
            sums[el.label].append(
                pm.discrete_frechet(el.points, gt.element(gt_id).points)
            )
        means = {label: float(np.mean(v)) for label, v in sums.items() if v}
        return means, un_est, un_gt

    inst_sums = {label: [] for label in pm.LABELS}
    for inst in instances:
        means, _, _ = mean_df_per_label(pm.to_world(inst))
        for label, value in means.items():
            inst_sums[label].append(value)
    inst_mean = {label: float(np.mean(v)) for label, v in inst_sums.items() if v}

    merged_mean, un_est, un_gt = mean_df_per_label(merged)
    close_to_instances = all(
        merged_mean.get(label, np.inf) <= inst_mean.get(label, 0.0) + 0.1
        for label in pm.LABELS
    )
    within_noise_band = all(merged_mean.get(label, np.inf) <= 0.6 for label in pm.LABELS)
    complete = len(merged) == len(gt) and not un_est and not un_gt
    return close_to_instances, within_noise_band, complete, merged_mean


def test_synthetic_round_trip_quality(capsys):
    t0 = time.perf_counter()
    n_close = n_complete = 0
    canonical = None
    for seed in range(40, 60):
        close, within, complete, merged_mean = _run_synthetic_seed(seed)
        n_close += close
        n_complete += complete
        if seed == 42:
            canonical = (within, merged_mean)
    elapsed = time.perf_counter() - t0
    within_42, mean_42 = canonical
    ok = n_close >= 16 and within_42 and n_complete == 20 and elapsed < 60.0
    _verdict(
        capsys, 6, "synthetic round trip quality", ok,
        f"merged<=instance+0.1m in {n_close}/20 seeds, seed-42 mean DF "
        + "/".join(f"{label[:3]} {mean_42.get(label, -1.0):.3f}" for label in pm.LABELS)
        + f" (cap 0.6), complete {n_complete}/20, {elapsed:.1f} s",
    )
    assert n_close >= 16
    assert within_42
    assert n_complete == 20
    assert elapsed < 60.0


def test_eval_rows_match_per_offset_pcm():
    # the seed-42 scene's report, merged and per view, against a loop over
    # the matched pairs with the per-offset pcm and discrete_frechet: the
    # same statistics, to the bit
    gt = acceptance_block()
    poses = acceptance_poses(15)
    cfg = pm.NoiseConfig(sigma=0.2, dropout=0.1, window=(30, 60), n_instances=15, seed=42)
    instances = [pm.to_world(inst) for inst in pm.generate_instances(gt, poses, cfg)]
    merged = pm.merge_maps(
        pm.VectorMap((), "world"), instances, pm.MergeConfig(smoothing_enabled=True)
    )
    for est in [merged, *instances]:
        stats = {(r.label, r.metric): (r.mean, r.min, r.max, r.std, r.count)
                 for r in pm.evaluate_map(est, gt, 1.0).rows if r.metric in ("pcm", "df")}
        assert repr(stats) == repr(reference_eval_stats(est, gt, 1.0))
    merged_stats = reference_eval_stats(merged, gt, 1.0)
    assert sum(merged_stats[label, "pcm"][4] for label in pm.LABELS) == len(gt)


def test_pipeline_byte_determinism(capsys, tmp_path):
    runner = CliRunner()
    gt_path = tmp_path / "gt.json"
    pm.save_map(acceptance_block(), gt_path)
    outputs = []
    for tag in ("first", "second"):
        work = tmp_path / tag
        inst_dir = work / "inst"
        merged = work / "merged.json"
        csv = work / "report.csv"
        r = runner.invoke(cli_main, [
            "synth", "--gt", str(gt_path), "--n", "15", "--sigma", "0.2",
            "--dropout", "0.1", "--seed", "42", "--out", str(inst_dir),
        ])
        assert r.exit_code == 0, r.output
        args = ["merge", "--bootstrap", "--out", str(merged)]
        for k in range(15):
            args += ["--secondary", str(inst_dir / f"instance_{k}.json")]
        r = runner.invoke(cli_main, args)
        assert r.exit_code == 0, r.output
        r = runner.invoke(cli_main, [
            "eval", "--est", str(merged), "--gt", str(gt_path), "--out", str(csv),
        ])
        assert r.exit_code == 0, r.output
        blobs = [merged.read_bytes(), csv.read_bytes()]
        blobs += [(inst_dir / f"instance_{k}.json").read_bytes() for k in range(15)]
        outputs.append(blobs)
    identical = outputs[0] == outputs[1]
    _verdict(
        capsys, 7, "pipeline byte determinism", identical,
        f"seed-42 synth+merge+eval twice: {len(outputs[0])} artifacts byte-identical={identical}",
    )
    assert identical


def test_bad_inputs_exit_code_and_messages(capsys, tmp_path):
    runner = CliRunner()
    cases = {
        "unknown_label.json": (
            '{"frame": "world", "elements": [{"id": "e7", "label": "lane",'
            ' "points": [[0, 0], [1, 0]]}]}',
            ["e7", "label"],
        ),
        "single_vertex.json": (
            '{"frame": "world", "elements": [{"id": "e9", "label": "divider",'
            ' "points": [[0, 0]]}]}',
            ["e9", "vertices"],
        ),
        "ego_without_pose.json": (
            '{"frame": "ego", "elements": []}',
            ["pose"],
        ),
    }
    all_ok = True
    details = []
    for name, (content, needles) in cases.items():
        path = tmp_path / name
        path.write_text(content)
        result = runner.invoke(cli_main, [
            "merge", "--bootstrap", "--secondary", str(path),
            "--out", str(tmp_path / "out.json"),
        ])
        case_ok = result.exit_code == 2 and all(n in result.output for n in needles)
        all_ok = all_ok and case_ok
        details.append(f"{name} exit {result.exit_code}")
        assert result.exit_code == 2, result.output
        for needle in needles:
            assert needle in result.output
    _verdict(
        capsys, 8, "bad inputs exit 2 and name the field", all_ok, ", ".join(details)
    )


def test_incremental_drive_invariants(capsys, tmp_path):
    # the paper's incremental use: each of 30 views of the acceptance block
    # folded into the main map in its own round, as `merge --main` does.
    # Quality is printed, not asserted: line DF stays several times a single
    # view's under the paper's rule
    t0 = time.perf_counter()
    gt = acceptance_block()
    config = pm.MergeConfig(smoothing_enabled=True)
    empty = pm.VectorMap((), "world")
    path = tmp_path / "main.json"
    shown = (1, 2, 5, 10, 20, 30)
    figures = {k: [] for k in shown}
    violations = []
    for seed in (0, 1 << 20):
        cfg = pm.NoiseConfig(sigma=0.2, dropout=0.1, window=(30, 60), n_instances=30, seed=seed)
        main = empty
        for k, view in enumerate(pm.generate_instances(gt, acceptance_poses(30), cfg), start=1):
            report = pm.MergeReport()
            main = pm.merge_maps(main, [pm.to_world(view)], config, report)
            pm.save_map(main, path)
            saved = path.read_bytes()
            pm.save_map(pm.load_map(path), path)
            unchanged = pm.merge_maps(main, [empty], config)
            checks = {
                "save-load-save bytes": path.read_bytes() == saved,
                "no NaN": not any(np.isnan(el.points).any() for el in main.elements),
                "one pass": report.passes == 1,
                "two-member chains": all(len(c.members) == 2 for c in report.chains),
                "element count": k == 1 or len(main) == len(gt),
                "empty view keeps points": [el.points.tobytes() for el in unchanged.elements]
                == [el.points.tobytes() for el in main.elements],
            }
            violations += [f"seed {seed} round {k}: {name}" for name, ok in checks.items() if not ok]
            if k in figures:
                means = {(r.label, r.metric): np.nan if r.mean is None else r.mean
                         for r in pm.evaluate_map(main, gt, 1.0).rows}
                figures[k].append([
                    (means["divider", "df"] + means["boundary", "df"]) / 2,
                    (means["divider", "pcm"] + means["boundary", "pcm"]) / 2,
                    max(len(el.points) for el in main.elements),
                    max(len(el.id) for el in main.elements),
                ])
    per_round = {k: np.mean(v, axis=0) for k, v in figures.items()}
    _verdict(
        capsys, 9, "incremental drive invariants", not violations,
        f"2 seeds x 30 rounds, {len(violations)} violations; mean over seeds at rounds "
        + "/".join(map(str, shown)) + ": "
        + "; ".join(f"{name} " + "/".join(fmt.format(per_round[k][i]) for k in shown)
                    for i, (name, fmt) in enumerate([("line DF", "{:.2f}"), ("line PCM", "{:.2f}"),
                                                     ("max vertices", "{:.0f}"),
                                                     ("id chars", "{:.0f}")]))
        + f", {time.perf_counter() - t0:.1f} s",
    )
    assert not violations, violations[:10]
