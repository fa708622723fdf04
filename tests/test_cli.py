"""CLI subcommands exercised through click's test runner."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import polymerge
from polymerge import (
    MapElement,
    NoiseConfig,
    Pose,
    VectorMap,
    generate_instances,
    load_map,
    save_map,
    write_instances,
)
from polymerge.cli import main
from polymerge.geometry import transform_to_world
from polymerge.metrics import EvalReport

from helpers import line_element, quad_element


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def gt_file(tmp_path):
    gt = VectorMap(
        (
            line_element("d1", "divider", (0, 2), (16, 2), n=9),
            line_element("b1", "boundary", (0, -2), (16, -2), n=9),
            quad_element("c1", 8, 0, w=3, h=2, angle=0.2),
        ),
        "world",
    )
    path = tmp_path / "gt.json"
    save_map(gt, path)
    return str(path)


@pytest.fixture
def instance_files(tmp_path, gt_file):
    gt = load_map(gt_file)
    poses = [Pose.from_yaw(0.0, 4.0, 0.0), Pose.from_yaw(0.0, 12.0, 0.0)]
    instances = generate_instances(gt, poses, NoiseConfig(sigma=0.05, window=(40, 40), seed=2))
    out = tmp_path / "inst"
    paths = write_instances(instances, out)
    return [p for p in paths if "instance_" in os.path.basename(p)]


class TestMerge:
    def test_bootstrap_merge_writes_map_and_report(self, runner, tmp_path, instance_files):
        out = tmp_path / "merged.json"
        args = ["merge", "--bootstrap", "--out", str(out)]
        for p in instance_files:
            args += ["--secondary", p]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        merged = load_map(out)
        assert merged.frame == "world"
        assert len(merged) > 0
        assert all(el.is_main for el in merged.elements)
        report = json.loads((tmp_path / "merged.report.json").read_text())
        assert "chains" in report and "passes" in report
        assert "element" in result.output

    def test_main_plus_secondary(self, runner, tmp_path, gt_file, instance_files):
        out = tmp_path / "m.json"
        result = runner.invoke(main, [
            "merge", "--main", gt_file, "--secondary", instance_files[0],
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert load_map(out).frame == "world"

    def test_report_sidecar_for_other_extension(self, runner, tmp_path, instance_files):
        out = tmp_path / "merged.out"
        result = runner.invoke(main, [
            "merge", "--bootstrap", "--secondary", instance_files[0], "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "merged.report.json").exists()

    def test_requires_main_or_bootstrap(self, runner, tmp_path, instance_files):
        result = runner.invoke(main, [
            "merge", "--secondary", instance_files[0], "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 2
        assert "--main" in result.output and "--bootstrap" in result.output

    def test_main_and_bootstrap_exclusive(self, runner, tmp_path, gt_file, instance_files):
        result = runner.invoke(main, [
            "merge", "--main", gt_file, "--bootstrap",
            "--secondary", instance_files[0], "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 2
        assert "exclusive" in result.output

    def test_bad_coverage_threshold(self, runner, tmp_path, instance_files):
        result = runner.invoke(main, [
            "merge", "--bootstrap", "--secondary", instance_files[0],
            "--th-cov", "1.5", "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 2
        assert "th_cov" in result.output

    def test_malformed_secondary_names_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, [
            "merge", "--bootstrap", "--secondary", str(bad), "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 2
        assert "bad.json" in result.output

    def test_zero_length_line_exits_two(self, runner, tmp_path):
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({"frame": "world", "elements": [
            {"id": "d0", "label": "divider", "points": [[1, 1], [1, 1]]}]}))
        out = tmp_path / "x.json"
        result = runner.invoke(main, [
            "merge", "--bootstrap", "--secondary", str(bad), "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "zero.json" in result.output and "'d0'" in result.output
        assert not out.exists()

    def test_line_collapsed_by_world_transform_exits_two(self, runner, tmp_path):
        # 1e-11 m long in its ego frame, shorter than the float spacing at 1e6 m
        bad = tmp_path / "ego.json"
        bad.write_text(json.dumps({
            "frame": "ego", "pose": {"rotation": [1, 0, 0, 0], "translation": [1e6, 0, 0]},
            "elements": [{"id": "d0", "label": "divider", "points": [[0, 0], [1e-11, 0]]}]}))
        for args in (["merge", "--bootstrap", "--secondary", str(bad), "--out", str(tmp_path / "x.json")],
                     ["eval", "--est", str(bad), "--gt", str(bad), "--out", str(tmp_path / "r.csv")]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert "ego.json" in result.output and "world frame" in result.output
            assert "'d0'" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ego.json"]

    def test_missing_file_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "merge", "--bootstrap", "--secondary", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("option", ["--th-prox", "--th-cov", "--cell-size", "--blur-sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_option_rejected(self, runner, tmp_path, instance_files, option, value):
        out = tmp_path / "x.json"
        result = runner.invoke(main, [
            "merge", "--bootstrap", "--secondary", instance_files[0],
            option, value, "--out", str(out),
        ])
        assert result.exit_code == 2
        assert option in result.output and "finite" in result.output
        assert not out.exists()

    def test_crossings_smaller_than_a_cell_fall_back(self, runner, tmp_path):
        a = VectorMap((quad_element("a", 0, 0, w=0.01, h=0.01),), "world")
        b = VectorMap((quad_element("b", 0.002, 0, w=0.012, h=0.012),), "world")
        save_map(a, tmp_path / "a.json")
        save_map(b, tmp_path / "b.json")
        out = tmp_path / "m.json"
        result = runner.invoke(main, [
            "merge", "--main", str(tmp_path / "a.json"), "--secondary", str(tmp_path / "b.json"),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        merged = load_map(out)
        assert len(merged) == 1
        np.testing.assert_array_equal(merged.elements[0].points, b.elements[0].points)
        report = json.loads((tmp_path / "m.report.json").read_text())
        assert [c["fallback"] for c in report["chains"]] == [True]

    def test_internal_failure_exits_one(self, runner, tmp_path, instance_files, monkeypatch):
        import polymerge.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("induced")

        monkeypatch.setattr(cli_mod, "merge_maps", boom)
        result = runner.invoke(main, [
            "merge", "--bootstrap", "--secondary", instance_files[0],
            "--out", str(tmp_path / "x.json"),
        ])
        assert result.exit_code == 1


class TestEval:
    def test_self_evaluation_zero_rows(self, runner, tmp_path, gt_file):
        out = tmp_path / "report.csv"
        result = runner.invoke(main, [
            "eval", "--est", gt_file, "--gt", gt_file, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("label,kind,metric")
        assert len(lines) == 13
        for ln in lines[1:]:
            if ",df," in ln or ",pcm," in ln:
                assert ",0.0000,0.0000,0.0000,0.0000," in ln
        assert not list(out.parent.glob("*.tmp"))

    def test_tiny_threshold_matches_nothing(self, runner, tmp_path, gt_file):
        gt = load_map(gt_file)
        # shift perpendicular to the lines so every vertex leaves the originals
        est = VectorMap(
            tuple(el.with_points(el.points + np.array([0.0, 0.2])) for el in gt.elements),
            "world",
        )
        est_path = tmp_path / "est.json"
        save_map(est, est_path)
        out = tmp_path / "report.csv"
        result = runner.invoke(main, [
            "eval", "--est", str(est_path), "--gt", gt_file,
            "--th-prox", "0.01", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        for ln in out.read_text().splitlines()[1:]:
            cells = ln.split(",")
            if cells[2] in ("df", "pcm"):
                assert cells[-1] == "0"

    def test_failed_report_leaves_no_file(self, runner, tmp_path, gt_file, monkeypatch):
        def boom(self):
            raise RuntimeError("induced")

        monkeypatch.setattr(EvalReport, "to_csv", boom)
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        result = runner.invoke(main, [
            "eval", "--est", gt_file, "--gt", gt_file, "--out", str(out_dir / "r.csv"),
        ])
        assert result.exit_code == 1
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("label", ["divider", "boundary"])
    @pytest.mark.parametrize("side", ["--est", "--gt"])
    def test_zero_length_line_exits_two(self, runner, tmp_path, gt_file, label, side):
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({"frame": "world", "elements": [
            {"id": "z1", "label": label, "points": [[1, 1], [1, 1]]}]}))
        paths = {"--est": gt_file, "--gt": gt_file, side: str(bad)}
        result = runner.invoke(main, [
            "eval", "--est", paths["--est"], "--gt", paths["--gt"], "--out", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 2
        assert "zero.json" in result.output and "'z1'" in result.output
        assert "zero arc length" in result.output
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_rejected(self, runner, tmp_path, gt_file, value):
        result = runner.invoke(main, [
            "eval", "--est", gt_file, "--gt", gt_file,
            "--th-prox", value, "--out", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 2
        assert "--th-prox" in result.output and "finite" in result.output
        assert not (tmp_path / "r.csv").exists()

    def test_nonpositive_threshold_rejected(self, runner, tmp_path, gt_file):
        result = runner.invoke(main, [
            "eval", "--est", gt_file, "--gt", gt_file,
            "--th-prox", "0", "--out", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 2
        assert "th-prox" in result.output

    def test_plot_has_one_path_per_element(self, runner, tmp_path, gt_file):
        out = tmp_path / "r.csv"
        svg = tmp_path / "overlay.svg"
        result = runner.invoke(main, [
            "eval", "--est", gt_file, "--gt", gt_file,
            "--out", str(out), "--plot", str(svg),
        ])
        assert result.exit_code == 0, result.output
        text = svg.read_text()
        assert text.count("<path") == 6
        assert "<svg" in text

    def test_ego_frame_input_transformed(self, runner, tmp_path, gt_file):
        gt = load_map(gt_file)
        pose = Pose.from_yaw(0.4, 3.0, -1.0)
        inv = pose.inverse()
        ego_els = tuple(
            el.with_points(transform_to_world(el.points, inv)) for el in gt.elements
        )
        ego_path = tmp_path / "ego.json"
        save_map(VectorMap(ego_els, "ego", pose), ego_path)
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "eval", "--est", str(ego_path), "--gt", gt_file, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        for ln in out.read_text().splitlines()[1:]:
            cells = ln.split(",")
            if cells[2] == "df" and cells[-1] != "0":
                assert float(cells[3]) < 1e-6


class TestSynth:
    def test_writes_instances_and_manifest(self, runner, tmp_path, gt_file):
        out = tmp_path / "inst"
        result = runner.invoke(main, [
            "synth", "--gt", gt_file, "--n", "3", "--sigma", "0.1",
            "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        names = sorted(os.listdir(out))
        assert names == [
            "instance_0.json", "instance_1.json", "instance_2.json", "poses.json",
        ]
        assert "3 instance(s)" in result.output

    def test_same_seed_byte_identical(self, runner, tmp_path, gt_file):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            result = runner.invoke(main, [
                "synth", "--gt", gt_file, "--n", "4", "--sigma", "0.2",
                "--dropout", "0.1", "--seed", "11", "--out", str(d),
            ])
            assert result.exit_code == 0, result.output
        for name in os.listdir(dirs[0]):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_zero_instances_rejected(self, runner, tmp_path, gt_file):
        result = runner.invoke(main, [
            "synth", "--gt", gt_file, "--n", "0", "--sigma", "0.1",
            "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert "n" in result.output

    def test_negative_sigma_rejected(self, runner, tmp_path, gt_file):
        result = runner.invoke(main, [
            "synth", "--gt", gt_file, "--n", "2", "--sigma", "-0.5",
            "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert "sigma" in result.output

    def test_full_dropout_rejected(self, runner, tmp_path, gt_file):
        result = runner.invoke(main, [
            "synth", "--gt", gt_file, "--n", "2", "--sigma", "0.1",
            "--dropout", "1.0", "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert "dropout" in result.output

    @pytest.mark.parametrize("option, value", [
        ("--sigma", "inf"), ("--sigma", "nan"),
        ("--window", "nanx60"), ("--window", "30xinf"), ("--window", "infxnan"),
    ])
    def test_non_finite_option_rejected(self, runner, tmp_path, gt_file, option, value):
        args = {"--sigma": "0.1", "--window": "30x60", option: value}
        result = runner.invoke(main, [
            "synth", "--gt", gt_file, "--n", "2", "--seed", "1",
            "--out", str(tmp_path / "o"), *[x for kv in args.items() for x in kv],
        ])
        assert result.exit_code == 2
        assert option in result.output and "finite" in result.output
        assert not (tmp_path / "o").exists()

    def test_bad_window_rejected(self, runner, tmp_path, gt_file):
        for bad in ("30", "0x60", "axb"):
            result = runner.invoke(main, [
                "synth", "--gt", gt_file, "--n", "2", "--sigma", "0.1",
                "--window", bad, "--seed", "1", "--out", str(tmp_path / "o"),
            ])
            assert result.exit_code == 2
            assert "window" in result.output.lower()

    def test_seed_required(self, runner, tmp_path, gt_file):
        result = runner.invoke(main, [
            "synth", "--gt", gt_file, "--n", "2", "--sigma", "0.1",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert "seed" in result.output

    def test_malformed_gt_named(self, runner, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"frame": "world", "elements": [{"id": "x"}]}')
        result = runner.invoke(main, [
            "synth", "--gt", str(bad), "--n", "2", "--sigma", "0.1",
            "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert "broken.json" in result.output


class TestPipelineDeterminism:
    def test_synth_merge_eval_repeats_bytewise(self, runner, tmp_path, gt_file):
        outputs = []
        for tag in ("x", "y"):
            work = tmp_path / tag
            inst_dir = work / "inst"
            merged = work / "merged.json"
            csv = work / "report.csv"
            r = runner.invoke(main, [
                "synth", "--gt", gt_file, "--n", "3", "--sigma", "0.1",
                "--seed", "21", "--out", str(inst_dir),
            ])
            assert r.exit_code == 0, r.output
            args = ["merge", "--bootstrap", "--out", str(merged)]
            for k in range(3):
                args += ["--secondary", str(inst_dir / f"instance_{k}.json")]
            r = runner.invoke(main, args)
            assert r.exit_code == 0, r.output
            r = runner.invoke(main, [
                "eval", "--est", str(merged), "--gt", gt_file, "--out", str(csv),
            ])
            assert r.exit_code == 0, r.output
            outputs.append((merged.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1]


class TestBlasKernelIndependence:
    """A merge writes the same bytes whichever BLAS kernel numpy dispatches to.

    The second run forces OpenBLAS's Prescott kernel, which has no fused
    multiply-add.  The test only has teeth where numpy uses OpenBLAS with
    runtime kernel dispatch (the pip wheels) on a CPU whose default kernel
    differs; elsewhere the variable is ignored and both runs agree trivially.
    """

    def test_merge_output_is_byte_equal_under_prescott_kernel(self, tmp_path):
        rng = np.random.default_rng(5)
        pose = Pose.from_yaw(0.3, 3.5, -2.5)
        # lines at 0.8 rad near the origin: both terms of a projection's dot
        # product count, and a last-bit change of it still moves a coordinate
        u = np.array([np.cos(0.8), np.sin(0.8)])
        n = np.array([-u[1], u[0]])
        main_els, ego_els = [], []
        for k in range(12):
            origin = np.array([-30.0, -20.0]) + 6.0 * k * n + rng.uniform(0, 10) * u
            s = np.linspace(0.0, 10.0, 6)
            main_els.append(MapElement(f"m{k}", "divider", origin + np.outer(s, u)
                                       + np.outer(rng.normal(0, 0.05, 6), n)))
            # the secondary line runs 1.5 m past both ends of the main line
            s = np.linspace(-1.5, 11.5, 6)
            world = origin + np.outer(s, u) + np.outer(0.3 + rng.normal(0, 0.05, 6), n)
            ego_els.append(MapElement(f"s{k}", "divider", transform_to_world(world, pose.inverse())))
        save_map(VectorMap(tuple(main_els), "world"), tmp_path / "main.json")
        save_map(VectorMap(tuple(ego_els), "ego", pose), tmp_path / "view.json")

        src = os.path.dirname(os.path.dirname(polymerge.__file__))
        outputs = []
        for coretype in (None, "Prescott"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            out = tmp_path / f"merged_{coretype}.json"
            subprocess.run(
                [sys.executable, "-m", "polymerge.cli", "merge", "--main", str(tmp_path / "main.json"),
                 "--secondary", str(tmp_path / "view.json"), "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
