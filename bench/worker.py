"""One benchmark workload, run in its own process by ``run.py``.

Untraced mode times the public entry points a user calls and checks the
outputs.  Traced mode runs one untraced and one traced repetition of the
first input and reports per-layer spans and counts.  The last stdout line
is the JSON result; a full record goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import polymerge as pm
from polymerge import cli, merging, metrics

import layers
import scenes
from tracer import Tracer

TH_EVAL = 1.0
MERGE_CONFIG = pm.MergeConfig(smoothing_enabled=True)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: scenes.SceneParams
    incremental: bool
    inputs: int  # independent view sets per run, each seeded from --seed
    warmup_views: int
    setups: int  # set-ups per run; setup_s is their median
    evals: int  # evaluate_map calls per repetition


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-batch", scenes.GRID, incremental=False, inputs=1,
                 warmup_views=4, setups=3, evals=3),
        # one drive's line DF swings by 40 % from seed to seed, so a run folds
        # 10 drives and takes the mean of their quality; their 330 rounds
        # also feed p90
        Workload("block-incremental", scenes.BLOCK, incremental=True, inputs=10,
                 warmup_views=2, setups=3, evals=1),
    )
}

LABEL_KEYS = {"divider": "divider", "boundary": "boundary", "ped_crossing": "crossing"}
QUALITY_UNITS = {
    "df_divider_m": "m", "df_boundary_m": "m", "df_lines_m": "m", "df_crossing_m": "m",
    "pcm_divider": "m", "pcm_boundary": "m", "pcm_crossing": "m",
    "unmatched": "count", "matched_share": "ratio", "max_vertices": "count",
    "max_id_chars": "count",
}
# One block-incremental drive's divider or boundary DF swings by 40 % from
# seed to seed, too much for a bound to hold on either label alone, so the
# two line labels are gated together as df_lines_m.  unmatched is 0 on every
# seed so far, and a gated metric must never be 0, so matched_share stands in.
END_TO_END = ["setup_s", "merge_s", "round_p50_s", "round_p90_s", "eval_s", "peak_rss_mb",
              "df_lines_m", "df_crossing_m", "pcm_divider", "pcm_boundary", "pcm_crossing",
              "matched_share", "max_vertices"]
PER_LAYER = layers.METRIC_NAMES + ["trace.overhead_ratio"] + [f"eval.{k}" for k in QUALITY_UNITS]


def synth_seed(seed: int, index: int = 0) -> int:
    """``NoiseConfig`` seed of input ``index``.  Instance k draws from
    ``seed ^ k``; the shift keeps the streams of different inputs apart."""
    return (seed * 16 + index) << 20


@dataclass
class Input:
    views: list
    view_paths: list


class Bench:
    """Runs repetitions of one workload and counts what failed."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.gt = scenes.ground_truth(workload.scene)
        self.host = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def setup(self) -> list[Input]:
        """Generate every input's views; incremental inputs are written to disk."""
        inputs = []
        for i in range(self.wl.inputs):
            views = scenes.views(self.wl.scene, self.gt, synth_seed(self.seed, i))
            paths = []
            if self.wl.incremental:
                written = pm.write_instances(views, self.work / f"input{i}")
                paths = [p for p in written if not p.endswith("poses.json")]
            inputs.append(Input(views, paths))
        return inputs

    def _cli(self, args) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=[str(a) for a in args], prog_name="polymerge",
                          standalone_mode=False)

    def merge(self, inp: Input, n_views: int | None, out: Path) -> list[float]:
        """Fuse the views into ``out``; returns the time of every round."""
        if not self.wl.incremental:
            t0 = time.perf_counter()
            merged = merging.merge_maps(pm.VectorMap((), "world"), inp.views[:n_views],
                                        MERGE_CONFIG, pm.MergeReport())
            elapsed = time.perf_counter() - t0
            pm.save_map(merged, out)
            return [elapsed]
        if out.exists():
            out.unlink()
        rounds = []
        for k, view in enumerate(inp.view_paths[:n_views]):
            args = ["merge", "--smooth", "--secondary", view, "--out", out]
            args += ["--bootstrap"] if k == 0 else ["--main", out]
            t0 = time.perf_counter()
            self._cli(args)
            rounds.append(time.perf_counter() - t0)
        return rounds

    def repetition(self, inp: Input, n_views: int | None = None, tag: str = "rep",
                   evals: int | None = None):
        """Merge, reload, evaluate and check; returns a sample dict or None.
        The merge and each eval are timed blocks of their own, so that each
        gets the host speed of its own span."""
        evals = self.wl.evals if evals is None else evals
        n_merges = len(inp.views[:n_views]) if self.wl.incremental else 1
        self.attempted += n_merges + evals
        out = self.work / f"{tag}.json"
        try:
            rounds, _, merge_scale = self.host.timed(self.merge, inp, n_views, out)
            blob = out.read_bytes()
            merged = pm.load_map(out)
            eval_s, eval_scales = [], []
            for _ in range(evals):
                report, elapsed, scale = self.host.timed(metrics.evaluate_map, merged, self.gt,
                                                         TH_EVAL)
                eval_s.append(elapsed)
                eval_scales.append(scale)
        except Exception as exc:  # an operation that raised is a failed operation
            self.fail(f"{tag}: {type(exc).__name__}: {exc}")
            return None
        quality = quality_of(report, merged)
        if quality is None:
            self.fail(f"{tag}: eval report lacks df and pcm rows for some label")
            return None
        return {
            "sha256": hashlib.sha256(blob).hexdigest(),
            "merge_s": sum(rounds),
            "rounds": rounds,
            "merge_scale": merge_scale,
            "eval_s": eval_s,
            "eval_scales": eval_scales,
            "quality": quality,
        }

    def warm_up(self, inp: Input) -> None:
        """One untimed repetition on a few views: imports, lazy loading.
        Only a failure of it is counted."""
        if self.repetition(inp, self.wl.warmup_views, "warmup", evals=1) is not None:
            self.attempted = 0


def quality_of(report, merged: pm.VectorMap) -> dict | None:
    rows = {(r.label, r.metric): r for r in report.rows}
    out = {}
    matched = unmatched = 0
    for label, key in LABEL_KEYS.items():
        df, pc = rows.get((label, "df")), rows.get((label, "pcm"))
        if df is None or pc is None or not df.count or not pc.count:
            return None
        out[f"df_{key}_m"] = df.mean
        out[f"pcm_{key}"] = pc.mean
        matched += df.count
        unmatched += rows[(label, "unmatched_est")].count + rows[(label, "unmatched_gt")].count
    out["df_lines_m"] = (out["df_divider_m"] + out["df_boundary_m"]) / 2
    out["unmatched"] = unmatched
    # each matched pair holds one element of either map; 1.0 when none is left
    out["matched_share"] = 2 * matched / (2 * matched + unmatched)
    out["max_vertices"] = max(len(el.points) for el in merged.elements)
    out["max_id_chars"] = max(len(el.id) for el in merged.elements)
    return out


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean_quality(samples: list[dict]) -> dict:
    """Quality of a run: the mean over its inputs."""
    return {key: statistics.fmean(s["quality"][key] for s in samples) for key in QUALITY_UNITS}


# -- runs ------------------------------------------------------------------


# seconds per calibrate() pass, run on its own, in the fast phases of a
# 2-vCPU Intel Xeon VM.  Probes inside a timed block share the caches with
# the program, so they read slower than that in any phase.
CALIBRATION_REF_S = 0.001
# a probe of the host's speed every PROBE_INTERVAL_S of a timed block; one
# probe of PROBE_PASSES takes about 2 % of the interval
PROBE_INTERVAL_S = 0.1
PROBE_PASSES = 2
_ROWS = [[((i * 7919 + j * 104729) % 1000) / 1000.0 for j in range(100)] for i in range(100)]


def calibrate(passes: int) -> float:
    """Seconds for a fixed pure-Python dynamic program that uses no polymerge
    code, so no change to the program can move it."""
    t0 = time.perf_counter()
    for _ in range(passes):
        prev = _ROWS[0][:]
        for row in _ROWS[1:]:
            cur = [max(prev[0], row[0])] + [0.0] * 99
            for j in range(1, 100):
                best = prev[j]
                if prev[j - 1] < best:
                    best = prev[j - 1]
                if cur[j - 1] < best:
                    best = cur[j - 1]
                cur[j] = row[j] if row[j] > best else best
            prev = cur
    return time.perf_counter() - t0


class HostSpeed:
    """Times blocks and gives the factor that scales them to a host that
    runs a calibrate() pass in CALIBRATION_REF_S.

    A shared VM runs up to 1.7x slower in phases that switch every few
    seconds, so calibrations before and after a block miss what happened
    during it.  While a block runs, a timer signal probes the speed every
    PROBE_INTERVAL_S; the block's factor is the mean probed speed, which
    is the right mean for work done at a varying speed.  No threads.
    """

    def __init__(self):
        self.probes: list[int] = []  # probes taken in each block
        self._speeds: list[float] = []
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, signum=None, frame=None) -> None:
        self._speeds.append(PROBE_PASSES / calibrate(PROBE_PASSES))

    def timed(self, fn, *args):
        """Returns fn(*args), its wall time and the scale factor of that time."""
        self._speeds = []
        self._probe()  # so that a block shorter than the interval has one
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.probes.append(len(self._speeds))
        return result, elapsed, CALIBRATION_REF_S * statistics.fmean(self._speeds)


def run_untraced(bench: Bench, seconds: float, started: float):
    setup_raw, setup_scales = [], []
    for _ in range(bench.wl.setups):
        inputs, elapsed, scale = bench.host.timed(bench.setup)
        setup_raw.append(elapsed)
        setup_scales.append(scale)
    bench.warm_up(inputs[0])
    per_input: list[list[dict]] = [[] for _ in inputs]
    # round-robin over the inputs: every input once and the first twice, so
    # that the hash check has a pair; more while the time allows
    min_reps = len(inputs) + 1
    deadline = started + seconds
    for rep in itertools.count():
        t0 = time.perf_counter()
        sample = bench.repetition(inputs[rep % len(inputs)])
        if sample is not None:
            per_input[rep % len(inputs)].append(sample)
        rep_s = time.perf_counter() - t0
        if rep + 1 >= min_reps and (bench.failed or time.perf_counter() + rep_s > deadline):
            break
    for i, samples in enumerate(per_input):
        if len({s["sha256"] for s in samples}) > 1:
            bench.fail(f"input {i}: merged map differs between repetitions")
    if not all(per_input):
        return {}, {"setup_s": setup_raw}
    samples = [s for group in per_input for s in group]
    values = {
        "setup_s": statistics.median(t * k for t, k in zip(setup_raw, setup_scales)),
        "merge_s": statistics.median(
            statistics.median(s["merge_s"] * s["merge_scale"] for s in group)
            for group in per_input),
        "eval_s": statistics.median(t * k for s in samples
                                    for t, k in zip(s["eval_s"], s["eval_scales"])),
    }
    if bench.wl.incremental:
        rounds = [t * s["merge_scale"] for s in samples for t in s["rounds"]]
        values["round_p50_s"] = statistics.median(rounds)
        values["round_p90_s"] = p90(rounds)
    else:
        # every workload reports every end-to-end metric; a batch run is one
        # round, so both figures are merge_s and gate nothing merge_s does not
        values["round_p50_s"] = values["round_p90_s"] = values["merge_s"]
    values = {name: (value, "s") for name, value in values.items()}
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    quality = mean_quality([group[0] for group in per_input])
    values.update({key: (quality[key], unit) for key, unit in QUALITY_UNITS.items()})
    raw = {
        "setup_s": setup_raw,
        "setup_scale": setup_scales,
        "probes": bench.host.probes,
        "merge_s": [[s["merge_s"] for s in group] for group in per_input],
        "rounds_s": [[s["rounds"] for s in group] for group in per_input],
        "merge_scale": [[s["merge_scale"] for s in group] for group in per_input],
        "eval_s": [[s["eval_s"] for s in group] for group in per_input],
        "eval_scale": [[s["eval_scales"] for s in group] for group in per_input],
        "sha256": [group[0]["sha256"] for group in per_input],
        "quality": [group[0]["quality"] for group in per_input],
    }
    return values, raw


def run_traced(bench: Bench, out_dir: Path, stem: str):
    inp = bench.setup()[0]
    bench.warm_up(inp)
    plain = bench.repetition(inp, None, "untraced", 1)
    with Tracer() as tracer:
        layers.install(tracer)
        with tracer.span("bench.setup"):
            inp = bench.setup()[0]
        with tracer.span("bench.repetition"):
            traced = bench.repetition(inp, None, "traced", 1)
    raw = {"absent": tracer.absent, "broken_hooks": sorted(tracer.broken_hooks)}
    if plain is None or traced is None:
        return {}, raw
    if plain["sha256"] != traced["sha256"]:
        bench.fail("merged map differs between the traced and untraced runs")
    values = layers.layer_metrics(tracer)
    values["trace.overhead_ratio"] = (
        traced["merge_s"] * traced["merge_scale"] / (plain["merge_s"] * plain["merge_scale"]),
        "ratio")
    for key, unit in QUALITY_UNITS.items():
        values[f"eval.{key}"] = (plain["quality"][key], unit)
    spans_path = out_dir / f"{stem}.spans.npz"
    tracer.dump(spans_path)
    raw.update({
        "spans_file": spans_path.name,
        "span_count": len(tracer.start),
        "untraced_merge_s": plain["merge_s"],
        "traced_merge_s": traced["merge_s"],
        "sha256": plain["sha256"],
    })
    return values, raw


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": "unknown",
            "python": platform.python_version(), "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for package in ("numpy", "scipy", "networkx", "click"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = "absent"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    src = (args.root / "src").resolve()
    if Path(pm.__file__).resolve().parent.parent != src:
        print(f"polymerge was imported from {pm.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = args.root / ".bench_out"
    work = args.root / ".bench_work" / f"{wl.name}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    bench = Bench(wl, args.seed, work)
    try:
        if args.trace:
            values, raw = run_traced(bench, out_dir, stem)
            expected = PER_LAYER
        else:
            values, raw = run_untraced(bench, args.seconds, started)
            expected = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in expected if name not in values]
    if missing and not bench.failed:
        bench.fail(f"metrics not measured: {missing}")
    correct = bench.failed == 0
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "synth_seeds": [synth_seed(args.seed, i) for i in range(wl.inputs)],
        "trace": args.trace,
        "params": {"scene": wl.scene.to_dict(), "incremental": wl.incremental,
                   "inputs": wl.inputs, "setups": wl.setups,
                   "evals": wl.evals,
                   "merge_config": {"smoothing_enabled": True}, "th_eval": TH_EVAL,
                   "seconds": args.seconds},
        "machine": machine_info(),
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "raw": raw,
    }
    record_path = out_dir / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in values.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    ops_failed = bench.failed / max(bench.attempted, 1)
    print(f"  {'ops_failed':<48} {ops_failed:>14.6g} fraction"
          f" ({bench.failed} of {bench.attempted})")
    for name in raw.get("absent", []):
        print(f"  {name:<48} {'absent':>14}")
    for name in raw.get("broken_hooks", []):
        print(f"  {name:<48} {'counts lost':>14}")
    for error in bench.errors:
        print(f"  FAILED: {error}")
    print(f"  record: {record_path}")
    result = {
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in expected if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
