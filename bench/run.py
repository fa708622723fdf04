"""Benchmark of the synth -> merge -> eval pipeline.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh single-threaded Python process that imports
polymerge from ``src/`` of the checkout this file sits in.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
With ``--trace 0`` the metrics are the end-to-end figures, with
``--trace 1`` the per-layer figures of a traced repetition.  Result
records go to ``.bench_out/``.  Exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid-batch", "block-incremental")
TIMEOUT_S = 175.0


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in its own process; returns its JSON result line."""
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]),
    })
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{name}: timed out after {TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 and not lines[-1].startswith("{"):
        print(f"{name}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "polymerge" / "__init__.py").is_file():
        print(f"no polymerge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if any(r is None for r in results.values()):
        return 1
    if len(names) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
