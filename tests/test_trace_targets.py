"""Every call site the benchmark's per-layer trace wraps still resolves.

The tracer records a target it cannot find as absent instead of failing,
so without this test a renamed or dropped import would only show up as a
layer that reads 0 calls in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))
try:
    import layers
finally:
    sys.path.remove(str(BENCH_DIR))


@pytest.mark.parametrize("module, attr_path", [(m, a) for m, a, _, _ in layers.TRACE_TARGETS])
def test_trace_target_resolves(module, attr_path):
    owner = importlib.import_module(module)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
