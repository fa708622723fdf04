"""Spans and counts recorded from outside the program.

The tracer replaces module attributes, such as the ``build_graph`` that
``polymerge.merging`` imported from ``polymerge.proximity``, with wrappers
that open a span around each call.  Nothing in the program changes: a call
is traced when its caller looks the name up in the patched module.  Spans
(name, start, end, parent) and counts live in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Context manager that patches targets on entry and restores them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span opened by the benchmark itself around a block of code."""
        idx = self.open(self._intern(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- patching ------------------------------------------------------
    def wrap(self, module_name: str, attr_path: str, name: str, on_return=None) -> None:
        """Trace calls of ``module_name.attr_path`` as span ``name``.

        ``on_return(counts, args, kwargs, result)`` runs after each call that
        returns; if it raises, ``name`` goes to ``broken_hooks``.  A target
        missing from the program is recorded in ``absent`` instead of raising.
        """
        self._intern(name)
        *owner_attrs, attr = attr_path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_attrs:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            if name not in self.absent:
                self.absent.append(name)
            return
        name_id = self._name_ids[name]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                try:
                    on_return(tracer.counts, args, kwargs, result)
                except Exception:  # a count the program no longer supports
                    tracer.broken_hooks.add(name)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s (absent names included)."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        own = self_times(start, end, parent)
        out = {}
        for k, name in enumerate(self.names):
            sel = names == k
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(np.sum(end[sel] - start[sel])),
                "self_s": float(np.sum(own[sel])),
            }
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        target, outer = self._name_ids[name], self._name_ids[ancestor]
        # a parent is opened before its children, so one forward pass will do
        inside = bytearray(len(self.start))
        count = 0
        for idx, (name_id, parent) in enumerate(zip(self.name_id, self.parent)):
            if parent >= 0 and (inside[parent] or self.name_id[parent] == outer):
                inside[idx] = 1
                count += name_id == target
        return count

    def dump(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the part of its interval that child spans cover.

    Children are clipped to their parent's interval and overlapping children
    count once, so the result never drops below zero.
    """
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    par = parent[kids]
    a = np.maximum(start[kids], start[par])
    b = np.minimum(end[kids], end[par])
    order = np.lexsort((a, par))
    current, reach = -1, 0.0
    for p, lo, hi in zip(par[order].tolist(), a[order].tolist(), b[order].tolist()):
        if p != current:
            current, reach = p, lo
        lo = max(lo, reach)
        if hi > lo:
            own[p] -= hi - lo
            reach = hi
    return own
