"""In-memory span tracer that wraps the program's entry points from outside.

The benchmark never edits the program: :func:`install` replaces module
attributes and class methods with timing wrappers, and :meth:`Tracer.close`
puts the originals back. Each span is stored as four int64 values
``(name id, start ns, end ns, parent span index)`` in a per-thread
array, so tracing the hot path allocates no Python objects per call.
Self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import subprocess
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple


class _ThreadSpans(threading.local):
    def __init__(self) -> None:
        self.spans = array("q")
        self.stack: List[int] = []
        self.registered = False


class Tracer:
    """Named nested spans plus named counters, enabled only around the
    measured operations."""

    def __init__(self) -> None:
        self.enabled = False
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = _ThreadSpans()
        self._all: List[array] = []
        self._lock = threading.Lock()
        self.counts: Dict[str, float] = defaultdict(float)
        self._merged: Dict[str, Dict[str, float]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    def _thread_spans(self) -> _ThreadSpans:
        local = self._local
        if not local.registered:
            with self._lock:
                self._all.append(local.spans)
            local.registered = True
        return local

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def wrap(self, name: str, fn: Callable,
             after: Callable = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(result, args)`` records
        counters from the call's result while tracing is enabled."""
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            local = self._thread_spans()
            spans = local.spans
            index = len(spans) // 4
            parent = local.stack[-1] if local.stack else -1
            spans.extend((name_id, 0, 0, parent))
            local.stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                local.stack.pop()
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end
            if after is not None:
                after(result, args)
            return result

        return traced

    def replace(self, owner: object, attribute: str, value: object) -> None:
        """Set ``owner.attribute`` until :meth:`close` restores it."""
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def patch(self, owner: object, attribute: str, name: str,
              after: Callable = None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper."""
        self.replace(owner, attribute,
                     self.wrap(name, getattr(owner, attribute), after))

    def close(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- aggregation --------------------------------------------------------

    def dump(self) -> Dict[str, Dict]:
        """Span totals and counters, as :meth:`merge` takes them."""
        return {"totals": self.totals(), "counts": dict(self.counts)}

    def merge(self, dump: Dict[str, Dict]) -> None:
        """Add another process's :meth:`dump` to this tracer's figures."""
        for name, entry in dump["totals"].items():
            merged = self._merged.setdefault(
                name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in merged:
                merged[key] += entry[key]
        for name, value in dump["counts"].items():
            self.counts[name] += value

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_ns`` and ``self_ns``."""
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0}
            for name in self._names}
        for name, entry in self._merged.items():
            out[name] = dict(entry)
        with self._lock:
            arrays = list(self._all)
        for spans in arrays:
            n = len(spans) // 4
            child_ns = [0] * n
            for i in range(n):
                parent = spans[4 * i + 3]
                if parent >= 0:
                    child_ns[parent] += spans[4 * i + 2] - spans[4 * i + 1]
            for i in range(n):
                duration = spans[4 * i + 2] - spans[4 * i + 1]
                entry = out[self._names[spans[4 * i]]]
                entry["calls"] += 1
                entry["total_ns"] += duration
                entry["self_ns"] += duration - child_ns[i]
        return out

    def table(self) -> str:
        """Per-span self-time table, largest first."""
        rows = sorted(self.totals().items(),
                      key=lambda item: -item[1]["self_ns"])
        lines = [f"{'span':40s} {'calls':>9s} {'total ms':>11s} "
                 f"{'self ms':>11s} {'self us/call':>13s}"]
        for name, entry in rows:
            if not entry["calls"]:
                continue
            lines.append(
                f"{name:40s} {entry['calls']:9d} "
                f"{entry['total_ns'] / 1e6:11.2f} "
                f"{entry['self_ns'] / 1e6:11.2f} "
                f"{entry['self_ns'] / entry['calls'] / 1e3:13.2f}")
        return "\n".join(lines)


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point the per-layer metrics time.

    Functions imported by name into another module are patched where
    they are looked up, not where they are defined.
    """
    import numpy as np

    from repro.core import features as core_features
    from repro.core import model as core_model
    from repro.joinorder.costmodels import T3JoinCost
    from repro.treecomp import codegen
    from repro.treecomp import compiler
    from repro.trees.grow import TreeGrower
    from repro.trees.histogram import BinMapper

    def featurized(result, args):
        vectors, _cards = result
        tracer.count("core.features.rows", len(vectors))
        tracer.count("core.features.nonzeros", np.count_nonzero(vectors))

    def native_call(result, args):
        tracer.count("treecomp.rows", len(args[1]))

    def dataset_built(result, args):
        X = result.X
        varying = np.count_nonzero(X.max(axis=0) != X.min(axis=0))
        tracer.count("trees.varying_features", varying)
        tracer.count("trees.features", X.shape[1])

    def compiled(result, args):
        tracer.count("treecomp.so_bytes", result.library_path.stat().st_size)
        tracer.count("treecomp.c_bytes", result.library_path.with_name(
            "model.c").stat().st_size)

    tracer.patch(core_features.FeatureRegistry, "vectors_for_plan",
                 "core.features.vectors_for_plan", featurized)
    tracer.patch(core_features, "decompose_into_pipelines",
                 "engine.pipelines.decompose")
    tracer.patch(core_features, "compute_stage_flows",
                 "engine.pipelines.stage_flows")
    tracer.patch(core_model, "cardinality_model_for",
                 "core.dataset.cardinality_model_for")
    tracer.patch(core_model.T3Model, "pipeline_times_from_raw",
                 "core.model.pipeline_times_from_raw")
    tracer.patch(core_model.T3Model, "predict_benchmarked",
                 "core.model.predict_benchmarked")
    tracer.patch(compiler.CompiledTreeModel, "_call_batch",
                 "treecomp.native_call", native_call)
    tracer.patch(compiler.CompiledTreeModel, "predict_one",
                 "treecomp.predict_one")
    tracer.patch(T3JoinCost, "combine", "joinorder.combine")
    tracer.patch(T3JoinCost, "leaf", "joinorder.leaf")
    tracer.patch(core_model, "build_dataset", "core.dataset.build_dataset",
                 dataset_built)
    tracer.patch(core_model, "train_boosted_trees", "trees.boosting")
    tracer.patch(BinMapper, "fit", "trees.bin_fit")
    tracer.patch(TreeGrower, "grow", "trees.grow")
    tracer.patch(core_model, "compile_model", "treecomp.compile_model",
                 compiled)
    for strategy in {type(s) for s in codegen.STRATEGIES.values()}:
        if "generate" in strategy.__dict__:
            tracer.patch(strategy, "generate", "treecomp.codegen")
    tracer.replace(compiler, "subprocess", _Subprocess(
        tracer.wrap("treecomp.gcc", subprocess.run)))
    return tracer


class _Subprocess:
    """Stands in for the ``subprocess`` module inside
    ``repro.treecomp.compiler`` so that only its compiler invocation is
    traced, not every subprocess of the process."""

    def __init__(self, run: Callable):
        self.run = run

    def __getattr__(self, name: str):
        return getattr(subprocess, name)
