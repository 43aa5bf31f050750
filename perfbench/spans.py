"""In-memory span tracer that wraps ``repro`` entry points from outside.

The traced run of the benchmark replaces each public entry point listed in
:data:`ENTRY_POINTS` with a wrapper that, while the tracer is active,
records a span ``[name, start_ns, end_ns, parent]`` around the call.
Nothing under ``src/`` knows about it: functions are patched at *every*
module binding (a name imported with ``from module import name`` is a
separate binding that patching the defining module alone would miss), and
methods are patched on every class that defines them in its own body.
:meth:`Tracer.uninstall` restores the originals.  The untraced run never
imports this module, and checks that.

A span's self time is its duration minus the durations of its direct
children; summed over every span under a root, self times plus the root's
own self time (the *unaccounted* remainder) equal the root's duration.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

__all__ = ["ENTRY_POINTS", "Tracer"]


def _count_batch_rows(counts, args, kwargs, result) -> None:
    counts["classifiers.batch_rows"] += len(result)


def _count_prefix_cells(counts, args, kwargs, result) -> None:
    counts["distance.prefix_cells"] += int(result.size)


def _count_dtw_pairs(counts, args, kwargs, result) -> None:
    queries, train = args[0], args[1]
    n_queries = 1 if getattr(queries, "ndim", 2) == 1 else len(queries)
    counts["distance.dtw_pairs"] += n_queries * len(train)


def _count_shard_bytes(counts, args, kwargs, result) -> None:
    counts["data.shard_bytes"] += int(result.nbytes)


def _count_manifest_bytes(counts, args, kwargs, result) -> None:
    manifest = args[0]
    counts["runtime.manifest_bytes"] += (manifest.run_dir / manifest.FILENAME).stat().st_size


def _count_flush_rows(counts, args, kwargs, result) -> None:
    depth = len(args[1])
    counts["serving.evaluated_rows"] += depth
    counts["serving.queue_depth_max"] = max(counts["serving.queue_depth_max"], depth)


#: (span name, module, attribute, counter hook).  ``attribute`` is a function
#: name or ``Class.method``; a method is patched on the class and on every
#: subclass that overrides it.  The span name's prefix is the layer.
ENTRY_POINTS: tuple[tuple[str, str, str, object], ...] = (
    ("data.synth", "repro.data.gunpoint", "make_gunpoint_dataset", None),
    ("data.synth", "repro.data.shards", "synthesize_sharded_archive", None),
    ("data.denormalize", "repro.data.denormalize", "denormalize_dataset", None),
    ("data.shard_read", "repro.data.shards", "ShardedDataset.open", None),
    ("data.shard_read", "repro.data.shards", "ShardedDataset.shard_series", _count_shard_bytes),
    ("data.shard_read", "repro.data.shards", "ShardedDataset.shard_labels", _count_shard_bytes),
    ("distance.prefix", "repro.distance.engine", "batch_prefix_distances", _count_prefix_cells),
    ("distance.prefix", "repro.distance.engine", "ragged_prefix_distances", _count_prefix_cells),
    ("distance.prefix", "repro.distance.engine", "pairwise_prefix_distances", _count_prefix_cells),
    ("distance.sweep_advance", "repro.distance.engine", "PrefixSweep.advance_to", None),
    ("distance.euclid", "repro.distance.euclidean", "pairwise_euclidean", None),
    ("distance.znorm", "repro.distance.znorm", "znormalize", None),
    ("distance.znorm", "repro.distance.znorm", "znormalize_prefix", None),
    ("distance.znorm", "repro.distance.znorm", "causal_znormalize", None),
    ("distance.dtw", "repro.distance.engine", "dtw_nearest_neighbors", _count_dtw_pairs),
    ("distance.knn", "repro.distance.neighbors", "KNeighborsTimeSeriesClassifier.fit", None),
    ("distance.knn", "repro.distance.neighbors", "KNeighborsTimeSeriesClassifier.predict", None),
    ("distance.knn", "repro.distance.neighbors", "KNeighborsTimeSeriesClassifier.score", None),
    ("classifiers.fit", "repro.classifiers.base", "BaseEarlyClassifier.fit", None),
    ("classifiers.predict_batch", "repro.classifiers.base", "BaseEarlyClassifier.predict_early_batch", _count_batch_rows),
    ("classifiers.predict_row", "repro.classifiers.base", "BaseEarlyClassifier.predict_early", None),
    ("core.audit", "repro.core.normalization_audit", "audit_normalization_sensitivity", None),
    ("evaluation.evaluate", "repro.evaluation.earliness", "evaluate_early_classifier", None),
    ("experiments.run", "repro.experiments.registry", "run_experiment", None),
    ("streaming.causal_znorm", "repro.streaming.online", "causal_znormalize_batch", None),
    ("streaming.gate_confirm", "repro.streaming.online", "AlarmGate.confirm", None),
    ("serving.push", "repro.serving.engine", "ServingEngine.push", None),
    ("serving.flush", "repro.serving.engine", "ServingEngine.flush", None),
    ("serving.evaluate", "repro.serving.scheduler", "BatchScheduler.evaluate", _count_flush_rows),
    ("runtime.sweep", "repro.runtime.sweep", "run_sweep", None),
    ("runtime.queue", "repro.runtime.scheduler", "run_queue", None),
    ("runtime.task", "repro.runtime.sweep", "sweep_one_dataset", None),
    ("runtime.manifest_save", "repro.runtime.manifest", "RunManifest.save", _count_manifest_bytes),
)


def _subclasses(cls) -> list[type]:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found


class Tracer:
    """Span recorder plus the patch set that feeds it.

    ``spans`` holds ``[name, start_ns, end_ns, parent_index]`` lists in the
    order spans opened, so a parent always precedes its children.
    ``calls`` counts invocations per entry point (``module:attribute``) for
    the self-check; ``counts`` holds the counters the hooks fill.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, key: str, function, hook):
        spans, stack, calls, counts = self.spans, self._stack, self.calls, self.counts
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0, 0, parent]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            calls[key] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(function, "__name__", name)
        wrapper.__qualname__ = getattr(function, "__qualname__", name)
        wrapper.__doc__ = getattr(function, "__doc__", None)
        wrapper.__wrapped__ = function
        return wrapper

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        """Patch every entry point at every binding in loaded ``repro`` modules."""
        for name, module_name, attribute, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            key = f"{module_name}:{attribute}"
            if "." in attribute:
                class_name, method = attribute.split(".")
                for cls in dict.fromkeys(_subclasses(getattr(module, class_name))):
                    if method in cls.__dict__:
                        raw = cls.__dict__[method]
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(self._wrap(name, key, raw.__func__, hook))
                        else:
                            wrapped = self._wrap(name, key, raw, hook)
                        self._patches.append((cls, method, raw))
                        setattr(cls, method, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(name, key, original, hook)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, binding, original))
                        setattr(loaded, binding, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def missing(self, expected: list[str]) -> list[str]:
        """Entry points in ``expected`` (``module:attribute``) that never fired."""
        return [key for key in expected if self.calls[key] == 0]

    # ------------------------------------------------------------ analysis
    def summarize(self, root_name: str) -> tuple[dict, dict, int, list[int]]:
        """Self and inclusive time per span name under roots named ``root_name``.

        Returns ``(self_ns, inclusive, n_roots, indices)`` where ``self_ns``
        maps span names to summed self time, ``inclusive`` maps span names
        to the list of their inclusive durations, and ``indices`` are the
        spans counted.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        root = [0] * len(spans)
        for index, (_, start, end, parent) in enumerate(spans):
            root[index] = index if parent < 0 else root[parent]
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        inclusive: dict[str, list[int]] = defaultdict(list)
        indices = []
        n_roots = 0
        for index, (name, start, end, parent) in enumerate(spans):
            if spans[root[index]][0] != root_name:
                continue
            n_roots += parent < 0
            indices.append(index)
            self_ns[name] += end - start - child_ns[index]
            inclusive[name].append(end - start)
        return dict(self_ns), dict(inclusive), n_roots, indices
