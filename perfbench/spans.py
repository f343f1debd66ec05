"""In-memory spans around calls into the package's public functions.

:func:`install` replaces each target with a wrapper that records one span
per call — name, thread, start, end, parent span, and an optional count —
in a :class:`SpanStore`.  Nothing under ``src/`` changes: the wrappers are
installed from here, by the traced launcher (serving workloads) or by the
benchmark process itself (offline_train).  Times are ``perf_counter``
values, which on Linux share one clock across processes, so the client's
timing window applies to the daemon's spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple


class SpanStore:
    """Append-only span list; one open-span stack per thread."""

    def __init__(self):
        self.spans: List[list] = []     # [name, tid, start, end, parent, info]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             info: Optional[Callable] = None):
        stack = self._stack()
        record = [name, threading.get_ident(), 0.0, 0.0, stack[-1] if stack else -1, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()
        if info is not None:
            record[5] = info(args, kwargs, out)
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _TimedEnter:
    """Context manager whose ``__enter__`` is recorded as a span."""

    def __init__(self, store: SpanStore, name: str, cm):
        self._store, self._name, self._cm = store, name, cm

    def __enter__(self):
        return self._store.call(self._name, self._cm.__enter__, (), {})

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


def _n_in_out(args, kwargs, out):
    return [len(args[0]), len(out)]


def _rows(args, kwargs, out):
    return int(args[2].shape[0])


def _n_target(args, kwargs, out):
    return len(args[2])


def _collect_info(args, kwargs, out):
    return [len(out), sum(1 for r in out if r.success)]


#: (span name, module, attribute path, info extractor).  Every function
#: the per-layer table names; module-level functions imported by name
#: elsewhere are listed once per binding.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("serve.service_recommend", "repro.serve.daemon", "LiteService.recommend", None),
    ("serve.service_feedback", "repro.serve.daemon", "LiteService.feedback", None),
    ("lite.recommend_many", "repro.core.lite", "LITE.recommend_many", None),
    ("lite.filter_hostable", "repro.core.lite", "LITE._filter_hostable", _n_in_out),
    ("lite.feedback", "repro.core.lite", "LITE.feedback", None),
    ("lite.offline_train", "repro.core.lite", "LITE.offline_train", None),
    ("acg.generate", "repro.core.candidates", "AdaptiveCandidateGenerator.generate", None),
    ("acg.region", "repro.core.candidates", "AdaptiveCandidateGenerator.region", None),
    ("acg.fit", "repro.core.candidates", "AdaptiveCandidateGenerator.fit", None),
    ("tree.fit", "repro.ml.tree", "DecisionTreeRegressor.fit", None),
    ("rank.rank_many", "repro.core.recommender", "KnobRecommender.rank_many", None),
    ("instances.numeric_rows", "repro.core.recommender", "numeric_feature_rows", None),
    ("instances.numeric_rows", "repro.core.necs", "numeric_feature_rows", None),
    ("necs.predict_encoded", "repro.core.necs", "NECSEstimator.predict_encoded", _rows),
    ("necs.predict", "repro.core.necs", "NECSEstimator.predict", None),
    ("necs.fit", "repro.core.necs", "NECSEstimator.fit", None),
    ("update.update", "repro.core.update", "AdaptiveModelUpdater.update", _n_target),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward", None),
    ("nn.optim_step", "repro.nn.optim", "Adam.step", None),
    ("nn.optim_step", "repro.nn.optim", "SGD.step", None),
    ("sparksim.run", "repro.workloads.base", "Workload.run", None),
    ("collect.collect", "repro.experiments.collect", "collect_training_runs", _collect_info),
    ("persistence.save", "repro.core.persistence", "save_lite", None),
    ("persistence.load", "repro.core.persistence", "load_lite", None),
    ("persistence.load", "repro.serve.registry", "load_lite", None),
    ("drift.record", "repro.obs.drift", "KeyedDriftMonitor.record", None),
]


def _wrap_function(store: SpanStore, name: str, fn: Callable, info) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return store.call(name, fn, args, kwargs, info)
    return wrapper


def _wrap_submit(store: SpanStore, fn: Callable) -> Callable:
    """``MicroBatcher.submit``, with its ``run_batch`` callback timed too."""
    @functools.wraps(fn)
    def wrapper(self, key, item, run_batch):
        def timed_batch(items):
            return store.call("serve.run_batch", run_batch, (items,), {})
        return store.call("serve.submit", fn, (self, key, item, timed_batch), {})
    return wrapper


def _wrap_lease(store: SpanStore, fn: Callable) -> Callable:
    """``ModelRegistry.lease``: the span covers entering the lease."""
    @functools.wraps(fn)
    def wrapper(self, name):
        return _TimedEnter(store, "serve.lease", fn(self, name))
    return wrapper


def install(store: SpanStore) -> None:
    """Wrap every target in :data:`TARGETS` plus the batcher and lease."""
    for name, module_name, attr, info in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[fn_name] if owner_name else getattr(module, fn_name)
        if isinstance(raw, staticmethod):
            setattr(owner, fn_name, staticmethod(_wrap_function(store, name, raw.__func__, info)))
        else:
            setattr(owner, fn_name, _wrap_function(store, name, raw, info))
    batching = importlib.import_module("repro.serve.batching")
    batching.MicroBatcher.submit = _wrap_submit(store, batching.MicroBatcher.submit)
    registry = importlib.import_module("repro.serve.registry")
    registry.ModelRegistry.lease = _wrap_lease(store, registry.ModelRegistry.lease)

