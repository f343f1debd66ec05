"""Tracing spans for the LITE train/serve/update lifecycle.

A :class:`Span` times one named unit of work on the monotonic clock
(``time.perf_counter``); spans nest through a per-thread stack, so a
``necs.fit`` span started inside ``lite.offline_train`` records the outer
span as its parent and the exported trace reconstructs the call tree.

The subsystem is built around three states (see :mod:`repro.obs`):

- **disabled** (the default) — :func:`span` returns a process-wide
  singleton null span: no allocation, no clock read, one attribute load
  and one ``is None`` test per call site.  This is what keeps the
  serving/training hot paths within the <1 % overhead budget.
- **enabled** — spans are timed, buffered in a bounded ring, and their
  durations feed the ``span.<name>.duration_s`` streaming histograms of
  the metrics registry, so ``repro stats`` reports p50/p95/p99 per span
  name without storing samples.
- **suppressed** — both tracing *and* metrics short-circuit; the overhead
  benchmark uses this as its un-instrumented baseline.

Finished spans export as JSON-lines (one span per line, parent ids
included) via :func:`export_jsonl`, or as an indented tree via
:func:`format_tree` for ``repro trace``.

Spans are request-scoped when a :class:`repro.obs.context.TraceContext`
is attached: each span inherits the context's ``trace_id``, a span opened
on a thread with an empty stack parents under the context's captured span
(the cross-thread case).  Spans may also carry *links* — references to
other contexts whose work was coalesced into this span (the micro-batch
leader links every follower).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from . import context as _context
from . import metrics as _metrics
from ..utils.atomic import atomic_overwrite

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_span",
    "enable",
    "disable",
    "is_enabled",
    "get_tracer",
    "export_jsonl",
    "format_tree",
]


@dataclass
class SpanRecord:
    """One finished span, ready for export."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float          #: monotonic start (perf_counter)
    duration_s: float
    depth: int
    attrs: Dict[str, object] = field(default_factory=dict)
    trace_id: Optional[str] = None
    links: Tuple[Dict[str, object], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "attrs": self.attrs,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.links:
            out["links"] = list(self.links)
        return out


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled.

    Falsy so hot call sites can guard attribute construction entirely:
    ``if sp: sp.set(n_rows=len(rows))``.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def add_link(self, ctx) -> "_NullSpan":
        return self

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """A live, timed span.  Use as a context manager::

        with obs.span("necs.fit") as sp:
            ...
            sp.set(n_instances=len(instances))
    """

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "depth",
                 "trace_id", "links", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: Optional[int],
        depth: int,
        trace_id: Optional[str] = None,
    ):
        self.tracer = tracer
        self.name = name
        self.attrs: Dict[str, object] = {}
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self.depth = depth
        self.trace_id = trace_id
        self.links: Optional[List[Dict[str, object]]] = None
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes (counts, sizes, flags) to the span."""
        self.attrs.update(attrs)
        return self

    def add_link(self, ctx: Optional["_context.TraceContext"]) -> "Span":
        """Link another request's context into this span (batch coalescing)."""
        if ctx is not None:
            if self.links is None:
                self.links = []
            self.links.append(ctx.link())
        return self

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._pop(self, duration)
        return False


class Tracer:
    """Collects finished spans in a bounded ring buffer.

    One process-global tracer exists (:func:`get_tracer`); constructing
    private tracers is supported for tests.  Span nesting is tracked per
    thread, so concurrent threads build independent stacks over the same
    buffer.
    """

    def __init__(self, max_spans: int = 50_000):
        # One lock guards the record ring and the histogram-handle cache.
        # The finish path holds it only around the two container
        # mutations — the clock reads and the histogram observe (which
        # has its own per-instrument lock) stay outside.
        self._records: deque = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._hists: Dict[str, _metrics.Histogram] = {}

    # -- internal ------------------------------------------------------
    def _next_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span, duration_s: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        # Raw tuples on the hot path; records() rehydrates SpanRecords.
        # A dataclass __init__ here costs about as much as everything
        # else in the finish path combined.
        with self._lock:
            self._records.append((
                span.span_id, span.parent_id, span.name,
                span._t0, duration_s, span.depth, span.attrs,
                span.trace_id, tuple(span.links) if span.links else (),
            ))
            hist = self._hist_locked(span.name)
        hist.observe(duration_s)

    def _hist_locked(self, name: str) -> _metrics.Histogram:
        # Cache the per-name duration histogram: the f-string plus the
        # registry lookup would otherwise dominate short spans' cost.
        # Called under the tracer lock so concurrent first-finishers
        # converge on one histogram object (the registry dedupes by name
        # underneath anyway).
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = _metrics.registry().histogram(
                f"span.{name}.duration_s"
            )
        return hist

    # -- public --------------------------------------------------------
    def span(self, name: str) -> Span:
        stack = self._stack()
        ctx = _context.current()
        if stack:
            # Nested span: parent is the innermost live span; the trace id
            # follows the attached context (normally identical to the
            # parent's, but an inner attach wins).
            parent = stack[-1]
            parent_id = parent.span_id
            depth = len(stack)
            trace_id = ctx.trace_id if ctx is not None else parent.trace_id
        elif ctx is not None:
            # Empty stack under an attached context: the cross-thread
            # case.  Hang new spans beneath the span the context captured.
            parent_id = ctx.span_id
            depth = ctx.depth if ctx.span_id is not None else 0
            trace_id = ctx.trace_id
        else:
            parent_id = None
            depth = 0
            trace_id = None
        return Span(self, name, parent_id=parent_id, depth=depth, trace_id=trace_id)

    def records(self) -> List[SpanRecord]:
        """Finished spans, oldest first."""
        with self._lock:
            raw = list(self._records)
        return [SpanRecord(*row) for row in raw]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            # Drop cached histogram handles too: after a registry reset
            # (obs.reset calls both) stale handles would record into
            # objects the registry no longer reports.
            self._hists.clear()

    def __len__(self) -> int:
        return len(self._records)


# ----------------------------------------------------------------------
# Process-global state
# ----------------------------------------------------------------------
_TRACER = Tracer()
#: When None, tracing is disabled and ``span()`` returns NULL_SPAN.
_ACTIVE: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-global tracer (its buffer persists across enable/disable)."""
    return _TRACER


def enable() -> Tracer:
    """Turn span timing on; returns the active tracer."""
    global _ACTIVE
    _ACTIVE = _TRACER
    return _TRACER


def disable() -> None:
    """Turn span timing off (buffered records are kept)."""
    global _ACTIVE
    _ACTIVE = None


def is_enabled() -> bool:
    return _ACTIVE is not None


def span(name: str):
    """A span for ``name`` — or the shared null span while disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name)


def current_span() -> Optional[Span]:
    """The innermost live span on this thread, or None (also when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return None
    stack = tracer._stack()
    return stack[-1] if stack else None


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def export_jsonl(path: Union[str, Path], tracer: Optional[Tracer] = None) -> Path:
    """Write finished spans as JSON-lines, one span per line."""
    tracer = tracer or _TRACER
    path = Path(path)
    # Atomic replace: a reader (or a crash) mid-export never sees a
    # half-written trace, matching how BENCH_*.json and checkpoints land.
    with atomic_overwrite(path, mode="w") as fh:
        for record in tracer.records():
            fh.write(json.dumps(record.to_dict(), default=str) + "\n")
    return path


def format_tree(tracer: Optional[Tracer] = None, min_duration_s: float = 0.0) -> str:
    """Render the span buffer as an indented tree with durations."""
    tracer = tracer or _TRACER
    lines = []
    # The buffer holds spans in *finish* order (children before parents);
    # sorting by monotonic start restores call order for display.
    for record in sorted(tracer.records(), key=lambda r: r.start_s):
        if record.duration_s < min_duration_s:
            continue
        attrs = ""
        if record.attrs:
            attrs = "  " + " ".join(f"{k}={v}" for k, v in sorted(record.attrs.items()))
        lines.append(
            f"{'  ' * record.depth}{record.name:<40s} {record.duration_s * 1e3:9.2f} ms{attrs}"
        )
    return "\n".join(lines)
