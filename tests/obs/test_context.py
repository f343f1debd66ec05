"""Trace context: capture/attach handles and cross-thread stitching.

The context module's whole job is to carry one trace id across the
boundary thread-locals cannot cross — the MicroBatcher's follower ->
leader handoff (another thread).  These tests drive it with real threads
and assert every resulting span shares the request's trace id.
"""

from __future__ import annotations

import threading

from repro import obs
from repro.obs import context
from repro.obs import names as obsn


class TestContextBasics:
    def test_detached_by_default(self):
        assert context.current() is None
        assert context.current_trace_id() is None
        assert context.capture() is None

    def test_request_attaches_and_restores(self):
        with context.request("cafe000000000001") as ctx:
            assert context.current() is ctx
            assert context.current_trace_id() == "cafe000000000001"
        assert context.current() is None

    def test_request_mints_when_no_id_given(self):
        with context.request() as ctx:
            assert len(ctx.trace_id) == 16
            int(ctx.trace_id, 16)   # hex or raise

    def test_attach_none_runs_detached(self):
        with context.request("cafe000000000002"):
            with context.attach(None):
                assert context.current() is None
                assert context.capture() is None
            # The outer context comes back on exit.
            assert context.current_trace_id() == "cafe000000000002"

    def test_attaches_nest_and_restore(self):
        with context.request("cafe000000000003"):
            inner = context.TraceContext("cafe000000000004")
            with context.attach(inner):
                assert context.current_trace_id() == "cafe000000000004"
            assert context.current_trace_id() == "cafe000000000003"

    def test_new_trace_ids_are_distinct(self):
        ids = {context.new_trace_id() for _ in range(64)}
        assert len(ids) == 64


class TestAnnotations:
    def test_annotations_shared_across_captures(self):
        with context.request("cafe000000000005") as ctx:
            handle = context.capture()
            handle.annotate(batch_size=4)
            context.annotate(coalesced=True)
        # Both writes landed in the one dict the request owns.
        assert ctx.annotations == {"batch_size": 4, "coalesced": True}

    def test_module_annotate_is_noop_when_detached(self):
        context.annotate(ignored=True)   # must not raise
        assert context.current() is None


class TestCrossThreadStitching:
    def test_capture_pins_live_span_and_reparents(self):
        obs.enable_tracing()
        trace_id = "cafe000000000006"
        with context.request(trace_id):
            with obs.span(obsn.SPAN_SERVE_REQUEST) as outer:
                handle = context.capture()
                assert handle.trace_id == trace_id
                assert handle.span_id == outer.span_id

                def worker():
                    with context.attach(handle):
                        with obs.span(obsn.SPAN_SERVE_BATCH_RUN):
                            pass

                t = threading.Thread(target=worker)
                t.start()
                t.join(timeout=10)
        records = {r.name: r for r in obs.get_tracer().records()}
        inner = records[obsn.SPAN_SERVE_BATCH_RUN]
        assert inner.trace_id == trace_id
        assert inner.parent_id == records[obsn.SPAN_SERVE_REQUEST].span_id
        assert inner.depth == records[obsn.SPAN_SERVE_REQUEST].depth + 1

    def test_capture_without_live_span_keeps_context_parent(self):
        obs.enable_tracing()
        with context.request("cafe000000000007"):
            handle = context.capture()
        assert handle.span_id is None
        assert handle.depth == 0

    def test_span_links_recorded(self):
        obs.enable_tracing()
        follower = context.TraceContext("cafe000000000008", span_id=42)
        with context.request("cafe000000000009"):
            with obs.span(obsn.SPAN_SERVE_BATCH_RUN) as sp:
                sp.add_link(follower)
        (rec,) = [
            r for r in obs.get_tracer().records()
            if r.name == obsn.SPAN_SERVE_BATCH_RUN
        ]
        assert rec.links == ({"trace_id": "cafe000000000008", "span_id": 42},)
        assert rec.to_dict()["links"] == [
            {"trace_id": "cafe000000000008", "span_id": 42}
        ]
