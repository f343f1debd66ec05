"""MicroBatcher: contention-only window, coalescing, ordering, error delivery."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.serve import batching
from repro.serve.batching import MicroBatcher


class TestMicroBatcher:
    def test_single_submit_returns_its_result(self):
        batcher = MicroBatcher(window_s=0.0)
        assert batcher.submit("k", 3, lambda items: [x * 2 for x in items]) == 6

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(window_s=-0.001)

    def test_submits_behind_a_running_batch_coalesce_into_the_next(self, monkeypatch):
        # The hold-open window is replaced by an event the test controls,
        # so which submits share a batch does not depend on timing.
        holds, close_window = [], threading.Event()

        def hold(seconds):
            holds.append(seconds)
            close_window.wait(10)

        monkeypatch.setattr(batching, "time", SimpleNamespace(sleep=hold))
        batcher = MicroBatcher(window_s=0.2)
        calls = []
        first_running, release_first = threading.Event(), threading.Event()

        def run_batch(items):
            calls.append(list(items))
            if items == [0]:
                first_running.set()
                assert release_first.wait(10)
            return [x + 100 for x in items]

        def wait_for(condition):
            deadline = time.monotonic() + 10
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.001)

        def open_items():
            batch = batcher._pending.get("k")
            return len(batch.items) if batch is not None else 0

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(batcher.submit, "k", 0, run_batch)]
            assert first_running.wait(10)
            # Nothing else was running, so the first leader did not hold.
            assert holds == []
            for x in (1, 2, 3):
                futures.append(pool.submit(batcher.submit, "k", x, run_batch))
                wait_for(lambda: open_items() == x)
            # Only the leader opened behind a running batch held the window.
            assert holds == [0.2]
            close_window.set()
            wait_for(lambda: len(calls) == 2)
            release_first.set()
            results = [f.result(timeout=10) for f in futures]

        assert calls == [[0], [1, 2, 3]]
        assert results == [100, 101, 102, 103]
        assert batcher._running == {}

    def test_idle_leader_does_not_hold_the_window(self):
        batcher = MicroBatcher(window_s=10.0)
        t0 = time.perf_counter()
        assert batcher.submit("k", 1, lambda items: [x * 2 for x in items]) == 2
        assert time.perf_counter() - t0 < 1.0

    def test_distinct_keys_do_not_coalesce(self):
        batcher = MicroBatcher(window_s=0.1)
        calls = []
        barrier = threading.Barrier(2)

        def run_batch(items):
            calls.append(list(items))
            return list(items)

        def submit(key, x):
            barrier.wait()
            return batcher.submit(key, x, run_batch)

        with ThreadPoolExecutor(max_workers=2) as pool:
            a = pool.submit(submit, "ka", 1)
            b = pool.submit(submit, "kb", 2)
            assert a.result() == 1 and b.result() == 2
        assert sorted(map(tuple, calls)) == [(1,), (2,)]

    def test_runner_error_is_delivered_to_every_member(self):
        batcher = MicroBatcher(window_s=0.2)
        barrier = threading.Barrier(3)

        def boom(items):
            raise RuntimeError("model exploded")

        def submit(x):
            barrier.wait()
            with pytest.raises(RuntimeError, match="model exploded"):
                batcher.submit("k", x, boom)
            return True

        with ThreadPoolExecutor(max_workers=3) as pool:
            assert all(pool.map(submit, range(3)))

    def test_result_length_mismatch_is_an_error(self):
        batcher = MicroBatcher(window_s=0.0)
        with pytest.raises(RuntimeError, match="0 results for 1 items"):
            batcher.submit("k", 1, lambda items: [])

    @pytest.mark.parametrize("runner", [
        pytest.param(lambda items: 1 / 0, id="runner-error"),
        pytest.param(lambda items: [], id="length-mismatch"),
    ])
    def test_running_count_returns_to_zero_after_a_failed_batch(self, runner):
        batcher = MicroBatcher(window_s=10.0)
        with pytest.raises((ZeroDivisionError, RuntimeError)):
            batcher.submit("k", 1, runner)
        assert batcher._running == {}
        # The key is idle again, so the next leader runs without holding.
        t0 = time.perf_counter()
        assert batcher.submit("k", 2, lambda items: list(items)) == 2
        assert time.perf_counter() - t0 < 1.0
