"""recommend_closed: read-only recommends in a closed loop, two tenants.

Two tenants serve the same 15-app checkpoint.  Two client threads, each
on its own keep-alive connection, send seeded recommends back to back,
cycling through every (tenant, app) pair at ``test`` scale with the
server-default candidate count (40).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from typing import Dict, List

import checks
import layers
from common import (
    FULL, Client, Recipe, Result, counter_deltas, median, percentile, scrape_counters,
)
from serving import (
    THINK_MAX_S, Call, latency_summary, recommend_payload, setup_summary,
    slo_miss_frac, start_serving, timed_post,
)

TENANTS = ("t0", "t1")
N_CONNECTIONS = 2
#: Responses re-ranked in-process for the bit-identity check.
N_IDENTITY_SAMPLES = 30
#: The timed window is cut into this many equal slices; the gated latency
#: and throughput are medians over slices, so a host hiccup that covers
#: less than half of a run does not move them.
N_SLICES = 4


def request_stream(recipe: Recipe, seed: int):
    """Request ``i`` -> (tenant, app, request seed).

    Every (tenant, app) pair once per cycle, in a fresh seeded order each
    cycle, so which requests meet on the two connections varies within a
    run rather than only between seeds.
    """
    pairs = [(t, w.name) for t in TENANTS for w in recipe.workloads()]
    cycles: Dict[int, List] = {}

    def stream(i: int):
        cycle, pos = divmod(i, len(pairs))
        order = cycles.get(cycle)
        if order is None:
            order = list(pairs)
            random.Random(seed * 1_000_003 + cycle).shuffle(order)
            cycles[cycle] = order
        return order[pos] + ((seed << 24) + i,)
    return stream


def closed_loop(port: int, stream, seconds: float, seed: int) -> List[Call]:
    calls: List[Call] = []
    counter = itertools.count()
    deadline = time.perf_counter() + seconds

    def worker(k: int):
        client = Client(port)
        think = random.Random(seed * 31 + k)
        try:
            while time.perf_counter() < deadline:
                time.sleep(think.uniform(0.0, THINK_MAX_S))
                i = next(counter)
                tenant, app, req_seed = stream(i)
                call = timed_post(client, "/v1/recommend",
                                  recommend_payload(tenant, app, req_seed), "recommend",
                                  meta={"i": i, "tenant": tenant, "app": app, "seed": req_seed})
                calls.append(call)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(N_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    calls.sort(key=lambda c: c.meta["i"])
    return calls


def sliced(calls: List[Call], t0: float, elapsed: float) -> Dict[str, float]:
    """Median over time slices of each slice's p50, p90 and completions/s."""
    width = elapsed / N_SLICES
    stats = {"p50_ms": [], "p90_ms": [], "rps": []}
    for k in range(N_SLICES):
        lo, hi = t0 + k * width, t0 + (k + 1) * width
        done = [c.latency_s * 1e3 for c in calls if c.status == 200 and lo <= c.sent < hi]
        if not done:
            continue
        stats["p50_ms"].append(percentile(done, 50))
        stats["p90_ms"].append(percentile(done, 90))
        stats["rps"].append(len(done) / width)
    return {name: median(values) for name, values in stats.items()}


def run(seed: int, seconds: float, trace: bool, recipe: Recipe = FULL) -> Result:
    if trace:
        return run_traced(seed, seconds, recipe)
    result = Result()
    stream = request_stream(recipe, seed)
    daemon, setup_times, tenants = start_serving(recipe, TENANTS)
    try:
        before = scrape_counters(daemon.port)
        t0 = time.perf_counter()
        calls = closed_loop(daemon.port, stream, seconds, seed)
        elapsed = time.perf_counter() - t0
        server = counter_deltas(before, scrape_counters(daemon.port))
        peak_rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    ok = [c for c in calls if c.status == 200]
    lat = latency_summary(calls)
    gated = sliced(calls, t0, elapsed)
    result.attempted = len(calls)
    result.failed = len(calls) - len(ok)
    result.problems += checks.check_responses(calls, "recommend")

    # Bit-identity against a fresh load of the same checkpoint.
    from repro.core.persistence import load_lite

    rng = random.Random(seed ^ 0x5EED)
    sample = rng.sample(ok, min(N_IDENTITY_SAMPLES, len(ok)))
    fresh = load_lite(tenants[TENANTS[0]])
    result.problems += checks.check_rankings_match(
        fresh, [(c.meta["app"], c.meta["seed"], None, c.body["ranking"]) for c in sample],
        "recommend_closed")

    # Served confs must run: simulate the first answer per (tenant, app).
    firsts: Dict[tuple, Call] = {}
    for c in ok:
        firsts.setdefault((c.meta["tenant"], c.meta["app"]), c)
    sim_failed = sum(1 for c in firsts.values()
                     if not checks.simulate(c.meta["app"], c.body["conf"], c.meta["seed"]).success)
    apps = [w.name for w in recipe.workloads()]
    speedup, eval_failed = checks.eval_speedup(fresh, apps)
    result.attempted += len(firsts)
    result.failed += sim_failed + eval_failed
    holdout = checks.holdout_rel_err(fresh, apps)

    rps = len(ok) / elapsed
    result.put("setup_s", setup_summary(setup_times)["median_s"], "s")
    result.put("latency_p50_ms", gated["p50_ms"], "ms")
    result.put("latency_p90_ms", gated["p90_ms"], "ms")
    result.put("throughput_per_s", gated["rps"], "1/s")
    result.put("tuned_speedup", speedup, "x")
    result.put("holdout_rel_err", holdout, "ratio")
    result.put("peak_rss_mb", peak_rss, "MiB")
    result.report = {
        "named_metrics": {
            "setup_s": (setup_summary(setup_times)["median_s"], "s"),
            "recommend_p50_ms": (lat["p50_ms"], "ms"),
            "recommend_p99_ms": (lat["p99_ms"], "ms"),
            "recommend_rps": (rps, "req/s"),
            "slo_miss_frac": (slo_miss_frac(calls), "ratio"),
            "tuned_speedup": (speedup, "x"),
            "holdout_rel_err": (holdout, "ratio"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "failed_frac": (result.failed / max(1, result.attempted), "ratio"),
        },
        "latency": lat,
        "sliced": gated,
        "setup": setup_summary(setup_times),
        "server_counters": server,
        "requests": {"sent": len(calls), "succeeded": len(ok),
                     "failed": len(calls) - len(ok)},
        "served_confs_simulated": {"runs": len(firsts), "failed": sim_failed},
        "identity_sample": len(sample),
    }
    return result


def run_traced(seed: int, seconds: float, recipe: Recipe) -> Result:
    """Untraced half, then a traced half behind the launcher."""
    stream = request_stream(recipe, seed)
    half = seconds / 2.0
    daemon, _, _ = start_serving(recipe, TENANTS, n_setups=1)
    try:
        plain = closed_loop(daemon.port, stream, half, seed)
    finally:
        daemon.stop()
    spans_path = layers.spans_path("recommend_closed", seed)
    daemon, _, _ = start_serving(recipe, TENANTS, spans_out=spans_path, n_setups=1)
    try:
        before = scrape_counters(daemon.port)
        window0 = time.perf_counter()
        traced = closed_loop(daemon.port, stream, half, seed)
        window1 = time.perf_counter()
        server = counter_deltas(before, scrape_counters(daemon.port))
    finally:
        daemon.stop()
    spans = layers.load_spans(spans_path, window0, window1)
    result = Result()
    result.attempted = len(plain) + len(traced)
    result.failed = sum(1 for c in plain + traced if c.status != 200)
    result.problems += checks.check_responses(plain + traced, "recommend")
    values = layers.serving_layers(spans, traced, plain, server, window1 - window0)
    for name, (value, unit) in values.items():
        result.put(name, value, unit)
    result.report = {"server_counters": server, "spans": len(spans),
                     "requests": {"untraced": len(plain), "traced": len(traced)}}
    return result
