"""online_loop: a tuning driver writing feedback beside an open-loop reader.

One tenant.  Connection A is a closed-loop tuning driver: per job it
sends a recommend (8 candidates), then ``/v1/feedback`` with the returned
conf, which makes the daemon simulate the run; every 20th feedback (the
library's ``feedback_batch_size``) triggers an adaptive update.  A's job
chain is a fixed scenario: one 20-job update round per 5 s of
``--seconds``, apps in a fixed cycle, fixed request and run seeds.  So
every commit and seed does the same training work, and the chain's
speedup and the updated model's held-out error are deterministic; on a
2-CPU host the chain takes about ``--seconds``.  Connection B sends
recommends (server-default 40 candidates, apps and seeds drawn from the
workload seed) for the same tenant on a fixed schedule while A runs, each
timed from its due time.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List

import checks
import layers
from common import (
    FULL, Client, Recipe, Result, counter_deltas, geomean, median, percentile,
    scrape_counters,
)
from serving import (
    THINK_MAX_S, Call, latency_summary, recommend_payload, setup_summary, slo_miss_frac,
    start_serving, timed_post,
)

TENANT = "t0"
A_CANDIDATES = 8
#: Connection B's schedule.  A keep-alive connection completes about 19
#: recommends/s on an idle 2-CPU daemon; at 8/s the backlog B builds up
#: while an update holds the tenant drains before the next update.
B_RATE_PER_S = 8.0
#: Jobs per adaptive update (LITEConfig.feedback_batch_size default).
ROUND_JOBS = 20
SECONDS_PER_ROUND = 5.0
#: Seed of A's job chain (part of the scenario, not of the workload seed).
CHAIN_SEED = 5


def n_jobs(seconds: float) -> int:
    return ROUND_JOBS * max(2, round(seconds / SECONDS_PER_ROUND))


def job_stream(recipe: Recipe):
    """Job ``j`` -> (app, recommend seed, run seed); apps in a fixed cycle."""
    apps = [w.name for w in recipe.workloads()]
    base = CHAIN_SEED << 24
    return lambda j: (apps[j % len(apps)], base + 2 * j, base + 2 * j + 1)


def read_stream(recipe: Recipe, seed: int):
    apps = [w.name for w in recipe.workloads()]
    rng = random.Random(seed ^ 0xB0B)
    return lambda k: (rng.choice(apps), (seed << 24) + (1 << 23) + k)


def drive(port: int, recipe: Recipe, seed: int, jobs_total: int):
    """Run connections A and B; returns (jobs, reads, lateness_s, elapsed_s)."""
    jobs: List[Dict] = []
    reads: List[Call] = []
    lateness: List[float] = []
    stop = threading.Event()
    jstream, rstream = job_stream(recipe), read_stream(recipe, seed)
    t0 = time.perf_counter()

    def driver_a():
        client = Client(port)
        think = random.Random(seed * 31)
        try:
            for j in range(jobs_total):
                app, rec_seed, run_seed = jstream(j)
                time.sleep(think.uniform(0.0, THINK_MAX_S))
                rec = timed_post(client, "/v1/recommend",
                                 recommend_payload(TENANT, app, rec_seed, A_CANDIDATES),
                                 "recommend")
                job = {"j": j, "app": app, "rec_seed": rec_seed, "run_seed": run_seed,
                       "recommend": rec, "feedback": None}
                jobs.append(job)
                if rec.status != 200:
                    continue
                conf = rec.body["conf"]
                job["conf"] = conf
                job["feedback"] = timed_post(client, "/v1/feedback", {
                    "tenant": TENANT, "app": app, "cluster": "C", "conf": conf,
                    "scale": "test", "seed": run_seed,
                }, "feedback")
                job["latency_s"] = job["feedback"].end - rec.sent
        finally:
            stop.set()
            client.close()

    def reader_b():
        client = Client(port)
        try:
            k = 0
            while not stop.is_set():
                due = t0 + k / B_RATE_PER_S
                now = time.perf_counter()
                if due > now:
                    if stop.wait(due - now):
                        break
                app, req_seed = rstream(k)
                lateness.append(time.perf_counter() - due)
                reads.append(timed_post(client, "/v1/recommend",
                                        recommend_payload(TENANT, app, req_seed), "recommend",
                                        start=due, meta={"app": app, "seed": req_seed}))
                k += 1
        finally:
            client.close()

    threads = [threading.Thread(target=driver_a), threading.Thread(target=reader_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, reads, lateness, time.perf_counter() - t0


def served_chain(jobs: List[Dict]) -> List[Dict]:
    return [{"conf": j.get("conf"),
             "updated": bool(j["feedback"] and j["feedback"].body.get("updated")),
             "run_time_s": j["feedback"].body.get("run_time_s") if j["feedback"] else None,
             "run_success": bool(j["feedback"] and j["feedback"].body.get("run_success"))}
            for j in jobs]


def chain_speedup(jobs: List[Dict], chain: List[Dict], default_times) -> float:
    outcomes = [(job["app"], job["run_seed"], link["run_time_s"])
                for job, link in zip(jobs, chain) if link["run_success"]]
    return geomean(checks.speedups(outcomes, default_times))


def replay(ckpt, jobs: List[Dict], recipe: Recipe):
    """Re-run A's chain in-process on a pristine load of the checkpoint.

    Returns the replayed chain and the held-out error of the model the
    chain's updates produced.
    """
    import json

    from repro.core.persistence import load_lite

    lite = load_lite(ckpt)
    chain = []
    for job in jobs:
        rec = checks.recommend_direct(lite, job["app"], job["rec_seed"], A_CANDIDATES)
        conf = json.loads(json.dumps(rec.conf.as_dict()))
        run_ = checks.simulate(job["app"], conf, job["run_seed"])
        updated = lite.feedback(run_)
        chain.append({"conf": conf, "updated": updated,
                      "run_time_s": run_.duration_s, "run_success": run_.success})
    apps = [w.name for w in recipe.workloads()]
    return chain, checks.holdout_rel_err(lite, apps)


def median_round_rate(jobs: List[Dict]) -> float:
    """Median over update rounds of jobs/s; a round is ``ROUND_JOBS`` jobs
    ending in the feedback that retrains.  The rounds are the same work in
    every run, and the median ignores a host hiccup inside one round."""
    rates = []
    for r in range(len(jobs) // ROUND_JOBS):
        first, last = jobs[r * ROUND_JOBS], jobs[(r + 1) * ROUND_JOBS - 1]
        if last["feedback"] is None:
            continue
        rates.append(ROUND_JOBS / (last["feedback"].end - first["recommend"].sent))
    return median(rates)


def summarize(jobs, reads) -> Dict[str, object]:
    recs = [j["recommend"] for j in jobs] + list(reads)
    fbs = [j["feedback"] for j in jobs if j["feedback"] is not None]
    plain_fb = [c.latency_s * 1e3 for c in fbs if c.status == 200 and not c.body.get("updated")]
    upd_fb = [c.latency_s * 1e3 for c in fbs if c.status == 200 and c.body.get("updated")]
    return {
        "recs": recs, "fbs": fbs,
        "feedback_p50_ms": median(plain_fb) if plain_fb else float("nan"),
        "update_p50_ms": median(upd_fb) if upd_fb else float("nan"),
        "n_updates": len(upd_fb),
    }


def run(seed: int, seconds: float, trace: bool, recipe: Recipe = FULL) -> Result:
    if trace:
        return run_traced(seed, seconds, recipe)
    result = Result()
    daemon, setup_times, tenants = start_serving(recipe, (TENANT,))
    try:
        before = scrape_counters(daemon.port)
        jobs, reads, lateness, elapsed = drive(daemon.port, recipe, seed, n_jobs(seconds))
        server = counter_deltas(before, scrape_counters(daemon.port))
        peak_rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    s = summarize(jobs, reads)
    calls = s["recs"] + s["fbs"]
    result.attempted = len(calls)
    result.failed = sum(1 for c in calls if c.status != 200)
    result.problems += checks.check_responses(s["recs"], "recommend")
    chain = served_chain(jobs)
    run_failures = sum(1 for link in chain if link["conf"] is not None and not link["run_success"])
    result.failed += run_failures

    default_times = checks.DefaultTimes()
    replayed, holdout = replay(tenants[TENANT], jobs, recipe)
    speedup = chain_speedup(jobs, chain, default_times)
    result.problems += checks.check_chain(chain, replayed, speedup,
                                          chain_speedup(jobs, replayed, default_times))

    lat = latency_summary(reads)
    a_calls = [j["recommend"] for j in jobs] + s["fbs"]
    a_lat = latency_summary(a_calls)
    job_ms = [j["latency_s"] * 1e3 for j in jobs if "latency_s" in j]
    done = sum(1 for j in jobs if j["feedback"] is not None and j["feedback"].status == 200)
    jobs_per_s = done / elapsed
    round_rate = median_round_rate(jobs)
    setup = setup_summary(setup_times)
    result.put("setup_s", setup["median_s"], "s")
    result.put("latency_p50_ms", percentile(job_ms, 50), "ms")
    result.put("latency_p90_ms", percentile(job_ms, 90), "ms")
    result.put("throughput_per_s", round_rate, "1/s")
    result.put("tuned_speedup", speedup, "x")
    result.put("holdout_rel_err", holdout, "ratio")
    result.put("peak_rss_mb", peak_rss, "MiB")
    all_recs = latency_summary(s["recs"])
    result.report = {
        "named_metrics": {
            "setup_s": (setup["median_s"], "s"),
            "recommend_p50_ms": (all_recs["p50_ms"], "ms"),
            "recommend_p99_ms": (all_recs["p99_ms"], "ms"),
            "slo_miss_frac": (slo_miss_frac(s["recs"]), "ratio"),
            "feedback_p50_ms": (s["feedback_p50_ms"], "ms"),
            "update_p50_ms": (s["update_p50_ms"], "ms"),
            "jobs_per_s": (jobs_per_s, "jobs/s"),
            "tuned_speedup": (speedup, "x"),
            "holdout_rel_err": (holdout, "ratio"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "failed_frac": (result.failed / max(1, result.attempted), "ratio"),
        },
        "jobs_per_s_overall": jobs_per_s,
        "latency_jobs": {"n": len(job_ms), "p50_ms": percentile(job_ms, 50),
                         "p90_ms": percentile(job_ms, 90), "max_ms": max(job_ms)},
        "latency_recommends_all": all_recs,
        "latency_reads_b": lat,
        "latency_requests_a": a_lat,
        "generator_late_p99_ms": 1e3 * percentile(lateness, 99) if lateness else 0.0,
        "setup": setup,
        "server_counters": server,
        "requests": {
            "recommend": {"sent": len(s["recs"]), "failed": sum(c.status != 200 for c in s["recs"])},
            "feedback": {"sent": len(s["fbs"]), "failed": sum(c.status != 200 for c in s["fbs"])},
        },
        "jobs": len(jobs), "updates": s["n_updates"], "run_failures": run_failures,
    }
    return result


def run_traced(seed: int, seconds: float, recipe: Recipe) -> Result:
    """Untraced half, then a traced half behind the launcher."""
    half = n_jobs(seconds / 2.0)
    daemon, _, _ = start_serving(recipe, (TENANT,), n_setups=1)
    try:
        plain_jobs, plain_reads, _, _ = drive(daemon.port, recipe, seed, half)
    finally:
        daemon.stop()
    spans_path = layers.spans_path("online_loop", seed)
    daemon, _, _ = start_serving(recipe, (TENANT,), spans_out=spans_path, n_setups=1)
    try:
        before = scrape_counters(daemon.port)
        window0 = time.perf_counter()
        jobs, reads, lateness, elapsed = drive(daemon.port, recipe, seed, half)
        window1 = time.perf_counter()
        server = counter_deltas(before, scrape_counters(daemon.port))
    finally:
        daemon.stop()
    spans = layers.load_spans(spans_path, window0, window1)
    traced, plain = summarize(jobs, reads), summarize(plain_jobs, plain_reads)
    result = Result()
    all_calls = traced["recs"] + traced["fbs"] + plain["recs"] + plain["fbs"]
    result.attempted = len(all_calls)
    result.failed = sum(1 for c in all_calls if c.status != 200)
    result.problems += checks.check_responses(traced["recs"] + plain["recs"], "recommend")
    values = layers.serving_layers(spans, traced["recs"] + traced["fbs"],
                                   plain["recs"] + plain["fbs"], server, window1 - window0,
                                   lateness=lateness)
    for name, (value, unit) in values.items():
        result.put(name, value, unit)
    result.report = {"server_counters": server, "spans": len(spans),
                     "jobs": {"untraced": len(plain_jobs), "traced": len(jobs)}}
    return result
