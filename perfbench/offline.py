"""offline_train: collect the corpus, train LITE, save it; no daemon.

The timed unit is one full pipeline — ``collect_training_runs`` over the
15 apps on cluster C, ``LITE.offline_train``, ``save_lite`` — with the
same recipe and seed that make the serving tenants.  It repeats until the
run's seconds are spent (at least three times).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import checks
import layers
from common import (
    BENCH_DIR, BUILD, FULL, ROOT, Recipe, Result, child_env, median,
    percentile, rss_peak_mb, tenant_checkpoint, train_pipeline,
)

MIN_REPEATS = 3
N_SETUPS = 3
#: Seeded recommends per app for the ranking checks.
QUERIES_PER_APP = 2


def prepare(recipe: Recipe = FULL):
    """What precedes the first timed pipeline: imports and the app list."""
    import repro.core.lite  # noqa: F401
    import repro.experiments.collect  # noqa: F401

    return recipe.workloads()


def setup_times(recipe: Recipe) -> list:
    """Wall time of a fresh interpreter that runs :func:`prepare`, N times."""
    which = "FULL" if recipe == FULL else "TINY"
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
            f"import common, offline; offline.prepare(common.{which})")
    times = []
    for _ in range(N_SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=str(ROOT), env=child_env(),
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def queries(recipe: Recipe, seed: int):
    return [(w.name, (seed << 24) + 100 * i + q)
            for i, w in enumerate(recipe.workloads()) for q in range(QUERIES_PER_APP)]


def run(seed: int, seconds: float, trace: bool, recipe: Recipe = FULL) -> Result:
    if trace:
        return run_traced(seed, seconds, recipe)
    result = Result()
    setup = setup_times(recipe)
    prepare(recipe)
    BUILD.mkdir(parents=True, exist_ok=True)
    out = BUILD / f"offline-{seed}.pkl"
    reps, n_runs = [], 0
    t0 = time.perf_counter()
    while len(reps) < MIN_REPEATS or time.perf_counter() - t0 < seconds:
        lite, runs, secs = train_pipeline(recipe, out)
        reps.append(secs)
        n_runs = len(runs)
    peak_rss = rss_peak_mb(os.getpid())
    result.attempted = len(reps)

    # Saved checkpoint == in-memory model == the serving tenants' recipe.
    from repro.core.persistence import load_lite

    saved = load_lite(out)
    serving = load_lite(tenant_checkpoint(recipe))
    qs = queries(recipe, seed)
    expected = [(app, s, None, checks.canonical_ranking(checks.recommend_direct(lite, app, s)))
                for app, s in qs]
    result.problems += checks.check_rankings_match(saved, expected, "saved checkpoint")
    result.problems += checks.check_rankings_match(serving, expected, "serving tenant")
    out.unlink()

    apps = [w.name for w in recipe.workloads()]
    speedup, result.failed = checks.eval_speedup(lite, apps)
    result.attempted += len(apps) * checks.EVAL_PER_APP
    holdout = checks.holdout_rel_err(lite, apps)

    train_s = median(reps)
    result.put("setup_s", median(setup), "s")
    result.put("latency_p50_ms", 1e3 * train_s, "ms")
    result.put("latency_p90_ms", 1e3 * percentile(reps, 90), "ms")
    result.put("throughput_per_s", n_runs / train_s, "1/s")
    result.put("tuned_speedup", speedup, "x")
    result.put("holdout_rel_err", holdout, "ratio")
    result.put("peak_rss_mb", peak_rss, "MiB")
    result.report = {
        "named_metrics": {
            "setup_s": (median(setup), "s"),
            "train_s": (train_s, "s"),
            "holdout_rel_err": (holdout, "ratio"),
            "tuned_speedup": (speedup, "x"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "failed_frac": (result.failed / max(1, result.attempted), "ratio"),
        },
        "repeats_s": reps,
        "corpus_runs": n_runs,
        "setup": {"median_s": median(setup), "all_s": setup},
    }
    return result


def run_traced(seed: int, seconds: float, recipe: Recipe) -> Result:
    """Two untraced pipelines (the first warms the process), one traced
    pipeline, then a traced ``load_lite`` of its checkpoint."""
    import spans

    BUILD.mkdir(parents=True, exist_ok=True)
    out = BUILD / f"offline-trace-{seed}.pkl"
    prepare(recipe)
    for _ in range(2):
        _, _, plain_s = train_pipeline(recipe, out)
    store = spans.SpanStore()
    spans.install(store)
    _, _, traced_s = train_pipeline(recipe, out)
    from repro.core import persistence

    persistence.load_lite(out)
    out.unlink()
    result = Result()
    result.attempted = 3
    for name, (value, unit) in layers.offline_layers(store.spans, traced_s, plain_s).items():
        result.put(name, value, unit)
    result.report = {"spans": len(store.spans), "untraced_s": plain_s, "traced_s": traced_s}
    return result
