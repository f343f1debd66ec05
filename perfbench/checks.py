"""Correctness checks and model-quality measures (all untimed).

Each ``check_*`` returns a list of problems; an empty list means the
check passed.  The self-test feeds each one a corrupted ranking or conf
and requires a non-empty list.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from common import CLUSTER, SERVE_SCALE, geomean, median


def canonical_ranking(rec) -> List:
    """A library Recommendation's ranking as the daemon serialises it."""
    return json.loads(json.dumps([[conf.as_dict(), t] for conf, t in rec.ranking]))


def check_sorted(ranking: Sequence, label: str) -> List[str]:
    times = [t for _, t in ranking]
    if not times:
        return [f"{label}: empty ranking"]
    if any(b < a for a, b in zip(times, times[1:])):
        return [f"{label}: ranking not sorted ascending by predicted time"]
    return []


def check_responses(calls, label: str) -> List[str]:
    """Every recommend answered 200 with an ascending ranking."""
    problems: List[str] = []
    for i, call in enumerate(calls):
        if call.status != 200:
            problems.append(f"{label} request {i}: status {call.status} {call.body}")
            continue
        problems += check_sorted(call.body.get("ranking", []), f"{label} request {i}")
    return problems


def recommend_direct(lite, app: str, seed: int, n_candidates: Optional[int] = None):
    from repro.sparksim.cluster import get_cluster
    from repro.utils.rng import get_rng
    from repro.workloads import get_workload

    feats = get_workload(app).data_spec(SERVE_SCALE).features()
    return lite.recommend(app, feats, get_cluster(CLUSTER),
                          n_candidates=n_candidates, rng=get_rng(seed))


def check_rankings_match(lite, samples: Sequence[Tuple[str, int, Optional[int], List]],
                         label: str) -> List[str]:
    """Each ``(app, seed, n_candidates, ranking)`` equals ``LITE.recommend``."""
    problems = []
    for app, seed, n_cand, ranking in samples:
        expected = canonical_ranking(recommend_direct(lite, app, seed, n_cand))
        if expected != ranking:
            problems.append(f"{label}: {app} seed {seed} ranking differs from LITE.recommend")
    return problems


def check_chain(served: Sequence[Dict], replayed: Sequence[Dict],
                served_speedup: float, replayed_speedup: float) -> List[str]:
    """A served job chain against its in-process replay."""
    problems = []
    if len(served) != len(replayed):
        problems.append(f"chain length {len(served)} != replay {len(replayed)}")
    for i, (s, r) in enumerate(zip(served, replayed)):
        if s["conf"] != r["conf"]:
            problems.append(f"job {i}: served conf differs from replay")
        if s["updated"] != r["updated"]:
            problems.append(f"job {i}: served updated={s['updated']} replay={r['updated']}")
    n_s = sum(s["updated"] for s in served)
    n_r = sum(r["updated"] for r in replayed)
    if n_s != n_r:
        problems.append(f"{n_s} updates served, {n_r} in replay")
    if served_speedup != replayed_speedup:
        problems.append(f"tuned_speedup {served_speedup!r} != replay {replayed_speedup!r}")
    return problems


# ---------------------------------------------------------------------------
# Simulated outcomes
# ---------------------------------------------------------------------------
def simulate(app: str, conf_values: Dict, seed: int):
    from repro.sparksim.cluster import get_cluster
    from repro.sparksim.config import SparkConf
    from repro.workloads import get_workload

    return get_workload(app).run(SparkConf(conf_values), get_cluster(CLUSTER),
                                 scale=SERVE_SCALE, seed=seed)


class DefaultTimes:
    """Simulated time of ``SparkConf.default()`` per (app, seed), memoised."""

    def __init__(self):
        self._cache: Dict[Tuple[str, int], float] = {}

    def __call__(self, app: str, seed: int) -> float:
        from repro.sparksim.config import SparkConf

        key = (app, seed)
        if key not in self._cache:
            run = simulate(app, SparkConf.default().as_dict(), seed)
            if not run.success:
                raise RuntimeError(f"default conf fails for {app} seed {seed}")
            self._cache[key] = run.duration_s
        return self._cache[key]


def speedups(outcomes: Sequence[Tuple[str, int, float]], default_times: DefaultTimes) -> List[float]:
    """Default-conf time over recommended-conf time, per successful job."""
    return [default_times(app, seed) / t for app, seed, t in outcomes]


#: Fixed evaluation set for tuned_speedup: seeded recommends per app.
EVAL_SEED = 20222
EVAL_PER_APP = 4


def eval_speedup(lite, apps: Sequence[str]) -> Tuple[float, int]:
    """Geometric-mean speedup of the model's top conf over the default.

    Over :data:`EVAL_PER_APP` seeded recommends per app at the ``test``
    scale; returns ``(speedup, failed_runs)``.
    """
    default_times = DefaultTimes()
    outcomes, failed = [], 0
    for i, app in enumerate(apps):
        for q in range(EVAL_PER_APP):
            seed = EVAL_SEED * 1000 + 10 * i + q
            conf = recommend_direct(lite, app, seed).conf.as_dict()
            run = simulate(app, conf, seed)
            if run.success:
                outcomes.append((app, seed, run.duration_s))
            else:
                failed += 1
    return geomean(speedups(outcomes, default_times)), failed


#: The held-out set is part of the recipe, not of the workload seed: the
#: same runs score every model, so the metric moves only with the model.
HOLDOUT_SEED = 20221
HOLDOUT_PER_APP = 8


def holdout_rel_err(lite, apps: Sequence[str], seed: int = HOLDOUT_SEED,
                    per_app: int = HOLDOUT_PER_APP) -> float:
    """Median |relative error| of predicted app time on held-out runs.

    The held-out runs use seeded random confs at the ``test`` scale, which
    no training cell covers; failed runs are skipped.
    """
    from repro.sparksim.cluster import get_cluster
    from repro.sparksim.config import SparkConf
    from repro.utils.rng import derive
    from repro.workloads import get_workload

    cluster = get_cluster(CLUSTER)
    errs: List[float] = []
    for app in apps:
        wl = get_workload(app)
        feats = wl.data_spec(SERVE_SCALE).features()
        rng = derive(seed, "holdout", app)
        confs = []
        for attempt in range(20 * per_app):
            if len(confs) >= per_app:
                break
            conf = SparkConf.random(rng)
            run = wl.run(conf, cluster, scale=SERVE_SCALE, seed=seed + attempt)
            if run.success:
                confs.append((conf, run.duration_s))
        if not confs:
            continue
        rec = lite.recommender.rank(lite.stage_templates(app), [c for c, _ in confs],
                                    feats, cluster, encoded=lite.encoded_templates(app))
        predicted = {json.dumps(c.as_dict(), sort_keys=True): t for c, t in rec.ranking}
        for conf, actual in confs:
            pred = predicted[json.dumps(conf.as_dict(), sort_keys=True)]
            errs.append(abs(pred - actual) / actual)
    if not errs:
        raise RuntimeError("no successful held-out run")
    return median(errs)
