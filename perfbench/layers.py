"""Per-layer metrics from a traced run's spans.

A span's self time is its duration minus its children's durations (the
children ran on the same thread, inside it).  Client-side numbers come
from the benchmark's own request records; server-side counts from
``/v1/metrics`` deltas.  Every workload reports every name in
:data:`PER_LAYER`; a layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import BUILD, median, percentile

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER: Dict[str, str] = {
    "serve.transport_ms": "ms",
    "serve.batch_wait_ms": "ms",
    "serve.lease_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.coalesced_frac": "ratio",
    "lite.recommend_self_ms": "ms",
    "lite.cache_hit_frac": "ratio",
    "lite.encode_ms": "ms",
    "acg.region_ms": "ms",
    "acg.sample_ms": "ms",
    "acg.hostable_frac": "ratio",
    "rank.self_ms": "ms",
    "instances.numeric_rows_ms": "ms",
    "necs.tower_ms": "ms",
    "necs.rows_per_forward": "count",
    "sparksim.run_ms": "ms",
    "collect.success_frac": "ratio",
    "necs.predict_ms": "ms",
    "drift.record_ms": "ms",
    "update.update_ms": "ms",
    "update.n_target": "count",
    "update.busy_frac": "ratio",
    "necs.fit_s": "s",
    "nn.backward_ms": "ms",
    "nn.optim_step_ms": "ms",
    "acg.fit_s": "s",
    "tree.fit_ms": "ms",
    "tree.fits": "count",
    "persistence.save_s": "s",
    "persistence.load_s": "s",
    "bench.unattributed_ms": "ms",
    "bench.tracing_overhead_frac": "ratio",
    "bench.generator_late_p99_ms": "ms",
}


def spans_path(workload: str, seed: int) -> Path:
    BUILD.mkdir(parents=True, exist_ok=True)
    return BUILD / f"spans-{workload}-{seed}.json"


def load_spans(path: Path, window0: Optional[float] = None,
               window1: Optional[float] = None) -> List[list]:
    with open(path) as fh:
        spans = json.load(fh)
    path.unlink()
    return clip(spans, window0, window1)


def clip(spans: List[list], window0: Optional[float], window1: Optional[float]) -> List[list]:
    """Spans whose root started inside the window (children follow roots).

    ``persistence.load`` spans are kept whatever their time: the daemon
    loads tenants during warm-up, before the window opens.
    """
    if window0 is None:
        return spans
    out, remap = [], {}
    for i, span in enumerate(spans):
        name, _tid, start, _end, parent, _info = span
        if parent >= 0:
            keep = parent in remap
        else:
            keep = window0 <= start <= window1
        if keep or name == "persistence.load":
            remap[i] = len(out)
            out.append([name, _tid, start, _end, remap.get(parent, -1), _info])
    return out


class Profile:
    """Per-name call count, total and self time (seconds), and infos."""

    def __init__(self, spans: Sequence[list]):
        child = [0.0] * len(spans)
        for name, _tid, start, end, parent, _info in spans:
            if parent >= 0:
                child[parent] += end - start
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_: Dict[str, float] = defaultdict(float)
        self.infos: Dict[str, list] = defaultdict(list)
        for i, (name, _tid, start, end, _parent, info) in enumerate(spans):
            self.count[name] += 1
            self.total[name] += end - start
            self.self_[name] += end - start - child[i]
            if info is not None:
                self.infos[name].append(info)

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        n = self.count.get(name, 0)
        if not n:
            return 0.0
        return 1e3 * (self.self_ if self_time else self.total)[name] / n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def zeroed() -> Dict[str, Tuple[float, str]]:
    return {name: (0.0, unit) for name, unit in PER_LAYER.items()}


def serving_layers(spans: Sequence[list], traced_calls, plain_calls,
                   server: Dict[str, float], window_s: float,
                   lateness: Optional[Sequence[float]] = None) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a serving workload's traced window."""
    prof = Profile(spans)
    out = zeroed()

    def put(name: str, value: float) -> None:
        out[name] = (float(value), PER_LAYER[name])

    ok = [c for c in traced_calls if c.status == 200]
    recs = [c for c in ok if c.kind == "recommend"]
    n_calls = len(ok)
    client_s = sum(c.end - c.sent for c in ok)
    service_s = prof.total["serve.service_recommend"] + prof.total["serve.service_feedback"]
    put("serve.transport_ms", 1e3 * _ratio(client_s - service_s, n_calls))
    put("serve.batch_wait_ms", prof.mean_ms("serve.submit", self_time=True))
    put("serve.lease_ms", prof.mean_ms("serve.lease"))
    served = server["batches"] + server["coalesced"]
    put("serve.batch_size_mean", _ratio(served, server["batches"]))
    put("serve.coalesced_frac", _ratio(server["coalesced"], served))
    put("lite.recommend_self_ms", prof.mean_ms("lite.recommend_many", self_time=True))
    put("lite.cache_hit_frac", _ratio(sum(bool(c.body.get("template_cache_hit")) for c in recs), len(recs)))
    put("lite.encode_ms", 1e3 * _ratio(sum(c.body.get("encode_overhead_s", 0.0) for c in recs), len(recs)))
    put("acg.region_ms", prof.mean_ms("acg.region"))
    put("acg.sample_ms", prof.mean_ms("acg.generate", self_time=True))
    hostable = prof.infos["lite.filter_hostable"]
    put("acg.hostable_frac", _ratio(sum(o for _, o in hostable), sum(i for i, _ in hostable)))
    put("rank.self_ms", prof.mean_ms("rank.rank_many", self_time=True))
    put("instances.numeric_rows_ms", prof.mean_ms("instances.numeric_rows"))
    put("necs.tower_ms", prof.mean_ms("necs.predict_encoded"))
    put("necs.rows_per_forward", _ratio(sum(prof.infos["necs.predict_encoded"]),
                                        len(prof.infos["necs.predict_encoded"])))
    put("sparksim.run_ms", prof.mean_ms("sparksim.run"))
    put("necs.predict_ms", prof.mean_ms("necs.predict"))
    put("drift.record_ms", prof.mean_ms("drift.record"))
    put("update.update_ms", prof.mean_ms("update.update"))
    targets = prof.infos["update.update"]
    put("update.n_target", _ratio(sum(targets), len(targets)))
    put("update.busy_frac", _ratio(prof.total["update.update"], window_s))
    put("nn.backward_ms", prof.mean_ms("nn.backward"))
    put("nn.optim_step_ms", prof.mean_ms("nn.optim_step"))
    put("persistence.load_s", prof.mean_ms("persistence.load") / 1e3)
    # What no traced layer covers: the service entry points' own self time
    # (validation, admission, response dicts).  Client wall time equals
    # transport plus every span's self time, so this is the closure gap.
    unattributed = prof.self_["serve.service_recommend"] + prof.self_["serve.service_feedback"]
    put("bench.unattributed_ms", 1e3 * _ratio(unattributed, n_calls))
    traced_med = median([c.end - c.sent for c in traced_calls if c.status == 200] or [0.0])
    plain_med = median([c.end - c.sent for c in plain_calls if c.status == 200] or [0.0])
    put("bench.tracing_overhead_frac", _ratio(traced_med, plain_med))
    if lateness:
        put("bench.generator_late_p99_ms", 1e3 * percentile(lateness, 99))
    return out


def offline_layers(spans: Sequence[list], traced_s: float,
                   plain_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced offline pipeline (plus a load)."""
    prof = Profile(spans)
    out = zeroed()

    def put(name: str, value: float) -> None:
        out[name] = (float(value), PER_LAYER[name])

    put("sparksim.run_ms", prof.mean_ms("sparksim.run"))
    collected = prof.infos["collect.collect"]
    put("collect.success_frac", _ratio(sum(s for _, s in collected), sum(n for n, _ in collected)))
    put("necs.fit_s", prof.mean_ms("necs.fit") / 1e3)
    put("nn.backward_ms", prof.mean_ms("nn.backward"))
    put("nn.optim_step_ms", prof.mean_ms("nn.optim_step"))
    put("necs.predict_ms", prof.mean_ms("necs.predict"))
    put("acg.fit_s", prof.mean_ms("acg.fit") / 1e3)
    put("tree.fit_ms", prof.mean_ms("tree.fit"))
    put("tree.fits", prof.count.get("tree.fit", 0))
    put("persistence.save_s", prof.mean_ms("persistence.save") / 1e3)
    put("persistence.load_s", prof.mean_ms("persistence.load") / 1e3)
    put("bench.unattributed_ms", 1e3 * (traced_s - sum(
        prof.self_[name] for name in prof.self_ if name != "persistence.load")))
    put("bench.tracing_overhead_frac", _ratio(traced_s, plain_s))
    return out
