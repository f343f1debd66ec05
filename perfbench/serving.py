"""Helpers shared by the two serving workloads (daemon set-up, requests)."""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    CLUSTER, SERVE_SCALE, BenchError, Client, Daemon, Recipe, median,
    tenant_checkpoint,
)

#: Set-ups per run; ``setup_s`` is their median.
N_SETUPS = 3
#: The daemon's declared latency objective (ServiceConfig default).
SLO_S = 0.5
#: Upper end of each client's seeded think time before a request.  The
#: keep-alive stall (FINDINGS.md) ends on a kernel timer tick; without a
#: jittered start a closed loop can lock onto one phase of the tick grid
#: for a whole run, and its median then moves by about one tick (~4 ms on
#: the 2-CPU reference host) between runs.
THINK_MAX_S = 0.004


def features(app: str) -> List[float]:
    from repro.workloads import get_workload

    return [float(x) for x in get_workload(app).data_spec(SERVE_SCALE).features()]


def recommend_payload(tenant: str, app: str, seed: int,
                      n_candidates: Optional[int] = None) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "tenant": tenant, "app": app, "cluster": CLUSTER,
        "data_features": features(app), "seed": seed,
    }
    if n_candidates is not None:
        payload["n_candidates"] = n_candidates
    return payload


def warm_up(port: int, pairs: Sequence[Tuple[str, str]]) -> None:
    """One recommend per (tenant, app): loads each checkpoint, encodes templates."""
    client = Client(port)
    try:
        for i, (tenant, app) in enumerate(pairs):
            status, body = client.post_json("/v1/recommend", recommend_payload(tenant, app, i))
            if status != 200:
                raise BenchError(f"warm-up recommend {tenant}/{app}: {status} {body}")
    finally:
        client.close()


def start_serving(recipe: Recipe, tenant_names: Sequence[str],
                  spans_out: Optional[Path] = None,
                  n_setups: int = N_SETUPS) -> Tuple[Daemon, List[float], Dict[str, Path]]:
    """Set the daemon up ``n_setups`` times; keep the last one running.

    One set-up is: start ``repro serve`` until ``/v1/health`` answers 200,
    then warm up every (tenant, app) pair.  The tenant checkpoint is a
    build product (see :func:`common.tenant_checkpoint`), made before the
    first set-up and not counted in any.
    """
    ckpt = tenant_checkpoint(recipe)
    tenants = {name: ckpt for name in tenant_names}
    apps = [w.name for w in recipe.workloads()]
    pairs = [(t, a) for t in tenant_names for a in apps]
    times: List[float] = []
    daemon: Optional[Daemon] = None
    for i in range(n_setups):
        t0 = time.perf_counter()
        daemon = Daemon(tenants, spans_out=spans_out).start()
        try:
            warm_up(daemon.port, pairs)
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - t0)
        if i < n_setups - 1:
            daemon.stop()
    return daemon, times, tenants


@dataclass
class Call:
    """One client request as the client saw it.

    The response body is kept as bytes and parsed on first use, after the
    timed section, so the load generator spends as little CPU as possible
    next to the daemon it measures.
    """

    kind: str                 # "recommend" | "feedback"
    start: float              # perf_counter when due (open loop) or sent
    sent: float               # perf_counter when sent
    end: float
    status: int
    raw: bytes = b"{}"
    meta: Optional[Dict] = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start

    @functools.cached_property
    def body(self) -> Dict:
        try:
            return json.loads(self.raw)
        except ValueError as exc:
            return {"error": f"malformed response body: {exc}"}


def timed_post(client: Client, path: str, payload: Dict, kind: str,
               start: Optional[float] = None, meta: Optional[Dict] = None) -> Call:
    body = json.dumps(payload).encode()
    sent = time.perf_counter()
    t0 = sent if start is None else start
    try:
        status, raw = client.post(path, body)
    except OSError as exc:   # transport error
        return Call(kind, t0, sent, time.perf_counter(), 0,
                    json.dumps({"error": repr(exc)}).encode(), meta)
    return Call(kind, t0, sent, time.perf_counter(), status, raw, meta)


def latency_summary(calls: Sequence[Call]) -> Dict[str, float]:
    from common import percentile

    lat = [c.latency_s * 1e3 for c in calls]
    out = {"n": len(lat)}
    if lat:
        out.update(p50_ms=percentile(lat, 50), p90_ms=percentile(lat, 90),
                   p99_ms=percentile(lat, 99), max_ms=max(lat),
                   beyond_p90=len(lat) * 0.10, beyond_p99=len(lat) * 0.01)
    return out


def slo_miss_frac(calls: Sequence[Call]) -> float:
    if not calls:
        return 0.0
    miss = sum(1 for c in calls if c.status != 200 or c.latency_s > SLO_S)
    return miss / len(calls)


def setup_summary(times: Sequence[float]) -> Dict[str, object]:
    return {"median_s": median(times), "all_s": list(times)}
