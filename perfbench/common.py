"""Shared plumbing for the benchmark: recipe, build cache, daemon, client.

Everything here reads and writes inside the checkout the benchmark runs
from: sources under ``src/``, generated artefacts under
``.perfbench_build/`` (listed in ``.gitignore``).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".perfbench_build"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, daemon died, ...)."""


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a full checkout")


# ---------------------------------------------------------------------------
# Tenant recipe
# ---------------------------------------------------------------------------
#: Seed of the tenant recipe (the corpus and model seeds); fixed so every
#: workload seed serves the same model and only the request stream varies.
RECIPE_SEED = 7
CLUSTER = "C"
SERVE_SCALE = "test"


@dataclass(frozen=True)
class Recipe:
    """How one tenant checkpoint is made (:data:`FULL`; :data:`TINY` for the self-test)."""

    apps: Optional[Tuple[str, ...]] = None        # None = all 15
    scales: Optional[Tuple[str, ...]] = None      # None = TRAIN_SCALES
    confs_per_cell: Optional[int] = None          # None = library default
    necs_epochs: int = 4
    update_epochs: int = 2

    def lite_config(self):
        from repro.core.lite import LITEConfig
        from repro.core.necs import NECSConfig
        from repro.core.update import UpdateConfig

        return LITEConfig(
            necs=NECSConfig(epochs=self.necs_epochs),
            update=UpdateConfig(epochs=self.update_epochs),
        )

    def workloads(self):
        from repro.workloads import all_workloads, get_workload

        if self.apps is None:
            return all_workloads()
        return [get_workload(a) for a in self.apps]

    def collect(self):
        from repro.experiments.collect import collect_training_runs
        from repro.sparksim.cluster import get_cluster

        kwargs = {}
        if self.scales is not None:
            kwargs["scales"] = self.scales
        if self.confs_per_cell is not None:
            kwargs["confs_per_cell"] = self.confs_per_cell
        return collect_training_runs(
            workloads=self.workloads(), clusters=[get_cluster(CLUSTER)],
            seed=RECIPE_SEED, **kwargs,
        )

    def key(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


FULL = Recipe()
TINY = Recipe(apps=("WordCount", "PageRank"), scales=("train0", "train1"),
              confs_per_cell=3, necs_epochs=1, update_epochs=1)


#: Library defaults this benchmark changes, each with the reason.  Every
#: other LITEConfig / NECSConfig / UpdateConfig / ServiceConfig field keeps
#: its library default.
CONFIG_CHANGES = {
    "NECSConfig.epochs": {
        "default": 18, "used": FULL.necs_epochs,
        "why": "an 18-epoch fit of the 15-app corpus takes ~16 s on 2 CPUs, "
               "too long to repeat offline_train within one run",
    },
    "UpdateConfig.epochs": {
        "default": 10, "used": FULL.update_epochs,
        "why": "a 10-epoch adaptive update takes ~11 s on 2 CPUs, so a run "
               "would see at most one update in online_loop",
    },
}


def train_pipeline(recipe: Recipe, out: Path):
    """Collect the corpus, ``LITE.offline_train``, ``save_lite``.

    Returns ``(lite, runs, seconds)`` where ``seconds`` covers all three
    steps — the offline_train workload's timed section.
    """
    from repro.core.lite import LITE
    from repro.core.persistence import save_lite

    t0 = time.perf_counter()
    runs = recipe.collect()
    lite = LITE(recipe.lite_config()).offline_train(runs)
    save_lite(lite, out)
    return lite, runs, time.perf_counter() - t0


def source_digest() -> str:
    """Hash of the package sources and this recipe: the build-cache key."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    h.update(Path(__file__).read_bytes())
    return h.hexdigest()[:16]


def tenant_checkpoint(recipe: Recipe) -> Path:
    """The recipe's trained checkpoint, built once per checkout.

    Like a compiled binary, the checkpoint is a build product of the
    sources: the first run in a checkout trains and saves it (untimed),
    later runs reuse it.  The offline_train workload times exactly this
    recipe.
    """
    digest = hashlib.sha256((source_digest() + recipe.key()).encode()).hexdigest()[:16]
    path = BUILD / f"tenant-{digest}.pkl"
    if not path.is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        print(f"building tenant checkpoint {path.name} ...", file=sys.stderr, flush=True)
        train_pipeline(recipe, path)   # save_lite writes atomically
    return path


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Daemon process
# ---------------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def rss_peak_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


_PORT_RE = re.compile(r"http://[^:]+:(\d+)")


class Daemon:
    """``repro serve`` in a child process (optionally behind the launcher).

    The daemon binds an OS-assigned port and prints it; ``start`` returns
    once ``GET /v1/health`` answers 200.  ``stop`` interrupts it the way
    Ctrl-C would and waits until it has exited.
    """

    def __init__(self, tenants: Dict[str, Path], spans_out: Optional[Path] = None):
        self.tenants = tenants
        self.spans_out = spans_out
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def command(self) -> List[str]:
        serve = ["serve", "--port", "0"]
        for name, path in self.tenants.items():
            serve += ["--model", f"{name}={path}"]
        if self.spans_out is None:
            return [sys.executable, "-m", "repro.cli"] + serve
        return [sys.executable, str(BENCH_DIR / "launcher.py"),
                "--spans-out", str(self.spans_out), "--"] + serve

    def start(self, timeout_s: float = 60.0) -> "Daemon":
        self.proc = subprocess.Popen(
            self.command(), cwd=str(ROOT), env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        match = _PORT_RE.search(line)
        if not match:
            self.stop()
            raise BenchError(f"daemon did not report its port: {line!r}")
        self.port = int(match.group(1))
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                client = Client(self.port)
                status, _ = client.get_json("/v1/health")
                client.close()
                if status == 200:
                    return self
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise BenchError("daemon never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return rss_peak_mb(self.proc.pid)

    def stop(self, timeout_s: float = 30.0) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------
class Client:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int, timeout_s: float = 120.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)

    def _request(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        return self._request("POST", path, body)

    def post_json(self, path: str, payload: Dict) -> Tuple[int, Dict]:
        status, raw = self.post(path, json.dumps(payload).encode())
        return status, json.loads(raw)

    def get_json(self, path: str) -> Tuple[int, Dict]:
        status, raw = self._request("GET", path, None)
        return status, json.loads(raw)

    def get_text(self, path: str) -> Tuple[int, str]:
        status, raw = self._request("GET", path, None)
        return status, raw.decode()

    def close(self) -> None:
        self.conn.close()


#: Server-side counters scraped from ``/v1/metrics`` around a phase.
SERVER_COUNTERS = {
    "batches": "repro_serve_batches_total",
    "coalesced": "repro_serve_coalesced_requests_total",
    "cache_hit": "repro_serving_template_cache_hit_total",
    "cache_miss": "repro_serving_template_cache_miss_total",
    "cache_invalidation": "repro_serving_template_cache_invalidation_total",
    "updates_triggered": "repro_feedback_updates_triggered_total",
    "overload": "repro_serve_overload_rejections_total",
}


def scrape_counters(port: int) -> Dict[str, float]:
    """Current values of :data:`SERVER_COUNTERS` (absent counters are 0)."""
    client = Client(port)
    try:
        status, text = client.get_text("/v1/metrics")
    finally:
        client.close()
    if status != 200:
        raise BenchError(f"/v1/metrics answered {status}")
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        values[name] = values.get(name, 0.0) + float(value)
    return {key: values.get(prom, 0.0) for key, prom in SERVER_COUNTERS.items()}


def counter_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in before}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "config_changes": CONFIG_CHANGES,
    }


@dataclass
class Result:
    """One run's outcome: what the last stdout line is built from."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
