"""Benchmark entry point.

    python3 perfbench/run.py --workload recommend_closed --seed 1 --seconds 20 --trace 0

Workloads: ``recommend_closed``, ``online_loop``, ``offline_train`` (see
``perfbench/FINDINGS.md``).  With ``--trace 0`` the run measures the
untraced system and reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run.  Human-readable lines and
a full JSON report (``.perfbench_build/results/``) come first; the last
stdout line is the result object.  Any failed correctness check prints
the problems to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common
import layers

WORKLOADS = ("recommend_closed", "online_loop", "offline_train")
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "tuned_speedup": "x",
    "holdout_rel_err": "ratio",
    "peak_rss_mb": "MiB",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 recipe: common.Recipe = common.FULL) -> common.Result:
    if name == "recommend_closed":
        import closed as module
    elif name == "online_loop":
        import online as module
    else:
        import offline as module
    return module.run(seed, seconds, trace, recipe)


def result_line(result: common.Result, trace: bool) -> dict:
    names = layers.PER_LAYER if trace else END_TO_END
    missing = [n for n in names if n not in result.metrics]
    if missing:
        raise common.BenchError(f"metrics not measured: {missing}")
    return {
        "correct": not result.problems,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {n: {"value": result.metrics[n][0], "unit": result.metrics[n][1]}
                    for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="LITE repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_sources()
        t0 = time.perf_counter()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(result, bool(args.trace))
    except common.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    report = {
        "provenance": common.provenance(args.workload, args.seed, args.seconds, bool(args.trace)),
        "wall_s": time.perf_counter() - t0,
        "result": line,
        "problems": result.problems,
        "details": result.report,
    }
    out_dir = common.BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, default=str))

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"wall={report['wall_s']:.1f}s report={out.relative_to(common.ROOT)}")
    for name, (value, unit) in result.report.get("named_metrics", {}).items():
        print(f"  {name:<20} {value:14.4f} {unit}")
    for name, (value, unit) in result.metrics.items():
        print(f"  [{'layer' if args.trace else 'e2e'}] {name:<28} {value:14.4f} {unit}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
