"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

1. A tiny-size run of each workload, untraced and traced, must pass its
   correctness checks and emit every end-to-end or per-layer metric.
2. Each correctness check must fail when fed a corrupted ranking, conf,
   update flag or speedup.

Exits 0 when everything holds, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import copy
import sys
import traceback

import checks
import common
import run
from serving import Call

SEED = 3
SECONDS = 2.0


def tiny_runs(failures: list) -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            try:
                result = run.run_workload(workload, SEED, SECONDS, trace, common.TINY)
                line = run.result_line(result, trace)
            except Exception:
                failures.append(f"{label}: {traceback.format_exc()}")
                continue
            if not line["correct"]:
                failures.append(f"{label}: checks failed: {result.problems}")
            if line["attempted"] < 1:
                failures.append(f"{label}: nothing attempted")
            print(f"ok   tiny {label}: {len(line['metrics'])} metrics", flush=True)


def expect_problem(failures: list, label: str, problems: list) -> None:
    if problems:
        print(f"ok   {label} -> {problems[0]}")
    else:
        failures.append(f"{label}: corrupted input passed the check")


def corruption(failures: list) -> None:
    from repro.core.persistence import load_lite

    lite = load_lite(common.tenant_checkpoint(common.TINY))
    app = common.TINY.apps[0]
    ranking = checks.canonical_ranking(checks.recommend_direct(lite, app, 11))
    if checks.check_rankings_match(lite, [(app, 11, None, ranking)], "clean"):
        failures.append("a clean ranking failed the bit-identity check")

    bad = copy.deepcopy(ranking)
    bad[0][1] = bad[0][1] * (1 + 1e-12)
    expect_problem(failures, "ranking with one predicted time nudged",
                   checks.check_rankings_match(lite, [(app, 11, None, bad)], "corrupt"))
    bad = copy.deepcopy(ranking)
    knob = sorted(bad[0][0])[0]
    bad[0][0][knob] = bad[0][0][knob] + 1
    expect_problem(failures, "ranking with one knob changed",
                   checks.check_rankings_match(lite, [(app, 11, None, bad)], "corrupt"))
    expect_problem(failures, "ranking sorted descending",
                   checks.check_sorted(list(reversed(ranking)), "corrupt"))
    expect_problem(failures, "non-200 response",
                   checks.check_responses([Call("recommend", 0.0, 0.0, 0.1, 503)], "corrupt"))

    chain = [{"conf": ranking[0][0], "updated": False},
             {"conf": ranking[1][0], "updated": True}]
    if checks.check_chain(chain, copy.deepcopy(chain), 2.0, 2.0):
        failures.append("an identical chain failed the replay check")
    bad = copy.deepcopy(chain)
    bad[1]["conf"] = ranking[0][0]
    expect_problem(failures, "replay with a different conf",
                   checks.check_chain(chain, bad, 2.0, 2.0))
    bad = copy.deepcopy(chain)
    bad[1]["updated"] = False
    expect_problem(failures, "replay with an update missing",
                   checks.check_chain(chain, bad, 2.0, 2.0))
    expect_problem(failures, "replay with a different speedup",
                   checks.check_chain(chain, copy.deepcopy(chain), 2.0, 2.0000000001))
    expect_problem(failures, "replay with a job missing",
                   checks.check_chain(chain, chain[:1], 2.0, 2.0))


def main() -> int:
    common.require_sources()
    failures: list = []
    corruption(failures)
    tiny_runs(failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
