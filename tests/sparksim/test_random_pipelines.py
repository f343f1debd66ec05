"""Property-based fuzzing of the simulator with random RDD pipelines.

Hypothesis composes arbitrary chains of transformations and checks the
invariants that every LITE component relies on: stage artefacts are
well-formed, logical sizes are finite and non-negative, sampled results
match a reference computation, and timing is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sparksim import CLUSTER_A, CLUSTER_C, SparkConf, SparkContext
from repro.sparksim.costmodel import SparkJobError
from repro.sparksim.instrument import DAG_NODE_LABEL

# Each op is (name, apply_fn) operating on a pair-RDD of (int, int).
PAIR_OPS = {
    "mapValues": lambda rdd: rdd.mapValues(lambda v: v + 1),
    "filter": lambda rdd: rdd.filter(lambda kv: kv[1] % 2 == 0),
    "map_swap": lambda rdd: rdd.map(lambda kv: (kv[1] % 7, kv[0])),
    "flatMapValues": lambda rdd: rdd.flatMapValues(lambda v: [v, v + 10]),
    "reduceByKey": lambda rdd: rdd.reduceByKey(lambda a, b: a + b),
    "groupByKey_count": lambda rdd: rdd.groupByKey().mapValues(len),
    "distinct": lambda rdd: rdd.distinct(),
    "sortByKey": lambda rdd: rdd.sortByKey(),
    "keys_pair": lambda rdd: rdd.keys().map(lambda k: (k, 1)),
}

op_names = st.lists(
    st.sampled_from(sorted(PAIR_OPS)), min_size=1, max_size=5
)


def build_pipeline(sc, ops, n_records=40):
    rdd = sc.parallelize([(i % 9, i) for i in range(n_records)], logical_rows=1e6)
    for name in ops:
        rdd = PAIR_OPS[name](rdd)
    return rdd


class TestRandomPipelines:
    @settings(max_examples=40, deadline=None)
    @given(ops=op_names)
    def test_stage_artifacts_always_wellformed(self, ops):
        sc = SparkContext("fuzz", SparkConf(), CLUSTER_A, deterministic=True)
        rdd = build_pipeline(sc, ops)
        rdd.count()
        run = sc.app_run()
        assert run.num_stages >= 1
        valid_labels = set(DAG_NODE_LABEL.values())
        for stage in run.stages:
            assert stage.duration_s > 0 and np.isfinite(stage.duration_s)
            assert stage.num_tasks >= 1
            assert stage.code_tokens
            assert set(stage.dag_node_labels) <= valid_labels
            n = len(stage.dag_node_labels)
            assert all(0 <= i < n and 0 <= j < n for i, j in stage.dag_edges)

    @settings(max_examples=40, deadline=None)
    @given(ops=op_names)
    def test_logical_rows_finite_nonnegative(self, ops):
        sc = SparkContext("fuzz", SparkConf(), CLUSTER_A, deterministic=True)
        rdd = build_pipeline(sc, ops)
        assert np.isfinite(rdd.logical_rows) and rdd.logical_rows >= 0
        assert np.isfinite(rdd.logical_bytes) and rdd.logical_bytes >= 0

    @settings(max_examples=25, deadline=None)
    @given(ops=op_names)
    @example(ops=["flatMapValues"] * 5)   # 768 MB result: over the driver's memory
    def test_sampled_results_match_reference(self, ops):
        """The simulator's sampled execution equals a plain-Python oracle.

        A collect whose full-scale result exceeds the driver limits must
        fail the job instead; everything else must return the oracle's
        records.
        """
        conf = SparkConf()
        sc = SparkContext("fuzz", conf, CLUSTER_A, deterministic=True)
        rdd = build_pipeline(sc, ops)
        result_mb = rdd.logical_bytes / 1e6
        if (result_mb > conf["spark.driver.maxResultSize"]
                or result_mb / 1024.0 > 0.6 * conf["spark.driver.memory"]):
            with pytest.raises(SparkJobError, match="result-size-exceeded|driver-oom"):
                rdd.collect()
            return
        result = sorted(map(repr, rdd.collect()))

        # Oracle: same semantics on plain lists.
        data = [(i % 9, i) for i in range(40)]

        def oracle(records, name):
            if name == "mapValues":
                return [(k, v + 1) for k, v in records]
            if name == "filter":
                return [(k, v) for k, v in records if v % 2 == 0]
            if name == "map_swap":
                return [(v % 7, k) for k, v in records]
            if name == "flatMapValues":
                return [(k, x) for k, v in records for x in (v, v + 10)]
            if name == "reduceByKey":
                acc = {}
                for k, v in records:
                    acc[k] = acc[k] + v if k in acc else v
                return list(acc.items())
            if name == "groupByKey_count":
                acc = {}
                for k, _ in records:
                    acc[k] = acc.get(k, 0) + 1
                return list(acc.items())
            if name == "distinct":
                return list(dict.fromkeys(records))
            if name == "sortByKey":
                return sorted(records, key=lambda kv: kv[0])
            if name == "keys_pair":
                return [(k, 1) for k, _ in records]
            raise AssertionError(name)

        expected = data
        for name in ops:
            expected = oracle(expected, name)
        assert sorted(map(repr, expected)) == result

    @settings(max_examples=20, deadline=None)
    @given(ops=op_names, seed=st.integers(0, 100))
    def test_timing_deterministic_per_seed(self, ops, seed):
        def run_once():
            sc = SparkContext("fuzz", SparkConf(), CLUSTER_C, seed=seed)
            build_pipeline(sc, ops).count()
            return sc.total_time_s

        assert run_once() == run_once()

    @settings(max_examples=20, deadline=None)
    @given(ops=op_names)
    def test_shuffle_count_matches_stage_count(self, ops):
        sc = SparkContext("fuzz", SparkConf(), CLUSTER_A, deterministic=True)
        rdd = build_pipeline(sc, ops)
        rdd.count()
        run = sc.app_run()
        # groupByKey_count and keys_pair wrap extra narrow ops; shuffle ops
        # are the stage-boundary creators.
        shuffle_ops = sum(
            1 for name in ops
            if name in ("reduceByKey", "groupByKey_count", "distinct", "sortByKey")
        )
        assert run.num_stages == shuffle_ops + 1
