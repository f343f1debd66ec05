"""Tests for the knob registry and SparkConf."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparksim.config import (
    KNOB_BY_NAME,
    KNOB_NAMES,
    KNOB_SPECS,
    NUM_KNOBS,
    KnobSpec,
    SparkConf,
)


class TestKnobRegistry:
    def test_sixteen_knobs(self):
        # Paper Table IV: 16 performance-aware knobs.
        assert NUM_KNOBS == 16

    def test_names_are_spark_properties(self):
        for name in KNOB_NAMES:
            assert name.startswith("spark.")

    def test_defaults_within_range(self):
        for spec in KNOB_SPECS:
            assert spec.validate(spec.default) == spec.default or spec.kind == "bool"

    def test_registry_lookup(self):
        spec = KNOB_BY_NAME["spark.executor.cores"]
        assert spec.kind == "int"
        assert spec.low >= 1


class TestKnobSpec:
    def test_validate_rejects_out_of_range(self):
        spec = KNOB_BY_NAME["spark.executor.memory"]
        with pytest.raises(ValueError):
            spec.validate(spec.high + 1)

    def test_validate_rounds_ints(self):
        spec = KNOB_BY_NAME["spark.executor.cores"]
        assert spec.validate(3.4) == 3

    def test_clip(self):
        spec = KNOB_BY_NAME["spark.executor.cores"]
        assert spec.clip(-100) == spec.low
        assert spec.clip(1e9) == spec.high

    def test_bool_clip_clamps_before_rounding(self):
        spec = KNOB_BY_NAME["spark.shuffle.compress"]
        # round(-0.6) is -1, which is truthy: clamping must come first.
        assert spec.clip(-0.6) is False
        assert spec.clip(-7.0) is False
        assert spec.clip(0.4) is False and spec.clip(0.6) is True
        assert spec.clip(3.2) is True

    def test_clip_rejects_nan(self):
        with pytest.raises(ValueError):
            KNOB_BY_NAME["spark.executor.cores"].clip(float("nan"))

    def test_clip_many_matches_clip(self):
        values = np.array([-3.0, -0.6, 0.0, 0.5, 1.5, 2.5, 7.49, 1e9])
        for spec in KNOB_SPECS:
            assert spec.clip_many(values) == [spec.clip(v) for v in values]

    def test_bool_roundtrip(self):
        spec = KNOB_BY_NAME["spark.shuffle.compress"]
        assert spec.validate(0) is False
        assert spec.validate(1) is True

    def test_unit_roundtrip(self):
        spec = KNOB_BY_NAME["spark.memory.fraction"]
        for v in (spec.low, spec.high, 0.5 * (spec.low + spec.high)):
            assert spec.from_unit(spec.to_unit(v)) == pytest.approx(v, abs=1e-9)


class TestSparkConf:
    def test_default_values(self):
        conf = SparkConf()
        assert conf["spark.executor.cores"] == 1
        assert conf["spark.shuffle.compress"] is True

    def test_unknown_knob_rejected(self):
        with pytest.raises(KeyError):
            SparkConf({"spark.nonsense": 1})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparkConf({"spark.executor.cores": 99})

    def test_with_updates_does_not_mutate(self):
        base = SparkConf()
        other = base.with_updates({"spark.executor.cores": 4})
        assert base["spark.executor.cores"] == 1
        assert other["spark.executor.cores"] == 4

    def test_vector_roundtrip(self):
        conf = SparkConf({"spark.executor.cores": 7, "spark.memory.fraction": 0.7})
        again = SparkConf.from_vector(conf.to_vector())
        assert again == conf

    def test_hash_equality(self):
        a = SparkConf({"spark.executor.cores": 4})
        b = SparkConf({"spark.executor.cores": 4})
        assert a == b and hash(a) == hash(b)
        assert a != SparkConf()

    def test_from_matrix_rows_equal_from_vector(self, rng):
        lows = np.array([spec.low for spec in KNOB_SPECS]) - 5
        highs = np.array([spec.high for spec in KNOB_SPECS]) + 5
        matrix = rng.uniform(lows, highs, size=(12, NUM_KNOBS))
        confs = SparkConf.from_matrix(matrix)
        assert confs == [SparkConf.from_vector(row) for row in matrix]
        assert SparkConf.from_matrix(np.zeros((0, NUM_KNOBS))) == []
        with pytest.raises(ValueError):
            SparkConf.from_matrix(np.zeros(NUM_KNOBS))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.lists(st.floats(allow_nan=False), min_size=NUM_KNOBS, max_size=NUM_KNOBS),
        min_size=1, max_size=6,
    ))
    def test_from_matrix_equals_validated_construction(self, rows):
        # Rows reach far outside every knob range (and to +-inf): each
        # conf must equal one built through __init__'s validation, with
        # the same key order and the same value types.
        for conf in SparkConf.from_matrix(np.array(rows)):
            validated = SparkConf(conf.as_dict())
            assert conf == validated
            assert [(k, type(v)) for k, v in conf.as_dict().items()] == [
                (k, type(v)) for k, v in validated.as_dict().items()
            ]

    def test_stack_is_byte_equal_to_stacked_vectors(self, rng):
        lows = np.array([spec.low for spec in KNOB_SPECS]) - 5
        highs = np.array([spec.high for spec in KNOB_SPECS]) + 5
        confs = SparkConf.from_matrix(rng.uniform(lows, highs, size=(7, NUM_KNOBS)))
        confs += [
            confs[0].with_updates({"spark.executor.cores": 3.6,
                                   "spark.rdd.compress": 1}),
            SparkConf(),
            SparkConf({"spark.executor.memory": "12", "spark.memory.fraction": 0.75,
                       "spark.shuffle.compress": 0}),
            SparkConf.random(rng),
        ]
        stacked = SparkConf.stack(confs)
        expected = np.stack([conf.to_vector() for conf in confs])
        assert stacked.dtype == expected.dtype and stacked.shape == expected.shape
        assert stacked.tobytes() == expected.tobytes()
        assert SparkConf.stack([]).shape == (0, NUM_KNOBS)

    def test_from_vector_clips_negative_bools_to_false(self):
        vec = SparkConf().to_vector()
        vec[KNOB_NAMES.index("spark.shuffle.compress")] = -0.6
        assert SparkConf.from_vector(vec)["spark.shuffle.compress"] is False

    def test_vector_shape_checked(self):
        with pytest.raises(ValueError):
            SparkConf.from_vector(np.zeros(5))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=NUM_KNOBS, max_size=NUM_KNOBS))
    def test_from_unit_vector_always_valid(self, unit):
        conf = SparkConf.from_unit_vector(np.array(unit))
        for spec in KNOB_SPECS:
            value = conf[spec.name]
            if spec.kind != "bool":
                assert spec.low <= value <= spec.high

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_conf_valid_and_deterministic(self, seed):
        rng1 = np.random.default_rng(seed)
        rng2 = np.random.default_rng(seed)
        assert SparkConf.random(rng1) == SparkConf.random(rng2)
