"""Tests for Adaptive Candidate Generation (paper Sec. IV-A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.candidates import AdaptiveCandidateGenerator, TOP_FRACTION
from repro.sparksim import KNOB_SPECS, NUM_KNOBS, SparkConf, CLUSTER_C
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def fitted_acg(small_corpus_module):
    return AdaptiveCandidateGenerator(n_estimators=10, seed=1).fit(small_corpus_module)


@pytest.fixture(scope="module")
def small_corpus_module():
    from repro.experiments.collect import collect_training_runs

    wls = [get_workload(n) for n in ("WordCount", "PageRank", "KMeans")]
    return collect_training_runs(
        workloads=wls, clusters=[CLUSTER_C], scales=("train0", "train1"),
        confs_per_cell=4, seed=3,
    )


class TestFit:
    def test_one_model_per_knob(self, fitted_acg):
        assert len(fitted_acg.models_) == NUM_KNOBS
        assert fitted_acg.sigma_.shape == (NUM_KNOBS,)

    def test_sigma_positive(self, fitted_acg):
        assert (fitted_acg.sigma_ > 0).all()

    def test_top_instances_selects_fastest(self, small_corpus_module):
        top = AdaptiveCandidateGenerator._top_instances(small_corpus_module)
        ok = [r for r in small_corpus_module if r.success]
        assert 0 < len(top) <= int(np.ceil(TOP_FRACTION * len(ok))) + 10
        # Every selected run is no slower than the slowest run of its group.
        by_group = {}
        for run in ok:
            by_group.setdefault((run.app_name, float(run.data_features[0])), []).append(run)
        for run in top:
            group = by_group[(run.app_name, float(run.data_features[0]))]
            assert run.duration_s <= max(r.duration_s for r in group)

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            AdaptiveCandidateGenerator().fit([])


class TestRegion:
    def test_region_within_knob_ranges(self, fitted_acg):
        bounds = fitted_acg.region("PageRank", 2e6)
        for (low, high), spec in zip(bounds, KNOB_SPECS):
            assert spec.low <= low <= high <= spec.high

    def test_region_is_narrower_than_full_space(self, fitted_acg):
        bounds = fitted_acg.region("PageRank", 2e6)
        widths = [h - l for l, h in bounds]
        full = [spec.high - spec.low for spec in KNOB_SPECS]
        narrowed = sum(1 for w, f in zip(widths, full) if w < f * 0.95)
        assert narrowed >= NUM_KNOBS // 2  # region of interest is a real shrink

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            AdaptiveCandidateGenerator().region("X", 1.0)

    def test_unknown_app_region_stays_in_range(self, fitted_acg):
        """A never-seen application one-hot encodes to all zeros; the RFR
        extrapolation must still yield bounds inside every knob's range."""
        assert "NeverSeenApp" not in fitted_acg.featurizer_.app_names
        bounds = fitted_acg.region("NeverSeenApp", 5e5)
        for (low, high), spec in zip(bounds, KNOB_SPECS):
            assert spec.low <= low <= high <= spec.high

    def test_unknown_app_candidates_are_valid_confs(self, fitted_acg, rng):
        for conf in fitted_acg.generate("NeverSeenApp", 5e5, 6, rng):
            for spec in KNOB_SPECS:
                assert spec.low <= float(conf[spec.name]) <= spec.high


class TestGeneration:
    def test_candidates_inside_region(self, fitted_acg, rng):
        bounds = fitted_acg.region("KMeans", 1e6)
        candidates = fitted_acg.generate("KMeans", 1e6, 20, rng)
        assert len(candidates) == 20
        for conf in candidates:
            vec = conf.to_vector()
            for value, (low, high), spec in zip(vec, bounds, KNOB_SPECS):
                if spec.kind == "bool":
                    continue
                assert low - 1 <= value <= high + 1  # int rounding slack

    def test_point_prediction_valid_conf(self, fitted_acg):
        conf = fitted_acg.predict_point("WordCount", 3e6)
        assert isinstance(conf, SparkConf)

    def test_generation_deterministic(self, fitted_acg):
        a = fitted_acg.generate("KMeans", 1e6, 5, np.random.default_rng(0))
        b = fitted_acg.generate("KMeans", 1e6, 5, np.random.default_rng(0))
        assert a == b

    def test_region_adapts_to_datasize(self, fitted_acg):
        small = fitted_acg.region("KMeans", 1.2e6)
        large = fitted_acg.region("KMeans", 1.2e8)
        assert small != large  # RFR consumes the datasize feature


# ----------------------------------------------------------------------
# Oracles: the per-knob, per-tree, per-element implementation that the
# packed walk and the one-draw sampler replaced.
# ----------------------------------------------------------------------
def oracle_region(acg, app_name, datasize_rows):
    x = acg.featurizer_.vector(app_name, datasize_rows)[None, :]
    bounds = []
    for spec, model, sigma in zip(KNOB_SPECS, acg.models_, acg.sigma_):
        center = float(model.predict(x)[0])
        low = max(spec.low, center - sigma)
        high = min(spec.high, center + sigma)
        if low > high:
            low, high = spec.low, spec.high
        bounds.append((low, high))
    return bounds


def oracle_from_vector(vector):
    values = {}
    for spec, v in zip(KNOB_SPECS, vector):
        if spec.kind == "bool":
            values[spec.name] = bool(round(float(v)))   # callers pass in-range bools
        else:
            clipped = float(np.clip(float(v), spec.low, spec.high))
            values[spec.name] = int(round(clipped)) if spec.kind == "int" else clipped
    return SparkConf(values)


def oracle_generate(acg, app_name, datasize_rows, n_candidates, rng):
    bounds = oracle_region(acg, app_name, datasize_rows)
    return [
        oracle_from_vector(np.array([rng.uniform(low, high) for low, high in bounds]))
        for _ in range(n_candidates)
    ]


@pytest.fixture(scope="module")
def default_acg(small_corpus_module):
    """The serving shape: 16 knobs x 25 trees, depth <= 6."""
    return AdaptiveCandidateGenerator(seed=4).fit(small_corpus_module)


APPS = st.sampled_from(["WordCount", "PageRank", "KMeans", "NeverSeenApp"])
DATASIZES = st.one_of(
    st.sampled_from([0.0, 1e-9, 1.0, 1e300]),
    st.floats(0.0, 1e12, allow_nan=False),
)


class TestPackedEqualsOracle:
    @settings(max_examples=80, deadline=None)
    @given(app=APPS, size=DATASIZES)
    def test_region_and_point(self, default_acg, app, size):
        assert default_acg.region(app, size) == oracle_region(default_acg, app, size)
        x = default_acg.featurizer_.vector(app, size)[None, :]
        centers = np.array([float(m.predict(x)[0]) for m in default_acg.models_])
        assert default_acg.predict_point(app, size) == oracle_from_vector(centers)

    @settings(max_examples=25, deadline=None)
    @given(app=APPS, size=DATASIZES, n=st.integers(0, 45), seed=st.integers(0, 2**32 - 1))
    def test_generate_same_confs_and_generator_state(self, default_acg, app, size, n, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert default_acg.generate(app, size, n, rng) == oracle_generate(
            default_acg, app, size, n, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_every_fitted_app(self, default_acg):
        for app in default_acg.featurizer_.app_names:
            for size in (0.0, 3e4, 2e6, 1e15):
                assert default_acg.region(app, size) == oracle_region(default_acg, app, size)


def test_packed_forests_not_pickled_and_rebuilt_on_load(default_acg, tmp_path):
    from repro.core.lite import LITE
    from repro.core.persistence import load_lite, save_lite

    lite = LITE()
    lite.candidate_generator = default_acg
    lite.trained = True
    path = save_lite(lite, tmp_path / "lite.pkl")
    blob = path.read_bytes()
    assert b"PackedForests" not in blob and b"_packed" not in blob
    loaded = load_lite(path).candidate_generator
    for app in ("PageRank", "NeverSeenApp"):
        assert loaded.region(app, 2e6) == default_acg.region(app, 2e6)
