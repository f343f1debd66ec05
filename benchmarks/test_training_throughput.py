"""Training throughput (batched block-diagonal engine vs. per-graph path).

One optimizer step used to encode every batch row's code and push each DAG
through the GCN one graph at a time; the batched engine encodes each unique
stage template once, packs all graphs into one block-diagonal propagation,
and gathers embeddings back to batch order.  This benchmark fits the same
corpus with both engines, asserts the speedup floor AND that the loss
curves still match (a fast path that trains a different model is a bug),
and records the numbers in ``BENCH_training.json`` at the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.train_bench import LOSS_TOLERANCE, run_training_benchmark

from conftest import print_table

FIT_SPEEDUP_FLOOR = 5.0
UPDATE_SPEEDUP_FLOOR = 2.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"


@pytest.fixture(scope="module")
def training_result():
    return run_training_benchmark(
        epochs=4, update_epochs=2, smoke=False, seed=0, out=OUT_PATH, repeats=5,
    )


class TestTrainingThroughput:
    def test_fit_speedup_floor(self, training_result):
        fit, upd = training_result["fit"], training_result["update"]
        print_table(
            "Training throughput: batched engine vs. per-graph reference",
            ("phase", "reference inst/s", "batched inst/s", "speedup"),
            [
                ("fit", f"{fit['reference_inst_per_s']:.0f}",
                 f"{fit['batched_inst_per_s']:.0f}", f"{fit['speedup']:.2f}x"),
                ("update", f"{upd['reference_inst_per_s']:.0f}",
                 f"{upd['batched_inst_per_s']:.0f}", f"{upd['speedup']:.2f}x"),
            ],
        )
        print(f"dedup factor: {training_result['dedup_factor']:.1f} "
              f"({training_result['n_unique_templates']} templates for "
              f"{training_result['n_train_instances']} instances)")
        assert fit["speedup"] >= FIT_SPEEDUP_FLOOR
        assert upd["speedup"] >= UPDATE_SPEEDUP_FLOOR

    def test_dedup_factor_realistic(self, training_result):
        # Many configurations per cell -> many instances per template; if
        # this drops to ~1 the corpus no longer exercises the dedup engine.
        assert training_result["dedup_factor"] >= 4.0

    def test_trained_models_equivalent(self, training_result):
        eq = training_result["equivalence"]
        assert eq["loss_curve_max_abs_diff"] <= LOSS_TOLERANCE
        assert eq["pred_max_rel_diff"] <= LOSS_TOLERANCE
        assert eq["post_update_pred_max_rel_diff"] <= LOSS_TOLERANCE
        assert eq["within_tolerance"]

    def test_report_written(self, training_result):
        report = json.loads(OUT_PATH.read_text())
        assert report["fit"]["speedup"] == training_result["fit"]["speedup"]
        assert {"reference_inst_per_s", "batched_inst_per_s", "speedup"} <= set(
            report["fit"]
        )
        assert report["equivalence"]["within_tolerance"]
        assert report["meta"]["cpu_count"] >= 1
