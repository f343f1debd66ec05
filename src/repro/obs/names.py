"""Canonical span and metric names — the observable surface of the system.

Instrumented call sites import their names from here rather than inlining
strings, and ``tests/obs/test_lifecycle_coverage.py`` asserts that one
train -> recommend -> feedback -> update cycle exercises every name below,
so the taxonomy cannot silently rot as code moves.

Span taxonomy (``span.<name>.duration_s`` histograms accrue per name):

- ``lite.*``     — system-level lifecycle operations
- ``necs.*``     — estimator fit / inference
- ``serving.*``  — template-cache encode path
- ``recommender.*`` — candidate ranking
- ``collect.*``  — offline corpus collection
- ``sparksim.*`` — simulated application runs
- ``serve.*``    — the multi-tenant serving daemon (:mod:`repro.serve`);
  exercised by ``tests/obs/test_lifecycle_coverage.py``'s service fixture
  rather than the chaos lifecycle run
"""

from __future__ import annotations

# -- spans -------------------------------------------------------------
SPAN_OFFLINE_TRAIN = "lite.offline_train"
SPAN_FEATURISE = "lite.featurise"
SPAN_ACG_FIT = "lite.acg_fit"
SPAN_RECOMMEND = "lite.recommend"
SPAN_FEEDBACK = "lite.feedback"
SPAN_ADAPTIVE_UPDATE = "lite.adaptive_update"
SPAN_COLD_START_PROBE = "lite.cold_start_probe"
SPAN_NECS_FIT = "necs.fit"
SPAN_NECS_PREDICT = "necs.predict"
SPAN_NECS_PREDICT_ENCODED = "necs.predict_encoded"
SPAN_NECS_UPDATE = "necs.adaptive_update"
SPAN_ENCODE_TEMPLATES = "serving.encode_templates"
SPAN_RANK = "recommender.rank"
SPAN_COLLECT = "collect.runs"
SPAN_SPARKSIM_RUN = "sparksim.run"
SPAN_SERVE_RECOMMEND = "serve.recommend"
SPAN_SERVE_FEEDBACK = "serve.feedback"
SPAN_SERVE_STATS = "serve.stats"
SPAN_SERVE_HEALTH = "serve.health"
# Request-scoped serving spans: the per-request root opened by the HTTP
# handler and the micro-batch leader's coalesced forward (followers link in).
SPAN_SERVE_REQUEST = "serve.request"
SPAN_SERVE_BATCH_RUN = "serve.batch.run"

ALL_SPANS = frozenset({
    SPAN_SERVE_RECOMMEND,
    SPAN_SERVE_FEEDBACK,
    SPAN_SERVE_STATS,
    SPAN_SERVE_HEALTH,
    SPAN_SERVE_REQUEST,
    SPAN_SERVE_BATCH_RUN,
    SPAN_OFFLINE_TRAIN,
    SPAN_FEATURISE,
    SPAN_ACG_FIT,
    SPAN_RECOMMEND,
    SPAN_FEEDBACK,
    SPAN_ADAPTIVE_UPDATE,
    SPAN_COLD_START_PROBE,
    SPAN_NECS_FIT,
    SPAN_NECS_PREDICT,
    SPAN_NECS_PREDICT_ENCODED,
    SPAN_NECS_UPDATE,
    SPAN_ENCODE_TEMPLATES,
    SPAN_RANK,
    SPAN_COLLECT,
    SPAN_SPARKSIM_RUN,
})

# -- counters ----------------------------------------------------------
CTR_CACHE_HIT = "serving.template_cache.hit"
CTR_CACHE_MISS = "serving.template_cache.miss"
CTR_CACHE_INVALIDATION = "serving.template_cache.invalidation"
CTR_COLD_START_PROBES = "serving.cold_start_probes"
CTR_RECOMMENDATIONS = "serving.recommendations"
CTR_FEEDBACK_RUNS = "feedback.runs"
CTR_FEEDBACK_FAILED = "feedback.failed_runs"
CTR_UPDATES_TRIGGERED = "feedback.updates_triggered"
CTR_FIT_EPOCHS = "necs.fit.epochs"
CTR_UPDATE_ROUNDS = "update.rounds"
CTR_SIM_RUNS = "sparksim.runs"
CTR_SIM_FAILURES = "sparksim.failures"
# Fault injection (repro.sparksim.faults) — one counter per injected fault.
CTR_FAULT_EXECUTOR_LOSS = "faults.executor_loss"
CTR_FAULT_STRAGGLER = "faults.straggler"
CTR_FAULT_OOM_FLAKE = "faults.oom_flake"
CTR_FAULT_TRUNCATION = "faults.log_truncation"
# Transient-failure retries (repro.utils.retry).
CTR_RETRY_ATTEMPTS = "retry.attempts"
CTR_RETRY_RECOVERED = "retry.recovered"
CTR_RETRY_EXHAUSTED = "retry.exhausted"
# Successful feedback runs whose event log arrived truncated (drift skipped).
CTR_FEEDBACK_TRUNCATED = "feedback.truncated_runs"
# Per-app task-switch detection (repro.obs.drift.TaskSwitchDetector) and the
# transfer-learning warm start it gates (repro.core.transfer).
CTR_SWITCH_DETECTED = "drift.switch.detected"
CTR_TRANSFER_APPS_RANKED = "transfer.apps_ranked"
CTR_TRANSFER_INSTANCES_SPLICED = "transfer.instances_spliced"
# Serving daemon (repro.serve): request accounting, admission control,
# tenant registry churn and micro-batching efficacy.
CTR_SERVE_REQUESTS = "serve.requests"
CTR_SERVE_ERRORS = "serve.errors"
CTR_SERVE_OVERLOAD = "serve.overload_rejections"
CTR_SERVE_EVICTIONS = "serve.tenant_evictions"
CTR_SERVE_MODEL_LOADS = "serve.model_loads"
CTR_SERVE_BATCHES = "serve.batches"
CTR_SERVE_COALESCED = "serve.coalesced_requests"
# Per-tenant token-bucket quota decisions (allowed vs 429-rejected).
CTR_SERVE_QUOTA_ALLOWED = "serve.quota.allowed"
CTR_SERVE_QUOTA_REJECTED = "serve.quota.rejected"
# Structured JSONL audit records appended by the daemon (--audit-log).
CTR_SERVE_AUDIT_RECORDS = "serve.request.audit_records"
# SLO accounting (repro.obs.slo): good/bad events across all objectives.
CTR_SLO_GOOD = "slo.events.good"
CTR_SLO_BAD = "slo.events.bad"

ALL_COUNTERS = frozenset({
    CTR_SERVE_AUDIT_RECORDS,
    CTR_SLO_GOOD,
    CTR_SLO_BAD,
    CTR_SERVE_REQUESTS,
    CTR_SERVE_ERRORS,
    CTR_SERVE_OVERLOAD,
    CTR_SERVE_EVICTIONS,
    CTR_SERVE_MODEL_LOADS,
    CTR_SERVE_BATCHES,
    CTR_SERVE_COALESCED,
    CTR_SERVE_QUOTA_ALLOWED,
    CTR_SERVE_QUOTA_REJECTED,
    CTR_CACHE_HIT,
    CTR_CACHE_MISS,
    CTR_CACHE_INVALIDATION,
    CTR_COLD_START_PROBES,
    CTR_RECOMMENDATIONS,
    CTR_FEEDBACK_RUNS,
    CTR_FEEDBACK_FAILED,
    CTR_UPDATES_TRIGGERED,
    CTR_FIT_EPOCHS,
    CTR_UPDATE_ROUNDS,
    CTR_SIM_RUNS,
    CTR_SIM_FAILURES,
    CTR_FAULT_EXECUTOR_LOSS,
    CTR_FAULT_STRAGGLER,
    CTR_FAULT_OOM_FLAKE,
    CTR_FAULT_TRUNCATION,
    CTR_RETRY_ATTEMPTS,
    CTR_RETRY_RECOVERED,
    CTR_RETRY_EXHAUSTED,
    CTR_FEEDBACK_TRUNCATED,
    CTR_SWITCH_DETECTED,
    CTR_TRANSFER_APPS_RANKED,
    CTR_TRANSFER_INSTANCES_SPLICED,
})

# -- gauges ------------------------------------------------------------
GAUGE_FIT_LAST_LOSS = "necs.fit.last_loss"
GAUGE_DEDUP_RATIO = "necs.fit.dedup_ratio"            # unique / total rows
GAUGE_UNIQUE_TEMPLATES = "necs.fit.unique_templates"
GAUGE_PACKED_NODES = "necs.fit.packed_graph_nodes"
GAUGE_UPDATE_PRED_LOSS = "update.pred_loss"
GAUGE_UPDATE_DISC_LOSS = "update.disc_loss"
GAUGE_DRIFT_N = "drift.window_n"
GAUGE_DRIFT_SIGNED_ERR = "drift.mean_signed_rel_err"
GAUGE_DRIFT_P = "drift.wilcoxon_p"
GAUGE_SERVE_QUEUE_DEPTH = "serve.queue_depth"
GAUGE_SERVE_TENANTS = "serve.tenants_loaded"
# SLO health: worst multi-window burn rate and the tightest remaining
# error-budget fraction across declared objectives (set on evaluation).
GAUGE_SLO_WORST_BURN = "slo.worst_burn_rate"
GAUGE_SLO_BUDGET_REMAINING = "slo.error_budget_remaining"

ALL_GAUGES = frozenset({
    GAUGE_SERVE_QUEUE_DEPTH,
    GAUGE_SERVE_TENANTS,
    GAUGE_SLO_WORST_BURN,
    GAUGE_SLO_BUDGET_REMAINING,
    GAUGE_FIT_LAST_LOSS,
    GAUGE_DEDUP_RATIO,
    GAUGE_UNIQUE_TEMPLATES,
    GAUGE_PACKED_NODES,
    GAUGE_UPDATE_PRED_LOSS,
    GAUGE_UPDATE_DISC_LOSS,
    GAUGE_DRIFT_N,
    GAUGE_DRIFT_SIGNED_ERR,
    GAUGE_DRIFT_P,
})

# -- histograms fed directly (spans feed span.<name>.duration_s) -------
HIST_FIT_EPOCH_S = "necs.fit.epoch_s"
# End-to-end wall time per HTTP request, labeled {tenant, route}.
HIST_SERVE_REQUEST_LATENCY = "serve.request.latency_s"

ALL_HISTOGRAMS = frozenset({HIST_FIT_EPOCH_S, HIST_SERVE_REQUEST_LATENCY})
