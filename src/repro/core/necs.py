"""NECS: Neural Estimator via Code and Scheduler representation (Sec. III).

Architecture (paper Fig. 3):

- code path: token embedding matrix -> CNN (conv + global max pool) ->
  ReLU(W_CNN ·) giving ``h_code`` (Eq. 1);
- scheduler path: one-hot DAG nodes -> GCN layers -> max pool giving
  ``h_DAG`` (Eq. 2);
- estimation: ``concat(d, e, o, h_code, h_DAG)`` -> tower MLP -> predicted
  stage execution time (Eq. 3), trained with squared error (Eq. 4).

The estimator wrapper handles feature scaling (targets are modelled in
log-space — stage times span four orders of magnitude between small
training data and large jobs), minibatching, and exposes the hidden-layer
feature embeddings that Adaptive Model Update discriminates on.

The ``code_encoder`` knob swaps the CNN for the LSTM / Transformer
competitors of Table VII, and ``use_dag=False`` drops the GCN path.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import get_rng

from .. import nn, obs
from ..obs import names as obsn
from ..ml.scaler import StandardScaler
from . import serving_dtype
from .dagfeat import DagEncoder
from .instances import StageInstance, numeric_feature_rows, numeric_features
from .tokenizer import CodeTokenizer

_LOG = obs.log.get("necs")


@dataclass(frozen=True)
class NECSConfig:
    """Hyper-parameters of NECS (scaled to the numpy substrate)."""

    embed_dim: int = 16
    conv_filters: int = 32
    kernel_size: int = 3
    code_out: int = 24
    gcn_hidden: int = 16
    gcn_layers: int = 2
    mlp_hidden: int = 96
    mlp_depth: int = 3
    max_tokens: int = 160          # paper uses N=1000; scaled down
    code_encoder: str = "cnn"      # "cnn" | "lstm" | "transformer" | "none"
    use_dag: bool = True
    use_dag_oov: bool = True       # False = the Cold-UNK ablation
    #: Batched training engine (both default on; the ``False`` settings are
    #: the pre-batching reference paths kept for equivalence tests and the
    #: training-throughput benchmark).
    dedup_templates: bool = True   # encode each unique stage template once
    batched_gcn: bool = True       # block-diagonal packed GCN propagation
    epochs: int = 18
    batch_size: int = 32
    lr: float = 2e-3
    grad_clip: float = 5.0
    seed: int = 0
    #: Tower dtype for the ``predict_encoded`` serving fast path (see
    #: :mod:`repro.core.serving_dtype`); ``"float64"`` opts out of the
    #: float32 cast.  Training is float64 regardless.
    serving_dtype: str = "float32"


class NECSNetwork(nn.Module):
    """The trainable network; inputs are pre-encoded arrays."""

    def __init__(self, config: NECSConfig, vocab_size: int, dag_dim: int, numeric_dim: int):
        super().__init__()
        self.config = config
        rng = get_rng(config.seed)

        code_dim = 0
        if config.code_encoder != "none":
            self.embedding = nn.Embedding(vocab_size, config.embed_dim, rng)
            if config.code_encoder == "cnn":
                self.conv = nn.Conv1D(config.embed_dim, config.conv_filters, config.kernel_size, rng)
                self.code_proj = nn.Dense(config.conv_filters, config.code_out, rng, activation="relu")
            elif config.code_encoder == "lstm":
                self.lstm = nn.LSTMEncoder(config.embed_dim, config.conv_filters, rng)
                self.code_proj = nn.Dense(config.conv_filters, config.code_out, rng, activation="relu")
            elif config.code_encoder == "transformer":
                self.transformer = nn.TransformerEncoder(
                    config.embed_dim, num_heads=4, num_layers=2, rng=rng, max_len=config.max_tokens
                )
                self.code_proj = nn.Dense(config.embed_dim, config.code_out, rng, activation="relu")
            else:
                raise ValueError(f"unknown code encoder {config.code_encoder!r}")
            code_dim = config.code_out

        dag_out = 0
        if config.use_dag:
            self.gcn = nn.GCNEncoder(dag_dim, config.gcn_hidden, config.gcn_layers, rng)
            dag_out = config.gcn_hidden

        in_features = numeric_dim + code_dim + dag_out
        self.mlp = nn.MLP(
            in_features, config.mlp_hidden, 1, config.mlp_depth, rng, tower=True
        )

    # ------------------------------------------------------------------
    def _encode_code(self, code_ids: np.ndarray) -> nn.Tensor:
        emb = self.embedding(code_ids)  # (B, L, D)
        enc = self.config.code_encoder
        if enc == "cnn":
            feats = nn.functional.max_pool1d_global(self.conv(emb))
        elif enc == "lstm":
            lengths = (code_ids != 0).sum(axis=1)
            feats = self.lstm(emb, lengths=lengths)
        else:  # transformer
            pad_mask = code_ids == 0
            feats = self.transformer(emb, pad_mask=pad_mask)
        return self.code_proj(feats)

    def _encode_dags(self, graphs) -> nn.Tensor:
        """``graphs`` is a list of ``(V, A)`` pairs or a prebuilt GraphPack."""
        if isinstance(graphs, nn.GraphPack):
            return self.gcn.forward_packed(graphs)
        if self.config.batched_gcn:
            return self.gcn.forward_batch(graphs)
        pairs = [(nn.Tensor(v), a) for v, a in graphs]
        return self.gcn.forward_batch_pergraph(pairs)

    def _features(
        self,
        numeric: np.ndarray,
        code_ids: Optional[np.ndarray],
        graphs: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]],
        template_index: Optional[np.ndarray] = None,
    ) -> nn.Tensor:
        """Assemble ``concat(d/e/o, h_code, h_DAG)`` rows.

        With ``template_index``, ``code_ids``/``graphs`` hold one entry per
        *unique* stage template and ``template_index[i]`` names the template
        of batch row ``i``: the CNN/GCN run once per unique template and an
        autograd ``gather`` fans the embeddings back out to batch order, so
        duplicate templates still receive (scatter-added) gradients.
        """
        parts = [nn.Tensor(numeric)]
        if self.config.code_encoder != "none":
            h_code = self._encode_code(code_ids)
            if template_index is not None:
                h_code = nn.gather(h_code, template_index)
            parts.append(h_code)
        if self.config.use_dag:
            h_dag = self._encode_dags(graphs)
            if template_index is not None:
                h_dag = nn.gather(h_dag, template_index)
            parts.append(h_dag)
        return nn.concat(parts, axis=-1) if len(parts) > 1 else parts[0]

    def forward(self, numeric, code_ids=None, graphs=None, template_index=None) -> nn.Tensor:
        x = self._features(numeric, code_ids, graphs, template_index)
        return self.mlp(x).reshape(-1)

    def forward_with_embedding(self, numeric, code_ids=None, graphs=None, template_index=None):
        """Return ``(prediction, h)`` where ``h`` is the concatenation of
        the tower MLP's hidden activations (the paper's h_i, Sec. IV-B)."""
        x = self._features(numeric, code_ids, graphs, template_index)
        taps = self.mlp.hidden_embeddings(x)
        pred = self.mlp.layers[-1](taps[-1]).reshape(-1)
        return pred, nn.concat(taps, axis=-1)


@dataclass
class DedupEncoding:
    """A batch encoded with template deduplication.

    Within a training corpus most instances share the same stage template —
    identical code tokens and identical DAGs, differing only in knobs/data/
    env — so ``code_ids``/``graphs`` hold one entry per *unique* template
    and ``template_index`` maps each of the ``len(numeric)`` batch rows to
    its template.  Running the CNN/GCN once per unique row and gathering
    back is what makes one optimizer step cheap.
    """

    numeric: np.ndarray                                    # (B, numeric_dim), scaled
    code_ids: Optional[np.ndarray]                         # (U, max_tokens)
    graphs: Optional[List[Tuple[np.ndarray, np.ndarray]]]  # length U
    template_index: np.ndarray                             # (B,) int64 into 0..U-1
    n_unique: int

    @property
    def dedup_factor(self) -> float:
        """How many batch rows each unique template serves on average."""
        return len(self.template_index) / max(self.n_unique, 1)


@dataclass
class EncodedTemplates:
    """Pre-encoded static features of one application's stage templates.

    Code token ids and DAG node/adjacency matrices depend only on the stage
    templates — never on the candidate configuration — so they are encoded
    once and reused across every candidate and every ``recommend`` call.
    ``h_code``/``h_dag`` additionally cache the code-CNN/GCN *embeddings*,
    which also depend on the network weights; they are filled lazily and
    become stale (together with the whole object) whenever ``version`` no
    longer matches the estimator's, i.e. after ``fit`` or an adaptive
    update.
    """

    app_name: str
    n_stages: int
    code_ids: Optional[np.ndarray]                        # (S, max_tokens) int64
    graphs: Optional[List[Tuple[np.ndarray, np.ndarray]]]  # per-stage (V, A)
    version: int                                           # estimator.version at encode time
    h_code: Optional[np.ndarray] = None                    # (S, code_out), lazy
    h_dag: Optional[np.ndarray] = None                     # (S, gcn_hidden), lazy
    #: Serving-dtype casts of ``h_code``/``h_dag`` (filled lazily under
    #: ``_lock`` by the float32 fast path; ``None`` until first use).
    h_code_cast: Optional[np.ndarray] = None
    h_dag_cast: Optional[np.ndarray] = None
    cast_dtype: Optional[str] = None
    #: Serialises the lazy ``h_code``/``h_dag`` fill: two concurrent first
    #: uses would otherwise both run the CNN/GCN and clobber each other.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False,
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        # Checkpoints written before the serving-dtype cache existed lack
        # the cast fields; default them rather than growing a migration.
        state.setdefault("h_code_cast", None)
        state.setdefault("h_dag_cast", None)
        state.setdefault("cast_dtype", None)
        self.__dict__.update(state)
        self._lock = threading.Lock()


class NECSEstimator:
    """End-to-end estimator: featurisation + training + prediction."""

    def __init__(self, config: NECSConfig = NECSConfig()):
        self.config = config
        self.tokenizer = CodeTokenizer(max_len=config.max_tokens)
        self.dag_encoder = DagEncoder(use_oov=config.use_dag_oov)
        self.numeric_scaler = StandardScaler()
        self.network: Optional[NECSNetwork] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self.train_losses_: List[float] = []
        #: Monotonic counter of weight/featuriser changes.  Anything derived
        #: from the network (cached template encodings/embeddings, the
        #: serving-dtype tower snapshot) carries the version it was computed
        #: at and must be discarded on mismatch.
        self.version = 0
        #: Lazily-built :class:`~repro.core.serving_dtype.TowerSnapshot`
        #: for the ``predict_encoded`` fast path; version-stamped.
        self._serving_snapshot: Optional[serving_dtype.TowerSnapshot] = None

    def bump_version(self) -> None:
        """Invalidate derived caches after an in-place weight change."""
        self.version += 1
        self._serving_snapshot = None

    def __getstate__(self):
        # The tower snapshot holds a thread-local scratch dict (unpicklable)
        # and is cheap to rebuild on first use; checkpoints drop it.
        state = self.__dict__.copy()
        state["_serving_snapshot"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Also covers checkpoints written before the snapshot existed.
        self._serving_snapshot = None

    # ------------------------------------------------------------------
    # Featurisation
    # ------------------------------------------------------------------
    @staticmethod
    def _numeric_raw(inst: StageInstance) -> np.ndarray:
        return numeric_features(inst)

    def _encode(self, instances: Sequence[StageInstance], fit: bool = False):
        numeric = np.stack([self._numeric_raw(i) for i in instances])
        if fit:
            self.numeric_scaler.fit(numeric)
        numeric = self.numeric_scaler.transform(numeric)

        code_ids = None
        if self.config.code_encoder != "none":
            code_ids = self.tokenizer.encode_batch([i.code_tokens for i in instances])

        graphs = None
        if self.config.use_dag:
            graphs = [self.dag_encoder.encode(i.dag_labels, i.dag_edges) for i in instances]
        return numeric, code_ids, graphs

    def _encode_dedup(self, instances: Sequence[StageInstance], fit: bool = False) -> DedupEncoding:
        """Encode a batch, tokenizing/encoding each unique template once.

        Templates are keyed by *content* — the code-token sequence, DAG
        labels and DAG edges — so the dedup is exact: two rows share an
        encoding if and only if the naive path would have produced
        identical ``code_ids`` rows and identical graphs for them.
        """
        numeric = np.stack([self._numeric_raw(i) for i in instances])
        if fit:
            self.numeric_scaler.fit(numeric)
        numeric = self.numeric_scaler.transform(numeric)

        key_to_slot: Dict[tuple, int] = {}
        reps: List[StageInstance] = []
        index = np.empty(len(instances), dtype=np.int64)
        for i, inst in enumerate(instances):
            key = (
                tuple(inst.code_tokens),
                tuple(inst.dag_labels),
                tuple(inst.dag_edges),
            )
            slot = key_to_slot.get(key)
            if slot is None:
                slot = len(reps)
                key_to_slot[key] = slot
                reps.append(inst)
            index[i] = slot

        code_ids = None
        if self.config.code_encoder != "none":
            code_ids = self.tokenizer.encode_batch([r.code_tokens for r in reps])
            if self.config.code_encoder == "cnn":
                code_ids = self._trim_code_padding(code_ids)
        graphs = None
        if self.config.use_dag:
            graphs = [self.dag_encoder.encode(r.dag_labels, r.dag_edges) for r in reps]
        return DedupEncoding(numeric, code_ids, graphs, index, len(reps))

    def _trim_code_padding(self, code_ids: np.ndarray) -> np.ndarray:
        """Drop trailing pad columns the CNN's global max pool cannot see.

        The tokenizer pads every row to ``max_tokens`` with trailing zeros,
        but real stage code is far shorter, so most convolution windows
        cover only padding — and every all-pad window yields the *same*
        output vector (it sees the pad embedding in each slot).  Keeping
        each row's real tokens plus at least one all-pad window therefore
        leaves the max pool's value exactly unchanged while skipping the
        bulk of the convolution.  Only valid for the CNN encoder: the
        LSTM/Transformer paths are length-masked, not pooled, so they keep
        full-width rows.
        """
        kernel = self.config.kernel_size
        longest = int((code_ids != 0).sum(axis=1).max()) if code_ids.size else 0
        width = min(code_ids.shape[1], max(longest + kernel, kernel))
        return np.ascontiguousarray(code_ids[:, :width])

    def _encode_targets(self, instances: Sequence[StageInstance], fit: bool = False) -> np.ndarray:
        y = np.log1p(np.array([i.stage_time_s for i in instances]))
        if fit:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std()) or 1.0
        return (y - self._y_mean) / self._y_std

    # ------------------------------------------------------------------
    def fit(self, instances: Sequence[StageInstance], verbose: bool = False) -> "NECSEstimator":
        if not instances:
            raise ValueError("cannot fit NECS on an empty dataset")
        cfg = self.config
        with obs.span(obsn.SPAN_NECS_FIT) as sp:
            if cfg.code_encoder != "none":
                self.tokenizer.fit([i.code_tokens for i in instances])
            if cfg.use_dag:
                self.dag_encoder.fit([i.dag_labels for i in instances])

            template_index = None
            if cfg.dedup_templates:
                enc = self._encode_dedup(instances, fit=True)
                numeric, code_ids, graphs = enc.numeric, enc.code_ids, enc.graphs
                template_index = enc.template_index
                obs.gauge(obsn.GAUGE_UNIQUE_TEMPLATES).set(enc.n_unique)
                obs.gauge(obsn.GAUGE_DEDUP_RATIO).set(enc.n_unique / len(instances))
                if sp:
                    sp.set(n_unique=enc.n_unique,
                           dedup_ratio=round(enc.n_unique / len(instances), 4))
            else:
                numeric, code_ids, graphs = self._encode(instances, fit=True)
            targets = self._encode_targets(instances, fit=True)
            numeric_dim = numeric.shape[1]
            self.network = NECSNetwork(
                cfg,
                vocab_size=self.tokenizer.vocab_size if cfg.code_encoder != "none" else 0,
                dag_dim=self.dag_encoder.dim if cfg.use_dag else 0,
                numeric_dim=numeric_dim,
            )
            self._train_loop(numeric, code_ids, graphs, targets, verbose, template_index)
            self.bump_version()
            if sp:
                sp.set(n_instances=len(instances), epochs=cfg.epochs,
                       final_loss=round(self.train_losses_[-1], 6))
        return self

    def _train_loop(
        self, numeric, code_ids, graphs, targets, verbose: bool, template_index=None
    ) -> None:
        """Minibatch SGD; with ``template_index``, every step encodes the
        *full* set of unique templates (one CNN pass over all ``U`` code
        rows, one packed-GCN pass over all ``U`` graphs) and gathers batch
        rows out by ``template_index[idx]``.

        Encoding all templates rather than the batch's subset looks like
        extra work but wins twice: the graph pack (concatenation,
        block-diagonal propagation matrix, segment ids) is built once per
        fit instead of once per step, and there is no per-step
        ``np.unique``/re-indexing.  Templates absent from a batch receive
        exact-zero gradient through the gather's scatter-add backward, so
        the parameter updates match the naive path's.

        The RNG draw sequence is identical in both modes, so the dedup path
        sees the exact same batches as the naive path — the loss curves are
        directly comparable.
        """
        cfg = self.config
        params = self.network.parameters()
        optimizer = nn.Adam(params, lr=cfg.lr)
        rng = get_rng(cfg.seed + 1)
        n = len(targets)
        pack = None
        if template_index is not None and graphs is not None:
            pack = nn.pack_graphs(graphs)
            obs.gauge(obsn.GAUGE_PACKED_NODES).set(pack.features.shape[0])
        self.train_losses_ = []
        for epoch in range(cfg.epochs):
            epoch_t0 = time.perf_counter()
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                if template_index is not None:
                    pred = self.network(numeric[idx], code_ids, pack,
                                        template_index=template_index[idx])
                else:
                    batch_graphs = [graphs[i] for i in idx] if graphs is not None else None
                    batch_codes = code_ids[idx] if code_ids is not None else None
                    pred = self.network(numeric[idx], batch_codes, batch_graphs)
                loss = nn.mse_loss(pred, targets[idx])
                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(params, cfg.grad_clip)
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            self.train_losses_.append(epoch_loss / max(batches, 1))
            obs.counter(obsn.CTR_FIT_EPOCHS).inc()
            obs.gauge(obsn.GAUGE_FIT_LAST_LOSS).set(self.train_losses_[-1])
            obs.histogram(obsn.HIST_FIT_EPOCH_S).observe(time.perf_counter() - epoch_t0)
            _LOG.log(
                logging.INFO if verbose else logging.DEBUG,
                "epoch %d: loss %.4f", epoch, self.train_losses_[-1],
            )

    # ------------------------------------------------------------------
    @contextmanager
    def _eval_mode(self):
        """Run inference in eval mode, then restore the *previous* mode.

        Unconditionally flipping back to ``train()`` would clobber a
        caller-set eval mode, so we remember what we found.
        """
        was_training = self.network.training
        self.network.eval()
        try:
            yield
        finally:
            if was_training:
                self.network.train()

    def predict(
        self, instances: Sequence[StageInstance], dedup: Optional[bool] = None
    ) -> np.ndarray:
        """Predicted stage execution times in seconds.

        ``dedup=None`` follows ``config.dedup_templates``: unique stage
        templates are encoded once for the whole instance list and their
        embeddings fanned back out.  ``dedup=False`` forces the naive
        per-row encode — the reference path the serving benchmark times.
        """
        if self.network is None:
            raise RuntimeError("NECS is not fitted")
        if dedup is None:
            dedup = self.config.dedup_templates
        with obs.span(obsn.SPAN_NECS_PREDICT) as sp:
            if sp:
                sp.set(n_instances=len(instances), dedup=dedup)
            return self._predict_impl(instances, dedup)

    def _predict_impl(self, instances: Sequence[StageInstance], dedup: bool) -> np.ndarray:
        out = np.empty(len(instances))
        bs = max(self.config.batch_size, 64)
        if dedup:
            if not len(instances):
                return out
            enc = self._encode_dedup(instances)
            with self._eval_mode():
                parts = [enc.numeric]
                if enc.code_ids is not None:
                    h_code = self.network._encode_code(enc.code_ids).numpy()
                    parts.append(h_code[enc.template_index])
                if enc.graphs is not None:
                    h_dag = self.network._encode_dags(enc.graphs).numpy()
                    parts.append(h_dag[enc.template_index])
                feats = np.concatenate(parts, axis=1)
                for start in range(0, len(instances), bs):
                    pred = self.network.mlp(nn.Tensor(feats[start : start + bs]))
                    out[start : start + bs] = pred.numpy().reshape(-1)
            return np.expm1(out * self._y_std + self._y_mean)
        with self._eval_mode():
            for start in range(0, len(instances), bs):
                chunk = instances[start : start + bs]
                numeric, code_ids, graphs = self._encode(chunk)
                pred = self.network(numeric, code_ids, graphs).numpy()
                out[start : start + len(chunk)] = pred
        return np.expm1(out * self._y_std + self._y_mean)

    def feature_embeddings(self, instances: Sequence[StageInstance]) -> np.ndarray:
        """The h_i embeddings Adaptive Model Update discriminates on."""
        if self.network is None:
            raise RuntimeError("NECS is not fitted")
        if self.config.dedup_templates:
            enc = self._encode_dedup(instances)
            with self._eval_mode():
                _, h = self.network.forward_with_embedding(
                    enc.numeric, enc.code_ids, enc.graphs,
                    template_index=enc.template_index,
                )
            return h.numpy()
        numeric, code_ids, graphs = self._encode(instances)
        with self._eval_mode():
            _, h = self.network.forward_with_embedding(numeric, code_ids, graphs)
        return h.numpy()

    # ------------------------------------------------------------------
    # Serving fast path: encode templates once, score many candidates
    # ------------------------------------------------------------------
    def encode_templates(self, templates: Sequence[StageInstance]) -> EncodedTemplates:
        """Encode the candidate-invariant part of a template list.

        Tokenisation and DAG encoding depend only on the stage code/DAG, so
        one :class:`EncodedTemplates` serves every candidate configuration
        (and every later ``recommend`` call, until the model changes).
        """
        if self.network is None:
            raise RuntimeError("NECS is not fitted")
        if not templates:
            raise ValueError("no stage templates to encode")
        with obs.span(obsn.SPAN_ENCODE_TEMPLATES) as sp:
            code_ids = None
            if self.config.code_encoder != "none":
                code_ids = self.tokenizer.encode_batch([t.code_tokens for t in templates])
            graphs = None
            if self.config.use_dag:
                graphs = [
                    self.dag_encoder.encode(t.dag_labels, t.dag_edges) for t in templates
                ]
            if sp:
                sp.set(app=templates[0].app_name, n_stages=len(templates))
            return EncodedTemplates(
                app_name=templates[0].app_name,
                n_stages=len(templates),
                code_ids=code_ids,
                graphs=graphs,
                version=self.version,
            )

    def _check_version(self, encoded: EncodedTemplates) -> None:
        if encoded.version != self.version:
            raise ValueError(
                f"stale EncodedTemplates for {encoded.app_name!r}: encoded at "
                f"model version {encoded.version}, estimator is at "
                f"{self.version}; re-encode after fit/adaptive update"
            )

    def template_embeddings(
        self, encoded: EncodedTemplates
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``(h_code, h_dag)`` for each template, computed once and cached.

        This is the expensive part of inference — the code CNN/LSTM and the
        per-graph GCN — and it is identical for every candidate, so it runs
        once per template instead of once per (template, candidate) pair.
        """
        if self.network is None:
            raise RuntimeError("NECS is not fitted")
        self._check_version(encoded)
        with encoded._lock:
            if self.config.code_encoder != "none" and encoded.h_code is None:
                with self._eval_mode():
                    encoded.h_code = self.network._encode_code(encoded.code_ids).numpy()
            if self.config.use_dag and encoded.h_dag is None:
                with self._eval_mode():
                    encoded.h_dag = self.network._encode_dags(encoded.graphs).numpy()
            return encoded.h_code, encoded.h_dag

    def _cast_template_embeddings(
        self, encoded: EncodedTemplates, dtype_name: str
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Serving-dtype casts of the cached template embeddings.

        float64 passes the cached arrays through untouched; float32 casts
        once per (encoding, dtype) and caches the result on the entry —
        the fill runs under ``encoded._lock`` like the embedding fill.
        """
        h_code, h_dag = encoded.h_code, encoded.h_dag
        if dtype_name == "float64":
            return h_code, h_dag
        with encoded._lock:
            if encoded.cast_dtype != dtype_name:
                encoded.h_code_cast = serving_dtype.cast_array(h_code, dtype_name)
                encoded.h_dag_cast = serving_dtype.cast_array(h_dag, dtype_name)
                encoded.cast_dtype = dtype_name
            return encoded.h_code_cast, encoded.h_dag_cast

    def _tower_snapshot(self, dtype_name: str) -> serving_dtype.TowerSnapshot:
        """The inference snapshot of the tower MLP, rebuilt on staleness.

        Guarded by the ``version`` stamp: a concurrent rebuild race is
        benign (both snapshots describe the same version; last write
        wins and each caller keeps using the one it fetched).
        """
        snap = self._serving_snapshot
        if snap is None or snap.version != self.version or snap.dtype_name != dtype_name:
            snap = serving_dtype.TowerSnapshot(self.network.mlp, dtype_name, self.version)
            self._serving_snapshot = snap
        return snap

    def warm_serving(self, encoded: EncodedTemplates) -> None:
        """Precompute the serving fast path's derived state.

        Fills the template-embedding cache, its serving-dtype cast, and
        the tower snapshot — called by ``LITE`` inside the timed encode
        section so request latency never pays for a cold cast.
        """
        dtype_name = serving_dtype.resolve_dtype(
            getattr(self.config, "serving_dtype", None)
        )
        self.template_embeddings(encoded)
        self._cast_template_embeddings(encoded, dtype_name)
        self._tower_snapshot(dtype_name)

    def predict_encoded(
        self,
        encoded: EncodedTemplates,
        numeric_rows: np.ndarray,
        dtype: Optional[str] = None,
        fused: bool = True,
    ) -> np.ndarray:
        """Score N candidates against pre-encoded templates in one forward.

        ``numeric_rows`` holds one *raw* numeric row per candidate (see
        :func:`repro.core.instances.numeric_feature_rows`); the stage
        dimension is broadcast here.  Returns predicted stage seconds with
        shape ``(N, n_stages)``.  Costs one tower forward over
        ``N * n_stages`` rows; the code/DAG embeddings are reused from the
        template cache.

        ``fused=True`` (default) runs the no-tape fused kernel on a
        version-stamped :class:`~repro.core.serving_dtype.TowerSnapshot`
        in ``dtype`` (``None`` = ``config.serving_dtype``, float32 by
        default).  In float64 the fused path is bit-identical to the taped
        one; in float32 the contract is identical top-k rankings with
        bounded relative error.  ``fused=False`` keeps the taped float64
        forward — the pre-fusion reference path the serving benchmark
        times against.
        """
        if self.network is None:
            raise RuntimeError("NECS is not fitted")
        self._check_version(encoded)
        if not fused:
            if dtype == "float32":
                raise ValueError(
                    "the taped reference path is float64-only; use fused=True "
                    "for float32 serving"
                )
            dtype_name = "float64"
        else:
            dtype_name = serving_dtype.resolve_dtype(
                dtype if dtype is not None
                else getattr(self.config, "serving_dtype", None)
            )
        with obs.span(obsn.SPAN_NECS_PREDICT_ENCODED) as sp:
            h_code, h_dag = self.template_embeddings(encoded)
            numeric = self.numeric_scaler.transform(
                np.asarray(numeric_rows, dtype=np.float64)
            )
            n, s = numeric.shape[0], encoded.n_stages
            if sp:
                sp.set(app=encoded.app_name, n_candidates=n, n_stages=s,
                       dtype=dtype_name, fused=bool(fused))
            # Candidate-major, stage-minor — the same row order the
            # per-instance path produces when it fans templates out over
            # candidates.
            if fused:
                snap = self._tower_snapshot(dtype_name)
                h_code, h_dag = self._cast_template_embeddings(encoded, dtype_name)
                parts = [np.repeat(snap.cast_features(numeric), s, axis=0)]
                if h_code is not None:
                    parts.append(np.tile(h_code, (n, 1)))
                if h_dag is not None:
                    parts.append(np.tile(h_dag, (n, 1)))
                feats = np.concatenate(parts, axis=1)
                out = snap.forward(feats).reshape(n, s)
            else:
                parts = [np.repeat(numeric, s, axis=0)]
                if h_code is not None:
                    parts.append(np.tile(h_code, (n, 1)))
                if h_dag is not None:
                    parts.append(np.tile(h_dag, (n, 1)))
                feats = np.concatenate(parts, axis=1)
                with self._eval_mode():
                    out = self.network.mlp(nn.Tensor(feats)).numpy().reshape(n, s)
            return np.expm1(out * self._y_std + self._y_mean)

    # ------------------------------------------------------------------
    def predict_app_time(self, instances: Sequence[StageInstance]) -> float:
        """Aggregate predicted stage times for one application (Eq. 5)."""
        return float(self.predict(instances).sum())
