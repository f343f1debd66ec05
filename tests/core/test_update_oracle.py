"""Single-forward adaptive update vs. the two-forward reference loop.

``AdaptiveModelUpdater._update_impl`` forwards each minibatch through
NECS once and feeds the detached embedding to the discriminator steps.
The reference below is the loop it replaced: one fresh forward per
discriminator step and another for the model step, all through the same
unchanged NECS weights.  The two must produce byte-equal weights and an
equal loss history.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.core.necs import NECSConfig, NECSEstimator
from repro.core.update import AdaptiveModelUpdater, DomainDiscriminator, UpdateConfig
from repro.utils.rng import get_rng


def two_forward_update(est, cfg, source, target):
    """The reference adversarial update; returns (discriminator, history)."""
    net = est.network
    rng = get_rng(cfg.seed)
    combined = list(source) + list(target)
    n_src, n_tgt = len(source), len(target)
    if est.config.dedup_templates:
        enc = est._encode_dedup(combined)
        all_numeric, tindex = enc.numeric, enc.template_index
        code_u = enc.code_ids
        pack = nn.pack_graphs(enc.graphs) if enc.graphs is not None else None
        all_codes = all_graphs = None
    else:
        all_numeric, all_codes, all_graphs = est._encode(combined)
        tindex = code_u = pack = None
    all_y = est._encode_targets(combined)

    def batch_features(rows):
        numeric = all_numeric[rows]
        if tindex is not None:
            return numeric, code_u, pack, tindex[rows]
        codes = all_codes[rows] if all_codes is not None else None
        graphs = [all_graphs[i] for i in rows] if all_graphs is not None else None
        return numeric, codes, graphs, None

    _, h0 = net.forward_with_embedding(*batch_features(np.array([0])))
    disc = DomainDiscriminator(h0.shape[1], cfg.disc_hidden, rng)
    net_params = net.parameters()
    disc_params = disc.parameters()
    opt_model = nn.Adam(net_params, lr=cfg.lr)
    opt_disc = nn.Adam(disc_params, lr=cfg.disc_lr)
    half = max(2, cfg.batch_size // 2)
    steps = max(1, (n_src + n_tgt) // cfg.batch_size)
    history = []
    for epoch in range(cfg.epochs):
        epoch_pred, epoch_disc = 0.0, 0.0
        for _ in range(steps):
            si = rng.integers(0, n_src, size=min(half, n_src))
            ti = rng.integers(0, n_tgt, size=min(half, n_tgt))
            rows = np.concatenate([si, ti + n_src])
            numeric, codes, graphs, batch_tindex = batch_features(rows)
            y = all_y[rows]
            labels = np.concatenate([np.ones(len(si)), np.zeros(len(ti))])
            for _ in range(cfg.disc_steps):
                _, h = net.forward_with_embedding(
                    numeric, codes, graphs, template_index=batch_tindex
                )
                d_loss = nn.bce_loss(disc(h.detach()), labels)
                opt_disc.zero_grad()
                d_loss.backward()
                opt_disc.step()
            pred, h = net.forward_with_embedding(
                numeric, codes, graphs, template_index=batch_tindex
            )
            pred_loss = nn.mse_loss(pred, y)
            confusion = nn.bce_loss(disc(h), labels)
            total = pred_loss - cfg.adversarial_weight * confusion
            opt_model.zero_grad()
            total.backward()
            for p in disc_params:
                p.zero_grad()
            nn.clip_grad_norm(net_params, est.config.grad_clip)
            opt_model.step()
            epoch_pred += pred_loss.item()
            epoch_disc += d_loss.item()
        history.append(
            {"epoch": epoch, "pred_loss": epoch_pred / steps, "disc_loss": epoch_disc / steps}
        )
    est.bump_version()
    return disc, history


def _weights(module):
    return [p.data.tobytes() for p in module.parameters()]


@pytest.fixture(scope="module")
def corpus(small_instances):
    """Source = the first half of the instances, target = the rest."""
    half = len(small_instances) // 2
    return small_instances[:half], small_instances[half:]


@pytest.fixture(scope="module", params=[True, False], ids=["dedup", "no-dedup"])
def fitted(request, corpus):
    source, _ = corpus
    cfg = NECSConfig(epochs=2, max_tokens=48, mlp_hidden=24, conv_filters=8,
                     dedup_templates=request.param, seed=4)
    return NECSEstimator(cfg).fit(source)


@pytest.mark.parametrize("disc_steps", [1, 2])
def test_single_forward_update_matches_two_forward_oracle(fitted, corpus, disc_steps):
    source, target = corpus
    cfg = UpdateConfig(epochs=2, batch_size=16, disc_steps=disc_steps, seed=3)
    oracle_est = copy.deepcopy(fitted)
    oracle_disc, oracle_history = two_forward_update(oracle_est, cfg, source, target)

    est = copy.deepcopy(fitted)
    updater = AdaptiveModelUpdater(est, cfg)
    updater.update(source, target)

    assert _weights(est.network) == _weights(oracle_est.network)
    assert _weights(updater.discriminator) == _weights(oracle_disc)
    assert updater.history_ == oracle_history
    assert est.version == oracle_est.version
    # The update actually moved the weights.
    assert _weights(est.network) != _weights(fitted.network)
