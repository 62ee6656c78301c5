import dataclasses
import itertools

import numpy as np
import pytest

from gsc import trainer
from gsc.discrimination import ensemble_update, gmm_fit, gmm_posterior
from gsc.discrimination import cross_modal_indicator, intra_structure_score
from gsc.evalmetrics import retrieval_report
from gsc.losses import grad_total
from gsc.model import Encoder, encode, sim_matrix
from gsc.numerics import NumericalError, adam_step, derive_rng
from gsc.synthdata import GenSpec, generate, inject_noise, split
from gsc.trainer import (MODES, Network, TrainConfig, batch_schedule, check_split_sizes,
                         evaluate_retrieval, init_state, learning_rate, run, train_epoch)


def small_data(seed=0, n=160, rho=0.4):
    ds = generate(GenSpec(n=n, n_clusters=8, d_latent=6, d_img=10, d_txt=9, seed=seed))
    train, dev, test = split(ds, 0.7, 0.15, 0.15, derive_rng(seed, "split"))
    if rho > 0:
        train = inject_noise(train, rho, derive_rng(seed, "noise"))
    return train, dev, test


def small_cfg(**kw):
    base = dict(batch_size=32, epochs=3, warmup_epochs=1, seed=0,
                embed_dim=8, hidden_dims=(12,), lr_decay_epoch=2)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# config and schedule plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(tau1=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.2)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(mode="nope")
    # every unit row of width 1 is +-1, so every gradient would be 0
    with pytest.raises(ValueError, match="^embed_dim must be an integer >= 2, got 1$"):
        TrainConfig(embed_dim=1)
    TrainConfig(embed_dim=2)
    TrainConfig()
    # NaN or inf in a rate, temperature, weight or floor fails before training
    for key in ("tau1", "tau2", "gamma", "lr", "lr_decay", "gmm_floor"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: bad})
    with pytest.raises(ValueError, match="gmm_floor"):
        TrainConfig(gmm_floor=0.0)
    TrainConfig(gamma=0.0)


def test_no_ensemble_mode_maps_to_unit_momentum_and_long_warmup():
    cfg = TrainConfig(mode="no_ensemble")
    assert cfg.beta1 == 1.0 and cfg.beta2 == 1.0
    assert cfg.warmup_epochs == 5
    # other modes untouched
    cfg2 = TrainConfig(mode="gsc", beta1=0.7)
    assert cfg2.beta1 == 0.7 and cfg2.warmup_epochs == 1
    # a config holds the overrides from construction, over the values given,
    # and a replace() keeps them
    cfg = TrainConfig(mode="no_ensemble", warmup_epochs=1, beta1=0.3, beta2=0.2)
    assert (cfg.warmup_epochs, cfg.beta1, cfg.beta2) == (5, 1.0, 1.0)
    longer = dataclasses.replace(cfg, epochs=3)
    assert (longer.warmup_epochs, longer.beta1, longer.beta2, longer.epochs) == (5, 1.0, 1.0, 3)
    # the epoch check reads the overridden warm-up: no_ensemble runs 5 epochs
    assert TrainConfig(mode="no_ensemble", warmup_epochs=0, epochs=0).warmup_epochs == 5
    with pytest.raises(ValueError, match="warmup_epochs \\+ epochs must be at least 1"):
        TrainConfig(mode="gsc", warmup_epochs=0, epochs=0)
    # the knobs are checked as given, so an overridden one out of range still fails
    for key, bad in (("beta1", 1.5), ("beta2", -0.1), ("warmup_epochs", -1)):
        with pytest.raises(ValueError, match=key):
            TrainConfig(mode="no_ensemble", **{key: bad})


def test_run_rejects_small_splits_by_mode():
    # the mixture fit needs 4 train scores; Recall@10 needs 10 dev pairs
    tiny = generate(GenSpec(n=3, n_clusters=2, d_latent=6, d_img=10, d_txt=9, seed=0))
    _, dev, _ = small_data()
    for mode in ("gsc", "im_only", "single_net", "no_ensemble"):
        with pytest.raises(ValueError, match="train split has 3 samples.*at least 4"):
            run(small_cfg(mode=mode), tiny, dev)
    for mode in ("baseline", "cm_only"):
        assert len(run(small_cfg(mode=mode, epochs=1), tiny, dev).history) == 2
    four = generate(GenSpec(n=4, n_clusters=2, d_latent=6, d_img=10, d_txt=9, seed=0))
    empty, _, _ = split(four, 0.0, 0.5, 0.5, derive_rng(0, "split"))
    for mode in ("baseline", "cm_only"):  # every mode needs a train sample
        with pytest.raises(ValueError, match="train split has 0 samples.*at least 1"):
            run(small_cfg(mode=mode), empty, dev)
    _, small_dev, _ = small_data(n=40)
    with pytest.raises(ValueError, match="dev split has 6 samples.*at least 10"):
        run(small_cfg(mode="baseline"), tiny, small_dev)
    with pytest.raises(ValueError, match="test split has 6 samples"):
        check_split_sizes("baseline", tiny, dev, small_dev)


def test_batch_schedule_covers_and_merges_singleton():
    rng = derive_rng(0, "sched")
    chunks = batch_schedule(33, 16, rng)
    assert [c.size for c in chunks] == [16, 17]
    seen = np.concatenate(chunks)
    assert np.array_equal(np.sort(seen), np.arange(33))
    again = batch_schedule(33, 16, derive_rng(0, "sched"))
    assert all(np.array_equal(a, b) for a, b in zip(chunks, again))
    # init_state sizes the run's work buffer by the largest batch of a
    # schedule cut with any generator: the batch sizes depend on n and the
    # batch size alone
    for n, size in itertools.product((2, 3, 16, 17, 33, 48, 2000, 2001), (2, 16, 128, 400)):
        sizes = [c.size for c in batch_schedule(n, size, rng)]
        assert sizes == [c.size for c in batch_schedule(n, size, derive_rng(n, size))]
        assert max(sizes) == min(n, size) + (n > size and n % size == 1)


def test_learning_rate_decay_is_exact():
    cfg = TrainConfig(lr=2e-4, lr_decay=0.2, lr_decay_epoch=15)
    assert learning_rate(cfg, 14) == 2e-4
    assert learning_rate(cfg, 15) == 2e-4 * 0.2
    assert learning_rate(cfg, 40) == 2e-4 * 0.2


# ---------------------------------------------------------------------------
# state initialization and warm-up
# ---------------------------------------------------------------------------

def test_init_state_networks_differ_and_labels_cross():
    train, _, _ = small_data()
    state = init_state(small_cfg(), train)
    assert [net.name for net in state.nets] == ["A", "B"]
    assert not np.array_equal(state.nets[0].img_enc.weights[0],
                              state.nets[1].img_enc.weights[0])
    assert len(state.labels) == 2
    assert all(np.all(lb.y == 1.0) for lb in state.labels)
    # one zero Adam state per network, laid out like its theta
    for net, adam in zip(state.nets, state.adam):
        assert adam.step == 0 and adam.m.shape == adam.v.shape == net.theta.shape
        assert not np.any(adam.m) and not np.any(adam.v)
    assert state.adam[0].m is not state.adam[1].m
    single = init_state(small_cfg(mode="single_net"), train)
    assert len(single.nets) == 1 and len(single.labels) == 1 and len(single.adam) == 1
    # one B x B buffer for the largest batch, a trailing singleton merged in
    for batch_size, largest in ((train.n, train.n), (train.n - 1, train.n), (16, 16)):
        assert init_state(small_cfg(batch_size=batch_size), train).work.size == largest ** 2


def test_network_is_one_theta_with_encoder_views():
    rng = derive_rng(2, "network-theta")
    img, txt = Encoder.init([10, 12, 8], rng), Encoder.init([9, 12, 8], rng)
    net = Network("A", img, txt)
    # the image encoder's parameters, then the text encoder's, copied once
    assert np.array_equal(net.theta, np.concatenate([img.theta, txt.theta]))
    assert not np.shares_memory(net.theta, img.theta)
    assert not np.shares_memory(net.theta, txt.theta)
    for enc, part in ((net.img_enc, net.theta[:img.theta.size]),
                      (net.txt_enc, net.theta[img.theta.size:])):
        assert np.shares_memory(enc.theta, net.theta) and np.array_equal(enc.theta, part)
    net.theta[-1] = 7.0
    assert net.txt_enc.biases[-1][-1] == 7.0
    dup = net.copy()
    assert np.array_equal(dup.theta, net.theta) and not np.shares_memory(dup.theta, net.theta)
    assert np.shares_memory(dup.img_enc.weights[0], dup.theta)
    dup.img_enc.weights[0][0, 0] += 1.0
    assert dup.theta[0] == net.theta[0] + 1.0


def train_warmup_epochs(state, train_ds, cfg):
    """The warm-up phase: the first cfg.warmup_epochs epochs of the schedule."""
    return [train_epoch(state, train_ds, cfg) for _ in range(cfg.warmup_epochs)]


def test_warmup_zero_epochs_leaves_unit_labels():
    train, _, _ = small_data()
    cfg = small_cfg(warmup_epochs=0)
    state = init_state(cfg, train)
    rows = train_warmup_epochs(state, train, cfg)
    assert rows == []
    assert all(np.all(lb.y == 1.0) for lb in state.labels)


def test_warmup_populates_label_stores_in_range():
    train, _, _ = small_data()
    cfg = small_cfg()
    state = init_state(cfg, train)
    rows = train_warmup_epochs(state, train, cfg)
    assert len(rows) == 1 and state.epoch == 1
    for lb in state.labels:
        assert np.all((lb.y >= 0.0) & (lb.y <= 1.0))
        assert not np.all(lb.y == 1.0)  # raw estimates, not the init values


def test_warmup_is_deterministic():
    train, _, _ = small_data()
    cfg = small_cfg()
    s1 = init_state(cfg, train)
    train_warmup_epochs(s1, train, cfg)
    s2 = init_state(cfg, train)
    train_warmup_epochs(s2, train, cfg)
    assert np.array_equal(s1.nets[0].img_enc.weights[0], s2.nets[0].img_enc.weights[0])
    assert np.array_equal(s1.labels[0].y, s2.labels[0].y)


# ---------------------------------------------------------------------------
# mode contracts
# ---------------------------------------------------------------------------

def test_baseline_mode_keeps_unit_labels_all_run():
    train, dev, _ = small_data()
    res = run(small_cfg(mode="baseline"), train, dev)
    for lb in res.labels:
        assert np.all(lb.y == 1.0)
        assert np.all(lb.y_cm == 1.0) and np.all(lb.y_im == 1.0)


def test_cm_only_skips_gmm_and_uses_cm_labels():
    train, dev, _ = small_data()
    res = run(small_cfg(mode="cm_only"), train, dev)
    for lb in res.labels:
        assert np.all(lb.y_im == 1.0)
        assert np.array_equal(lb.y, lb.y_cm)


def test_im_only_uses_posterior_labels():
    train, dev, _ = small_data()
    res = run(small_cfg(mode="im_only"), train, dev)
    for lb in res.labels:
        assert np.all(lb.y_cm == 1.0)
        assert np.array_equal(lb.y, lb.y_im)
        assert not np.all(lb.y_im == 1.0)


def test_single_net_runs_with_self_estimates():
    train, dev, _ = small_data()
    res = run(small_cfg(mode="single_net"), train, dev)
    assert len(res.best_nets) == 1
    assert len(res.labels) == 1 and not np.all(res.labels[0].y == 1.0)


# ---------------------------------------------------------------------------
# one full epoch against a lockstep reference implementation
# ---------------------------------------------------------------------------

REFERENCE_ESTIMATORS = {  # mode -> (networks, cross-modal, intra-modal)
    "gsc": (2, True, True),
    "baseline": (2, False, False),
    "cm_only": (2, True, False),
    "im_only": (2, False, True),
    "single_net": (1, True, True),
}


def _reference_batches(rng, n, batch_size):
    order = rng.permutation(n)
    batches = [order[i:i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and batches[-1].size < 2:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _reference_estimate(labels, src, x_img, x_txt, batches, cfg, use_cm, use_im,
                        beta):
    n = x_img.shape[0]
    est_cm = np.ones(n)
    scores = np.zeros(n)
    for idx in batches:
        e_i = encode(src.img_enc, x_img[idx])[0]
        e_t = encode(src.txt_enc, x_txt[idx])[0]
        if use_cm:
            est_cm[idx] = cross_modal_indicator(sim_matrix(e_i, e_t), cfg.tau1)
        if use_im:
            scores[idx] = intra_structure_score(sim_matrix(e_i, e_i),
                                                sim_matrix(e_t, e_t), labels.y[idx])
    y_im = np.ones(n)
    if use_im:
        y_im = gmm_posterior(gmm_fit(scores, iters=cfg.gmm_iters, floor=cfg.gmm_floor),
                             scores)
    return ensemble_update(labels, est_cm, y_im, *beta)


def _reference_epoch(state, train_ds, cfg):
    """Scripted re-implementation of the documented epoch contract, built
    directly on the verified primitives."""
    _, use_cm, use_im = REFERENCE_ESTIMATORS[cfg.mode]
    estimate = use_cm or use_im
    x_img = train_ds.img
    x_txt = train_ds.txt[train_ds.match_perm]
    n = train_ds.n
    lr = cfg.lr * cfg.lr_decay if state.epoch >= cfg.lr_decay_epoch else cfg.lr
    warm = state.epoch < cfg.warmup_epochs
    sources = [net.copy() for net in state.nets]
    new_labels = list(state.labels)
    for k, (net, adam) in enumerate(zip(state.nets, state.adam)):
        batches = _reference_batches(derive_rng(cfg.seed, "batches", state.epoch, k),
                                     n, cfg.batch_size)
        y_frozen = state.labels[k].y
        if estimate and not warm:
            new_labels[k] = _reference_estimate(
                state.labels[k], sources[(k + 1) % len(sources)], x_img, x_txt,
                batches, cfg, use_cm, use_im, (cfg.beta1, cfg.beta2))
        for idx in batches:
            _, grad = grad_total(net.img_enc, net.txt_enc, x_img[idx], x_txt[idx],
                                 y_frozen[idx], cfg.tau1, cfg.tau2, cfg.gamma)
            adam_step(net.theta, grad, adam, lr)
    if estimate and state.epoch == cfg.warmup_epochs - 1:
        new_labels = [
            _reference_estimate(
                state.labels[k], state.nets[(k + 1) % len(state.nets)], x_img, x_txt,
                _reference_batches(derive_rng(cfg.seed, "est-init", k), n, cfg.batch_size),
                cfg, use_cm, use_im, (1.0, 1.0))  # raw seeding right after warm-up
            for k in range(len(state.nets))]
    state.labels = new_labels
    state.epoch += 1


def _assert_states_match(state, ref_state):
    assert len(state.nets) == len(ref_state.nets)
    for net, ref in zip(state.nets, ref_state.nets):
        for enc, ref_enc in ((net.img_enc, ref.img_enc), (net.txt_enc, ref.txt_enc)):
            assert np.max(np.abs(enc.theta - ref_enc.theta)) < 1e-10
    for adam, ref_adam in zip(state.adam, ref_state.adam):
        assert adam.step == ref_adam.step
        assert np.max(np.abs(adam.m - ref_adam.m)) < 1e-10
        assert np.max(np.abs(adam.v - ref_adam.v)) < 1e-10
    for lb, ref_lb in zip(state.labels, ref_state.labels):
        assert np.max(np.abs(lb.y - ref_lb.y)) < 1e-10
        assert np.max(np.abs(lb.y_cm - ref_lb.y_cm)) < 1e-10
        assert np.max(np.abs(lb.y_im - ref_lb.y_im)) < 1e-10
    assert state.epoch == ref_state.epoch


@pytest.mark.parametrize("mode", sorted(REFERENCE_ESTIMATORS))
def test_train_epoch_matches_lockstep_reference(mode):
    ds = generate(GenSpec(n=64, n_clusters=8, d_latent=6, d_img=10, d_txt=9, seed=3))
    train = inject_noise(ds, 0.4, derive_rng(3, "noise"))
    cfg = small_cfg(batch_size=16, seed=3, mode=mode)
    state = init_state(cfg, train)
    ref_state = init_state(cfg, train)
    assert len(state.nets) == REFERENCE_ESTIMATORS[mode][0]
    # same starting point
    assert np.array_equal(state.nets[0].img_enc.weights[0],
                          ref_state.nets[0].img_enc.weights[0])

    # the warm-up epoch with its label seeding, then one co-training epoch
    for _ in range(cfg.warmup_epochs + 1):
        train_epoch(state, train, cfg)
        _reference_epoch(ref_state, train, cfg)
        _assert_states_match(state, ref_state)
    assert all(np.all(lb.y == 1.0) for lb in state.labels) == (mode == "baseline")


def test_train_epoch_aborts_with_location_on_nonfinite():
    train, _, _ = small_data()
    cfg = small_cfg()
    state = init_state(cfg, train)
    train_warmup_epochs(state, train, cfg)
    state.nets[0].img_enc.weights[-1][0, 0] = np.inf
    with pytest.raises(NumericalError, match="epoch 1, net A, batch 0"):
        train_epoch(state, train, cfg)


def test_label_estimation_aborts_with_location_on_nonfinite_source():
    # net A's labels are estimated from net B before A trains
    train, _, _ = small_data()
    cfg = small_cfg()
    state = init_state(cfg, train)
    train_warmup_epochs(state, train, cfg)
    state.nets[1].img_enc.weights[-1][0, 0] = np.inf
    with pytest.raises(NumericalError, match="epoch 1, net B, batch 0, label estimation: "
                                             "non-finite values in image embeddings"):
        train_epoch(state, train, cfg)


@pytest.mark.parametrize("split_index, name", [(1, "dev"), (2, "test")])
def test_evaluation_aborts_naming_the_network_and_the_split_on_nonfinite(split_index, name):
    splits = small_data()
    nets = init_state(small_cfg(), splits[0]).nets
    nets[0].img_enc.weights[-1][0, 0] = np.inf
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=f"^net A, {name} evaluation: non-finite values in image "
                                  "embeddings$"):
        evaluate_retrieval(nets, splits[split_index])


@pytest.mark.parametrize("mode", MODES)
def test_a_healthy_run_raises_no_floating_point_error(mode):
    # `cli.main` runs every command with numpy's warnings off, so a healthy run
    # must not overflow, divide by zero or make a NaN anywhere on its way
    train, dev, test = small_data()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        result = run(small_cfg(mode=mode), train, dev)
        evaluate_retrieval(result.best_nets, test)


@pytest.mark.parametrize("mode", ["gsc", "single_net"])
def test_co_training_epoch_copies_no_network(monkeypatch, mode):
    # every network's labels are estimated before any network trains, so no
    # network is snapshotted for label estimation
    train, _, _ = small_data()
    cfg = small_cfg(mode=mode)
    state = init_state(cfg, train)
    train_warmup_epochs(state, train, cfg)
    copies = []
    copy = Network.copy
    monkeypatch.setattr(Network, "copy", lambda net: copies.append(net.name) or copy(net))
    seeded = [lb.y for lb in state.labels]
    train_epoch(state, train, cfg)
    assert copies == []
    assert all(not np.array_equal(lb.y, y) for lb, y in zip(state.labels, seeded))


@pytest.mark.parametrize("mode", ["gsc", "single_net"])
def test_co_training_epoch_makes_one_adam_step_per_network_and_batch(monkeypatch, mode):
    train, _, _ = small_data()
    cfg = small_cfg(mode=mode)
    state = init_state(cfg, train)
    train_warmup_epochs(state, train, cfg)
    steps = []
    step = trainer.adam_step
    monkeypatch.setattr(trainer, "adam_step",
                        lambda theta, *args: steps.append(theta) or step(theta, *args))
    train_epoch(state, train, cfg)
    n_batches = len(batch_schedule(train.n, cfg.batch_size, derive_rng(0, "count")))
    assert len(steps) == len(state.nets) * n_batches
    for k, net in enumerate(state.nets):  # every step covers the whole network
        assert all(theta is net.theta for theta in steps[k * n_batches:(k + 1) * n_batches])
        assert state.adam[k].step == (cfg.warmup_epochs + 1) * n_batches


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_zero_epochs_returns_warmup_state_only():
    train, dev, _ = small_data()
    res = run(small_cfg(epochs=0), train, dev)
    assert len(res.history) == 1  # the single warm-up epoch
    assert res.history[0]["epoch"] == 0
    assert res.best_epoch == 0


def test_run_history_shape_and_determinism():
    train, dev, _ = small_data()
    cfg = small_cfg()
    rows1, rows2 = [], []
    res1 = run(cfg, train, dev, rows1.append)
    res2 = run(cfg, train, dev, rows2.append)
    assert len(res1.history) == cfg.warmup_epochs + cfg.epochs
    expected_keys = {"epoch", "mode", "loss_cm", "loss_im", "dev_r1_i2t",
                     "dev_r1_t2i", "recall_sum", "det_acc", "det_auc"}
    for row in res1.history:
        assert set(row) == expected_keys
    assert res1.history == res2.history  # bit-exact
    assert res1.best_recall_sum == max(r["recall_sum"] for r in res1.history)
    assert len(rows1) == len(res1.history)  # one sink call per epoch
    for row, again in zip(rows1, rows2):
        assert sorted(row) == ["y", "y_cm", "y_im"]
        for key, labels in row.items():
            assert labels.shape == (train.n,)
            assert np.array_equal(labels, again[key])
    # the last row is the run's final labels, the mean over the networks
    for key in ("y", "y_cm", "y_im"):
        final = np.mean([getattr(lb, key) for lb in res1.labels], axis=0)
        assert np.array_equal(rows1[-1][key], final)
    assert run(cfg, train, dev).history == res1.history  # the sink changes nothing


def test_run_best_checkpoint_reproduces_best_dev_score():
    train, dev, _ = small_data(seed=5)
    res = run(small_cfg(seed=5), train, dev)
    retr = evaluate_retrieval(res.best_nets, dev)
    assert retr.recall_sum == pytest.approx(res.best_recall_sum)


@pytest.mark.parametrize("p", [10, 31, 32, 33, 250])
def test_evaluate_retrieval_scores_the_mean_of_the_full_similarity_matrices(p, monkeypatch):
    # dev sizes below, at and one row past a 32-row block, and the desk dev split's
    ds = generate(GenSpec(n=p, n_clusters=8, seed=p))
    nets = init_state(TrainConfig(seed=p), ds).nets
    s_a, s_b = (sim_matrix(encode(net.img_enc, ds.img)[0], encode(net.txt_enc, ds.txt)[0])
                for net in nets)
    full = (s_a + s_b) / 2
    scored = []
    monkeypatch.setattr(trainer, "retrieval_report",
                        lambda s: scored.append(s.copy()) or retrieval_report(s))
    assert evaluate_retrieval(nets, ds) == retrieval_report(full)
    # a row block's product may differ from the full product in the last bit
    (blocked,) = scored
    assert np.max(np.abs(blocked - full)) <= 4 * np.spacing(1.0)


def test_run_detection_improves_over_warmup_epoch():
    # desk-scale defaults; the final labels must beat the post-warmup raw
    # estimates at threshold 0.5 on the run's own logs
    ds = generate(GenSpec(n=2500, seed=21))
    train, dev, _ = split(ds, 0.8, 0.1, 0.1, derive_rng(21, "split"))
    train = inject_noise(train, 0.4, derive_rng(21, "noise"))
    res = run(TrainConfig(seed=21), train, dev)
    assert res.history[-1]["det_acc"] > res.history[0]["det_acc"]
    assert res.detection.accuracy == res.history[-1]["det_acc"]


def test_modes_tuple_is_complete():
    assert MODES == ("gsc", "baseline", "cm_only", "im_only", "single_net", "no_ensemble")
