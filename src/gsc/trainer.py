"""Dual-network co-training loop with per-epoch label estimation.

Two independently initialized encoder pairs train side by side, each a
``Network`` whose two encoders are views of one flat parameter vector, so a
batch is one gradient of the total loss and one Adam step. The labels
weighting each network's losses are always estimated from the other
network's embeddings as they stand at epoch start: every network's next
labels are estimated before either network trains, so no network is copied
and training the two in sequence or in parallel gives identical results.
Cross-modal indicators and intra-modal structure scores accumulate over the
whole epoch, one Gaussian mixture is fitted per network per epoch, and the
label stores are updated by momentum before the next epoch begins.

Epoch indexing: one epoch counter spans warm-up and main epochs, starting at
0, and every epoch is one ``train_epoch`` call; warm-up epochs are the first
``warmup_epochs`` values of that counter. The learning-rate decay epoch is
measured on the same counter. ``MODE_SPECS`` says what each mode runs; a
``TrainConfig`` holds its mode's overrides from the moment it is built, so
every function here reads the values the run uses straight from it.

``RunState.work`` is the run's one B x B work buffer, a flat float64 array
of B^2 entries (B the largest batch ``batch_schedule`` cuts) that
``init_state`` allocates: every training step (``grad_total``) and every
cross-modal indicator (``embedding_indicator``) writes its B x B
intermediates into its own ``bxb_view`` of it; `losses` says why the buffer
belongs to the run and not to the step. A batch's features are gathered
from the split as it is needed, the texts through
``PairDataset.paired_txt``, so no epoch copies the presented texts, and
label estimation keeps one batch's embedding matrices alive at a time, with
no encoder cache or gathered features. Dev evaluation holds one P x P
similarity matrix for any number of networks: every network's similarities
are added into it the same way, a row block at a time
(``evaluate_retrieval``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrimination import (GMM_MIN_SCORES, SoftLabels, embedding_indicator,
                             embedding_structure_score, ensemble_update, gmm_fit,
                             gmm_posterior)
from .evalmetrics import (RECALL_KS, DetectionReport, RetrievalReport, detection_metrics,
                          retrieval_report)
from .losses import grad_total
from .model import Encoder, encode, sim_matrix
from .numerics import (ROW_BLOCK, AdamState, NumericalError, adam_step, derive_rng,
                       require_cosine_temperature, require_int, require_positive,
                       require_unit_interval)
from .synthdata import PairDataset

__all__ = [
    "MODES",
    "MODE_SPECS",
    "ModeSpec",
    "Network",
    "RunResult",
    "RunState",
    "TrainConfig",
    "batch_schedule",
    "check_split_sizes",
    "combined_labels",
    "evaluate_retrieval",
    "init_state",
    "learning_rate",
    "run",
    "train_epoch",
]


@dataclass(frozen=True)
class ModeSpec:
    """What a mode runs: how many networks and which label estimators.

    A mode with neither estimator keeps its unit labels for the whole run.
    ``beta`` and ``warmup_epochs``, when set, replace the momentum
    coefficients and warm-up length of every ``TrainConfig`` of the mode.
    """

    n_nets: int = 2
    use_cm: bool = True
    use_im: bool = True
    beta: float | None = None
    warmup_epochs: int | None = None

    @property
    def estimates(self) -> bool:
        return self.use_cm or self.use_im


MODE_SPECS = {
    "gsc": ModeSpec(),  # the full method, and the default mode
    "baseline": ModeSpec(use_cm=False, use_im=False),
    "cm_only": ModeSpec(use_im=False),
    "im_only": ModeSpec(use_cm=False),
    "single_net": ModeSpec(n_nets=1),  # labels from the network's own outputs
    # raw estimates every epoch (momentum 1) after a longer warm-up
    "no_ensemble": ModeSpec(beta=1.0, warmup_epochs=5),
}
MODES = tuple(MODE_SPECS)


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of a training run.

    Defaults: temperatures (0.07, 1), loss balance 0.01, label momentum 0.7,
    batch 128, step decay x0.2 at epoch 15; learning rate and encoder sizes
    are chosen for desk-scale synthetic data. Recording the labels is not a
    knob of the run: ``run`` hands each epoch's labels to its ``on_labels``
    sink, through which ``gsc train --dump-labels`` writes them as the run
    goes.

    Construction checks every knob as given and the mode (a ValueError
    names the first bad one), writes the mode's ``MODE_SPECS`` overrides
    over ``beta1``, ``beta2`` and ``warmup_epochs``, then checks that the
    run has an epoch, so a config holds the values its run uses and no
    invalid config exists. ``dataclasses.replace`` keeps the overridden
    values, so build a config of another mode from the knobs as given,
    not by replacing the mode of a built one.
    """

    tau1: float = 0.07
    tau2: float = 1.0
    gamma: float = 0.01
    beta1: float = 0.7
    beta2: float = 0.7
    batch_size: int = 128
    epochs: int = 20
    lr: float = 5e-3
    lr_decay: float = 0.2
    lr_decay_epoch: int = 15
    warmup_epochs: int = 1
    seed: int = 0
    mode: str = MODES[0]
    embed_dim: int = 32  # at least 2: a unit row of width 1 is +-1, so no gradient moves it
    hidden_dims: tuple = (64,)
    gmm_iters: int = 50
    gmm_floor: float = 1e-4

    def __post_init__(self):
        require_cosine_temperature(self.tau1, "tau1")
        for name in ("tau2", "lr", "lr_decay", "gmm_floor"):
            require_positive(getattr(self, name), name)
        require_positive(self.gamma, "gamma", allow_zero=True)
        require_unit_interval(self.beta1, "beta1")
        require_unit_interval(self.beta2, "beta2")
        for name, minimum in (("batch_size", 2), ("epochs", 0), ("warmup_epochs", 0),
                              ("lr_decay_epoch", 0), ("embed_dim", 2), ("gmm_iters", 1)):
            require_int(getattr(self, name), name, minimum)
        for h in self.hidden_dims:
            require_int(h, "hidden_dims entry", 1)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        spec = MODE_SPECS[self.mode]
        if spec.beta is not None:
            object.__setattr__(self, "beta1", spec.beta)
            object.__setattr__(self, "beta2", spec.beta)
        if spec.warmup_epochs is not None:
            object.__setattr__(self, "warmup_epochs", spec.warmup_epochs)
        if self.warmup_epochs + self.epochs < 1:
            raise ValueError("warmup_epochs + epochs must be at least 1: a run of no epoch "
                             "has no dev evaluation to pick a checkpoint by")


@dataclass
class Network:
    """One encoder pair; the unit being co-trained.

    Its parameters are one flat float64 vector ``theta``: the image
    encoder's ``theta``, then the text encoder's, the layout of the gradient
    ``grad_total`` returns. The encoders are rebuilt as views of it, so a
    network built from two encoders copies their parameters and shares no
    memory with them, and one optimizer step covers the network.
    """

    name: str
    img_enc: Encoder
    txt_enc: Encoder

    def __post_init__(self):
        self.theta = np.concatenate([self.img_enc.theta, self.txt_enc.theta])
        cut = self.img_enc.theta.size
        self.img_enc = Encoder(self.img_enc.dims, self.theta[:cut])
        self.txt_enc = Encoder(self.txt_enc.dims, self.theta[cut:])

    def copy(self) -> "Network":
        return Network(self.name, self.img_enc, self.txt_enc)  # one copy of theta


@dataclass
class RunState:
    """Mutable training state: networks, their optimizer state and label
    stores, the B x B work buffer, epoch counter.

    ``adam[k]`` is the ``AdamState`` over ``nets[k].theta``; a checkpoint
    copies the networks' weights only.
    ``labels[k]`` weights the losses of ``nets[k]`` and is estimated from
    the other network's outputs (from its own in single-network mode).
    ``work`` is the flat array of B^2 float64 entries, B the largest batch,
    that every step and label estimate overwrites.
    """

    nets: list
    adam: list
    labels: list
    work: np.ndarray
    epoch: int = 0


def init_state(cfg: TrainConfig, train_ds: PairDataset) -> RunState:
    """Fresh networks (differing only by init stream), zero Adam moments,
    all-ones labels and the work buffer for ``cfg.batch_size`` over ``train_ds``."""
    d_img = train_ds.img.shape[1]
    d_txt = train_ds.txt.shape[1]
    dims_img = [d_img, *cfg.hidden_dims, cfg.embed_dim]
    dims_txt = [d_txt, *cfg.hidden_dims, cfg.embed_dim]
    nets = []
    for k, name in enumerate("AB"[:MODE_SPECS[cfg.mode].n_nets]):
        nets.append(Network(
            name=name,
            img_enc=Encoder.init(dims_img, derive_rng(cfg.seed, "init", k, "img")),
            txt_enc=Encoder.init(dims_txt, derive_rng(cfg.seed, "init", k, "txt")),
        ))
    adam = [AdamState(m=np.zeros_like(net.theta), v=np.zeros_like(net.theta)) for net in nets]
    # a schedule's batch sizes do not depend on its generator
    largest = max(idx.size for idx in batch_schedule(train_ds.n, cfg.batch_size, derive_rng(0)))
    return RunState(nets=nets, adam=adam, labels=[SoftLabels.ones(train_ds.n) for _ in nets],
                    work=np.empty(largest * largest))


def check_split_sizes(mode: str, train_ds: PairDataset, dev_ds: PairDataset,
                      test_ds: PairDataset | None = None) -> None:
    """Reject, before any training, a split too small for ``mode``.

    Dev and test are scored by Recall@10, so each needs 10 samples; every
    mode trains on at least 1 train sample, and a mode that fits the
    structure-score mixture over the train split needs ``GMM_MIN_SCORES``.
    The ValueError names the first split that falls short and its minimum.
    """
    n_eval = max(RECALL_KS)
    minimums = (("train", train_ds, GMM_MIN_SCORES if MODE_SPECS[mode].use_im else 1),
                ("dev", dev_ds, n_eval), ("test", test_ds, n_eval))
    for name, ds, minimum in minimums:
        if ds is not None and ds.n < minimum:
            raise ValueError(f"{name} split has {ds.n} samples; mode {mode!r} "
                             f"needs at least {minimum}")


def batch_schedule(n: int, batch_size: int, rng: np.random.Generator) -> list:
    """Shuffled index batches covering range(n) exactly once.

    A trailing singleton is merged into the previous batch because the
    in-batch indicators need at least two samples.
    """
    order = rng.permutation(n)
    chunks = [order[i:i + batch_size] for i in range(0, n, batch_size)]
    if len(chunks) > 1 and chunks[-1].size < 2:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    """Step schedule: exactly lr * lr_decay from the decay epoch onward."""
    return cfg.lr * cfg.lr_decay if epoch >= cfg.lr_decay_epoch else cfg.lr


def _train_net_over(net: Network, adam: AdamState, ds: PairDataset, y_full, schedule, lr,
                    cfg, epoch: int, work):
    """Adam-train one network across a batch schedule of ``ds``, one step
    per batch; returns loss sums. A non-finite loss, gradient or Adam moment
    raises NumericalError naming the epoch, the network and the batch."""
    cm_sum, im_sum = 0.0, 0.0
    for b_i, idx in enumerate(schedule):
        try:
            report, grad = grad_total(net.img_enc, net.txt_enc,
                                      ds.img[idx], ds.paired_txt(idx), y_full[idx],
                                      cfg.tau1, cfg.tau2, cfg.gamma, work)
            adam_step(net.theta, grad, adam, lr)
        except NumericalError as err:
            raise NumericalError(
                f"epoch {epoch}, net {net.name}, batch {b_i}: {err}") from err
        cm_sum += report.l_cm
        im_sum += report.l_im
    return cm_sum, im_sum


def _estimate_labels(labels: SoftLabels, src: Network, ds: PairDataset, schedule,
                     cfg: TrainConfig, beta1: float, beta2: float,
                     epoch: int, work) -> SoftLabels:
    """Next label store from estimates on ``src``'s embeddings.

    The cross-modal indicator and the purified structure score are computed
    batch by batch from the embedding matrices (``embedding_indicator`` and
    ``embedding_structure_score``; each sample appears in exactly one
    batch). Each modality is encoded on its own, and its gathered features
    and encoder cache are dropped before the next is encoded, so while a
    batch is scored only its two embedding matrices are alive, and they are
    dropped before the next batch is encoded. The structure scores for the
    whole split then feed a single mixture fit. An estimator the mode leaves
    out contributes ones. Non-finite embeddings of ``src`` (``encode``)
    raise NumericalError naming the epoch, ``src``, the batch and this stage.
    """
    spec = MODE_SPECS[cfg.mode]
    n = ds.n
    est_cm = np.ones(n)
    y_im = np.ones(n)
    scores = np.zeros(n)
    y = labels.y
    for b_i, idx in enumerate(schedule):
        try:
            e_i = encode(src.img_enc, ds.img[idx], "image embeddings")[0]
            e_t = encode(src.txt_enc, ds.paired_txt(idx), "text embeddings")[0]
        except NumericalError as err:
            raise NumericalError(f"epoch {epoch}, net {src.name}, batch {b_i}, "
                                 f"label estimation: {err}") from err
        if spec.use_cm:
            est_cm[idx] = embedding_indicator(e_i, e_t, cfg.tau1, work)
        if spec.use_im:
            scores[idx] = embedding_structure_score(e_i, e_t, y[idx])
        del e_i, e_t
    if spec.use_im:
        gmm = gmm_fit(scores, iters=cfg.gmm_iters, floor=cfg.gmm_floor)
        y_im = gmm_posterior(gmm, scores)
    return ensemble_update(labels, est_cm, y_im, beta1, beta2)


def _next_labels(state: RunState, ds: PairDataset, schedules, cfg: TrainConfig,
                 beta1: float, beta2: float) -> list:
    """Every network's next label store, network k's estimated from the
    network after it (itself when it is the only one) on ``schedules[k]``."""
    n_nets = len(state.nets)
    return [_estimate_labels(state.labels[k], state.nets[(k + 1) % n_nets], ds, schedules[k],
                             cfg, beta1, beta2, state.epoch, state.work)
            for k in range(n_nets)]


def train_epoch(state: RunState, train_ds: PairDataset, cfg: TrainConfig) -> dict:
    """Run epoch ``state.epoch`` of ``cfg``'s schedule.

    Every network trains on its labels as they stand at epoch start. In a
    co-training epoch, every network's next labels are estimated before
    either network trains: network k's come from the other network's
    embeddings, weighted by k's current labels, on k's own batch schedule,
    and are smoothed by momentum. A warm-up epoch leaves the unit labels
    alone; after the last one, each store is seeded with raw estimates
    (momentum 1) from the trained networks on its "est-init" schedule. Modes
    without estimators keep unit labels throughout. Every step and estimate
    overwrites ``state.work``.

    So the labels lag the networks by one epoch: the labels estimated at the
    start of epoch e weight the losses of epoch e+1, after both networks
    have trained one more epoch. With W = ``warmup_epochs`` >= 1, the
    seeding pass after epoch W-1 and epoch W's estimate read the same
    networks, so epochs W and W+1 train on labels from the same weights.
    The labels ``state`` holds when epoch e >= W returns, which ``run``
    hands to ``on_labels`` as row e of the label dump and scores for
    detection (the last epoch's is ``report.json``'s), are the labels
    estimated at the start of epoch e. With no warm-up there is no seeding
    pass, and epoch 0 trains on unit labels.
    """
    spec = MODE_SPECS[cfg.mode]
    n = train_ds.n
    epoch = state.epoch
    lr = learning_rate(cfg, epoch)
    schedules = [batch_schedule(n, cfg.batch_size, derive_rng(cfg.seed, "batches", epoch, k))
                 for k in range(len(state.nets))]
    new_labels = state.labels
    if spec.estimates and epoch >= cfg.warmup_epochs:
        new_labels = _next_labels(state, train_ds, schedules, cfg, cfg.beta1, cfg.beta2)
    cm_sum, im_sum = 0.0, 0.0
    for net, adam, labels, schedule in zip(state.nets, state.adam, state.labels, schedules):
        c, i = _train_net_over(net, adam, train_ds, labels.y, schedule, lr, cfg, epoch, state.work)
        cm_sum += c
        im_sum += i
    if spec.estimates and epoch == cfg.warmup_epochs - 1:
        seeding = [batch_schedule(n, cfg.batch_size, derive_rng(cfg.seed, "est-init", k))
                   for k in range(len(state.nets))]
        new_labels = _next_labels(state, train_ds, seeding, cfg, 1.0, 1.0)
    state.labels = new_labels
    state.epoch += 1
    n_batches = sum(len(schedule) for schedule in schedules)
    return {"loss_cm": cm_sum / n_batches, "loss_im": im_sum / n_batches}


def _split_embeddings(net: Network, ds: PairDataset):
    """A network's image and text embedding matrices of a whole split,
    without the encoder caches that only backprop reads. Non-finite ones
    (``encode``) raise NumericalError, to which the network and the split
    (its ``split_tag``) are added here."""
    try:
        return (encode(net.img_enc, ds.img, "image embeddings")[0],
                encode(net.txt_enc, ds.txt, "text embeddings")[0])
    except NumericalError as err:
        raise NumericalError(f"net {net.name}, {ds.split_tag} evaluation: {err}") from err


def evaluate_retrieval(nets, ds: PairDataset) -> RetrievalReport:
    """Retrieval on a split using the mean of the networks' similarities.

    Every network's split is encoded first (matrices only: no encoder cache
    outlives its forward pass); then one zeroed P x P matrix (P = ``ds.n``)
    is allocated, every network's similarities are added into it
    ``ROW_BLOCK`` rows at a time, and the embeddings are dropped before the
    ranking, so the evaluation holds one P x P matrix for any number of
    networks. OpenBLAS picks its kernel by shape, so a row block's product
    can differ from the same rows of the full product in the last bit: the
    mean is not always bit-identical to the mean of full products. Every
    recall is rank-based, so only a tie within the last bit could move one.
    Non-finite embeddings raise NumericalError naming the network and
    ``ds.split_tag``.
    """
    embeddings = [_split_embeddings(net, ds) for net in nets]
    sims = np.zeros((ds.n, ds.n))
    for e_img, e_txt in embeddings:
        for start in range(0, ds.n, ROW_BLOCK):
            sims[start:start + ROW_BLOCK] += sim_matrix(e_img[start:start + ROW_BLOCK], e_txt)
    del embeddings, e_img, e_txt  # the ranking holds only the similarities
    sims /= len(nets)
    return retrieval_report(sims)


def combined_labels(labels) -> np.ndarray:
    """Run-level label estimate: mean over networks of the combined y."""
    return np.mean([lb.y for lb in labels], axis=0)


@dataclass
class RunResult:
    """Everything a finished run produces.

    ``best_nets`` is the checkpoint with the highest dev recall sum;
    ``history`` has one row per epoch (warm-up included) with the keys
    {epoch, mode, loss_cm, loss_im, dev_r1_i2t, dev_r1_t2i, recall_sum,
    det_acc, det_auc}; ``detection`` is the last epoch's detection report.
    Per-epoch labels are not kept here: ``run`` hands each epoch's to its
    ``on_labels`` sink.
    """

    history: list
    best_epoch: int
    best_recall_sum: float
    best_nets: list
    labels: list
    detection: DetectionReport


def run(cfg: TrainConfig, train_ds: PairDataset, dev_ds: PairDataset,
        on_labels=None) -> RunResult:
    """Warm-up, cfg.epochs co-training epochs, per-epoch dev evaluation.

    Model selection keeps the network snapshot with the best dev recall sum;
    ``TrainConfig`` guarantees at least one epoch, and a recall sum is at least
    0, so the first epoch always sets one. A NumericalError of an epoch's dev
    evaluation is raised again with the epoch prepended. Identical (cfg,
    data) reproduce the metric history bit-exactly. After each epoch
    (warm-up included) the sink
    ``on_labels``, when given, is called with {y, y_cm, y_im}: that epoch's
    combined, cross-modal and intra-modal labels, each the mean over the
    networks as an n-vector indexed by train sample. ``run`` keeps none of
    them, so a sink that writes each row out holds one epoch's labels at a
    time.
    """
    check_split_sizes(cfg.mode, train_ds, dev_ds)
    state = init_state(cfg, train_ds)
    history = []
    best_recall_sum, best_epoch, best_nets = -1.0, -1, None
    for epoch in range(cfg.warmup_epochs + cfg.epochs):
        loss = train_epoch(state, train_ds, cfg)
        try:
            retr = evaluate_retrieval(state.nets, dev_ds)
        except NumericalError as err:
            raise NumericalError(f"epoch {epoch}, {err}") from err
        y_run = combined_labels(state.labels)
        det = detection_metrics(y_run, train_ds.noise_mask)
        history.append({
            "epoch": epoch,
            "mode": cfg.mode,
            "loss_cm": loss["loss_cm"],
            "loss_im": loss["loss_im"],
            "dev_r1_i2t": retr.r1_i2t,
            "dev_r1_t2i": retr.r1_t2i,
            "recall_sum": retr.recall_sum,
            "det_acc": det.accuracy,
            "det_auc": det.auc,
        })
        if on_labels is not None:
            on_labels({"y": y_run, **{key: np.mean([getattr(lb, key) for lb in state.labels],
                                                   axis=0) for key in ("y_cm", "y_im")}})
        if retr.recall_sum > best_recall_sum:
            best_recall_sum = retr.recall_sum
            best_epoch = epoch
            best_nets = [net.copy() for net in state.nets]
    return RunResult(history=history, best_epoch=best_epoch, best_recall_sum=best_recall_sum,
                     best_nets=best_nets, labels=state.labels, detection=det)
