"""Peak allocation of the per-step kernels, of a training epoch and of its
label estimation, in B x B float64 arrays, of dev evaluation, of a whole
run's label sink, and of loading a dataset split.

numpy reports its buffers to tracemalloc, so the traced peak of one call,
with its inputs allocated beforehand, counts the temporaries the call makes.
"""

import tracemalloc

import numpy as np
import pytest

from gsc.discrimination import embedding_indicator, embedding_structure_score
from gsc.losses import _embedding_grads
from gsc.numerics import derive_rng, softmax_rows
from gsc.synthdata import GenSpec, generate, inject_noise, load_dataset, save_dataset, split
from gsc.trainer import (TrainConfig, _next_labels, batch_schedule, evaluate_retrieval,
                         init_state, run, train_epoch)

B, D = 256, 32


def _peak(fn, *args):
    """Peak traced bytes of ``fn(*args)``."""
    fn(*args)  # first-call set-up is not a per-step cost
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _peak_bxb(fn, *args):
    """Peak traced bytes of ``fn(*args)`` in units of one B x B float64 array."""
    return _peak(fn, *args) / (B * B * 8)


def _unit_rows(rng):
    e = rng.standard_normal((B, D))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


def test_loss_kernel_keeps_one_bxb_buffer():
    rng = derive_rng(0, "mem-grads")
    e_img = _unit_rows(rng)
    e_txt = _unit_rows(rng)
    y = rng.uniform(0.0, 1.0, size=B)
    assert _peak_bxb(_embedding_grads, e_img, e_txt, y, 0.07, 1.0, 0.01) < 2.0


def test_kernels_allocate_no_bxb_array_with_the_runs_buffers():
    rng = derive_rng(4, "mem-work")
    e_img = _unit_rows(rng)
    e_txt = _unit_rows(rng)
    y = rng.uniform(0.0, 1.0, size=B)
    work = np.empty(B * B)  # exactly one B x B buffer
    results = 2 * B * D / (B * B)  # the two B x d embedding gradients
    assert _peak_bxb(_embedding_grads, e_img, e_txt, y, 0.07, 1.0, 0.01, work) < results + 0.5
    assert _peak_bxb(embedding_indicator, e_img, e_txt, 0.07, work) < 0.5


def test_training_epoch_at_batch_400_allocates_little_beside_the_runs_buffer():
    # the train split and batch size of the gsc_bigbatch benchmark workload
    ds = inject_noise(generate(GenSpec(n=2000, seed=3)), 0.4, derive_rng(3, "noise"))
    cfg = TrainConfig(batch_size=400, warmup_epochs=0, seed=3)
    state = init_state(cfg, ds)
    assert state.work.size == 400 * 400
    # Measured: 1.27 B x B (1.63 MB), the step's B x d arrays and one
    # estimation batch. With a run buffer of two B x B arrays, one presented
    # copy of every text per epoch, two estimation batches alive at once and
    # fresh encode and backprop temporaries, it was 2.31.
    assert _peak(train_epoch, state, ds, cfg) / state.work.nbytes < 1.5


def test_label_estimation_at_batch_400_keeps_no_encoder_cache():
    # the train split and batch size of the gsc_bigbatch benchmark workload
    ds = inject_noise(generate(GenSpec(n=2000, seed=3)), 0.4, derive_rng(3, "noise"))
    cfg = TrainConfig(batch_size=400, warmup_epochs=0, seed=3)
    state = init_state(cfg, ds)
    schedules = [batch_schedule(ds.n, 400, derive_rng(3, "batches", k)) for k in range(2)]
    # Measured: 0.58 B x B (0.74 MB), one batch's embedding matrices, the
    # scoring temporaries and the n-vectors of the estimates; each modality's
    # gathered features and encoder cache are freed before the next is
    # encoded. Encoding both modalities before dropping either's features and
    # cache took 0.86 B x B, and holding them while scoring took 1.11.
    peak = _peak(_next_labels, state, ds, schedules, cfg, cfg.beta1, cfg.beta2)
    assert peak / state.work.nbytes < 0.7


def test_a_second_network_adds_no_similarity_matrix_to_evaluation():
    # the desk workloads' dev split: P = 250
    ds = generate(GenSpec(n=250, seed=3))
    nets = init_state(TrainConfig(seed=3), ds).nets
    pxp = ds.n * ds.n * 8
    # Measured: 1.65 P x P with two networks and 1.53 with one. Two full
    # similarity matrices and both networks' encoder caches took 2.78 and 1.78.
    extra = _peak(evaluate_retrieval, nets, ds) - _peak(evaluate_retrieval, nets[:1], ds)
    assert extra / pxp < 0.25


def test_evaluation_holds_one_similarity_matrix_and_no_embedding_while_ranking():
    # the desk workloads' dev split: P = 250. Dev evaluation sets the traced
    # peak of a gsc_desk run: 822 KB on the seed-11 splits, against 706 KB
    # for a training epoch.
    ds = generate(GenSpec(n=250, seed=3))
    nets = init_state(TrainConfig(seed=3), ds).nets
    pxp = ds.n * ds.n * 8
    # Measured: 1.64 P x P with two networks. Allocating the matrix before
    # the first network is encoded took 1.91, and keeping the embeddings
    # through the ranking 2.05.
    assert _peak(evaluate_retrieval, nets, ds) / pxp < 1.75


@pytest.mark.parametrize("epochs", [2, 24])
def test_a_run_holds_no_epoch_of_labels_its_sink_has_dropped(epochs):
    ds = generate(GenSpec(n=400, seed=5))
    train, dev, _ = split(ds, 0.8, 0.1, 0.1, derive_rng(5, "split"))
    train = inject_noise(train, 0.4, derive_rng(5, "noise"))
    cfg = TrainConfig(epochs=epochs, batch_size=64, hidden_dims=(16,), embed_dim=8, seed=5)
    without = _peak(run, cfg, train, dev)
    with_sink = _peak(run, cfg, train, dev, lambda labels: None)
    # Each epoch's three label vectors live only until the sink returns, so
    # the sink's cost is a few n-vectors at any epoch count; a run that kept
    # every epoch's labels would add 3 * (1 + epochs) of them.
    assert with_sink - without < 4 * train.n * 8


def test_softmax_rows_allocates_only_its_result():
    m = derive_rng(1, "mem-softmax").uniform(-1.0, 1.0, size=(B, B))
    assert _peak_bxb(softmax_rows, m, 0.07) < 1.5


def test_embedding_structure_score_builds_no_bxb_matrix():
    rng = derive_rng(2, "mem-structure")
    ei, et = _unit_rows(rng), _unit_rows(rng)
    y = rng.uniform(0.0, 1.0, size=B)
    assert _peak_bxb(embedding_structure_score, ei, et, y) < 1.0


def test_loading_a_split_holds_no_python_float_per_value(tmp_path):
    # a train split of the benchmark's size: 2,000 rows of 48 + 40 features
    ds = generate(GenSpec(n=2000, seed=3))
    path = tmp_path / "train.json"
    save_dataset(ds, path)
    matrix_bytes = ds.img.nbytes + ds.txt.nbytes
    # The matrices are .npy files read straight into their arrays, and the
    # JSON head's lists of perm, mask and clusters take the peak to 1.17
    # matrix_bytes. Of the text layouts before, json.load's Python floats
    # took it to file_bytes + 4.3 matrix_bytes, and a reader of one matrix
    # row a line to 1.17 matrix_bytes.
    assert _peak(load_dataset, path) < 1.5 * matrix_bytes
