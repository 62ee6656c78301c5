"""Peak allocation of the per-step kernels, in B x B float64 arrays.

numpy reports its buffers to tracemalloc, so the traced peak of one call,
with its inputs allocated beforehand, counts the temporaries the call makes.
"""

import tracemalloc

import numpy as np

from gsc.discrimination import embedding_structure_score
from gsc.losses import _embedding_grads
from gsc.model import EmbeddingBatch
from gsc.numerics import derive_rng, softmax_rows

B, D = 256, 32


def _peak_bxb(fn, *args):
    """Peak traced bytes of ``fn(*args)`` in units of one B x B float64 array."""
    fn(*args)  # first-call set-up is not a per-step cost
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (B * B * 8)


def _unit_rows(rng):
    e = rng.standard_normal((B, D))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


def test_loss_kernel_keeps_two_bxb_buffers():
    rng = derive_rng(0, "mem-grads")
    e_img = EmbeddingBatch(_unit_rows(rng))
    e_txt = EmbeddingBatch(_unit_rows(rng))
    y = rng.uniform(0.0, 1.0, size=B)
    assert _peak_bxb(_embedding_grads, e_img, e_txt, y, 0.07, 1.0, 0.01) < 3.0


def test_softmax_rows_allocates_only_its_result():
    m = derive_rng(1, "mem-softmax").uniform(-1.0, 1.0, size=(B, B))
    assert _peak_bxb(softmax_rows, m, 0.07) < 1.5


def test_embedding_structure_score_builds_no_bxb_matrix():
    rng = derive_rng(2, "mem-structure")
    ei, et = _unit_rows(rng), _unit_rows(rng)
    y = rng.uniform(0.0, 1.0, size=B)
    assert _peak_bxb(embedding_structure_score, ei, et, y) < 1.0
