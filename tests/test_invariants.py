"""Invariance gates of the batch kernels: each needs no second implementation.

Each row of ``CASES`` names a kernel, a transformation of its inputs that
leaves its output unchanged (or permuted with the batch), and the tolerance
of the comparison: the largest absolute difference over the largest
absolute entry of the untransformed output. The rows run at B = 128 and at
B = 400, a size at which the B x B reference forms are slow. The encoder
has an exact invariance of its own: a power of two on its last layer moves
no bit of the embeddings.
"""

import numpy as np
import pytest

from gsc.discrimination import embedding_indicator, embedding_structure_score
from gsc.losses import grad_total
from gsc.model import Encoder, encode, param_layout
from gsc.numerics import derive_rng

D = 32  # embedding width
D_IMG, D_TXT, HIDDEN = 24, 20, 48
TAU1, TAU2, GAMMA = 0.07, 1.0, 0.01  # TrainConfig's defaults


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _rotation(rng):
    """A random orthogonal D x D matrix."""
    q, r = np.linalg.qr(rng.standard_normal((D, D)))
    return q * np.sign(np.diag(r))


def _embeddings(b, rng):
    """Unit image rows, unit text rows near them, and labels in [0.05, 1]."""
    e_img = _unit_rows(rng.standard_normal((b, D)))
    e_txt = _unit_rows(e_img + 0.5 * rng.standard_normal((b, D)))
    return e_img, e_txt, rng.uniform(0.05, 1.0, b)


def structure_score_under_separate_rotations(b, rng):
    e_img, e_txt, y = _embeddings(b, rng)
    yield (embedding_structure_score(e_img, e_txt, y),
           embedding_structure_score(e_img @ _rotation(rng), e_txt @ _rotation(rng), y))


def indicator_under_a_shared_rotation(b, rng):
    e_img, e_txt, _ = _embeddings(b, rng)
    q = _rotation(rng)
    yield embedding_indicator(e_img, e_txt, TAU1), embedding_indicator(e_img @ q, e_txt @ q, TAU1)


def structure_score_under_a_batch_permutation(b, rng):
    e_img, e_txt, y = _embeddings(b, rng)
    p = rng.permutation(b)
    yield (embedding_structure_score(e_img, e_txt, y)[p],
           embedding_structure_score(e_img[p], e_txt[p], y[p]))


def indicator_under_a_batch_permutation(b, rng):
    e_img, e_txt, _ = _embeddings(b, rng)
    p = rng.permutation(b)
    yield embedding_indicator(e_img, e_txt, TAU1)[p], embedding_indicator(e_img[p], e_txt[p], TAU1)


def grad_total_under_a_batch_permutation(b, rng):
    """Both losses and the gradient are means over the batch, so a
    permutation of the pairs leaves each of them unchanged."""
    enc_img = Encoder.init([D_IMG, HIDDEN, D], rng)
    enc_txt = Encoder.init([D_TXT, HIDDEN, D], rng)
    x_img = rng.standard_normal((b, D_IMG))
    x_txt = rng.standard_normal((b, D_TXT))
    y = rng.uniform(0.05, 1.0, b)
    p = rng.permutation(b)
    report, grad = grad_total(enc_img, enc_txt, x_img, x_txt, y, TAU1, TAU2, GAMMA)
    report_p, grad_p = grad_total(enc_img, enc_txt, x_img[p], x_txt[p], y[p], TAU1, TAU2, GAMMA)
    yield np.array(report.l_cm), np.array(report_p.l_cm)
    yield np.array(report.l_im), np.array(report_p.l_im)
    yield grad, grad_p


# (kernel and transformation, relative tolerance); over 20 seeds of these
# inputs the rounding came to at most 2.8e-15
CASES = [
    (structure_score_under_separate_rotations, 1e-13),
    (indicator_under_a_shared_rotation, 1e-13),
    (structure_score_under_a_batch_permutation, 1e-13),
    (indicator_under_a_batch_permutation, 1e-13),
    (grad_total_under_a_batch_permutation, 1e-13),
]


@pytest.mark.parametrize("b", [128, 400])
@pytest.mark.parametrize("case, tol", CASES, ids=[case.__name__ for case, _ in CASES])
def test_kernel_output_is_invariant(case, tol, b):
    for want, got in case(b, derive_rng(b, "invariants", case.__name__)):
        assert got.shape == want.shape
        scale = np.abs(want).max()
        assert scale > 0
        assert np.abs(got - want).max() <= tol * scale


def _last_layer_times(enc, factor):
    scaled = Encoder(enc.dims, enc.theta.copy())
    scaled.weights[-1][...] *= factor
    scaled.biases[-1][...] *= factor
    return scaled


@pytest.mark.parametrize("k", [-30, -70, -560])
def test_a_power_of_two_on_the_last_layer_moves_only_its_gradient(k):
    """Multiplying the last affine layer by 2^k multiplies every row the
    normalization receives by 2^k, exactly. So the embeddings, and with them
    the first layer's gradient, keep every bit, and the last layer's
    gradient is multiplied by exactly 2^-k. At k = -70 and -560 the row
    norms are below ``NORM_FLOOR``; at -560 the squares of the entries
    underflow."""
    b = 128
    rng = derive_rng(b, "invariants", "last-layer-pow2", k)
    enc_img = Encoder.init([D_IMG, HIDDEN, D], rng)
    enc_txt = Encoder.init([D_TXT, HIDDEN, D], rng)
    x_img = rng.standard_normal((b, D_IMG))
    x_txt = rng.standard_normal((b, D_TXT))
    y = rng.uniform(0.05, 1.0, b)
    scaled = [_last_layer_times(enc, 2.0 ** k) for enc in (enc_img, enc_txt)]
    for enc, enc_scaled, x in zip((enc_img, enc_txt), scaled, (x_img, x_txt)):
        assert np.array_equal(encode(enc_scaled, x)[0], encode(enc, x)[0])
    _, grad = grad_total(enc_img, enc_txt, x_img, x_txt, y, TAU1, TAU2, GAMMA)
    _, grad_scaled = grad_total(*scaled, x_img, x_txt, y, TAU1, TAU2, GAMMA)
    cut = enc_img.theta.size
    for part, part_scaled, dims in ((grad[:cut], grad_scaled[:cut], enc_img.dims),
                                    (grad[cut:], grad_scaled[cut:], enc_txt.dims)):
        for name, where, _ in param_layout(dims):
            factor = 2.0 ** -k if int(name[1:]) == len(dims) - 2 else 1.0  # the last layer
            assert np.array_equal(part_scaled[where], part[where] * factor), name
