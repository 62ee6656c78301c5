"""Purified contrastive losses and hand-derived gradients for both encoders.

The cross-modal loss is a soft-label-weighted InfoNCE over rows and columns
of the pair-similarity matrix; the intra-modal loss contrasts weighted
structure-agreement logits w[i, j] = sum_k y_k^2 <I_i,I_k><T_j,T_k>. Labels
are constants throughout: estimation and optimization alternate, so no
gradient flows into the label weights.

With embeddings E_I, E_T of shape (B, d), w is a product of two Gram
matrices of rank at most d: w = E_I M E_T^T with the d x d core M = E_I^T
diag(y^2) E_T. ``grad_total`` computes the logits and the structure gradient
through M, so every product costs O(B^2 d) or O(B d^2) instead of the O(B^3)
of forming w from the B x B structure matrices.

The embedding rows are unit-norm, so every cosine s lies in [-1, 1] and
z = (s - 1) / tau1 lies in [-2 / tau1, 0]. That one known shift serves every
row and every column, so one exp of the pair logits
(``numerics.exp_cosines_into``) gives both the row and the column softmax,
and the loss and its gradient follow from the row and column sums; tau1 is
bounded below so that exp(-2 / tau1) stays a normal double. The intra-modal
logits have no such bound (|w| reaches sum(y^2) / tau2), so each of their
rows keeps its own max shift. The structure backward needs only
X = g_w E_T and Y = g_w^T E_I, two B^2 d products, for all four of its terms
(see ``_embedding_grads``).

A step uses one B x B buffer, in two passes. The structure block runs first:
the intra-modal logits, their softmax and their gradient g_w fill the
buffer, and X and Y, taken from it, are summed into the two B x d embedding
gradients. The cross-modal block then overwrites the buffer with the exp of
the pair logits and turns that into the pair-similarity gradient in place,
weighting it a fixed block of rows at a time (``numerics.ROW_BLOCK``)
through a small temporary instead of a second B x B array; its two B x d
products are added last. The buffer belongs to the run, not to the step:
``trainer.init_state`` allocates it once as ``RunState.work``, and every
step and label estimate of the run overwrites it. glibc serves an
allocation above its mmap threshold (128 KiB at start; a B x B float64
array at B = 400 is 1.28 MB) with a fresh mapping whose pages fault in on
first touch, and whether a freed one is reused or returned to the system
depends on a dynamic threshold that unrelated frees raise, so per-step
allocation would make the step's speed depend on what was freed before it.
The B x d arrays of a step are allocated per step; the encoder's forward
and backward pass write what they can in place (``model.encode``,
``_backprop_encoder``).

``loss_cm``, ``loss_im`` and ``structure_logits`` keep the direct B x B
form, with max-shifted softmaxes (``numerics.softmax_into``), as the
reference. Label estimation uses the same shift for the cross-modal
indicator (``discrimination.embedding_indicator``) and factors the structure
score through d x d Grams (``discrimination.embedding_structure_score``,
O(B d^2) with no B x B matrix).

The backward pass goes similarity matrices -> losses -> row normalization ->
tanh/affine stack into one flat gradient for the encoder pair: the image
encoder's part, then the text encoder's, each laid out like that encoder's
``theta`` (`model`'s ``param_layout``), which is the layout of
`trainer`'s ``Network.theta``. ``fd_check`` validates it against central
finite differences coordinate by coordinate of both encoders' ``theta``.

Arguments are checked by the ``numerics`` helpers (``as_matrix``,
``as_vector``, ``require_positive``, ``require_cosine_temperature``) and
raise ValueError; a non-finite embedding, loss or gradient raises
``NumericalError`` naming the stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Encoder, ForwardCache, encode, param_layout, param_views
from .numerics import (ROW_BLOCK, as_matrix, as_vector, bxb_view, exp_cosines_into,
                       require_computed, require_cosine_temperature, require_positive,
                       softmax_into)

__all__ = [
    "FdCheckReport",
    "LossReport",
    "fd_check",
    "grad_total",
    "loss_cm",
    "loss_im",
    "structure_logits",
]


@dataclass(frozen=True)
class LossReport:
    """One batch's loss values; the total loss is l_cm + gamma * l_im."""

    l_cm: float
    l_im: float


def loss_cm(s, y, tau1: float) -> float:
    """Label-weighted InfoNCE over rows and columns at temperature tau1."""
    require_positive(tau1, "tau1")
    mat = as_matrix(s, "similarity matrix", square=True)
    yv = as_vector(y, mat.shape[0], "labels")
    z = mat / tau1
    diag = z.diagonal().copy()  # the log-softmax diagonals are diag - lse
    row = diag - softmax_into(z, 1, np.empty_like(z))
    col = diag - softmax_into(z, 0, z)
    return float(-(yv @ row + yv @ col) / (2.0 * mat.shape[0]))


def structure_logits(s_ii, s_tt, y, tau2: float) -> np.ndarray:
    """w / tau2 with w[i, j] = sum_k y_k^2 <I_i,I_k> <T_j,T_k>."""
    require_positive(tau2, "tau2")
    a = as_matrix(s_ii, "image structure", square=True)
    b = as_matrix(s_tt, "text structure", square=True)
    if a.shape != b.shape:
        raise ValueError(f"structure shapes differ: {a.shape} vs {b.shape}")
    yv = as_vector(y, a.shape[0], "labels")
    w2 = yv * yv
    return (a * w2[None, :]) @ b.T / tau2


def loss_im(s_ii, s_tt, y, tau2: float) -> float:
    """Contrastive agreement of weighted structure rows; ln B when w is row-constant."""
    z = structure_logits(s_ii, s_tt, y, tau2)
    diag = z.diagonal().copy()
    return float(-(diag - softmax_into(z, 1, z)).mean())


def _embedding_grads(ei: np.ndarray, et: np.ndarray, y, tau1: float, tau2: float,
                     gamma: float, work: np.ndarray | None = None):
    """Loss report plus gradients w.r.t. the embedding matrices ``ei`` and ``et``.

    Both blocks write their B x B quantities, in turn, into the one
    ``bxb_view`` of the flat ``work`` array (allocated when None),
    overwritten in place. The structure block runs first. It goes through
    the d x d core M = E_I^T diag(y^2) E_T: the logits are
    (E_I (M / tau2)) E_T^T, whose rows keep their own max shift, since |w|
    reaches sum(y^2) / tau2. With g_w the gradient w.r.t. w, X = g_w E_T and
    Y = g_w^T E_I carry the whole structure backward: the image side is
    X M^T + y^2 * (E_T (E_T^T Y)) and the text side
    Y M + y^2 * (E_I (E_I^T X)), two B^2 d products where the terms taken
    one by one need four.

    The cross-modal block then takes E = exp((S - 1) / tau1) once
    (``exp_cosines_into``) and reads both softmaxes off its row sums r and
    column sums c. Its gradient g_s = -(y_i (I - P) + (I - Q) y_j) /
    (2 B tau1), with P = E / r_i and Q = E / c_j, is
    E * (y_i / r_i + y_j / c_j) - 2 diag(y), scaled by 1 / (2 B tau1). The
    weights y_i / r_i + y_j / c_j are formed ``ROW_BLOCK`` rows at a
    time, each entry as one sum, as the whole B x B outer sum would give it.
    The scale is applied to g_s's B x d products, added last, not to the
    B x B matrix, which saves a B x B pass and keeps the row weights finite:
    r_i is at least B exp(-2 / tau1), so y_i / r_i fits a double at the tau1
    floor, while y_i / (2 B tau1 r_i) can overflow there for a tiny batch.
    Each loss is checked as soon as it exists; a non-finite one raises
    NumericalError. Embeddings of unequal shape raise ValueError first.
    """
    if ei.shape != et.shape:
        raise ValueError(f"embedding shapes differ: {ei.shape} vs {et.shape}")
    require_positive(tau2, "tau2")
    require_positive(gamma, "gamma", allow_zero=True)
    b = ei.shape[0]
    yv = as_vector(y, b, "labels")
    require_cosine_temperature(tau1, "tau1")  # before the structure block runs
    on_diag = np.s_[::b + 1]  # the diagonal of a flattened B x B matrix
    buf = bxb_view(work, b)

    w2 = yv * yv
    core = ei.T @ (w2[:, None] * et)
    w = np.matmul(ei @ (core / tau2), et.T, out=buf)  # the logits w / tau2
    shift = w.max(axis=1)
    diag = w.diagonal() - shift
    w -= shift[:, None]
    np.exp(w, out=w)
    total = w.sum(axis=1)
    l_im = -(diag - np.log(total)).mean()
    require_computed("the loss", l_im)
    # g_w = -(gamma / (B tau2)) (I - R), R the row softmax of w / tau2
    w *= (gamma / (b * tau2) / total)[:, None]
    w.flat[on_diag] -= gamma / (b * tau2)
    g_w = w

    # gx = X and gy = Y, summed in place in this order, so at most four B x d
    # arrays are alive at once
    gx = g_w @ et
    gy = g_w.T @ ei
    g_et = gy @ core
    np.matmul(et, et.T @ gy, out=gy)
    gy *= w2[:, None]
    g_ei = gx @ core.T
    g_ei += gy
    del gy
    np.matmul(ei, ei.T @ gx, out=gx)
    gx *= w2[:, None]
    g_et += gx

    diag, rows, cols = exp_cosines_into(ei, et, tau1, buf)  # buf holds E
    l_cm = -(yv @ (diag - np.log(rows)) + yv @ (diag - np.log(cols))) / (2.0 * b)
    require_computed("the loss", l_cm)
    g_s = buf
    row_w = yv / rows
    col_w = yv / cols
    block = np.empty((min(ROW_BLOCK, b), b))
    for start in range(0, b, ROW_BLOCK):
        part = g_s[start:start + ROW_BLOCK]
        weights = block[:len(part)]
        weights[...] = col_w  # broadcast by assignment, which needs no iterator buffer
        weights += row_w[start:start + ROW_BLOCK, None]
        part *= weights
    g_s.flat[on_diag] -= 2.0 * yv
    scale = 1.0 / (2.0 * b * tau1)
    np.matmul(g_s, et, out=gx)
    gx *= scale
    g_ei += gx
    np.matmul(g_s.T, ei, out=gx)
    gx *= scale
    g_et += gx
    return LossReport(l_cm=float(l_cm), l_im=float(l_im)), g_ei, g_et


def _backprop_encoder(enc: Encoder, cache: ForwardCache, emb: np.ndarray,
                      g_emb: np.ndarray, grad: np.ndarray) -> None:
    """Chain rule through L2 normalization and the tanh/affine stack, into
    ``grad``, a flat vector laid out like ``enc.theta``.

    Consumes ``g_emb`` and the cache's tanh outputs: the gradient w.r.t. the
    last affine output is formed in ``g_emb``'s memory, and 1 - a^2 in that
    of each tanh output a once its weight gradient is taken. The encoder
    input ``cache.inputs[0]`` is only read."""
    views = param_views(grad, enc.dims)
    inner = (g_emb * emb).sum(axis=1, keepdims=True)
    dz = np.subtract(g_emb, inner * emb, out=g_emb)
    dz /= cache.norms[:, None]
    for l in range(len(enc.weights) - 1, -1, -1):
        a = cache.inputs[l]
        dz.sum(axis=0, out=views[2 * l + 1])  # bias
        np.matmul(a.T, dz, out=views[2 * l])  # weight
        if l > 0:
            dz = dz @ enc.weights[l].T
            a *= a  # a is the tanh output entering layer l, not needed after this
            np.subtract(1.0, a, out=a)
            dz *= a


def grad_total(enc_img: Encoder, enc_txt: Encoder, x_img, x_txt, y,
               tau1: float, tau2: float, gamma: float, work: np.ndarray | None = None):
    """Analytic gradient of the total loss w.r.t. every encoder parameter.

    Returns (LossReport, gradient), the gradient one flat vector: the part
    of ``enc_img.theta``, then that of ``enc_txt.theta``. Labels are
    constants; gradients flow through similarity matrices, both losses, the
    row normalization, and the MLP layers only. ``work`` is the flat array
    of at least B^2 float64 entries the B x B intermediates are written
    into, one after the other (allocated when None). Non-finite image or
    text embeddings (``encode``), a non-finite loss or a non-finite gradient
    raise NumericalError naming the stage; batches of unequal size raise
    ValueError before the losses are taken.
    """
    e_img, c_img = encode(enc_img, x_img, "image embeddings")
    e_txt, c_txt = encode(enc_txt, x_txt, "text embeddings")
    report, g_ei, g_et = _embedding_grads(e_img, e_txt, y, tau1, tau2, gamma, work)
    cut = enc_img.theta.size
    grad = np.empty(cut + enc_txt.theta.size)
    _backprop_encoder(enc_img, c_img, e_img, g_ei, grad[:cut])
    _backprop_encoder(enc_txt, c_txt, e_txt, g_et, grad[cut:])
    require_computed("image-encoder gradients", grad[:cut])
    require_computed("text-encoder gradients", grad[cut:])
    return report, grad


def _dense_loss_value(enc_img: Encoder, enc_txt: Encoder, x_img, x_txt, y,
                      tau1: float, tau2: float, gamma: float) -> float:
    ei, et = encode(enc_img, x_img)[0], encode(enc_txt, x_txt)[0]
    return (loss_cm(ei @ et.T, y, tau1)
            + gamma * loss_im(ei @ ei.T, et @ et.T, y, tau2))


@dataclass
class FdCheckReport:
    """Worst-case agreement between analytic and central FD gradients."""

    max_rel_err: float
    worst_param: str
    n_coords: int
    tol: float
    passed: bool


def fd_check(enc_img: Encoder, enc_txt: Encoder, x_img, x_txt, y,
             tau1: float, tau2: float, gamma: float,
             h: float = 1e-5, tol: float = 1e-4,
             grad: np.ndarray | None = None) -> FdCheckReport:
    """Compare analytic gradients against central finite differences.

    Every parameter coordinate is perturbed by +-h. The relative error uses
    denominator max(|analytic|, |fd|, 1e-6), so coordinates whose gradient
    sits below 1e-6 are compared at that absolute scale instead of being
    amplified into noise. ``grad``, laid out as ``grad_total`` returns it,
    defaults to the analytic gradient; passing a perturbed one turns this
    into a sensitivity check of the harness itself. Intended for small
    instances only (runtime is linear in parameter count times batch cost).
    """
    if grad is None:
        _, grad = grad_total(enc_img, enc_txt, x_img, x_txt, y, tau1, tau2, gamma)
    worst_err = 0.0
    worst_name = ""
    n_coords = 0
    cut = enc_img.theta.size
    for side, enc, part_grad in (("img", enc_img, grad[:cut]), ("txt", enc_txt, grad[cut:])):
        theta = enc.theta
        for name, part, shape in param_layout(enc.dims):
            for i in range(part.start, part.stop):
                orig = theta[i]
                theta[i] = orig + h
                up = _dense_loss_value(enc_img, enc_txt, x_img, x_txt, y, tau1, tau2, gamma)
                theta[i] = orig - h
                down = _dense_loss_value(enc_img, enc_txt, x_img, x_txt, y, tau1, tau2, gamma)
                theta[i] = orig
                fd = (up - down) / (2.0 * h)
                a = part_grad[i]
                rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
                n_coords += 1
                if rel > worst_err:
                    worst_err = rel
                    idx = tuple(int(d) for d in np.unravel_index(i - part.start, shape))
                    worst_name = f"{side}.{name}{list(idx)}"
    return FdCheckReport(max_rel_err=worst_err, worst_param=worst_name,
                         n_coords=n_coords, tol=tol, passed=worst_err < tol)
