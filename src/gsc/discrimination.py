"""Soft correspondence labels estimated from structural differences.

A pair gets two scores: how strongly it selects itself among in-batch
alternatives across modalities (cross-modal indicator), and how well its
within-modality neighborhood structures agree (intra-modal structure score,
turned into a clean-component posterior by a two-component Gaussian
mixture). The combined label is the elementwise minimum, smoothed across
epochs by a momentum update. Everything here works on similarity matrices,
embedding matrices and plain vectors; no encoder or dataset types leak in.

``cross_modal_indicator`` and ``intra_structure_score`` take B x B similarity
matrices and are the references; training calls their embedding forms,
``embedding_indicator`` (one exp of the cosine matrix, which unit-norm rows
bound) and ``embedding_structure_score`` (no B x B matrix at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (as_matrix, as_vector, bxb_view, exp_cosines_into,
                       require_cosine_temperature, require_int, require_positive,
                       require_unit_interval, require_unit_rows, scale_rows_pow2, softmax_rows)

__all__ = [
    "GMM_MIN_SCORES",
    "GmmModel",
    "SoftLabels",
    "combine_labels",
    "cross_modal_indicator",
    "embedding_indicator",
    "embedding_structure_score",
    "ensemble_update",
    "gmm_fit",
    "gmm_posterior",
    "intra_structure_score",
]


GMM_MIN_SCORES = 4  # fewer scores than this cannot seed two components
GMM_TOL = 1e-8  # EM stops once the log-likelihood improves by less than this
# EM exponents are floored here before np.exp: below about -708 its result is
# subnormal and takes up to a hundred times as long. In the E-step each floored
# term is added to exp(0) = 1, of which exp(-37) is already below half an ulp,
# so the log-likelihood does not move; a responsibility below exp(-500) is lost
# beside the other terms of each M-step sum, as a subnormal one would be.
EM_EXP_FLOOR = -500.0


@dataclass
class SoftLabels:
    """Per-sample label state for one network: the two smoothed estimates."""

    y_cm: np.ndarray
    y_im: np.ndarray

    @property
    def y(self) -> np.ndarray:
        """The combined label, the elementwise minimum of ``y_cm`` and
        ``y_im``, computed anew on every read."""
        return np.minimum(self.y_cm, self.y_im)

    @classmethod
    def ones(cls, n: int) -> "SoftLabels":
        return cls(y_cm=np.ones(n), y_im=np.ones(n))


def cross_modal_indicator(s, tau1: float) -> np.ndarray:
    """Bidirectional diagonal softmax mass of a square pair-similarity matrix.

    Entry i averages the probability that row i's softmax puts on column i
    and that column i's softmax puts on row i, both at temperature ``tau1``.
    Values lie in (0, 1]; a well-matched pair approaches 1, a mismatched one
    approaches 0.
    """
    mat = as_matrix(s, "similarity matrix", square=True)
    out = 0.5 * (np.diag(softmax_rows(mat, tau1)) + np.diag(softmax_rows(mat.T, tau1)))
    # keep the open lower bound when the diagonal term underflows
    return np.clip(out, np.nextafter(0.0, 1.0), 1.0)


def embedding_indicator(e_img, e_txt, tau1: float, work: np.ndarray | None = None) -> np.ndarray:
    """``cross_modal_indicator(E_I E_T^T, tau1)`` from one exp, for rows of norm at most 1.

    With E = exp((E_I E_T^T - 1) / tau1), row sums r and column sums c
    (``exp_cosines_into``), entry i is 0.5 E_ii (1 / r_i + 1 / c_i): the
    cosines' bound fixes the shift, so the row and the column softmax share
    one exp. E is written into the ``bxb_view`` of ``work``, the flat array
    of at least B^2 float64 entries that `losses`' ``grad_total`` also takes
    (allocated when None; `losses` says why a run passes its one buffer).
    A row of norm above 1 beyond rounding, which would leave that bound,
    raises ValueError, as does a ``tau1`` below
    ``numerics.MIN_COSINE_TEMPERATURE``. Values agree with the reference to
    rounding, with the same clip into (0, 1].
    """
    ei = as_matrix(e_img, "image embeddings")
    et = as_matrix(e_txt, "text embeddings")
    if ei.shape != et.shape:
        raise ValueError(f"embedding shapes differ: {ei.shape} vs {et.shape}")
    require_unit_rows(ei, "image embeddings")
    require_unit_rows(et, "text embeddings")
    buf = bxb_view(work, ei.shape[0])
    require_cosine_temperature(tau1, "tau1")
    _, rows, cols = exp_cosines_into(ei, et, tau1, buf)
    hit = buf.diagonal()
    out = 0.5 * (hit / rows + hit / cols)
    return np.clip(out, np.nextafter(0.0, 1.0), 1.0)


def intra_structure_score(s_ii, s_tt, y) -> np.ndarray:
    """Weighted cosine between image-side and text-side structure rows.

    Per-neighbor weights y[j] multiply both sides, so suspected mismatches
    cannot distort the comparison: the numerator is sum_j y_j^2 * a_ij * b_ij
    and each denominator is the norm of the y-weighted row. Rows whose
    weighted norm vanishes score 0. Each row is scaled first
    (``numerics.scale_rows_pow2``), which leaves its score as it is, so a
    row of tiny entries is scored by its direction too.
    """
    a = as_matrix(s_ii, "image structure", square=True)
    b = as_matrix(s_tt, "text structure", square=True)
    if a.shape != b.shape:
        raise ValueError(f"structure shapes differ: {a.shape} vs {b.shape}")
    yv = as_vector(y, a.shape[0], "labels")
    a = scale_rows_pow2(a)
    b = scale_rows_pow2(b)
    w = yv * yv
    return _weighted_cosine((a * b) @ w, (a * a) @ w, (b * b) @ w)


def embedding_structure_score(e_img, e_txt, y) -> np.ndarray:
    """``intra_structure_score(E_I E_I^T, E_T E_T^T, y)`` in O(B d^2), no B x B matrix.

    With M = E_I^T diag(y^2) E_T and the weighted Grams G_I = E_I^T diag(y^2)
    E_I, G_T = E_T^T diag(y^2) E_T, row i's numerator is the i-th row sum of
    (E_I M) * E_T and its squared weighted norms are the row sums of
    (E_I G_I) * E_I and (E_T G_T) * E_T. The same zero-norm rule and clip
    apply; the products are reassociated, so values agree with the B x B form
    to rounding.
    """
    ei = as_matrix(e_img, "image embeddings")
    et = as_matrix(e_txt, "text embeddings")
    if ei.shape[0] != et.shape[0]:
        raise ValueError(f"embedding batch sizes differ: {ei.shape[0]} vs {et.shape[0]}")
    yv = as_vector(y, ei.shape[0], "labels")
    w = (yv * yv)[:, None]
    wi = w * ei
    wt = w * et
    return _weighted_cosine(((ei @ (wi.T @ et)) * et).sum(axis=1),
                            ((ei @ (wi.T @ ei)) * ei).sum(axis=1),
                            ((et @ (wt.T @ et)) * et).sum(axis=1))


def _weighted_cosine(num, sq_i, sq_t) -> np.ndarray:
    """Clipped num / (|I_i| |T_i|) from squared norms (rounded below 0 -> 0);
    a zero-norm row scores 0."""
    den = np.sqrt(np.maximum(sq_i, 0.0)) * np.sqrt(np.maximum(sq_t, 0.0))
    scores = np.zeros(num.shape[0])
    ok = den > 0.0
    scores[ok] = np.clip(num[ok] / den[ok], -1.0, 1.0)
    return scores


@dataclass
class GmmModel:
    """Two-component 1-D Gaussian mixture with a designated clean component.

    ``clean_component`` is the index of the higher-mean component.
    ``loglik`` holds the per-iteration log-likelihood sequence from fitting.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    clean_component: int
    loglik: list = field(default_factory=list)


def _e_step(weights, variances, sq, log_joint, tmp):
    """Log marginal density of the scores, from the squared deviations ``sq``
    of the scores from the component means (component x score); the log
    joint density is written into ``log_joint``, and ``tmp``, which may be
    ``sq``, is overwritten.

    The marginal is shift + log(sum of exp(joint - shift)), shift the larger
    joint term of each score. With two components the larger term's exp is
    exp(0) = 1 exactly, so only the smaller one's, exp(min - max) floored at
    ``EM_EXP_FLOOR``, is taken, and 1 is added: bit for bit the two-exp sum.
    """
    np.divide(sq, variances[:, None], out=log_joint)
    log_joint += np.log(2.0 * np.pi * variances)[:, None]
    log_joint *= 0.5
    np.subtract(np.log(weights)[:, None], log_joint, out=log_joint)
    shift = np.maximum(log_joint[0], log_joint[1])
    rest = np.minimum(log_joint[0], log_joint[1], out=tmp[0])
    rest -= shift
    np.maximum(rest, EM_EXP_FLOOR, out=rest)
    np.exp(rest, out=rest)
    rest += 1.0
    shift += np.log(rest, out=rest)
    return shift


def gmm_fit(scores, iters: int = 50, floor: float = 1e-4) -> GmmModel:
    """EM fit of a two-component 1-D Gaussian mixture.

    Initialization is a deterministic median split (component means/variances
    from the two halves, equal weights), so labeling never depends on a seed.
    Variances are clamped at ``floor``; iteration stops early once the
    log-likelihood improves by less than ``GMM_TOL``.

    If every score is equal, the two components are identical (equal means,
    variances at ``floor``, equal weights), the log-likelihood does not move,
    and the fit stops after its second iteration; ``gmm_posterior`` then
    gives every sample the same value, 0.5 up to the rounding of log 2. That
    rounding can leave it one ulp below 0.5 (0.49999999999999994), which a
    0.5 threshold reads as noisy.
    """
    x = as_vector(scores, name="scores")
    if x.size < GMM_MIN_SCORES:
        raise ValueError(f"need at least {GMM_MIN_SCORES} scores to fit, got {x.size}")
    require_positive(floor, "variance floor")
    require_int(iters, "iters", 1)
    order = np.sort(x)
    half = x.size // 2
    means = np.array([order[:half].mean(), order[half:].mean()])
    variances = np.maximum(np.array([order[:half].var(), order[half:].var()]), floor)
    weights = np.array([0.5, 0.5])
    ll_hist: list = []
    # the (2, n) arrays of the fit; the M-step's squared deviations from the
    # new means are the next E-step's
    sq = np.square(np.subtract(x, means[:, None]))
    log_joint = np.empty_like(sq)
    resp = np.empty_like(sq)
    for _ in range(iters):
        log_total = _e_step(weights, variances, sq, log_joint, resp)
        ll = float(log_total.sum())
        ll_hist.append(ll)
        if len(ll_hist) >= 2 and ll - ll_hist[-2] < GMM_TOL:
            break
        np.subtract(log_joint, log_total, out=resp)
        np.maximum(resp, EM_EXP_FLOOR, out=resp)
        np.exp(resp, out=resp)
        nk = np.maximum(resp.sum(axis=1), 1e-12)
        weights = nk / nk.sum()
        means = (resp @ x) / nk
        np.subtract(x, means[:, None], out=sq)
        np.square(sq, out=sq)
        resp *= sq
        variances = np.maximum(resp.sum(axis=1) / nk, floor)
    return GmmModel(weights=weights, means=means, variances=variances,
                    clean_component=int(np.argmax(means)), loglik=ll_hist)


def gmm_posterior(model: GmmModel, s):
    """P(clean component | score), computed in log space.

    Accepts a scalar or an array (flattened); the result stays strictly
    inside (0, 1) even when one component's density underflows.
    """
    x = as_vector(s, name="scores")
    sq = (x[None, :] - model.means[:, None]) ** 2
    log_joint = np.empty_like(sq)
    log_total = _e_step(model.weights, model.variances, sq, log_joint, sq)
    post = np.exp(log_joint[model.clean_component] - log_total)
    post = np.clip(post, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return float(post[0]) if np.ndim(s) == 0 else post


def combine_labels(y_cm, y_im) -> np.ndarray:
    """Elementwise minimum of the two label vectors: ``SoftLabels.y`` of
    the checked vectors."""
    a = as_vector(y_cm, name="y_cm")
    return SoftLabels(a, as_vector(y_im, a.shape[0], "y_im")).y


def ensemble_update(labels: SoftLabels, new_cm, new_im,
                    beta1: float, beta2: float) -> SoftLabels:
    """Momentum blend of fresh estimates with the previous epoch, then min.

    y_cm <- beta1 * new + (1 - beta1) * previous (same for y_im with beta2).
    """
    require_unit_interval(beta1, "beta1")
    require_unit_interval(beta2, "beta2")
    cm = as_vector(new_cm, labels.y_cm.shape[0], "cross-modal estimates")
    im = as_vector(new_im, labels.y_im.shape[0], "intra-modal estimates")
    y_cm = beta1 * cm + (1.0 - beta1) * labels.y_cm
    y_im = beta2 * im + (1.0 - beta2) * labels.y_im
    return SoftLabels(y_cm=y_cm, y_im=y_im)
