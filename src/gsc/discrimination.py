"""Soft correspondence labels estimated from structural differences.

A pair gets two scores: how strongly it selects itself among in-batch
alternatives across modalities (cross-modal indicator), and how well its
within-modality neighborhood structures agree (intra-modal structure score,
turned into a clean-component posterior by a two-component Gaussian
mixture). The combined label is the elementwise minimum, smoothed across
epochs by a momentum update. Everything here works on similarity matrices
and plain vectors; no encoder or dataset types leak in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import as_matrix, require_finite, softmax_rows

__all__ = [
    "GMM_MIN_SCORES",
    "GmmModel",
    "SoftLabels",
    "combine_labels",
    "cross_modal_indicator",
    "embedding_structure_score",
    "ensemble_update",
    "gmm_fit",
    "gmm_posterior",
    "intra_structure_score",
]


GMM_MIN_SCORES = 4  # fewer scores than this cannot seed two components


@dataclass
class SoftLabels:
    """Per-sample label state for one network; ``y`` is always min(y_cm, y_im)."""

    y_cm: np.ndarray
    y_im: np.ndarray
    y: np.ndarray

    @classmethod
    def ones(cls, n: int) -> "SoftLabels":
        return cls(y_cm=np.ones(n), y_im=np.ones(n), y=np.ones(n))

    @classmethod
    def from_estimates(cls, y_cm, y_im) -> "SoftLabels":
        """Raw initialization (no ensembling); equals ``ensemble_update``
        of a unit store with both momentum coefficients 1."""
        cm = np.asarray(y_cm, dtype=float).copy()
        im = np.asarray(y_im, dtype=float).copy()
        return cls(y_cm=cm, y_im=im, y=combine_labels(cm, im))


def cross_modal_indicator(s, tau1: float) -> np.ndarray:
    """Bidirectional diagonal softmax mass of a square pair-similarity matrix.

    Entry i averages the probability that row i's softmax puts on column i
    and that column i's softmax puts on row i, both at temperature ``tau1``.
    Values lie in (0, 1]; a well-matched pair approaches 1, a mismatched one
    approaches 0.
    """
    mat = as_matrix(s, "similarity matrix")
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {mat.shape}")
    rows = softmax_rows(mat, tau1)
    cols = softmax_rows(mat.T, tau1)
    out = 0.5 * (np.diag(rows) + np.diag(cols))
    # keep the open lower bound when the diagonal term underflows
    return np.clip(out, np.nextafter(0.0, 1.0), 1.0)


def intra_structure_score(s_ii, s_tt, y, return_degenerate: bool = False):
    """Weighted cosine between image-side and text-side structure rows.

    Per-neighbor weights y[j] multiply both sides, so suspected mismatches
    cannot distort the comparison: the numerator is sum_j y_j^2 * a_ij * b_ij
    and each denominator is the norm of the y-weighted row. Rows whose
    weighted norm vanishes score 0 and are flagged degenerate.
    """
    a = as_matrix(s_ii, "image structure")
    b = as_matrix(s_tt, "text structure")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"structure matrices must be square and equal-shaped: {a.shape} vs {b.shape}")
    yv = require_finite(np.asarray(y, dtype=float).ravel(), "labels")
    if yv.shape[0] != a.shape[0]:
        raise ValueError(f"label length {yv.shape[0]} != batch size {a.shape[0]}")
    w = yv * yv
    num = (a * b) @ w
    den = np.sqrt((a * a) @ w) * np.sqrt((b * b) @ w)
    degenerate = den <= 0.0
    scores = np.zeros(a.shape[0])
    ok = ~degenerate
    scores[ok] = np.clip(num[ok] / den[ok], -1.0, 1.0)
    return (scores, degenerate) if return_degenerate else scores


def embedding_structure_score(e_img, e_txt, y, return_degenerate: bool = False):
    """``intra_structure_score(E_I E_I^T, E_T E_T^T, y)`` in O(B d^2), no B x B matrix.

    With M = E_I^T diag(y^2) E_T and the weighted Grams G_I = E_I^T diag(y^2)
    E_I, G_T = E_T^T diag(y^2) E_T, row i's numerator is the i-th row sum of
    (E_I M) * E_T and its squared weighted norms are the row sums of
    (E_I G_I) * E_I and (E_T G_T) * E_T. The same degenerate rule and clip
    apply; the products are reassociated, so values agree with the B x B form
    to rounding.
    """
    ei = as_matrix(e_img, "image embeddings")
    et = as_matrix(e_txt, "text embeddings")
    if ei.shape[0] != et.shape[0]:
        raise ValueError(f"embedding batch sizes differ: {ei.shape[0]} vs {et.shape[0]}")
    yv = require_finite(np.asarray(y, dtype=float).ravel(), "labels")
    if yv.shape[0] != ei.shape[0]:
        raise ValueError(f"label length {yv.shape[0]} != batch size {ei.shape[0]}")
    w = (yv * yv)[:, None]
    wi = w * ei
    wt = w * et
    num = ((ei @ (wi.T @ et)) * et).sum(axis=1)
    sq_i = np.maximum(((ei @ (wi.T @ ei)) * ei).sum(axis=1), 0.0)
    sq_t = np.maximum(((et @ (wt.T @ et)) * et).sum(axis=1), 0.0)
    den = np.sqrt(sq_i) * np.sqrt(sq_t)
    degenerate = den <= 0.0
    scores = np.zeros(ei.shape[0])
    ok = ~degenerate
    scores[ok] = np.clip(num[ok] / den[ok], -1.0, 1.0)
    return (scores, degenerate) if return_degenerate else scores


@dataclass
class GmmModel:
    """Two-component 1-D Gaussian mixture with a designated clean component.

    ``clean_component`` is the index of the higher-mean component.
    ``loglik`` holds the per-iteration log-likelihood sequence from fitting;
    ``trace`` (optional) the matching (weights, means, variances) snapshots.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    clean_component: int
    loglik: list = field(default_factory=list)
    trace: list | None = None


def _log_normal(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def gmm_fit(scores, iters: int = 50, floor: float = 1e-4, tol: float = 1e-8,
            keep_trace: bool = False) -> GmmModel:
    """EM fit of a two-component 1-D Gaussian mixture.

    Initialization is a deterministic median split (component means/variances
    from the two halves, equal weights), so labeling never depends on a seed.
    Variances are clamped at ``floor``; iteration stops early once the
    log-likelihood improves by less than ``tol``.
    """
    x = require_finite(np.asarray(scores, dtype=float).ravel(), "scores")
    if x.size < GMM_MIN_SCORES:
        raise ValueError(f"need at least {GMM_MIN_SCORES} scores to fit, got {x.size}")
    if floor <= 0:
        raise ValueError("variance floor must be positive")
    order = np.sort(x)
    half = x.size // 2
    means = np.array([order[:half].mean(), order[half:].mean()])
    variances = np.maximum(np.array([order[:half].var(), order[half:].var()]), floor)
    weights = np.array([0.5, 0.5])
    ll_hist: list = []
    trace: list | None = [] if keep_trace else None
    for _ in range(max(int(iters), 1)):
        log_joint = (np.log(weights)[:, None]
                     + _log_normal(x[None, :], means[:, None], variances[:, None]))
        shift = log_joint.max(axis=0)
        log_total = shift + np.log(np.exp(log_joint - shift).sum(axis=0))
        ll = float(log_total.sum())
        if trace is not None:
            trace.append((weights.copy(), means.copy(), variances.copy()))
        ll_hist.append(ll)
        if len(ll_hist) >= 2 and ll - ll_hist[-2] < tol:
            break
        resp = np.exp(log_joint - log_total)
        nk = np.maximum(resp.sum(axis=1), 1e-12)
        weights = nk / nk.sum()
        means = (resp @ x) / nk
        variances = np.maximum(
            ((x[None, :] - means[:, None]) ** 2 * resp).sum(axis=1) / nk, floor)
    return GmmModel(weights=weights, means=means, variances=variances,
                    clean_component=int(np.argmax(means)), loglik=ll_hist, trace=trace)


def gmm_posterior(model: GmmModel, s):
    """P(clean component | score), computed in log space.

    Accepts a scalar or an array; the result stays strictly inside (0, 1)
    even when one component's density underflows.
    """
    x = np.asarray(s, dtype=float)
    scalar = x.ndim == 0
    xv = require_finite(np.atleast_1d(x), "scores")
    log_joint = (np.log(model.weights)[:, None]
                 + _log_normal(xv[None, :], model.means[:, None], model.variances[:, None]))
    shift = log_joint.max(axis=0)
    log_total = shift + np.log(np.exp(log_joint - shift).sum(axis=0))
    post = np.exp(log_joint[model.clean_component] - log_total)
    post = np.clip(post, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return float(post[0]) if scalar else post


def combine_labels(y_cm, y_im) -> np.ndarray:
    """Elementwise minimum of the two label vectors."""
    a = np.asarray(y_cm, dtype=float).ravel()
    b = np.asarray(y_im, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"label length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return np.minimum(a, b)


def ensemble_update(labels: SoftLabels, new_cm, new_im,
                    beta1: float, beta2: float) -> SoftLabels:
    """Momentum blend of fresh estimates with the previous epoch, then min.

    y_cm <- beta1 * new + (1 - beta1) * previous (same for y_im with beta2).
    """
    for name, b in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {b}")
    cm = np.asarray(new_cm, dtype=float).ravel()
    im = np.asarray(new_im, dtype=float).ravel()
    if cm.shape != labels.y_cm.shape or im.shape != labels.y_im.shape:
        raise ValueError("estimate length mismatch with label store")
    y_cm = beta1 * cm + (1.0 - beta1) * labels.y_cm
    y_im = beta2 * im + (1.0 - beta2) * labels.y_im
    return SoftLabels(y_cm=y_cm, y_im=y_im, y=combine_labels(y_cm, y_im))
