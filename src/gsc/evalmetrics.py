"""Retrieval and noise-detection evaluation.

Recall@K in both directions (rank-based, ties broken by lower candidate
index), detection accuracy/AUC of soft labels against the ground-truth
noise mask, and report assembly as JSON-ready dicts and CSV rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, as_vector, require_int

__all__ = [
    "CSV_COLUMNS",
    "DetectionReport",
    "RECALL_KS",
    "RetrievalReport",
    "assemble_report",
    "csv_row",
    "detection_metrics",
    "recall_at_k",
    "retrieval_report",
]

CSV_COLUMNS = ["mode", "noise", "r1_i2t", "r5_i2t", "r10_i2t",
               "r1_t2i", "r5_t2i", "r10_t2i", "rsum", "det_acc", "det_auc"]
RECALL_KS = (1, 5, 10)  # the K of every RetrievalReport field


@dataclass(frozen=True)
class RetrievalReport:
    """R@{1,5,10} percentages in both directions."""

    r1_i2t: float
    r5_i2t: float
    r10_i2t: float
    r1_t2i: float
    r5_t2i: float
    r10_t2i: float

    @property
    def recall_sum(self) -> float:
        return (self.r1_i2t + self.r5_i2t + self.r10_i2t
                + self.r1_t2i + self.r5_t2i + self.r10_t2i)


@dataclass(frozen=True)
class DetectionReport:
    """Noise-detection quality of soft labels at threshold 0.5.

    ``auc`` is None when the mask has a single class, and so is the mean
    label of an empty class (``report.json`` writes them as ``null``).
    """

    accuracy: float
    auc: float | None
    mean_clean: float | None
    mean_noisy: float | None


def _match_ranks(mat: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """0-based rank of each row's target column, ties toward lower index.

    The rank is the count of candidates that outrank the target: those
    scoring higher, plus those scoring equal at a lower column index. That is
    the target's position in a stable descending sort of the row, without
    the sort.
    """
    n = mat.shape[0]
    target = mat[np.arange(n), gt][:, None]
    before = np.arange(mat.shape[1])[None, :] < gt[:, None]
    return ((mat > target) | ((mat == target) & before)).sum(axis=1)


def recall_at_k(s, gt, k: int) -> float:
    """Percentage of queries whose true match ranks in the top k.

    Rows of ``s`` are queries; ``gt`` maps each query to its target column.
    Ranking is by descending similarity with ties broken toward the lower
    column index, so results are rank-based and deterministic.
    """
    mat = as_matrix(s, "similarity matrix", square=True)
    n = mat.shape[0]
    gt_arr = np.asarray(gt, dtype=int)
    if not np.array_equal(np.sort(gt_arr), np.arange(n)):
        raise ValueError("gt must be a permutation of range(n)")
    require_int(k, "k", 1)
    if k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    hit = _match_ranks(mat, gt_arr) < k
    return float(100.0 * hit.mean())


def retrieval_report(s) -> RetrievalReport:
    """Both-direction R@``RECALL_KS`` from one pair-similarity matrix
    (identity truth)."""
    mat = as_matrix(s, "similarity matrix")
    gt = np.arange(mat.shape[0])
    return RetrievalReport(*(recall_at_k(m, gt, k) for m in (mat, mat.T) for k in RECALL_KS))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + 0.5 * (counts + 1))[inverse]


def detection_metrics(y, mask) -> DetectionReport:
    """Accuracy at threshold 0.5 and rank-based AUC of labels vs. noise mask.

    Clean samples (mask False) count as the positive class: a perfect
    labeler assigns them higher values. AUC is the Mann-Whitney statistic
    with midrank tie handling.
    """
    mk = np.asarray(mask, dtype=bool).ravel()
    yv = as_vector(y, mk.shape[0], "labels")
    clean = ~mk
    accuracy = float(((yv >= 0.5) == clean).mean())
    n_clean = int(clean.sum())
    n_noisy = int(mk.sum())
    if n_clean == 0 or n_noisy == 0:
        auc = None
    else:
        ranks = _average_ranks(yv)
        auc = float((ranks[clean].sum() - n_clean * (n_clean + 1) / 2.0)
                    / (n_clean * n_noisy))
    mean_clean = float(yv[clean].mean()) if n_clean else None
    mean_noisy = float(yv[mk].mean()) if n_noisy else None
    return DetectionReport(accuracy=accuracy, auc=auc,
                           mean_clean=mean_clean, mean_noisy=mean_noisy)


def assemble_report(retrieval: RetrievalReport, detection: DetectionReport, meta: dict) -> dict:
    """JSON-ready report of a run: its meta, test retrieval and detection."""
    return {
        "meta": dict(meta),
        "retrieval": {
            "i2t": {"r1": retrieval.r1_i2t, "r5": retrieval.r5_i2t, "r10": retrieval.r10_i2t},
            "t2i": {"r1": retrieval.r1_t2i, "r5": retrieval.r5_t2i, "r10": retrieval.r10_t2i},
            "recall_sum": retrieval.recall_sum,
        },
        "detection": {
            "accuracy": detection.accuracy,
            "auc": detection.auc,
            "mean_clean": detection.mean_clean,
            "mean_noisy": detection.mean_noisy,
        },
    }


def csv_row(mode: str, noise: float, retrieval: RetrievalReport,
            detection: DetectionReport | None) -> list:
    """One summary row matching CSV_COLUMNS; an undefined AUC, or the
    detection a ``report.json`` may leave null, becomes ''."""
    det_acc = "" if detection is None else detection.accuracy
    det_auc = "" if detection is None or detection.auc is None else detection.auc
    return [mode, noise, retrieval.r1_i2t, retrieval.r5_i2t, retrieval.r10_i2t,
            retrieval.r1_t2i, retrieval.r5_t2i, retrieval.r10_t2i,
            retrieval.recall_sum, det_acc, det_auc]
