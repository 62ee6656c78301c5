import numpy as np
import pytest

from gsc.evalmetrics import (CSV_COLUMNS, DetectionReport, RetrievalReport,
                             _average_ranks, assemble_report, csv_row,
                             detection_metrics, recall_at_k, retrieval_report)
from gsc.numerics import derive_rng

N_CASES = 100


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def _recall_oracle(s, gt, k):
    """Brute-force rank: count candidates that outrank the target, honoring
    the lower-index tie-break."""
    n = s.shape[0]
    hits = 0
    for i in range(n):
        target = gt[i]
        ahead = 0
        for j in range(n):
            if s[i, j] > s[i, target] or (s[i, j] == s[i, target] and j < target):
                ahead += 1
        if ahead < k:
            hits += 1
    return 100.0 * hits / n


def _recall_sort_oracle(s, gt, k):
    """Rank of the target from a full stable descending sort of each row."""
    n = s.shape[0]
    order = np.argsort(-s, axis=1, kind="stable")
    ranks = np.empty((n, n), dtype=int)
    rows = np.arange(n)[:, None]
    ranks[rows, order] = np.arange(n)[None, :]
    hit = ranks[np.arange(n), gt] < k
    return float(100.0 * hit.mean())


def _average_ranks_oracle(values):
    """1-based ranks with ties sharing their average rank, by a scan of the sort."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _auc_oracle(y, mask):
    """O(n^2) pairwise comparison AUC (clean ranked above noisy)."""
    clean = y[~mask]
    noisy = y[mask]
    total = 0.0
    for c in clean:
        for m in noisy:
            if c > m:
                total += 1.0
            elif c == m:
                total += 0.5
    return total / (clean.size * noisy.size)


# ---------------------------------------------------------------------------
# recall@K
# ---------------------------------------------------------------------------

def test_recall_identity_dominant():
    s = np.eye(6)
    assert recall_at_k(s, np.arange(6), 1) == 100.0


def test_recall_constant_matrix_tie_break():
    # lowest-index tie-break makes the top-K exactly the first K indices
    for n, k in ((10, 1), (10, 4), (8, 8)):
        s = np.full((n, n), 0.3)
        got = recall_at_k(s, np.arange(n), k)
        assert got == pytest.approx(100.0 * k / n, abs=1e-12)


def test_recall_matches_sort_oracle():
    rng = derive_rng(0, "recall-oracle")
    for _ in range(30):
        n = int(rng.integers(2, 8))
        s = rng.uniform(-1, 1, size=(n, n))
        if rng.uniform() < 0.5:  # force some ties
            s = np.round(s, 1)
        gt = rng.permutation(n)
        k = int(rng.integers(1, n + 1))
        assert recall_at_k(s, gt, k) == pytest.approx(_recall_oracle(s, gt, k), rel=1e-12)


def test_recall_k_bounds_and_errors():
    s = np.eye(4)
    with pytest.raises(ValueError):
        recall_at_k(s, np.arange(4), 5)
    with pytest.raises(ValueError):
        recall_at_k(s, np.arange(4), 0)
    with pytest.raises(ValueError):
        recall_at_k(np.ones((2, 3)), np.arange(2), 1)
    with pytest.raises(ValueError):
        recall_at_k(s, np.array([0, 0, 1, 2]), 1)


def test_recall_monotone_in_k_and_rank_invariant():
    rng = derive_rng(1, "recall-props")
    for _ in range(N_CASES):
        n = int(rng.integers(2, 10))
        s = rng.uniform(-1, 1, size=(n, n))
        gt = rng.permutation(n)
        values = [recall_at_k(s, gt, k) for k in range(1, n + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 100.0
        # strictly increasing transform preserves all ranks
        transformed = np.exp(2.0 * s) + 1.0
        k = int(rng.integers(1, n + 1))
        assert recall_at_k(transformed, gt, k) == recall_at_k(s, gt, k)


def test_recall_equals_sort_oracle_on_ties():
    rng = derive_rng(3, "recall-sort")
    cases = [np.full((n, n), c) for n, c in ((1, 0.0), (5, -0.25), (12, 3.0))]
    cases += [rng.integers(-4, 5, size=(n, n)) / 4.0
              for n in rng.integers(2, 30, size=200)]
    for s in cases:
        n = s.shape[0]
        ks = [k for k in (1, 5, 10) if k <= n]
        if n >= 10:
            rep = retrieval_report(s)
            ident = np.arange(n)
            assert [rep.r1_i2t, rep.r5_i2t, rep.r10_i2t] == \
                [_recall_sort_oracle(s, ident, k) for k in ks]
            assert [rep.r1_t2i, rep.r5_t2i, rep.r10_t2i] == \
                [_recall_sort_oracle(s.T, ident, k) for k in ks]
        gt = rng.permutation(n)
        for k in {*ks, n, int(rng.integers(1, n + 1))}:
            assert recall_at_k(s, gt, k) == _recall_sort_oracle(s, gt, k)


def test_retrieval_report_directions_and_sum():
    rng = derive_rng(2, "recall-report")
    n = 12
    s = rng.uniform(-1, 1, size=(n, n))
    rep = retrieval_report(s)
    gt = np.arange(n)
    assert rep.r1_i2t == recall_at_k(s, gt, 1)
    assert rep.r1_t2i == recall_at_k(s.T, gt, 1)
    assert rep.recall_sum == pytest.approx(
        rep.r1_i2t + rep.r5_i2t + rep.r10_i2t + rep.r1_t2i + rep.r5_t2i + rep.r10_t2i)


# ---------------------------------------------------------------------------
# detection metrics
# ---------------------------------------------------------------------------

def test_average_ranks_equal_loop_oracle_on_ties():
    rng = derive_rng(4, "midranks")
    cases = [np.array([0.5]), np.full(7, 2.0), np.array([0.0, -0.0, 0.0, 1.0, -0.0])]
    cases += [rng.integers(0, int(rng.integers(1, 8)), size=int(rng.integers(1, 60))) / 4.0
              for _ in range(200)]
    for v in cases:
        assert np.array_equal(_average_ranks(v), _average_ranks_oracle(v))


def test_detection_perfect_separation():
    y = np.array([1.0, 1.0, 0.0, 0.0])
    mask = np.array([False, False, True, True])
    rep = detection_metrics(y, mask)
    assert rep.accuracy == 1.0
    assert rep.auc == 1.0
    assert rep.mean_clean == 1.0 and rep.mean_noisy == 0.0


def test_detection_constant_labels_auc_half():
    y = np.full(10, 0.7)
    mask = np.array([True] * 4 + [False] * 6)
    rep = detection_metrics(y, mask)
    assert rep.auc == pytest.approx(0.5, abs=1e-12)
    assert rep.accuracy == pytest.approx(0.6)


def test_detection_matches_pairwise_oracle():
    rng = derive_rng(3, "auc-oracle")
    y = np.round(rng.uniform(0, 1, size=10), 1)  # ties likely
    mask = rng.uniform(size=10) < 0.4
    if not mask.any():
        mask[0] = True
    if mask.all():
        mask[1] = False
    rep = detection_metrics(y, mask)
    assert rep.auc == pytest.approx(_auc_oracle(y, mask), abs=1e-12)


def test_detection_auc_oracle_property():
    rng = derive_rng(4, "auc-props")
    for _ in range(N_CASES):
        n = int(rng.integers(4, 25))
        y = np.round(rng.uniform(0, 1, size=n), 1)
        mask = rng.uniform(size=n) < 0.5
        if not mask.any() or mask.all():
            continue
        rep = detection_metrics(y, mask)
        assert rep.auc == pytest.approx(_auc_oracle(y, mask), abs=1e-10)
        # invariant under strictly increasing transforms
        rep2 = detection_metrics(np.exp(3.0 * y), mask)
        assert rep2.auc == pytest.approx(rep.auc, abs=1e-10)


def test_detection_single_class_mask():
    rep = detection_metrics(np.array([0.9, 0.8]), np.array([False, False]))
    assert rep.auc is None
    assert rep.accuracy == 1.0
    assert rep.mean_noisy is None  # no noisy sample to average
    with pytest.raises(ValueError):
        detection_metrics(np.ones(3), np.zeros(2, dtype=bool))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _sample_reports():
    retr = RetrievalReport(10.0, 20.0, 30.0, 10.0, 20.0, 30.0)
    det = DetectionReport(accuracy=0.9, auc=0.95, mean_clean=0.8, mean_noisy=0.1)
    return retr, det


def test_assemble_report_sums_six_recalls():
    retr, det = _sample_reports()
    rep = assemble_report(retr, det, {"mode": "gsc"})
    assert rep["retrieval"]["recall_sum"] == pytest.approx(120.0)
    assert rep["detection"]["auc"] == 0.95
    assert rep["meta"]["mode"] == "gsc"


def test_csv_row_matches_columns():
    retr, det = _sample_reports()
    row = csv_row("gsc", 0.4, retr, det)
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == "gsc" and row[1] == 0.4
    assert row[8] == pytest.approx(120.0)
    row2 = csv_row("baseline", 0.0, retr, None)
    assert row2[-1] == "" and row2[-2] == ""
