import math

import numpy as np
import pytest

from gsc import discrimination
from gsc.discrimination import (EM_EXP_FLOOR, GmmModel, SoftLabels, cross_modal_indicator,
                                embedding_indicator, embedding_structure_score,
                                ensemble_update, gmm_fit, gmm_posterior,
                                intra_structure_score)
from gsc.numerics import MIN_COSINE_TEMPERATURE, bxb_view, derive_rng, softmax_rows

N_CASES = 100


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def _indicator_oracle(s, tau):
    """Direct per-term evaluation of the bidirectional indicator."""
    n = s.shape[0]
    out = np.zeros(n)
    for i in range(n):
        row = sum(math.exp(s[i, j] / tau) for j in range(n))
        col = sum(math.exp(s[j, i] / tau) for j in range(n))
        out[i] = 0.5 * (math.exp(s[i, i] / tau) / row + math.exp(s[i, i] / tau) / col)
    return out


def _structure_score_oracle(s_ii, s_tt, y):
    """Direct summation of the weighted-cosine form."""
    n = s_ii.shape[0]
    out = np.zeros(n)
    for i in range(n):
        num = sum(y[j] ** 2 * s_ii[i, j] * s_tt[i, j] for j in range(n))
        d1 = math.sqrt(sum((y[j] * s_ii[i, j]) ** 2 for j in range(n)))
        d2 = math.sqrt(sum((y[j] * s_tt[i, j]) ** 2 for j in range(n)))
        out[i] = num / (d1 * d2) if d1 > 0 and d2 > 0 else 0.0
    return out


def _gauss_pdf(x, mean, var):
    return math.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _posterior_oracle(model, s):
    dens = [model.weights[k] * _gauss_pdf(s, model.means[k], model.variances[k])
            for k in range(2)]
    return dens[model.clean_component] / sum(dens)


def _loglik_oracle(weights, means, variances, x):
    total = 0.0
    for xi in x:
        total += math.log(sum(weights[k] * _gauss_pdf(xi, means[k], variances[k])
                              for k in range(2)))
    return total


# ---------------------------------------------------------------------------
# cross-modal indicator
# ---------------------------------------------------------------------------

def test_indicator_single_element():
    assert cross_modal_indicator(np.array([[0.37]]), tau1=0.07) == pytest.approx(1.0)


def test_indicator_uniform_matrix():
    for b in (2, 5, 9):
        out = cross_modal_indicator(np.full((b, b), 0.4), tau1=1.0)
        assert np.allclose(out, 1.0 / b, atol=1e-12)


def test_indicator_identity_matrix_analytic():
    out = cross_modal_indicator(np.eye(2), tau1=1.0)
    expected = math.e / (math.e + 1.0)  # independent direct evaluation
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(out, _indicator_oracle(np.eye(2), 1.0), atol=1e-12)


def test_indicator_matches_oracle():
    rng = derive_rng(0, "ind-oracle")
    for _ in range(25):
        b = int(rng.integers(2, 7))
        s = rng.uniform(-1, 1, size=(b, b))
        tau = float(rng.uniform(0.05, 2.0))
        got = cross_modal_indicator(s, tau)
        want = _indicator_oracle(s, tau)
        assert np.max(np.abs(got - want)) < 1e-10


def test_indicator_range_and_shape_errors():
    rng = derive_rng(1, "ind-range")
    for _ in range(N_CASES):
        b = int(rng.integers(1, 8))
        s = rng.uniform(-1, 1, size=(b, b)) * float(rng.choice([1.0, 100.0]))
        out = cross_modal_indicator(s, 0.07)
        assert np.all(out > 0.0) and np.all(out <= 1.0)
    with pytest.raises(ValueError):
        cross_modal_indicator(np.ones((2, 3)), 0.07)


def test_indicator_bits_do_not_depend_on_the_work_buffer():
    rng = derive_rng(3, "ind-work")
    work = np.full(401 * 401, np.nan)  # larger than any batch here, and stale
    for b in (2, 9, 128, 400):
        s = bxb_view(work, b)
        s[...] = rng.uniform(-1, 1, size=(b, b))
        got = cross_modal_indicator(s, 0.07)
        # the softmaxes of s and s.T each in a fresh array, as before the buffer
        fresh = 0.5 * (np.diag(softmax_rows(s, 0.07)) + np.diag(softmax_rows(s.T, 0.07)))
        assert np.array_equal(got, np.clip(fresh, np.nextafter(0.0, 1.0), 1.0))


def _paired_unit_rows(rng, b, d=32):
    """Unit image rows, text rows near their pairs, image row 0 of norm 0."""
    ei = rng.standard_normal((b, d))
    et = ei + 0.8 * rng.standard_normal((b, d))
    ei[0] = 0.0
    return (ei / np.maximum(np.linalg.norm(ei, axis=1, keepdims=True), 1e-300),
            et / np.linalg.norm(et, axis=1, keepdims=True))


@pytest.mark.parametrize("b", [2, 7, 128, 400])
@pytest.mark.parametrize("tau", [MIN_COSINE_TEMPERATURE, 0.07, 1.0])
def test_embedding_indicator_matches_the_similarity_form(b, tau):
    rng = derive_rng(b, "ind-embedding")
    ei, et = _paired_unit_rows(rng, b)
    want = cross_modal_indicator(ei @ et.T, tau)
    work = np.full((b + 1) ** 2, np.nan)  # stale and larger, as a run's buffer is
    for buf in (None, work):
        got = embedding_indicator(ei, et, tau, buf)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_embedding_indicator_rejects_rows_beyond_the_unit_ball():
    rng = derive_rng(5, "ind-norm")
    ei, et = _paired_unit_rows(rng, 6)
    embedding_indicator(ei * (1.0 + 1e-12), et, 0.07)  # rounding above 1 passes
    ei[3] *= 1.5
    with pytest.raises(ValueError, match="image embeddings row 3 has norm 1.5"):
        embedding_indicator(ei, et, 0.07)
    with pytest.raises(ValueError, match="text embeddings row 3"):
        embedding_indicator(et, ei, 0.07)
    with pytest.raises(ValueError, match="tau1 must be at least"):
        embedding_indicator(et, et, 0.001)


def test_indicator_diagonal_monotonicity():
    rng = derive_rng(2, "ind-mono")
    for _ in range(N_CASES):
        b = int(rng.integers(2, 7))
        s = rng.uniform(-1, 1, size=(b, b))
        i = int(rng.integers(0, b))
        bumped = s.copy()
        bumped[i, i] += float(rng.uniform(0.01, 0.5))
        before = cross_modal_indicator(s, 0.5)[i]
        after = cross_modal_indicator(bumped, 0.5)[i]
        assert after > before


# ---------------------------------------------------------------------------
# intra-modal structure score
# ---------------------------------------------------------------------------

def test_structure_score_identical_rows_unit_weights():
    rng = derive_rng(3, "ss-ident")
    s = rng.uniform(-1, 1, size=(4, 4))
    out = intra_structure_score(s, s, np.ones(4))
    assert np.allclose(out, 1.0, atol=1e-12)


def test_structure_score_unit_weights_reduce_to_plain_cosine():
    rng = derive_rng(4, "ss-plain")
    for _ in range(N_CASES):
        b = int(rng.integers(2, 6))
        a = rng.uniform(-1, 1, size=(b, b))
        c = rng.uniform(-1, 1, size=(b, b))
        got = intra_structure_score(a, c, np.ones(b))
        for i in range(b):
            num = float(np.dot(a[i], c[i]))
            den = float(np.linalg.norm(a[i]) * np.linalg.norm(c[i]))
            assert got[i] == pytest.approx(num / den, abs=1e-12)


def test_structure_score_matches_weighted_oracle():
    rng = derive_rng(5, "ss-oracle")
    for _ in range(25):
        b = int(rng.integers(2, 6))
        a = rng.uniform(-1, 1, size=(b, b))
        c = rng.uniform(-1, 1, size=(b, b))
        y = rng.uniform(0, 1, size=b)
        got = intra_structure_score(a, c, y)
        want = _structure_score_oracle(a, c, y)
        assert np.max(np.abs(got - want)) < 1e-12


def test_structure_score_row_scale_invariance():
    rng = derive_rng(6, "ss-scale")
    for _ in range(N_CASES):
        b = int(rng.integers(2, 6))
        a = rng.uniform(-1, 1, size=(b, b))
        c = rng.uniform(-1, 1, size=(b, b))
        y = rng.uniform(0.1, 1, size=b)
        base = intra_structure_score(a, c, y)
        i = int(rng.integers(0, b))
        s = float(rng.uniform(0.1, 10.0))
        a2, c2 = a.copy(), c.copy()
        a2[i] *= s
        c2[i] *= s
        scaled = intra_structure_score(a2, c2, y)
        assert scaled[i] == pytest.approx(base[i], abs=1e-10)


def test_structure_score_scores_a_row_of_tiny_entries_by_its_direction():
    rng = derive_rng(8, "ss-tiny")
    a = rng.uniform(-1, 1, size=(5, 5))
    c = rng.uniform(-1, 1, size=(5, 5))
    y = rng.uniform(0.1, 1, size=5)
    base = intra_structure_score(a, c, y)
    tiny = a.copy()
    tiny[2] *= 2.0 ** -565  # about 1e-170: its squares underflow to 0
    assert np.array_equal(intra_structure_score(tiny, c, y), base)
    a[2], tiny[2] = 1.0, 1e-170  # rows of one direction
    assert intra_structure_score(tiny, c, y)[2] == pytest.approx(
        intra_structure_score(a, c, y)[2], abs=1e-15)


def test_structure_score_degenerate_flag():
    a = np.ones((3, 3))
    assert np.array_equal(intra_structure_score(a, a, np.zeros(3)), np.zeros(3))
    zero_row = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.2], [0.3, 1.0, 0.4]])
    scores = intra_structure_score(zero_row, a, np.ones(3))
    assert scores[0] == 0.0 and np.all(scores[1:] > 0.0)
    with pytest.raises(ValueError):
        intra_structure_score(a, np.ones((2, 2)), np.ones(3))


def _unit_rows(rng, b, d):
    e = rng.standard_normal((b, d))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


def test_embedding_structure_score_matches_gram_form():
    rng = derive_rng(7, "ss-rank-d")
    for b in (2, 7, 128, 400):
        for d_img, d_txt in ((32, 32), (8, 5)):
            ei, et = _unit_rows(rng, b, d_img), _unit_rows(rng, b, d_txt)
            labels = [rng.uniform(0.0, 1.0, size=b), np.ones(b), np.zeros(b),
                      np.where(np.arange(b) % 3 == 0, 0.0, 0.8)]
            if b <= 7:
                labels.append(np.eye(b)[b - 1] * 0.6)
            for y in labels:
                want = intra_structure_score(ei @ ei.T, et @ et.T, y)
                got = embedding_structure_score(ei, et, y)
                assert np.array_equal(got == 0.0, want == 0.0)
                assert np.max(np.abs(got - want)) <= 1e-12


def test_embedding_structure_score_single_label_conditioning():
    # With one nonzero label k the Gram form scores sign(<I_i,I_k> <T_i,T_k>)
    # exactly; the reassociated products carry an absolute error of a few ulps
    # on each inner product, so the gap grows as that product shrinks.
    rng = derive_rng(8, "ss-single")
    b, k = 128, 5
    ei, et = _unit_rows(rng, b, 32), _unit_rows(rng, b, 32)
    y = np.eye(b)[k]
    want = intra_structure_score(ei @ ei.T, et @ et.T, y)
    got = embedding_structure_score(ei, et, y)
    assert np.array_equal(np.abs(want), np.ones(b))
    scale = np.abs((ei @ ei[k]) * (et @ et[k]))
    assert np.all(np.abs(got - want) <= 1e-14 / scale)


def test_embedding_structure_score_degenerate_and_errors():
    ei = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(embedding_structure_score(ei, ei, np.zeros(3)), np.zeros(3))
    zero_row = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    scores = embedding_structure_score(zero_row, ei, np.ones(3))
    assert scores[0] == 0.0 and np.all(scores[1:] > 0.0)
    with pytest.raises(ValueError):
        embedding_structure_score(ei, ei[:2], np.ones(3))
    with pytest.raises(ValueError):
        embedding_structure_score(ei, ei, np.ones(2))
    with pytest.raises(ValueError):
        embedding_structure_score(ei, ei, np.array([1.0, np.nan, 1.0]))


# ---------------------------------------------------------------------------
# GMM fit and posterior
# ---------------------------------------------------------------------------

def test_gmm_fit_recovers_two_clusters():
    scores = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
    rng = derive_rng(7, "gmm-jitter")
    scores = scores + rng.normal(0, 0.01, size=100)
    model = gmm_fit(scores)
    lo, hi = sorted(model.means)
    assert abs(lo - 0.1) < 0.02 and abs(hi - 0.9) < 0.02
    assert model.clean_component == int(np.argmax(model.means))
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(model.variances >= 1e-4)


def test_gmm_fit_identical_scores_degenerates_to_half_posterior():
    model = gmm_fit(np.full(20, 0.42))
    assert model.means[0] == pytest.approx(0.42) and model.means[1] == pytest.approx(0.42)
    assert np.all(model.variances == 1e-4)
    assert gmm_posterior(model, 0.42) == pytest.approx(0.5, abs=1e-12)
    # every structure score equal, including the clip bounds and the fewest
    # scores a fit takes: equal means, a stop after the second iteration
    # (the log-likelihood does not move), and one posterior for every sample,
    # 0.5 up to the rounding of log 2
    for value, n in ((0.42, 4), (0.42, 2000), (-1.0, 7), (0.0, 7), (1.0, 7)):
        scores = np.full(n, value)
        model = gmm_fit(scores)
        assert model.means[0] == model.means[1] == pytest.approx(value)
        assert len(model.loglik) == 2 and model.loglik[0] == model.loglik[1]
        post = gmm_posterior(model, scores)
        assert np.all(post == post[0]) and abs(post[0] - 0.5) <= 2.0 ** -53


def test_gmm_fit_loglik_nondecreasing_over_seeds():
    for seed in range(20):
        rng = derive_rng(seed, "gmm-ll")
        scores = np.concatenate([rng.normal(0.3, 0.08, 40), rng.normal(0.8, 0.05, 60)])
        model = gmm_fit(scores)
        # oracle: recompute the log-likelihood of every iteration's parameters;
        # iteration 0 scores the median-split initialization, and iteration
        # j >= 1 the parameters a fit stopped after j iterations returns
        order = np.sort(scores)
        low, high = order[:scores.size // 2], order[scores.size // 2:]
        snapshots = [([0.5, 0.5], [low.mean(), high.mean()],
                      np.maximum([low.var(), high.var()], 1e-4))]
        for j in range(1, len(model.loglik)):
            fit = gmm_fit(scores, iters=j)
            snapshots.append((fit.weights, fit.means, fit.variances))
        recomputed = [_loglik_oracle(w, m, v, scores) for w, m, v in snapshots]
        assert len(model.loglik) >= 2
        assert np.max(np.abs(np.array(recomputed) - np.array(model.loglik))) < 1e-8
        diffs = np.diff(model.loglik)
        assert np.all(diffs >= -1e-9)


def _unfloored_e_step(weights, variances, sq, log_joint, tmp, lowest):
    """``discrimination._e_step`` with no floor on its exponents."""
    np.divide(sq, variances[:, None], out=log_joint)
    log_joint += np.log(2.0 * np.pi * variances)[:, None]
    log_joint *= 0.5
    np.subtract(np.log(weights)[:, None], log_joint, out=log_joint)
    shift = log_joint.max(axis=0)
    np.subtract(log_joint, shift, out=tmp)
    lowest.append(tmp.min())
    np.exp(tmp, out=tmp)
    return shift + np.log(tmp.sum(axis=0))


def _unfloored_fit(x, iters=50, floor=1e-4, tol=1e-8):
    """``gmm_fit`` and ``gmm_posterior`` as they were before their exponents
    were floored: (weights, means, variances, loglik, posterior, lowest
    exponent taken)."""
    lowest = []
    order = np.sort(x)
    half = x.size // 2
    means = np.array([order[:half].mean(), order[half:].mean()])
    variances = np.maximum(np.array([order[:half].var(), order[half:].var()]), floor)
    weights = np.array([0.5, 0.5])
    ll_hist = []
    sq = np.square(np.subtract(x, means[:, None]))
    log_joint = np.empty_like(sq)
    resp = np.empty_like(sq)
    for _ in range(iters):
        log_total = _unfloored_e_step(weights, variances, sq, log_joint, resp, lowest)
        ll = float(log_total.sum())
        ll_hist.append(ll)
        if len(ll_hist) >= 2 and ll - ll_hist[-2] < tol:
            break
        np.subtract(log_joint, log_total, out=resp)
        lowest.append(resp.min())
        np.exp(resp, out=resp)
        nk = np.maximum(resp.sum(axis=1), 1e-12)
        weights = nk / nk.sum()
        means = (resp @ x) / nk
        np.subtract(x, means[:, None], out=sq)
        np.square(sq, out=sq)
        resp *= sq
        variances = np.maximum(resp.sum(axis=1) / nk, floor)
    sq = (x[None, :] - means[:, None]) ** 2
    log_total = _unfloored_e_step(weights, variances, sq, log_joint, sq, lowest)
    post = np.exp(log_joint[int(np.argmax(means))] - log_total)
    post = np.clip(post, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return weights, means, variances, ll_hist, post, min(lowest)


def test_gmm_fit_floored_exponents_leave_every_bit():
    # exponents below -708 make np.exp subnormal and slow; the floor must not
    # move a weight, mean, variance, log-likelihood or posterior bit
    rng = derive_rng(12, "gmm-floor")
    below = 0
    for case in range(300):
        n = int(rng.integers(4, 400))
        kind = case % 3
        if kind == 0:  # two separated clusters
            lo, hi = sorted(rng.uniform(-1.0, 1.0, 2))
            spread = float(10.0 ** rng.uniform(-4, -1))
            scores = np.where(rng.uniform(size=n) < rng.uniform(0.1, 0.9),
                              rng.normal(lo, spread, n), rng.normal(hi, spread, n))
        elif kind == 1:  # near-constant
            scores = float(rng.uniform(-1, 1)) + rng.normal(0.0, 1e-6, n)
        else:  # a tight cluster with a few outliers
            scores = rng.normal(float(rng.uniform(-0.5, 0.5)), 0.01, n)
            scores[rng.integers(0, n, 1 + n // 50)] = rng.uniform(-1, 1, 1 + n // 50)
        scores = np.clip(scores, -1.0, 1.0)
        weights, means, variances, loglik, post, lowest = _unfloored_fit(scores)
        below += lowest < -708.4
        model = gmm_fit(scores)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.means, means)
        assert np.array_equal(model.variances, variances)
        assert model.loglik == loglik
        assert np.array_equal(gmm_posterior(model, scores), post)
    assert below >= 100  # the cases reach the subnormal range of np.exp


def _two_exp_e_step(weights, variances, sq, log_joint, tmp):
    """``discrimination._e_step`` taking the exp of both shifted joint terms,
    the larger one's included."""
    np.divide(sq, variances[:, None], out=log_joint)
    log_joint += np.log(2.0 * np.pi * variances)[:, None]
    log_joint *= 0.5
    np.subtract(np.log(weights)[:, None], log_joint, out=log_joint)
    shift = log_joint.max(axis=0)
    np.subtract(log_joint, shift, out=tmp)
    np.maximum(tmp, EM_EXP_FLOOR, out=tmp)
    np.exp(tmp, out=tmp)
    return shift + np.log(tmp.sum(axis=0))


def _fit_and_posterior(scores):
    model = gmm_fit(scores)
    return model, gmm_posterior(model, scores)


def test_e_step_one_exp_per_score_matches_the_two_exp_form_bit_for_bit(monkeypatch):
    # the larger shifted term is exp(0) = 1 exactly, and min - max = -(max - min)
    rng = derive_rng(13, "e-step")
    cases = [np.full(40, 0.25)]  # every score equal: two identical components
    for case in range(300):
        n = int(rng.integers(4, 3001))
        lo, hi = rng.uniform(-1.0, 1.0, 2)
        spread = float(10.0 ** rng.uniform(-4, 0))
        scores = np.where(rng.uniform(size=n) < rng.uniform(0.1, 0.9),
                          rng.normal(lo, spread, n), rng.normal(hi, spread, n))
        cases.append(np.clip(scores, -1.0, 1.0) if case % 2 else scores)
    fits = [_fit_and_posterior(scores) for scores in cases]
    monkeypatch.setattr(discrimination, "_e_step", _two_exp_e_step)
    for scores, (model, post) in zip(cases, fits):
        reference, reference_post = _fit_and_posterior(scores)
        assert model.loglik == reference.loglik
        assert np.array_equal(model.weights, reference.weights)
        assert np.array_equal(model.means, reference.means)
        assert np.array_equal(model.variances, reference.variances)
        assert np.array_equal(post, reference_post)
    assert np.all(fits[0][1] == 0.49999999999999994)


def test_gmm_fit_requires_enough_scores():
    with pytest.raises(ValueError):
        gmm_fit(np.array([0.1, 0.9, 0.5]))


def test_gmm_posterior_midpoint_symmetry():
    model = GmmModel(weights=np.array([0.5, 0.5]), means=np.array([0.2, 0.8]),
                     variances=np.array([0.01, 0.01]), clean_component=1)
    assert gmm_posterior(model, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_gmm_posterior_limit_behavior():
    model = GmmModel(weights=np.array([0.5, 0.5]), means=np.array([0.2, 0.8]),
                     variances=np.array([0.0025, 0.0025]), clean_component=1)
    s = 0.8 + 10 * 0.05
    post = gmm_posterior(model, s)
    assert post > 0.999
    assert 0.0 < post < 1.0


def test_gmm_posterior_matches_density_ratio_oracle():
    scores = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
    rng = derive_rng(8, "gmm-oracle")
    scores = scores + rng.normal(0, 0.02, size=100)
    model = gmm_fit(scores)
    for s in (0.85, 0.05, 0.5, 0.3):
        assert gmm_posterior(model, s) == pytest.approx(_posterior_oracle(model, s), abs=1e-12)
    # vectorized path agrees with scalar path
    batch = gmm_posterior(model, np.array([0.85, 0.05]))
    assert batch[0] == pytest.approx(gmm_posterior(model, 0.85), abs=0)


def test_gmm_posterior_monotone_above_both_means_when_clean_is_broader():
    rng = derive_rng(9, "gmm-mono")
    for _ in range(N_CASES):
        mu_lo = float(rng.uniform(0.0, 0.4))
        mu_hi = float(rng.uniform(0.5, 0.9))
        var_lo = float(rng.uniform(1e-4, 0.01))
        var_hi = var_lo + float(rng.uniform(0.0, 0.02))
        w = float(rng.uniform(0.2, 0.8))
        model = GmmModel(weights=np.array([1 - w, w]), means=np.array([mu_lo, mu_hi]),
                         variances=np.array([var_lo, var_hi]), clean_component=1)
        grid = np.linspace(mu_hi, mu_hi + 0.5, 40)
        post = gmm_posterior(model, grid)
        assert np.all(np.diff(post) >= -1e-12)


# ---------------------------------------------------------------------------
# label combination and ensembling
# ---------------------------------------------------------------------------

def test_combine_labels_examples():
    out = SoftLabels(np.array([1.0, 0.5]), np.array([0.3, 0.5])).y
    assert np.array_equal(out, np.array([0.3, 0.5]))


def test_combine_labels_dominance_property():
    rng = derive_rng(10, "min-prop")
    for _ in range(N_CASES):
        n = int(rng.integers(1, 30))
        a = rng.uniform(0, 1, n)
        b = rng.uniform(0, 1, n)
        out = SoftLabels(a, b).y
        assert np.all(out <= a) and np.all(out <= b)
        assert np.array_equal(SoftLabels(a, a).y, a)


def test_ensemble_update_direct_substitution():
    labels = SoftLabels.ones(1)
    labels.y_cm[:] = 0.5
    labels.y_im[:] = 0.5
    out = ensemble_update(labels, np.array([1.0]), np.array([1.0]), 0.7, 0.7)
    assert out.y_cm[0] == pytest.approx(0.85, abs=1e-15)
    assert out.y_im[0] == pytest.approx(0.85, abs=1e-15)
    assert out.y[0] == pytest.approx(0.85, abs=1e-15)


def test_ensemble_update_beta_one_takes_new_estimates():
    labels = SoftLabels.ones(3)
    new = np.array([0.2, 0.4, 0.6])
    out = ensemble_update(labels, new, new, 1.0, 1.0)
    assert np.array_equal(out.y_cm, new)
    assert np.array_equal(out.y_im, new)


def test_ensemble_update_is_convex_combination():
    rng = derive_rng(11, "ens-prop")
    for _ in range(N_CASES):
        n = int(rng.integers(1, 20))
        labels = ensemble_update(SoftLabels.ones(n), rng.uniform(0, 1, n),
                                 rng.uniform(0, 1, n), 1.0, 1.0)
        new_cm = rng.uniform(0, 1, n)
        new_im = rng.uniform(0, 1, n)
        b1 = float(rng.uniform(0, 1))
        b2 = float(rng.uniform(0, 1))
        out = ensemble_update(labels, new_cm, new_im, b1, b2)
        assert np.all(out.y_cm >= np.minimum(labels.y_cm, new_cm) - 1e-12)
        assert np.all(out.y_cm <= np.maximum(labels.y_cm, new_cm) + 1e-12)
        assert np.all(out.y_im >= np.minimum(labels.y_im, new_im) - 1e-12)
        assert np.all(out.y_im <= np.maximum(labels.y_im, new_im) + 1e-12)
        assert np.array_equal(out.y, np.minimum(out.y_cm, out.y_im))


def test_ensemble_update_rejects_bad_momentum():
    labels = SoftLabels.ones(2)
    with pytest.raises(ValueError):
        ensemble_update(labels, np.ones(2), np.ones(2), 1.2, 0.5)
    with pytest.raises(ValueError):
        ensemble_update(labels, np.ones(2), np.ones(2), 0.5, -0.1)
