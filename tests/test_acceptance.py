"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (visible with `pytest -s` and in captured
output on failure). Training cells are cached across criteria so shared
configurations run once.
"""

import math
import time

import numpy as np
import pytest

from gsc import cli
from gsc.discrimination import (SoftLabels, cross_modal_indicator, ensemble_update, gmm_fit,
                                gmm_posterior, intra_structure_score)
from gsc.evalmetrics import detection_metrics, recall_at_k
from gsc.losses import fd_check, loss_cm, loss_im
from gsc.model import Encoder
from gsc.numerics import derive_rng, softmax_rows
from gsc.synthdata import GenSpec, generate, inject_noise, split
from gsc.trainer import TrainConfig, evaluate_retrieval, run

SEEDS = (11, 12, 13)
_CELLS = {}


def _gate(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cell(mode, rho, seed):
    """Train one (mode, rho, seed) configuration at desk-scale defaults."""
    key = (mode, float(rho), seed)
    if key not in _CELLS:
        t0 = time.monotonic()
        ds = generate(GenSpec(n=2500, seed=seed))
        train, dev, test = split(ds, 0.8, 0.1, 0.1, derive_rng(seed, "split"))
        if rho > 0:
            train = inject_noise(train, rho, derive_rng(seed, "noise"))
        result = run(TrainConfig(seed=seed, mode=mode), train, dev)
        test_retr = evaluate_retrieval(result.best_nets, test)
        y_run = np.mean([labels.y for labels in result.labels], axis=0)
        detection = detection_metrics(y_run, train.noise_mask)
        _CELLS[key] = {
            "rsum": test_retr.recall_sum,
            "r1_i2t": test_retr.r1_i2t,
            "detection": detection,
            "history": result.history,
            "elapsed": time.monotonic() - t0,
            "train_n": train.n,
        }
    return _CELLS[key]


def _mean(mode, rho, field):
    return float(np.mean([cell(mode, rho, s)[field] for s in SEEDS]))


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in (0, 1, 2):
        rng = derive_rng(seed, "accept-fd")
        enc_img = Encoder.init([8, 10, 4], rng)
        enc_txt = Encoder.init([7, 9, 4], rng)
        x_img = rng.standard_normal((6, 8))
        x_txt = rng.standard_normal((6, 7))
        y = rng.uniform(0.1, 1.0, size=6)
        rep = fd_check(enc_img, enc_txt, x_img, x_txt, y,
                       tau1=0.07, tau2=1.0, gamma=0.01, h=1e-5, tol=1e-4)
        worst = max(worst, rep.max_rel_err)
        assert rep.passed
    elapsed = time.monotonic() - t0
    _gate("criterion 1 (gradient correctness)",
          worst < 1e-4 and elapsed < 60.0,
          f"max rel err {worst:.2e} < 1e-4 over 3 seeds in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------

def _gauss(x, mean, var):
    return math.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def test_criterion_2_oracle_equivalence():
    rng = derive_rng(0, "accept-oracles")
    worst = {"loss_cm": 0.0, "loss_im": 0.0, "indicator": 0.0, "structure": 0.0,
             "posterior": 0.0, "recall": 0.0, "auc": 0.0}
    for _ in range(20):
        b = int(rng.integers(2, 6))
        s = rng.uniform(-1, 1, size=(b, b))
        y = rng.uniform(0, 1, size=b)
        tau = float(rng.uniform(0.1, 1.0))

        ref = 0.0
        for i in range(b):
            row = sum(math.exp(s[i, j] / tau) for j in range(b))
            col = sum(math.exp(s[j, i] / tau) for j in range(b))
            ref -= y[i] * (math.log(math.exp(s[i, i] / tau) / row)
                           + math.log(math.exp(s[i, i] / tau) / col))
        ref /= 2.0 * b
        worst["loss_cm"] = max(worst["loss_cm"], abs(loss_cm(s, y, tau) - ref))

        s_tt = rng.uniform(-1, 1, size=(b, b))
        w = np.array([[sum(y[k] ** 2 * s[i, k] * s_tt[j, k] for k in range(b))
                       for j in range(b)] for i in range(b)])
        ref_im = -np.mean([math.log(math.exp(w[i, i])
                                    / sum(math.exp(w[i, j]) for j in range(b)))
                           for i in range(b)])
        worst["loss_im"] = max(worst["loss_im"], abs(loss_im(s, s_tt, y, 1.0) - ref_im))

        got = cross_modal_indicator(s, tau)
        for i in range(b):
            row = sum(math.exp(s[i, j] / tau) for j in range(b))
            col = sum(math.exp(s[j, i] / tau) for j in range(b))
            ref_i = 0.5 * (math.exp(s[i, i] / tau) / row + math.exp(s[i, i] / tau) / col)
            worst["indicator"] = max(worst["indicator"], abs(got[i] - ref_i))

        got = intra_structure_score(s, s_tt, y)
        for i in range(b):
            num = sum(y[j] ** 2 * s[i, j] * s_tt[i, j] for j in range(b))
            d1 = math.sqrt(sum((y[j] * s[i, j]) ** 2 for j in range(b)))
            d2 = math.sqrt(sum((y[j] * s_tt[i, j]) ** 2 for j in range(b)))
            worst["structure"] = max(worst["structure"], abs(got[i] - num / (d1 * d2)))

    scores = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
    scores += derive_rng(1, "accept-gmm").normal(0, 0.02, size=100)
    model = gmm_fit(scores)
    for s_val in (0.85, 0.3, 0.55):
        dens = [model.weights[k] * _gauss(s_val, model.means[k], model.variances[k])
                for k in range(2)]
        ref_p = dens[model.clean_component] / sum(dens)
        worst["posterior"] = max(worst["posterior"], abs(gmm_posterior(model, s_val) - ref_p))

    for _ in range(20):
        n = int(rng.integers(3, 9))
        sim = np.round(rng.uniform(-1, 1, size=(n, n)), 1)
        gt = rng.permutation(n)
        k = int(rng.integers(1, n + 1))
        hits = 0
        for i in range(n):
            ahead = sum(1 for j in range(n)
                        if sim[i, j] > sim[i, gt[i]] or (sim[i, j] == sim[i, gt[i]] and j < gt[i]))
            hits += ahead < k
        worst["recall"] = max(worst["recall"],
                              abs(recall_at_k(sim, gt, k) - 100.0 * hits / n))

        yv = np.round(rng.uniform(0, 1, size=n), 1)
        mask = rng.uniform(size=n) < 0.5
        if mask.any() and not mask.all():
            total = sum(1.0 if c > m else 0.5 if c == m else 0.0
                        for c in yv[~mask] for m in yv[mask])
            ref_auc = total / (int((~mask).sum()) * int(mask.sum()))
            worst["auc"] = max(worst["auc"], abs(detection_metrics(yv, mask).auc - ref_auc))

    tight = all(worst[k] < 1e-12 for k in ("loss_cm", "loss_im", "structure", "posterior"))
    loose = all(worst[k] < 1e-10 for k in ("indicator", "recall", "auc"))
    _gate("criterion 2 (oracle equivalence)", tight and loose,
          "; ".join(f"{k}={v:.1e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# 3. EM soundness
# ---------------------------------------------------------------------------

def test_criterion_3_em_soundness():
    worst_drop = 0.0
    for seed in range(20):
        rng = derive_rng(seed, "accept-em")
        scores = np.concatenate([rng.normal(0.25, 0.08, 50), rng.normal(0.8, 0.06, 50)])
        model = gmm_fit(scores)
        diffs = np.diff(model.loglik)
        if diffs.size:
            worst_drop = max(worst_drop, float(-diffs.min()))
    scores = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
    scores += derive_rng(99, "accept-em").normal(0, 0.01, size=100)
    model = gmm_fit(scores)
    lo, hi = sorted(model.means)
    ok = worst_drop <= 1e-9 and abs(lo - 0.1) < 0.02 and abs(hi - 0.9) < 0.02
    _gate("criterion 3 (EM soundness)", ok,
          f"worst LL drop {worst_drop:.1e} <= 1e-9 over 20 seeds; "
          f"means ({lo:.3f}, {hi:.3f}) within 0.02 of (0.1, 0.9)")


# ---------------------------------------------------------------------------
# 4. invariant suite
# ---------------------------------------------------------------------------

def test_criterion_4_invariant_suite():
    rng = derive_rng(0, "accept-props")
    checks = 0
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(2, 9))
        m = rng.uniform(-1e4, 1e4, size=(rows, cols))
        tau = float(rng.choice([0.05, 0.07, 1.0]))
        p = softmax_rows(m, tau)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
        shift = softmax_rows(m + float(rng.uniform(-50, 50)), tau)
        assert np.max(np.abs(p - shift)) < 1e-12
        checks += 1

    for _ in range(100):
        b = int(rng.integers(2, 7))
        s = rng.uniform(-1, 1, size=(b, b))
        ind = cross_modal_indicator(s, 0.07)
        assert np.all(ind > 0) and np.all(ind <= 1.0)
        i = int(rng.integers(0, b))
        bumped = s.copy()
        bumped[i, i] += 0.2
        assert cross_modal_indicator(bumped, 0.07)[i] > ind[i]
        checks += 1

    for _ in range(100):
        n = int(rng.integers(1, 20))
        a, b_vec = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        y = SoftLabels(a, b_vec).y
        assert np.all(y <= a) and np.all(y <= b_vec)
        labels = ensemble_update(SoftLabels.ones(n), rng.uniform(0, 1, n),
                                 rng.uniform(0, 1, n), 1.0, 1.0)
        out = ensemble_update(labels, a, b_vec, float(rng.uniform(0, 1)),
                              float(rng.uniform(0, 1)))
        assert np.all(out.y_cm >= np.minimum(labels.y_cm, a) - 1e-12)
        assert np.all(out.y_cm <= np.maximum(labels.y_cm, a) + 1e-12)
        checks += 1

    for _ in range(100):
        b = int(rng.integers(2, 6))
        s_ii = rng.uniform(-1, 1, size=(b, b))
        s_tt = rng.uniform(-1, 1, size=(b, b))
        got = intra_structure_score(s_ii, s_tt, np.ones(b))
        for i in range(b):
            num = float(np.dot(s_ii[i], s_tt[i]))
            den = float(np.linalg.norm(s_ii[i]) * np.linalg.norm(s_tt[i]))
            assert got[i] == pytest.approx(num / den, abs=1e-12)
        # unit labels reduce the purified losses to the plain objectives
        y1 = np.ones(b)
        w_plain = s_ii @ s_tt.T
        assert loss_im(s_ii, s_tt, y1, 1.0) == pytest.approx(
            float(-np.mean(np.diag(w_plain) - np.log(np.exp(w_plain).sum(axis=1)))),
            abs=1e-10)
        checks += 1

    for _ in range(100):
        n = int(rng.integers(2, 10))
        sim = rng.uniform(-1, 1, size=(n, n))
        gt = rng.permutation(n)
        vals = [recall_at_k(sim, gt, k) for k in range(1, n + 1)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        k = int(rng.integers(1, n + 1))
        assert recall_at_k(np.tanh(3 * sim) * 5 + 2, gt, k) == recall_at_k(sim, gt, k)
        checks += 1

    _gate("criterion 4 (invariant suite)", checks == 500,
          f"{checks} randomized property cases across 5 families")


# ---------------------------------------------------------------------------
# 5. discrimination at desk scale
# ---------------------------------------------------------------------------

def test_criterion_5_discrimination_desk_scale():
    c = cell("gsc", 0.4, SEEDS[0])
    det = c["detection"]
    gap = det.mean_clean - det.mean_noisy
    ok = (c["train_n"] == 2000 and det.accuracy >= 0.90 and det.auc >= 0.95
          and gap >= 0.3 and c["elapsed"] <= 600.0)
    _gate("criterion 5 (desk-scale discrimination)", ok,
          f"N={c['train_n']} rho=0.4: acc {det.accuracy:.3f} >= 0.90, "
          f"auc {det.auc:.3f} >= 0.95, clean-noisy label gap {gap:.3f} >= 0.3, "
          f"runtime {c['elapsed']:.0f}s <= 600s")


# ---------------------------------------------------------------------------
# 6. robustness benefit
# ---------------------------------------------------------------------------

def test_criterion_6_robustness_benefit():
    g4, b4 = _mean("gsc", 0.4, "rsum"), _mean("baseline", 0.4, "rsum")
    g6, b6 = _mean("gsc", 0.6, "rsum"), _mean("baseline", 0.6, "rsum")
    r1_gap = _mean("gsc", 0.6, "r1_i2t") - _mean("baseline", 0.6, "r1_i2t")
    ok = g4 > b4 and g6 > b6 and r1_gap >= 5.0
    _gate("criterion 6 (robustness benefit)", ok,
          f"rho=0.4 rsum {g4:.1f} > {b4:.1f}; rho=0.6 rsum {g6:.1f} > {b6:.1f}; "
          f"rho=0.6 R@1 i2t advantage {r1_gap:.1f} >= 5 (3-seed means)")


# ---------------------------------------------------------------------------
# 7. no harm at zero noise
# ---------------------------------------------------------------------------

def test_criterion_7_no_harm_at_zero_noise():
    g, b = _mean("gsc", 0.0, "rsum"), _mean("baseline", 0.0, "rsum")
    ok = g >= b - 3.0
    _gate("criterion 7 (no harm at zero noise)", ok,
          f"rho=0 rsum gsc {g:.1f} vs baseline {b:.1f} (within 3 points)")


# ---------------------------------------------------------------------------
# 8. ablation direction
# ---------------------------------------------------------------------------

def test_criterion_8_ablation_direction():
    full = _mean("gsc", 0.4, "rsum")
    details = [f"gsc {full:.1f}"]
    ok = True
    for mode in ("cm_only", "im_only", "single_net", "no_ensemble"):
        other = _mean(mode, 0.4, "rsum")
        violation = other - full
        if violation > 1.0:
            ok = False
            details.append(f"{mode} {other:.1f} EXCEEDS by {violation:.1f}")
        elif violation > 0.0:
            details.append(f"{mode} {other:.1f} (reported violation {violation:.2f} <= 1)")
        else:
            details.append(f"{mode} {other:.1f}")
    _gate("criterion 8 (ablation direction)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    ds = generate(GenSpec(n=300, n_clusters=10, seed=5))
    train, dev, _ = split(ds, 0.8, 0.1, 0.1, derive_rng(5, "split"))
    train = inject_noise(train, 0.4, derive_rng(5, "noise"))
    cfg = TrainConfig(seed=5, epochs=3, batch_size=64, embed_dim=8, hidden_dims=(12,))
    h1 = run(cfg, train, dev).history
    h2 = run(cfg, train, dev).history
    histories_equal = h1 == h2

    args = ["sweep", "--rhos", "0,0.4", "--modes", "gsc,baseline",
            "--n", "120", "--epochs", "1", "--seed", "3"]
    cli.main(args + ["--out", str(tmp_path / "s1")])
    cli.main(args + ["--out", str(tmp_path / "s2")])
    csv_equal = ((tmp_path / "s1" / "summary.csv").read_bytes()
                 == (tmp_path / "s2" / "summary.csv").read_bytes())
    _gate("criterion 9 (determinism)", histories_equal and csv_equal,
          f"bit-identical histories over {len(h1)} epochs; sweep CSV reproducible")
