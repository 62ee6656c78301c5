import itertools
import math

import numpy as np
import pytest

from gsc.losses import (_embedding_grads, fd_check, grad_total, loss_cm, loss_im,
                        structure_logits)
from gsc.model import Encoder, encode, param_layout
from gsc.numerics import NumericalError, derive_rng

N_CASES = 100


# ---------------------------------------------------------------------------
# independent oracles: direct per-term evaluation with math.exp/log
# ---------------------------------------------------------------------------

def _loss_cm_oracle(s, y, tau):
    n = s.shape[0]
    total = 0.0
    for i in range(n):
        row = sum(math.exp(s[i, j] / tau) for j in range(n))
        total += y[i] * math.log(math.exp(s[i, i] / tau) / row)
    for j in range(n):
        col = sum(math.exp(s[i, j] / tau) for i in range(n))
        total += y[j] * math.log(math.exp(s[j, j] / tau) / col)
    return -total / (2.0 * n)


def _loss_im_oracle(s_ii, s_tt, y, tau):
    n = s_ii.shape[0]
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            w[i, j] = sum(y[k] ** 2 * s_ii[i, k] * s_tt[j, k] for k in range(n))
    total = 0.0
    for i in range(n):
        den = sum(math.exp(w[i, j] / tau) for j in range(n))
        total += math.log(math.exp(w[i, i] / tau) / den)
    return -total / n


def _dense_embedding_grads(ei, et, y, tau1, tau2, gamma):
    """Embedding gradients through the B x B structure matrices, O(B^3)."""
    b = ei.shape[0]
    eye = np.eye(b)
    s = ei @ et.T
    s_ii = ei @ ei.T
    s_tt = et @ et.T

    def softmax_rows(m):
        e = np.exp(m - m.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    p = softmax_rows(s / tau1)
    q = softmax_rows(s.T / tau1).T
    g_s = -(y[:, None] * (eye - p) + (eye - q) * y[None, :]) / (2.0 * b * tau1)
    w2 = y * y
    r = softmax_rows((s_ii * w2[None, :]) @ s_tt.T / tau2)
    g_w = -(gamma / (b * tau2)) * (eye - r)
    g_ii = (g_w @ s_tt) * w2[None, :]
    g_tt = (g_w.T @ s_ii) * w2[None, :]
    return g_s @ et + (g_ii + g_ii.T) @ ei, g_s.T @ ei + (g_tt + g_tt.T) @ et


def _row_log_softmax_allocating(z):
    """The allocating row log-softmax of the rank-d kernel's first version."""
    shift = z.max(axis=1, keepdims=True)
    e = z - shift
    np.exp(e, out=e)
    total = e.sum(axis=1, keepdims=True)
    e /= total
    return np.diag(z) - (shift + np.log(total))[:, 0], e


def _embedding_grads_allocating(ei, et, yv, tau1, tau2, gamma):
    """The one-exp kernel written with a fresh array for every B x B and
    B x d quantity: the in-place kernel must reproduce it bit for bit."""
    b = ei.shape[0]
    on_diag = np.s_[::b + 1]
    z = (ei / tau1) @ et.T - 1.0 / tau1
    diag = np.diag(z).copy()
    e = np.exp(z)
    rows = e.sum(axis=1)
    cols = e.sum(axis=0)
    l_cm = -(yv @ (diag - np.log(rows)) + yv @ (diag - np.log(cols))) / (2.0 * b)
    g_s = e * np.add.outer(yv / rows, yv / cols)
    g_s.flat[on_diag] -= 2.0 * yv
    w2 = yv * yv
    core = ei.T @ (w2[:, None] * et)
    w = (ei @ (core / tau2)) @ et.T
    shift = w.max(axis=1)
    r = np.exp(w - shift[:, None])
    total = r.sum(axis=1)
    l_im = -(np.diag(w) - shift - np.log(total)).mean()
    g_w = r * (gamma / (b * tau2) / total)[:, None]
    g_w.flat[on_diag] -= gamma / (b * tau2)
    x = g_w @ et
    y = g_w.T @ ei
    scale = 1.0 / (2.0 * b * tau1)
    g_ei = ((x @ core.T + w2[:, None] * (et @ (et.T @ y)))
            + (g_s @ et) * scale)
    g_et = ((y @ core + w2[:, None] * (ei @ (ei.T @ x)))
            + (g_s.T @ ei) * scale)
    return float(l_cm), float(l_im), g_ei, g_et


def _random_instance(rng, b=None, dims_img=(8, 10, 4), dims_txt=(7, 9, 4)):
    b = b or int(rng.integers(3, 7))
    enc_img = Encoder.init(list(dims_img), rng)
    enc_txt = Encoder.init(list(dims_txt), rng)
    x_img = rng.standard_normal((b, dims_img[0]))
    x_txt = rng.standard_normal((b, dims_txt[0]))
    y = rng.uniform(0.1, 1.0, size=b)
    return enc_img, enc_txt, x_img, x_txt, y


# ---------------------------------------------------------------------------
# loss values
# ---------------------------------------------------------------------------

def test_loss_cm_zero_weights_give_zero():
    rng = derive_rng(0, "cm-zero")
    s = rng.uniform(-1, 1, size=(4, 4))
    assert loss_cm(s, np.zeros(4), 0.07) == 0.0


def test_loss_cm_single_pair_is_zero():
    assert loss_cm(np.array([[0.9]]), np.ones(1), 0.07) == pytest.approx(0.0, abs=0)


def test_loss_cm_matches_oracle():
    rng = derive_rng(1, "cm-oracle")
    for _ in range(25):
        b = int(rng.integers(2, 6))
        s = rng.uniform(-1, 1, size=(b, b))
        y = rng.uniform(0, 1, size=b)
        tau = float(rng.uniform(0.05, 2.0))
        assert loss_cm(s, y, tau) == pytest.approx(_loss_cm_oracle(s, y, tau), abs=1e-12)


def test_loss_cm_nonnegative_and_linear_in_labels():
    rng = derive_rng(2, "cm-lin")
    for _ in range(N_CASES):
        b = int(rng.integers(2, 6))
        s = rng.uniform(-1, 1, size=(b, b))
        y = rng.uniform(0, 1, size=b)
        a = float(rng.uniform(0, 1))
        base = loss_cm(s, y, 0.3)
        assert base >= 0.0
        if y.max() > 0:  # some weight on an imperfect diagonal softmax
            assert base > 0.0
        assert loss_cm(s, a * y, 0.3) == pytest.approx(a * base, rel=1e-12, abs=1e-13)


def test_loss_im_row_constant_logits_give_log_b():
    rng = derive_rng(3, "im-const")
    for b in (2, 4, 8):
        # identical structure rows make w constant within each row
        row = rng.uniform(-1, 1, size=b)
        s = np.tile(row, (b, 1))
        assert loss_im(s, s, np.ones(b), 1.0) == pytest.approx(math.log(b), abs=1e-12)
        # zero weights zero out all logits
        s2 = rng.uniform(-1, 1, size=(b, b))
        assert loss_im(s2, s2, np.zeros(b), 1.0) == pytest.approx(math.log(b), abs=1e-12)


def test_loss_im_matches_oracle():
    rng = derive_rng(4, "im-oracle")
    for _ in range(25):
        b = int(rng.integers(2, 5))
        s_ii = rng.uniform(-1, 1, size=(b, b))
        s_tt = rng.uniform(-1, 1, size=(b, b))
        y = rng.uniform(0, 1, size=b)
        tau = float(rng.uniform(0.5, 2.0))
        got = loss_im(s_ii, s_tt, y, tau)
        assert got == pytest.approx(_loss_im_oracle(s_ii, s_tt, y, tau), abs=1e-12)
        assert got >= -1e-12


def test_structure_logits_shape_errors():
    with pytest.raises(ValueError):
        structure_logits(np.ones((2, 2)), np.ones((3, 3)), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        loss_im(np.ones((2, 2)), np.ones((2, 2)), np.ones(2), 0.0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [2, 8, 24])  # 2, d and 3d for embedding dim d = 8
def test_embedding_grads_match_dense_reference(b):
    rng = derive_rng(b, "grad-dense")
    enc_img = Encoder.init([10, 12, 8], rng)
    enc_txt = Encoder.init([9, 12, 8], rng)
    x_img = rng.standard_normal((b, 10))
    x_txt = rng.standard_normal((b, 9))
    ei, et = encode(enc_img, x_img)[0], encode(enc_txt, x_txt)[0]
    labels = [rng.uniform(0.0, 1.0, size=b), np.zeros(b), np.ones(b), np.full(b, 0.3),
              np.where(np.arange(b) % 2 == 0, 0.0, 0.7)]
    for y in labels:
        for gamma in (0.01, 1.0):
            report, _ = grad_total(enc_img, enc_txt, x_img, x_txt, y, 0.07, 0.5, gamma)
            want = loss_cm(ei @ et.T, y, 0.07) + gamma * loss_im(ei @ ei.T, et @ et.T, y, 0.5)
            assert abs(report.l_cm + gamma * report.l_im - want) <= 1e-12
            _, g_ei, g_et = _embedding_grads(ei, et, y, 0.07, 0.5, gamma)
            ref_ei, ref_et = _dense_embedding_grads(ei, et, y, 0.07, 0.5, gamma)
            for got, ref in ((g_ei, ref_ei), (g_et, ref_et)):
                scale = max(np.abs(ref).max(), 1e-300)
                assert np.abs(got - ref).max() <= 1e-10 * scale


@pytest.mark.parametrize("b", [2, 7, 128, 400])
def test_embedding_grads_bit_identical_to_allocating_kernel(b):
    rng = derive_rng(b, "grad-inplace")
    enc_img = Encoder.init([10, 12, 32], rng)
    enc_txt = Encoder.init([9, 12, 32], rng)
    e_img = encode(enc_img, rng.standard_normal((b, 10)))[0]
    e_txt = encode(enc_txt, rng.standard_normal((b, 9)))[0]
    labels = (rng.uniform(0.0, 1.0, size=b), np.zeros(b), np.ones(b))
    work = np.full((b + 1) ** 2, np.nan)  # a run's buffer: larger, and reused
    for y, tau2, buf in itertools.product(labels, (1.0, 0.7), (None, work)):
        report, g_ei, g_et = _embedding_grads(e_img, e_txt, y, 0.07, tau2, 0.01, buf)
        l_cm, l_im, ref_ei, ref_et = _embedding_grads_allocating(
            e_img, e_txt, y, 0.07, tau2, 0.01)
        assert (report.l_cm, report.l_im) == (l_cm, l_im)
        assert np.array_equal(g_ei, ref_ei) and np.array_equal(g_et, ref_et)


def test_loss_values_unchanged_by_in_place_softmax():
    rng = derive_rng(9, "loss-inplace")
    for b in (2, 7, 128):
        s = rng.uniform(-1.0, 1.0, size=(b, b))
        a = rng.uniform(-1.0, 1.0, size=(b, b))
        c = rng.uniform(-1.0, 1.0, size=(b, b))
        y = rng.uniform(0.0, 1.0, size=b)
        inputs = [m.copy() for m in (s, a, c)]
        z = s / 0.07
        row, _ = _row_log_softmax_allocating(z)
        col, _ = _row_log_softmax_allocating(z.T)
        assert loss_cm(s, y, 0.07) == float(-(y @ row + y @ col) / (2.0 * b))
        w_diag, _ = _row_log_softmax_allocating(structure_logits(a, c, y, 0.5))
        assert loss_im(a, c, y, 0.5) == float(-w_diag.mean())
        assert all(np.array_equal(m, m0) for m, m0 in zip((s, a, c), inputs))


def test_grad_total_zero_labels_give_zero_gradients():
    rng = derive_rng(6, "grad-zero")
    enc_img, enc_txt, x_img, x_txt, _ = _random_instance(rng)
    _, grad = grad_total(enc_img, enc_txt, x_img, x_txt,
                         np.zeros(x_img.shape[0]), 0.07, 1.0, 0.01)
    assert grad.shape == (enc_img.theta.size + enc_txt.theta.size,)
    assert np.all(grad == 0.0)


def test_grad_total_im_part_scales_linearly_with_gamma():
    rng = derive_rng(7, "grad-gamma")
    enc_img, enc_txt, x_img, x_txt, y = _random_instance(rng)
    _, g0 = grad_total(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.0)
    _, g1 = grad_total(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.5)
    _, g2 = grad_total(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 1.0)
    assert np.allclose(g2 - g0, 2.0 * (g1 - g0), atol=1e-12)


def test_grad_total_matches_finite_differences_three_seeds():
    for seed in (0, 1, 2):
        rng = derive_rng(seed, "grad-fd")
        enc_img, enc_txt, x_img, x_txt, y = _random_instance(rng, b=6)
        report = fd_check(enc_img, enc_txt, x_img, x_txt, y,
                          tau1=0.07, tau2=1.0, gamma=0.01, h=1e-5, tol=1e-4)
        assert report.passed, f"seed {seed}: {report.worst_param} {report.max_rel_err:.2e}"
        assert report.max_rel_err < 1e-4


def test_fd_check_linear_encoders_tight_tolerance():
    rng = derive_rng(3, "grad-linear")
    enc_img = Encoder.init([5, 4], rng)
    enc_txt = Encoder.init([6, 4], rng)
    x_img = rng.standard_normal((2, 5))
    x_txt = rng.standard_normal((2, 6))
    y = rng.uniform(0.1, 1.0, size=2)
    report = fd_check(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.01)
    assert report.max_rel_err < 1e-6


def test_fd_check_raises_no_floating_point_error():
    # the finite-difference sweep of `gsc fdcheck`, with numpy's checks raising
    rng = derive_rng(5, "grad-fd-errstate")
    enc_img, enc_txt, x_img, x_txt, y = _random_instance(rng, b=3)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        report = fd_check(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.01)
    assert report.passed


def test_fd_check_detects_perturbed_gradient():
    rng = derive_rng(4, "grad-perturb")
    enc_img, enc_txt, x_img, x_txt, y = _random_instance(rng, b=4)
    _, grad = grad_total(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.01)
    # scale the largest-magnitude weight gradient by 1%
    flat = grad[:enc_img.weights[0].size]  # the image encoder's W0 comes first
    worst = int(np.argmax(np.abs(flat)))
    flat[worst] *= 1.01
    report = fd_check(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.01, grad=grad)
    assert not report.passed
    assert report.max_rel_err > 1e-3
    row, col = divmod(worst, enc_img.weights[0].shape[1])
    assert report.worst_param == f"img.W0[{row}, {col}]"


@pytest.mark.parametrize("side, name", [("img", "W1"), ("txt", "b0"), ("txt", "b1")])
def test_fd_check_names_the_perturbed_coordinate(side, name):
    rng = derive_rng(4, "grad-perturb")
    enc_img, enc_txt, x_img, x_txt, y = _random_instance(rng, b=4)
    _, grad = grad_total(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.01)
    enc, offset = (enc_img, 0) if side == "img" else (enc_txt, enc_img.theta.size)
    layout = {n: (part, shape) for n, part, shape in param_layout(enc.dims)}
    part, shape = layout[name]
    flat = grad[offset + part.start:offset + part.stop]  # the text part follows the image's
    worst = int(np.argmax(np.abs(flat)))
    flat[worst] *= 1.01
    report = fd_check(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.01, grad=grad)
    idx = [int(d) for d in np.unravel_index(worst, shape)]
    assert report.worst_param == f"{side}.{name}{idx}"


def test_fd_check_infinite_tolerance_always_passes():
    rng = derive_rng(5, "grad-inf")
    enc_img, enc_txt, x_img, x_txt, y = _random_instance(rng, b=3,
                                                         dims_img=(4, 3), dims_txt=(5, 3))
    report = fd_check(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.01,
                      tol=float("inf"))
    assert report.passed


def test_grad_total_raises_named_numerical_error():
    rng = derive_rng(6, "grad-nonfinite")
    enc_img, enc_txt, x_img, x_txt, y = _random_instance(rng, b=3)
    enc_img.weights[-1][0, 0] = np.inf  # last layer: no tanh to absorb it
    with pytest.raises(NumericalError, match="image embeddings"):
        grad_total(enc_img, enc_txt, x_img, x_txt, y, 0.07, 1.0, 0.01)


def test_grad_total_batch_size_mismatch():
    rng = derive_rng(7, "grad-mismatch")
    enc_img, enc_txt, x_img, x_txt, y = _random_instance(rng, b=4)
    with pytest.raises(ValueError):
        grad_total(enc_img, enc_txt, x_img[:3], x_txt, y, 0.07, 1.0, 0.01)
