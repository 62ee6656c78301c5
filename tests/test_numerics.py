import io
import math

import numpy as np
import pytest

from gsc.model import Encoder, param_views
from gsc.numerics import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, ArrayRowWriter,
                          NumericalError, adam_step, array_path, derive_rng, read_array,
                          scale_rows_pow2, softmax_rows, write_arrays)

N_CASES = 120


def test_softmax_single_element():
    for x in (-3.0, 0.0, 7.5):
        out = softmax_rows(np.array([[x]]), tau=2.0)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, abs=0)


def test_softmax_equal_values_row():
    for n in (2, 5, 17):
        out = softmax_rows(np.full((1, n), 3.7), tau=0.5)
        assert np.allclose(out, 1.0 / n, atol=1e-15)


def test_softmax_analytic_ratio():
    out = softmax_rows(np.array([[0.0, math.log(2.0)]]), tau=1.0)
    assert out[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert out[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_softmax_invalid_arguments():
    with pytest.raises(ValueError):
        softmax_rows(np.ones((2, 2)), tau=0.0)
    with pytest.raises(ValueError):
        softmax_rows(np.ones((2, 2)), tau=-1.0)
    with pytest.raises(ValueError):
        softmax_rows(np.array([[1.0, np.nan]]), tau=1.0)
    with pytest.raises(ValueError):
        softmax_rows(np.array([[1.0, np.inf]]), tau=1.0)


def test_softmax_rows_sum_to_one_extreme_magnitudes():
    rng = derive_rng(0, "softmax-sums")
    for _ in range(N_CASES):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 12))
        scale = float(rng.choice([1.0, 10.0, 1e4]))
        m = rng.uniform(-scale, scale, size=(rows, cols))
        tau = float(rng.choice([0.05, 0.07, 1.0, 5.0]))
        out = softmax_rows(m, tau)
        assert np.all(out >= 0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_shift_invariance():
    rng = derive_rng(1, "softmax-shift")
    for _ in range(N_CASES):
        m = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(2, 9))))
        c = float(rng.uniform(-100.0, 100.0))
        tau = float(rng.uniform(0.05, 3.0))
        a = softmax_rows(m, tau)
        b = softmax_rows(m + c, tau)
        assert np.max(np.abs(a - b)) < 1e-12


def _softmax_rows_allocating(m, tau):
    """softmax_rows as first written, with a fresh array for the exp."""
    z = np.asarray(m, dtype=float) / tau
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def test_softmax_rows_bit_identical_to_allocating_version():
    rng = derive_rng(2, "softmax-inplace")
    for b in (2, 7, 128, 400):
        for m in (rng.uniform(-1.0, 1.0, size=(b, b)), np.zeros((b, b)),
                  rng.uniform(-1e4, 1e4, size=(b, b)), rng.uniform(-1.0, 1.0, size=(b, b)).T):
            before = m.copy()
            for tau in (0.07, 1.0):
                assert np.array_equal(softmax_rows(m, tau), _softmax_rows_allocating(m, tau))
            assert np.array_equal(m, before)  # the input is never written


def test_scale_rows_pow2_is_exact_and_brings_each_row_into_half_to_one():
    rng = derive_rng(3, "scale-rows")
    for _ in range(N_CASES):
        m = rng.standard_normal((4, 7)) * rng.uniform(0.01, 100.0, size=(4, 1))
        scaled, exponent = scale_rows_pow2(m)
        assert exponent.shape == (4, 1)
        assert np.array_equal(scaled * 2.0 ** exponent, m)  # a power of two keeps every bit
        top = np.abs(scaled).max(axis=1)
        assert np.all((0.5 <= top) & (top < 1.0))
    # the squares of 1e-300 underflow and those of 1e300 overflow; scaled, neither does
    for value in (1e-300, -1e-300, 1e300):
        scaled, exponent = scale_rows_pow2(np.array([[value, value / 3.0], [1.0, 2.0]]))
        assert 0.5 <= abs(scaled[0, 0]) < 1.0
        assert np.array_equal(np.ldexp(scaled, exponent)[0], [value, value / 3.0])
    scaled, exponent = scale_rows_pow2(np.array([[0.0, 0.0, 0.0], [3.0, -1.0, 0.5]]))
    assert np.array_equal(scaled[0], np.zeros(3)) and exponent[0, 0] == 0
    assert np.array_equal(scaled[1], [0.75, -0.25, 0.125]) and exponent[1, 0] == 2


def _zero_state(p):
    return AdamState(m=np.zeros_like(p), v=np.zeros_like(p))


def test_adam_first_step_moves_by_lr():
    p = np.array([1.0])
    state = _zero_state(p)
    adam_step(p, np.array([0.3]), state, lr=0.01)
    # bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
    assert p[0] == pytest.approx(1.0 - 0.01, rel=1e-6)
    assert state.step == 1


def test_adam_zero_gradient_leaves_params_unchanged():
    p = np.array([2.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    state = _zero_state(p)
    before = p.copy()
    for _ in range(5):
        adam_step(p, np.zeros_like(p), state, lr=0.1)
    assert np.array_equal(p, before)
    assert state.step == 5


def test_adam_deterministic_and_shape_preserving():
    size = 3 * 4 + 4 + 2 * 2

    def run_once():
        r = derive_rng(3, "adam-data")
        p = r.standard_normal(size)
        state = _zero_state(p)
        for _ in range(10):
            adam_step(p, r.standard_normal(size), state, lr=1e-3)
        return p

    a, b = run_once(), run_once()
    assert np.array_equal(a, b)
    assert a.shape == (size,)


def test_adam_shape_mismatch_error():
    p = np.zeros(4)
    state = _zero_state(p)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(3), state, lr=0.1)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(4), _zero_state(np.zeros(3)), lr=0.1)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(4), state, lr=0.0)


def test_adam_second_moment_overflow_raises():
    # 1e200 is finite, but its square is not: the update would silently be 0
    p = np.zeros(3)
    with np.errstate(over="ignore"), pytest.raises(NumericalError,
                                                   match="the Adam second moment"):
        adam_step(p, np.array([0.1, 1e200, 0.2]), _zero_state(p), lr=0.1)


def _adam_per_parameter(params, grads, ms, vs, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam loop over lists of arrays that the flat update replaced."""
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def test_flat_adam_bit_identical_to_per_parameter_loop():
    dims = [48, 64, 32]
    rng = derive_rng(9, "adam-oracle")
    enc = Encoder.init(dims, rng)
    state = _zero_state(enc.theta)
    params = [view.copy() for view in param_views(enc.theta, dims)]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for step in range(1, 51):
        grad = rng.standard_normal(enc.theta.size)
        adam_step(enc.theta, grad, state, lr=5e-3)
        _adam_per_parameter(params, param_views(grad, dims), ms, vs, step, lr=5e-3)
    assert state.step == 50
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    for flat, per_param in ((enc.theta, params), (state.m, ms), (state.v, vs)):
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in per_param]))


def test_derived_rng_streams_are_stable_and_independent():
    a = derive_rng(42, "batches", 3, 0).standard_normal(5)
    b = derive_rng(42, "batches", 3, 0).standard_normal(5)
    c = derive_rng(42, "batches", 3, 1).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_a_bool_stream_tag_is_its_integer():
    for flag in (False, True):
        assert np.array_equal(derive_rng(5, "flag", flag).standard_normal(4),
                              derive_rng(5, "flag", int(flag)).standard_normal(4))


def _saved_bytes(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def test_write_arrays_writes_the_bytes_of_np_save(tmp_path):
    rng = derive_rng(6, "arrays")
    m = rng.standard_normal((5, 7))
    arrays = {"m": m, "v": rng.standard_normal(11), "cols": m[:, ::2], "ints": [1, 2, 3]}
    write_arrays(tmp_path / "a.json", {"k": [1, 2]}, arrays)
    assert (tmp_path / "a.json").read_text() == '{"k": [1, 2]}\n'
    for key, arr in arrays.items():
        expected = _saved_bytes(np.asarray(arr, dtype=float))
        assert array_path(tmp_path / "a.json", key).read_bytes() == expected


LABEL_KEYS = ("y", "y_cm", "y_im")


def _label_rows(n_rows, n):
    rng = derive_rng(n_rows, "rows")
    return [{key: rng.uniform(0.0, 1.0, size=n) for key in LABEL_KEYS} for _ in range(n_rows)]


def _files(directory):
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("n_rows", [1, 21])
def test_row_writer_writes_what_write_arrays_writes_for_the_stacked_rows(tmp_path, n_rows):
    n = 50
    rows = _label_rows(n_rows, n)
    head = {"noise_mask": [True, False]}
    for name in ("rows", "whole"):
        (tmp_path / name).mkdir()
    writer = ArrayRowWriter(tmp_path / "rows" / "labels.json", head, LABEL_KEYS, (n_rows, n))
    for row in rows:
        writer.append(row)
    writer.close()
    write_arrays(tmp_path / "whole" / "labels.json", head,
                 {key: np.stack([row[key] for row in rows]) for key in LABEL_KEYS})
    names = _files(tmp_path / "whole")
    assert _files(tmp_path / "rows") == names == sorted(
        ["labels.json", *(f"labels.{key}.npy" for key in LABEL_KEYS)])
    for name in names:
        assert (tmp_path / "rows" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
    for key in LABEL_KEYS:
        read = read_array(tmp_path / "rows" / f"labels.{key}.npy", (n_rows, n))
        assert np.array_equal(read[-1], rows[-1][key])


def _short_row(writer, n):
    writer.append({**_label_rows(1, n)[0], "y_cm": np.ones(n - 1)})


def _long_row(writer, n):
    writer.append({**_label_rows(1, n)[0], "y_im": np.ones(n + 1)})


def _row_after_the_last(writer, n):
    for row in _label_rows(4, n):
        writer.append(row)


def _early_close(writer, n):
    writer.append(_label_rows(1, n)[0])
    writer.close()


@pytest.mark.parametrize("misuse, message", [
    (_short_row, r"row 0 of 'y_cm' has shape \(49,\), expected \(50,\)"),
    (_long_row, r"row 0 of 'y_im' has shape \(51,\), expected \(50,\)"),
    (_row_after_the_last, "a row after the last of 3"),
    (_early_close, "closed after 1 of 3 rows"),
], ids=["short-row", "long-row", "row-after-the-last", "early-close"])
def test_row_writer_misuse_raises_naming_the_head(tmp_path, misuse, message):
    n = 50
    writer = ArrayRowWriter(tmp_path / "labels.json", {}, LABEL_KEYS, (3, n))
    assert len(_files(tmp_path)) == 4
    with pytest.raises(ValueError, match=f"labels.json: {message}"):
        misuse(writer, n)
