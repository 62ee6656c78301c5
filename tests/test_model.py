import json

import numpy as np
import pytest

from gsc.model import (Encoder, encode, load_encoder, param_layout, param_views, save_encoder,
                       sim_matrix)
from gsc.numerics import NumericalError, derive_rng

N_CASES = 100


def _identity_encoder(d):
    return Encoder([d, d], np.concatenate([np.eye(d).ravel(), np.zeros(d)]))


def test_encode_identity_layer_preserves_unit_norm_input():
    enc = _identity_encoder(4)
    x = np.array([[0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0]])
    out = encode(enc, x)[0]
    assert np.max(np.abs(out - x)) < 1e-15


def test_encode_rows_are_unit_norm():
    rng = derive_rng(0, "model-norms")
    for _ in range(N_CASES):
        d_in = int(rng.integers(2, 9))
        d_hidden = int(rng.integers(2, 9))
        d_out = int(rng.integers(2, 6))
        enc = Encoder.init([d_in, d_hidden, d_out], rng)
        x = rng.standard_normal((int(rng.integers(1, 7)), d_in)) * float(rng.uniform(0.1, 5.0))
        out = encode(enc, x)[0]
        norms = np.linalg.norm(out, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_encode_matches_scripted_forward_oracle():
    # independent re-implementation with explicit loops
    rng = derive_rng(1, "model-oracle")
    enc = Encoder.init([5, 7, 3], rng)
    x = rng.standard_normal((4, 5))
    out = encode(enc, x)[0]

    expected = np.zeros((4, 3))
    for r in range(4):
        h = np.zeros(7)
        for j in range(7):
            acc = enc.biases[0][j]
            for i in range(5):
                acc += x[r, i] * enc.weights[0][i, j]
            h[j] = np.tanh(acc)
        u = np.zeros(3)
        for j in range(3):
            acc = enc.biases[1][j]
            for i in range(7):
                acc += h[i] * enc.weights[1][i, j]
            u[j] = acc
        expected[r] = u / np.sqrt(np.sum(u * u))
    assert np.max(np.abs(out - expected)) < 1e-10


def test_encode_deterministic_and_dim_checked():
    rng = derive_rng(2, "model-det")
    enc = Encoder.init([4, 3], rng)
    x = rng.standard_normal((5, 4))
    a = encode(enc, x)[0]
    b = encode(enc, x)[0]
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        encode(enc, rng.standard_normal((5, 6)))



@pytest.mark.parametrize("scale", [1e200, np.inf, np.nan], ids=["overflow", "inf", "nan"])
def test_encode_raises_naming_its_stage_when_a_row_norm_is_not_finite(scale):
    # at 1e200 every entry is finite but its square overflows, so the row norm
    # is inf; a division by it would return rows of zeros
    rng = derive_rng(5, "model-nonfinite")
    enc = Encoder.init([4, 6, 3], rng)
    enc.weights[-1][...] = scale
    x = rng.standard_normal((5, 4))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="^non-finite values in text embeddings$"):
            encode(enc, x, "text embeddings")
        with pytest.raises(NumericalError, match="^non-finite values in embeddings$"):
            encode(enc, x)


def _last_layer_scaled(scale):
    """A [8, 6, 4] encoder whose last affine layer is multiplied by ``scale``,
    and a batch of 5 inputs."""
    rng = derive_rng(8, "model-tiny-rows")
    enc = Encoder.init([8, 6, 4], rng)
    enc.weights[-1][...] *= scale
    enc.biases[-1][...] *= scale
    return enc, rng.standard_normal((5, 8))


@pytest.mark.parametrize("scale", [1e-20, 1e-170])
def test_encode_returns_unit_rows_below_the_norm_floor(scale):
    # row norms of about 1e-20 and 1e-170, below NORM_FLOOR; at 1e-170 the
    # squares of the entries underflow to 0
    enc, x = _last_layer_scaled(scale)
    out, cache = encode(enc, x)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-15
    assert np.all((cache.norms > 0.1 * scale) & (cache.norms < 10.0 * scale))


def test_encode_returns_zero_rows_for_an_all_zero_last_layer():
    enc, x = _last_layer_scaled(0.0)
    out, cache = encode(enc, x)
    assert np.array_equal(out, np.zeros((5, 4)))
    assert np.array_equal(cache.norms, np.full(5, 1e-12))


def test_forward_cache_round_trip():
    rng = derive_rng(3, "model-cache")
    enc = Encoder.init([6, 5, 4], rng)
    x = rng.standard_normal((3, 6))
    out, cache = encode(enc, x)
    again = encode(enc, cache.inputs[0])[0]
    assert np.array_equal(again, out)


def test_sim_matrix_orthonormal_self_is_identity():
    e = np.eye(3)
    s = sim_matrix(e, e)
    assert np.array_equal(s, np.eye(3))


def test_sim_matrix_transpose_symmetry_and_unit_diag():
    rng = derive_rng(4, "model-sim")
    for _ in range(N_CASES):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((n1, d))
        b = rng.standard_normal((n2, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        s = sim_matrix(a, b)
        assert np.array_equal(s.T, sim_matrix(b, a))
        assert np.all(np.abs(s) <= 1.0 + 1e-12)
        diag = np.diag(sim_matrix(a, a))
        assert np.max(np.abs(diag - 1.0)) < 1e-6


def test_sim_matrix_hand_computed_2x2():
    a = np.array([[1.0, 0.0], [0.6, 0.8]])
    b = np.array([[0.0, 1.0], [0.8, 0.6]])
    s = sim_matrix(a, b)
    # direct dot products
    expected = np.array([[0.0, 0.8], [0.8, 0.6 * 0.8 + 0.8 * 0.6]])
    assert np.max(np.abs(s - expected)) < 1e-15
    with pytest.raises(ValueError):
        sim_matrix(a, np.ones((2, 3)))


def test_encoder_checkpoint_round_trip(tmp_path):
    rng = derive_rng(5, "model-ckpt")
    enc = Encoder.init([4, 6, 3], rng)
    enc.theta[0] = 5e-324  # the smallest subnormal survives too
    path = tmp_path / "ckpt.json"
    save_encoder(enc, path)
    back = load_encoder(path)
    assert back.dims == enc.dims
    assert back.theta.dtype == np.float64 and back.theta.tobytes() == enc.theta.tobytes()
    for w1, w2 in zip(back.weights, enc.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(back.biases, enc.biases):
        assert np.array_equal(b1, b2)
    save_encoder(back, tmp_path / "again.json")
    for suffix in (".json", ".theta.npy"):
        assert ((tmp_path / f"again{suffix}").read_bytes()
                == (tmp_path / f"ckpt{suffix}").read_bytes())


def test_encoder_init_bounds_and_validation():
    rng = derive_rng(6, "model-init")
    enc = Encoder.init([9, 4], rng)
    assert np.max(np.abs(enc.weights[0])) <= 1.0 / 3.0
    with pytest.raises(ValueError):
        Encoder.init([5], rng)


def test_parameters_are_views_of_one_flat_vector():
    dims = [4, 6, 3]
    enc = Encoder.init(dims, derive_rng(7, "model-flat"))
    assert enc.theta.shape == (4 * 6 + 6 + 6 * 3 + 3,)
    assert param_layout(dims) == [("W0", slice(0, 24), (4, 6)), ("b0", slice(24, 30), (6,)),
                                  ("W1", slice(30, 48), (6, 3)), ("b1", slice(48, 51), (3,))]
    views = [enc.weights[0], enc.biases[0], enc.weights[1], enc.biases[1]]
    assert all(v.flags.c_contiguous and np.shares_memory(v, enc.theta) for v in views)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), enc.theta)
    grad = np.arange(enc.theta.size, dtype=float)
    assert [v.shape for v in param_views(grad, dims)] == [v.shape for v in views]
    assert param_views(grad, dims)[2][0, 0] == 30.0
    enc.theta[24] = 5.0
    assert enc.biases[0][0] == 5.0


def test_checkpoint_is_dims_and_the_flat_theta(tmp_path):
    dims = [3, 5, 2]
    enc = Encoder.init(dims, derive_rng(9, "model-ckpt-layout"))
    path = tmp_path / "ckpt_A_img.json"
    save_encoder(enc, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt_A_img.json",
                                                          "ckpt_A_img.theta.npy"]
    assert json.loads(path.read_text()) == {"dims": dims}
    # theta is a plain .npy vector laid out W0, b0, W1, b1, as param_layout says
    theta = np.load(tmp_path / "ckpt_A_img.theta.npy", allow_pickle=False)
    assert np.array_equal(theta, enc.theta) and theta.shape == (3 * 5 + 5 + 5 * 2 + 2,)
    assert np.array_equal(theta[15:20], enc.biases[0])
    with pytest.raises(ValueError):
        Encoder(dims, np.zeros(3 * 5 + 5 + 5 * 2 + 2 + 1))
