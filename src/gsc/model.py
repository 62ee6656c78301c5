"""Per-modality MLP encoders with unit-norm outputs, plus similarity matrices.

An encoder is a stack of affine layers with tanh between them and a final
row-wise L2 normalization, so all similarities are cosines: every nonzero
row comes back unit-norm, however small its norm. An embedding
is a plain float64 matrix of unit-norm rows: ``encode`` returns it and,
as a separate value, the ``ForwardCache`` of intermediate activations that
only the hand-derived backward pass in `losses` reads. ``encode`` is the
one place an embedding is made and the one place it is checked: a
non-finite one raises NumericalError naming the stage its caller gives, so
training, label estimation and evaluation each add only their location.

An encoder's parameters are one flat float64 vector ``theta`` laid out W0,
b0, W1, b1, ... (``param_layout``); its ``weights`` (d_in, d_out) and
``biases`` are C-contiguous views of it. An encoder is its weights, and
``theta`` may itself be a view: `trainer`'s ``Network`` keeps the image and
the text encoder's vectors end to end in one ``theta`` of its own, the
layout of `losses`' flat gradient and of the optimizer moments `trainer`
keeps, so one optimizer step covers both encoders. A checkpoint is one
encoder: ``save_encoder`` writes the head ``{dims}`` and ``theta`` as one
``.npy`` vector beside it, and ``load_encoder`` reads them back bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import (array_path, as_matrix, json_entry, read_array, read_json_object,
                       require_computed, require_finite, require_int, write_arrays)

__all__ = [
    "Encoder",
    "ForwardCache",
    "encode",
    "load_encoder",
    "param_layout",
    "param_views",
    "save_encoder",
    "sim_matrix",
]

NORM_FLOOR = 1e-12


@dataclass
class ForwardCache:
    """Intermediates retained by ``encode``: enough to rerun or backprop.

    ``inputs[l]`` is the activation entering affine layer l; ``norms`` are
    the row L2 norms of the last affine output, each measured exactly even
    when its squares underflow, and ``NORM_FLOOR`` for a zero row.
    """

    inputs: list
    norms: np.ndarray


def param_layout(dims: Sequence[int]) -> list:
    """(name, slice, shape) of W0, b0, W1, b1, ... in the flat vector of an
    encoder with layer widths ``dims``."""
    layout, offset = [], 0
    for l, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        w_end = offset + d_in * d_out
        layout += [(f"W{l}", slice(offset, w_end), (d_in, d_out)),
                   (f"b{l}", slice(w_end, w_end + d_out), (d_out,))]
        offset = w_end + d_out
    return layout


def param_views(flat: np.ndarray, dims: Sequence[int]) -> list:
    """Views W0, b0, W1, b1, ... of ``flat``, laid out by ``param_layout``."""
    return [flat[part].reshape(shape) for _, part, shape in param_layout(dims)]


@dataclass
class Encoder:
    """MLP parameters: layer widths ``dims`` and one flat vector ``theta``.

    ``weights[l]`` and ``biases[l]`` are views of ``theta``. A missing
    ``theta`` is zeros; a given one is kept, not copied, so it may be a view
    of a larger vector.
    """

    dims: list
    theta: np.ndarray | None = None

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError("encoder needs at least input and output dims")
        for d in self.dims:
            require_int(d, "encoder dim", 1)
        self.dims = [int(d) for d in self.dims]
        size = param_layout(self.dims)[-1][1].stop
        self.theta = np.zeros(size) if self.theta is None else self.theta
        if self.theta.shape != (size,):
            raise ValueError(f"theta has shape {self.theta.shape}, dims {self.dims} need ({size},)")
        views = param_views(self.theta, self.dims)
        self.weights, self.biases = views[0::2], views[1::2]

    @classmethod
    def init(cls, dims: Sequence[int], rng: np.random.Generator) -> "Encoder":
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init for every layer."""
        enc = cls(dims)
        for w, b in zip(enc.weights, enc.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        return enc


def encode(enc: Encoder, x, stage: str = "embeddings") -> tuple:
    """Forward pass: affine/tanh stack, then row-wise L2 normalization.

    Returns ``(matrix, cache)``: the unit-norm embedding rows and the
    ``ForwardCache`` that backprop reads. Each layer's bias and tanh, and the
    final division by the row norms, are applied in the memory of the
    layer's matmul output, so the cache's activations and the returned
    matrix are arrays of their own that `losses`' backward pass may
    overwrite. A caller that only reads the matrix takes ``encode(...)[0]``,
    so the cache is freed at once.

    The row norms are checked before the division: a NaN or inf in the pass
    and a squared norm that overflows each leave a norm non-finite, and
    raise NumericalError naming ``stage``. So every returned row is finite,
    and none is the zero row a division by an infinite norm would give.

    Every nonzero row comes back unit-norm. A row whose norm is below
    ``NORM_FLOOR`` (whose squares may underflow) is first multiplied by the
    power of two that brings its largest entry into [0.5, 1), which is exact
    (``numerics.scale_rows_pow2``), and divided by its scaled norm; the
    cache keeps the unscaled norm, the scaled one times that power, so the
    backward pass differentiates what was returned. A zero row stays zero,
    with ``NORM_FLOOR`` as its norm. Rows at or above the floor are divided
    by their norms as measured: scaling them would change no bit."""
    a = as_matrix(x, "encoder input")
    if a.shape[1] != enc.dims[0]:
        raise ValueError(f"input dim {a.shape[1]} != encoder input dim {enc.dims[0]}")
    inputs = []
    last = len(enc.weights) - 1
    for l, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        inputs.append(a)
        z = a @ w
        z += b
        if l < last:
            np.tanh(z, out=z)
        a = z
    # exactly np.linalg.norm(a, axis=1), without its extra B x d copy of a
    norms = np.sqrt(np.add.reduce(a * a, axis=1))
    require_computed(stage, norms)
    divisors = norms
    tiny = np.flatnonzero(norms < NORM_FLOOR)
    if tiny.size:  # measured scaled by a power of two, as numerics.scale_rows_pow2 does
        _, exponent = np.frexp(np.abs(a[tiny]).max(axis=1))
        a[tiny] = np.ldexp(a[tiny], -exponent[:, None])
        divisors = norms.copy()
        divisors[tiny] = np.maximum(np.sqrt(np.add.reduce(a[tiny] ** 2, axis=1)), NORM_FLOOR)
        norms[tiny] = np.ldexp(divisors[tiny], exponent)
    matrix = np.divide(a, divisors[:, None], out=a)
    return matrix, ForwardCache(inputs=inputs, norms=norms)


def sim_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise dot products of the rows of two embedding matrices; cosines
    when both are unit-norm."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}")
    return a @ b.T


def save_encoder(enc: Encoder, path) -> None:
    """Write the checkpoint head ``{dims}`` to ``path`` and ``theta`` beside
    it as ``<stem>.theta.npy`` (``numerics.write_arrays``)."""
    write_arrays(path, {"dims": enc.dims}, {"theta": enc.theta})


def load_encoder(path) -> Encoder:
    """The encoder ``save_encoder`` wrote to ``path``, bit for bit; a
    ValueError names ``path`` if its head is not a JSON object whose
    ``dims`` is a list of at least two positive integers, or if its theta
    file is not a finite float64 vector of the length ``dims`` need
    (``numerics.read_array``, which never unpickles)."""
    dims = json_entry(path, read_json_object(path), "dims", list)
    theta_path = array_path(path, "theta")
    try:
        enc = Encoder(dims)
        enc.theta[...] = read_array(theta_path, enc.theta.shape)
        require_finite(enc.theta, f"{theta_path.name}: theta")
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return enc
