"""Deterministic numerical primitives shared across the package.

Plain numpy throughout: argument checks, the softmax kernels, an in-place
Adam step over one flat parameter vector (a network's ``theta`` in
`trainer`; the moments are an ``AdamState`` that `trainer` owns), and
helpers for deriving independent seeded random generators. No
GPU, no autodiff; gradients are hand-derived in `losses`. Each argument
condition of the package's public functions is checked by one function here
(``as_matrix``, ``as_vector``, ``require_cosine_temperature``,
``require_int``, ``require_positive``, ``require_real``,
``require_unit_interval``, ``require_unit_rows``). Every JSON input file is
read by ``read_json_object`` and its entries are taken by ``json_entry``;
their errors name the file and the key. Every float array file is written
by ``write_arrays``, a JSON head plus one ``.npy`` file per array beside
it (``array_path``) in the bytes ``np.save`` writes, or row by row in the
same bytes by ``ArrayRowWriter``, and read back by ``read_array``, which
never unpickles and accepts only float64 of the expected shape. Neither
writer removes a file it wrote; what a failed command leaves is decided by
its caller (`cli.staged`).
``softmax_into`` is the max-shifted softmax kernel of a general matrix;
``exp_cosines_into`` is the kernel of a cosine matrix, whose known bound
lets one exp give both its row and its column softmax.
``bxb_view`` cuts a batch's one B x B buffer from a run's flat work array
(`losses` says why a run keeps one), and ``ROW_BLOCK`` is the row count of
the small temporary through which a B x B or P x P matrix is updated.
``scale_rows_pow2`` scales each row by a power of two so that its squares
neither underflow nor overflow, and returns the exponents with the rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "AdamState",
    "ArrayRowWriter",
    "NumericalError",
    "adam_step",
    "array_path",
    "as_matrix",
    "as_vector",
    "bxb_view",
    "derive_rng",
    "exp_cosines_into",
    "json_entry",
    "read_array",
    "read_json_object",
    "require_computed",
    "require_cosine_temperature",
    "require_finite",
    "require_int",
    "require_positive",
    "require_real",
    "require_unit_interval",
    "require_unit_rows",
    "scale_rows_pow2",
    "softmax_into",
    "softmax_rows",
    "write_arrays",
]


class NumericalError(RuntimeError):
    """A computation produced non-finite values; the message names the stage."""


def require_finite(arr, name: str = "array") -> np.ndarray:
    """Return ``arr`` as a float ndarray, raising ValueError on NaN/inf."""
    out = np.asarray(arr, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_matrix(m, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Validate a finite 2-D float matrix, square if ``square``."""
    out = np.asarray(m, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if square and out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got {out.shape}")
    return require_finite(out, name)


def as_vector(v, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate a finite float vector (input flattened) of length ``n``, if given."""
    out = require_finite(np.asarray(v, dtype=float).ravel(), name)
    if n is not None and out.shape[0] != n:
        raise ValueError(f"{name} has length {out.shape[0]}, expected {n}")
    return out


def require_real(x, name: str) -> None:
    """Raise ValueError unless ``x`` is a real number; a bool, None or a
    string is not; NaN and inf are."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {x!r}")


def require_positive(x, name: str, allow_zero: bool = False) -> None:
    """Raise ValueError unless ``x`` is a real number, finite and > 0 (>= 0
    if ``allow_zero``)."""
    require_real(x, name)
    if not (np.isfinite(x) and (x >= 0 if allow_zero else x > 0)):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be {bound} and finite, got {x}")


def require_int(x, name: str, minimum: int | None = None) -> None:
    """Raise ValueError unless ``x`` is an integer, not a bool, and >= ``minimum``
    when one is given."""
    if (isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer))
            or (minimum is not None and x < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {x!r}")


def require_unit_interval(x, name: str) -> None:
    """Raise ValueError unless ``x`` is a real number in [0, 1]; NaN is not."""
    require_real(x, name)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")


def read_json_object(path) -> dict:
    """The JSON object in the file at ``path``; a ValueError names ``path``
    if the file cannot be read, its text is not JSON or its top level is not
    an object (a long top level is shown cut short)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:  # missing, a directory, not readable
        raise ValueError(f"{path}: {err.strerror or err}") from None
    except ValueError as err:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object, got {reprlib.repr(doc)}")
    return doc


_JSON_KINDS = {dict: "object", list: "list", str: "string", float: "number", type(None): "null"}


def _is_json_kind(value, kind: type) -> bool:
    if kind is float:  # a JSON number a double holds: not a bool, NaN or inf
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def json_entry(where, table: dict, key: str, kind):
    """``table[key]`` of the JSON file ``where``; a ValueError names ``where``
    and the key if it is missing or not of ``kind``, one of dict, list, str,
    float (a finite number) and ``type(None)`` (null), or a tuple of them."""
    if key not in table:
        raise ValueError(f"{where}: missing key {key!r}")
    value = table[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not any(_is_json_kind(value, k) for k in kinds):
        what = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise ValueError(f"{where}: {key!r} must be a JSON {what}, got {reprlib.repr(value)}")
    return value


def array_path(path, key: str) -> Path:
    """``<stem>.<key>.npy``, the file of array ``key`` beside the head ``<stem>.json``."""
    return Path(path).with_suffix(f".{key}.npy")


_FLOAT64_DESCR = np.lib.format.dtype_to_descr(np.dtype(float))


def _write_head(path, head: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, sort_keys=True) + "\n")


def _open_npy(path, shape: tuple):
    """``path`` opened for writing after the header ``np.save`` writes for a
    C-order float64 array of ``shape``; the array's bytes, written in C order
    with ``tofile``, complete the file."""
    fh = open(path, "wb")
    np.lib.format.write_array_header_1_0(fh, {"descr": _FLOAT64_DESCR, "fortran_order": False,
                                              "shape": shape})
    return fh


def write_arrays(path, head: dict, arrays: dict) -> None:
    """Write ``head`` as one line of JSON, keys sorted, to ``path`` and each
    array of ``arrays``, as float64 in C order, beside it (``array_path``):
    the bytes ``np.save`` writes for any array that is not Fortran-ordered.
    The same arguments write the same bytes."""
    _write_head(path, head)
    for key, arr in arrays.items():
        arr = np.asarray(arr, dtype=float)
        with _open_npy(array_path(path, key), arr.shape) as fh:
            arr.tofile(fh)


class ArrayRowWriter:
    """The files ``write_arrays(path, head, arrays)`` writes, for arrays of
    ``shape`` (rows, n) whose rows arrive one at a time, so that no row is
    kept once written.

    Opening writes ``head`` and each key's ``.npy`` header for ``shape``;
    ``append`` adds the next row of every array, given as {key: n-vector},
    to the end of its file, which is open only during the call. ``close``
    after ``shape[0]`` rows leaves what ``write_arrays`` writes for the
    stacked rows. A row of another length, a row after the last and
    ``close`` before the last row raise ValueError naming the head; the
    files written so far stay, and removing them is the caller's part.
    """

    def __init__(self, path, head: dict, keys, shape: tuple):
        self.path = Path(path)
        self.keys = tuple(keys)
        self.shape = tuple(int(s) for s in shape)  # a numpy integer would print into the header
        self.rows = 0
        _write_head(self.path, head)
        for key in self.keys:
            _open_npy(array_path(self.path, key), self.shape).close()

    def append(self, rows: dict) -> None:
        if self.rows == self.shape[0]:
            raise ValueError(f"{self.path.name}: a row after the last of {self.shape[0]}")
        rows = {key: np.asarray(rows[key], dtype=float) for key in self.keys}
        for key, row in rows.items():
            if row.shape != self.shape[1:]:
                raise ValueError(f"{self.path.name}: row {self.rows} of {key!r} has shape "
                                 f"{row.shape}, expected {self.shape[1:]}")
        for key, row in rows.items():
            with open(array_path(self.path, key), "ab") as fh:
                row.tofile(fh)
        self.rows += 1

    def close(self) -> None:
        if self.rows < self.shape[0]:
            raise ValueError(f"{self.path.name}: closed after {self.rows} of {self.shape[0]} rows")


def read_array(path, shape: tuple) -> np.ndarray:
    """The float64 array of ``shape`` that ``np.save`` wrote to ``path``; a
    ValueError names the file if it cannot be read, is not an ``.npy`` file,
    holds another dtype or shape, or has bytes after the array. An object
    array is refused unread, never unpickled."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
            extra = fh.read(1)
    except OSError as err:
        raise ValueError(f"{path.name}: {err.strerror or err}") from None
    except ValueError as err:
        raise ValueError(f"{path.name}: {err}") from None
    kind = "matrix" if len(shape) == 2 else "vector"
    if arr.dtype != np.float64 or arr.shape != shape:
        raise ValueError(f"{path.name}: expected a float64 {kind} of shape {shape}, "
                         f"got {arr.dtype} of shape {arr.shape}")
    if extra:
        raise ValueError(f"{path.name}: extra data after the {kind}")
    return arr


# A cosine s lies in [-1, 1], so (s - 1) / tau lies in [-2 / tau, 0]. Its exp
# stays a normal double (never 0 or subnormal) while exp(-2 / tau) does, that
# is for tau >= 2 / -ln(smallest normal double), about 0.00282.
MIN_COSINE_TEMPERATURE = 2.0 / -math.log(np.finfo(float).tiny)
UNIT_ROW_SLACK = 1e-9  # squared row norms this far above 1 are rounding


def require_cosine_temperature(x, name: str) -> None:
    """Raise ValueError unless ``x`` is a real number no smaller than
    ``MIN_COSINE_TEMPERATURE``, the smallest temperature ``exp_cosines_into``
    takes."""
    require_positive(x, name)
    if x < MIN_COSINE_TEMPERATURE:
        raise ValueError(f"{name} must be at least {MIN_COSINE_TEMPERATURE:.6g}, so that "
                         f"exp(-2 / {name}) is a normal double, got {x}")


def require_unit_rows(m: np.ndarray, name: str) -> None:
    """Raise ValueError naming the row if a row of the matrix ``m`` has norm
    above 1 beyond rounding."""
    sq = np.einsum("ij,ij->i", m, m)
    if sq.size and sq.max() > 1.0 + UNIT_ROW_SLACK:
        row = int(np.argmax(sq))
        raise ValueError(f"{name} row {row} has norm {math.sqrt(sq[row]):.6g}; "
                         "rows of norm at most 1 are needed")


def require_computed(stage: str, *arrays) -> None:
    """Raise NumericalError naming ``stage`` if any array holds NaN or inf."""
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericalError(f"non-finite values in {stage}")


def softmax_into(z: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Softmax of ``z`` along ``axis`` into ``out`` (which may be ``z``).

    Returns the log normalizer lse (``axis`` dropped), so a log-softmax entry
    is z - lse; both come from one max-shifted exp, so a loss and its
    gradient see the same normalizers, and entries of magnitude 1e4 are safe.
    """
    shift = z.max(axis=axis, keepdims=True)
    np.subtract(z, shift, out=out)
    np.exp(out, out=out)
    total = out.sum(axis=axis, keepdims=True)
    out /= total
    return (shift + np.log(total)).ravel()


def exp_cosines_into(e_a: np.ndarray, e_b: np.ndarray, tau1: float, out: np.ndarray):
    """E = exp((e_a e_b^T - 1) / tau1) into the (B, B) array ``out``.

    For rows of norm at most 1 the exponent lies in [-2 / tau1, 0], so one
    known shift serves every row and every column, where a max-shifted
    softmax needs one exp per direction: row i's softmax of e_a e_b^T / tau1
    is E[i] / rows[i] and column j's is E[:, j] / cols[j], and the
    log-softmax diagonals are diag - log(rows) and diag - log(cols). Returns
    (diag, rows, cols), diag the exponent's diagonal. The caller checks
    ``tau1`` (``require_cosine_temperature``) and the rows; neither is
    checked here.
    """
    np.matmul(e_a / tau1, e_b.T, out=out)
    out -= 1.0 / tau1
    diag = out.diagonal().copy()
    np.exp(out, out=out)
    return diag, out.sum(axis=1), out.sum(axis=0)


def softmax_rows(m, tau: float) -> np.ndarray:
    """Row-wise softmax of ``m / tau``, max-subtracted per row for stability,
    in a fresh array laid out like ``m``."""
    require_positive(tau, "temperature")
    z = as_matrix(m, "softmax input") / tau
    softmax_into(z, 1, z)
    return z


# rows per pass of a kernel that updates a B x B or P x P matrix a block of
# rows at a time through one small temporary: a 32-row float64 block stays
# below glibc's initial 128 KiB mmap threshold up to 512 columns
ROW_BLOCK = 32


def bxb_view(work: np.ndarray | None, b: int) -> np.ndarray:
    """A C-contiguous (b, b) float64 view of the first b^2 entries of the
    flat array ``work``, which is allocated here when None."""
    if work is None:
        work = np.empty(b * b)
    if work.size < b * b:
        raise ValueError(f"work buffer has {work.size} entries, a batch of {b} needs {b * b}")
    return work[:b * b].reshape(b, b)


def scale_rows_pow2(m: np.ndarray) -> tuple:
    """``(scaled, exponent)``: ``m`` with each row (each vector, for a 1-D
    ``m``) multiplied by the power of two that brings its largest magnitude
    into [0.5, 1), and the integer exponents, one per row with the last axis
    kept, so that ``np.ldexp(scaled, exponent)`` is ``m``.

    A power-of-two factor is exact, so a quotient of products of the scaled
    entries has every bit of the unscaled one wherever that one neither
    underflows nor overflows; a row of 1e-170 entries, whose squares
    underflow to 0, can be measured scaled. A zero row stays zero, with
    exponent 0.
    """
    _, exponent = np.frexp(np.abs(m).max(axis=-1, keepdims=True))
    return np.ldexp(m, -exponent), exponent


ADAM_BETA1 = 0.9  # decay of the first moment
ADAM_BETA2 = 0.999  # decay of the second moment
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment vectors and step counter for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(theta: np.ndarray, grad, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, applied to ``theta`` in place.

    ``theta``, ``grad`` and the state's moments share one flat layout;
    single writer per parameter vector. A second moment that overflows (a
    gradient entry above about 1e154 squares to inf, which would turn every
    later update of that entry into 0) raises NumericalError.
    """
    require_positive(lr, "learning rate")
    if not theta.shape == np.shape(grad) == state.m.shape:
        raise ValueError(f"shape mismatch: theta {theta.shape}, grad {np.shape(grad)}, "
                         f"moments {state.m.shape}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (grad * grad)
    require_computed("the Adam second moment", state.v)
    theta -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)


def _tag_word(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Independent generator keyed by (seed, tags).

    Streams for distinct tag tuples never interact, so adding a consumer
    elsewhere cannot shift an existing stream; this is what makes batch
    schedules, initializations, and noise draws individually reproducible.
    """
    key = tuple(_tag_word(t) for t in tags)
    seq = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key)
    return np.random.default_rng(seq)
