"""Minimal dense numeric kernel: activations, the segment sum behind every
gather and scatter, inverted-dropout masks, Adagrad, a seeded counter-based
RNG, and tensor checkpoint I/O.

The kernels keep the dtype of the arrays they are given (a model's
parameters are float64 or float32, and masks and Adagrad accumulators follow
them); ``sigmoid`` always computes in float64. Adagrad's state is the caller's
accumulator array per tensor; its epsilon is the constant ``ADAGRAD_EPS``.
The training step's two per-step kernels allocate no large temporaries: a
dropout mask is drawn in chunks of ``_DRAW_CHUNK`` raw words straight into
the mask, and a dense Adagrad step works through its tensor in blocks of
``_ADAGRAD_BLOCK_BYTES``, each giving the bits of the whole-array formula.
The RNG is numpy's Philox (counter-based), so a given seed produces the same
stream on every platform. Checkpoints store every tensor as float64, an exact
upcast of float32.

Checkpoint format (binary, version ``TNSR1``):

    TNSR1\\n
    key=value\\n          # header lines, sorted by key
    \\n                   # blank line ends the header
    name ndim d1 d2 ...\\n
    <ndim-dims * 8 bytes of little-endian float64, C order>
    ...                   # one record per tensor, sorted by name
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

Array = np.ndarray


class ContractViolation(ValueError):
    """An operation was called with inputs that break its contract."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox generator; the one RNG used everywhere for reproducibility."""
    return np.random.Generator(np.random.Philox(seed))


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def sigmoid(s) -> Array:
    """Numerically stable logistic function, elementwise, in float64."""
    s = np.asarray(s, dtype=np.float64)
    e = np.exp(-np.abs(s))  # exp(-s) where s >= 0, else exp(s): it never overflows
    d = 1.0 + e
    return np.where(s >= 0, 1.0 / d, e / d)


_PER_COLUMN_MAX_COLS, _PER_COLUMN_MIN_ROWS = 16, 1024  # see segment_sum
_FLAT_MAX_COLS = 16  # the widest block segment_sum flattens at once


def segment_sum(values: Array, segment: Array, n: int) -> Array:
    """Per-segment sums of rows, (T,) or (T, D) -> (n,) or (n, D): row t adds
    to ``segment[t]``, and each segment's terms are added in row order,
    starting from 0.0. bincount sums in float64 (and gives integer zeros when
    there is nothing to sum), hence the cast back to the values' dtype.

    Three forms give the same bits, since each cell's sum depends only on
    its own column. A block of at most 16 columns and at least 1024 rows (a
    training batch's K-wide gather) runs one bincount per column, holding
    one float64 column at a time, as a 1-D input does. A block of at most
    16 columns and fewer rows runs one bincount over flattened (row, column)
    cells, holding a (T * D) int64 cell array and a float64 copy. A wider
    block (the aggregates' 40-128 columns) is summed in slices of 16
    columns, each in one of the first two forms, so it holds those arrays
    for one slice at a time. Per column took, against flattened, on 2 vCPUs
    in float32: 0.95x at K = 10 and 1024 rows, 0.24-0.33x at 3000-8000 rows,
    1.3-2.9x at serving's 8-512 rows and 1.4-2.9x at 40-128 columns."""
    if values.ndim == 1:
        return np.bincount(segment, weights=values, minlength=n).astype(values.dtype, copy=False)
    t, d = values.shape
    if d <= _PER_COLUMN_MAX_COLS and t >= _PER_COLUMN_MIN_ROWS:
        out = np.empty((n, d), dtype=values.dtype)
        for j in range(d):
            out[:, j] = np.bincount(segment, weights=values[:, j], minlength=n)
        return out
    if d > _FLAT_MAX_COLS:
        out = np.empty((n, d), dtype=values.dtype)
        for lo in range(0, d, _FLAT_MAX_COLS):
            out[:, lo : lo + _FLAT_MAX_COLS] = segment_sum(
                values[:, lo : lo + _FLAT_MAX_COLS], segment, n)
        return out
    cells = (segment * d)[:, None] + np.arange(d)
    out = np.bincount(cells.ravel(), weights=values.ravel(), minlength=n * d)
    return out.astype(values.dtype, copy=False).reshape(n, d)


_DRAW_CHUNK = 8192  # raw 64-bit words dropout_mask draws at a time


def dropout_mask(shape, p: float, rng: np.random.Generator, dtype) -> Array:
    """Inverted-dropout mask of the given dtype: entries are 0 with
    probability p, else 1/(1-p). Entry j is kept when the generator's j-th
    raw word w has ``w >> 11 >= ceil(p * 2**53)``, which is exactly
    ``u >= p`` for the float64 uniform ``(w >> 11) * 2**-53`` that
    ``rng.random`` makes of that word under ``make_rng``'s Philox. So the
    bits, and the generator's state after, are those of
    ``(rng.random(shape) >= p).astype(dtype) * (1 / (1 - p))`` in both
    precisions, while the words are drawn ``_DRAW_CHUNK`` at a time and
    compared straight into the mask."""
    if not 0.0 <= p < 1.0:
        raise ContractViolation(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(shape, dtype=dtype)
    threshold = math.ceil(p * 2**53)  # exact: scaling by a power of two rounds nothing
    mask = np.empty(shape, dtype=dtype)
    flat = mask.reshape(-1)
    for lo in range(0, flat.size, _DRAW_CHUNK):
        words = rng.bit_generator.random_raw(min(_DRAW_CHUNK, flat.size - lo))
        words >>= 11
        np.greater_equal(words, threshold, out=flat[lo : lo + len(words)])
    mask *= 1.0 / (1.0 - p)
    return mask


ADAGRAD_EPS = 1e-8  # added to sqrt(G) in every Adagrad denominator
_ADAGRAD_BLOCK_BYTES = 1 << 18  # the most each of adagrad_step's two temporaries holds


def adagrad_step(param: Array, grad: Array, accum: Array, lr: float) -> Array:
    """One in-place Adagrad update of param and its accumulator G (``accum``):
    G += g^2 and param -= lr * g / (sqrt(G) + ADAGRAD_EPS); returns param.
    It runs over blocks of leading-axis rows of at most
    ``_ADAGRAD_BLOCK_BYTES`` (at least one row): one temporary holds a
    block's g^2, then sqrt(G) + ADAGRAD_EPS, and a second its lr * g, then
    the quotient. ``grad`` is only read, and every element gets the
    formula's operations in its order, so the bits are the formula's."""
    if param.shape != grad.shape:
        raise ContractViolation(f"param {param.shape} vs grad {grad.shape}")
    rows = max(1, _ADAGRAD_BLOCK_BYTES // max(1, param[:1].nbytes))
    for lo in range(0, len(param), rows):
        g, a = grad[lo : lo + rows], accum[lo : lo + rows]
        denom = g * g
        a += denom
        np.sqrt(a, out=denom)
        denom += ADAGRAD_EPS
        step = g * lr
        step /= denom
        param[lo : lo + rows] -= step
    return param


def adagrad_step_rows(param: Array, rows: Array, row_grads: Array, accum: Array,
                      lr: float) -> None:
    """In-place Adagrad update restricted to the given (unique) rows of param and accum."""
    accum[rows] += row_grads * row_grads
    param[rows] -= lr * row_grads / (np.sqrt(accum[rows]) + ADAGRAD_EPS)


_CKPT_MAGIC = b"TNSR1\n"


def save_tensors(path, header: dict[str, str], tensors: dict[str, Array]) -> None:
    """Write tensors plus a string header in the TNSR1 binary format. The bytes
    go to a temporary file beside ``path`` that replaces it only once complete
    and synced to disk, and the directory is synced after the rename, so a
    failed save or a power loss leaves the earlier file at ``path`` or the
    whole new one. A header entry or a tensor name that would not read back
    is refused before anything is written."""
    for key, value in sorted(header.items()):
        if "\n" in key or "\n" in str(value) or "=" in key:
            raise ValueError(f"illegal header entry {key!r}")
    for name in tensors:
        if not name or " " in name or "\n" in name:
            raise ValueError(f"illegal tensor name {name!r}")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write("".join(f"{key}={header[key]}\n" for key in sorted(header)).encode("utf-8"))
            fh.write(b"\n")
            for name in sorted(tensors):
                arr = np.ascontiguousarray(tensors[name], dtype="<f8")
                dims = " ".join(str(d) for d in arr.shape)
                fh.write(f"{name} {arr.ndim} {dims}".rstrip().encode("utf-8") + b"\n")
                fh.write(arr.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)  # the rename itself survives a power loss
    finally:
        os.close(directory)


def load_tensors(path) -> tuple[dict[str, str], dict[str, Array]]:
    """Read back a TNSR1 file; inverse of save_tensors. A malformed line (a
    header line without ``=``, a record line whose dimensions are not exactly
    ``ndim`` non-negative integers, a line that is not UTF-8), a repeated
    header key or tensor name, or a cut file is a ``ValueError`` naming the
    path."""
    with open(path, "rb") as fh:
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a TNSR1 checkpoint")
        header: dict[str, str] = {}
        while line := _read_line(fh, path):
            key, sep, value = line.partition("=")
            if not sep or key in header:
                raise ValueError(f"{path}: bad header line {line!r}")
            header[key] = value
        size = os.fstat(fh.fileno()).st_size
        tensors: dict[str, Array] = {}
        while (meta := _read_line(fh, path, eof_ok=True)) is not None:
            name, *dims = meta.split(" ")
            if not (dims and all(d.isascii() and d.isdigit() for d in dims)
                    and int(dims[0]) == len(dims) - 1):
                raise ValueError(f"{path}: bad tensor record {meta!r}")
            if name in tensors:
                raise ValueError(f"{path}: repeated tensor {name!r}")
            shape = tuple(int(d) for d in dims[1:])
            nbytes = math.prod(shape) * 8
            if nbytes > size - fh.tell():  # refused before a read of that size
                raise ValueError(f"{path}: truncated tensor {name!r}")
            tensors[name] = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(shape).copy()
    return header, tensors


def _read_line(fh, path, eof_ok: bool = False) -> str | None:
    line = fh.readline()
    if not line.endswith(b"\n"):
        if eof_ok and not line:
            return None
        raise ValueError(f"{path}: unexpected end of checkpoint file")
    try:
        return line[:-1].decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: line {line[:-1]!r} is not UTF-8") from None
