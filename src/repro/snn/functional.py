"""Raw (non-autograd) numeric kernels used by the spiking layers.

The SNN simulation never needs gradients, so its layers operate directly on
numpy arrays with the same im2col machinery the autograd convolution uses.
Keeping these thin wrappers here avoids building an autograd tape during the
(long) time-stepped simulations.

Every kernel accepts an optional ``workspace``
(:class:`~repro.runtime.BufferPool`): when given, the im2col unfold and the
kernel's output live in reused scratch buffers and the matrix product runs
through ``np.matmul(..., out=...)``, so repeated same-shape calls — one per
simulation timestep — allocate nothing.  Without a workspace the kernels are
byte-for-byte the historical allocation-per-call implementations (including
the einsum contraction, whose BLAS blocking the ``train64`` golden suites
pin).  All kernels preserve their operands' dtype; nothing in this module
names a floating dtype.

Quantized (``infer8``) execution reuses these same kernels through the
optional ``accum_dtype`` parameter: spike operands arrive as int8 and cross
into the policy's float accumulator lane in the pass that already reads
them — the convolution's unfold writes int8 spikes straight into float
columns, the pooling sums its taps in int8 (each sum is at most ``kh * kw``
ones) and casts once — weights/biases arrive *pre-cast* by the calling layer
(cached once per layer), and reductions pin their accumulator dtype so
nothing silently promotes to float64.  Every value in the accumulator is an
exact small integer, so the float lanes carry integer semantics bit-for-bit.
That exactness also frees the summation order: stride-1 spike convolutions
run :func:`conv2d_spikes_raw`, whose unfold copies whole padded rows instead
of ``out_w``-float runs and still matches :func:`conv2d_raw` bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..autograd.conv import conv_output_shape, im2col
from ..runtime import BufferPool

__all__ = [
    "conv2d_raw",
    "conv2d_spikes_raw",
    "linear_raw",
    "avg_pool2d_raw",
    "global_avg_pool2d_raw",
]

IntPair = Union[int, Tuple[int, int]]

#: Widest input map that :func:`conv2d_spikes_raw` serves.  Up to 16 floats
#: (one cache line) im2col's per-run copy overhead dominates and the row
#: unfold wins 1.1–1.6× per call; from 24 px on its extra ``Wp - out_w``
#: columns per row cost more than that saves (0.6–1.0× at 24–64 px).
ROW_UNFOLD_MAX_WIDTH = 16


def conv2d_raw(
    inputs: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    workspace: Optional[BufferPool] = None,
    accum_dtype=None,
) -> np.ndarray:
    """Plain-numpy 2-D convolution (NCHW inputs, OIHW weights).

    With a ``workspace`` the unfold and the output reuse scratch buffers and
    the contraction is one batched ``matmul`` call into a preallocated
    output; the result is overwritten by the next same-shape call.

    ``accum_dtype`` (quantized execution) unfolds the spikes straight into
    accumulator-dtype columns and routes the contraction through ``matmul``
    — integer einsum has no BLAS path and the float einsum's blocking is
    pinned only for the unquantized profiles.  ``weight``/``bias`` must
    already carry the accumulator dtype (the calling layer caches that cast).
    """

    n, c_in, h, w = inputs.shape
    c_out = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    out_h, out_w = conv_output_shape(h, w, (kh, kw), stride, padding)
    cols = im2col(inputs, (kh, kw), stride, padding, workspace=workspace, dtype=accum_dtype)
    w_mat = weight.reshape(c_out, -1)
    if workspace is None and accum_dtype is not None:
        out = np.matmul(w_mat, cols).reshape(n, c_out, out_h, out_w)
    elif workspace is None:
        out = np.einsum("ok,nkl->nol", w_mat, cols, optimize=True).reshape(n, c_out, out_h, out_w)
    else:
        flat = workspace.take("conv_out", (n, c_out, out_h * out_w), cols.dtype)
        # numpy's matmul loop hands each sample's 2-D slice to BLAS with the
        # shapes a per-sample loop would use, so one call matches its bits.
        np.matmul(w_mat, cols, out=flat)
        out = flat.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out += bias.reshape(1, c_out, 1, 1)
    return out


def conv2d_spikes_raw(
    spikes: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    padding: IntPair,
    workspace: BufferPool,
) -> np.ndarray:
    """Stride-1 convolution of binary int spikes with int8-grid float weights.

    Bit-identical to :func:`conv2d_raw` with ``accum_dtype``: every partial
    sum is an integer of magnitude at most ``127 * c_in * kh * kw``, which the
    caller checks is below 2**24, so every float32 add is exact whatever the
    summation order or GEMM shape.  That buys a cheaper unfold: the spikes
    are cast once into zero-padded rows ``Wp = w + 2 * pw`` wide plus a
    ``kw - 1`` tail, so each tap's ``out_h`` output rows are one contiguous
    run of ``out_h * Wp`` floats.  The GEMM computes all ``Wp`` columns per
    row (the last ``kw - 1`` wrap into the next row) and the valid ``out_w``
    are copied out into a workspace slot, overwritten by the next call.
    """

    n, c_in, h, w = spikes.shape
    c_out, _, kh, kw = weight.shape
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    hp, wp = h + 2 * ph, w + 2 * pw
    out_h, out_w = conv_output_shape(h, w, (kh, kw), 1, (ph, pw))
    run = out_h * wp
    dtype = weight.dtype
    # The border and the tail are zeroed at allocation and never written.
    padded = workspace.take("rows_padded", (n, c_in, hp * wp + kw - 1), dtype, zero=True)
    padded[:, :, : hp * wp].reshape(n, c_in, hp, wp)[:, :, ph: ph + h, pw: pw + w] = spikes
    sn, sc, item = padded.strides
    taps = np.lib.stride_tricks.as_strided(
        padded, shape=(n, c_in, kh, kw, run), strides=(sn, sc, wp * item, item, item), writeable=False
    )
    cols = workspace.take("rows_columns", (n, c_in * kh * kw, run), dtype)
    np.copyto(cols.reshape(taps.shape), taps)
    full = workspace.take("rows_out", (n, c_out, run), dtype)
    np.matmul(weight.reshape(c_out, -1), cols, out=full)
    if bias is not None:
        # On the contiguous GEMM output: a broadcast add into the strided
        # valid columns would make numpy buffer the operands every call.
        full += bias.reshape(1, c_out, 1)
    out = workspace.take("conv_out", (n, c_out, out_h, out_w), dtype)
    np.copyto(out, full.reshape(n, c_out, out_h, wp)[..., :out_w])
    return out


def linear_raw(
    inputs: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    workspace: Optional[BufferPool] = None,
    accum_dtype=None,
) -> np.ndarray:
    """Plain-numpy affine map with ``(out_features, in_features)`` weights.

    ``accum_dtype`` casts integer spike inputs into the accumulator lane;
    ``weight``/``bias`` must already carry it (the calling layer caches that cast).
    """

    if accum_dtype is not None and inputs.dtype != accum_dtype:
        if workspace is None:
            inputs = inputs.astype(accum_dtype)
        else:
            acc = workspace.take("linear_in_acc", inputs.shape, accum_dtype)
            np.copyto(acc, inputs)
            inputs = acc
    if workspace is None:
        out = inputs @ weight.T
    else:
        out = workspace.take("linear_out", (inputs.shape[0], weight.shape[0]), inputs.dtype)
        np.matmul(inputs, weight.T, out=out)
    if bias is not None:
        out += bias
    return out


def avg_pool2d_raw(
    inputs: np.ndarray,
    kernel_size: IntPair,
    stride: Optional[IntPair] = None,
    workspace: Optional[BufferPool] = None,
    accum_dtype=None,
) -> np.ndarray:
    """Plain-numpy average pooling over NCHW inputs.

    Pooling is the float-fallback path of quantized execution: int8 spikes
    come in, fractional window means go out in ``accum_dtype`` (pinning the
    reduction dtype — numpy's default would promote integer input to
    float64), and the downstream IF pool re-binarises them.

    With a ``workspace`` the kernel adds strided tap views of the input
    directly, so it matches the unfold-then-sum reference bit for bit
    without building the columns: float taps in im2col's order, integer
    inputs — which must be binary spikes — exactly in the spike dtype, cast
    once.
    """

    if isinstance(kernel_size, int):
        kernel_size = (kernel_size, kernel_size)
    stride = kernel_size if stride is None else stride
    n, c, h, w = inputs.shape
    kh, kw = kernel_size
    out_h, out_w = conv_output_shape(h, w, (kh, kw), stride, 0)
    if workspace is None:
        cols = im2col(inputs, (kh, kw), stride, 0).reshape(n, c, kh * kw, out_h * out_w)
        if accum_dtype is not None:
            return cols.mean(axis=2, dtype=accum_dtype).reshape(n, c, out_h, out_w)
        return cols.mean(axis=2).reshape(n, c, out_h, out_w)
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    out = workspace.take(
        "pool_out", (n, c, out_h, out_w), inputs.dtype if accum_dtype is None else accum_dtype
    )
    # Accumulate the kernel taps with plain strided adds: `np.mean(axis=...,
    # out=...)` routes through the buffered reduce machinery and allocates a
    # scratch block every call.
    if inputs.dtype.kind == "f":
        # Float sums round, so the taps go in im2col's order.  Copy the first
        # and add the rest in place: an add of two strided views makes numpy
        # buffer both operands (8192 elements each) every call.
        np.copyto(out, inputs[:, :, : sh * out_h: sh, : sw * out_w: sw])
        for tap in range(1, kh * kw):
            i, j = divmod(tap, kw)
            out += inputs[:, :, i: i + sh * out_h: sh, j: j + sw * out_w: sw]
        out *= 1.0 / (kh * kw)
        return out
    # Binary spikes sum exactly in the spike dtype, in any order: whole rows
    # first (contiguous adds), then the column taps of the row sums, and one
    # cast-and-scale pass into the output.
    rows = _sum_views(
        workspace.take("pool_rows", (n, c, out_h, w), inputs.dtype),
        [inputs[:, :, i: i + sh * out_h: sh] for i in range(kh)],
    )
    taps = _sum_views(
        workspace.take("pool_taps", out.shape, inputs.dtype),
        [rows[..., j: j + sw * out_w: sw] for j in range(kw)],
    )
    np.multiply(taps, 1.0 / (kh * kw), out=out, dtype=out.dtype)
    return out


def _sum_views(out: np.ndarray, views) -> np.ndarray:
    """``out = views[0] + views[1] + ...`` without a temporary."""

    if len(views) == 1:
        np.copyto(out, views[0])
        return out
    np.add(views[0], views[1], out=out)
    for view in views[2:]:
        out += view
    return out


def global_avg_pool2d_raw(
    inputs: np.ndarray,
    workspace: Optional[BufferPool] = None,
    accum_dtype=None,
) -> np.ndarray:
    """Plain-numpy global average pooling returning ``(N, C)``."""

    if workspace is None:
        if accum_dtype is not None:
            return inputs.mean(axis=(2, 3), dtype=accum_dtype)
        return inputs.mean(axis=(2, 3))
    out = workspace.take(
        "gap_out",
        (inputs.shape[0], inputs.shape[1]),
        inputs.dtype if accum_dtype is None else accum_dtype,
    )
    if accum_dtype is not None:
        np.mean(inputs, axis=(2, 3), dtype=accum_dtype, out=out)
    else:
        np.mean(inputs, axis=(2, 3), out=out)
    return out
