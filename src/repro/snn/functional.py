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
optional ``accum_dtype`` parameter: spike operands arrive as int8 and are
cast (contiguously) into the policy's float accumulator lane right before
the BLAS product, weights/biases arrive *pre-cast* by the calling layer
(cached once per layer), and reductions pin their accumulator dtype so
nothing silently promotes to float64.  Every value in the accumulator is an
exact small integer, so the float lanes carry integer semantics bit-for-bit.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..autograd.conv import conv_output_shape, im2col
from ..runtime import BufferPool

__all__ = [
    "conv2d_raw",
    "linear_raw",
    "avg_pool2d_raw",
    "global_avg_pool2d_raw",
]

IntPair = Union[int, Tuple[int, int]]


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
    the contraction is a batched ``matmul`` into a preallocated output; the
    result is overwritten by the next same-shape call.

    ``accum_dtype`` (quantized execution) casts the unfolded spike columns
    into the accumulator dtype and routes the contraction through ``matmul``
    — integer einsum has no BLAS path and the float einsum's blocking is
    pinned only for the unquantized profiles.  ``weight``/``bias`` must
    already carry the accumulator dtype (the calling layer caches that cast).
    """

    n, c_in, h, w = inputs.shape
    c_out = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    out_h, out_w = conv_output_shape(h, w, (kh, kw), stride, padding)
    cols = im2col(inputs, (kh, kw), stride, padding, workspace=workspace)
    if accum_dtype is not None and cols.dtype != accum_dtype:
        # The int8 unfold is a quarter of the float traffic; the hop into the
        # accumulator lane reuses a scratch buffer when a workspace is given.
        if workspace is None:
            cols = cols.astype(accum_dtype)
        else:
            acc = workspace.take("conv_cols_acc", cols.shape, accum_dtype)
            np.copyto(acc, cols)
            cols = acc
    w_mat = weight.reshape(c_out, -1)
    if workspace is None and accum_dtype is not None:
        out = np.matmul(w_mat, cols).reshape(n, c_out, out_h, out_w)
    elif workspace is None:
        out = np.einsum("ok,nkl->nol", w_mat, cols, optimize=True).reshape(n, c_out, out_h, out_w)
    else:
        flat = workspace.take("conv_out", (n, c_out, out_h * out_w), cols.dtype)
        # Per-sample 2-D GEMMs go straight to BLAS; the broadcast 3-D matmul
        # would route through numpy's buffered iterator and allocate a
        # scratch block every call.
        for sample in range(n):
            np.matmul(w_mat, cols[sample], out=flat[sample])
        out = flat.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out += bias.reshape(1, c_out, 1, 1)
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
    """

    if isinstance(kernel_size, int):
        kernel_size = (kernel_size, kernel_size)
    stride = kernel_size if stride is None else stride
    n, c, h, w = inputs.shape
    kh, kw = kernel_size
    out_h, out_w = conv_output_shape(h, w, (kh, kw), stride, 0)
    cols = im2col(inputs, (kh, kw), stride, 0, workspace=workspace)
    cols = cols.reshape(n, c, kh * kw, out_h * out_w)
    if workspace is None:
        if accum_dtype is not None:
            return cols.mean(axis=2, dtype=accum_dtype).reshape(n, c, out_h, out_w)
        return cols.mean(axis=2).reshape(n, c, out_h, out_w)
    out = workspace.take(
        "pool_out", (n, c, out_h * out_w), inputs.dtype if accum_dtype is None else accum_dtype
    )
    # Accumulate the kernel taps with plain strided adds: `np.mean(axis=2,
    # out=...)` routes through the buffered reduce machinery and allocates a
    # scratch block every call.
    np.copyto(out, cols[:, :, 0])
    for tap in range(1, kh * kw):
        out += cols[:, :, tap]
    out *= 1.0 / (kh * kw)
    return out.reshape(n, c, out_h, out_w)


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
