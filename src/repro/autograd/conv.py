"""Differentiable 2-D convolution implemented with ``im2col``.

The conversion pipeline of the TCL paper operates on convolutional networks
(ConvNet-4, VGG-16, ResNet-18/34), so the autograd substrate needs an
efficient convolution.  The implementation lowers the convolution to a single
matrix multiplication per batch by unfolding input patches into columns
(``im2col``) and folds gradients back with the exact adjoint (``col2im``).

Only the layout used throughout the repository is supported: NCHW activations
and OIHW weights, symmetric zero padding and a scalar (square or rectangular)
stride.  Dilation and groups are not used by any of the paper's models and
are intentionally left out.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = ["im2col", "col2im", "conv2d", "conv_output_shape"]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


def conv_output_shape(
    height: int,
    width: int,
    kernel_size: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tuple[int, int]:
    """Return the spatial output shape of a 2-D convolution."""

    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution produces empty output: input {height}x{width}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, padding {ph}x{pw}"
        )
    return out_h, out_w


def im2col(
    images: np.ndarray,
    kernel_size: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
    workspace=None,
    dtype=None,
) -> np.ndarray:
    """Unfold image patches into columns.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)``.
    kernel_size, stride, padding:
        Convolution geometry.
    workspace:
        Optional :class:`~repro.runtime.BufferPool`.  When given, both the
        zero-padded input and the returned column matrix live in reused
        scratch buffers, so repeated same-shape calls (one per simulation
        timestep) allocate nothing.  The returned array is overwritten by the
        next call — callers that keep columns across calls must copy.
    dtype:
        Dtype of the columns (default: the images' dtype).  The unfold casts
        while it copies, so integer spikes land in float columns in one pass.

    Returns
    -------
    ndarray
        Array of shape ``(N, C * kh * kw, out_h * out_w)``.
    """

    n, c, h, w = images.shape
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))

    if ph or pw:
        if workspace is None:
            images = np.pad(images, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        else:
            # zero=True zero-fills at allocation only; the border is never
            # written afterwards, so it stays zero while the interior is
            # overwritten every call.
            padded = workspace.take(
                "im2col_padded", (n, c, h + 2 * ph, w + 2 * pw), images.dtype, zero=True
            )
            padded[:, :, ph: ph + h, pw: pw + w] = images
            images = padded

    # Strided view: (N, C, kh, kw, out_h, out_w)
    stride_n, stride_c, stride_h, stride_w = images.strides
    view = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(stride_n, stride_c, stride_h, stride_w, stride_h * sh, stride_w * sw),
        writeable=False,
    )
    shape = (n, c * kh * kw, out_h * out_w)
    dtype = images.dtype if dtype is None else dtype
    if workspace is None:
        columns = np.empty(shape, dtype=dtype)
    else:
        columns = workspace.take("im2col_columns", shape, dtype)
    np.copyto(columns.reshape(n, c, kh, kw, out_h, out_w), view)
    return columns


def col2im(
    columns: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col` — scatter columns back into image space."""

    n, c, h, w = image_shape
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))

    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=columns.dtype)
    cols = columns.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            padded[:, :, i:i_max:sh, j:j_max:sw] += cols[:, :, i, j, :, :]
    if ph or pw:
        return padded[:, :, ph: ph + h, pw: pw + w]
    return padded


def conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation of an NCHW input with OIHW weights.

    Parameters
    ----------
    inputs:
        Tensor of shape ``(N, C_in, H, W)``.
    weight:
        Tensor of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional tensor of shape ``(C_out,)``.
    stride, padding:
        Convolution geometry (ints or pairs).
    """

    inputs = as_tensor(inputs)
    weight = as_tensor(weight)
    n, c_in, h, w = inputs.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")
    out_h, out_w = conv_output_shape(h, w, (kh, kw), stride, padding)

    cols = im2col(inputs.data, (kh, kw), stride, padding)  # (N, C*kh*kw, L)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C*kh*kw)
    out_data = np.einsum("ok,nkl->nol", w_mat, cols, optimize=True)
    out_data = out_data.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    children = (inputs, weight) if bias is None else (inputs, weight, bias)

    def backward() -> None:
        grad_out = out.grad.reshape(n, c_out, out_h * out_w)  # (N, C_out, L)
        if weight.requires_grad:
            grad_w = np.einsum("nol,nkl->ok", grad_out, cols, optimize=True)
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if inputs.requires_grad:
            grad_cols = np.einsum("ok,nol->nkl", w_mat, grad_out, optimize=True)
            grad_in = col2im(grad_cols, (n, c_in, h, w), (kh, kw), stride, padding)
            inputs._accumulate(grad_in)

    out = Tensor._make(out_data, children, "conv2d", backward)
    return out
