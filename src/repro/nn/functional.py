"""Stateless tensor operations used by the layer implementations.

The convolution primitives use the classic im2col/col2im lowering: a
convolution becomes a single large matrix multiplication, which is the
only way to get acceptable throughput out of NumPy. All functions work
on ``float32`` arrays in NCHW layout.

``im2col`` gathers patches through a zero-copy
``np.lib.stride_tricks.sliding_window_view`` and materializes the patch
matrix with a single fused transpose/reshape copy; ``col2im`` accumulates
the patch matrix straight into a channels-last image, so every pass reads
``col`` in place, and transposes to NCHW once at the end. Both are
bit-identical to the reference double-loop implementations (kept below as
``im2col_reference``/``col2im_reference`` for regression tests and
benchmark baselines): they move exactly the same values, and ``col2im``
preserves the reference's per-pixel accumulation order. Because every
construction is pure data movement, routes may differ per problem size:
1x1 kernels collapse to plain relayouts, and ``im2col`` keeps the loop
construction for narrow patch rows, which benches faster there.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "im2col_kernel_major",
    "col2im_kernel_major",
    "im2col_reference",
    "col2im_reference",
    "softmax",
    "log_softmax",
    "one_hot",
]


#: Patch-row width (C * kh * kw) above which the vectorized im2col
#: construction beats the kernel-offset loop. Below it the strided-view
#: machinery costs more than it saves; both routes move exactly the same
#: values, so the dispatch is invisible to callers.
_VECTORIZED_MIN_K_IM2COL = 512


def _pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes (np.pad minus its Python overhead)."""
    if pad == 0:
        return x
    n, c, h, w = x.shape
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    img[:, :, pad : pad + h, pad : pad + w] = x
    return img


def _im2col_loop(
    img: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Kernel-offset loop construction of ``(N, C, kh, kw, oh, ow)``."""
    n, c = img.shape[:2]
    col = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=img.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            col[:, :, i, j] = img[:, :, i:i_max:stride, j:j_max:stride]
    return col


def _col2im_loop(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Kernel-offset scatter-add of a ``(N, C, kh, kw, oh, ow)`` array.

    Accumulates in (i, j) order, matching :func:`col2im_reference`
    per-pixel, and crops the padded margin.
    """
    n, c, h, w = input_shape
    out_h = col.shape[4]
    out_w = col.shape[5]
    img = np.zeros(
        (n, c, h + 2 * pad + stride - 1, w + 2 * pad + stride - 1),
        dtype=col.dtype,
    )
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            img[:, :, i:i_max:stride, j:j_max:stride] += col[:, :, i, j]
    return img[:, :, pad : pad + h, pad : pad + w]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} <= 0 "
            f"(input={size}, kernel={kernel}, stride={stride}, pad={pad})"
        )
    return out


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Unfold image patches into a matrix.

    Args:
        x: input of shape ``(N, C, H, W)``.

    Returns:
        Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``
        where each row is one receptive field.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)

    if kernel_h == 1 and kernel_w == 1 and pad == 0:
        # Pointwise convolution: patch extraction is a pure relayout.
        return np.ascontiguousarray(
            x[:, :, ::stride, ::stride].transpose(0, 2, 3, 1)
        ).reshape(n * out_h * out_w, c)

    if c * kernel_h * kernel_w < _VECTORIZED_MIN_K_IM2COL:
        col = _im2col_loop(
            _pad_input(x, pad), kernel_h, kernel_w, stride, out_h, out_w
        )
        return col.transpose(0, 4, 5, 1, 2, 3).reshape(
            n * out_h * out_w, c * kernel_h * kernel_w
        )

    img = _pad_input(x, pad)
    windows = np.lib.stride_tricks.sliding_window_view(
        img, (kernel_h, kernel_w), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    # (N, C, out_h, out_w, kh, kw) view -> one gather copy into the
    # (N*out_h*out_w, C*kh*kw) patch matrix.
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel_h * kernel_w
    )


def col2im(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold a patch matrix back into an image, accumulating overlaps.

    This is the adjoint of :func:`im2col` and therefore computes the
    gradient of a convolution with respect to its input.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if kernel_h == 1 and kernel_w == 1 and pad == 0:
        folded = np.ascontiguousarray(
            col.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        )
        if stride == 1:
            return folded
        img = np.zeros((n, c, h, w), dtype=col.dtype)
        img[:, :, ::stride, ::stride] = folded
        return img
    # Accumulate channels-last: each kernel offset adds an
    # (N, out_h, out_w, C) view of ``col`` into a strided slice of the
    # padded image, in the reference's (i, j) order, so no pass has to
    # relayout ``col`` first.
    col = col.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    img = np.zeros(
        (n, h + 2 * pad + stride - 1, w + 2 * pad + stride - 1, c),
        dtype=col.dtype,
    )
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            img[:, i:i_max:stride, j:j_max:stride] += col[..., i, j]
    return np.ascontiguousarray(
        img[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)
    )


def im2col_kernel_major(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Unfold patches into kernel-major layout ``(N, C*kh*kw, L)``.

    ``L = out_h * out_w``. Row ``(c, i, j)`` of sample ``n`` holds the
    input plane ``c`` shifted by the kernel offset ``(i, j)`` — the
    layout the engine's sparse conv path consumes with batched matmuls,
    built from large spatially-contiguous copies instead of the
    patch-major gather of :func:`im2col`.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if kernel_h == 1 and kernel_w == 1 and pad == 0:
        if stride == 1:
            # Pointwise, unit stride: the input already is the column
            # matrix — zero-copy view.
            return x.reshape(n, c, h * w)
        return np.ascontiguousarray(x[:, :, ::stride, ::stride]).reshape(
            n, c, out_h * out_w
        )
    col = _im2col_loop(
        _pad_input(x, pad), kernel_h, kernel_w, stride, out_h, out_w
    )
    return col.reshape(n, c * kernel_h * kernel_w, out_h * out_w)


def col2im_kernel_major(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col_kernel_major` (no relayout needed)."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if kernel_h == 1 and kernel_w == 1 and pad == 0:
        if stride == 1:
            return col.reshape(n, c, h, w)
        img = np.zeros((n, c, h, w), dtype=col.dtype)
        img[:, :, ::stride, ::stride] = col.reshape(n, c, out_h, out_w)
        return img
    col = col.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    return _col2im_loop(col, input_shape, kernel_h, kernel_w, stride, pad)


def im2col_reference(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Pre-engine double-loop :func:`im2col` (bit-identity reference)."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)

    if pad > 0:
        img = np.pad(
            x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    else:
        img = x
    col = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            col[:, :, i, j, :, :] = img[:, :, i:i_max:stride, j:j_max:stride]
    return col.transpose(0, 4, 5, 1, 2, 3).reshape(
        n * out_h * out_w, c * kernel_h * kernel_w
    )


def col2im_reference(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Pre-engine double-loop :func:`col2im` (bit-identity reference)."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    col = col.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )
    img = np.zeros(
        (n, c, h + 2 * pad + stride - 1, w + 2 * pad + stride - 1),
        dtype=col.dtype,
    )
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            img[:, :, i:i_max:stride, j:j_max:stride] += col[:, :, i, j, :, :]
    return img[:, :, pad : pad + h, pad : pad + w]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels -> one-hot ``float32`` matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
