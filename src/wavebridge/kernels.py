"""1-D convolution compute kernels, the training hot path.

numpy only, one form for every layer shape: the input is unfolded into a
C-contiguous column array (im2col) and each contraction is a BLAS matmul on
it; the input gradient and the transposed convolution scatter one matmul per
tap (a broadcast product where that matmul would sum a single term). np.matmul
runs one GEMM per batch item, so an item's output does not depend on what
else is in the batch.

All kernels are "valid" convolutions on arrays laid out (batch, channels,
length); padding is the caller's job. Weight layouts follow the usual
conventions: conv1d (out_ch, in_ch, k), conv_transpose1d (in_ch, out_ch, k).
A transposed convolution is conv1d's input-gradient map, so its gradients are
conv1d's forward and weight gradient. Kernels follow numpy's type promotion,
as matmul does; nn hands them arrays that share one dtype.
"""

from __future__ import annotations

import numpy as np

# wbbench/run.py records this name in each run's environment.
BACKEND = "numpy"


def _c(a):
    return np.ascontiguousarray(a)


def _im2col(x, k, stride, dilation):
    """Unfold x (n, c, l) into C-contiguous columns (n, c*k, lo).

    Row c*k + j holds tap j of channel c, matching w.reshape(o, c*k). One
    read-only strided view (n, c, k, lo) is copied once.
    """
    n, c, length = x.shape
    span = (k - 1) * dilation + 1
    if length < span:
        raise ValueError(f"input length {length} < kernel span {span}")
    lo = (length - span) // stride + 1
    sn, sc, sl = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, c, k, lo), (sn, sc, sl * dilation, sl * stride), writeable=False
    )
    return _c(win).reshape(n, c * k, lo)


def conv1d_fwd(x, w, stride=1, dilation=1):
    o, c, k = w.shape
    return w.reshape(o, c * k) @ _im2col(x, k, stride, dilation)


def _scatter_taps(g, w, stride, dilation, length):
    """Scatter each tap's channel mix of g (n, o, l) back onto a (n, c, length) signal.

    w is (o, c, k). This is conv1d's input gradient and, with w read as
    (in_ch, out_ch, k), the transposed convolution's forward.
    """
    g = _c(g)
    n, o, lo = g.shape
    _, c, k = w.shape
    taps = _c(w.transpose(2, 1, 0))  # (k, c, o): taps[kk] is tap kk's (c, o) mix
    out = np.zeros((n, c, length), dtype=np.result_type(g, w))
    for kk in range(k):
        start = kk * dilation
        # with one channel to contract the product gives the matmul's bytes, about 3x faster
        mix = taps[kk] @ g if o > 1 else taps[kk] * g
        out[:, :, start : start + stride * lo : stride] += mix
    return out


def conv1d_grad_x(gy, w, stride, dilation, length):
    return _scatter_taps(gy, w, stride, dilation, length)


def conv1d_grad_w(x, gy, stride, dilation, k):
    o, c = gy.shape[1], x.shape[1]
    cols = _im2col(x, k, stride, dilation)
    return (_c(gy) @ cols.swapaxes(1, 2)).sum(0).reshape(o, c, k)


def convt1d_fwd(x, w, stride=1):
    return _scatter_taps(x, w, stride, 1, (x.shape[2] - 1) * stride + w.shape[2])


def convt1d_grad_x(gy, w, stride):
    return conv1d_fwd(gy, w, stride)


def convt1d_grad_w(x, gy, stride, k):
    return conv1d_grad_w(gy, x, stride, 1, k)
