"""1-D convolution compute kernels, the training hot path.

numpy only: stride-trick windows plus einsum, or one einsum per kernel tap.

All kernels are "valid" convolutions on arrays laid out (batch, channels,
length); padding is the caller's job. Weight layouts follow the usual
conventions: conv1d (out_ch, in_ch, k), conv_transpose1d (in_ch, out_ch, k).

Dtype rule: a kernel computes in the dtype of its first array argument (the
input x, or the output gradient gy), float32 or float64, and casts the other
array to it; the result has that dtype. Training passes float64 everywhere,
graph-free inference passes float32 activations with float64 weights.
"""

from __future__ import annotations

import numpy as np

# wbbench/run.py records this name in each run's environment.
BACKEND = "numpy"


def _c(a, dtype=None):
    """a as a contiguous array of `dtype`; by default float32 stays, all else is float64."""
    a = np.asarray(a)
    if dtype is None:
        dtype = np.float32 if a.dtype == np.float32 else np.float64
    return np.ascontiguousarray(a, dtype=dtype)


def conv1d_fwd(x, w, stride=1, dilation=1):
    x = _c(x)
    w = _c(w, x.dtype)
    n, ci, length = x.shape
    co, _, k = w.shape
    span = (k - 1) * dilation + 1
    win = np.lib.stride_tricks.sliding_window_view(x, span, axis=2)[:, :, ::stride, ::dilation]
    return np.einsum("nclk,ock->nol", win, w, optimize=True)


def _scatter_taps(g, w, stride, dilation, length):
    """Scatter each tap's channel mix of g (n, o, l) back onto a (n, c, length) signal.

    w is (o, c, k). This is conv1d's input gradient and, with w read as
    (in_ch, out_ch, k), the transposed convolution's forward.
    """
    n, _, lo = g.shape
    _, c, k = w.shape
    out = np.zeros((n, c, length), dtype=g.dtype)
    for kk in range(k):
        start = kk * dilation
        out[:, :, start : start + stride * lo : stride] += np.einsum("nol,oc->ncl", g, w[:, :, kk], optimize=True)
    return out


def conv1d_grad_x(gy, w, stride, dilation, length):
    gy = _c(gy)
    return _scatter_taps(gy, _c(w, gy.dtype), stride, dilation, length)


def conv1d_grad_w(x, gy, stride, dilation, k):
    x = _c(x)
    gy = _c(gy, x.dtype)
    span = (k - 1) * dilation + 1
    win = np.lib.stride_tricks.sliding_window_view(x, span, axis=2)[:, :, ::stride, ::dilation]
    return np.einsum("nclk,nol->ock", win, gy, optimize=True)


def convt1d_fwd(x, w, stride=1):
    x = _c(x)
    w = _c(w, x.dtype)
    return _scatter_taps(x, w, stride, 1, (x.shape[2] - 1) * stride + w.shape[2])


def convt1d_grad_x(gy, w, stride):
    gy = _c(gy)
    w = _c(w, gy.dtype)
    ci, co, k = w.shape
    lo = gy.shape[2]
    length = (lo - k) // stride + 1
    gx = np.zeros((gy.shape[0], ci, length), dtype=gy.dtype)
    for kk in range(k):
        gx += np.einsum("nol,co->ncl", gy[:, :, kk : kk + stride * length : stride], w[:, :, kk], optimize=True)
    return gx


def convt1d_grad_w(x, gy, stride, k):
    x = _c(x)
    gy = _c(gy, x.dtype)
    n, ci, length = x.shape
    gw = np.zeros((ci, gy.shape[1], k), dtype=x.dtype)
    for kk in range(k):
        gw[:, :, kk] = np.einsum("ncl,nol->co", x, gy[:, :, kk : kk + stride * length : stride], optimize=True)
    return gw
