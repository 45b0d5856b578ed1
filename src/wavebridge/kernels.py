"""1-D convolution compute kernels, the training hot path.

numpy only: stride-trick windows plus einsum, or one einsum per kernel tap.

All kernels are "valid" convolutions on float64 arrays laid out (batch,
channels, length); padding is the caller's job. Weight layouts follow the
usual conventions: conv1d (out_ch, in_ch, k), conv_transpose1d (in_ch, out_ch,
k).
"""

from __future__ import annotations

import numpy as np

# wbbench/run.py records this name in each run's environment.
BACKEND = "numpy"


def _c(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def conv1d_fwd(x, w, stride=1, dilation=1):
    x, w = _c(x), _c(w)
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
    out = np.zeros((n, c, length))
    for kk in range(k):
        start = kk * dilation
        out[:, :, start : start + stride * lo : stride] += np.einsum("nol,oc->ncl", g, w[:, :, kk], optimize=True)
    return out


def conv1d_grad_x(gy, w, stride, dilation, length):
    return _scatter_taps(_c(gy), _c(w), stride, dilation, length)


def conv1d_grad_w(x, gy, stride, dilation, k):
    x, gy = _c(x), _c(gy)
    span = (k - 1) * dilation + 1
    win = np.lib.stride_tricks.sliding_window_view(x, span, axis=2)[:, :, ::stride, ::dilation]
    return np.einsum("nclk,nol->ock", win, gy, optimize=True)


def convt1d_fwd(x, w, stride=1):
    x, w = _c(x), _c(w)
    return _scatter_taps(x, w, stride, 1, (x.shape[2] - 1) * stride + w.shape[2])


def convt1d_grad_x(gy, w, stride):
    gy, w = _c(gy), _c(w)
    ci, co, k = w.shape
    lo = gy.shape[2]
    length = (lo - k) // stride + 1
    gx = np.zeros((gy.shape[0], ci, length))
    for kk in range(k):
        gx += np.einsum("nol,co->ncl", gy[:, :, kk : kk + stride * length : stride], w[:, :, kk], optimize=True)
    return gx


def convt1d_grad_w(x, gy, stride, k):
    x, gy = _c(x), _c(gy)
    n, ci, length = x.shape
    gw = np.zeros((ci, gy.shape[1], k))
    for kk in range(k):
        gw[:, :, kk] = np.einsum("ncl,nol->co", x, gy[:, :, kk : kk + stride * length : stride], optimize=True)
    return gw
