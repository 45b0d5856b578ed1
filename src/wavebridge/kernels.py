"""1-D convolution compute kernels, the training hot path.

numpy only: stride-trick windows plus einsum, and a per-tap scatter for the
two ops that spread each input sample over several outputs.

All kernels are "valid" convolutions on arrays laid out (batch, channels,
length); padding is the caller's job. Weight layouts follow the usual
conventions: conv1d (out_ch, in_ch, k), conv_transpose1d (in_ch, out_ch, k).
A transposed convolution is conv1d's input-gradient map, so its gradients are
conv1d's forward and weight gradient. Kernels follow numpy's type promotion,
as einsum does; nn hands them arrays that share one dtype.
"""

from __future__ import annotations

import numpy as np

# wbbench/run.py records this name in each run's environment.
BACKEND = "numpy"


def _c(a):
    return np.ascontiguousarray(a)


def conv1d_fwd(x, w, stride=1, dilation=1):
    x, w = _c(x), _c(w)
    k = w.shape[2]
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
    out = np.zeros((n, c, length), dtype=np.result_type(g, w))
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
    return _scatter_taps(_c(x), _c(w), stride, 1, (x.shape[2] - 1) * stride + w.shape[2])


def convt1d_grad_x(gy, w, stride):
    return conv1d_fwd(gy, w, stride)


def convt1d_grad_w(x, gy, stride, k):
    return conv1d_grad_w(gy, x, stride, 1, k)
