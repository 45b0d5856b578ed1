"""Convolution kernels: output shapes, reference values, adjoint identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebridge import kernels

CONFIGS = [
    # (n, ci, co, length, k, stride, dilation)
    (1, 1, 1, 16, 3, 1, 1),
    (2, 3, 4, 32, 5, 1, 1),
    (2, 3, 4, 33, 5, 2, 1),
    (1, 2, 2, 40, 4, 4, 1),
    (2, 2, 3, 48, 3, 1, 2),
    (1, 4, 2, 50, 5, 3, 2),
    (3, 1, 5, 21, 1, 1, 1),
    (2, 1, 4, 34, 4, 2, 1),  # encoder input layer: ci=1, stride 2, k=4
    (2, 3, 1, 20, 3, 1, 1),  # decoder output layer: co=1, k=3
    (1, 2, 3, 60, 5, 1, 8),  # predictor dilation 8, k=5
]


def _rand(rng, *shape):
    return rng.standard_normal(shape)


def test_out_len_matches_forward(rng):
    for n, ci, co, length, k, stride, dilation in CONFIGS:
        x = _rand(rng, n, ci, length)
        w = _rand(rng, co, ci, k)
        y = kernels.conv1d_fwd(x, w, stride, dilation)
        assert y.shape == (n, co, (length - (k - 1) * dilation - 1) // stride + 1)


def test_conv1d_matches_correlate(rng):
    # single channel, unit stride: plain valid cross-correlation
    x = _rand(rng, 1, 1, 64)
    w = _rand(rng, 1, 1, 7)
    y = kernels.conv1d_fwd(x, w, 1, 1)[0, 0]
    want = np.correlate(x[0, 0], w[0, 0], mode="valid")
    assert np.max(np.abs(y - want)) < 1e-12


def test_convt1d_matches_conv1d_grad_x(rng):
    # Transposed convolution is exactly the conv1d input gradient when the
    # lengths line up: a conv1d weight (co, ci, k) read with the convt layout
    # (in, out, k) already maps the gy channels back to the ci channels.
    for stride, k in ((1, 3), (2, 4), (4, 4)):
        lo, co, ci, n = 10, 3, 2, 2
        gy = _rand(rng, n, co, lo)
        w = _rand(rng, co, ci, k)
        length = (lo - 1) * stride + k
        via_grad = kernels.conv1d_grad_x(gy, w, stride, 1, length)
        via_convt = kernels.convt1d_fwd(gy, w, stride)
        assert via_convt.shape == via_grad.shape
        assert np.max(np.abs(via_convt - via_grad)) < 1e-12


def test_conv1d_adjoint_identities(rng):
    for n, ci, co, length, k, stride, dilation in CONFIGS:
        x = _rand(rng, n, ci, length)
        w = _rand(rng, co, ci, k)
        y = kernels.conv1d_fwd(x, w, stride, dilation)
        gy = _rand(rng, *y.shape)
        lhs = np.sum(y * gy)
        gx = kernels.conv1d_grad_x(gy, w, stride, dilation, length)
        gw = kernels.conv1d_grad_w(x, gy, stride, dilation, k)
        assert lhs == pytest.approx(np.sum(x * gx), rel=1e-10)
        assert lhs == pytest.approx(np.sum(w * gw), rel=1e-10)


def test_convt1d_adjoint_identities(rng):
    for stride, k in ((1, 3), (2, 2), (2, 4), (4, 5)):
        n, ci, co, length = 2, 3, 2, 12
        x = _rand(rng, n, ci, length)
        w = _rand(rng, ci, co, k)
        y = kernels.convt1d_fwd(x, w, stride)
        assert y.shape == (n, co, (length - 1) * stride + k)
        gy = _rand(rng, *y.shape)
        lhs = np.sum(y * gy)
        gx = kernels.convt1d_grad_x(gy, w, stride)
        gw = kernels.convt1d_grad_w(x, gy, stride, k)
        assert lhs == pytest.approx(np.sum(x * gx), rel=1e-10)
        assert lhs == pytest.approx(np.sum(w * gw), rel=1e-10)


def _loop_reference(x, w, gy, stride, dilation):
    """conv1d forward, input gradient and weight gradient, one output position and tap at a time, in float64."""
    x, w, gy = (a.astype(np.float64) for a in (x, w, gy))
    k, lo = w.shape[2], gy.shape[2]
    y, gx, gw = np.zeros(gy.shape), np.zeros(x.shape), np.zeros(w.shape)
    for t in range(lo):
        for j in range(k):
            pos = t * stride + j * dilation
            y[:, :, t] += x[:, :, pos] @ w[:, :, j].T
            gx[:, :, pos] += gy[:, :, t] @ w[:, :, j]
            gw[:, :, j] += gy[:, :, t].T @ x[:, :, pos]
    return y, gx, gw


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_kernels_match_loop_reference(rng, dtype, rtol):
    for n, ci, co, length, k, stride, dilation in CONFIGS:
        x = _rand(rng, n, ci, length).astype(dtype)
        w = _rand(rng, co, ci, k).astype(dtype)
        lo = (length - (k - 1) * dilation - 1) // stride + 1
        gy = _rand(rng, n, co, lo).astype(dtype)
        got = (
            kernels.conv1d_fwd(x, w, stride, dilation),
            kernels.conv1d_grad_x(gy, w, stride, dilation, length),
            kernels.conv1d_grad_w(x, gy, stride, dilation, k),
        )
        for g, want in zip(got, _loop_reference(x, w, gy, stride, dilation)):
            assert g.dtype == dtype
            assert g.shape == want.shape
            np.testing.assert_allclose(g, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


@given(
    n=st.integers(1, 3), c=st.integers(1, 4), k=st.integers(1, 6), stride=st.integers(1, 4),
    dilation=st.integers(1, 8), extra=st.integers(0, 20), float32=st.booleans(), strided=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_im2col_matches_sliding_window_form(n, c, k, stride, dilation, extra, float32, strided):
    span = (k - 1) * dilation + 1
    x = np.random.default_rng(span + extra).standard_normal((n, c, 2 * (span + extra)))
    x = x.astype(np.float32) if float32 else x
    x = x[:, :, ::2] if strided else np.ascontiguousarray(x[:, :, : span + extra])
    win = np.lib.stride_tricks.sliding_window_view(x, span, axis=2)[..., ::stride, ::dilation]
    want = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(n, c * k, win.shape[2])
    got = kernels._im2col(x, k, stride, dilation)
    assert got.flags.c_contiguous and got.dtype == x.dtype
    assert np.array_equal(got, want)
