"""Autodiff engine: finite-difference gradients for every op, Adam, layers."""

import gc

import numpy as np
import pytest

from wavebridge import kernels, nn
from wavebridge.dsp import StftParams
from wavebridge.metrics import MrStftConfig


def _param(rng, *shape, lo=None):
    data = rng.standard_normal(shape)
    if lo is not None:
        # keep values away from kinks (abs, maximum) and log's domain edge
        data = np.sign(data) * (np.abs(data) + lo)
    return nn.Tensor(data, requires_grad=True)


def _check(loss_fn, params, rng, tol=1e-5, n=None):
    total = sum(p.data.size for p in params)
    worst = nn.grad_check(loss_fn, params, rng, n_samples=n or total)
    assert worst < tol, f"max rel grad error {worst:.3e}"


# ------------------------------------------------------------ per-op gradients

def test_grad_add_broadcast(rng):
    a = _param(rng, 3, 4)
    b = _param(rng, 4)
    _check(lambda: nn.tsum(nn.mul(nn.add(a, b), nn.add(a, b))), [a, b], rng)


def test_grad_mul_broadcast(rng):
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 3, 1)
    _check(lambda: nn.tsum(nn.mul(a, b)), [a, b], rng)


def test_grad_scalar_mixing(rng):
    a = _param(rng, 5)
    _check(lambda: nn.tsum((2.0 * a - 1.0) * a + (1.0 - a)), [a], rng)


def test_grad_neg_pow_sqrt(rng):
    a = _param(rng, 6, lo=0.5)
    _check(lambda: nn.tsum(nn.sqrt(nn.mul(a, a))), [a], rng)
    _check(lambda: nn.tsum(nn.neg(a)), [a], rng)


def test_grad_exp_log_tanh(rng):
    a = _param(rng, 8, lo=0.3)
    _check(lambda: nn.tsum(nn.exp(nn.tanh(a))), [a], rng)
    _check(lambda: nn.tsum(nn.log(nn.mul(a, a))), [a], rng)


def test_grad_abs_and_maximum_away_from_kinks(rng):
    a = _param(rng, 10, lo=0.5)
    _check(lambda: nn.tsum(nn.absolute(a)), [a], rng)
    _check(lambda: nn.tsum(nn.maximum_const(a, 0.1)), [a], rng)


def test_grad_reductions(rng):
    a = _param(rng, 3, 5)
    _check(lambda: nn.tsum(nn.mul(nn.tsum(a, axis=1, keepdims=True), a)), [a], rng)
    _check(lambda: nn.tmean(nn.mul(a, a)), [a], rng)
    _check(lambda: nn.tsum(nn.mul(nn.tmean(a, axis=0), nn.tmean(a, axis=0))), [a], rng)


def test_grad_matmul(rng):
    a = _param(rng, 4, 3)
    b = _param(rng, 3, 2)
    _check(lambda: nn.tsum(nn.mul(nn.matmul(a, b), nn.matmul(a, b))), [a, b], rng)


def test_grad_reshape_slice_concat(rng):
    a = _param(rng, 2, 6)
    b = _param(rng, 2, 3)
    def loss():
        r = nn.reshape(a, (3, 4))
        s = nn.narrow(r, -1, 1, 3)
        c = nn.concat([s, s], -1)
        return nn.tsum(nn.mul(c, c)) + nn.tsum(nn.concat([a, b], -1))
    _check(loss, [a, b], rng)


def test_grad_channel_ops(rng):
    a = _param(rng, 2, 4, 5)
    b = _param(rng, 2, 2, 5)
    def loss():
        s = nn.narrow(a, 1, 1, 3)
        c = nn.concat([s, b], 1)
        return nn.tsum(nn.mul(c, c))
    _check(loss, [a, b], rng)


def test_grad_pad_reflect(rng):
    a = _param(rng, 2, 2, 7)
    _check(lambda: nn.tsum(nn.mul(nn.pad_reflect_last(a, 3, 2), nn.pad_reflect_last(a, 3, 2))), [a], rng)


def test_pad_reflect_matches_numpy(rng):
    # Every pad numpy's reflect mode allows: C-contiguous output, np.add.at adjoint.
    for length in range(1, 10):
        for left in range(length):
            for right in range(length):
                x = rng.standard_normal((2, 3, length))
                a = nn.Tensor(x, requires_grad=True)
                out = nn.pad_reflect_last(a, left, right)
                assert np.array_equal(out.data, np.pad(x, ((0, 0), (0, 0), (left, right)), mode="reflect"))
                assert out.data.flags.c_contiguous
                g = rng.standard_normal(out.shape)
                nn.backward(nn.tsum(nn.mul(out, nn.Tensor(g))))
                idx = np.concatenate(
                    [np.arange(left, 0, -1), np.arange(length), np.arange(length - 2, length - 2 - right, -1)]
                )
                want = np.zeros_like(x)
                np.add.at(want, (..., idx), g)
                assert np.array_equal(a.grad, want)


def test_grad_conv1d(rng):
    x = _param(rng, 2, 3, 14)
    w = _param(rng, 4, 3, 5)
    b = _param(rng, 4)
    for stride, dilation in ((1, 1), (2, 1), (1, 2), (3, 2)):
        _check(lambda: nn.tsum(nn.mul(nn.conv1d(x, w, b, stride, dilation),
                                      nn.conv1d(x, w, b, stride, dilation))),
               [x, w, b], rng, n=80)


def test_grad_conv_transpose1d(rng):
    x = _param(rng, 2, 3, 7)
    w = _param(rng, 3, 2, 4)
    b = _param(rng, 2)
    for stride in (1, 2, 4):
        _check(lambda: nn.tsum(nn.mul(nn.conv_transpose1d(x, w, b, stride),
                                      nn.conv_transpose1d(x, w, b, stride))),
               [x, w, b], rng, n=60)


def test_grad_stft_mag(rng):
    x = _param(rng, 2, 300)
    params = StftParams(128, 32)
    _check(lambda: nn.tsum(nn.mul(nn.stft_mag(x, params), nn.stft_mag(x, params))),
           [x], rng, n=100, tol=1e-4)


def _stft_mag_grad_add_at(x, g, params):
    """stft_mag's input gradient for output gradient g, overlap-added with np.add.at."""
    n_fft, hop = params.fft_size, params.hop
    win = params.window_values()
    nframes = 1 + (x.shape[-1] - n_fft) // hop
    idx = np.arange(n_fft)[None, :] + (hop * np.arange(nframes))[:, None]
    spec = np.fft.rfft(x[:, idx] * win, axis=2)
    g_spec = g * (spec / np.maximum(np.abs(spec), 1e-300))
    g_spec[..., 1 : (n_fft // 2)] *= 0.5
    g_frames = np.fft.irfft(g_spec, n=n_fft, axis=2) * n_fft
    g_frames *= win
    gx = np.zeros_like(x)
    np.add.at(gx, (np.arange(x.shape[0])[:, None, None], idx[None, :, :]), g_frames)
    return gx


def test_stft_mag_backward_equals_add_at_overlap_add(rng):
    for params in MrStftConfig().resolutions:
        for length in (2048, 2050, 4096):
            x = nn.Tensor(rng.standard_normal((2, length)), requires_grad=True)
            mag = nn.stft_mag(x, params)
            g = rng.standard_normal(mag.shape)
            nn.backward(nn.tsum(nn.mul(mag, nn.Tensor(g))))
            assert np.array_equal(x.grad, _stft_mag_grad_add_at(x.data, g, params))


def test_stft_mag_zero_input_backward_is_finite():
    x = nn.Tensor(np.zeros((1, 256)), requires_grad=True)
    loss = nn.tsum(nn.stft_mag(x, StftParams(128, 64)))
    nn.backward(loss)
    assert np.all(np.isfinite(x.grad))


def test_stft_mag_too_short_raises():
    with pytest.raises(ValueError):
        nn.stft_mag(nn.Tensor(np.zeros((1, 100))), StftParams(128, 64))


def test_grad_mse(rng):
    a = _param(rng, 3, 4)
    b = _param(rng, 3, 4)
    _check(lambda: nn.mse(a, b), [a, b], rng)


def test_backward_requires_scalar(rng):
    a = _param(rng, 3)
    with pytest.raises(ValueError):
        nn.backward(nn.mul(a, a))


def test_grad_accumulates_over_reuse(rng):
    # the same tensor feeding two branches must sum its gradients
    a = nn.Tensor(np.array([2.0]), requires_grad=True)
    loss = nn.add(nn.mul(a, a), nn.mul(a, nn.Tensor(np.array([3.0]))))
    nn.backward(loss)
    assert a.grad[0] == pytest.approx(2 * 2.0 + 3.0)


# ---------------------------------------------------------------------- Adam

def test_adam_none_grad_is_noop(rng):
    p = _param(rng, 4)
    before = p.data.copy()
    opt = nn.Adam([p], lr=0.1)
    opt.zero_grad()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_rejects_nonfinite_gradient(rng):
    p = _param(rng, 3)
    p.name = "enc.w"
    p.grad = np.array([0.0, np.nan, 1.0])
    opt = nn.Adam([p], lr=0.1)
    with pytest.raises(FloatingPointError, match="enc.w"):
        opt.step()


def test_adam_minimizes_quadratic(rng):
    target = np.array([1.0, -2.0, 0.5, 3.0])
    p = nn.Tensor(np.zeros(4), requires_grad=True)
    opt = nn.Adam([p], lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        d = p - nn.Tensor(target)
        nn.backward(nn.tsum(nn.mul(d, d)))
        opt.step()
    assert np.max(np.abs(p.data - target)) < 1e-3


# -------------------------------------------------------------------- layers

def test_conv1d_layer_same_length(rng):
    for length in (16, 17, 31):
        for stride in (1, 2, 4):
            layer = nn.Conv1d(3, 5, 4, rng, stride=stride)
            y = layer(nn.Tensor(rng.standard_normal((2, 3, length))))
            assert y.shape == (2, 5, -(-length // stride))


def test_conv1d_layer_zero_init(rng):
    layer = nn.Conv1d(2, 3, 3, rng, zero_init=True)
    y = layer(nn.Tensor(rng.standard_normal((1, 2, 10))))
    assert np.all(y.data == 0.0)


def test_convt1d_layer_exact_upsample(rng):
    for stride, k in ((2, 2), (2, 4), (4, 5)):
        layer = nn.ConvT1d(3, 2, k, rng, stride=stride)
        y = layer(nn.Tensor(rng.standard_normal((2, 3, 9))))
        assert y.shape == (2, 2, 9 * stride)
    with pytest.raises(ValueError):
        nn.ConvT1d(3, 2, 1, rng, stride=2)


def test_linear_layer(rng):
    layer = nn.Linear(4, 2, rng)
    x = rng.standard_normal((5, 4))
    y = layer(nn.Tensor(x))
    assert y.shape == (5, 2)
    want = x @ layer.w.data + layer.b.data
    assert np.max(np.abs(y.data - want)) < 1e-12


def test_named_params_prefixes(rng):
    layer = nn.Conv1d(1, 1, 3, rng)
    names = [n for n, _ in layer.named_params("enc.0")]
    assert names == ["enc.0.w", "enc.0.b"]


def test_small_net_end_to_end_gradients(rng):
    conv = nn.Conv1d(1, 3, 4, rng, stride=2)
    deconv = nn.ConvT1d(3, 1, 4, rng, stride=2)
    x = nn.Tensor(rng.standard_normal((2, 1, 16)))
    target = nn.Tensor(rng.standard_normal((2, 1, 16)))
    params = [conv.w, conv.b, deconv.w, deconv.b]
    def loss():
        return nn.mse(deconv(nn.tanh(conv(x))), target)
    worst = nn.grad_check(loss, params, rng, n_samples=sum(p.data.size for p in params))
    assert worst < 1e-5


def test_graph_is_freed_without_cycle_collector(rng):
    # A dropped graph must be freed by reference counting alone.
    conv = nn.Conv1d(1, 3, 4, rng, stride=2)
    deconv = nn.ConvT1d(3, 1, 4, rng, stride=2)
    x = nn.Tensor(rng.standard_normal((2, 1, 256)), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        y = nn.reshape(deconv(nn.tanh(conv(x))), (2, 256))
        loss = nn.tmean(nn.stft_mag(y, StftParams(64, 16)))
        nn.backward(loss)
        assert x.grad is not None and conv.w.grad is not None
        del y, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------- no-graph mode

def test_no_grad_outputs_carry_no_graph(rng):
    conv = nn.Conv1d(1, 3, 4, rng, stride=2)
    x = nn.Tensor(rng.standard_normal((2, 1, 256)), requires_grad=True)
    with nn.no_grad():
        h = conv(x)
        outs = [h, nn.tanh(h), nn.concat([h, h], -1), nn.stft_mag(nn.reshape(h, (2, 384)), StftParams(64, 16))]
    for out in outs:
        assert out.requires_grad is False
        assert out._parents == () and out._backward is None


def test_graphs_build_again_after_no_grad(rng):
    a = _param(rng, 3)
    with nn.no_grad():
        pass
    assert nn.tanh(a).requires_grad
    with pytest.raises(RuntimeError):
        with nn.no_grad():
            raise RuntimeError("leave the block by an exception")
    loss = nn.tsum(nn.tanh(a))
    assert loss.requires_grad and loss._parents
    nn.backward(loss)
    assert np.array_equal(a.grad, 1.0 - np.tanh(a.data) ** 2)


def test_no_grad_is_per_thread(rng):
    # Blocks on two threads that overlap and exit out of order (main enters,
    # worker enters, main exits, worker exits) leave graph building on for both.
    import threading

    a = _param(rng, 4)
    worker_in, main_out = threading.Event(), threading.Event()
    seen = {}

    def worker():
        b = _param(np.random.default_rng(0), 4)
        loss = nn.tsum(nn.tanh(b))  # built while the main thread is inside no_grad
        nn.backward(loss)
        seen["grad"] = b.grad
        with nn.no_grad():
            worker_in.set()
            main_out.wait(10)
        seen["after"] = nn.tanh(b).requires_grad

    with nn.no_grad():
        t = threading.Thread(target=worker)
        t.start()
        worker_in.wait(10)
        assert not nn.tanh(a).requires_grad
    main_out.set()
    t.join(10)
    assert not t.is_alive()
    assert seen["grad"] is not None and np.all(seen["grad"] > 0)
    assert seen["after"]
    assert nn.tanh(a).requires_grad


def test_no_grad_outputs_are_float32_and_the_constructor_keeps_dtypes(rng):
    assert nn.Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
    assert nn.Tensor(np.ones(3)).data.dtype == np.float64
    assert nn.Tensor([1, 2]).data.dtype == np.float64
    conv = nn.Conv1d(2, 3, 3, rng)
    x = nn.Tensor(rng.standard_normal((2, 2, 32)))
    with nn.no_grad():
        built = nn.Tensor(rng.standard_normal(4))  # constructed, not computed: stays float64
        h = conv(x)
        outs = [h, nn.tanh(h), h + h, nn.concat([h, h], -1), nn.narrow(h, -1, 1, 5)]
    assert built.data.dtype == np.float64
    assert all(out.data.dtype == np.float32 for out in outs)
    assert conv.w.data.dtype == np.float64 and conv(x).data.dtype == np.float64
    assert np.allclose(h.data, conv(x).data, rtol=0, atol=1e-5)


def test_no_grad_binary_ops_do_not_promote_float32(rng):
    # a float64 operand is cast down first; promoting and rounding the result
    # back gives other bits for about a third of these pairs
    a = rng.standard_normal(1000).astype(np.float32)
    b = rng.standard_normal(1000)
    with nn.no_grad():
        added = nn.add(nn.Tensor(a), nn.Tensor(b)).data
        product = nn.mul(nn.Tensor(a), nn.Tensor(b)).data
    assert np.array_equal(added, a + b.astype(np.float32))
    assert np.array_equal(product, a * b.astype(np.float32))
    assert not np.array_equal(added, (a + b).astype(np.float32))
    # with grad on, mixed operands follow numpy promotion as before
    assert nn.add(nn.Tensor(a), nn.Tensor(b)).data.dtype == np.float64


def test_no_grad_convs_cast_float64_weights_to_float32(rng):
    # The dtype rule lives in nn: the conv ops hand the kernels a float32 input
    # with float32 weights, so the result is the kernel's own float32 result.
    x32 = rng.standard_normal((2, 3, 33)).astype(np.float32)
    w = nn.Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True)
    wt = nn.Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    b = nn.Tensor(np.zeros(4), requires_grad=True)  # a fresh layer's bias
    with nn.no_grad():
        y = nn.conv1d(nn.Tensor(x32), w, b, stride=2)
        yt = nn.conv_transpose1d(nn.Tensor(x32), wt, b, stride=2)
    assert y.data.dtype == np.float32 and yt.data.dtype == np.float32
    assert np.array_equal(y.data, kernels.conv1d_fwd(x32, w.data.astype(np.float32), 2))
    assert np.array_equal(yt.data, kernels.convt1d_fwd(x32, wt.data.astype(np.float32), 2))
    for x in (nn.Tensor(x32.astype(np.float64)), nn.Tensor(x32)):
        assert nn.conv1d(x, w, b, stride=2).data.dtype == np.float64
        assert nn.conv_transpose1d(x, wt, b, stride=2).data.dtype == np.float64
