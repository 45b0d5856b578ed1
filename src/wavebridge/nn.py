"""Minimal reverse-mode autodiff on numpy, plus the layers and optimizer the
package trains with.

Scope is deliberately small: exactly the operations the codec and the noise
predictor need (elementwise arithmetic, tanh/exp/log/abs/sqrt, axis
reductions, matmul, 1-D convolutions via the kernels module, reflect padding,
one slice op `narrow` and one concat op `concat` on any axis, and a
differentiable magnitude STFT whose backward pass is the rfft adjoint).
Graphs built from float64 data run in float64, so central finite differences
agree with analytic gradients to ~1e-6, which the grad_check utility (and an
acceptance gate) enforces.

Inside `with no_grad():` operations record no graph: outputs carry
requires_grad False and hold no parents or backward closure, so a forward
pass keeps only the activations still in use. The switch is per thread, so
a graph built on one thread is unaffected by another thread's block.

Dtype rule, which lives here alone (the kernels only follow numpy's type
promotion): the Tensor constructor keeps a float32 array as float32 and
stores anything else as float64. An op whose inputs mix float32 and float64
(a binary op, a conv op's input and weight, a concat) casts the float64 ones
down and differentiates with the cast data, and an operator's non-Tensor
operand takes the dtype of the tensor it meets. So a model computes in its
parameters' dtype, with or without a graph: float32 when trained or loaded
from a checkpoint, float64 when built by a constructor (the grad_check
path). no_grad changes only whether a graph is recorded. The conv ops add
their bias without promoting.

No broadcasting surprises: binary ops follow numpy broadcasting and gradients
are summed back over broadcast axes.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

from . import kernels
from .dsp import StftParams


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = ""  # set by the model that owns a parameter

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # Convenience operators (all defer to module functions below).
    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    def __radd__(self, other):
        return add(_as_tensor(other, self), self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other, self)))

    def __rsub__(self, other):
        return add(_as_tensor(other, self), neg(self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self), self)

    def __neg__(self):
        return neg(self)


def _as_tensor(x, like: Tensor) -> Tensor:
    """x as an operand of `like`: a constant takes like's dtype."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


@contextmanager
def no_grad():
    """Build no autodiff graph on this thread until the block exits."""
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


def _node(data, parents, backward_fn) -> Tensor:
    # backward_fn receives the output gradient as its argument instead of
    # reading it off the output, so a graph holds no reference cycle and is
    # freed without the cyclic garbage collector.
    out = Tensor(data)
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _operands(*ts: Tensor) -> list[np.ndarray]:
    """The data of an op's inputs, all float32 when their dtypes differ: a
    float32 activation meeting a float64 parameter or constant is not promoted."""
    data = [t.data for t in ts]
    if any(d.dtype != data[0].dtype for d in data):
        return [d.astype(np.float32, copy=False) for d in data]
    return data


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# ------------------------------------------------------------ primitive ops


def add(a: Tensor, b: Tensor) -> Tensor:
    x, y = _operands(a, b)
    out_data = x + y

    def back(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = _operands(a, b)
    out_data = x * y

    def back(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * y, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * x, b.data.shape))

    return _node(out_data, (a, b), back)


def neg(a: Tensor) -> Tensor:
    def back(g):
        if a.requires_grad:
            a.accumulate(-g)

    return _node(-a.data, (a,), back)


def sqrt(a: Tensor) -> Tensor:
    def back(g):
        if a.requires_grad:
            a.accumulate(g * 0.5 * a.data**-0.5)

    return _node(a.data**0.5, (a,), back)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * out_data)

    return _node(out_data, (a,), back)


def log(a: Tensor) -> Tensor:
    def back(g):
        if a.requires_grad:
            a.accumulate(g / a.data)

    return _node(np.log(a.data), (a,), back)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), back)


def absolute(a: Tensor) -> Tensor:
    """|a|; subgradient sign(a) (0 at 0)."""
    out_data = np.abs(a.data)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * np.sign(a.data))

    return _node(out_data, (a,), back)


def maximum_const(a: Tensor, c: float) -> Tensor:
    """max(a, c) against a scalar floor; gradient flows where a >= c."""
    out_data = np.maximum(a.data, c)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * (a.data >= c))

    return _node(out_data, (a,), back)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _node(out_data, (a,), back)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[i] for i in axes]))
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    x, y = _operands(a, b)
    out_data = x @ y

    def back(g):
        if a.requires_grad:
            a.accumulate(g @ y.T)
        if b.requires_grad:
            b.accumulate(x.T @ g)

    return _node(out_data, (a, b), back)


def reshape(a: Tensor, shape) -> Tensor:
    def back(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), back)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """a[start:stop] along `axis`."""
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def back(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[idx] = g
            a.accumulate(ga)

    return _node(a.data[idx], (a,), back)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    """Concatenate tensors along `axis`."""
    out_data = np.concatenate(_operands(*parts), axis=axis)
    ends = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def back(g):
        for p, gp in zip(parts, np.split(g, ends, axis=axis)):
            if p.requires_grad:
                p.accumulate(gp)

    return _node(out_data, tuple(parts), back)


def pad_reflect_last(a: Tensor, left: int, right: int) -> Tensor:
    """Reflect-pad the last axis (no edge duplication, numpy 'reflect')."""
    length = a.data.shape[-1]
    if left >= length or right >= length:
        raise ValueError(f"reflect pad ({left},{right}) too large for length {length}")
    x = a.data
    # Three slices and one concatenate give a C-contiguous output, which the
    # conv kernels unfold without another copy.
    head, tail = slice(1, left + 1), slice(length - 1 - right, length - 1)
    out_data = np.concatenate([x[..., head][..., ::-1], x, x[..., tail][..., ::-1]], axis=-1)

    def back(g):
        if a.requires_grad:
            ga = g[..., left : left + length].copy()
            ga[..., head] += g[..., :left][..., ::-1]
            ga[..., tail] += g[..., left + length :][..., ::-1]
            a.accumulate(ga)

    return _node(out_data, (a,), back)


def conv1d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, dilation: int = 1) -> Tensor:
    """Valid 1-D convolution: x (N,Ci,L), w (Co,Ci,K), bias (Co,) -> (N,Co,Lo)."""
    xd, wd = _operands(x, w)
    out_data = kernels.conv1d_fwd(xd, wd, stride, dilation)
    out_data += bias.data[None, :, None].astype(out_data.dtype, copy=False)

    def back(g):
        if x.requires_grad:
            x.accumulate(kernels.conv1d_grad_x(g, wd, stride, dilation, xd.shape[2]))
        if w.requires_grad:
            w.accumulate(kernels.conv1d_grad_w(xd, g, stride, dilation, wd.shape[2]))
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(0, 2)))

    return _node(out_data, (x, w, bias), back)


def conv_transpose1d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Transposed 1-D convolution: x (N,Ci,L), w (Ci,Co,K), bias (Co,) -> (N,Co,(L-1)*stride+K)."""
    xd, wd = _operands(x, w)
    out_data = kernels.convt1d_fwd(xd, wd, stride)
    out_data += bias.data[None, :, None].astype(out_data.dtype, copy=False)

    def back(g):
        if x.requires_grad:
            x.accumulate(kernels.convt1d_grad_x(g, wd, stride))
        if w.requires_grad:
            w.accumulate(kernels.convt1d_grad_w(xd, g, stride, wd.shape[2]))
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=(0, 2)))

    return _node(out_data, (x, w, bias), back)


def stft_mag(x: Tensor, params: StftParams) -> Tensor:
    """Magnitude STFT of batched signals x (N, L) -> (N, T, F).

    Frame k holds samples [k * hop, k * hop + fft_size), no padding; this is
    the package's one unpadded framing (dsp.stft pads). Backward is the
    analytic rfft adjoint; zero bins use the dtype's smallest normal magnitude
    as a floor in the phase factor only. The window takes x's dtype, so a
    float32 signal is framed and transformed in float32.
    """
    n_fft, hop = params.fft_size, params.hop
    win = params.window_values().astype(x.data.dtype, copy=False)
    length = x.data.shape[-1]
    if length < n_fft:
        raise ValueError(f"signal length {length} < fft_size {n_fft}")
    nframes = 1 + (length - n_fft) // hop
    idx = np.arange(n_fft)[None, :] + (hop * np.arange(nframes))[:, None]
    frames = x.data[:, idx] * win[None, None, :]
    spec = np.fft.rfft(frames, axis=2)
    mag = np.abs(spec)

    def back(g):
        if not x.requires_grad:
            return
        phase = spec / np.maximum(mag, np.finfo(mag.dtype).tiny)
        g_spec = g * phase  # dL/dRe + i dL/dIm, bin by bin
        # Adjoint of rfft on real input: halve interior bins, irfft, scale by N.
        g_spec = g_spec.copy()
        g_spec[..., 1 : (n_fft // 2)] *= 0.5
        g_frames = np.fft.irfft(g_spec, n=n_fft, axis=2) * n_fft
        g_frames *= win[None, None, :]
        gx = np.zeros_like(x.data)
        for f in range(nframes):  # overlap-add, frames in order
            gx[:, f * hop : f * hop + n_fft] += g_frames[:, f]
        x.accumulate(gx)

    return _node(mag, (x,), back)


def mse(a: Tensor, b: Tensor) -> Tensor:
    d = a - b
    return tmean(mul(d, d))


# ------------------------------------------------------------------- layers


class Conv1d:
    """Conv layer with 'same' reflect padding (output length ceil(L/stride))."""

    def __init__(self, cin, cout, k, rng, stride=1, dilation=1, zero_init=False):
        self.stride, self.dilation, self.k = stride, dilation, k
        if zero_init:
            w = np.zeros((cout, cin, k))
        else:
            w = rng.standard_normal((cout, cin, k)) * math.sqrt(1.0 / (cin * k))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        length = x.data.shape[-1]
        out_len = -(-length // self.stride)
        span = (self.k - 1) * self.dilation + 1
        total_pad = max(0, (out_len - 1) * self.stride + span - length)
        left = total_pad // 2
        if total_pad:
            x = pad_reflect_last(x, left, total_pad - left)
        return conv1d(x, self.w, self.b, self.stride, self.dilation)

    def named_params(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


class ConvT1d:
    """Transposed conv producing exactly L*stride outputs (centered crop)."""

    def __init__(self, cin, cout, k, rng, stride=1):
        if k < stride:
            raise ValueError("kernel must be at least the stride")
        self.stride, self.k = stride, k
        w = rng.standard_normal((cin, cout, k)) * math.sqrt(1.0 / (cin * k))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        y = conv_transpose1d(x, self.w, self.b, self.stride)
        extra = self.k - self.stride
        left = extra // 2
        want = x.data.shape[-1] * self.stride
        return narrow(y, -1, left, left + want)

    def named_params(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


class Linear:
    def __init__(self, cin, cout, rng):
        w = rng.standard_normal((cin, cout)) * math.sqrt(1.0 / cin)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)

    def named_params(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


def to_float32(params: list[Tensor]) -> None:
    """Cast parameters to float32 in place, so the graphs they enter run in float32."""
    for p in params:
        p.data = p.data.astype(np.float32)


# ---------------------------------------------------------------- optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction. Aborts loudly on non-finite gradients."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in parameter {p.name or i}")
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * (g * g)
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ------------------------------------------------------------ grad checking


def grad_check(loss_fn, params: list[Tensor], rng: np.random.Generator, n_samples: int = 120, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn() must rebuild the (deterministic) loss from the current parameter
    values. Samples n_samples scalar entries across all parameter tensors.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    sizes = np.array([p.data.size for p in params])
    total = int(sizes.sum())
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    bounds = np.cumsum(sizes)

    worst = 0.0
    for flat in picks:
        pi = int(np.searchsorted(bounds, flat, side="right"))
        local = int(flat - (bounds[pi - 1] if pi else 0))
        p = params[pi]
        orig = p.data.flat[local]
        p.data.flat[local] = orig + eps
        hi = float(loss_fn().data)
        p.data.flat[local] = orig - eps
        lo = float(loss_fn().data)
        p.data.flat[local] = orig
        fd = (hi - lo) / (2 * eps)
        an = float(analytic[pi].flat[local])
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst
