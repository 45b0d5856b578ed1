"""Noise-prediction network with frequency-aware conditioning.

Conditioning values (time, prior bandwidth, target bandwidth, optional blur
ratio) are sinusoidally embedded, linearly projected, and prepended as extra
sequence tokens; the prior latent is concatenated channel-wise with the noisy
state. The trunk is a stack of dilated residual conv blocks that reaches
R = (kernel - 1) / 2 * sum(dilations) frames left (60 by default) and, under
reflect padding, no token to the right: output frame j sees token p only when
n_tokens + j - R <= p, so the last 4-7 frames of a 64-frame window never see
a given token. The output projection starts at zero, so an untrained net
predicts zero noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

# Blur ratios live in [0, ~1]; frequencies in the thousands. One shared
# embedding basis serves both once blur is scaled up to frequency magnitude.
BLUR_EMBED_SCALE = 1e4
# Times live in [0, 1]; spread them across the embedding's resolvable range.
TIME_EMBED_SCALE = 1e3


@dataclass
class Conditioning:
    """Per-item conditioning: arrays of shape (batch,). blur_ratio optional."""

    t: np.ndarray
    f_prior: np.ndarray
    f_target: np.ndarray
    blur_ratio: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.atleast_1d(np.asarray(self.t, dtype=np.float64))
        self.f_prior = np.atleast_1d(np.asarray(self.f_prior, dtype=np.float64))
        self.f_target = np.atleast_1d(np.asarray(self.f_target, dtype=np.float64))
        if self.blur_ratio is not None:
            self.blur_ratio = np.atleast_1d(np.asarray(self.blur_ratio, dtype=np.float64))
            if np.any(self.blur_ratio < 0):
                raise ValueError("blur_ratio must be >= 0")
        if np.any(self.f_prior <= 0) or np.any(self.f_prior > self.f_target):
            raise ValueError("need 0 < f_prior <= f_target")


def sinusoidal_embed(values: np.ndarray, dim: int) -> np.ndarray:
    """Interleaved sin/cos embeddings (N, dim) of N values at geometric frequencies 1 .. 1e-4.

    Each (sin, cos) pair has unit norm; value 0 maps to (0, 1) pairs.
    """
    if dim % 2 != 0 or dim <= 0:
        raise ValueError(f"embedding dim must be positive and even, got {dim}")
    pairs = dim // 2
    exponents = np.arange(pairs) / max(pairs - 1, 1)
    freqs = 10.0 ** (-4.0 * exponents)
    ang = np.asarray(values, dtype=np.float64).reshape(-1, 1) * freqs
    out = np.empty((ang.shape[0], dim))
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    return out


@dataclass
class PredictorConfig:
    latent_channels: int = 8
    width: int = 32
    kernel: int = 5
    dilations: tuple = (1, 2, 4, 8, 1, 2, 4, 8)
    embed_dim: int = 64
    use_blur_token: bool = False

    def __post_init__(self):
        if min(self.latent_channels, self.width, self.kernel, self.embed_dim) <= 0:
            raise ValueError("all dimensions must be positive")
        if self.embed_dim % 2:
            raise ValueError("embed_dim must be even")

    @property
    def n_tokens(self) -> int:
        return 4 if self.use_blur_token else 3

    def to_dict(self) -> dict:
        return {
            "latent_channels": self.latent_channels,
            "width": self.width,
            "kernel": self.kernel,
            "dilations": list(self.dilations),
            "embed_dim": self.embed_dim,
            "use_blur_token": self.use_blur_token,
        }

    @staticmethod
    def from_dict(d: dict) -> "PredictorConfig":
        d = dict(d)
        d["dilations"] = tuple(d["dilations"])
        return PredictorConfig(**d)


class Predictor:
    """eps_hat = f(z_t, t, prior latent, f_prior, f_target[, blur_ratio])."""

    def __init__(self, cfg: PredictorConfig, rng: np.random.Generator):
        self.cfg = cfg
        c, w = cfg.latent_channels, cfg.width
        self.in_proj = nn.Conv1d(2 * c, w, 1, rng)
        self.tok_t = nn.Linear(cfg.embed_dim, w, rng)
        self.tok_fp = nn.Linear(cfg.embed_dim, w, rng)
        self.tok_ft = nn.Linear(cfg.embed_dim, w, rng)
        self.tok_blur = nn.Linear(cfg.embed_dim, w, rng) if cfg.use_blur_token else None
        self.blocks = []
        for d in cfg.dilations:
            conv = nn.Conv1d(w, w, cfg.kernel, rng, dilation=d)
            mix = nn.Conv1d(w, w, 1, rng)
            self.blocks.append((conv, mix))
        self.out_proj = nn.Conv1d(w, c, 1, rng, zero_init=True)
        for name, t in self.named_params():
            t.name = name

    def named_params(self) -> list[tuple[str, nn.Tensor]]:
        out = self.in_proj.named_params("in_proj")
        out += self.tok_t.named_params("tok_t")
        out += self.tok_fp.named_params("tok_fp")
        out += self.tok_ft.named_params("tok_ft")
        if self.tok_blur is not None:
            out += self.tok_blur.named_params("tok_blur")
        for i, (conv, mix) in enumerate(self.blocks):
            out += conv.named_params(f"block{i}.conv")
            out += mix.named_params(f"block{i}.mix")
        out += self.out_proj.named_params("out_proj")
        return out

    def params(self) -> list[nn.Tensor]:
        return [t for _, t in self.named_params()]

    def param_count(self) -> int:
        return sum(t.data.size for t in self.params())

    def _tokens(self, cond: Conditioning) -> list[nn.Tensor]:
        e = self.cfg.embed_dim
        toks = [
            self.tok_t(nn.Tensor(sinusoidal_embed(cond.t * TIME_EMBED_SCALE, e))),
            self.tok_fp(nn.Tensor(sinusoidal_embed(cond.f_prior, e))),
            self.tok_ft(nn.Tensor(sinusoidal_embed(cond.f_target, e))),
        ]
        if self.cfg.use_blur_token:
            if cond.blur_ratio is None:
                raise ValueError("this predictor expects a blur_ratio in its conditioning")
            toks.append(self.tok_blur(nn.Tensor(sinusoidal_embed(cond.blur_ratio * BLUR_EMBED_SCALE, e))))
        elif cond.blur_ratio is not None:
            raise ValueError("blur_ratio given but this predictor has no blur token")
        return [nn.reshape(tk, (tk.shape[0], tk.shape[1], 1)) for tk in toks]

    def forward(self, z_t: nn.Tensor, cond: Conditioning, z_cond: nn.Tensor) -> nn.Tensor:
        """z_t, z_cond: (N, c, l) tensors; returns eps_hat of the same shape."""
        if z_t.shape != z_cond.shape:
            raise ValueError(f"latent shapes differ: {z_t.shape} vs {z_cond.shape}")
        n, c, length = z_t.shape
        if c != self.cfg.latent_channels:
            raise ValueError(f"expected {self.cfg.latent_channels} latent channels, got {c}")
        h = nn.concat([z_t, z_cond], 1)
        h = self.in_proj(h)
        h = nn.concat(self._tokens(cond) + [h], -1)
        for conv, mix in self.blocks:
            h = h + mix(nn.tanh(conv(h)))
        h = nn.narrow(h, -1, self.cfg.n_tokens, self.cfg.n_tokens + length)
        return self.out_proj(h)
