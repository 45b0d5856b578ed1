"""Convolutional waveform VAE.

Encoder: strided conv stack (stride product = compression ratio) ending in a
1x1 head that emits per-frame mean and log-variance. Decoder mirrors with
transposed convs. Trained on multi-resolution STFT reconstruction plus a
weighted KL against the unit Gaussian; a post-hoc scale is fitted so pooled
latents have unit spread before they feed the bridge.

Latents are plain (channels, frames) arrays. Lengths: encode handles any
input of at least `ratio` samples and yields ceil(L / ratio) frames of the
posterior mean; decode emits frames * ratio samples and trims back to a known
original length. encode and decode build no graph and compute in the
parameters' dtype (see nn): float32 for a trained or loaded codec. Both hand
back float64 arrays.

encode and decode hold memory bounded in clip length: they run in chunks of
CHUNK_FRAMES latent frames, each read with HALO_FRAMES frames of real
neighbours on either side (none past a clip edge), and write each chunk's
middle into one preallocated output. A chunk starts on a multiple of `ratio`
samples and an encoder chunk's length matches the clip's modulo `ratio`, so
every strided layer keeps the whole clip's grid and padding. Every layer's
kernel is twice its stride, so for any strides the receptive field spans
under 4 frames and the halo covers it: chunked output equals the whole-clip
forward up to float32 rounding. A latent of at most CHUNK_FRAMES frames is
one chunk and computes exactly the whole-clip forward.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .dsp import Waveform
from .metrics import MrStftConfig, mrstft

CHUNK_FRAMES = 1024
HALO_FRAMES = 8


@dataclass
class CodecConfig:
    sample_rate: int
    channels: int = 8
    strides: tuple = (2, 2, 2, 2)
    widths: tuple = (16, 24, 32, 32)
    kl_weight: float = 1e-7

    def __post_init__(self):
        if len(self.strides) != len(self.widths):
            raise ValueError("strides and widths must pair up")
        if self.kl_weight < 0:
            raise ValueError("kl_weight must be >= 0")

    @property
    def ratio(self) -> int:
        """Samples per latent frame: the product of the strides."""
        return math.prod(self.strides)

    def to_dict(self) -> dict:
        return {**asdict(self), "ratio": self.ratio}

    @staticmethod
    def from_dict(d: dict) -> "CodecConfig":
        d = dict(d)
        d["strides"] = tuple(d["strides"])
        d["widths"] = tuple(d["widths"])
        stored = d.pop("ratio", None)
        cfg = CodecConfig(**d)
        if stored is not None and stored != cfg.ratio:
            raise ValueError(f"stored ratio {stored} is not the product {cfg.ratio} of strides {cfg.strides}")
        return cfg


class Codec:
    def __init__(self, cfg: CodecConfig, rng: np.random.Generator):
        self.cfg = cfg
        c = cfg.channels
        self.enc = []
        cin = 1
        for w, s in zip(cfg.widths, cfg.strides):
            self.enc.append(nn.Conv1d(cin, w, 2 * s, rng, stride=s))
            cin = w
        self.enc_head = nn.Conv1d(cin, 2 * c, 1, rng)
        self.dec_head = nn.Conv1d(c, cfg.widths[-1], 1, rng)
        self.dec = []
        cin = cfg.widths[-1]
        for w, s in zip(reversed(cfg.widths), reversed(cfg.strides)):
            self.dec.append(nn.ConvT1d(cin, w, 2 * s, rng, stride=s))
            cin = w
        self.dec_out = nn.Conv1d(cin, 1, 3, rng)
        for name, t in self.named_params():
            t.name = name

    def named_params(self) -> list[tuple[str, nn.Tensor]]:
        out = []
        for i, layer in enumerate(self.enc):
            out += layer.named_params(f"enc{i}")
        out += self.enc_head.named_params("enc_head")
        out += self.dec_head.named_params("dec_head")
        for i, layer in enumerate(self.dec):
            out += layer.named_params(f"dec{i}")
        out += self.dec_out.named_params("dec_out")
        return out

    def params(self) -> list[nn.Tensor]:
        return [t for _, t in self.named_params()]

    # ---------------------------------------------------------- graph paths

    def encode_dist(self, x: nn.Tensor) -> tuple[nn.Tensor, nn.Tensor]:
        """x: (N, 1, L) -> per-frame mean and log-variance, each (N, c, l)."""
        h = x
        for layer in self.enc:
            h = nn.tanh(layer(h))
        h = self.enc_head(h)
        c = self.cfg.channels
        mu = nn.narrow(h, 1, 0, c)
        logvar = nn.narrow(h, 1, c, 2 * c)
        return mu, logvar

    def decode_graph(self, z: nn.Tensor) -> nn.Tensor:
        h = nn.tanh(self.dec_head(z))
        for layer in self.dec:
            h = nn.tanh(layer(h))
        return self.dec_out(h)

    # ------------------------------------------- numpy-facing API, no graph

    def encode(self, wav: Waveform) -> np.ndarray:
        """Posterior-mean latent of a waveform, shape (channels, ceil(L / ratio))."""
        if wav.sample_rate != self.cfg.sample_rate:
            raise ValueError(f"codec trained at {self.cfg.sample_rate} Hz, input is {wav.sample_rate} Hz")
        if len(wav) < self.cfg.ratio:
            raise ValueError(f"input of {len(wav)} samples shorter than one frame ({self.cfg.ratio})")
        r = self.cfg.ratio
        frames = -(-len(wav) // r)
        short = frames * r - len(wav)  # cut so each chunk's length matches the clip's modulo r
        z = np.empty((self.cfg.channels, frames))
        with nn.no_grad():
            for lo, start, stop, hi in _chunks(frames):
                mu, _ = self.encode_dist(nn.Tensor(wav.samples[None, None, lo * r : hi * r - short]))
                z[:, start:stop] = mu.data[0, :, start - lo : stop - lo]
        if not np.all(np.isfinite(z)):  # weights come from checkpoint files
            raise ValueError("latent contains NaN or inf")
        return z

    def decode(self, z: np.ndarray, length: int | None = None) -> Waveform:
        """Decode a (channels, frames) latent, trimmed to `length` samples if given."""
        c, r = self.cfg.channels, self.cfg.ratio
        if z.ndim != 2 or z.shape[0] != c or z.shape[1] == 0:
            raise ValueError(f"latent of shape {z.shape}, expected ({c}, frames) with frames >= 1")
        frames = z.shape[1]
        if length is not None and length > frames * r:
            raise ValueError(f"length {length} exceeds the {frames * r} samples that {frames} frames decode to")
        y = np.empty(frames * r)
        with nn.no_grad():
            for lo, start, stop, hi in _chunks(frames):
                part = self.decode_graph(nn.Tensor(z[None, :, lo:hi])).data[0, 0]
                y[start * r : stop * r] = part[(start - lo) * r : (stop - lo) * r]
        if length is not None:
            y = y[:length]
        return Waveform(y, self.cfg.sample_rate)


def _chunks(frames: int):
    """(lo, start, stop, hi) per chunk: core frames [start, stop) read as [lo, hi) with the halo."""
    for start in range(0, frames, CHUNK_FRAMES):
        stop = min(start + CHUNK_FRAMES, frames)
        yield max(0, start - HALO_FRAMES), start, stop, min(frames, stop + HALO_FRAMES)


def vae_loss(codec: Codec, batch: np.ndarray, rng: np.random.Generator, mr_cfg: MrStftConfig) -> tuple[nn.Tensor, float, float]:
    """metrics.mrstft reconstruction + kl_weight * KL on a (N, L) batch.

    Returns (loss tensor, recon value, kl value). The reconstruction term is
    the batch mean of per-clip metrics.mrstft values.
    """
    n, length = batch.shape
    x = nn.Tensor(batch[:, None, :])
    mu, logvar = codec.encode_dist(x)
    noise = rng.standard_normal(mu.shape).astype(mu.data.dtype, copy=False)
    z = mu + nn.exp(0.5 * logvar) * nn.Tensor(noise)
    recon = codec.decode_graph(z)
    recon = nn.reshape(nn.narrow(recon, -1, 0, length), (n, length))
    total = mrstft(recon, batch, mr_cfg)

    # KL(q || N(0,1)) summed over latent entries, mean over the batch
    kl_each = -0.5 * nn.tsum(1.0 + logvar - mu * mu - nn.exp(logvar), axis=(1, 2))
    kl = nn.tmean(kl_each)
    loss = total + codec.cfg.kl_weight * kl
    return loss, float(total.data), float(kl.data)


def train_codec(
    clips: list[Waveform],
    cfg: CodecConfig,
    steps: int,
    rng: np.random.Generator,
    batch_size: int = 8,
    crop_len: int = 2048,
    lr: float = 1e-3,
    log_every: int = 50,
    log_cb=None,
) -> tuple[Codec, list[tuple[int, float, float, float]]]:
    """Train a fresh codec on random crops. Returns (codec, loss trace).

    The codec's parameters, batches and graphs are float32 (see nn).
    Trace rows: (step, total, recon, kl). Aborts on non-finite loss.
    """
    if not clips:
        raise ValueError("empty corpus")
    mr_cfg = MrStftConfig()
    if crop_len < mr_cfg.longest_frame:
        raise ValueError(f"crop of {crop_len} samples is shorter than the loss's longest STFT frame ({mr_cfg.longest_frame})")
    for wav in clips:
        if wav.sample_rate != cfg.sample_rate:
            raise ValueError(f"clip at {wav.sample_rate} Hz in a {cfg.sample_rate} Hz corpus")
        if len(wav) < crop_len:
            raise ValueError(f"clip of {len(wav)} samples shorter than crop {crop_len}")
    codec = Codec(cfg, rng)
    nn.to_float32(codec.params())
    opt = nn.Adam(codec.params(), lr=lr)
    trace = []
    for step in range(steps):
        batch = np.stack([_random_crop(clips, crop_len, rng) for _ in range(batch_size)]).astype(np.float32)
        opt.zero_grad()
        loss, recon, kl = vae_loss(codec, batch, rng, mr_cfg)
        if not np.isfinite(loss.data):
            raise FloatingPointError(f"codec training diverged at step {step}: loss={loss.data}")
        nn.backward(loss)
        opt.step()
        if step % log_every == 0 or step == steps - 1:
            trace.append((step, float(loss.data), recon, kl))
            if log_cb:
                log_cb(step, float(loss.data), recon, kl)
    return codec, trace


def _random_crop(clips: list[Waveform], crop_len: int, rng: np.random.Generator) -> np.ndarray:
    wav = clips[int(rng.integers(len(clips)))]
    start = int(rng.integers(len(wav) - crop_len + 1))
    return wav.samples[start : start + crop_len]


def fit_latent_scale(clips: list[Waveform], codec: Codec) -> float:
    """s = 1 / std of pooled posterior-mean latent entries over the corpus."""
    pool = [codec.encode(wav).ravel() for wav in clips]
    std = float(np.std(np.concatenate(pool)))
    if std <= 1e-12:
        raise ValueError("latents have zero variance; cannot fit a scale")
    return 1.0 / std
