"""Objective audio metrics.

lsd / lsd_band / spectral_ssim compare spectrograms (see dsp.stft);
mrstft compares batched waveforms across several STFT resolutions as an
autodiff graph on nn.stft_mag frames; the codec trains on it.

Conventions, fixed across the package:
  - LSD uses log10 on squared magnitudes floored at 1e-8, root-mean over
    frequency, plain mean over frames.
  - spectral SSIM runs on log10 magnitudes jointly min-max normalized to
    [0, 1] (stability constants 0.01 / 0.02 assume a unit range), averaged
    over non-overlapping 7x7 blocks, remainder dropped.
  - mrstft floors magnitudes at 1e-7 and uses the natural log for its L1 term,
    normalized by frame count only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .dsp import Spectrogram, StftParams

LSD_FLOOR = 1e-8
MRSTFT_FLOOR = 1e-7
# The analysis on which `eval` and the augmentation search score LSD.
EVAL_STFT = StftParams(fft_size=2048, hop=512)


@dataclass
class SsimConfig:
    block: int = 7
    eps1: float = 0.01
    eps2: float = 0.02


@dataclass
class MrStftConfig:
    resolutions: list[StftParams] = field(
        default_factory=lambda: [
            StftParams(512, 128),
            StftParams(1024, 256),
            StftParams(2048, 512),
        ]
    )

    def __post_init__(self):
        if not self.resolutions:
            raise ValueError("need at least one STFT resolution")

    @property
    def longest_frame(self) -> int:
        """Shortest signal, in samples, that every resolution can frame."""
        return max(p.fft_size for p in self.resolutions)


def _check_shapes(ref: Spectrogram, est: Spectrogram) -> None:
    if ref.bins.shape != est.bins.shape:
        raise ValueError(f"spectrogram shapes differ: {ref.bins.shape} vs {est.bins.shape}")


def _log_sq_ratio(ref: Spectrogram, est: Spectrogram) -> np.ndarray:
    s = np.maximum(ref.magnitude(), LSD_FLOOR)
    s_hat = np.maximum(est.magnitude(), LSD_FLOOR)
    return 2.0 * (np.log10(s) - np.log10(s_hat))


def lsd(ref: Spectrogram, est: Spectrogram) -> float:
    """Log-spectral distance: mean over frames of the RMS log10 ratio over bins."""
    _check_shapes(ref, est)
    d = _log_sq_ratio(ref, est)
    return float(np.mean(np.sqrt(np.mean(d * d, axis=0))))


def lsd_band(ref: Spectrogram, est: Spectrogram, f1: float, f2: float) -> float:
    """LSD restricted to bins with f1 <= bin frequency <= f2 (inclusive)."""
    _check_shapes(ref, est)
    nyq = ref.sample_rate / 2.0
    if not (0.0 <= f1 < f2 <= nyq + 1e-9):
        raise ValueError(f"band [{f1}, {f2}] invalid for Nyquist {nyq}")
    freqs = np.arange(ref.bins.shape[0]) * ref.bin_hz
    keep = (freqs >= f1) & (freqs <= f2)
    if not np.any(keep):
        raise ValueError(f"band [{f1}, {f2}] Hz contains no bins (bin spacing {ref.bin_hz:.2f} Hz)")
    d = _log_sq_ratio(ref, est)[keep]
    return float(np.mean(np.sqrt(np.mean(d * d, axis=0))))


def spectral_ssim(ref: Spectrogram, est: Spectrogram, cfg: SsimConfig | None = None) -> float:
    """Blockwise SSIM on jointly normalized log spectrograms, mean over blocks."""
    cfg = cfg or SsimConfig()
    _check_shapes(ref, est)
    b = cfg.block
    nf, nt = ref.bins.shape[0] // b, ref.bins.shape[1] // b
    if nf < 1 or nt < 1:
        raise ValueError(f"spectrograms {ref.bins.shape} smaller than one {b}x{b} block")

    a = np.log10(np.maximum(ref.magnitude(), LSD_FLOOR))
    c = np.log10(np.maximum(est.magnitude(), LSD_FLOOR))
    lo = min(a.min(), c.min())
    hi = max(a.max(), c.max())
    if hi - lo < 1e-12:
        a = np.full_like(a, 0.5)
        c = np.full_like(c, 0.5)
    else:
        a = (a - lo) / (hi - lo)
        c = (c - lo) / (hi - lo)

    def blocks(m):
        return m[: nf * b, : nt * b].reshape(nf, b, nt, b).transpose(0, 2, 1, 3).reshape(nf * nt, b * b)

    pa, pc = blocks(a), blocks(c)
    mu_a, mu_c = pa.mean(axis=1), pc.mean(axis=1)
    var_a, var_c = pa.var(axis=1), pc.var(axis=1)
    cov = (pa * pc).mean(axis=1) - mu_a * mu_c
    num = (2.0 * mu_a * mu_c + cfg.eps1) * (2.0 * cov + cfg.eps2)
    den = (mu_a**2 + mu_c**2 + cfg.eps1) * (var_a + var_c + cfg.eps2)
    return float(np.mean(num / den))


def mrstft(est: nn.Tensor, ref: np.ndarray, cfg: MrStftConfig) -> nn.Tensor:
    """Multi-resolution STFT distance of (N, L) waveforms, mean over the batch.

    Per resolution and item: ||Mr - Me||_F / ||Mr||_F + (1/T) * sum |ln(Mr/Me)|,
    with Mr/Me the floored magnitude STFTs of ref/est. Gradients flow into est
    only; ref is a constant. Zero iff the waveforms match up to the floor.
    """
    total = None
    for params in cfg.resolutions:
        ref_t = nn.Tensor(np.maximum(nn.stft_mag(nn.Tensor(ref), params).data, MRSTFT_FLOOR))  # (N, T, F)
        est_t = nn.maximum_const(nn.stft_mag(est, params), MRSTFT_FLOOR)
        diff = est_t - ref_t
        sc_num = nn.sqrt(nn.tsum(diff * diff, axis=(1, 2)))
        sc_den = 1.0 / np.sqrt(np.sum(ref_t.data**2, axis=(1, 2)))
        sc = nn.tmean(sc_num * nn.Tensor(sc_den))
        log_diff = nn.absolute(nn.log(est_t) - nn.log(ref_t))
        frames = est_t.shape[1]
        log_term = nn.tmean(nn.tsum(log_diff, axis=(1, 2)) * nn.Tensor(1.0 / frames))
        term = sc + log_term
        total = term if total is None else total + term
    return total

