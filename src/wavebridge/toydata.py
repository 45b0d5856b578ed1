"""Synthetic corpus: tilted noise beds with a handful of random tones.

Every clip occupies the full band by construction (the noise bed extends to
Nyquist), so a bandwidth estimate on a fresh clip should come back near
Nyquist, and band-limited versions only ever come from the degradation
pipeline. Tone amplitudes sit below the noise RMS; after Savitzky-Golay
smoothing their mainlobes flatten into the bed instead of reading as the
band edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import Waveform

# The corpus recipe. make_clip's output at a given seed is part of the
# acceptance gate (C07, C08) and of `make-toy`, so these stay fixed.
NOISE_RMS = 0.15
TILT_MAX = 0.5
TONES_MIN, TONES_MAX = 4, 8
TONE_LO_HZ = 80.0  # lowest tone, and the noise bed's rolloff reference
TONE_HI_FRAC = 0.45  # highest tone, as a fraction of the sample rate
TONE_AMP_LO, TONE_AMP_HI = 0.3, 1.0  # tone amplitudes, relative to NOISE_RMS
PEAK = 0.7


@dataclass
class ToyConfig:
    sample_rate: int = 8000
    duration_s: float = 1.024

    def __post_init__(self):
        if self.sample_rate < 8000:
            raise ValueError("sample_rate below 8 kHz")
        if self.n_samples < 1:
            raise ValueError(f"duration {self.duration_s} s gives no sample at {self.sample_rate} Hz")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate))


def tilted_noise(n: int, sample_rate: int, tilt: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian noise with magnitude rolloff (f/TONE_LO_HZ)^-tilt above TONE_LO_HZ, unit RMS."""
    white = rng.standard_normal(n)
    if tilt > 0:
        spec = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        gain = (np.maximum(freqs, TONE_LO_HZ) / TONE_LO_HZ) ** (-tilt)
        white = np.fft.irfft(spec * gain, n=n)
    rms = float(np.sqrt(np.mean(white**2)))
    return white / max(rms, 1e-30)


def make_clip(cfg: ToyConfig, rng: np.random.Generator) -> Waveform:
    n = cfg.n_samples
    tilt = float(rng.uniform(0.0, TILT_MAX))
    x = NOISE_RMS * tilted_noise(n, cfg.sample_rate, tilt, rng)

    k = int(rng.integers(TONES_MIN, TONES_MAX + 1))
    t = np.arange(n) / cfg.sample_rate
    hi = TONE_HI_FRAC * cfg.sample_rate
    for _ in range(k):
        f = math.exp(rng.uniform(math.log(TONE_LO_HZ), math.log(hi)))
        amp = NOISE_RMS * rng.uniform(TONE_AMP_LO, TONE_AMP_HI)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        x = x + amp * np.sin(2.0 * math.pi * f * t + phase)

    peak = float(np.max(np.abs(x)))
    x = x * (PEAK / max(peak, 1e-30))
    return Waveform(x, cfg.sample_rate)


def make_corpus(n_clips: int, cfg: ToyConfig, rng: np.random.Generator) -> list[Waveform]:
    if n_clips < 1:
        raise ValueError("need at least one clip")
    return [make_clip(cfg, rng) for _ in range(n_clips)]
