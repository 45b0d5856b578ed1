"""Benchmark inputs, made here and not by the program under test.

Every clip is a noise bed with a random spectral slope plus a few steady
tones, normalised to a fixed peak, so it fills the whole band up to Nyquist.
Band-limited versions come from a scipy Chebyshev-I low-pass run forward and
backward, and rate changes from scipy's polyphase resampler. The same seed
always gives the same arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import signal

CLIP_SECONDS = 1.024
PEAK = 0.7
NOISE_RMS = 0.15


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


def make_clip(rng: np.random.Generator, sample_rate: int, seconds: float) -> np.ndarray:
    """One full-band clip: sloped Gaussian noise plus 4-8 tones."""
    n = int(round(seconds * sample_rate))
    slope = rng.uniform(0.0, 0.5)
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    spec *= (np.maximum(freqs, 80.0) / 80.0) ** -slope
    bed = np.fft.irfft(spec, n)
    x = NOISE_RMS * bed / np.sqrt(np.mean(bed**2))
    t = np.arange(n) / sample_rate
    for _ in range(int(rng.integers(4, 9))):
        f = np.exp(rng.uniform(np.log(80.0), np.log(0.45 * sample_rate)))
        amp = NOISE_RMS * rng.uniform(0.3, 1.0)
        x += amp * np.sin(2 * np.pi * f * t + rng.uniform(0.0, 2 * np.pi))
    return x * (PEAK / np.max(np.abs(x)))


def make_corpus(seed: int, sample_rate: int, count: int, seconds: float = CLIP_SECONDS) -> list[np.ndarray]:
    rng = _rng(seed, sample_rate, count)
    return [make_clip(rng, sample_rate, seconds) for _ in range(count)]


def band_limit(x: np.ndarray, sample_rate: int, cutoff_hz: float) -> np.ndarray:
    """Zero-phase order-8 Chebyshev-I (1 dB ripple) low-pass."""
    sos = signal.cheby1(8, 1.0, cutoff_hz, fs=sample_rate, output="sos")
    return signal.sosfiltfilt(sos, x)


def change_rate(x: np.ndarray, sample_rate: int, target_rate: int) -> np.ndarray:
    """Polyphase resample to target_rate, trimmed to the exact length."""
    g = np.gcd(sample_rate, target_rate)
    y = signal.resample_poly(x, target_rate // g, sample_rate // g)
    return y[: int(round(len(x) * target_rate / sample_rate))]


def long_case(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """upsample_long: a 20 s 8 kHz reference and its input, cut at 2 kHz, given at 4 kHz.

    The reference is twenty 1 s clips in a row, each faded in and out over
    10 ms, so its content changes every second and its LSD averages over
    twenty draws of slope and tones rather than resting on one.
    """
    rng = _rng(seed, 20)
    fade = np.sin(0.5 * np.pi * np.arange(80) / 80) ** 2
    parts = []
    for _ in range(20):
        x = make_clip(rng, 8000, 1.0)
        x[:80] *= fade
        x[-80:] *= fade[::-1]
        parts.append(x)
    ref = np.concatenate(parts)
    return ref, change_rate(band_limit(ref, 8000, 2000.0), 8000, 4000)


def cli_cases(seed: int, count: int) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """upsample_cli: (16 kHz reference, 8 kHz input, cutoff) triples.

    Each input is cut at a cutoff drawn from 1.8-2.2 kHz, then given at 8 kHz.
    """
    rng = _rng(seed, 16)
    cases = []
    for _ in range(count):
        ref = make_clip(rng, 16000, 1.0)
        cutoff = float(rng.uniform(1800.0, 2200.0))
        cases.append((ref, change_rate(band_limit(ref, 16000, cutoff), 16000, 8000), cutoff))
    return cases
