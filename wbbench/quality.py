"""Log-spectral distance computed apart from the program.

Follows the convention of `wavebridge.metrics.lsd`: STFT magnitudes floored
at 1e-8, log10 of the squared magnitude, root mean square over frequency
bins, plain mean over frames. The framing is this file's own: a periodic
Hann window of 2048 samples, hop 512, n_fft // 2 zeros padded on each side.
"""

from __future__ import annotations

import numpy as np

N_FFT = 2048
HOP = 512
FLOOR = 1e-8


def stft_mag(x: np.ndarray, n_fft: int = N_FFT, hop: int = HOP) -> np.ndarray:
    """Magnitude STFT, shaped (frames, n_fft // 2 + 1)."""
    pad = n_fft // 2
    buf = np.concatenate([np.zeros(pad), np.asarray(x, dtype=np.float64), np.zeros(pad)])
    frames = 1 + (len(buf) - n_fft) // hop
    idx = np.arange(n_fft)[None, :] + hop * np.arange(frames)[:, None]
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
    return np.abs(np.fft.rfft(buf[idx] * win, axis=1))


def lsd_from_mags(ref: np.ndarray, est: np.ndarray, keep: np.ndarray | None = None) -> float:
    """LSD between two (frames, bins) magnitude arrays, over the bins in `keep`."""
    d = 2.0 * (np.log10(np.maximum(ref, FLOOR)) - np.log10(np.maximum(est, FLOOR)))
    if keep is not None:
        d = d[:, keep]
    return float(np.mean(np.sqrt(np.mean(d * d, axis=1))))


def lsd(ref: np.ndarray, est: np.ndarray, sample_rate: int, above_hz: float = 0.0) -> float:
    """LSD of est against ref over bins above `above_hz` (all bins when 0)."""
    n = min(len(ref), len(est))
    r, e = stft_mag(ref[:n]), stft_mag(est[:n])
    keep = None
    if above_hz > 0:
        keep = np.fft.rfftfreq(N_FFT, 1.0 / sample_rate) > above_hz
    return lsd_from_mags(r, e, keep)
