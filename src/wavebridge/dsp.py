"""Deterministic signal-processing primitives.

Everything here is a pure function: IIR low-pass design (four classic
families, second-order sections), zero-phase application, polyphase
resampling, a zero-padded Hann STFT for spectral metrics, and spectral
low-band replacement. Filter design and resampling are delegated to
scipy.signal; the contracts (stability margin, -3 dB points, reconstruction
error) are enforced by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

FILTER_FAMILIES = ("butterworth", "cheby1", "bessel", "elliptic")

# Poles of every designed cascade must sit inside this radius.
STABILITY_MARGIN = 1e-9


@dataclass
class Waveform:
    """Mono audio buffer: float64 samples at a positive integer sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains NaN or inf")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0


@dataclass
class FilterSpec:
    """Low-pass IIR description: family, order, cutoff, ripple parameters.

    ripple_db applies to cheby1 and elliptic passbands; stop_atten_db to the
    elliptic stopband. Bessel designs are magnitude-normalized so cutoff_hz is
    the -3 dB point like the other families.
    """

    family: str
    order: int
    cutoff_hz: float
    ripple_db: float = 1.0
    stop_atten_db: float = 60.0

    def validate(self, sample_rate: int) -> None:
        if self.family not in FILTER_FAMILIES:
            raise ValueError(f"unknown filter family {self.family!r}; expected one of {FILTER_FAMILIES}")
        if not (1 <= self.order <= 16):
            raise ValueError(f"filter order {self.order} outside [1, 16]")
        if not (0.0 < self.cutoff_hz < sample_rate / 2.0):
            raise ValueError(
                f"cutoff {self.cutoff_hz} Hz must lie strictly inside (0, Nyquist={sample_rate / 2.0})"
            )


def design_lowpass(spec: FilterSpec, sample_rate: int) -> np.ndarray:
    """Design a stable low-pass biquad cascade (scipy 'sos' array, shape (n, 6))."""
    spec.validate(sample_rate)
    kw = dict(fs=sample_rate, btype="lowpass", output="sos")
    if spec.family == "butterworth":
        sos = signal.butter(spec.order, spec.cutoff_hz, **kw)
    elif spec.family == "cheby1":
        sos = signal.cheby1(spec.order, spec.ripple_db, spec.cutoff_hz, **kw)
    elif spec.family == "bessel":
        sos = signal.bessel(spec.order, spec.cutoff_hz, norm="mag", **kw)
    else:
        sos = signal.ellip(spec.order, spec.ripple_db, spec.stop_atten_db, spec.cutoff_hz, **kw)
    for sec in sos:
        poles = np.roots(sec[3:6])
        if poles.size and np.max(np.abs(poles)) >= 1.0 - STABILITY_MARGIN:
            raise RuntimeError(f"designed section is not safely stable: {spec} at fs={sample_rate}")
    return sos


def apply_filter(wav: Waveform, sections: np.ndarray | None) -> Waveform:
    """Run a biquad cascade over a waveform. None/empty sections = identity.

    Zero-phase: filters forward and backward (no group delay, squared
    magnitude response).
    """
    if sections is None or len(sections) == 0:
        return Waveform(wav.samples.copy(), wav.sample_rate)
    x = wav.samples
    if len(x) == 0:
        return Waveform(x.copy(), wav.sample_rate)
    # sosfiltfilt needs padlen < len(x); shrink it for short buffers.
    default_padlen = 3 * (2 * len(sections) + 1 - min((sections[:, 2] == 0).sum(), (sections[:, 5] == 0).sum()))
    padlen = min(int(default_padlen), len(x) - 1)
    y = signal.sosfiltfilt(sections, x, padlen=padlen)
    return Waveform(np.asarray(y, dtype=np.float64), wav.sample_rate)


def lowpass(wav: Waveform, cutoff_hz: float, family: str = "cheby1", order: int = 8) -> Waveform:
    """Convenience: design + apply in one call (the package-default degrader)."""
    sos = design_lowpass(FilterSpec(family, order, cutoff_hz), wav.sample_rate)
    return apply_filter(wav, sos)


def resample(wav: Waveform, target_sr: int) -> Waveform:
    """Polyphase windowed-sinc resampling to target_sr.

    Output length is round(L * target_sr / source_sr); a same-rate call
    returns an identical copy.
    """
    if target_sr <= 0:
        raise ValueError(f"target sample rate must be positive, got {target_sr}")
    if target_sr == wav.sample_rate:
        return Waveform(wav.samples.copy(), wav.sample_rate)
    g = math.gcd(int(target_sr), int(wav.sample_rate))
    up, down = int(target_sr) // g, int(wav.sample_rate) // g
    y = signal.resample_poly(wav.samples, up, down)
    want = int(round(len(wav.samples) * target_sr / wav.sample_rate))
    if len(y) > want:
        y = y[:want]
    elif len(y) < want:
        y = np.concatenate([y, np.zeros(want - len(y))])
    return Waveform(y, target_sr)


@dataclass
class StftParams:
    """STFT analysis parameters. Hann window only; fft_size a power of two."""

    fft_size: int = 2048
    hop: int = 512

    def __post_init__(self):
        if self.fft_size <= 0 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ValueError(f"fft_size must be a positive power of two, got {self.fft_size}")
        if not (0 < self.hop <= self.fft_size):
            raise ValueError(f"hop must be in (0, fft_size], got {self.hop}")

    def window_values(self) -> np.ndarray:
        # Periodic Hann: the right choice for overlap-add analysis.
        n = np.arange(self.fft_size)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.fft_size)


@dataclass
class Spectrogram:
    """Complex STFT matrix, F x T, with the parameters that produced it."""

    bins: np.ndarray
    params: StftParams
    sample_rate: int

    def __post_init__(self):
        self.bins = np.asarray(self.bins)
        if self.bins.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D (freq x time), got shape {self.bins.shape}")
        want_f = self.params.fft_size // 2 + 1
        if self.bins.shape[0] != want_f:
            raise ValueError(f"expected {want_f} frequency bins for fft_size {self.params.fft_size}, got {self.bins.shape[0]}")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.bins)

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.params.fft_size


def stft(wav: Waveform, params: StftParams) -> Spectrogram:
    """Hann STFT of a zero-padded signal, the framing every spectral metric uses.

    The pad of fft_size zeros on each side puts every original sample, the
    first and last included, under as many full windows as an interior one,
    so spectral distances weigh the clip edges like the middle. A hop above
    fft_size/2 is rejected: Hann frames that sparse leave the samples between
    two window centres with uneven, partly near-zero weight.
    """
    n, h = params.fft_size, params.hop
    if h > n // 2:
        raise ValueError(f"hop {h} > fft_size/2 = {n // 2}: Hann frames would weigh samples unevenly")
    x = wav.samples
    pad = n
    covered = len(x) + 2 * pad - n
    nframes = max(1, -(-covered // h) + 1)
    total = n + (nframes - 1) * h
    buf = np.zeros(total)
    buf[pad : pad + len(x)] = x
    idx = np.arange(n)[None, :] + (h * np.arange(nframes))[:, None]
    frames = buf[idx] * params.window_values()[None, :]
    bins = np.fft.rfft(frames, axis=1).T  # F x T
    return Spectrogram(bins, params, wav.sample_rate)


def replace_low_band(generated: Waveform, reference: Waveform, cutoff_hz: float) -> Waveform:
    """Splice the reference's low band (f <= cutoff) under the generated highs.

    Works on the full-signal rFFT, so the operation is linear and exactly
    idempotent: the ref/generated handoff completes within one frequency bin,
    replace(x, x, c) == x to roundoff, and repeated application is a no-op.
    """
    if generated.sample_rate != reference.sample_rate:
        raise ValueError(
            f"sample rates differ: generated {generated.sample_rate}, reference {reference.sample_rate}"
        )
    if len(generated) != len(reference):
        raise ValueError(f"lengths differ: generated {len(generated)}, reference {len(reference)}")
    if not (0.0 < cutoff_hz < reference.nyquist):
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, Nyquist={reference.nyquist})")
    n = len(generated)
    if n == 0:
        return Waveform(generated.samples.copy(), generated.sample_rate)
    gen_f = np.fft.rfft(generated.samples)
    ref_f = np.fft.rfft(reference.samples)
    freqs = np.fft.rfftfreq(n, d=1.0 / generated.sample_rate)
    low = freqs <= cutoff_hz
    out_f = np.where(low, ref_f, gen_f)
    return Waveform(np.fft.irfft(out_f, n=n), generated.sample_rate)
