"""Band-edge estimator: stencil exactness, invariances, and accuracy."""

import numpy as np
import pytest

from wavebridge.bandwidth import (
    BandwidthEstimate,
    curvature,
    estimate_f_eff,
    magnitude_spectrum,
    savgol_smooth,
)
from wavebridge.dsp import Waveform, lowpass


def _degraded_noise(cutoff_hz, fs=48000, seconds=1.0, seed=0):
    rng = np.random.default_rng(seed)
    w = Waveform(rng.standard_normal(int(fs * seconds)), fs)
    return lowpass(w, cutoff_hz, family="cheby1", order=8)


# ------------------------------------------------------------ building blocks

def test_curvature_exact_on_quadratic():
    i = np.arange(50, dtype=np.float64)
    a, b, c = 0.37, -1.2, 5.0
    out = curvature(a * i**2 + b * i + c)
    assert np.max(np.abs(out[2:-2] - 2.0 * a)) < 1e-9
    assert np.all(out[:2] == 0.0) and np.all(out[-2:] == 0.0)


def test_curvature_exact_on_quartic():
    # the five-point stencil's error term starts at the sixth derivative
    i = np.arange(30, dtype=np.float64)
    out = curvature(i**4)
    want = 12.0 * i[2:-2] ** 2
    assert np.max(np.abs(out[2:-2] - want)) < 1e-7


def test_curvature_needs_five_points():
    with pytest.raises(ValueError):
        curvature(np.zeros(4))


def test_savgol_reproduces_cubic():
    i = np.arange(500, dtype=np.float64)
    x = 2.0 + 0.3 * i - 0.01 * i**2 + 1e-4 * i**3
    out = savgol_smooth(x)
    assert np.max(np.abs(out - x)) < 1e-8 * np.max(np.abs(x))


def test_savgol_matches_scipy():
    # length 101 equals the window: the two edge fits then share one window
    from scipy.signal import savgol_filter

    rng = np.random.default_rng(5)
    for n in (101, 102, 4097):
        x = rng.standard_normal(n) + np.linspace(0.0, 50.0, n) ** 2
        want = savgol_filter(x, 101, 3)
        err = np.max(np.abs(savgol_smooth(x) - want)) / np.max(np.abs(want))
        assert err <= 1e-12, f"n={n}: off by {err:.2e}"


def test_savgol_rejects_short_input():
    with pytest.raises(ValueError):
        savgol_smooth(np.zeros(100))  # window is 101


def test_magnitude_spectrum_shape_and_tone():
    n, fs = 4096, 8000
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * (1000.0 * n / fs / n * fs) * t)  # bin-aligned 1 kHz
    mag = magnitude_spectrum(Waveform(x, fs))
    assert len(mag) == n // 2 + 1
    k = round(1000.0 * n / fs)
    # a Hann-windowed unit sine peaks at n/4 (np.hanning is symmetric, so it
    # reads a hair below: 1023.75 at n = 4096)
    assert mag[k] == pytest.approx(n / 4, rel=3e-4)
    with pytest.raises(ValueError):
        magnitude_spectrum(Waveform(np.zeros(0), fs))


def test_estimate_dataclass_validation():
    with pytest.raises(ValueError):
        BandwidthEstimate(1000.0, 0, 100)
    with pytest.raises(ValueError):
        BandwidthEstimate(1000.0, 101, 100)


# -------------------------------------------------------------- the estimator

def test_estimate_rejects_short_clip():
    with pytest.raises(ValueError):
        estimate_f_eff(Waveform(np.zeros(1000), 8000))  # 0.125 s


def test_short_clip_message_shows_sample_counts():
    # 999 samples at 4 kHz is 0.24975 s, which three decimals print as 0.250
    with pytest.raises(ValueError, match="999 samples < 1000"):
        estimate_f_eff(Waveform(np.zeros(999), 4000))
    estimate_f_eff(Waveform(np.zeros(1000), 4000))  # exactly 0.25 s is enough


def test_estimate_scale_invariance():
    wav = _degraded_noise(6000.0, seed=3)
    base = estimate_f_eff(wav)
    for scale in (1e-3, 4.0, 1e6):
        est = estimate_f_eff(Waveform(wav.samples * scale, wav.sample_rate))
        assert est.f_eff == base.f_eff
        assert est.trunc_index == base.trunc_index


def test_estimate_monotone_in_cutoff():
    lo = estimate_f_eff(_degraded_noise(4000.0, seed=7))
    hi = estimate_f_eff(_degraded_noise(8000.0, seed=7))
    bin_hz = lo.f_eff / lo.trunc_index
    assert lo.f_eff <= hi.f_eff + bin_hz


def test_estimate_silence_is_nyquist():
    est = estimate_f_eff(Waveform(np.zeros(48000), 48000))
    assert est.f_eff == 24000.0


def test_estimate_full_band_noise_is_nyquist():
    rng = np.random.default_rng(11)
    est = estimate_f_eff(Waveform(rng.standard_normal(48000), 48000))
    assert est.f_eff == 24000.0


def test_estimate_fields_consistent():
    est = estimate_f_eff(_degraded_noise(5000.0, seed=5))
    assert 0 < est.trunc_index <= est.spectrum_len
    assert est.f_eff == pytest.approx(est.trunc_index / est.spectrum_len * 24000.0)


def test_estimate_accuracy_on_known_cutoffs():
    rng = np.random.default_rng(99)
    cutoffs = np.exp(rng.uniform(np.log(2000.0), np.log(20000.0), size=15))
    bad = []
    for i, fc in enumerate(cutoffs):
        est = estimate_f_eff(_degraded_noise(float(fc), seed=1000 + i))
        if abs(est.f_eff - fc) > 0.10 * fc:
            bad.append((float(fc), est.f_eff))
    assert not bad, f"outside 10%: {bad}"


# ------------------------------------------------------------- tonal spectra
# A tone stack is quiet and flat between its harmonics and below its
# fundamental; those gaps lie inside the band and must not read as its edge.

def _cut_at_2k(x, fs=8000):
    return lowpass(Waveform(x, fs), 2000.0, family="cheby1", order=8)


def test_estimate_harmonic_stacks_read_their_cutoff():
    fs = 8000
    t = np.arange(fs) / fs
    bad = []
    for seed in range(16):
        rng = np.random.default_rng(seed)
        f0 = rng.uniform(110.0, 500.0)
        k = np.arange(1, int(fs / 2 / f0) + 1)
        phases = rng.uniform(0.0, 2 * np.pi, len(k))
        x = (k ** -rng.uniform(0.6, 1.4) * np.sin(2 * np.pi * f0 * k * t[:, None] + phases)).sum(axis=1)
        est = estimate_f_eff(_cut_at_2k(x)).f_eff
        # the edge cannot be placed finer than the harmonic spacing below it
        if not 2000.0 - f0 <= est <= 2200.0:
            bad.append((round(f0), est))
    assert not bad, f"(f0, reading) outside [2000 - f0, 2200] Hz: {bad}"


def test_estimate_sawtooth_reads_its_cutoff():
    fs = 8000
    t = np.arange(fs) / fs
    saw = 2.0 * ((200.0 * t) % 1.0) - 1.0
    est = estimate_f_eff(_cut_at_2k(saw)).f_eff
    assert est == pytest.approx(2000.0, rel=0.10)
