"""Metric oracles: brute-force recomputation and frozen closed-form values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebridge import nn
from wavebridge.dsp import Spectrogram, StftParams
from wavebridge.metrics import (
    LSD_FLOOR,
    MRSTFT_FLOOR,
    MrStftConfig,
    SsimConfig,
    lsd,
    lsd_band,
    mrstft,
    spectral_ssim,
)


def _mrstft_pair(ref, est, cfg=None):
    """mrstft of one waveform pair, as a float."""
    return float(mrstft(nn.Tensor(est[None, :]), ref[None, :], cfg or MrStftConfig()).data)


def _spec(mag, sr=8000, fft_size=256):
    assert mag.shape[0] == fft_size // 2 + 1
    return Spectrogram(mag.astype(complex), StftParams(fft_size, fft_size // 4), sr)


def _rand_spec(rng, fft_size=256, frames=6, lo=1e-2, hi=10.0, sr=8000):
    mag = rng.uniform(lo, hi, size=(fft_size // 2 + 1, frames))
    return _spec(mag, sr=sr, fft_size=fft_size)


# ----------------------------------------------------------------------- lsd

def test_lsd_identity_is_zero(rng):
    s = _rand_spec(rng)
    assert lsd(s, s) == 0.0


def test_lsd_brute_force(rng):
    ref = _rand_spec(rng)
    est = _rand_spec(rng)
    want = 0.0
    f_bins, t_frames = ref.bins.shape
    for t in range(t_frames):
        acc = 0.0
        for f in range(f_bins):
            a = max(abs(ref.bins[f, t]), LSD_FLOOR)
            b = max(abs(est.bins[f, t]), LSD_FLOOR)
            acc += (math.log10(a**2) - math.log10(b**2)) ** 2
        want += math.sqrt(acc / f_bins)
    want /= t_frames
    assert lsd(ref, est) == pytest.approx(want, abs=1e-9)


def test_lsd_factor_ten_is_two(rng):
    s = _rand_spec(rng, lo=1e-3, hi=1.0)
    t = _spec(s.bins.real * 10.0)
    assert lsd(s, t) == pytest.approx(2.0, abs=1e-9)
    assert lsd(t, s) == pytest.approx(2.0, abs=1e-9)


@given(c=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_lsd_constant_ratio(c):
    rng = np.random.default_rng(7)
    s = _rand_spec(rng, lo=1e-2, hi=1.0)  # floor inactive for c >= 0.1
    t = _spec(s.bins.real * c)
    assert lsd(s, t) == pytest.approx(abs(2.0 * math.log10(c)), abs=1e-9)


def test_lsd_shape_mismatch(rng):
    with pytest.raises(ValueError):
        lsd(_rand_spec(rng, frames=6), _rand_spec(rng, frames=7))


def test_lsd_band_full_band_matches_lsd(rng):
    ref, est = _rand_spec(rng), _rand_spec(rng)
    assert lsd_band(ref, est, 0.0, 4000.0) == pytest.approx(lsd(ref, est), abs=1e-12)


@pytest.mark.parametrize("sr", [8000, 44100, 48000])
@pytest.mark.parametrize("fft_size", [256, 2048])
def test_lsd_is_the_all_bin_formula_bit_for_bit(rng, sr, fft_size):
    # lsd is lsd_band over [0, Nyquist]: for a power-of-two FFT the last bin
    # sits at Nyquist exactly, so the band keeps every bin
    ref, est = _rand_spec(rng, fft_size=fft_size, sr=sr), _rand_spec(rng, fft_size=fft_size, sr=sr)
    assert (ref.bins.shape[0] - 1) * ref.bin_hz == sr / 2.0
    d = 2.0 * (np.log10(np.maximum(ref.magnitude(), LSD_FLOOR)) - np.log10(np.maximum(est.magnitude(), LSD_FLOOR)))
    want = float(np.mean(np.sqrt(np.mean(d * d, axis=0))))
    assert lsd(ref, est) == want == lsd_band(ref, est, 0.0, sr / 2.0)


def test_lsd_band_brute_force(rng):
    ref, est = _rand_spec(rng), _rand_spec(rng)
    f1, f2 = 1000.0, 3000.0
    bin_hz = ref.bin_hz
    rows = [f for f in range(ref.bins.shape[0]) if f1 <= f * bin_hz <= f2]
    want = 0.0
    for t in range(ref.bins.shape[1]):
        acc = 0.0
        for f in rows:
            a = max(abs(ref.bins[f, t]), LSD_FLOOR)
            b = max(abs(est.bins[f, t]), LSD_FLOOR)
            acc += (2.0 * (math.log10(a) - math.log10(b))) ** 2
        want += math.sqrt(acc / len(rows))
    want /= ref.bins.shape[1]
    assert lsd_band(ref, est, f1, f2) == pytest.approx(want, abs=1e-9)


def test_lsd_band_validation(rng):
    ref, est = _rand_spec(rng), _rand_spec(rng)
    with pytest.raises(ValueError):
        lsd_band(ref, est, 3000.0, 1000.0)
    with pytest.raises(ValueError):
        lsd_band(ref, est, 0.0, 5000.0)  # beyond Nyquist
    with pytest.raises(ValueError):
        lsd_band(ref, est, 1001.0, 1002.0)  # between bins (spacing 31.25 Hz)


# ---------------------------------------------------------------------- ssim

def test_ssim_identity_is_one(rng):
    s = _rand_spec(rng, fft_size=512, frames=20)
    assert spectral_ssim(s, s) == pytest.approx(1.0, abs=1e-12)


def test_ssim_identical_constants_is_one():
    mag = np.full((129, 8), 3.0)
    s, t = _spec(mag), _spec(mag.copy())
    assert spectral_ssim(s, t) == 1.0


def test_ssim_distinct_constants_frozen_value():
    # log-magnitudes normalize to all-zeros vs all-ones: closed form 0.01/1.01
    s = _spec(np.full((129, 8), 1.0))
    t = _spec(np.full((129, 8), 10.0))
    want = 0.01 / 1.01
    assert spectral_ssim(s, t) == pytest.approx(want, rel=1e-12)
    assert spectral_ssim(t, s) == pytest.approx(want, rel=1e-12)


def test_ssim_between_zero_and_one(rng):
    for _ in range(5):
        a, b = _rand_spec(rng, frames=14), _rand_spec(rng, frames=14)
        v = spectral_ssim(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12


def test_ssim_too_small_raises(rng):
    small = _spec(np.abs(np.random.default_rng(0).uniform(0.1, 1, (129, 6))))
    with pytest.raises(ValueError):
        spectral_ssim(small, small)  # 6 frames < 7x7 block


def test_ssim_block_config():
    mag = np.abs(np.random.default_rng(0).uniform(0.1, 1, (129, 6)))
    s = _spec(mag)
    assert spectral_ssim(s, s, SsimConfig(block=3)) == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------------- mrstft

def _mags(x, params):
    """Magnitude STFT of one signal with the loss framing, F x T."""
    return nn.stft_mag(nn.Tensor(x[None, :]), params).data[0].T


def test_stft_magnitudes_matches_manual(rng):
    # the loss framing is nn.stft_mag: frame k is x[k*hop : k*hop + fft], no padding
    params = StftParams(512, 128)
    x = rng.standard_normal(2000)
    got = _mags(x, params)
    w = params.window_values()
    nframes = 1 + (len(x) - 512) // 128
    assert got.shape == (257, nframes)
    for k in (0, nframes // 2, nframes - 1):
        manual = np.abs(np.fft.rfft(x[k * 128 : k * 128 + 512] * w))
        assert np.max(np.abs(got[:, k] - manual)) < 1e-12


def test_mrstft_identity_is_zero(rng):
    x = rng.standard_normal(8192)
    assert _mrstft_pair(x, x) == 0.0


def test_mrstft_validation():
    with pytest.raises(ValueError):
        MrStftConfig(resolutions=[])


def test_mrstft_brute_force_single_resolution(rng):
    params = StftParams(512, 128)
    cfg = MrStftConfig(resolutions=[params])
    x = rng.standard_normal(3000)
    y = x + 0.1 * rng.standard_normal(3000)
    mr = np.maximum(_mags(x, params), MRSTFT_FLOOR)
    me = np.maximum(_mags(y, params), MRSTFT_FLOOR)
    sc = 0.0
    num = 0.0
    den = 0.0
    log_l1 = 0.0
    for f in range(mr.shape[0]):
        for t in range(mr.shape[1]):
            num += (mr[f, t] - me[f, t]) ** 2
            den += mr[f, t] ** 2
            log_l1 += abs(math.log(mr[f, t]) - math.log(me[f, t]))
    want = math.sqrt(num) / math.sqrt(den) + log_l1 / mr.shape[1]
    got = _mrstft_pair(x, y, cfg)
    assert got == pytest.approx(want, rel=1e-9)


def test_mrstft_factor_two_frozen_value():
    # sc contributes exactly 1 per resolution; the log-L1 term contributes
    # (fft/2 + 1) * ln 2 per resolution, frame counts cancelling. With the
    # default three resolutions: 3 + (257 + 513 + 1025) * ln 2.
    rng = np.random.default_rng(2024)
    x = rng.standard_normal(8192) + 0.0
    cfg = MrStftConfig()
    for params in cfg.resolutions:  # precondition: the floor must be inactive
        assert _mags(x, params).min() > 1e-6
    want = 3.0 + 1795.0 * math.log(2.0)
    assert _mrstft_pair(x, 2.0 * x, cfg) == pytest.approx(want, rel=1e-9)


def test_mrstft_nonnegative(rng):
    for _ in range(3):
        assert _mrstft_pair(rng.standard_normal(4096), rng.standard_normal(4096)) > 0.0


def test_mrstft_batch_is_mean_of_pairs(rng):
    # the batch mean vae_loss trains on is the mean of per-clip values
    ref = rng.standard_normal((3, 4096))
    est = ref + 0.2 * rng.standard_normal((3, 4096))
    cfg = MrStftConfig()
    got = float(mrstft(nn.Tensor(est), ref, cfg).data)
    want = np.mean([_mrstft_pair(r, e, cfg) for r, e in zip(ref, est)])
    assert got == pytest.approx(want, rel=1e-12)


def test_mrstft_gradient(rng):
    # floor, log, abs and sqrt all sit between est and the loss
    cfg = MrStftConfig(resolutions=[StftParams(64, 16), StftParams(128, 32)])
    ref = rng.standard_normal((2, 256))
    est = nn.Tensor(ref + 0.3 * rng.standard_normal((2, 256)), requires_grad=True)
    worst = nn.grad_check(lambda: mrstft(est, ref, cfg), [est], rng, n_samples=100)
    assert worst < 1e-4, f"max rel grad error {worst:.3e}"
