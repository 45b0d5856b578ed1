"""Synthetic corpus generator."""

import numpy as np
import pytest

from wavebridge import toydata
from wavebridge.bandwidth import estimate_f_eff
from wavebridge.toydata import ToyConfig, make_clip, make_corpus, tilted_noise


def test_config_validation():
    with pytest.raises(ValueError):
        ToyConfig(sample_rate=4000)
    assert ToyConfig(duration_s=1.024).n_samples == 8192
    for duration in (0.0, 1e-5, -1.0):
        with pytest.raises(ValueError, match=rf"duration {duration} s gives no sample at 8000 Hz"):
            ToyConfig(duration_s=duration)


def test_tilted_noise_unit_rms(rng):
    for tilt in (0.0, 0.3, 1.0):
        x = tilted_noise(16384, 8000, tilt, rng)
        assert abs(np.sqrt(np.mean(x**2)) - 1.0) < 1e-9


def test_tilted_noise_spectrum_slopes_down():
    rng = np.random.default_rng(7)
    x = tilted_noise(65536, 8000, 1.0, rng)
    spec = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(65536, d=1 / 8000)
    lo = np.mean(spec[(freqs > 100) & (freqs < 200)])
    hi = np.mean(spec[(freqs > 3000) & (freqs < 3800)])
    # one decade above the reference the rolloff is about 20 dB plus change
    assert hi < 0.2 * lo


def test_make_clip_shape_and_peak():
    cfg = ToyConfig()
    clip = make_clip(cfg, np.random.default_rng(0))
    assert clip.sample_rate == 8000
    assert len(clip) == cfg.n_samples
    assert abs(np.max(np.abs(clip.samples)) - toydata.PEAK) < 1e-12


def test_make_clip_deterministic():
    cfg = ToyConfig()
    a = make_clip(cfg, np.random.default_rng(11))
    b = make_clip(cfg, np.random.default_rng(11))
    assert np.array_equal(a.samples, b.samples)


def test_corpus_clips_differ():
    clips = make_corpus(3, ToyConfig(), np.random.default_rng(0))
    assert len(clips) == 3
    assert not np.array_equal(clips[0].samples, clips[1].samples)
    with pytest.raises(ValueError):
        make_corpus(0, ToyConfig(), np.random.default_rng(0))


def test_clips_read_as_full_band():
    # the noise bed reaches Nyquist, so the bandwidth estimator should see
    # (nearly) the whole band on a fresh clip
    cfg = ToyConfig(sample_rate=48000, duration_s=0.5)
    for seed in range(3):
        clip = make_clip(cfg, np.random.default_rng(seed))
        est = estimate_f_eff(clip)
        assert est.f_eff > 0.9 * 24000
