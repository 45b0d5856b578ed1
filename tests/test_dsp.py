"""Filter design, resampling, STFT, and band-replacement contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from wavebridge import dsp
from wavebridge.dsp import (
    FILTER_FAMILIES,
    FilterSpec,
    Spectrogram,
    StftParams,
    Waveform,
    apply_filter,
    design_lowpass,
    lowpass,
    replace_low_band,
    resample,
    stft,
)


def _mag_db(sos, freqs_hz, fs):
    w, h = signal.sosfreqz(sos, worN=np.asarray(freqs_hz, dtype=float), fs=fs)
    return 20.0 * np.log10(np.abs(h))


def _scipy_design(spec, fs):
    """scipy.signal's design of the same low-pass: the reference the numpy designer is held to."""
    kw = dict(fs=fs, btype="lowpass", output="sos")
    if spec.family == "butterworth":
        return signal.butter(spec.order, spec.cutoff_hz, **kw)
    if spec.family == "cheby1":
        return signal.cheby1(spec.order, spec.ripple_db, spec.cutoff_hz, **kw)
    if spec.family == "bessel":
        return signal.bessel(spec.order, spec.cutoff_hz, norm="mag", **kw)
    return signal.ellip(spec.order, spec.ripple_db, spec.stop_atten_db, spec.cutoff_hz, **kw)


def _padlen(sos):
    return 3 * (2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


REFERENCE_GRID = [
    (family, order, fs, fc)
    for family in FILTER_FAMILIES
    for order in range(1, 17)
    for fs in (8000, 16000, 48000)
    for fc in (100.0, 1000.0, 0.45 * fs)
]


# ---------------------------------------------------------------- containers

def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.zeros((2, 3)), 8000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 0)
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 8000)
    w = Waveform(np.zeros(4000), 8000)
    assert len(w) == 4000
    assert w.duration == pytest.approx(0.5)
    assert w.nyquist == 4000.0


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec("gauss", 4, 1000.0).validate(8000)
    with pytest.raises(ValueError):
        FilterSpec("cheby1", 0, 1000.0).validate(8000)
    with pytest.raises(ValueError):
        FilterSpec("cheby1", 17, 1000.0).validate(8000)
    with pytest.raises(ValueError):
        FilterSpec("cheby1", 4, 4000.0).validate(8000)  # at Nyquist
    with pytest.raises(ValueError):
        FilterSpec("cheby1", 4, 0.0).validate(8000)
    with pytest.raises(ValueError):
        FilterSpec("elliptic", 4, 1000.0, ripple_db=60.0, stop_atten_db=60.0).validate(8000)
    FilterSpec("cheby1", 8, 3999.0).validate(8000)


# ------------------------------------------------------------- filter design

def test_butterworth_cutoff_is_minus_3db():
    fs, fc = 48000, 4000.0
    for order in range(2, 11):
        sos = design_lowpass(FilterSpec("butterworth", order, fc), fs)
        db = _mag_db(sos, [fc], fs)[0]
        assert abs(db - (-3.0103)) < 0.1, f"order {order}: {db:.4f} dB at cutoff"


def test_bessel_mag_normalized_to_minus_3db():
    fs, fc = 48000, 4000.0
    for order in (2, 4, 6, 8):
        sos = design_lowpass(FilterSpec("bessel", order, fc), fs)
        db = _mag_db(sos, [fc], fs)[0]
        assert abs(db - (-3.0103)) < 0.1, f"order {order}: {db:.4f} dB at cutoff"


def test_cheby1_passband_ripple_bound():
    fs, fc, rp = 48000, 4000.0, 1.0
    sos = design_lowpass(FilterSpec("cheby1", 8, fc, ripple_db=rp), fs)
    freqs = np.linspace(1.0, fc, 4001)
    db = _mag_db(sos, freqs, fs)
    assert np.max(db) < 1e-6
    assert np.min(db) > -rp - 0.01
    # the passband edge sits exactly at the ripple floor
    assert db[-1] == pytest.approx(-rp, abs=1e-3)


def test_elliptic_stopband_attenuation():
    fs, fc = 48000, 3000.0
    sos = design_lowpass(FilterSpec("elliptic", 6, fc, ripple_db=1.0, stop_atten_db=60.0), fs)
    freqs = np.linspace(2 * fc, fs / 2 * 0.99, 500)
    db = _mag_db(sos, freqs, fs)
    assert np.max(db) < -59.0


def test_all_designs_safely_stable():
    fs = 48000
    for family in FILTER_FAMILIES:
        for order in (2, 4, 8, 10):
            for fc in (100.0, 1000.0, 0.45 * fs):
                sos = design_lowpass(FilterSpec(family, order, fc), fs)
                for sec in sos:
                    poles = np.roots(sec[3:6])
                    if poles.size:
                        assert np.max(np.abs(poles)) < 1.0 - 1e-9


def test_design_matches_scipy_response():
    for family, order, fs, fc in REFERENCE_GRID:
        spec = FilterSpec(family, order, fc)
        _, got = signal.sosfreqz(design_lowpass(spec, fs), worN=1024, fs=fs)
        _, want = signal.sosfreqz(_scipy_design(spec, fs), worN=1024, fs=fs)
        err = _rel_err(got, want)
        assert err <= 1e-9, f"{spec} at {fs} Hz: response off by {err:.2e}"


def test_design_sections_pair_conjugate_poles():
    # one section per conjugate pole pair (plus a first-order one for odd
    # orders), the pole nearest the unit circle last, and a0 = 1 throughout
    for family in FILTER_FAMILIES:
        for order in (5, 8):
            sos = design_lowpass(FilterSpec(family, order, 1000.0), 8000)
            assert sos.shape == ((order + 1) // 2, 6)
            assert np.all(sos[:, 3] == 1.0)
            radius = [np.max(np.abs(np.roots(sec[3:]))) for sec in sos]
            assert np.argmax(radius) == len(sos) - 1
            assert (sos[:, 5] == 0).sum() == order % 2


def test_design_rejects_unstable_sections(monkeypatch):
    # a right-half-plane prototype pole maps outside the unit circle; the
    # check reads only the section coefficients, whatever produced them
    monkeypatch.setattr(dsp, "_prototype", lambda spec: (np.empty(0), np.array([0.5 + 0.5j]), 1.0))
    with pytest.raises(RuntimeError, match="not safely stable"):
        design_lowpass(FilterSpec("butterworth", 2, 1000.0), 8000)


# ----------------------------------------------------------------- filtering

def test_apply_filter_none_is_identity():
    w = Waveform(np.arange(100, dtype=float), 8000)
    for sections in (None, np.empty((0, 6))):
        out = apply_filter(w, sections)
        assert np.array_equal(out.samples, w.samples)
        assert out.samples is not w.samples  # a copy, not a view


def test_apply_filter_is_linear(rng):
    fs = 8000
    sos = design_lowpass(FilterSpec("butterworth", 6, 1500.0), fs)
    x = rng.standard_normal(4000)
    y = rng.standard_normal(4000)
    a, b = 0.7, -1.3
    lhs = apply_filter(Waveform(a * x + b * y, fs), sos).samples
    rhs = a * apply_filter(Waveform(x, fs), sos).samples + b * apply_filter(Waveform(y, fs), sos).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_zero_phase_preserves_low_tone_in_place():
    fs = 8000
    t = np.arange(fs) / fs
    x = np.sin(2 * np.pi * 200.0 * t)
    out = lowpass(Waveform(x, fs), 2000.0, family="butterworth", order=6).samples
    mid = slice(1000, 7000)
    assert np.max(np.abs(out[mid] - x[mid])) < 1e-3  # no group delay, no droop


def test_lowpass_kills_tone_above_cutoff():
    fs, n = 8000, 8000
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 500.0 * t) + np.sin(2 * np.pi * 3000.0 * t)
    out = lowpass(Waveform(x, fs), 1500.0, family="cheby1", order=8).samples
    spec = np.abs(np.fft.rfft(out))
    assert spec[500] > 0.8 * (n / 2)     # passband tone survives
    assert spec[3000] < 1e-3 * (n / 2)   # stopband tone is >= 60 dB down


def test_apply_filter_short_and_empty_buffers():
    fs = 8000
    sos = design_lowpass(FilterSpec("butterworth", 4, 1000.0), fs)
    out = apply_filter(Waveform(np.zeros(0), fs), sos)
    assert len(out) == 0
    out = apply_filter(Waveform(np.ones(12), fs), sos)  # shorter than default padlen
    assert len(out) == 12
    assert np.all(np.isfinite(out.samples))


def test_apply_filter_matches_sosfiltfilt():
    # scipy's own recursion drifts from a long-double one by up to 2.5e-12 at
    # orders 14-16 (test_apply_filter_beats_float64_recursion), so the tight
    # bound stops at order 13
    rng = np.random.default_rng(7)
    for family, order, fs, fc in REFERENCE_GRID:
        sos = design_lowpass(FilterSpec(family, order, fc), fs)
        padlen = _padlen(sos)
        bound = 1e-9
        if fs <= 16000 and fc >= 1000.0:
            bound = 1e-12 if order <= 13 else 1e-11
        for n in (1, 2, padlen + 1, 8192):
            x = rng.standard_normal(n)
            want = signal.sosfiltfilt(sos, x, padlen=min(padlen, n - 1))
            err = _rel_err(apply_filter(Waveform(x, fs), sos).samples, want)
            assert err <= bound, f"{family} order {order}, {fc} Hz at {fs} Hz, n={n}: off by {err:.2e}"


def _filtfilt_longdouble(sos, x, padlen):
    """sosfiltfilt's steps in transposed direct form II, one sample at a time, in long double."""
    sos = sos.astype(np.longdouble)
    b0, b1, b2, _, a1, a2 = sos.T
    r0, r1 = b1 - a1 * b0, b2 - a2 * b0
    z0 = (r0 + r1) / (1 + a1 + a2)
    scale = np.cumprod(np.concatenate([[1], (b0 + b1 + b2) / (1 + a1 + a2)]))[:-1]
    zi = np.stack([z0, r1 - a2 * z0], axis=1) * scale[:, None]

    def run(y, first):
        for (c0, c1, c2, _, d1, d2), (s0, s1) in zip(sos, zi * first):
            out = np.empty_like(y)
            for i, v in enumerate(y):
                out[i] = c0 * v + s0
                s0, s1 = c1 * v - d1 * out[i] + s1, c2 * v - d2 * out[i]
            y = out
        return y

    x = x.astype(np.longdouble)
    ext = np.concatenate([2 * x[0] - x[padlen:0:-1], x, 2 * x[-1] - x[-2 : -padlen - 2 : -1]])
    y = run(ext, ext[0])[::-1]
    y = run(y, y[0])[::-1]
    return y[padlen:-padlen].astype(np.float64)


def test_apply_filter_beats_float64_recursion():
    # where scipy and the block filter disagree by more than 1e-12, the block
    # filter is the one nearer a long-double run of the same recursion
    fs = 16000
    sos = design_lowpass(FilterSpec("cheby1", 16, 1000.0), fs)
    x = np.random.default_rng(3).standard_normal(512)
    exact = _filtfilt_longdouble(sos, x, _padlen(sos))
    ours = _rel_err(apply_filter(Waveform(x, fs), sos).samples, exact)
    theirs = _rel_err(signal.sosfiltfilt(sos, x, padlen=_padlen(sos)), exact)
    assert ours <= 1e-12
    assert ours <= theirs


# ---------------------------------------------------------------- resampling

def test_resample_same_rate_is_copy():
    w = Waveform(np.arange(50, dtype=float), 8000)
    out = resample(w, 8000)
    assert np.array_equal(out.samples, w.samples)
    assert out.samples is not w.samples


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        resample(Waveform(np.zeros(10), 8000), 0)


@given(
    n=st.integers(min_value=1, max_value=5000),
    rates=st.sampled_from([(8000, 24000), (8000, 12000), (48000, 16000), (44100, 48000), (16000, 8000)]),
)
@settings(max_examples=40, deadline=None)
def test_resample_length_formula(n, rates):
    src, dst = rates
    out = resample(Waveform(np.zeros(n), src), dst)
    assert len(out) == int(round(n * dst / src))
    assert out.sample_rate == dst


def test_resample_preserves_tone_frequency():
    for src, dst, f0 in ((8000, 24000, 1000.0), (48000, 16000, 3000.0)):
        n = src  # one second, integer-Hz bins
        t = np.arange(n) / src
        x = np.sin(2 * np.pi * f0 * t)
        out = resample(Waveform(x, src), dst)
        spec = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spec) * dst / len(out)
        assert abs(peak_hz - f0) < 2.0


def test_resample_round_trip_bandlimited(rng):
    fs = 8000
    x = lowpass(Waveform(rng.standard_normal(8000), fs), 3000.0, family="butterworth", order=8).samples
    back = resample(resample(Waveform(x, fs), 24000), fs).samples
    mid = slice(500, 7500)
    rel = np.linalg.norm(back[mid] - x[mid]) / np.linalg.norm(x[mid])
    # limited by the polyphase anti-alias filter's passband ripple (~1.6e-3)
    assert rel < 5e-3


def test_resample_matches_resample_poly():
    rng = np.random.default_rng(11)
    for up, down in ((2, 1), (1, 2), (3, 2), (6, 1), (160, 147)):
        for n in (1, 2, 3, 8000, 8193):
            x = rng.standard_normal(n)
            got = resample(Waveform(x, 100 * down), 100 * up).samples
            want = signal.resample_poly(x, up, down)
            k = min(len(got), len(want))  # resample trims or zero-pads to round(n * up / down)
            assert np.all(got[k:] == 0.0)
            if k:
                err = np.max(np.abs(got[:k] - want[:k])) / np.max(np.abs(want))
                assert err <= 1e-12, f"{up}/{down}, n={n}: off by {err:.2e}"


def test_resample_empty_clip():
    out = resample(Waveform(np.zeros(0), 8000), 16000)
    assert len(out) == 0 and out.sample_rate == 16000


# ---------------------------------------------------------------------- stft

def test_stft_params_validation():
    with pytest.raises(ValueError):
        StftParams(fft_size=1000, hop=250)
    with pytest.raises(ValueError):
        StftParams(fft_size=512, hop=0)
    with pytest.raises(ValueError):
        StftParams(fft_size=512, hop=1024)
    with pytest.raises(ValueError):
        stft(Waveform(np.zeros(100), 8000), StftParams(fft_size=512, hop=512))


def test_stft_shape_and_bin_hz(rng):
    params = StftParams(fft_size=512, hop=128)
    spec = stft(Waveform(rng.standard_normal(3000), 8000), params)
    assert spec.bins.shape[0] == 257
    assert spec.bin_hz == pytest.approx(8000 / 512)
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((100, 5), dtype=complex), params, 8000)


@given(n=st.integers(min_value=1, max_value=2000), hop=st.sampled_from([64, 128]))
@settings(max_examples=30, deadline=None)
def test_stft_weighs_every_sample_equally(n, hop):
    # The zero padding puts every sample, the edges included, under a full set
    # of windows. For a periodic Hann and hop <= fft_size/4 the squared windows
    # then sum to 3/8 * fft_size/hop at every sample, so the frames' energy
    # (Parseval over each rFFT) is that constant times the signal's.
    size = 512
    rng = np.random.default_rng(n * 1000 + hop)
    x = rng.standard_normal(n)
    p = np.abs(stft(Waveform(x, 8000), StftParams(fft_size=size, hop=hop)).bins) ** 2
    frame_energy = (p[0] + p[-1] + 2.0 * p[1:-1].sum(axis=0)).sum() / size
    assert frame_energy == pytest.approx(3.0 / 8.0 * size / hop * np.sum(x**2), rel=1e-10)


def test_stft_constant_signal_interior_frame():
    # A periodic Hann window has exactly three nonzero rFFT bins: n/2 at DC
    # and -n/4 at +-1. A constant input reproduces that in every frame with
    # full window coverage.
    n = 512
    params = StftParams(fft_size=n, hop=128)
    spec = stft(Waveform(np.ones(4096), 8000), params)
    mid = spec.bins.shape[1] // 2
    col = spec.bins[:, mid]
    assert col[0].real == pytest.approx(n / 2, abs=1e-9)
    assert abs(col[1]) == pytest.approx(n / 4, abs=1e-9)
    assert np.max(np.abs(col[2:])) < 1e-9


# --------------------------------------------------------- band replacement

def test_replace_low_band_identity(rng):
    fs = 8000
    x = Waveform(rng.standard_normal(4096), fs)
    out = replace_low_band(x, x, 1500.0)
    assert np.max(np.abs(out.samples - x.samples)) < 1e-12


def test_replace_low_band_is_idempotent(rng):
    fs = 8000
    gen = Waveform(rng.standard_normal(4096), fs)
    ref = Waveform(rng.standard_normal(4096), fs)
    once = replace_low_band(gen, ref, 1500.0)
    twice = replace_low_band(once, ref, 1500.0)
    assert np.max(np.abs(twice.samples - once.samples)) < 1e-12


def test_replace_low_band_splices_bins(rng):
    fs, n = 8000, 4096
    gen = Waveform(rng.standard_normal(n), fs)
    ref = Waveform(rng.standard_normal(n), fs)
    cutoff = 1500.0
    out = replace_low_band(gen, ref, cutoff)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    out_f = np.fft.rfft(out.samples)
    gen_f = np.fft.rfft(gen.samples)
    ref_f = np.fft.rfft(ref.samples)
    low = freqs <= cutoff
    assert np.max(np.abs(out_f[low] - ref_f[low])) < 1e-9
    assert np.max(np.abs(out_f[~low] - gen_f[~low])) < 1e-9


def test_replace_low_band_validation(rng):
    a = Waveform(rng.standard_normal(100), 8000)
    b = Waveform(rng.standard_normal(100), 16000)
    with pytest.raises(ValueError):
        replace_low_band(a, b, 1000.0)
    c = Waveform(rng.standard_normal(99), 8000)
    with pytest.raises(ValueError):
        replace_low_band(a, c, 1000.0)
    d = Waveform(rng.standard_normal(100), 8000)
    with pytest.raises(ValueError):
        replace_low_band(a, d, 4000.0)
    with pytest.raises(ValueError):
        replace_low_band(a, d, 0.0)
