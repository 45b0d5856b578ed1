import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebridge.wavio import VALID_ENCODINGS, WavFormatError, read_wav, write_wav


def test_float32_round_trip(tmp_path, rng):
    x = rng.uniform(-0.9, 0.9, size=4000)
    p = str(tmp_path / "a.wav")
    write_wav(p, x, 16000, encoding="float32")
    y, sr = read_wav(p)
    assert sr == 16000
    np.testing.assert_allclose(y, x.astype(np.float32), atol=0)


def test_pcm16_round_trip_quantization(tmp_path, rng):
    x = rng.uniform(-0.99, 0.99, size=2000)
    p = str(tmp_path / "a.wav")
    write_wav(p, x, 8000, encoding="pcm16")
    y, sr = read_wav(p)
    assert sr == 8000
    # one LSB of int16 scaling
    assert np.max(np.abs(y - x)) <= 1.0 / 32767 + 1e-12


def test_pcm24_round_trip(tmp_path, rng):
    x = rng.uniform(-0.99, 0.99, size=1500)
    p = str(tmp_path / "a.wav")
    write_wav(p, x, 48000, encoding="pcm24")
    y, sr = read_wav(p)
    assert sr == 48000
    assert np.max(np.abs(y - x)) <= 1.0 / 8388607 + 1e-12
    assert y.dtype == np.float64


def test_pcm16_negative_full_scale(tmp_path):
    x = np.array([-1.0, 1.0, 0.0])
    p = str(tmp_path / "fs.wav")
    write_wav(p, x, 8000, encoding="pcm16")
    y, _ = read_wav(p)
    assert y[0] <= -0.999
    assert np.all(np.abs(y) <= 1.0001)


def test_write_is_deterministic(tmp_path, rng):
    x = rng.standard_normal(512) * 0.3
    p1, p2 = str(tmp_path / "1.wav"), str(tmp_path / "2.wav")
    write_wav(p1, x, 8000)
    write_wav(p2, x, 8000)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_clipping_applied_on_write(tmp_path):
    p = str(tmp_path / "c.wav")
    write_wav(p, np.array([2.0, -2.0]), 8000, encoding="pcm16")
    y, _ = read_wav(p)
    assert np.max(np.abs(y)) <= 1.0001


@pytest.mark.parametrize("rate", [7999, 200000, 0])
def test_bad_rate_rejected(tmp_path, rate):
    with pytest.raises(WavFormatError):
        write_wav(str(tmp_path / "x.wav"), np.zeros(10), rate)


def test_bad_encoding_rejected(tmp_path):
    with pytest.raises(WavFormatError):
        write_wav(str(tmp_path / "x.wav"), np.zeros(10), 8000, encoding="pcm8")
    assert "float32" in VALID_ENCODINGS


def test_non_finite_rejected(tmp_path):
    with pytest.raises(WavFormatError):
        write_wav(str(tmp_path / "x.wav"), np.array([0.0, np.nan]), 8000)


def test_2d_rejected(tmp_path):
    with pytest.raises(WavFormatError):
        write_wav(str(tmp_path / "x.wav"), np.zeros((2, 10)), 8000)


def test_read_garbage_rejected(tmp_path):
    p = str(tmp_path / "g.wav")
    with open(p, "wb") as f:
        f.write(b"not a wav file at all")
    with pytest.raises(WavFormatError):
        read_wav(p)


def test_read_skips_unknown_chunks(tmp_path, rng):
    """A LIST chunk between fmt and data must be walked over."""
    x = rng.uniform(-0.5, 0.5, 100)
    p = str(tmp_path / "a.wav")
    write_wav(p, x, 8000, encoding="pcm16")
    raw = open(p, "rb").read()
    # splice an unknown chunk right before the data chunk
    di = raw.index(b"data")
    extra = b"LIST" + (7).to_bytes(4, "little") + b"1234567" + b"\x00"
    patched = raw[:di] + extra + raw[di:]
    patched = patched[:4] + (len(patched) - 8).to_bytes(4, "little") + patched[8:]
    p2 = str(tmp_path / "b.wav")
    with open(p2, "wb") as f:
        f.write(patched)
    y, sr = read_wav(p2)
    assert sr == 8000
    assert len(y) == 100


def test_no_partial_file_on_error(tmp_path):
    target = str(tmp_path / "out.wav")
    with pytest.raises(WavFormatError):
        write_wav(target, np.array([np.inf]), 8000)
    assert not os.path.exists(target)


def test_read_odd_length_pcm16_data_rejected(tmp_path, rng):
    p = str(tmp_path / "odd.wav")
    write_wav(p, rng.uniform(-0.5, 0.5, 100), 8000, encoding="pcm16")
    with open(p, "rb") as f:
        raw = f.read()
    with open(p, "wb") as f:
        f.write(raw[:-1])
    with pytest.raises(WavFormatError, match="whole number"):
        read_wav(p)


@given(encoding=st.sampled_from(VALID_ENCODINGS), data=st.data())
@settings(max_examples=60, deadline=None)
def test_read_truncated_file_loads_or_raises_named_error(tmp_path_factory, encoding, data):
    d = tmp_path_factory.mktemp("cut")
    p = str(d / "a.wav")
    write_wav(p, np.linspace(-0.5, 0.5, 37), 8000, encoding=encoding)
    with open(p, "rb") as f:
        raw = f.read()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
    with open(p, "wb") as f:
        f.write(raw[:cut])
    try:
        y, sr = read_wav(p)
    except WavFormatError:
        return
    assert sr == 8000
    assert len(y) <= 37 and np.all(np.isfinite(y))
