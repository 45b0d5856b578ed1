"""Waveform VAE: shapes, shift consistency, loss behaviour, latent scale."""

import tracemalloc

import numpy as np
import pytest

from wavebridge import nn, toydata
from wavebridge.codec import (
    CHUNK_FRAMES,
    Codec,
    CodecConfig,
    fit_latent_scale,
    train_codec,
    vae_loss,
)
from wavebridge.dsp import StftParams, Waveform
from wavebridge.metrics import MrStftConfig

SMALL = CodecConfig(sample_rate=8000, channels=4, widths=(8, 12, 16, 16))
SMALL_MR = MrStftConfig(resolutions=[StftParams(512, 128), StftParams(1024, 256)])


def _codec(cfg=SMALL, seed=0):
    return Codec(cfg, np.random.default_rng(seed))


# -------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        CodecConfig(8000, strides=(2, 2, 2))  # strides/widths mismatch
    with pytest.raises(ValueError):
        CodecConfig(8000, kl_weight=-1.0)
    with pytest.raises(TypeError):
        CodecConfig()  # the rate has no default
    cfg = CodecConfig(sample_rate=16000)
    assert CodecConfig.from_dict(cfg.to_dict()) == cfg


def test_ratio_is_the_stride_product():
    cfg = CodecConfig(sample_rate=8000, strides=(3, 2, 4), widths=(8, 12, 16))
    assert cfg.ratio == 24
    # checkpoints keep recording the ratio, and one read back must agree
    d = cfg.to_dict()
    assert d["ratio"] == 24
    del d["ratio"]
    assert CodecConfig.from_dict(d) == cfg
    with pytest.raises(ValueError, match="stored ratio 16 is not the product 24"):
        CodecConfig.from_dict(dict(d, ratio=16))


# ------------------------------------------------------------- encode/decode

def test_encode_frame_count(rng):
    codec = _codec()
    for length in (16, 100, 1000, 1024, 1025):
        z = codec.encode(Waveform(rng.standard_normal(length), 8000))
        want = -(-length // 16)  # ceil
        assert z.shape == (4, want), f"length {length}"


def test_encode_validation(rng):
    codec = _codec()
    with pytest.raises(ValueError):
        codec.encode(Waveform(rng.standard_normal(1000), 16000))  # wrong rate
    with pytest.raises(ValueError):
        codec.encode(Waveform(rng.standard_normal(15), 8000))  # under one frame


def test_encode_rejects_non_finite_latent(rng):
    # weights come from checkpoint files, so a corrupt one must not pass silently
    codec = _codec()
    codec.enc_head.w.data[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or inf"):
        codec.encode(Waveform(rng.standard_normal(1024), 8000))


def test_encode_is_deterministic(rng):
    codec = _codec()
    w = Waveform(rng.standard_normal(1024), 8000)
    assert np.array_equal(codec.encode(w), codec.encode(w))


def test_decode_length_trim(rng):
    codec = _codec()
    w = Waveform(rng.standard_normal(1000), 8000)
    z = codec.encode(w)
    out = codec.decode(z, length=1000)
    assert len(out) == 1000
    assert out.sample_rate == 8000
    full = codec.decode(z)
    assert len(full) == z.shape[1] * 16


# A codec computes in its parameters' dtype with or without a graph. Over 20
# seeded small models the float32 codec's encode and decode deviated from the
# float64 ones by at most 3.7e-7 of the largest absolute value; 2e-6 leaves
# room for other BLAS builds.
F32_REL_TOL = 2e-6


def _close_in_float32(a, b):
    return np.max(np.abs(a - b)) <= F32_REL_TOL * np.max(np.abs(b))


def test_encode_decode_are_the_graph_paths_in_the_parameters_dtype(rng):
    # encode/decode build no graph, and nothing else changes: a constructor-built
    # float64 codec gives the bytes of the graph-building paths vae_loss uses,
    # and a float32 one computes in float32 and hands float64 arrays back
    codec = _codec()
    w = Waveform(rng.standard_normal(1024), 8000)
    mu, _ = codec.encode_dist(nn.Tensor(w.samples[None, None, :]))
    assert mu.requires_grad and mu.data.dtype == np.float64
    z = codec.encode(w)
    assert z.dtype == np.float64 and z.tobytes() == mu.data[0].tobytes()
    y = codec.decode_graph(nn.Tensor(z[None]))
    assert y.requires_grad and y.data.dtype == np.float64
    decoded = codec.decode(z).samples
    assert decoded.tobytes() == y.data[0, 0].tobytes()
    nn.to_float32(codec.params())
    z32 = codec.encode(w)
    assert z32.dtype == np.float64 and np.array_equal(z32, z32.astype(np.float32))
    assert _close_in_float32(z32, z)
    decoded32 = codec.decode(z).samples
    assert decoded32.dtype == np.float64 and np.array_equal(decoded32, decoded32.astype(np.float32))
    assert _close_in_float32(decoded32, decoded)


def test_encode_shift_by_one_frame(rng):
    # Shifting the input by exactly one compression ratio shifts the latent by
    # one frame; interior frames (outside the padding halo) match bit-exactly
    # because each one sees the identical window of samples.
    codec = _codec()
    x = rng.standard_normal(2048)
    za = codec.encode(Waveform(x[:-16], 8000))
    zb = codec.encode(Waveform(x[16:], 8000))
    halo = 4
    assert np.max(np.abs(za[:, 1 + halo : -halo] - zb[:, halo : -halo - 1])) < 1e-12


def test_decode_rejects_a_latent_of_the_wrong_shape():
    codec = _codec()
    for z in (np.zeros(10), np.zeros((1, 4, 10)), np.zeros((8, 10)), np.zeros((4, 0))):
        with pytest.raises(ValueError, match=r"latent of shape .* expected \(4, frames\)"):
            codec.decode(z)


def test_decode_rejects_a_length_beyond_the_latent():
    codec = _codec()
    with pytest.raises(ValueError, match="length 1000 exceeds the 160 samples that 10 frames decode to"):
        codec.decode(np.zeros((4, 10)), length=1000)
    assert len(codec.decode(np.zeros((4, 10)), length=160)) == 160


# ------------------------------------------------------------------ chunking

# Strides of 4 and 3 pad differently with the length modulo the stride, so
# they check that a chunk keeps the whole clip's grid, not only its start.
CHUNK_CONFIGS = [
    SMALL,
    CodecConfig(sample_rate=8000, channels=4, strides=(4, 4), widths=(8, 16)),
    CodecConfig(sample_rate=8000, channels=4, strides=(3, 2, 4), widths=(8, 12, 16)),
]


@pytest.mark.parametrize("cfg", CHUNK_CONFIGS, ids=lambda c: "x".join(map(str, c.strides)))
def test_chunked_encode_decode_match_the_whole_clip(cfg, rng):
    # about 2.5 chunks and a length that is not a multiple of the ratio; a halo
    # that does not cover the receptive field is off by orders of magnitude
    codec = _codec(cfg)
    length = int(2.5 * CHUNK_FRAMES * cfg.ratio) + 5
    x = rng.standard_normal(length)
    z = codec.encode(Waveform(x, 8000))
    mu, _ = codec.encode_dist(nn.Tensor(x[None, None, :]))
    assert z.shape == mu.data[0].shape == (4, -(-length // cfg.ratio))
    assert _close_in_float32(z, mu.data[0])
    y = codec.decode(z).samples
    assert _close_in_float32(y, codec.decode_graph(nn.Tensor(z[None])).data[0, 0])


def test_one_chunk_is_the_whole_clip_forward(rng):
    # a clip of at most CHUNK_FRAMES frames runs on the arrays it always did
    codec = _codec()
    for frames in (3, CHUNK_FRAMES):
        x = rng.standard_normal(frames * 16 - 5)
        z = rng.standard_normal((4, frames))
        with nn.no_grad():
            mu, _ = codec.encode_dist(nn.Tensor(x[None, None, :]))
            y = codec.decode_graph(nn.Tensor(z[None])).data[0, 0]
        assert np.array_equal(codec.encode(Waveform(x, 8000)), mu.data[0].astype(np.float64))
        assert np.array_equal(codec.decode(z).samples, y.astype(np.float64))


def _decode_peak(codec, frames):
    z = np.random.default_rng(frames).standard_normal((4, frames))
    tracemalloc.start()
    try:
        out = codec.decode(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.samples.nbytes


def test_decode_memory_does_not_grow_with_the_clip():
    # Beside its output, decoding 4 chunks peaked at 0.996-0.997 of decoding
    # 1 chunk over four seeds; decoding the 4 chunks' frames whole reads 3.8.
    codec = _codec()
    one = _decode_peak(codec, CHUNK_FRAMES)
    four = _decode_peak(codec, 4 * CHUNK_FRAMES)
    assert four <= 1.1 * one, f"{four / 2**20:.2f} MiB on 4 chunks vs {one / 2**20:.2f} on 1"


# ---------------------------------------------------------------------- loss

def test_vae_loss_components(rng):
    codec = _codec()
    batch = rng.standard_normal((2, 1024)) * 0.2
    loss, recon, kl = vae_loss(codec, batch, rng, SMALL_MR)
    assert loss.data.size == 1
    assert np.isfinite(loss.data)
    assert recon > 0.0
    assert kl >= 0.0  # KL against the unit gaussian is nonnegative
    assert float(loss.data) == pytest.approx(recon + codec.cfg.kl_weight * kl, rel=1e-9)


def test_vae_loss_gradients_flow(rng):
    from wavebridge import nn

    codec = _codec()
    batch = rng.standard_normal((1, 1024)) * 0.2
    loss, _, _ = vae_loss(codec, batch, rng, SMALL_MR)
    nn.backward(loss)
    grads = [p.grad for p in codec.params()]
    assert all(g is not None for g in grads)
    assert any(np.max(np.abs(g)) > 0 for g in grads)


def test_adam_error_names_the_codec_parameter():
    codec = _codec()
    for _, t in codec.named_params():
        t.grad = np.zeros_like(t.data)
    dict(codec.named_params())["enc_head.b"].grad[0] = np.nan
    with pytest.raises(FloatingPointError, match=r"parameter enc_head\.b"):
        nn.Adam(codec.params(), lr=1e-3).step()


# ------------------------------------------------------------------ training

def test_train_codec_validation(rng):
    with pytest.raises(ValueError):
        train_codec([], SMALL, steps=1, rng=rng)
    clip = Waveform(rng.standard_normal(8192), 16000)
    with pytest.raises(ValueError):
        train_codec([clip], SMALL, steps=1, rng=rng)  # rate mismatch
    short = Waveform(rng.standard_normal(100), 8000)
    with pytest.raises(ValueError):
        train_codec([short], SMALL, steps=1, rng=rng, crop_len=2048)


def test_train_codec_rejects_crop_shorter_than_the_loss_frame(rng):
    # the default loss's longest resolution frames 2048 samples
    clip = Waveform(rng.standard_normal(4096), 8000)
    with pytest.raises(ValueError, match=r"crop of 1024 samples .* longest STFT frame \(2048\)"):
        train_codec([clip], SMALL, steps=1, rng=rng, crop_len=1024)


def test_train_codec_loss_decreases():
    clips = toydata.make_corpus(4, toydata.ToyConfig(), np.random.default_rng(42))
    codec, trace = train_codec(
        clips, SMALL, steps=200, rng=np.random.default_rng(0),
        batch_size=2, crop_len=2048, log_every=5,
    )
    assert trace[0][0] == 0 and trace[-1][0] == 199
    first = np.mean([r[1] for r in trace[:3]])
    last = np.mean([r[1] for r in trace[-3:]])
    assert last < 0.95 * first, f"loss {first:.1f} -> {last:.1f}"
    # the trained codec round-trips shapes intact
    out = codec.decode(codec.encode(clips[0]), length=len(clips[0]))
    assert len(out) == len(clips[0])


def test_train_codec_deterministic():
    clips = toydata.make_corpus(2, toydata.ToyConfig(), np.random.default_rng(42))
    runs = []
    for _ in range(2):
        codec, trace = train_codec(
            clips, SMALL, steps=5, rng=np.random.default_rng(3),
            batch_size=2, crop_len=2048, log_every=1,
        )
        runs.append((trace, [p.data.copy() for p in codec.params()]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)


# -------------------------------------------------------------- latent scale

class _StubCodec:
    def __init__(self, std):
        self.std = std

    def encode(self, wav):
        rng = np.random.default_rng(len(wav))
        return rng.standard_normal((4, 64)) * self.std


def test_fit_latent_scale_inverts_std(rng):
    clips = [Waveform(rng.standard_normal(1024 + i), 8000) for i in range(6)]
    scale = fit_latent_scale(clips, _StubCodec(4.0))
    assert scale == pytest.approx(0.25, rel=0.05)


def test_fit_latent_scale_rejects_constant(rng):
    clips = [Waveform(rng.standard_normal(1024), 8000)]
    with pytest.raises(ValueError):
        fit_latent_scale(clips, _StubCodec(0.0))
