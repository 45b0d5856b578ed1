"""Precision contract: the graphs train_codec and train_stage build run in
float32, a graph built from a constructor-built model and float64 data runs
in float64 (the grad_check path), checkpoints load as the float32 they
store, graph-free inference computes in the parameters' dtype, and the
float32 path hands float64 arrays back to the bridge."""

import numpy as np
import pytest

from wavebridge import bridge, nn, pipeline, toydata
from wavebridge.codec import Codec, CodecConfig, train_codec, vae_loss
from wavebridge.dsp import StftParams, Waveform, lowpass
from wavebridge.metrics import MrStftConfig
from wavebridge.pipeline import (
    AnyToAnyConfig,
    AugmentConfig,
    DegradationPolicy,
    Stage,
    StageConfig,
    load_codec,
    load_predictor,
    save_codec,
    save_predictor,
    train_stage,
    upsample,
)
from wavebridge.predictor import Conditioning, Predictor, PredictorConfig

SMALL_CODEC = CodecConfig(sample_rate=8000, channels=4, widths=(8, 12, 16, 16))
SMALL_PRED = PredictorConfig(latent_channels=4, width=8, kernel=3, dilations=(1, 2), embed_dim=16)
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _graph_dtypes(loss, run_backward=nn.backward):
    """Dtypes of every tensor's data in the graph below `loss`, and of every grad after backward."""
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    run_backward(loss)
    dtypes = {n.data.dtype for n in nodes}
    dtypes |= {n.grad.dtype for n in nodes if n.grad is not None}
    return dtypes, len(nodes)


def _spy_on_backward(monkeypatch):
    """Record (dtypes, node count) of every graph the library runs backward on."""
    graphs, real = [], nn.backward
    monkeypatch.setattr(nn, "backward", lambda loss: graphs.append(_graph_dtypes(loss, real)))
    return graphs


def test_train_codec_graph_is_float32(monkeypatch):
    graphs = _spy_on_backward(monkeypatch)
    clips = toydata.make_corpus(2, toydata.ToyConfig(duration_s=0.512), np.random.default_rng(0))
    codec, trace = train_codec(clips, SMALL_CODEC, steps=2, rng=np.random.default_rng(1), batch_size=2, crop_len=2048)
    assert len(graphs) == 2
    for dtypes, count in graphs:
        assert count > 20
        assert dtypes == {F32}
    assert all(p.data.dtype == F32 for p in codec.params())
    assert all(np.isfinite(row[1]) for row in trace)


@pytest.mark.parametrize("kind", ["first", "cascade"])
def test_train_stage_graph_is_float32(monkeypatch, kind):
    clips = toydata.make_corpus(2, toydata.ToyConfig(duration_s=0.512), np.random.default_rng(0))
    codec = Codec(SMALL_CODEC, np.random.default_rng(0))
    if kind == "first":
        cfg = StageConfig(
            target_sr=8000,
            degradation=DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
            anytoany=AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
        )
        pred_cfg = SMALL_PRED
    else:
        cfg = StageConfig(target_sr=8000, augmentation=AugmentConfig())
        pred_cfg = PredictorConfig(**{**SMALL_PRED.to_dict(), "use_blur_token": True})
    graphs = _spy_on_backward(monkeypatch)
    pred, trace = train_stage(
        clips, codec, 1.5, cfg, steps=2, rng=np.random.default_rng(1),
        predictor_cfg=pred_cfg, batch_size=2, crop_latent_frames=16,
    )
    assert len(graphs) == 2
    for dtypes, count in graphs:
        assert count > 20
        assert dtypes == {F32}
    assert all(p.data.dtype == F32 for p in pred.params())
    assert all(p.data.dtype == F64 for p in codec.params())  # the frozen codec is left as it came
    assert all(np.isfinite(loss) for _, loss in trace)


def test_constructor_built_models_keep_float64_graphs(rng):
    # the grad_check path: float64 parameters from the constructor, float64 data
    codec = Codec(SMALL_CODEC, np.random.default_rng(0))
    with nn.no_grad():
        codec.encode(Waveform(rng.standard_normal(1024), 8000))  # a graph-free call first
    mr = MrStftConfig(resolutions=[StftParams(512, 128)])
    loss, _, _ = vae_loss(codec, rng.standard_normal((2, 1024)) * 0.2, rng, mr)
    dtypes, count = _graph_dtypes(loss)
    assert count > 20
    assert dtypes == {F64}
    assert all(p.data.dtype == F64 for p in codec.params())

    # as train_stage feeds it, but with a constructor-built predictor: frozen-codec latents stay float64
    predictor = Predictor(SMALL_PRED, np.random.default_rng(1))
    z0 = pipeline._encode_batch(codec, rng.standard_normal((2, 512)), 1.5)
    z_cond = pipeline._encode_batch(codec, rng.standard_normal((2, 512)), 1.5)
    assert z0.dtype == F64 and z_cond.dtype == F64
    assert codec.encode(Waveform(rng.standard_normal(512), 8000)).dtype == F64
    cond = Conditioning(t=[0.3, 0.7], f_prior=[1000.0, 2000.0], f_target=[4000.0, 4000.0])
    pred = predictor.forward(nn.Tensor(z0), cond, nn.Tensor(z_cond))
    loss = nn.mse(pred, nn.Tensor(rng.standard_normal(z0.shape)))
    dtypes, count = _graph_dtypes(loss)
    assert count > 20
    assert dtypes == {F64}


def test_float32_trained_models_survive_a_save_load_round_trip(tmp_path):
    clips = toydata.make_corpus(2, toydata.ToyConfig(duration_s=0.512), np.random.default_rng(0))
    codec, _ = train_codec(clips, SMALL_CODEC, steps=2, rng=np.random.default_rng(1), batch_size=2, crop_len=2048)
    cfg = StageConfig(
        target_sr=8000,
        degradation=DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
        anytoany=AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
    )
    pred, _ = train_stage(
        clips, codec, 1.5, cfg, steps=2, rng=np.random.default_rng(2),
        predictor_cfg=SMALL_PRED, batch_size=2, crop_latent_frames=16,
    )
    save_codec(str(tmp_path / "c.ckpt"), codec, 1.5)
    save_predictor(str(tmp_path / "p.ckpt"), pred, bridge.BridgeSchedule())
    codec_back, _ = load_codec(str(tmp_path / "c.ckpt"))
    pred_back, _ = load_predictor(str(tmp_path / "p.ckpt"))
    for model, back in ((codec, codec_back), (pred, pred_back)):
        for (name, a), (_, b) in zip(model.named_params(), back.named_params()):
            assert a.data.dtype == b.data.dtype == F32, name
            assert a.data.tobytes() == b.data.tobytes(), name
    # the loaded models hold the trained float32 parameters, so they compute the same bytes
    wav = clips[0]
    z = codec.encode(wav)
    assert codec_back.encode(wav).tobytes() == z.tobytes()
    assert codec_back.decode(z).samples.tobytes() == codec.decode(z).samples.tobytes()
    zt = np.random.default_rng(3).standard_normal((2,) + z.shape)
    cond = Conditioning(t=[0.3, 0.7], f_prior=[1000.0, 2000.0], f_target=[4000.0, 4000.0])
    with nn.no_grad():
        eps = [m.forward(nn.Tensor(zt), cond, nn.Tensor(zt)).data for m in (pred, pred_back)]
    assert eps[0].dtype == F32 and eps[0].tobytes() == eps[1].tobytes()
    # a loaded model keeps training in place, as Adam updates its parameters
    p = pred_back.params()[0]
    p.grad = np.ones_like(p.data)
    nn.Adam([p], lr=1e-3).step()
    assert p.data.dtype == F32 and not np.array_equal(p.data, pred.params()[0].data)


def test_stft_mag_backward_on_zero_bins_is_finite_in_float32(rng):
    params = StftParams(64, 16)
    x = np.zeros((2, 256))
    x[1, 128:] = rng.standard_normal(128)  # item 0 is silent, item 1 has silent frames
    grads = {}
    for dtype in (np.float32, np.float64):
        xt = nn.Tensor(x.astype(dtype), requires_grad=True)
        mag = nn.stft_mag(xt, params)
        assert mag.data.dtype == dtype
        assert np.any(mag.data == 0.0)
        nn.backward(nn.tsum(mag))
        assert xt.grad.dtype == dtype
        assert np.all(np.isfinite(xt.grad))
        grads[dtype] = xt.grad
    assert np.all(grads[np.float32][0] == 0.0)
    assert np.allclose(grads[np.float32], grads[np.float64], rtol=1e-4, atol=1e-4)


def test_seeded_upsample_repeats_bytes_over_several_windows(rng):
    corpus = toydata.make_corpus(3, toydata.ToyConfig(), np.random.default_rng(42))
    codec = Codec(SMALL_CODEC, np.random.default_rng(0))
    cfg = StageConfig(
        target_sr=8000,
        degradation=DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
        anytoany=AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
        window_frames=16,
    )
    pred, _ = train_stage(
        corpus, codec, 1.0, cfg, steps=2, rng=np.random.default_rng(0),
        predictor_cfg=SMALL_PRED, batch_size=2, crop_latent_frames=32,
    )
    stage = Stage(cfg, codec, pred, bridge.BridgeSchedule(), 1.0)
    wav = lowpass(Waveform(rng.standard_normal(2048), 4000), 1500.0)
    assert len(wav) * 2 // SMALL_CODEC.ratio > 4 * cfg.window_frames
    a = upsample(wav, [stage], n_steps=4, rng=np.random.default_rng(3))
    b = upsample(wav, [stage], n_steps=4, rng=np.random.default_rng(3))
    assert a.samples.dtype == np.float64
    assert a.samples.tobytes() == b.samples.tobytes()
