"""Precision contract: training graphs run in float64, graph-free inference
in float32, and the float32 path hands float64 arrays back to the bridge."""

import numpy as np

from wavebridge import bridge, nn, pipeline, toydata
from wavebridge.codec import Codec, CodecConfig, vae_loss
from wavebridge.dsp import StftParams, Waveform, lowpass
from wavebridge.metrics import MrStftConfig
from wavebridge.pipeline import AnyToAnyConfig, DegradationPolicy, Stage, StageConfig, train_stage, upsample
from wavebridge.predictor import Conditioning, Predictor, PredictorConfig

SMALL_CODEC = CodecConfig(sample_rate=8000, channels=4, widths=(8, 12, 16, 16))
SMALL_PRED = PredictorConfig(latent_channels=4, width=8, kernel=3, dilations=(1, 2), embed_dim=16)


def _graph_dtypes(loss):
    """Dtypes of every tensor's data in the graph below `loss`, and of every grad after backward."""
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    nn.backward(loss)
    dtypes = {n.data.dtype for n in nodes}
    dtypes |= {n.grad.dtype for n in nodes if n.grad is not None}
    return dtypes, len(nodes)


def test_vae_loss_graph_is_float64(rng):
    codec = Codec(SMALL_CODEC, np.random.default_rng(0))
    with nn.no_grad():
        codec.encode(Waveform(rng.standard_normal(1024), 8000))  # a graph-free call first
    mr = MrStftConfig(resolutions=[StftParams(512, 128)])
    loss, _, _ = vae_loss(codec, rng.standard_normal((2, 1024)) * 0.2, rng, mr)
    dtypes, count = _graph_dtypes(loss)
    assert count > 20
    assert dtypes == {np.dtype(np.float64)}
    assert all(p.data.dtype == np.float64 for p in codec.params())


def test_predictor_training_step_graph_is_float64(rng):
    # built as train_stage builds it: frozen-codec latents, then a graph forward
    codec = Codec(SMALL_CODEC, np.random.default_rng(0))
    predictor = Predictor(SMALL_PRED, np.random.default_rng(1))
    z0 = pipeline._encode_batch(codec, rng.standard_normal((2, 512)), 1.5)
    z_cond = pipeline._encode_batch(codec, rng.standard_normal((2, 512)), 1.5)
    assert z0.dtype == np.float64 and z_cond.dtype == np.float64
    assert codec.encode(Waveform(rng.standard_normal(512), 8000)).dtype == np.float64
    cond = Conditioning(t=[0.3, 0.7], f_prior=[1000.0, 2000.0], f_target=[4000.0, 4000.0])
    pred = predictor.forward(nn.Tensor(z0), cond, nn.Tensor(z_cond))
    loss = nn.mse(pred, nn.Tensor(rng.standard_normal(z0.shape)))
    dtypes, count = _graph_dtypes(loss)
    assert count > 20
    assert dtypes == {np.dtype(np.float64)}


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
