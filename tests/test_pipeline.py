"""Pipeline: degradation, training pairs, blur, stitching, stage round trips."""

import json
from pathlib import Path

import numpy as np
import pytest

from wavebridge import bridge, nn, pipeline, toydata
from wavebridge.checkpoint import CheckpointError, load_checkpoint
from wavebridge.codec import Codec, CodecConfig, train_codec
from wavebridge.config import parse_policy_file
from wavebridge.dsp import MAX_ORDER, FilterSpec, Waveform, design_lowpass, lowpass
from wavebridge.pipeline import (
    AnyToAnyConfig,
    AugmentConfig,
    BlurKernel,
    DegradationPolicy,
    NoUsableClipsError,
    Stage,
    StageConfig,
    _sample_stitched,
    augment_prior,
    blur_latent,
    load_codec,
    load_predictor,
    prepare_anytoany_pair,
    save_codec,
    save_predictor,
    simulate_lr,
    train_stage,
    tune_augmentation,
    upsample,
    window_starts,
)
from wavebridge.predictor import Conditioning, Predictor, PredictorConfig

SMALL_CODEC = CodecConfig(sample_rate=8000, channels=4, widths=(8, 12, 16, 16))
SMALL_PRED = PredictorConfig(latent_channels=4, width=8, kernel=3, dilations=(1, 2), embed_dim=16)


def _small_codec(seed=0):
    return Codec(SMALL_CODEC, np.random.default_rng(seed))


# ------------------------------------------------------------------ blurring

def test_blur_kernel_sums_to_one():
    for b in (0.0, 1e-6, 0.1, 0.3, 1.0, 5.0):
        kern = BlurKernel(b)
        assert abs(kern.weights.sum() - 1.0) < 1e-12
        assert len(kern.weights) == 5


def test_blur_kernel_zero_is_delta():
    kern = BlurKernel(0.0)
    assert np.array_equal(kern.weights, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))


def test_blur_kernel_validation():
    with pytest.raises(ValueError):
        BlurKernel(-0.1)


def test_blur_latent_matches_brute_force(rng):
    z = rng.standard_normal((3, 20))
    b = 0.7
    kern = BlurKernel(b)
    got = blur_latent(z, b)
    k = kern.half_width
    padded = np.pad(z, ((0, 0), (k, k)), mode="reflect")
    want = np.zeros_like(z)
    for c in range(z.shape[0]):
        for i in range(z.shape[1]):
            want[c, i] = sum(padded[c, i + k + d] * kern.weights[k + d] for d in range(-k, k + 1))
    assert np.max(np.abs(got - want)) < 1e-12


def test_blur_latent_tiny_ratio_is_identity(rng):
    z = rng.standard_normal((2, 16))
    out = blur_latent(z, 1e-9)
    assert np.max(np.abs(out - z)) < 1e-9


def test_blur_latent_rejects_short_latent(rng):
    with pytest.raises(ValueError):
        blur_latent(rng.standard_normal((2, 2)), 0.4)  # shorter than half-width


# ------------------------------------------------------------- degradation

def test_policy_validation():
    with pytest.raises(ValueError):
        DegradationPolicy(cutoff_range=(2000.0, 2000.0))
    with pytest.raises(ValueError):
        DegradationPolicy(cutoff_range=(0.0, 2000.0))
    with pytest.raises(ValueError):
        DegradationPolicy(cutoff_range=(1000.0, 2000.0), families=("gauss",))
    with pytest.raises(ValueError):
        DegradationPolicy(cutoff_range=(1000.0, 2000.0), order_range=(0, 4))
    pol = DegradationPolicy(cutoff_range=(1000.0, 3000.0))
    with pytest.raises(ValueError):
        pol.validate_rate(6000)  # hi reaches Nyquist
    # a policy it cannot draw from is refused here, not at a draw mid-training or mid-degrade
    with pytest.raises(ValueError, match=rf"hi <= {MAX_ORDER}"):
        DegradationPolicy(cutoff_range=(1000.0, 2000.0), order_range=(2, MAX_ORDER + 1))
    with pytest.raises(ValueError, match="at least one filter family"):
        DegradationPolicy(cutoff_range=(1000.0, 2000.0), families=())
    # the policy's ceiling is the designer's: the top order draws and designs
    pol = DegradationPolicy(cutoff_range=(1000.0, 2000.0), families=("butterworth",), order_range=(MAX_ORDER, MAX_ORDER))
    assert design_lowpass(pol.draw(np.random.default_rng(0)), 8000).shape == (MAX_ORDER // 2, 6)
    with pytest.raises(ValueError, match=rf"outside \[1, {MAX_ORDER}\]"):
        FilterSpec("butterworth", MAX_ORDER + 1, 1000.0).validate(8000)


def test_policy_file_rejects_empty_families(tmp_path):
    path = tmp_path / "p.ini"
    path.write_text("[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\nfamilies =\n")
    with pytest.raises(ValueError, match="at least one filter family"):
        parse_policy_file(str(path))


def test_policy_draw_ranges():
    pol = DegradationPolicy(cutoff_range=(1000.0, 3000.0), order_range=(2, 6))
    rng = np.random.default_rng(0)
    for _ in range(200):
        spec = pol.draw(rng)
        assert 1000.0 <= spec.cutoff_hz <= 3000.0
        assert 2 <= spec.order <= 6
        assert spec.family in pol.families


def test_simulate_lr_attenuates_high_band(rng):
    wav = Waveform(rng.standard_normal(8192), 8000)
    pol = DegradationPolicy(cutoff_range=(1400.0, 1600.0), families=("cheby1",), order_range=(8, 8))
    lr, spec = simulate_lr(wav, pol, np.random.default_rng(1))
    assert len(lr) == len(wav) and lr.sample_rate == 8000
    assert 1400.0 <= spec.cutoff_hz <= 1600.0
    assert (spec.family, spec.order) == ("cheby1", 8)
    spec_in = np.abs(np.fft.rfft(wav.samples))
    spec_out = np.abs(np.fft.rfft(lr.samples))
    hi = slice(int(2500 / 8000 * 8192), 4000)
    assert np.sum(spec_out[hi] ** 2) < 1e-4 * np.sum(spec_in[hi] ** 2)


def test_simulate_lr_deterministic(rng):
    wav = Waveform(rng.standard_normal(8192), 8000)
    pol = DegradationPolicy(cutoff_range=(1000.0, 3000.0))
    a, sa = simulate_lr(wav, pol, np.random.default_rng(9))
    b, sb = simulate_lr(wav, pol, np.random.default_rng(9))
    assert sa == sb
    assert np.array_equal(a.samples, b.samples)


# --------------------------------------------------------- any-to-any pairs

def _toy_clip(seed=0):
    return toydata.make_clip(toydata.ToyConfig(), np.random.default_rng(seed))


def test_prepare_pair_invariants():
    wav = _toy_clip(3)
    pol = DegradationPolicy(cutoff_range=(1000.0, 3000.0))
    cfg = AnyToAnyConfig(f_target_range=(2000.0, 4000.0))
    pair = prepare_anytoany_pair(wav, np.random.default_rng(0), pol, cfg, f_eff=4000.0)
    assert pair is not None
    assert pair.f_prior <= 0.95 * pair.f_target
    assert pair.f_prior >= pipeline.MIN_USABLE_HZ
    assert pair.f_target <= 4000.0
    assert len(pair.x_hr) == len(pair.x_lr) == len(wav)
    # the LR leg is the HR leg degraded further, so its spectrum sits below
    hr = np.abs(np.fft.rfft(pair.x_hr.samples))
    lr = np.abs(np.fft.rfft(pair.x_lr.samples))
    n = len(hr)
    top = slice(int(0.95 * pair.f_target / 4000.0 * n), n)
    assert np.sum(lr[top] ** 2) < np.sum(hr[top] ** 2)


def test_prepare_pair_narrow_clip_skipped():
    wav = _toy_clip(4)
    pol = DegradationPolicy(cutoff_range=(1000.0, 3000.0))
    cfg = AnyToAnyConfig(f_target_range=(2000.0, 4000.0))
    assert prepare_anytoany_pair(wav, np.random.default_rng(0), pol, cfg, f_eff=500.0) is None


def test_prepare_pair_full_band_target_bypasses_filter():
    wav = _toy_clip(5)
    pol = DegradationPolicy(cutoff_range=(1000.0, 3000.0))
    cfg = AnyToAnyConfig(f_target_range=(4000.0, 4000.0))  # exactly Nyquist
    pair = prepare_anytoany_pair(wav, np.random.default_rng(0), pol, cfg, f_eff=4000.0)
    assert np.array_equal(pair.x_hr.samples, wav.samples)


# ------------------------------------------------------------ augmentation

def test_augment_prior_zero_margin_is_copy(rng):
    wav = Waveform(rng.standard_normal(4096), 8000)
    out = augment_prior(wav, 2000.0, 0.0)
    assert np.array_equal(out.samples, wav.samples)
    assert out.samples is not wav.samples


def test_augment_prior_validation(rng):
    wav = Waveform(rng.standard_normal(4096), 8000)
    with pytest.raises(ValueError):
        augment_prior(wav, 2000.0, -1.0)
    with pytest.raises(ValueError):
        augment_prior(wav, 2000.0, 2000.0)


def test_augment_prior_narrows_band(rng):
    wav = lowpass(Waveform(rng.standard_normal(8192), 8000), 2000.0)
    out = augment_prior(wav, 2000.0, 600.0)
    spec_in = np.abs(np.fft.rfft(wav.samples))
    spec_out = np.abs(np.fft.rfft(out.samples))
    band = slice(int(1700 / 8000 * 8192), int(1900 / 8000 * 8192))
    assert np.sum(spec_out[band] ** 2) < 0.5 * np.sum(spec_in[band] ** 2)


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(blur_star=0.5, blur_max=0.3)
    with pytest.raises(ValueError):
        AugmentConfig(lpf_margin_hz=-1.0)


# ---------------------------------------------------------------- stitching

def test_window_starts_cover_ends():
    starts = window_starts(100, 32, 16, offset=5)
    assert starts[0] == 0 and starts[-1] == 100 - 32
    assert all(0 <= s <= 68 for s in starts)
    assert window_starts(20, 32, 16, 0) == [0]
    assert window_starts(32, 32, 16, 7) == [0]


def test_stitched_single_window_matches_plain_sampler(rng):
    # a latent shorter than the window must reproduce bridge.sample bit-exactly
    pred = Predictor(SMALL_PRED, np.random.default_rng(2))
    pred.out_proj.w.data = np.random.default_rng(3).standard_normal(pred.out_proj.w.data.shape) * 0.1
    sched = bridge.BridgeSchedule()
    zT = rng.standard_normal((4, 16))
    z_cond = rng.standard_normal((4, 16))
    cond_vals = {"f_prior": 2000.0, "f_target": 4000.0}
    got = _sample_stitched(pred, zT, z_cond, cond_vals, 8, np.random.default_rng(11), sched, window=64)

    def predict_eps(z, s):
        cond = Conditioning(t=s, f_prior=2000.0, f_target=4000.0)
        with nn.no_grad():
            return pred.forward(nn.Tensor(z[None]), cond, nn.Tensor(z_cond[None])).data[0]

    want = bridge.sample(predict_eps, zT, 8, np.random.default_rng(11), sched)
    assert np.array_equal(got, want)


def test_stitched_draws_one_noise_array_per_step(rng):
    # a latent over several windows still takes one z-shaped normal draw per step
    pred = Predictor(SMALL_PRED, np.random.default_rng(2))
    sched = bridge.BridgeSchedule()
    zT = rng.standard_normal((4, 150))
    z_cond = rng.standard_normal((4, 150))
    cond_vals = {"f_prior": 2000.0, "f_target": 4000.0}
    used = np.random.default_rng(21)
    _sample_stitched(pred, zT, z_cond, cond_vals, 6, used, sched, window=32)
    fresh = np.random.default_rng(21)
    for _ in range(6):
        fresh.standard_normal(zT.shape)
    assert np.array_equal(used.standard_normal(8), fresh.standard_normal(8))


class _ConstFieldStub:
    """Predicts the noise that makes every window's z0 estimate a constant."""

    def __init__(self, value, sched):
        self.value = value
        self.sched = sched

    def forward(self, zw, cond, cw):
        s = float(cond.t[0])
        std = self.sched.std_fwd(s)
        return nn.Tensor((zw.data - self.value) / std)


def test_stitching_preserves_constant_field():
    # When every window agrees on the same constant z0, the averaged estimate
    # is that constant and the final state equals it exactly, independent of
    # the window layout.
    sched = bridge.BridgeSchedule()
    stub = _ConstFieldStub(0.75, sched)
    zT = np.random.default_rng(0).standard_normal((3, 200))
    z_cond = np.zeros((3, 200))
    cond_vals = {"f_prior": 2000.0, "f_target": 4000.0}
    outs = []
    for window in (16, 64, 256):
        out = _sample_stitched(
            stub, zT.copy(), z_cond, cond_vals, 10, np.random.default_rng(5), sched, window
        )
        outs.append(out)
        assert np.max(np.abs(out - 0.75)) < 1e-12
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[1], outs[2])


class _RecordingStub(_ConstFieldStub):
    """_ConstFieldStub that records each call's window count and time."""

    def __init__(self, value, sched):
        super().__init__(value, sched)
        self.calls = []

    def forward(self, zw, cond, cw):
        self.calls.append((zw.shape[0], float(cond.t[0])))
        return super().forward(zw, cond, cw)


def test_stitched_predicts_windows_in_bounded_groups():
    sched = bridge.BridgeSchedule()
    stub = _RecordingStub(0.75, sched)
    length, window, n_steps = 2000, 16, 6
    zT = np.random.default_rng(0).standard_normal((3, length))
    cond_vals = {"f_prior": 2000.0, "f_target": 4000.0}
    out = _sample_stitched(stub, zT, np.zeros((3, length)), cond_vals, n_steps,
                           np.random.default_rng(5), sched, window)
    assert np.max(np.abs(out - 0.75)) < 1e-12
    assert max(k for k, _ in stub.calls) == pipeline.WINDOW_GROUP
    grid = bridge.time_grid(n_steps)
    for i in range(n_steps):
        hop = window
        want = len(window_starts(length, window, hop, (i * (window // 4)) % window))
        assert want > pipeline.WINDOW_GROUP  # every step takes several groups
        assert sum(k for k, t in stub.calls if t == grid[i]) == want, f"step {i}"



def test_stitched_steps_cover_every_frame_with_moving_seams(monkeypatch):
    # every step tiles the latent with full-window hops; the grid seams move each step
    layouts = []

    def recording_starts(length, window, hop, offset):
        starts = window_starts(length, window, hop, offset)
        layouts.append((hop, starts))
        return starts

    monkeypatch.setattr(pipeline, "window_starts", recording_starts)
    sched = bridge.BridgeSchedule()
    length, window, n_steps = 1000, 64, 10
    zT = np.random.default_rng(0).standard_normal((3, length))
    cond_vals = {"f_prior": 2000.0, "f_target": 4000.0}
    _sample_stitched(_ConstFieldStub(0.75, sched), zT, np.zeros((3, length)), cond_vals, n_steps,
                     np.random.default_rng(5), sched, window)
    assert len(layouts) == n_steps
    seams = []
    for hop, starts in layouts:
        assert hop == window
        covered = np.zeros(length, dtype=bool)
        for st in starts:
            covered[st : st + window] = True
        assert covered.all()
        seams.append({st for st in starts if 0 < st < length - window})
    for a, b in zip(seams, seams[1:]):
        assert a and b and not a & b

# ------------------------------------------------------------ stage training

def _tiny_corpus(n=3, seed=42):
    return toydata.make_corpus(n, toydata.ToyConfig(), np.random.default_rng(seed))


def test_train_stage_first_kind_smoke():
    corpus = _tiny_corpus()
    codec = _small_codec()
    cfg = StageConfig(
        target_sr=8000,
        degradation=DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
        anytoany=AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
    )
    pred, trace = train_stage(
        corpus, codec, 1.0, cfg, steps=3, rng=np.random.default_rng(0),
        predictor_cfg=SMALL_PRED, batch_size=2, crop_latent_frames=32,
    )
    assert len(trace) == 3
    assert all(np.isfinite(l) for _, l in trace)
    assert pred.cfg.use_blur_token is False


def test_train_stage_cascade_kind_smoke():
    corpus = _tiny_corpus()
    codec = _small_codec()
    cfg = StageConfig(target_sr=8000, augmentation=AugmentConfig())
    pcfg = PredictorConfig(latent_channels=4, width=8, kernel=3, dilations=(1, 2), embed_dim=16, use_blur_token=True)
    pred, trace = train_stage(
        corpus, codec, 1.0, cfg, steps=3, rng=np.random.default_rng(0),
        predictor_cfg=pcfg, batch_size=2, crop_latent_frames=32,
    )
    assert len(trace) == 3
    assert pred.cfg.use_blur_token is True


def test_train_stage_validation():
    corpus = _tiny_corpus(2)
    codec = _small_codec()
    with pytest.raises(ValueError):
        train_stage([], codec, 1.0, StageConfig(target_sr=8000, augmentation=AugmentConfig()),
                    steps=1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        # first stage without its configs
        train_stage(corpus, codec, 1.0, StageConfig(target_sr=8000), steps=1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        # blur-token arity contradicts the stage kind
        train_stage(corpus, codec, 1.0, StageConfig(target_sr=8000, augmentation=AugmentConfig()),
                    steps=1, rng=np.random.default_rng(0), predictor_cfg=SMALL_PRED)
    wrong_rate = [Waveform(np.zeros(4096), 16000)]
    with pytest.raises(ValueError):
        train_stage(wrong_rate, codec, 1.0, StageConfig(target_sr=8000, augmentation=AugmentConfig()),
                    steps=1, rng=np.random.default_rng(0))


def test_train_stage_rejects_corpus_without_usable_clip():
    # noise low-passed at 500 Hz reads below MIN_USABLE_HZ, so no clip can
    # yield a pair; training must say so instead of drawing forever
    rng = np.random.default_rng(5)
    corpus = [lowpass(Waveform(rng.standard_normal(8192) * 0.3, 8000), 500.0) for _ in range(3)]
    cfg = StageConfig(
        target_sr=8000,
        degradation=DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
        anytoany=AnyToAnyConfig(f_target_range=(2000.0, 4000.0)),
    )
    with pytest.raises(NoUsableClipsError, match="all 3 clips rejected"):
        train_stage(
            corpus, _small_codec(), 1.0, cfg, steps=1, rng=np.random.default_rng(0),
            predictor_cfg=SMALL_PRED, batch_size=2, crop_latent_frames=32,
        )


# ------------------------------------------------------- checkpoints, stages

def test_codec_checkpoint_round_trip(tmp_path, rng):
    codec = _small_codec(seed=5)
    path = str(tmp_path / "codec.ckpt")
    save_codec(path, codec, scale=1.75)
    loaded, scale = load_codec(path)
    assert scale == 1.75
    assert loaded.cfg == codec.cfg
    for (na, ta), (nb, tb) in zip(codec.named_params(), loaded.named_params()):
        assert na == nb
        # a loaded codec holds the float32 that was stored
        assert tb.data.dtype == np.float32
        assert np.array_equal(ta.data.astype(np.float32), tb.data)


def test_predictor_checkpoint_round_trip(tmp_path):
    pred = Predictor(SMALL_PRED, np.random.default_rng(8))
    sched = bridge.BridgeSchedule(0.002, 0.8, "constant")
    path = str(tmp_path / "pred.ckpt")
    save_predictor(path, pred, sched)
    loaded, lsched = load_predictor(path)
    assert lsched == sched
    assert loaded.cfg == pred.cfg
    for (na, ta), (nb, tb) in zip(pred.named_params(), loaded.named_params()):
        assert na == nb
        assert tb.data.dtype == np.float32
        assert np.array_equal(ta.data.astype(np.float32), tb.data)


@pytest.mark.parametrize("name", ["codec8k", "codec16k", "stage1", "cascade16k"])
def test_committed_checkpoint_configs_serialise_back_to_their_json(name):
    path = Path(__file__).resolve().parents[1] / "wbbench" / "ckpt" / f"{name}.ckpt"
    kind, config, _, _ = load_checkpoint(str(path))
    cls = CodecConfig if kind == "codec" else PredictorConfig
    assert json.dumps(cls.from_dict(config).to_dict(), sort_keys=True) == json.dumps(config, sort_keys=True)


def test_checkpoint_kind_mismatch(tmp_path):
    codec = _small_codec()
    path = str(tmp_path / "c.ckpt")
    save_codec(path, codec, scale=1.0)
    with pytest.raises(CheckpointError):
        load_predictor(path)


def test_stage_wiring_validation():
    codec = _small_codec()
    pred = Predictor(SMALL_PRED, np.random.default_rng(0))
    sched = bridge.BridgeSchedule()
    with pytest.raises(ValueError):
        Stage(StageConfig(target_sr=16000), codec, pred, sched, 1.0)  # rate mismatch
    with pytest.raises(ValueError):
        # cascade stage but predictor has no blur token
        Stage(StageConfig(target_sr=8000, augmentation=AugmentConfig()), codec, pred, sched, 1.0)
    wrong_c = Predictor(PredictorConfig(latent_channels=8, width=8, kernel=3, dilations=(1,), embed_dim=16),
                        np.random.default_rng(0))
    with pytest.raises(ValueError):
        Stage(StageConfig(target_sr=8000), codec, wrong_c, sched, 1.0)


def test_stage_load_from_checkpoints(tmp_path):
    codec = _small_codec()
    pred = Predictor(SMALL_PRED, np.random.default_rng(1))
    sched = bridge.BridgeSchedule()
    cpath, ppath = str(tmp_path / "c.ckpt"), str(tmp_path / "p.ckpt")
    save_codec(cpath, codec, scale=2.5)
    save_predictor(ppath, pred, sched)
    cfg = StageConfig(target_sr=8000, codec_path=cpath, predictor_path=ppath)
    stage = Stage.load(cfg)
    assert stage.scale == 2.5


# ----------------------------------------------------------------- inference

def _tiny_stage(seed=0, steps=3):
    corpus = _tiny_corpus()
    codec = _small_codec(seed)
    cfg = StageConfig(
        target_sr=8000,
        degradation=DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
        anytoany=AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
        window_frames=64,
    )
    pred, _ = train_stage(
        corpus, codec, 1.0, cfg, steps=steps, rng=np.random.default_rng(seed),
        predictor_cfg=SMALL_PRED, batch_size=2, crop_latent_frames=32,
    )
    return Stage(cfg, codec, pred, bridge.BridgeSchedule(), 1.0)


def test_upsample_validation(rng):
    stage = _tiny_stage()
    wav = Waveform(rng.standard_normal(4096), 4000)
    with pytest.raises(ValueError):
        upsample(wav, [], n_steps=2, rng=rng)
    with pytest.raises(ValueError):
        upsample(Waveform(rng.standard_normal(4096), 16000), [stage], n_steps=2, rng=rng)
    with pytest.raises(ValueError):
        upsample(wav, [stage, stage], n_steps=2, rng=rng)  # rates do not increase


def test_upsample_silence_passthrough():
    stage = _tiny_stage()
    silent = Waveform(np.zeros(4000), 4000)
    with pytest.warns(UserWarning, match="silent"):
        out = upsample(silent, [stage], n_steps=2, rng=np.random.default_rng(0))
    assert out.sample_rate == 8000
    assert len(out) == 8000
    assert np.max(np.abs(out.samples)) < 1e-12


def test_upsample_deterministic_under_seed(rng):
    stage = _tiny_stage()
    wav = Waveform(lowpass(Waveform(rng.standard_normal(4096), 4000), 1500.0).samples, 4000)
    a = upsample(wav, [stage], n_steps=4, rng=np.random.default_rng(21))
    b = upsample(wav, [stage], n_steps=4, rng=np.random.default_rng(21))
    c = upsample(wav, [stage], n_steps=4, rng=np.random.default_rng(22))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.sample_rate == 8000
    assert len(a) == 8192


def test_library_writes_nothing_to_stdout(capfd):
    # A CLI command's last stdout line is its own summary, and the benchmark
    # reads its result from the last stdout line, so training and upsampling
    # report only through log_cb and logging.
    logged = []
    clips8 = _tiny_corpus()
    codec8, _ = train_codec(clips8, SMALL_CODEC, 2, np.random.default_rng(0), batch_size=2, crop_len=2048,
                            log_every=1, log_cb=lambda *row: logged.append(row))
    first = StageConfig(
        target_sr=8000,
        degradation=DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
        anytoany=AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
    )
    pred8, _ = train_stage(clips8, codec8, 1.0, first, steps=2, rng=np.random.default_rng(1),
                           predictor_cfg=SMALL_PRED, batch_size=2, crop_latent_frames=32,
                           log_every=1, log_cb=lambda *row: logged.append(row))
    clips16 = toydata.make_corpus(3, toydata.ToyConfig(sample_rate=16000), np.random.default_rng(2))
    codec16 = Codec(CodecConfig(sample_rate=16000, channels=4, widths=(8, 12, 16, 16)), np.random.default_rng(3))
    cascade = StageConfig(target_sr=16000, augmentation=AugmentConfig())
    pcfg = PredictorConfig(latent_channels=4, width=8, kernel=3, dilations=(1, 2), embed_dim=16, use_blur_token=True)
    pred16, _ = train_stage(clips16, codec16, 1.0, cascade, steps=2, rng=np.random.default_rng(4),
                            predictor_cfg=pcfg, batch_size=2, crop_latent_frames=32,
                            log_every=1, log_cb=lambda *row: logged.append(row))
    stages = [Stage(first, codec8, pred8, bridge.BridgeSchedule(), 1.0),
              Stage(cascade, codec16, pred16, bridge.BridgeSchedule(), 1.0)]
    wav = Waveform(lowpass(Waveform(clips8[0].samples[::2], 4000), 1500.0).samples, 4000)
    out = upsample(wav, stages, n_steps=2, rng=np.random.default_rng(5))
    assert out.sample_rate == 16000
    assert len(logged) == 6
    assert capfd.readouterr().out == ""


def test_cascade_stage_trains_on_the_band_of_its_source_rate(monkeypatch):
    # An 8 -> 24 kHz cascade stage: the prior band is 4 kHz, half its 8 kHz
    # source rate, where half the stage's own Nyquist would give 6 kHz.
    cutoffs, augmented, tokens = [], [], []
    real_lowpass, real_augment, real_forward = pipeline.lowpass, pipeline.augment_prior, Predictor.forward

    def spy_lowpass(wav, cutoff_hz, *args, **kwargs):
        cutoffs.append(cutoff_hz)
        return real_lowpass(wav, cutoff_hz, *args, **kwargs)

    def spy_augment(wav, prior_band_hz, margin_hz):
        augmented.append((prior_band_hz, margin_hz))
        return real_augment(wav, prior_band_hz, margin_hz)

    def spy_forward(self, z_t, cond, z_cond):
        tokens.append(cond.f_prior.copy())
        return real_forward(self, z_t, cond, z_cond)

    monkeypatch.setattr(pipeline, "lowpass", spy_lowpass)
    monkeypatch.setattr(pipeline, "augment_prior", spy_augment)
    monkeypatch.setattr(Predictor, "forward", spy_forward)
    corpus = toydata.make_corpus(2, toydata.ToyConfig(sample_rate=24000, duration_s=0.25), np.random.default_rng(3))
    codec = Codec(CodecConfig(sample_rate=24000, channels=4, widths=(8, 12, 16, 16)), np.random.default_rng(4))
    cfg = StageConfig(target_sr=24000, augmentation=AugmentConfig(), source_sr=8000)
    pcfg = PredictorConfig(**{**SMALL_PRED.to_dict(), "use_blur_token": True})
    pred, _ = train_stage(corpus, codec, 1.0, cfg, steps=2, rng=np.random.default_rng(5),
                          predictor_cfg=pcfg, batch_size=2, crop_latent_frames=16)
    assert cutoffs[: len(corpus)] == [4000.0] * len(corpus)  # the per-clip prior cache
    assert len(augmented) == 4 and all(band == 4000.0 for band, _ in augmented)
    margins = np.array([m for _, m in augmented])
    assert np.all((margins >= 0.0) & (margins < AugmentConfig().train_margin_max_hz))
    assert np.array_equal(np.concatenate(tokens), 4000.0 - margins)

    # inference on an 8 kHz input reads the band the stage trained on
    info = []
    clip8 = toydata.make_clip(toydata.ToyConfig(sample_rate=8000, duration_s=0.5), np.random.default_rng(6))
    out = upsample(clip8, [Stage(cfg, codec, pred, bridge.BridgeSchedule(), 1.0)], n_steps=1,
                   rng=np.random.default_rng(7), info=info)
    assert out.sample_rate == 24000
    assert abs(info[0]["f_prior"] - 4000.0) < 200.0


def test_stage_config_checks_source_sr():
    StageConfig(target_sr=24000, augmentation=AugmentConfig(), source_sr=8000)
    with pytest.raises(ValueError, match="source_sr"):
        StageConfig(target_sr=24000, augmentation=AugmentConfig(), source_sr=24000)
    with pytest.raises(ValueError, match="source_sr"):
        StageConfig(target_sr=24000, augmentation=AugmentConfig(), source_sr=-8000)
    with pytest.raises(ValueError, match="first stage"):
        StageConfig(
            target_sr=8000, source_sr=4000,
            degradation=DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
            anytoany=AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
        )


def test_upsample_info_records_stage(rng):
    stage = _tiny_stage()
    wav = Waveform(lowpass(Waveform(rng.standard_normal(4096), 4000), 1500.0).samples, 4000)
    info = []
    upsample(wav, [stage], n_steps=2, rng=np.random.default_rng(0), info=info)
    assert len(info) == 1
    assert info[0]["target_sr"] == 8000
    assert info[0]["f_target"] == 4000.0
    assert set(info[0]) == {"target_sr", "f_prior", "f_target", "margin", "blur"}


def _tiny_cascade_stage16():
    codec = Codec(CodecConfig(sample_rate=16000, channels=4, widths=(8, 12, 16, 16)), np.random.default_rng(3))
    pred = Predictor(PredictorConfig(**{**SMALL_PRED.to_dict(), "use_blur_token": True}), np.random.default_rng(4))
    pred.out_proj.w.data = np.random.default_rng(5).standard_normal(pred.out_proj.w.data.shape) * 0.1
    return Stage(StageConfig(target_sr=16000, augmentation=AugmentConfig()), codec, pred, bridge.BridgeSchedule(), 1.0)


def test_cascade_passes_an_input_above_a_stage_band_through():
    # A 16 kHz clip holding content to 6 kHz reads about 6 kHz at the 8 kHz
    # first stage, above its 4 kHz target band; that stage hands the clip on
    # unchanged and draws no noise, so the cascade gives the 16 kHz stage's bytes.
    stage8, stage16 = _tiny_stage(), _tiny_cascade_stage16()
    clip = lowpass(Waveform(np.random.default_rng(6).standard_normal(8192) * 0.3, 16000), 6000.0)
    info = []
    both = upsample(clip, [stage8, stage16], n_steps=2, rng=np.random.default_rng(7), info=info)
    alone = upsample(clip, [stage16], n_steps=2, rng=np.random.default_rng(7))
    assert both.sample_rate == 16000 and both.samples.tobytes() == alone.samples.tobytes()
    assert info[0]["passed_through"] is True and info[0]["target_sr"] == 8000 and info[0]["f_prior"] > 4000.0
    assert info[1]["target_sr"] == 16000 and "passed_through" not in info[1]
    # an input inside the first stage's band still runs both stages
    info = []
    upsample(lowpass(clip, 3000.0), [stage8, stage16], n_steps=2, rng=np.random.default_rng(7), info=info)
    assert [set(row) for row in info] == [{"target_sr", "f_prior", "f_target", "margin", "blur"}] * 2


def test_stage_infer_lowpasses_at_the_clamped_prior_band(monkeypatch):
    # an input reading below MIN_USABLE_HZ is conditioned as MIN_USABLE_HZ, so
    # it must be low-passed there too, not at the narrower detected band
    stage = _tiny_stage()
    wav = lowpass(Waveform(np.random.default_rng(5).standard_normal(8192) * 0.3, 8000), 500.0)
    assert pipeline.estimate_f_eff(wav).f_eff < pipeline.MIN_USABLE_HZ
    cutoffs = []
    real_lowpass = pipeline.lowpass

    def spy(w, cutoff, **kw):
        cutoffs.append(cutoff)
        return real_lowpass(w, cutoff, **kw)

    monkeypatch.setattr(pipeline, "lowpass", spy)
    info = []
    upsample(wav, [stage], n_steps=2, rng=np.random.default_rng(0), info=info)
    assert cutoffs == [pipeline.MIN_USABLE_HZ]
    assert info[0]["f_prior"] == pipeline.MIN_USABLE_HZ


# ------------------------------------------------------- augmentation search

def test_tune_augmentation_grid_and_tie_break():
    calls = []

    def fake_eval(stage, blur, margin, pairs, n_steps, seed):
        calls.append((blur, margin))
        return 1.0  # all ties: smallest blur then margin must win

    blur_star, margin_star, rows = tune_augmentation(
        None, [(None, None)], blur_grid=[0.5, 0.1], margin_grid=[300.0, 0.0],
        eval_fn=fake_eval,
    )
    assert (blur_star, margin_star) == (0.1, 0.0)
    assert len(rows) == 4
    assert calls == [(0.1, 0.0), (0.1, 300.0), (0.5, 0.0), (0.5, 300.0)]


def test_tune_augmentation_picks_minimum():
    table = {(0.1, 0.0): 2.0, (0.1, 300.0): 1.5, (0.5, 0.0): 0.9, (0.5, 300.0): 1.1}

    def fake_eval(stage, blur, margin, pairs, n_steps, seed):
        return table[(blur, margin)]

    blur_star, margin_star, rows = tune_augmentation(
        None, [(None, None)], blur_grid=[0.1, 0.5], margin_grid=[0.0, 300.0],
        eval_fn=fake_eval,
    )
    assert (blur_star, margin_star) == (0.5, 0.0)
    assert sorted(r[2] for r in rows) == sorted(table.values())


def test_tune_eval_seeds_close_grid_points_apart(monkeypatch):
    # margins under 1 Hz apart, and blurs under 1e-6 apart, draw different noise
    first_draws = []

    def fake_infer(stage, x, n_steps, rng, **kw):
        first_draws.append(rng.standard_normal())
        return x

    monkeypatch.setattr(pipeline, "_stage_infer", fake_infer)
    wav = Waveform(np.random.default_rng(0).standard_normal(4096), 8000)
    for blur, margin in ((0.3, 300.2), (0.3, 300.7), (0.3000001, 300.2)):
        pipeline._tune_eval(None, blur, margin, [(wav, wav)], 2, 0)
    assert len(set(first_draws)) == 3


def test_tune_augmentation_validation():
    with pytest.raises(ValueError):
        tune_augmentation(None, [(None, None)], [], [0.0])
    with pytest.raises(ValueError):
        tune_augmentation(None, [], [0.1], [0.0])
