"""End-to-end procedures: degradation simulation, any-to-any training pairs,
stage training, cascaded inference with windowed stitching, prior
augmentation, and the augmentation grid search.

Stage kinds
-----------
A first stage trains any-to-any: each step draws a target band and a prior
cutoff, filters the clip twice on the same buffer, and bridges from the
narrow-band latent to the wide-band one. Cascade stages (index >= 2) train as
fixed upsamplers whose prior is the previous stage's band; the prior is
degraded on purpose (waveform low-pass a margin below the prior Nyquist, then
a Gaussian blur on the latent) so inference-time codec artifacts stay in
distribution.

RNG discipline: every function that draws randomness takes an explicit
numpy Generator and documents its consumption order, so seeded runs are
bit-reproducible regardless of file layout.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import bridge, checkpoint, nn
from .bandwidth import estimate_f_eff
from .codec import Codec, CodecConfig
from .dsp import (
    FILTER_FAMILIES,
    MAX_ORDER,
    FilterSpec,
    Waveform,
    apply_filter,
    design_lowpass,
    lowpass,
    resample,
    stft,
)
from .metrics import EVAL_STFT, lsd
from .predictor import Conditioning, Predictor, PredictorConfig

log = logging.getLogger("wavebridge.pipeline")

MIN_USABLE_HZ = 1000.0
DEFAULT_N_STEPS = 50
SILENCE_PEAK = 1e-8
# Detected bandwidth within this fraction of Nyquist counts as full-band,
# which skips the inference low-pass (a cutoff at Nyquist is not designable).
FULL_BAND_FRAC = 0.995
# The stitched sampler predicts at most this many windows in one batch.
WINDOW_GROUP = 64


# ------------------------------------------------------------- domain types


@dataclass
class DegradationPolicy:
    """Random (family, order, cutoff) draws for simulating low-rate audio."""

    cutoff_range: tuple
    families: tuple = FILTER_FAMILIES
    order_range: tuple = (2, 10)

    def __post_init__(self):
        lo, hi = self.cutoff_range
        if not 0 < lo < hi:
            raise ValueError(f"cutoff_range must satisfy 0 < lo < hi, got {self.cutoff_range}")
        if not 1 <= self.order_range[0] <= self.order_range[1] <= MAX_ORDER:
            raise ValueError(f"order_range {self.order_range} must satisfy 1 <= lo <= hi <= {MAX_ORDER}")
        if not self.families:
            raise ValueError("families must name at least one filter family")
        for fam in self.families:
            if fam not in FILTER_FAMILIES:
                raise ValueError(f"unknown family {fam!r}")

    def validate_rate(self, sample_rate: int) -> None:
        if self.cutoff_range[1] >= sample_rate / 2:
            raise ValueError(
                f"cutoff_range {self.cutoff_range} reaches Nyquist of {sample_rate} Hz"
            )

    def draw(self, rng: np.random.Generator) -> FilterSpec:
        """Draw a filter spec. Consumes: family, order, cutoff (in that order)."""
        family = self.families[int(rng.integers(len(self.families)))]
        order = int(rng.integers(self.order_range[0], self.order_range[1] + 1))
        cutoff = float(rng.uniform(self.cutoff_range[0], self.cutoff_range[1]))
        return FilterSpec(family=family, order=order, cutoff_hz=cutoff)


@dataclass
class AnyToAnyConfig:
    """Target-band draw for first-stage training pairs."""

    f_target_range: tuple

    def __post_init__(self):
        lo, hi = self.f_target_range
        if not 0 < lo <= hi:
            raise ValueError(f"f_target_range must satisfy 0 < lo <= hi, got {self.f_target_range}")


@dataclass
class AugmentConfig:
    """Cascade-stage prior degradation: low-pass margin plus latent blur."""

    lpf_margin_hz: float = 300.0
    train_margin_max_hz: float = 600.0
    blur_max: float = 1.0
    blur_star: float = 0.3

    def __post_init__(self):
        if self.lpf_margin_hz < 0 or self.train_margin_max_hz < 0:
            raise ValueError("margins must be >= 0")
        if not 0 <= self.blur_star <= self.blur_max:
            raise ValueError(
                f"need 0 <= blur_star <= blur_max, got {self.blur_star} > {self.blur_max}"
            )


@dataclass
class StageConfig:
    target_sr: int
    codec_path: str = ""
    predictor_path: str = ""
    degradation: DegradationPolicy | None = None
    anytoany: AnyToAnyConfig | None = None
    augmentation: AugmentConfig | None = None
    window_frames: int = 64

    def __post_init__(self):
        if self.target_sr <= 0:
            raise ValueError("target_sr must be positive")
        if self.window_frames < 4:
            raise ValueError("window_frames too small")

    @property
    def is_cascade(self) -> bool:
        return self.augmentation is not None


@dataclass
class BlurKernel:
    """Discrete Gaussian, size 2*half_width + 1, normalized to sum 1.

    blur_ratio -> 0 collapses onto a delta (the off-center weights underflow),
    so blurring with a tiny ratio is the identity.
    """

    half_width: ClassVar[int] = 2
    blur_ratio: float
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.blur_ratio < 0:
            raise ValueError("blur_ratio must be >= 0")
        tau = np.arange(-self.half_width, self.half_width + 1, dtype=np.float64)
        if self.blur_ratio == 0.0:
            w = (tau == 0).astype(np.float64)
        else:
            w = np.exp(-(tau**2) / (2.0 * self.blur_ratio**2))
        self.weights = w / w.sum()


# --------------------------------------------------------- degradation paths


def simulate_lr(wav_hr: Waveform, policy: DegradationPolicy, rng: np.random.Generator) -> tuple[Waveform, FilterSpec]:
    """Degrade one clip with a random zero-phase low-pass; returns (lr, drawn spec)."""
    policy.validate_rate(wav_hr.sample_rate)
    spec = policy.draw(rng)
    sections = design_lowpass(spec, wav_hr.sample_rate)
    return apply_filter(wav_hr, sections), spec


@dataclass
class TrainPair:
    x_hr: Waveform
    x_lr: Waveform
    f_prior: float
    f_target: float


def prepare_anytoany_pair(
    wav: Waveform,
    rng: np.random.Generator,
    policy: DegradationPolicy,
    target_cfg: AnyToAnyConfig,
    f_eff: float | None = None,
) -> TrainPair | None:
    """Build one any-to-any pair, or None when the clip is too narrow to use.

    Consumes rng in order: f_target, family, order, cutoff. The high band is
    removed with a fixed sharp Chebyshev; the prior filter comes from the
    degradation policy. Both filterings run on the same buffer, so the LR leg
    is the HR leg degraded further, never a fresh copy of the source.
    """
    if f_eff is None:
        f_eff = estimate_f_eff(wav).f_eff
    nyq = wav.nyquist
    hi_t = _target_ceiling(f_eff, nyq, target_cfg)
    if hi_t is None:
        return None
    lo_t = min(target_cfg.f_target_range[0], hi_t)
    f_target = hi_t if lo_t == hi_t else float(rng.uniform(lo_t, hi_t))

    if f_target >= FULL_BAND_FRAC * nyq:
        x_hr = Waveform(wav.samples.copy(), wav.sample_rate)
    else:
        x_hr = lowpass(wav, f_target)

    spec = policy.draw(rng)
    f_prior = min(max(spec.cutoff_hz, MIN_USABLE_HZ), 0.95 * f_target)
    spec = FilterSpec(spec.family, spec.order, f_prior, spec.ripple_db, spec.stop_atten_db)
    sections = design_lowpass(spec, wav.sample_rate)
    x_lr = apply_filter(x_hr, sections)
    return TrainPair(x_hr, x_lr, f_prior, f_target)


def _target_ceiling(f_eff: float, nyquist: float, target_cfg: AnyToAnyConfig) -> float | None:
    """Highest target band a clip of bandwidth f_eff allows, or None if it is unusable."""
    if f_eff < MIN_USABLE_HZ:
        return None
    hi_t = min(target_cfg.f_target_range[1], f_eff, nyquist)
    return hi_t if hi_t > MIN_USABLE_HZ else None


def blur_latent(z: np.ndarray, blur_ratio: float) -> np.ndarray:
    """Gaussian-blur latent frames along time, each channel independently.

    z is an array whose last axis is time; reflect padding at the ends.
    """
    kern = BlurKernel(blur_ratio)
    k = kern.half_width
    if z.shape[-1] <= k:
        raise ValueError(f"latent too short to blur: {z.shape[-1]} frames vs half-width {k}")
    padded = np.pad(z, [(0, 0)] * (z.ndim - 1) + [(k, k)], mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * k + 1, axis=-1)
    return windows @ kern.weights


def augment_prior(wav: Waveform, prior_band_hz: float, margin_hz: float) -> Waveform:
    """Shave `margin_hz` off the top of an already band-limited prior waveform.

    `wav` lives at the stage rate but carries content only up to
    prior_band_hz. margin 0 is an exact bypass; a margin at or above the prior
    band would erase the whole signal and is rejected.
    """
    if margin_hz < 0:
        raise ValueError("margin must be >= 0")
    if margin_hz == 0:
        return Waveform(wav.samples.copy(), wav.sample_rate)
    if margin_hz >= prior_band_hz:
        raise ValueError(f"margin {margin_hz} Hz >= prior band {prior_band_hz} Hz")
    return lowpass(wav, prior_band_hz - margin_hz)


# ------------------------------------------------------------ stage training


class NoUsableClipsError(ValueError):
    """No clip of a first-stage corpus can yield an any-to-any training pair."""


def _encode_batch(codec: Codec, batch: np.ndarray, scale: float) -> np.ndarray:
    """Posterior-mean latents for a (N, L) batch, rescaled for the bridge."""
    with nn.no_grad():
        mu, _ = codec.encode_dist(nn.Tensor(batch[:, None, :].astype(np.float32)))
    return mu.data.astype(np.float64) * scale


def train_stage(
    corpus: list[Waveform],
    codec: Codec,
    scale: float,
    stage_cfg: StageConfig,
    steps: int,
    rng: np.random.Generator,
    predictor_cfg: PredictorConfig | None = None,
    sched: bridge.BridgeSchedule | None = None,
    batch_size: int = 8,
    crop_latent_frames: int = 64,
    lr: float = 3e-4,
    log_every: int = 50,
    log_cb=None,
) -> tuple[Predictor, list[tuple[int, float]]]:
    """Train the noise predictor for one stage on an in-memory corpus.

    First stage needs stage_cfg.anytoany and .degradation; cascade stages need
    .augmentation. The codec is frozen: latents are posterior means, no
    gradient flows into it. Returns (predictor, full per-step loss trace).

    Consumes rng in order: the predictor's initial weights; then per step,
    per item, the clip index, the pair draws (cascade: margin, blur; an
    unusable first-stage clip draws nothing more) and the crop offset; then
    per step the (N,) times t and the noise eps for one batched bridge call.
    """
    if not corpus:
        raise ValueError("empty corpus")
    for wav in corpus:
        if wav.sample_rate != codec.cfg.sample_rate:
            raise ValueError(
                f"corpus clip at {wav.sample_rate} Hz, codec at {codec.cfg.sample_rate} Hz"
            )
    cascade = stage_cfg.is_cascade
    if not cascade and (stage_cfg.anytoany is None or stage_cfg.degradation is None):
        raise ValueError("first-stage training needs anytoany and degradation configs")
    if sched is None:
        sched = bridge.BridgeSchedule()
    if predictor_cfg is None:
        predictor_cfg = PredictorConfig(latent_channels=codec.cfg.channels, use_blur_token=cascade)
    if predictor_cfg.use_blur_token != cascade:
        raise ValueError("predictor_cfg.use_blur_token must match the stage kind")
    if predictor_cfg.latent_channels != codec.cfg.channels:
        raise ValueError("predictor latent_channels must match the codec")

    crop_len = crop_latent_frames * codec.cfg.ratio
    for wav in corpus:
        if len(wav) < crop_len:
            raise ValueError(f"clip of {len(wav)} samples shorter than crop {crop_len}")

    predictor = Predictor(predictor_cfg, rng)
    opt = nn.Adam(predictor.params(), lr=lr)
    trace: list[tuple[int, float]] = []

    # Bandwidth detection is too unstable on short crops, so estimate once per
    # clip and filter full clips before cropping. The cascade prior band is
    # fixed, so each clip is low-passed to it once.
    if cascade:
        prior_band = codec.cfg.sample_rate / 4.0
        prior_cache = [lowpass(w, prior_band) for w in corpus]
    else:
        f_eff_cache = [estimate_f_eff(w).f_eff for w in corpus]
        a2a = stage_cfg.anytoany
        if all(_target_ceiling(f, w.nyquist, a2a) is None for w, f in zip(corpus, f_eff_cache)):
            raise NoUsableClipsError(
                f"all {len(corpus)} clips rejected: a target band must exceed "
                f"{MIN_USABLE_HZ:g} Hz, but the detected bandwidths are "
                f"{min(f_eff_cache):.0f}-{max(f_eff_cache):.0f} Hz and f_target_range ends at "
                f"{a2a.f_target_range[1]:g} Hz"
            )

    for step in range(steps):
        hr_crops, cond_crops, priors, targets, blurs = [], [], [], [], []
        while len(hr_crops) < batch_size:
            ci = int(rng.integers(len(corpus)))
            clip = corpus[ci]
            if cascade:
                aug = stage_cfg.augmentation
                margin = float(rng.uniform(0.0, aug.train_margin_max_hz))
                prior_aug = augment_prior(prior_cache[ci], prior_band, margin)
                pair = TrainPair(clip, prior_aug, prior_band - margin, codec.cfg.sample_rate / 2.0)
                blurs.append(float(rng.uniform(0.0, aug.blur_max)))
            else:
                pair = prepare_anytoany_pair(
                    clip, rng, stage_cfg.degradation, stage_cfg.anytoany, f_eff=f_eff_cache[ci]
                )
                if pair is None:
                    continue
            ofs = int(rng.integers(len(clip) - crop_len + 1))
            hr_crops.append(pair.x_hr.samples[ofs : ofs + crop_len])
            cond_crops.append(pair.x_lr.samples[ofs : ofs + crop_len])
            priors.append(pair.f_prior)
            targets.append(pair.f_target)

        z0 = _encode_batch(codec, np.stack(hr_crops), scale)
        z_cond = _encode_batch(codec, np.stack(cond_crops), scale)
        if cascade:
            zT = np.stack([blur_latent(z_cond[i], blurs[i]) for i in range(batch_size)])
        else:
            zT = z_cond

        t = rng.uniform(bridge.T_MIN_TRAIN, 1.0, size=batch_size)
        eps = rng.standard_normal(z0.shape)
        z_t = bridge.forward_sample(z0, zT, t, eps, sched)
        target = bridge.loss_target(z_t, z0, t, sched)

        cond = Conditioning(
            t=t,
            f_prior=np.array(priors),
            f_target=np.array(targets),
            blur_ratio=np.array(blurs) if cascade else None,
        )
        opt.zero_grad()
        pred = predictor.forward(nn.Tensor(z_t), cond, nn.Tensor(z_cond))
        loss = nn.mse(pred, nn.Tensor(target))
        if not np.isfinite(loss.data):
            raise FloatingPointError(
                f"bridge training diverged at step {step}: loss={float(loss.data)}, "
                f"t range [{t.min():.4g}, {t.max():.4g}]"
            )
        nn.backward(loss)
        opt.step()
        trace.append((step, float(loss.data)))
        if log_cb and (step % log_every == 0 or step == steps - 1):
            log_cb(step, float(loss.data))
    return predictor, trace


# -------------------------------------------------------- checkpoint plumbing


def save_codec(path: str, codec: Codec, scale: float) -> None:
    tensors = {name: t.data for name, t in codec.named_params()}
    checkpoint.save_checkpoint(path, "codec", codec.cfg.to_dict(), tensors, {"scale": scale})


def load_codec(path: str) -> tuple[Codec, float]:
    kind, cfg_d, tensors, extra = checkpoint.load_checkpoint(path)
    if kind != "codec":
        raise checkpoint.CheckpointError(f"{path}: expected a codec checkpoint, got {kind!r}")
    cfg, scale = _read_metadata(path, lambda: (CodecConfig.from_dict(cfg_d), float(extra["scale"])))
    codec = Codec(cfg, np.random.default_rng(0))
    _restore_params(codec.named_params(), tensors, path)
    return codec, scale


def save_predictor(path: str, predictor: Predictor, sched: bridge.BridgeSchedule) -> None:
    tensors = {name: t.data for name, t in predictor.named_params()}
    checkpoint.save_checkpoint(path, "predictor", predictor.cfg.to_dict(), tensors, {"schedule": asdict(sched)})


def load_predictor(path: str) -> tuple[Predictor, bridge.BridgeSchedule]:
    kind, cfg_d, tensors, extra = checkpoint.load_checkpoint(path)
    if kind != "predictor":
        raise checkpoint.CheckpointError(f"{path}: expected a predictor checkpoint, got {kind!r}")
    cfg, sched = _read_metadata(
        path, lambda: (PredictorConfig.from_dict(cfg_d), bridge.BridgeSchedule(**extra["schedule"]))
    )
    predictor = Predictor(cfg, np.random.default_rng(0))
    _restore_params(predictor.named_params(), tensors, path)
    return predictor, sched


def _read_metadata(path: str, build):
    """build(), with a missing or malformed config or extra entry raised as a CheckpointError naming the file."""
    try:
        return build()
    except (KeyError, TypeError, ValueError) as e:
        raise checkpoint.CheckpointError(f"{path}: malformed checkpoint metadata ({type(e).__name__}: {e})") from e


def _restore_params(named: list[tuple[str, nn.Tensor]], tensors: dict, path: str) -> None:
    names = [n for n, _ in named]
    missing = sorted(set(names) - set(tensors))
    extra = sorted(set(tensors) - set(names))
    if missing or extra:
        raise checkpoint.CheckpointError(f"{path}: parameter mismatch (missing {missing}, extra {extra})")
    for name, t in named:
        if tensors[name].shape != t.data.shape:
            raise checkpoint.CheckpointError(
                f"{path}: shape mismatch for {name}: {tensors[name].shape} vs {t.data.shape}"
            )
        t.data = tensors[name]


@dataclass
class Stage:
    """A stage ready to run: config plus live model objects."""

    cfg: StageConfig
    codec: Codec
    predictor: Predictor
    sched: bridge.BridgeSchedule
    scale: float

    def __post_init__(self):
        if self.codec.cfg.sample_rate != self.cfg.target_sr:
            raise ValueError(
                f"codec rate {self.codec.cfg.sample_rate} != stage target {self.cfg.target_sr}"
            )
        if self.predictor.cfg.use_blur_token != self.cfg.is_cascade:
            raise ValueError("predictor blur-token arity does not match stage kind")
        if self.predictor.cfg.latent_channels != self.codec.cfg.channels:
            raise ValueError("predictor/codec channel mismatch")

    @staticmethod
    def load(cfg: StageConfig) -> "Stage":
        codec, scale = load_codec(cfg.codec_path)
        predictor, sched = load_predictor(cfg.predictor_path)
        return Stage(cfg, codec, predictor, sched, scale)


# -------------------------------------------------------------- inference


def window_starts(length: int, window: int, hop: int, offset: int) -> list[int]:
    """Start indices covering [0, length) with a shifted grid plus forced ends."""
    if length <= window:
        return [0]
    first = offset % hop
    starts = set(range(first, length - window + 1, hop))
    starts.add(0)
    starts.add(length - window)
    return sorted(starts)


def _sample_stitched(
    predictor: Predictor,
    zT: np.ndarray,
    z_cond: np.ndarray,
    cond_vals: dict,
    n_steps: int,
    rng: np.random.Generator,
    sched: bridge.BridgeSchedule,
    window: int,
) -> np.ndarray:
    """bridge.run_sampler with windowed predictions averaged into one z0 estimate.

    Every step tiles the latent with full-window hops on a grid whose offset
    rotates by a quarter window per step, plus windows forced at both ends,
    so seams never pin to one position. Each step averages the per-window
    denoised estimates with coverage weights; the loop then applies one
    global transition with a single noise draw, so a signal no longer than
    the window reproduces bridge.sample() bit for bit.

    Memory stays bounded in clip length: a step builds and predicts its
    windows WINDOW_GROUP at a time, in start order, and adds each group's
    estimates into the coverage sums before the next. The predictor treats
    the windows of a batch independently, so grouping gives the result of
    one batch of every window bit for bit: the conv kernels' matmuls run one
    GEMM per batch item.
    """
    length = zT.shape[1]
    blur = cond_vals.get("blur_ratio")

    def estimate(z, s, i):
        offset = (i * max(1, window // 4)) % window
        starts = window_starts(length, window, window, offset)
        w_eff = min(window, length)
        acc = np.zeros_like(z)
        cnt = np.zeros(length)
        for g in range(0, len(starts), WINDOW_GROUP):
            group = starts[g : g + WINDOW_GROUP]
            zw = np.stack([z[:, st : st + w_eff] for st in group])
            cw = np.stack([z_cond[:, st : st + w_eff] for st in group])
            k = len(group)
            cond = Conditioning(
                t=np.full(k, s),
                f_prior=np.full(k, cond_vals["f_prior"]),
                f_target=np.full(k, cond_vals["f_target"]),
                blur_ratio=None if blur is None else np.full(k, blur),
            )
            with nn.no_grad():
                eps_hat = predictor.forward(nn.Tensor(zw), cond, nn.Tensor(cw)).data
            for st, z0 in zip(group, bridge.estimate_z0(zw, eps_hat, s, sched)):
                acc[:, st : st + w_eff] += z0
                cnt[st : st + w_eff] += 1.0
        return acc / cnt[None, :]

    return bridge.run_sampler(estimate, zT, n_steps, rng, sched)


def _stage_infer(
    stage: Stage,
    x: Waveform,
    n_steps: int,
    rng: np.random.Generator,
    blur_override: float | None = None,
    margin_override: float | None = None,
    info_out: list | None = None,
) -> Waveform:
    """Run one stage: detect, low-pass, resample, encode, sample, decode."""
    cfg = stage.cfg
    # clamp first, so the input keeps the band its prior token claims
    f_prior = max(estimate_f_eff(x).f_eff, MIN_USABLE_HZ)
    if f_prior < FULL_BAND_FRAC * x.nyquist:
        x = lowpass(x, f_prior)
    x_r = resample(x, cfg.target_sr) if x.sample_rate != cfg.target_sr else x
    f_target = cfg.target_sr / 2.0

    if cfg.is_cascade:
        aug = cfg.augmentation
        margin = aug.lpf_margin_hz if margin_override is None else margin_override
        blur = aug.blur_star if blur_override is None else blur_override
        enc_in = augment_prior(x_r, f_prior, margin)
    else:
        margin, blur = 0.0, None
        enc_in = x_r
    token_prior = f_prior - margin

    z_cond = stage.codec.encode(enc_in) * stage.scale
    zT = blur_latent(z_cond, blur) if blur is not None else z_cond

    cond_vals = {"f_prior": token_prior, "f_target": f_target, "blur_ratio": blur}
    z_hat = _sample_stitched(
        stage.predictor, zT, z_cond, cond_vals, n_steps, rng, stage.sched, cfg.window_frames
    )
    out = stage.codec.decode(z_hat / stage.scale, length=len(x_r))
    if info_out is not None:
        info_out.append(
            {
                "target_sr": cfg.target_sr,
                "f_prior": f_prior,
                "f_target": f_target,
                "margin": margin,
                "blur": blur if blur is not None else "",
            }
        )
    return out


def upsample(
    wav_in: Waveform,
    stages: list[Stage],
    n_steps: int = DEFAULT_N_STEPS,
    rng: np.random.Generator | None = None,
    info: list | None = None,
) -> Waveform:
    """Cascade the stages over an input waveform.

    Each stage's output is its decoded bridge sample. Silent inputs skip
    generation (the detector would report full-band and the stage would
    hallucinate from nothing): they are resampled to the final rate with a
    warning.
    """
    if not stages:
        raise ValueError("need at least one stage")
    rates = [st.cfg.target_sr for st in stages]
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError(f"stage rates must strictly increase, got {rates}")
    if wav_in.sample_rate > rates[-1]:
        raise ValueError(f"input rate {wav_in.sample_rate} above final target {rates[-1]}")
    if rng is None:
        rng = np.random.default_rng()

    peak = float(np.max(np.abs(wav_in.samples))) if len(wav_in) else 0.0
    if peak < SILENCE_PEAK:
        warnings.warn("input is silent; resampling without bandwidth extension")
        return resample(wav_in, rates[-1])

    x = wav_in
    for i, stage in enumerate(stages):
        t0 = time.monotonic()
        x = _stage_infer(stage, x, n_steps, rng, info_out=info)
        log.info("stage %d -> %d Hz in %.2f s", i + 1, stage.cfg.target_sr, time.monotonic() - t0)
    return x


# ------------------------------------------------------- augmentation search


def tune_augmentation(
    stage: Stage,
    val_pairs: list[tuple[Waveform, Waveform]],
    blur_grid: list[float],
    margin_grid: list[float],
    n_steps: int = 10,
    seed: int = 0,
    eval_fn=None,
) -> tuple[float, float, list[tuple[float, float, float]]]:
    """Grid-search (blur, margin) minimizing mean LSD over validation pairs.

    Rows come back as (blur, margin, mean_lsd) in grid order. Ties break
    toward the smaller blur, then the smaller margin; iterating the sorted
    grid with a strict < keeps exactly that element. eval_fn(stage, blur,
    margin, pairs, n_steps, seed) may replace the real inference loop.
    """
    if not blur_grid or not margin_grid:
        raise ValueError("empty grid")
    if not val_pairs:
        raise ValueError("no validation pairs")
    if eval_fn is None:
        eval_fn = _tune_eval
    rows = []
    best = None
    for b in sorted(blur_grid):
        for m in sorted(margin_grid):
            score = float(eval_fn(stage, b, m, val_pairs, n_steps, seed))
            rows.append((b, m, score))
            if best is None or score < best[2]:
                best = (b, m, score)
    return best[0], best[1], rows


def _tune_eval(stage, blur, margin, pairs, n_steps, seed) -> float:
    scores = []
    for i, (lr_wav, hr_wav) in enumerate(pairs):
        rng = np.random.default_rng([seed, _float_key(blur), _float_key(margin), i])
        out = _stage_infer(stage, lr_wav, n_steps, rng, blur_override=blur, margin_override=margin)
        n = min(len(out), len(hr_wav))
        ref = Waveform(hr_wav.samples[:n], hr_wav.sample_rate)
        est = Waveform(out.samples[:n], out.sample_rate)
        scores.append(lsd(stft(ref, EVAL_STFT), stft(est, EVAL_STFT)))
    return float(np.mean(scores))


def _float_key(x: float) -> int:
    """The exact bits of x as a seed word: distinct grid values never share noise."""
    return int(np.float64(x).view(np.uint64))
