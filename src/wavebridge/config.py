"""Flat key/value config files (INI sections) for training and inference.

Two file kinds: a codec config ([codec] + [training]) and a stage config
([stage] + [degradation]/[anytoany]/[augmentation] + [training] + optional
[schedule]/[predictor]). Every missing required key raises ConfigError naming
the key and section, so a typo fails loudly instead of training the wrong
model.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .bridge import BridgeSchedule
from .codec import CodecConfig
from .pipeline import AnyToAnyConfig, AugmentConfig, DegradationPolicy, StageConfig
from .predictor import PredictorConfig

_REQUIRED = object()


class ConfigError(ValueError):
    pass


@dataclass
class TrainParams:
    steps: int = 1000
    batch_size: int = 8
    crop_frames: int = 64
    lr: float = 3e-4
    log_every: int = 50


def read_ini(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    with open(path) as f:
        cp.read_file(f)
    return cp


def _get(cp, path, section, key, cast=str, default=_REQUIRED):
    if not cp.has_section(section) or not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing key '{key}' in section [{section}]")
        return default
    raw = cp.get(section, key).strip()
    try:
        if cast is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return cast(raw)
    except ValueError as e:
        raise ConfigError(f"{path}: bad value for '{key}' in [{section}]: {e}") from e


def _int_tuple(raw: str) -> tuple:
    return tuple(int(x) for x in raw.replace(",", " ").split())


def _str_tuple(raw: str) -> tuple:
    return tuple(x for x in raw.replace(",", " ").split())


def parse_train_params(cp, path) -> TrainParams:
    d = TrainParams()
    return TrainParams(
        steps=_get(cp, path, "training", "steps", int, d.steps),
        batch_size=_get(cp, path, "training", "batch_size", int, d.batch_size),
        crop_frames=_get(cp, path, "training", "crop_frames", int, d.crop_frames),
        lr=_get(cp, path, "training", "lr", float, d.lr),
        log_every=_get(cp, path, "training", "log_every", int, d.log_every),
    )


def parse_codec_config(path: str) -> tuple[CodecConfig, TrainParams]:
    cp = read_ini(path)
    cfg = CodecConfig(
        sample_rate=_get(cp, path, "codec", "sample_rate", int),
        ratio=_get(cp, path, "codec", "ratio", int, 16),
        channels=_get(cp, path, "codec", "channels", int, 8),
        strides=_get(cp, path, "codec", "strides", _int_tuple, (2, 2, 2, 2)),
        widths=_get(cp, path, "codec", "widths", _int_tuple, (16, 24, 32, 32)),
        kl_weight=_get(cp, path, "codec", "kl_weight", float, 1e-7),
    )
    return cfg, parse_train_params(cp, path)


def parse_policy(cp, path) -> DegradationPolicy | None:
    if not cp.has_section("degradation"):
        return None
    lo = _get(cp, path, "degradation", "cutoff_lo", float)
    hi = _get(cp, path, "degradation", "cutoff_hi", float)
    return DegradationPolicy(
        cutoff_range=(lo, hi),
        families=_get(cp, path, "degradation", "families", _str_tuple, DegradationPolicy.families),
        order_range=_get(cp, path, "degradation", "orders", _int_tuple, (2, 10)),
        fixed_family=_get(cp, path, "degradation", "fixed_family", str, None),
        fixed_order=_get(cp, path, "degradation", "fixed_order", int, None),
    )


def parse_policy_file(path: str) -> DegradationPolicy:
    cp = read_ini(path)
    pol = parse_policy(cp, path)
    if pol is None:
        raise ConfigError(f"{path}: missing section [degradation]")
    return pol


def parse_stage_config(path: str) -> tuple[StageConfig, TrainParams, BridgeSchedule, PredictorConfig | None]:
    cp = read_ini(path)
    base = os.path.dirname(os.path.abspath(path))

    def _path(raw):
        return raw if (not raw or os.path.isabs(raw)) else os.path.join(base, raw)

    anytoany = None
    if cp.has_section("anytoany"):
        anytoany = AnyToAnyConfig(
            f_target_range=(
                _get(cp, path, "anytoany", "f_target_lo", float),
                _get(cp, path, "anytoany", "f_target_hi", float),
            ),
            min_usable_hz=_get(cp, path, "anytoany", "min_usable_hz", float, 1000.0),
        )
    augmentation = None
    if cp.has_section("augmentation"):
        augmentation = AugmentConfig(
            lpf_margin_hz=_get(cp, path, "augmentation", "lpf_margin_hz", float, 300.0),
            train_margin_max_hz=_get(cp, path, "augmentation", "train_margin_max_hz", float, 600.0),
            blur_max=_get(cp, path, "augmentation", "blur_max", float, 1.0),
            blur_star=_get(cp, path, "augmentation", "blur_star", float, 0.3),
        )
    if anytoany is not None and augmentation is not None:
        raise ConfigError(f"{path}: a stage is either [anytoany] or [augmentation], not both")

    stage = StageConfig(
        target_sr=_get(cp, path, "stage", "target_sr", int),
        codec_path=_path(_get(cp, path, "stage", "codec", str, "")),
        predictor_path=_path(_get(cp, path, "stage", "predictor", str, "")),
        scale=_get(cp, path, "stage", "scale", float, None),
        degradation=parse_policy(cp, path),
        anytoany=anytoany,
        augmentation=augmentation,
        window_frames=_get(cp, path, "stage", "window_frames", int, 64),
        post_replace=_get(cp, path, "stage", "post_replace", bool, False),
    )

    sched = BridgeSchedule(
        g_min_sq=_get(cp, path, "schedule", "g_min_sq", float, 0.001),
        g_max_sq=_get(cp, path, "schedule", "g_max_sq", float, 1.0),
        profile=_get(cp, path, "schedule", "profile", str, "triangular"),
    )

    pred_cfg = None
    if cp.has_section("predictor"):
        pred_cfg = PredictorConfig(
            latent_channels=_get(cp, path, "predictor", "latent_channels", int, 8),
            width=_get(cp, path, "predictor", "width", int, 32),
            kernel=_get(cp, path, "predictor", "kernel", int, 5),
            dilations=_get(cp, path, "predictor", "dilations", _int_tuple, (1, 2, 4, 8, 1, 2, 4, 8)),
            embed_dim=_get(cp, path, "predictor", "embed_dim", int, 64),
            use_blur_token=augmentation is not None,
        )
    return stage, parse_train_params(cp, path), sched, pred_cfg
