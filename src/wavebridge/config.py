"""Flat key/value config files (INI sections) for training and inference.

Two file kinds: a codec config ([codec] + [training]) and a stage config
([stage] + [degradation]/[anytoany]/[augmentation] + [training] + optional
[schedule]/[predictor]). Every missing required key, and every key a parser
does not read in a section it reads, raises ConfigError naming the key and
section, so a typo fails loudly instead of training the wrong model.
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


class IniFile:
    """A parsed INI file that remembers which keys the parser asked for."""

    def __init__(self, path: str, cp: configparser.ConfigParser):
        self.path = path
        self.cp = cp
        self.asked: dict[str, set[str]] = {}

    def has_section(self, section: str) -> bool:
        return self.cp.has_section(section)

    def get(self, section, key, cast=str, default=_REQUIRED):
        self.asked.setdefault(section, set()).add(key)
        if not self.cp.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"{self.path}: missing key '{key}' in section [{section}]")
            return default
        raw = self.cp.get(section, key).strip()
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
            raise ConfigError(f"{self.path}: bad value for '{key}' in [{section}]: {e}") from e

    def reject_unread(self) -> None:
        """Raise on a key the parser never asked for in a section it read.

        Sections the parser did not read are left alone, so one file can serve
        several commands (a stage config is also a degradation policy).
        """
        for section, keys in self.asked.items():
            if self.cp.has_section(section):
                for key in self.cp.options(section):
                    if key not in keys:
                        raise ConfigError(f"{self.path}: unknown key '{key}' in section [{section}]")


def read_ini(path: str) -> IniFile:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    with open(path) as f:
        cp.read_file(f)
    return IniFile(path, cp)


def _int_tuple(raw: str) -> tuple:
    return tuple(int(x) for x in raw.replace(",", " ").split())


def _str_tuple(raw: str) -> tuple:
    return tuple(x for x in raw.replace(",", " ").split())


def parse_train_params(ini: IniFile) -> TrainParams:
    d = TrainParams()
    return TrainParams(
        steps=ini.get("training", "steps", int, d.steps),
        batch_size=ini.get("training", "batch_size", int, d.batch_size),
        crop_frames=ini.get("training", "crop_frames", int, d.crop_frames),
        lr=ini.get("training", "lr", float, d.lr),
        log_every=ini.get("training", "log_every", int, d.log_every),
    )


def parse_codec_config(path: str) -> tuple[CodecConfig, TrainParams]:
    ini = read_ini(path)
    cfg = CodecConfig(
        sample_rate=ini.get("codec", "sample_rate", int),
        ratio=ini.get("codec", "ratio", int, 16),
        channels=ini.get("codec", "channels", int, 8),
        strides=ini.get("codec", "strides", _int_tuple, (2, 2, 2, 2)),
        widths=ini.get("codec", "widths", _int_tuple, (16, 24, 32, 32)),
        kl_weight=ini.get("codec", "kl_weight", float, 1e-7),
    )
    tp = parse_train_params(ini)
    ini.reject_unread()
    return cfg, tp


def parse_policy(ini: IniFile) -> DegradationPolicy | None:
    if not ini.has_section("degradation"):
        return None
    lo = ini.get("degradation", "cutoff_lo", float)
    hi = ini.get("degradation", "cutoff_hi", float)
    return DegradationPolicy(
        cutoff_range=(lo, hi),
        families=ini.get("degradation", "families", _str_tuple, DegradationPolicy.families),
        order_range=ini.get("degradation", "orders", _int_tuple, (2, 10)),
    )


def parse_policy_file(path: str) -> DegradationPolicy:
    ini = read_ini(path)
    pol = parse_policy(ini)
    if pol is None:
        raise ConfigError(f"{path}: missing section [degradation]")
    ini.reject_unread()
    return pol


def parse_stage_config(path: str) -> tuple[StageConfig, TrainParams, BridgeSchedule, PredictorConfig | None]:
    ini = read_ini(path)
    base = os.path.dirname(os.path.abspath(path))

    def _path(raw):
        return raw if (not raw or os.path.isabs(raw)) else os.path.join(base, raw)

    anytoany = None
    if ini.has_section("anytoany"):
        anytoany = AnyToAnyConfig(
            f_target_range=(
                ini.get("anytoany", "f_target_lo", float),
                ini.get("anytoany", "f_target_hi", float),
            ),
            min_usable_hz=ini.get("anytoany", "min_usable_hz", float, 1000.0),
        )
    augmentation = None
    if ini.has_section("augmentation"):
        augmentation = AugmentConfig(
            lpf_margin_hz=ini.get("augmentation", "lpf_margin_hz", float, 300.0),
            train_margin_max_hz=ini.get("augmentation", "train_margin_max_hz", float, 600.0),
            blur_max=ini.get("augmentation", "blur_max", float, 1.0),
            blur_star=ini.get("augmentation", "blur_star", float, 0.3),
        )
    if anytoany is not None and augmentation is not None:
        raise ConfigError(f"{path}: a stage is either [anytoany] or [augmentation], not both")

    stage = StageConfig(
        target_sr=ini.get("stage", "target_sr", int),
        codec_path=_path(ini.get("stage", "codec", str, "")),
        predictor_path=_path(ini.get("stage", "predictor", str, "")),
        scale=ini.get("stage", "scale", float, None),
        degradation=parse_policy(ini),
        anytoany=anytoany,
        augmentation=augmentation,
        window_frames=ini.get("stage", "window_frames", int, 64),
        post_replace=ini.get("stage", "post_replace", bool, False),
    )

    sched = BridgeSchedule(
        g_min_sq=ini.get("schedule", "g_min_sq", float, 0.001),
        g_max_sq=ini.get("schedule", "g_max_sq", float, 1.0),
        profile=ini.get("schedule", "profile", str, "triangular"),
    )

    pred_cfg = None
    if ini.has_section("predictor"):
        pred_cfg = PredictorConfig(
            latent_channels=ini.get("predictor", "latent_channels", int, 8),
            width=ini.get("predictor", "width", int, 32),
            kernel=ini.get("predictor", "kernel", int, 5),
            dilations=ini.get("predictor", "dilations", _int_tuple, (1, 2, 4, 8, 1, 2, 4, 8)),
            embed_dim=ini.get("predictor", "embed_dim", int, 64),
            use_blur_token=augmentation is not None,
        )
    tp = parse_train_params(ini)
    ini.reject_unread()
    return stage, tp, sched, pred_cfg
