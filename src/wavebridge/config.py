"""Flat key/value config files (INI sections) for training and inference.

Two file kinds: a codec config ([codec] + [training]) and a stage config
([stage] + [degradation]/[anytoany]/[augmentation] + [training] + optional
[predictor]). The keys of [codec], [training], [augmentation] and
[predictor] are the field names of the dataclass the section builds
(CodecConfig, TrainParams, AugmentConfig, PredictorConfig), and a missing
key takes the field's default. A stage trains on the default bridge
schedule, which its predictor checkpoint records. [degradation]
and [anytoany] give ranges by their ends (cutoff_lo/cutoff_hi, orders,
f_target_lo/f_target_hi); [stage] names checkpoint paths by kind (codec,
predictor). Every missing required key, every key a parser does not read in
a section it reads, and every section outside SECTIONS raises ConfigError
naming the key or section, so a typo fails loudly instead of training the
wrong model.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import MISSING, dataclass, fields

from .codec import CodecConfig
from .pipeline import AnyToAnyConfig, AugmentConfig, DegradationPolicy, StageConfig
from .predictor import PredictorConfig

_REQUIRED = object()
_ABSENT = object()

# Every section some parser reads. Any file may hold any of them (a stage
# config is also a degradation policy file); any other name is a typo.
SECTIONS = ("codec", "training", "stage", "degradation", "anytoany", "augmentation", "predictor")


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
            return cast(raw)
        except ValueError as e:
            raise ConfigError(f"{self.path}: bad value for '{key}' in [{section}]: {e}") from e

    def reject_unread(self) -> None:
        """Raise on a section outside SECTIONS, or a key the parser never asked
        for in a section it read.

        Known sections the parser did not read are left alone, so one file can
        serve several commands (a stage config is also a degradation policy).
        """
        for section in self.cp.sections():
            if section not in SECTIONS:
                raise ConfigError(f"{self.path}: unknown section [{section}]; known: {', '.join(SECTIONS)}")
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


# every tuple field of a section read_section builds holds ints
_CASTS = {"int": int, "float": float, "str": str, "tuple": _int_tuple}


def read_section(ini: IniFile, section: str, cls, **given):
    """Build dataclass `cls` from the keys of [section] named like its fields.

    A missing key takes the field default; a field without one is required.
    Fields passed in `given` are set by the caller and are not keys.
    """
    kwargs = dict(given)
    for f in fields(cls):
        if f.init and f.name not in given:
            required = f.default is MISSING and f.default_factory is MISSING
            value = ini.get(section, f.name, _CASTS[f.type], _REQUIRED if required else _ABSENT)
            if value is not _ABSENT:
                kwargs[f.name] = value
    return cls(**kwargs)


def parse_codec_config(path: str) -> tuple[CodecConfig, TrainParams]:
    ini = read_ini(path)
    cfg = read_section(ini, "codec", CodecConfig)
    tp = read_section(ini, "training", TrainParams)
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
        order_range=ini.get("degradation", "orders", _int_tuple, DegradationPolicy.order_range),
    )


def parse_policy_file(path: str) -> DegradationPolicy:
    ini = read_ini(path)
    pol = parse_policy(ini)
    if pol is None:
        raise ConfigError(f"{path}: missing section [degradation]")
    ini.reject_unread()
    return pol


def parse_stage_config(path: str) -> tuple[StageConfig, TrainParams, PredictorConfig | None]:
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
            )
        )
    augmentation = None
    if ini.has_section("augmentation"):
        augmentation = read_section(ini, "augmentation", AugmentConfig)
    if anytoany is not None and augmentation is not None:
        raise ConfigError(f"{path}: a stage is either [anytoany] or [augmentation], not both")

    stage = StageConfig(
        target_sr=ini.get("stage", "target_sr", int),
        codec_path=_path(ini.get("stage", "codec", str, StageConfig.codec_path)),
        predictor_path=_path(ini.get("stage", "predictor", str, StageConfig.predictor_path)),
        degradation=parse_policy(ini),
        anytoany=anytoany,
        augmentation=augmentation,
        window_frames=ini.get("stage", "window_frames", int, StageConfig.window_frames),
        source_sr=ini.get("stage", "source_sr", int, StageConfig.source_sr),
    )
    pred_cfg = None
    if ini.has_section("predictor"):
        pred_cfg = read_section(ini, "predictor", PredictorConfig, use_blur_token=augmentation is not None)
    tp = read_section(ini, "training", TrainParams)
    ini.reject_unread()
    return stage, tp, pred_cfg
