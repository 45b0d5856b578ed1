"""INI config parsing: defaults, strict missing-key errors, path handling."""

import pytest

from wavebridge import config
from wavebridge.config import (
    ConfigError,
    parse_codec_config,
    parse_policy_file,
    parse_stage_config,
    read_ini,
)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_read_ini_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        read_ini(str(tmp_path / "nope.ini"))


def test_codec_config_minimal_defaults(tmp_path):
    path = _write(tmp_path, "c.ini", "[codec]\nsample_rate = 8000\n")
    cfg, tp = parse_codec_config(path)
    assert cfg.sample_rate == 8000
    assert cfg.ratio == 16
    assert cfg.channels == 8
    assert cfg.strides == (2, 2, 2, 2)
    assert tp.steps == 1000 and tp.batch_size == 8 and tp.lr == 3e-4


def test_codec_config_overrides(tmp_path):
    path = _write(
        tmp_path, "c.ini",
        "[codec]\nsample_rate = 16000\nchannels = 4\nwidths = 8, 12, 16, 16\n"
        "[training]\nsteps = 42\nlr = 0.001\n",
    )
    cfg, tp = parse_codec_config(path)
    assert cfg.channels == 4 and cfg.widths == (8, 12, 16, 16)
    assert tp.steps == 42 and tp.lr == 0.001


def test_missing_required_key_names_it(tmp_path):
    path = _write(tmp_path, "c.ini", "[codec]\nchannels = 4\n")
    with pytest.raises(ConfigError, match=r"missing key 'sample_rate' in section \[codec\]"):
        parse_codec_config(path)


def test_bad_value_names_key(tmp_path):
    path = _write(tmp_path, "c.ini", "[codec]\nsample_rate = eight\n")
    with pytest.raises(ConfigError, match=r"bad value for 'sample_rate'"):
        parse_codec_config(path)


def test_policy_file_parsing(tmp_path):
    path = _write(
        tmp_path, "p.ini",
        "[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\n"
        "orders = 2, 8\nfamilies = cheby1, bessel\n",
    )
    pol = parse_policy_file(path)
    assert pol.cutoff_range == (1000.0, 3000.0)
    assert pol.order_range == (2, 8)
    assert pol.families == ("cheby1", "bessel")


def test_unread_key_names_key_and_section(tmp_path):
    path = _write(tmp_path, "c.ini", "[codec]\nsample_rate = 8000\n[training]\nbatch_sise = 4\n")
    with pytest.raises(ConfigError, match=r"unknown key 'batch_sise' in section \[training\]"):
        parse_codec_config(path)


def test_policy_rejects_removed_fixed_family(tmp_path):
    # fixed_family once pinned the filter; silently ignoring it would switch
    # the file to random families
    path = _write(tmp_path, "p.ini", "[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\nfixed_family = cheby1\n")
    with pytest.raises(ConfigError, match=r"unknown key 'fixed_family' in section \[degradation\]"):
        parse_policy_file(path)
    with open(path, "a") as f:
        f.write("[stage]\ntarget_sr = 8000\n")
    with pytest.raises(ConfigError, match="fixed_family"):
        parse_stage_config(path)


def test_sections_a_parser_does_not_read_are_ignored(tmp_path):
    # degrade --policy accepts a full stage config
    path = _write(
        tmp_path, "s.ini",
        "[stage]\ntarget_sr = 8000\ncodec = c.ckpt\nwindow_frames = 32\n"
        "[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\n"
        "[anytoany]\nf_target_lo = 4000\nf_target_hi = 4000\n",
    )
    assert parse_policy_file(path).cutoff_range == (1000.0, 3000.0)
    assert parse_stage_config(path)[0].window_frames == 32


def test_policy_file_requires_section(tmp_path):
    path = _write(tmp_path, "p.ini", "[codec]\nsample_rate = 8000\n")
    with pytest.raises(ConfigError, match=r"\[degradation\]"):
        parse_policy_file(path)


def test_stage_config_first_stage(tmp_path):
    path = _write(
        tmp_path, "s.ini",
        "[stage]\ntarget_sr = 8000\ncodec = codec.ckpt\npredictor = pred.ckpt\n"
        "[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\n"
        "[anytoany]\nf_target_lo = 4000\nf_target_hi = 4000\n"
        "[predictor]\nlatent_channels = 4\nwidth = 8\nkernel = 3\ndilations = 1 2\nembed_dim = 16\n",
    )
    stage, tp, pcfg = parse_stage_config(path)
    assert stage.target_sr == 8000
    assert stage.is_cascade is False
    # relative checkpoint paths resolve against the config's directory
    assert stage.codec_path == str(tmp_path / "codec.ckpt")
    assert stage.predictor_path == str(tmp_path / "pred.ckpt")
    assert stage.anytoany.f_target_range == (4000.0, 4000.0)
    assert pcfg.latent_channels == 4
    assert pcfg.use_blur_token is False


def test_stage_config_cascade(tmp_path):
    path = _write(
        tmp_path, "s.ini",
        "[stage]\ntarget_sr = 16000\n"
        "[augmentation]\nblur_star = 0.2\nblur_max = 0.8\n"
        "[predictor]\n",
    )
    stage, _, pcfg = parse_stage_config(path)
    assert stage.is_cascade is True
    assert stage.augmentation.blur_star == 0.2
    assert pcfg.use_blur_token is True


def test_removed_schedule_section_fails_by_name(tmp_path):
    # a stage trains on the default bridge schedule; a file that still sets
    # one would otherwise train on a schedule other than the one it names
    path = _write(
        tmp_path, "s.ini",
        "[stage]\ntarget_sr = 16000\n[augmentation]\n[schedule]\nprofile = constant\n",
    )
    with pytest.raises(ConfigError, match=r"unknown section \[schedule\]"):
        parse_stage_config(path)


def test_stage_config_rejects_both_kinds(tmp_path):
    path = _write(
        tmp_path, "s.ini",
        "[stage]\ntarget_sr = 8000\n"
        "[anytoany]\nf_target_lo = 4000\nf_target_hi = 4000\n"
        "[augmentation]\n",
    )
    with pytest.raises(ConfigError, match="not both"):
        parse_stage_config(path)


def test_stage_config_absolute_path_kept(tmp_path):
    path = _write(
        tmp_path, "s.ini",
        "[stage]\ntarget_sr = 8000\ncodec = /abs/c.ckpt\n",
    )
    stage, _, pcfg = parse_stage_config(path)
    assert stage.codec_path == "/abs/c.ckpt"
    assert stage.predictor_path == ""
    assert pcfg is None


@pytest.mark.parametrize("parse, text, section, key", [
    # a stage's output is its decoded bridge sample
    (parse_stage_config, "[stage]\ntarget_sr = 8000\npost_replace = no\n", "stage", "post_replace"),
    # the ratio is the product of the strides
    (parse_codec_config, "[codec]\nsample_rate = 8000\nratio = 16\n", "codec", "ratio"),
])
def test_deleted_keys_fail_by_name(tmp_path, parse, text, section, key):
    path = _write(tmp_path, "old.ini", text)
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
        parse(path)


def test_inline_comments_stripped(tmp_path):
    path = _write(tmp_path, "c.ini", "[codec]\nsample_rate = 8000  # full band\n")
    cfg, _ = parse_codec_config(path)
    assert cfg.sample_rate == 8000


# Every key each section accepts. A key dropped from or added to this surface
# changes which files parse, so it changes here on purpose or not at all.
INI_SURFACE = {
    "codec": {"sample_rate", "channels", "strides", "widths", "kl_weight"},
    "training": {"steps", "batch_size", "crop_frames", "lr", "log_every"},
    "stage": {"target_sr", "codec", "predictor", "window_frames", "source_sr"},
    "degradation": {"cutoff_lo", "cutoff_hi", "families", "orders"},
    "anytoany": {"f_target_lo", "f_target_hi"},
    "augmentation": {"lpf_margin_hz", "train_margin_max_hz", "blur_max", "blur_star"},
    "predictor": {"latent_channels", "width", "kernel", "dilations", "embed_dim"},
}


def _accepted_keys(monkeypatch, parse, path):
    """Keys per section that `parse` reads; reject_unread refuses every other key there."""
    files = []
    real_read_ini = config.read_ini

    def spy(p):
        files.append(real_read_ini(p))
        return files[-1]

    monkeypatch.setattr(config, "read_ini", spy)
    parse(path)
    return files[0].asked


def test_ini_surface_is_pinned(tmp_path, monkeypatch):
    first = (
        "[stage]\ntarget_sr = 8000\n[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\n"
        "[anytoany]\nf_target_lo = 4000\nf_target_hi = 4000\n[predictor]\n"
    )
    cascade = "[stage]\ntarget_sr = 16000\n[augmentation]\n[predictor]\n"
    cases = [
        (parse_codec_config, "[codec]\nsample_rate = 8000\n", ("codec", "training")),
        (parse_policy_file, "[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\n", ("degradation",)),
        (parse_stage_config, first, ("stage", "degradation", "anytoany", "predictor", "training")),
        (parse_stage_config, cascade, ("stage", "augmentation", "predictor", "training")),
    ]
    for i, (parse, text, sections) in enumerate(cases):
        asked = _accepted_keys(monkeypatch, parse, _write(tmp_path, f"{i}.ini", text))
        assert asked == {sec: INI_SURFACE[sec] for sec in sections}


@pytest.mark.parametrize("section, key, value", [
    ("anytoany", "min_usable_hz", "800"),  # the band floor is MIN_USABLE_HZ everywhere
    ("stage", "scale", "2.0"),  # the latent scale comes from the codec checkpoint
    ("predictor", "use_blur_token", "yes"),  # set by the stage kind
])
def test_stage_config_rejects_keys_outside_the_surface(tmp_path, section, key, value):
    sections = {
        "stage": "target_sr = 8000",
        "degradation": "cutoff_lo = 1000\ncutoff_hi = 3000",
        "anytoany": "f_target_lo = 4000\nf_target_hi = 4000",
        "predictor": "",
    }
    sections[section] += f"\n{key} = {value}"
    path = _write(tmp_path, "s.ini", "".join(f"[{s}]\n{body}\n" for s, body in sections.items()))
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
        parse_stage_config(path)


@pytest.mark.parametrize("typo", ["schedul", "predicter"])
def test_unknown_section_is_named(tmp_path, typo):
    path = _write(
        tmp_path, "s.ini",
        f"[stage]\ntarget_sr = 8000\n[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\n"
        f"[anytoany]\nf_target_lo = 4000\nf_target_hi = 4000\n[{typo}]\nwidth = 8\n",
    )
    with pytest.raises(ConfigError, match=rf"unknown section \[{typo}\]"):
        parse_stage_config(path)
    with pytest.raises(ConfigError, match=rf"unknown section \[{typo}\]"):
        parse_policy_file(path)


def test_every_known_section_may_share_a_file(tmp_path):
    # a full stage config is also a degradation policy file
    path = _write(
        tmp_path, "s.ini",
        "[stage]\ntarget_sr = 8000\n[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\n"
        "[anytoany]\nf_target_lo = 4000\nf_target_hi = 4000\n[predictor]\nwidth = 8\n"
        "[training]\nsteps = 3\n",
    )
    assert parse_stage_config(path)[2].width == 8
    assert parse_policy_file(path).cutoff_range == (1000.0, 3000.0)


def test_bench_stage_configs_parse():
    from pathlib import Path

    inis = sorted((Path(__file__).resolve().parents[1] / "wbbench" / "ckpt").glob("stage*.ini"))
    assert inis
    for ini in inis:
        assert parse_stage_config(str(ini))[0].window_frames == 64
