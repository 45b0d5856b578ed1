"""CLI surface, exercised in-process through main()."""

import argparse
import ast
import csv
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import wavebridge
from wavebridge import bridge, cli
from wavebridge.checkpoint import load_checkpoint, save_checkpoint
from wavebridge.cli import _rng_for, build_parser, main
from wavebridge.codec import Codec, CodecConfig
from wavebridge.dsp import Waveform, lowpass
from wavebridge.pipeline import (
    AnyToAnyConfig,
    DegradationPolicy,
    StageConfig,
    save_codec,
    save_predictor,
    train_stage,
)
from wavebridge.predictor import PredictorConfig
from wavebridge.toydata import ToyConfig, make_corpus
from wavebridge.wavio import write_wav

POLICY_INI = "[degradation]\ncutoff_lo = 1200\ncutoff_hi = 2800\n"


def _read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("toy"))
    assert main(["make-toy", d, "--count", "4", "--seed", "7", "--duration", "0.512"]) == 0
    return d


def test_make_toy_outputs_and_manifest(toy_dir):
    names = sorted(n for n in os.listdir(toy_dir) if n.endswith(".wav"))
    assert names == [f"toy_{i:04d}.wav" for i in range(4)]
    with open(os.path.join(toy_dir, "manifest.json")) as f:
        man = json.load(f)
    assert man["command"] == "make-toy"
    assert man["seed"] == 7
    assert man["outputs"] == names
    assert isinstance(man["wall_clock_s"], float)


def test_make_toy_deterministic(toy_dir, tmp_path):
    d2 = str(tmp_path / "again")
    assert main(["make-toy", d2, "--count", "4", "--seed", "7", "--duration", "0.512"]) == 0
    for i in range(4):
        name = f"toy_{i:04d}.wav"
        assert _read_bytes(os.path.join(toy_dir, name)) == _read_bytes(os.path.join(d2, name))


def test_degrade_writes_csv(toy_dir, tmp_path):
    policy = tmp_path / "policy.ini"
    policy.write_text(POLICY_INI)
    d1 = str(tmp_path / "lr1")
    assert main(["degrade", toy_dir, d1, "--policy", str(policy), "--seed", "3"]) == 0
    rows = _read_csv(os.path.join(d1, "cutoffs.csv"))
    assert rows[0] == ["file", "cutoff_hz", "family", "order"]
    assert len(rows) == 5
    assert [r[0] for r in rows[1:]] == sorted(r[0] for r in rows[1:])
    for r in rows[1:]:
        assert 1200.0 <= float(r[1]) <= 2800.0


def test_degrade_seed_changes_cutoffs(toy_dir, tmp_path):
    policy = tmp_path / "policy.ini"
    policy.write_text(POLICY_INI)
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["degrade", toy_dir, da, "--policy", str(policy), "--seed", "1"]) == 0
    assert main(["degrade", toy_dir, db, "--policy", str(policy), "--seed", "2"]) == 0
    ca = [r[1] for r in _read_csv(os.path.join(da, "cutoffs.csv"))[1:]]
    cb = [r[1] for r in _read_csv(os.path.join(db, "cutoffs.csv"))[1:]]
    assert ca != cb


def test_degrade_cutoff_distribution_is_uniform():
    # 1000 per-file generators (the exact path cmd_degrade takes) must give
    # cutoffs indistinguishable from U(lo, hi)
    pol = DegradationPolicy(cutoff_range=(1000.0, 3000.0))
    cuts = []
    for i in range(1000):
        rng = _rng_for(0, f"toy_{i:04d}.wav")
        cuts.append(pol.draw(rng).cutoff_hz)
    u = (np.asarray(cuts) - 1000.0) / 2000.0
    p = stats.kstest(u, "uniform").pvalue
    assert p > 0.01, f"KS p-value {p:.5f}"


def test_degrade_rejects_cutoff_at_nyquist(toy_dir, tmp_path, capsys):
    policy = tmp_path / "hot.ini"
    policy.write_text("[degradation]\ncutoff_lo = 1000\ncutoff_hi = 5000\n")
    rc = main(["degrade", toy_dir, str(tmp_path / "out"), "--policy", str(policy)])
    assert rc == 1
    assert "cutoff" in capsys.readouterr().err.lower()


def test_detect_bw_output_format(toy_dir, tmp_path, capsys):
    target = os.path.join(toy_dir, "toy_0000.wav")
    csv_path = str(tmp_path / "bw.csv")
    assert main(["detect-bw", target, "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert re.search(rf"{re.escape(target)} f_eff=\d+\.\d\d trunc_index=\d+ spectrum_len=\d+", out)
    rows = _read_csv(csv_path)
    assert rows[0] == ["file", "f_eff_hz", "trunc_index", "spectrum_len"]
    assert len(rows) == 2


def test_eval_identity_scores(toy_dir, tmp_path, capsys):
    out_csv = str(tmp_path / "eval.csv")
    assert main(["eval", toy_dir, toy_dir, "--out", out_csv]) == 0
    rows = _read_csv(out_csv)
    assert rows[0] == ["file", "lsd", "lsd_lf", "lsd_hf", "ssim"]
    assert rows[-1][0] == "mean"
    for r in rows[1:]:
        assert float(r[1]) == 0.0
        assert float(r[4]) == pytest.approx(1.0, abs=1e-6)
    assert "mean lsd 0.0000" in capsys.readouterr().out


def test_eval_skips_an_estimate_too_short_for_ssim(toy_dir, tmp_path, capsys, caplog):
    # 100 samples give 5 STFT frames, fewer than one 7x7 SSIM block
    ref, est = tmp_path / "ref", tmp_path / "est"
    ref.mkdir()
    est.mkdir()
    for name in ("toy_0000.wav", "toy_0001.wav"):
        shutil.copy(os.path.join(toy_dir, name), ref / name)
    shutil.copy(os.path.join(toy_dir, "toy_0000.wav"), est / "toy_0000.wav")
    write_wav(str(est / "toy_0001.wav"), np.zeros(100), 8000, encoding="float32")
    out_csv = str(tmp_path / "eval.csv")
    assert main(["eval", str(ref), str(est), "--out", out_csv]) == 0
    assert [r[0] for r in _read_csv(out_csv)[1:]] == ["toy_0000.wav", "mean"]
    assert any("toy_0001.wav" in r.getMessage() and "skipping" in r.getMessage() for r in caplog.records)
    assert "evaluated 1 pairs" in capsys.readouterr().out


def test_make_toy_zero_duration_names_it(tmp_path, capsys):
    assert main(["make-toy", str(tmp_path / "toy"), "--duration", "0"]) == 1
    assert "error: duration 0.0 s gives no sample at 8000 Hz" in capsys.readouterr().err


def _no_work(*args, **kwargs):
    raise AssertionError("the command started work before checking its output directory")


@pytest.mark.parametrize("argv", [
    ["upsample", "in.wav", "{nodir}/o.wav", "--stage", "s.ini"],
    ["train-codec", "--config", "c.ini", "--corpus", "toy", "--out", "{nodir}/c.ckpt"],
    ["train-codec", "--config", "c.ini", "--corpus", "toy", "--out", "c.ckpt", "--loss-csv", "{nodir}/l.csv"],
    ["train-bridge", "--config", "s.ini", "--corpus", "toy", "--out", "{nodir}/p.ckpt"],
    ["train-bridge", "--config", "s.ini", "--corpus", "toy", "--out", "p.ckpt", "--loss-csv", "{nodir}/l.csv"],
    ["eval", "ref", "est", "--out", "{nodir}/e.csv"],
    ["tune-aug", "--stage", "s.ini", "--val-lr", "lr", "--val-hr", "hr", "--out", "{nodir}/t.csv"],
    ["detect-bw", "in.wav", "--csv", "{nodir}/bw.csv"],
], ids=["upsample", "train-codec-out", "train-codec-loss-csv", "train-bridge-out", "train-bridge-loss-csv",
        "eval-out", "tune-aug-out", "detect-bw-csv"])
def test_a_missing_output_directory_is_rejected_before_any_work(tmp_path, monkeypatch, capsys, argv):
    for name in ("read_wav", "parse_codec_config", "parse_stage_config", "_wav_names"):
        monkeypatch.setattr(cli, name, _no_work)
    nodir = str(tmp_path / "nodir")
    assert main([a.format(nodir=nodir) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"directory {nodir} does not exist" in err


def test_train_codec_missing_key_exits_one(toy_dir, tmp_path, capsys):
    cfg = tmp_path / "codec.ini"
    cfg.write_text("[codec]\nchannels = 4\n")
    rc = main(["train-codec", "--config", str(cfg), "--corpus", toy_dir,
               "--out", str(tmp_path / "c.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "missing key 'sample_rate'" in err
    assert "[codec]" in err


def test_train_codec_short_crop_names_the_key(toy_dir, tmp_path, capsys):
    # crop_frames defaults to 64, and 64 frames of 16 samples are shorter than
    # the loss's 2048-sample frame
    cfg = tmp_path / "codec.ini"
    cfg.write_text("[codec]\nsample_rate = 8000\n")
    rc = main(["train-codec", "--config", str(cfg), "--corpus", toy_dir,
               "--out", str(tmp_path / "c.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "[training] crop_frames = 64" in err
    assert "1024" in err and "2048" in err
    assert not (tmp_path / "c.ckpt").exists()


def test_training_logs_report_steps_per_second(toy_dir, tmp_path, capsys, caplog):
    # the rate goes through logging (stderr), never to stdout
    codec_ini = tmp_path / "codec.ini"
    codec_ini.write_text(
        "[codec]\nsample_rate = 8000\nchannels = 4\nwidths = 8 12 16 16\n"
        "[training]\nsteps = 3\nbatch_size = 2\ncrop_frames = 128\nlog_every = 1\n"
    )
    stage_ini = tmp_path / "stage.ini"
    stage_ini.write_text(
        "[stage]\ntarget_sr = 8000\ncodec = c.ckpt\n"
        "[degradation]\ncutoff_lo = 1000\ncutoff_hi = 3000\n"
        "[anytoany]\nf_target_lo = 4000\nf_target_hi = 4000\n"
        "[predictor]\nlatent_channels = 4\nwidth = 8\nkernel = 3\ndilations = 1 2\nembed_dim = 16\n"
        "[training]\nsteps = 3\nbatch_size = 2\ncrop_frames = 16\nlog_every = 1\n"
    )
    caplog.set_level(logging.INFO, logger="wavebridge.cli")
    assert main(["train-codec", "--config", str(codec_ini), "--corpus", toy_dir, "--out", str(tmp_path / "c.ckpt")]) == 0
    assert main(["train-bridge", "--config", str(stage_ini), "--corpus", toy_dir, "--out", str(tmp_path / "p.ckpt")]) == 0
    for kind in ("codec", "bridge"):
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith(f"{kind} step")]
        assert len(lines) == 3
        rates = [float(re.search(r", ([0-9.]+) steps/s$", line).group(1)) for line in lines]
        assert all(np.isfinite(r) and r > 0 for r in rates)
    assert "steps/s" not in capsys.readouterr().out


def test_upsample_missing_stage_config_exits_one(toy_dir, tmp_path, capsys):
    rc = main(["upsample", os.path.join(toy_dir, "toy_0000.wav"), str(tmp_path / "o.wav"),
               "--stage", str(tmp_path / "nope.ini")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stage_ini(tmp_path_factory):
    """A tiny trained 8->16 kHz stage saved to disk, plus an 8 kHz input file."""
    d = tmp_path_factory.mktemp("stage")
    codec_cfg = CodecConfig(sample_rate=16000, channels=4, widths=(8, 12, 16, 16))
    codec = Codec(codec_cfg, np.random.default_rng(0))
    corpus = make_corpus(3, ToyConfig(sample_rate=16000, duration_s=0.512), np.random.default_rng(42))
    cfg = StageConfig(
        target_sr=16000,
        degradation=DegradationPolicy(cutoff_range=(2000.0, 6000.0)),
        anytoany=AnyToAnyConfig(f_target_range=(8000.0, 8000.0)),
        window_frames=64,
    )
    pred_cfg = PredictorConfig(latent_channels=4, width=8, kernel=3, dilations=(1, 2), embed_dim=16)
    pred, _ = train_stage(
        corpus, codec, 1.0, cfg, steps=3, rng=np.random.default_rng(1),
        predictor_cfg=pred_cfg, batch_size=2, crop_latent_frames=32,
    )
    save_codec(str(d / "codec.ckpt"), codec, 1.0)
    save_predictor(str(d / "pred.ckpt"), pred, bridge.BridgeSchedule())
    ini = d / "stage.ini"
    ini.write_text(
        "[stage]\ntarget_sr = 16000\ncodec = codec.ckpt\npredictor = pred.ckpt\nwindow_frames = 64\n"
    )
    rng = np.random.default_rng(5)
    lr = lowpass(Waveform(rng.standard_normal(2048), 8000), 3000.0)
    in_wav = str(d / "in.wav")
    write_wav(in_wav, lr.samples, 8000, encoding="float32")
    return str(ini), in_wav


def test_upsample_cli_end_to_end(stage_ini, tmp_path):
    ini, in_wav = stage_ini
    out = str(tmp_path / "out.wav")
    rc = main(["upsample", in_wav, out, "--stage", ini, "--steps", "3", "--seed", "4"])
    assert rc == 0
    assert os.path.exists(out)
    with open(out + ".json") as f:
        man = json.load(f)
    assert man["command"] == "upsample"
    assert man["extra"]["stages"][0]["target_sr"] == 16000
    from wavebridge.wavio import read_wav

    samples, sr = read_wav(out)
    assert sr == 16000
    assert len(samples) == 4096
    assert np.all(np.isfinite(samples))


def test_upsample_cli_rejects_non_finite_checkpoint(stage_ini, tmp_path, capsys):
    ini, in_wav = stage_ini
    stage_dir = os.path.dirname(ini)
    kind, config, tensors, extra = load_checkpoint(os.path.join(stage_dir, "pred.ckpt"))
    tensors["block0.conv.w"].flat[0] = np.nan
    save_checkpoint(str(tmp_path / "pred.ckpt"), kind, config, tensors, extra)
    shutil.copy(os.path.join(stage_dir, "codec.ckpt"), tmp_path / "codec.ckpt")
    shutil.copy(ini, tmp_path / "stage.ini")
    rc = main(["upsample", in_wav, str(tmp_path / "o.wav"), "--stage", str(tmp_path / "stage.ini"), "--steps", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pred.ckpt" in err and "'block0.conv.w'" in err
    assert not (tmp_path / "o.wav").exists()


def test_upsample_cli_bit_reproducible(stage_ini, tmp_path):
    ini, in_wav = stage_ini
    oa, ob, oc = (str(tmp_path / n) for n in ("a.wav", "b.wav", "c.wav"))
    assert main(["upsample", in_wav, oa, "--stage", ini, "--steps", "3", "--seed", "9"]) == 0
    assert main(["upsample", in_wav, ob, "--stage", ini, "--steps", "3", "--seed", "9"]) == 0
    assert main(["upsample", in_wav, oc, "--stage", ini, "--steps", "3", "--seed", "10"]) == 0
    assert _read_bytes(oa) == _read_bytes(ob)
    assert _read_bytes(oa) != _read_bytes(oc)


def test_upsample_cli_loads_no_scipy(stage_ini, tmp_path, child_env):
    # scipy.signal's package import alone costs more than a short upsample call
    ini, in_wav = stage_ini
    code = (
        "import json, sys\n"
        "from wavebridge import cli\n"
        "rc = cli.main(['upsample', sys.argv[1], sys.argv[2], '--stage', sys.argv[3], '--steps', '2'])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))\n"
    )
    r = subprocess.run([sys.executable, "-c", code, in_wav, str(tmp_path / "o.wav"), ini],
                       env=child_env(), capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    rc, loaded = json.loads(r.stdout.strip().splitlines()[-1])
    assert rc == 0
    assert loaded == []


def test_tune_aug_rejects_first_stage_config(stage_ini, tmp_path, capsys):
    # a first stage has no blur or margin to tune: every grid point would differ by sampler noise only
    ini, in_wav = stage_ini
    val = os.path.dirname(in_wav)
    rc = main(["tune-aug", "--stage", ini, "--val-lr", val, "--val-hr", val,
               "--steps", "2", "--out", str(tmp_path / "tune.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ini in err and "[augmentation]" in err
    assert not (tmp_path / "tune.csv").exists()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU gives BLAS one thread either way")
def test_upsample_bytes_do_not_depend_on_the_blas_thread_default(tmp_path, child_env):
    # A matmul split over BLAS's default thread pool rounds differently from a
    # one-thread matmul; `python -m wavebridge` pins one thread unless told.
    stage1 = os.path.join(os.path.dirname(__file__), os.pardir, "wbbench", "ckpt", "stage1.ini")
    x = lowpass(Waveform(np.random.default_rng(0).standard_normal(48000) * 0.2, 8000), 2000.0)
    write_wav(str(tmp_path / "in.wav"), x.samples, 8000, encoding="float32")
    outputs = []
    for name, pinned in (("unset", {}), ("one", dict.fromkeys(BLAS_THREAD_VARS, "1"))):
        env = {k: v for k, v in child_env().items() if k not in BLAS_THREAD_VARS}
        env.update(pinned)
        out = str(tmp_path / f"{name}.wav")
        r = subprocess.run([sys.executable, "-m", "wavebridge", "upsample", str(tmp_path / "in.wav"), out,
                            "--stage", stage1, "--steps", "5", "--seed", "0"],
                           env=env, capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        outputs.append(_read_bytes(out))
    assert outputs[0] == outputs[1]


# Every option of every subcommand. An option dropped from or added to this
# surface changes which command lines run, so it changes here on purpose.
CLI_SURFACE = {
    "wavebridge": {"--verbose", "command"},
    "make-toy": {"out_dir", "--count", "--seed", "--sample-rate", "--duration"},
    "degrade": {"in_dir", "out_dir", "--policy", "--seed"},
    "detect-bw": {"files", "--csv"},
    "train-codec": {"--config", "--corpus", "--out", "--loss-csv", "--seed"},
    "train-bridge": {"--config", "--corpus", "--out", "--loss-csv", "--seed"},
    "upsample": {"input", "output", "--stage", "--steps", "--seed", "--encoding"},
    "eval": {"ref_dir", "est_dir", "--out", "--band-split-hz"},
    "tune-aug": {"--stage", "--val-lr", "--val-hr", "--blur-grid", "--margin-grid", "--steps", "--seed", "--out"},
}


def _options(parser):
    """The long option or positional name of every argument but --help."""
    return {
        max(a.option_strings, key=len) if a.option_strings else a.dest
        for a in parser._actions
        if not isinstance(a, argparse._HelpAction)
    }


def test_cli_surface_is_pinned():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {"wavebridge": _options(parser)}
    surface.update({name: _options(sp) for name, sp in commands.choices.items()})
    assert surface == CLI_SURFACE


def _stdout_writes(tree):
    """Line numbers of print calls and sys.stdout uses in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__"):
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(a.name in ("stdout", "__stdout__") for a in node.names):
                yield node.lineno


def test_only_the_cli_writes_to_stdout():
    # library modules log to stderr; a caller that reads stdout (a benchmark's
    # last-line result, a pipe) sees only what the command itself prints
    pkg = Path(wavebridge.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name in ("cli.py", "__main__.py"):
            continue
        found += [f"{path.name}:{line}" for line in _stdout_writes(ast.parse(path.read_text()))]
    assert found == []
    bad = ast.parse("import sys\nprint(1)\nsys.stdout.write('x')\nfrom sys import stdout\n")
    assert sorted(_stdout_writes(bad)) == [2, 3, 4]
