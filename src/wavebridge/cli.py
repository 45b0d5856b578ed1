"""Command-line surface.

Subcommands: make-toy, degrade, detect-bw, train-codec, train-bridge,
upsample, eval, tune-aug. Every stochastic command takes --seed and is
bit-reproducible under it; batch commands draw a per-file RNG stream keyed by
filename, so a file's output does not depend on which other files are in the
corpus. Each artifact-producing command drops a JSON manifest next to its
output recording the command, seed, config, and version.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__, pipeline
from .bandwidth import estimate_f_eff
from .checkpoint import atomic_write_bytes
from .codec import fit_latent_scale, train_codec
from .config import ConfigError, parse_codec_config, parse_policy_file, parse_stage_config
from .dsp import Waveform, stft
from .metrics import EVAL_STFT, MrStftConfig, lsd, lsd_band, spectral_ssim
from .pipeline import Stage, load_codec, save_codec, save_predictor, simulate_lr, train_stage, tune_augmentation, upsample
from .toydata import ToyConfig, make_clip
from .wavio import WavFormatError, read_wav, write_wav

log = logging.getLogger("wavebridge.cli")


def _rng_for(seed: int, name: str) -> np.random.Generator:
    """Per-file generator keyed by (seed, filename digest): order-independent."""
    digest = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, digest])


def _write_manifest(path: str, command: str, seed=None, config=None, inputs=None, outputs=None, extra=None, t0=None) -> None:
    doc = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": sorted(inputs or []),
        "outputs": sorted(outputs or []),
        "version": __version__,
        "wall_clock_s": None if t0 is None else round(time.monotonic() - t0, 3),
    }
    if extra:
        doc["extra"] = extra
    atomic_write_bytes(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())


def _write_csv(path: str, header: list[str], rows: list) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    atomic_write_bytes(path, buf.getvalue().encode())


def _wav_names(d: str) -> list[str]:
    if not os.path.isdir(d):
        raise FileNotFoundError(f"not a directory: {d}")
    return sorted(n for n in os.listdir(d) if n.lower().endswith(".wav"))


def _load_corpus(d: str, expect_sr: int | None = None) -> list[tuple[str, Waveform]]:
    out = []
    for name in _wav_names(d):
        path = os.path.join(d, name)
        try:
            samples, sr = read_wav(path)
        except (WavFormatError, OSError) as e:
            log.warning("skipping %s: %s", path, e)
            continue
        if expect_sr is not None and sr != expect_sr:
            raise ValueError(f"{path}: sample rate {sr} does not match expected {expect_sr}")
        out.append((name, Waveform(samples, sr)))
    if not out:
        raise ValueError(f"no readable WAV files in {d}")
    return out


# ----------------------------------------------------------------- commands


def cmd_make_toy(args) -> int:
    t0 = time.monotonic()
    cfg = ToyConfig(sample_rate=args.sample_rate, duration_s=args.duration)
    os.makedirs(args.out_dir, exist_ok=True)
    names = []
    for i in range(args.count):
        rng = np.random.default_rng([args.seed, i])
        clip = make_clip(cfg, rng)
        name = f"toy_{i:04d}.wav"
        write_wav(os.path.join(args.out_dir, name), clip.samples, clip.sample_rate, encoding="float32")
        names.append(name)
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"),
        "make-toy",
        seed=args.seed,
        outputs=names,
        extra={"sample_rate": args.sample_rate, "duration_s": args.duration, "count": args.count},
        t0=t0,
    )
    print(f"wrote {len(names)} clips to {args.out_dir}")
    return 0


def cmd_degrade(args) -> int:
    t0 = time.monotonic()
    policy = parse_policy_file(args.policy)
    corpus = _load_corpus(args.in_dir)
    os.makedirs(args.out_dir, exist_ok=True)

    def one(item):
        name, wav = item
        lr, spec = simulate_lr(wav, policy, _rng_for(args.seed, name))
        write_wav(os.path.join(args.out_dir, name), lr.samples, lr.sample_rate, encoding="float32")
        return (name, f"{spec.cutoff_hz:.4f}", spec.family, spec.order)

    rows = [one(item) for item in corpus]
    _write_csv(os.path.join(args.out_dir, "cutoffs.csv"), ["file", "cutoff_hz", "family", "order"], rows)
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"),
        "degrade",
        seed=args.seed,
        config=args.policy,
        inputs=[n for n, _ in corpus],
        outputs=[r[0] for r in rows],
        t0=t0,
    )
    print(f"degraded {len(rows)} files into {args.out_dir}")
    return 0


def cmd_detect_bw(args) -> int:
    def one(path):
        samples, sr = read_wav(path)
        est = estimate_f_eff(Waveform(samples, sr))
        return (path, est.f_eff, est.trunc_index, est.spectrum_len)

    rows = [one(path) for path in args.files]
    for path, f_eff, idx, n in rows:
        print(f"{path} f_eff={f_eff:.2f} trunc_index={idx} spectrum_len={n}")
    if args.csv:
        _write_csv(args.csv, ["file", "f_eff_hz", "trunc_index", "spectrum_len"],
                   [(p, f"{f:.4f}", i, n) for p, f, i, n in rows])
    return 0


def cmd_train_codec(args) -> int:
    t0 = time.monotonic()
    cfg, tp = parse_codec_config(args.config)
    crop_len = tp.crop_frames * cfg.ratio
    frame = MrStftConfig().longest_frame
    if crop_len < frame:
        raise ConfigError(
            f"{args.config}: [training] crop_frames = {tp.crop_frames} gives {crop_len}-sample crops "
            f"({cfg.ratio} samples per frame), shorter than the loss's longest STFT frame ({frame}); "
            f"set crop_frames >= {-(-frame // cfg.ratio)}"
        )
    corpus = _load_corpus(args.corpus, expect_sr=cfg.sample_rate)
    clips = [w for _, w in corpus]
    rng = np.random.default_rng(args.seed)

    def progress(step, total, recon, kl):
        log.info("codec step %d: loss=%.6f recon=%.6f kl=%.3f", step, total, recon, kl)

    codec, trace = train_codec(
        clips, cfg, tp.steps, rng,
        batch_size=tp.batch_size, crop_len=crop_len,
        lr=tp.lr, log_every=tp.log_every, log_cb=progress,
    )
    scale = fit_latent_scale(clips, codec)
    save_codec(args.out, codec, scale)
    if args.loss_csv:
        _write_csv(args.loss_csv, ["step", "loss", "recon", "kl"],
                   [(s, f"{l:.8f}", f"{r:.8f}", f"{k:.8f}") for s, l, r, k in trace])
    _write_manifest(
        args.out + ".json", "train-codec", seed=args.seed, config=args.config,
        inputs=[n for n, _ in corpus], outputs=[args.out],
        extra={"scale": scale, "steps": tp.steps, "final_loss": trace[-1][1]}, t0=t0,
    )
    print(f"codec saved to {args.out} (scale {scale:.6f}, final loss {trace[-1][1]:.6f})")
    return 0


def cmd_train_bridge(args) -> int:
    t0 = time.monotonic()
    stage_cfg, tp, sched, pred_cfg = parse_stage_config(args.config)
    if not stage_cfg.codec_path:
        raise ConfigError(f"{args.config}: missing key 'codec' in section [stage]")
    codec, scale = load_codec(stage_cfg.codec_path)
    corpus = _load_corpus(args.corpus, expect_sr=codec.cfg.sample_rate)
    clips = [w for _, w in corpus]
    rng = np.random.default_rng(args.seed)

    def progress(step, loss):
        log.info("bridge step %d: loss=%.6f", step, loss)

    predictor, trace = train_stage(
        clips, codec, scale, stage_cfg, tp.steps, rng,
        predictor_cfg=pred_cfg, sched=sched, batch_size=tp.batch_size,
        crop_latent_frames=tp.crop_frames, lr=tp.lr, log_every=tp.log_every, log_cb=progress,
    )
    save_predictor(args.out, predictor, sched)
    if args.loss_csv:
        _write_csv(args.loss_csv, ["step", "loss"], [(s, f"{l:.8f}") for s, l in trace])
    _write_manifest(
        args.out + ".json", "train-bridge", seed=args.seed, config=args.config,
        inputs=[n for n, _ in corpus], outputs=[args.out],
        extra={"steps": tp.steps, "final_loss": trace[-1][1], "params": predictor.param_count()}, t0=t0,
    )
    print(f"predictor saved to {args.out} (final loss {trace[-1][1]:.6f})")
    return 0


def cmd_upsample(args) -> int:
    t0 = time.monotonic()
    samples, sr = read_wav(args.input)
    stages = []
    for cfg_path in args.stage:
        stage_cfg, _, _, _ = parse_stage_config(cfg_path)
        stages.append(Stage.load(stage_cfg))
    rng = np.random.default_rng(args.seed)
    info: list = []
    out = upsample(Waveform(samples, sr), stages, n_steps=args.steps, rng=rng, info=info)
    write_wav(args.output, out.samples, out.sample_rate, encoding=args.encoding)
    _write_manifest(
        args.output + ".json", "upsample", seed=args.seed, config=";".join(args.stage),
        inputs=[args.input], outputs=[args.output],
        extra={"steps": args.steps, "stages": info}, t0=t0,
    )
    print(f"wrote {args.output} at {out.sample_rate} Hz")
    return 0


def cmd_eval(args) -> int:
    t0 = time.monotonic()
    ref_names = _wav_names(args.ref_dir)
    est_names = set(_wav_names(args.est_dir))
    matched = [n for n in ref_names if n in est_names]
    for n in ref_names:
        if n not in est_names:
            log.warning("no estimate for %s; skipping", n)
    if not matched:
        raise ValueError("no matching filenames between the two directories")

    def one(name):
        ref_s, ref_sr = read_wav(os.path.join(args.ref_dir, name))
        est_s, est_sr = read_wav(os.path.join(args.est_dir, name))
        if ref_sr != est_sr:
            log.warning("%s: rate mismatch %d vs %d; skipping", name, ref_sr, est_sr)
            return None
        n = min(len(ref_s), len(est_s))
        ref = stft(Waveform(ref_s[:n], ref_sr), EVAL_STFT)
        est = stft(Waveform(est_s[:n], est_sr), EVAL_STFT)
        split = args.band_split_hz if args.band_split_hz else ref_sr / 4.0
        return (
            name,
            lsd(ref, est),
            lsd_band(ref, est, 0.0, split),
            lsd_band(ref, est, split, ref_sr / 2.0),
            spectral_ssim(ref, est),
        )

    rows = [r for r in map(one, matched) if r is not None]
    if not rows:
        raise ValueError("every matched pair was skipped")
    mean = ["mean"] + [float(np.mean([r[i] for r in rows])) for i in range(1, 5)]
    fmt = lambda r: (r[0], f"{r[1]:.6f}", f"{r[2]:.6f}", f"{r[3]:.6f}", f"{r[4]:.6f}")
    _write_csv(args.out, ["file", "lsd", "lsd_lf", "lsd_hf", "ssim"], [fmt(r) for r in rows + [tuple(mean)]])
    print(f"evaluated {len(rows)} pairs; mean lsd {mean[1]:.4f}, ssim {mean[4]:.4f}")
    _write_manifest(args.out + ".json", "eval", inputs=matched, outputs=[args.out],
                    extra={"band_split_hz": args.band_split_hz}, t0=t0)
    return 0


def cmd_tune_aug(args) -> int:
    t0 = time.monotonic()
    stage_cfg, _, _, _ = parse_stage_config(args.stage)
    if not stage_cfg.is_cascade:
        # a first stage ignores blur and margin: the grid would score sampler noise alone
        raise ConfigError(f"{args.stage}: tune-aug needs a cascade stage, but section [augmentation] is missing")
    stage = Stage.load(stage_cfg)
    lr_corpus = dict(_load_corpus(args.val_lr))
    hr_corpus = dict(_load_corpus(args.val_hr))
    names = sorted(set(lr_corpus) & set(hr_corpus))
    if not names:
        raise ValueError("no matching validation pairs")
    pairs = [(lr_corpus[n], hr_corpus[n]) for n in names]
    blur_grid = [float(x) for x in args.blur_grid.split(",")]
    margin_grid = [float(x) for x in args.margin_grid.split(",")]
    blur_star, margin_star, rows = tune_augmentation(
        stage, pairs, blur_grid, margin_grid, n_steps=args.steps, seed=args.seed
    )
    _write_csv(args.out, ["blur", "margin_hz", "mean_lsd"],
               [(f"{b:.4f}", f"{m:.2f}", f"{s:.6f}") for b, m, s in rows])
    _write_manifest(args.out + ".json", "tune-aug", seed=args.seed, config=args.stage,
                    inputs=names, outputs=[args.out],
                    extra={"blur_star": blur_star, "margin_star": margin_star}, t0=t0)
    print(f"blur_star={blur_star} margin_star={margin_star}")
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wavebridge", description="Bandwidth extension toolkit")
    p.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("make-toy", help="generate a synthetic full-band corpus")
    sp.add_argument("out_dir")
    sp.add_argument("--count", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sample-rate", type=int, default=8000)
    sp.add_argument("--duration", type=float, default=1.024)
    sp.set_defaults(func=cmd_make_toy)

    sp = sub.add_parser("degrade", help="low-pass a corpus with a random policy")
    sp.add_argument("in_dir")
    sp.add_argument("out_dir")
    sp.add_argument("--policy", required=True, help="config file with a [degradation] section")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_degrade)

    sp = sub.add_parser("detect-bw", help="estimate effective bandwidth of WAV files")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--csv", default="", help="also write results to this CSV")
    sp.set_defaults(func=cmd_detect_bw)

    sp = sub.add_parser("train-codec", help="train the waveform codec")
    sp.add_argument("--config", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--loss-csv", default="")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_train_codec)

    sp = sub.add_parser("train-bridge", help="train a stage's noise predictor")
    sp.add_argument("--config", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--loss-csv", default="")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_train_bridge)

    sp = sub.add_parser("upsample", help="run the cascade on one file")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.add_argument("--stage", action="append", required=True, help="stage config (repeatable, in order)")
    sp.add_argument("--steps", type=int, default=pipeline.DEFAULT_N_STEPS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--encoding", choices=["pcm16", "pcm24", "float32"], default="float32")
    sp.set_defaults(func=cmd_upsample)

    sp = sub.add_parser("eval", help="LSD/SSIM metrics between two directories")
    sp.add_argument("ref_dir")
    sp.add_argument("est_dir")
    sp.add_argument("--out", required=True)
    sp.add_argument("--band-split-hz", type=float, default=0.0, help="LF/HF split (default: half of Nyquist)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("tune-aug", help="grid-search cascade augmentation")
    sp.add_argument("--stage", required=True)
    sp.add_argument("--val-lr", required=True)
    sp.add_argument("--val-hr", required=True)
    sp.add_argument("--blur-grid", default="0.05,0.3,0.5")
    sp.add_argument("--margin-grid", default="0,300,600")
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_tune_aug)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ConfigError, WavFormatError, ValueError, FileNotFoundError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
