"""Retrain the checkpoints the upsample workloads load, from fixed seeds.

    python3 wbbench/make_checkpoints.py            # both stages, ~15 min
    python3 wbbench/make_checkpoints.py --part 8k  # codec8k + stage1 only

The recipe is the acceptance gate's C07 run: a codec trained 1500 steps
(batch 4, crop 2048, lr 1e-3), its latent scale fitted on the corpus, then a
bridge trained 3000 steps (batch 8, lr 3e-4). The 8 kHz pair is the
first-stage any-to-any stage (prior cutoffs 1-3 kHz, target 4 kHz); the
16 kHz pair is a 2x cascade stage with default prior augmentation. The
corpora are 64 clips of 1.024 s from the benchmark's own generator.
"""

from __future__ import annotations

import argparse
import os
import time

from common import CKPT, import_program, pin_threads

CORPUS_SEED = {8000: 100, 16000: 101}


def train_pair(rate: int) -> None:
    import numpy as np

    import inputs
    from wavebridge import bridge, pipeline
    from wavebridge.codec import CodecConfig, fit_latent_scale, train_codec
    from wavebridge.dsp import Waveform

    t0 = time.monotonic()
    clips = [Waveform(x, rate) for x in inputs.make_corpus(CORPUS_SEED[rate], rate, 64)]
    codec, _ = train_codec(clips, CodecConfig(sample_rate=rate), steps=1500, rng=np.random.default_rng(1),
                           batch_size=4, crop_len=2048, lr=1e-3)
    scale = fit_latent_scale(clips, codec)
    if rate == 8000:
        cfg = pipeline.StageConfig(
            target_sr=rate,
            degradation=pipeline.DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
            anytoany=pipeline.AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
        )
        names = ("codec8k.ckpt", "stage1.ckpt")
    else:
        cfg = pipeline.StageConfig(target_sr=rate, augmentation=pipeline.AugmentConfig())
        names = ("codec16k.ckpt", "cascade16k.ckpt")
    pred, trace = pipeline.train_stage(clips, codec, scale, cfg, steps=3000, rng=np.random.default_rng(2),
                                       batch_size=8, lr=3e-4)
    pipeline.save_codec(os.path.join(CKPT, names[0]), codec, scale)
    pipeline.save_predictor(os.path.join(CKPT, names[1]), pred, bridge.BridgeSchedule())
    print(f"{rate} Hz: scale {scale:.6f}, final bridge loss {trace[-1][1]:.5f}, {time.monotonic() - t0:.0f} s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=["8k", "16k", "all"], default="all")
    args = ap.parse_args()
    import_program()
    for rate, part in ((8000, "8k"), (16000, "16k")):
        if args.part in (part, "all"):
            train_pair(rate)


if __name__ == "__main__":
    pin_threads()
    main()
