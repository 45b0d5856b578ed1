"""The three workloads: what one round does, what it checks, what it reports.

A round runs the workload's operations once, in the same order every time;
a run repeats whole rounds. `Ops` counts each operation as attempted, and as
failed when it raises or one of its checks does not hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import numpy as np
from scipy import signal
from scipy.io import wavfile

import inputs
import quality
from common import CKPT, STAGE1_INI, STAGE2_INI, child_env
from envinfo import sha256_arrays


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def op(self, what: str):
        """Yields a list; append a message to it for each check that does not hold."""
        self.attempted += 1
        bad: list[str] = []
        try:
            yield bad
        except Exception:  # an operation that raises is counted, and the run goes on
            bad.append(traceback.format_exc(limit=3))
        if bad:
            self.failed += 1
            self.errors.append(f"{what}: {'; '.join(bad)}")


def _last_tenth_mean(losses: list[float]) -> float:
    return float(np.mean(losses[-max(1, len(losses) // 10):]))


def _first_tenth_mean(losses: list[float]) -> float:
    return float(np.mean(losses[: max(1, len(losses) // 10)]))


def _peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ------------------------------------------------------------------- train


class Train:
    """Fresh 8 kHz codec, first-stage bridge at 8 kHz, 2x cascade bridge at 16 kHz."""

    name = "train"
    STEPS = {"codec": 100, "bridge": 100, "cascade": 100}
    MIN_ROUNDS = 2
    CORPUS_CLIPS = 16

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.ops = Ops()
        self.step_s = {k: [] for k in self.STEPS}  # per-step wall seconds, steps 1.. of each phase
        self.first: dict[str, tuple[list[float], str]] = {}  # losses and parameter hash of the first run

    def setup(self) -> None:
        from wavebridge import pipeline
        from wavebridge.dsp import Waveform

        self.clips8 = [Waveform(x, 8000) for x in inputs.make_corpus(self.seed, 8000, self.CORPUS_CLIPS)]
        self.clips16 = [Waveform(x, 16000) for x in inputs.make_corpus(self.seed, 16000, self.CORPUS_CLIPS)]
        self.codec8, self.scale8 = pipeline.load_codec(os.path.join(CKPT, "codec8k.ckpt"))
        self.codec16, self.scale16 = pipeline.load_codec(os.path.join(CKPT, "codec16k.ckpt"))

    def _phase(self, kind: str):
        from wavebridge import pipeline
        from wavebridge.codec import CodecConfig, train_codec

        stamps: list[float] = []
        stamp = lambda *_: stamps.append(time.perf_counter())  # noqa: E731
        # --seed makes the corpora; the training seed is part of the recipe, as in C07. Seeding
        # training from --seed too made the bridge losses of ten seeds spread 10 % instead of 3 %.
        rng = np.random.default_rng(1 + list(self.STEPS).index(kind))
        n = self.STEPS[kind]
        if kind == "codec":
            model, trace = train_codec(self.clips8, CodecConfig(sample_rate=8000), n, rng, batch_size=4,
                                       crop_len=2048, lr=1e-3, log_every=1, log_cb=stamp)
            return np.diff(stamps), [row[1] for row in trace], model
        if kind == "bridge":
            cfg = pipeline.StageConfig(
                target_sr=8000,
                degradation=pipeline.DegradationPolicy(cutoff_range=(1000.0, 3000.0)),
                anytoany=pipeline.AnyToAnyConfig(f_target_range=(4000.0, 4000.0)),
            )
            clips, codec, scale = self.clips8, self.codec8, self.scale8
        else:
            cfg = pipeline.StageConfig(target_sr=16000, augmentation=pipeline.AugmentConfig())
            clips, codec, scale = self.clips16, self.codec16, self.scale16
        # lr 1e-3, not the C07 recipe's 3e-4: at 3e-4 a short phase's loss does not fall clear of its noise
        model, trace = pipeline.train_stage(clips, codec, scale, cfg, n, rng, batch_size=8, lr=1e-3,
                                            log_every=1, log_cb=stamp)
        return np.diff(stamps), [loss for _, loss in trace], model

    def _round_trip(self, kind: str, model, bad: list[str]) -> None:
        """save_* then load_* must give back the parameters as float32 stores them."""
        from wavebridge import bridge, pipeline

        path = os.path.join(self.out_dir, f"{kind}.ckpt")
        if kind == "codec":
            pipeline.save_codec(path, model, 1.0)
            back, _ = pipeline.load_codec(path)
        else:
            pipeline.save_predictor(path, model, bridge.BridgeSchedule())
            back, _ = pipeline.load_predictor(path)
        for (name, a), (_, b) in zip(model.named_params(), back.named_params()):
            if not np.array_equal(a.data.astype(np.float32).astype(np.float64), b.data):
                bad.append(f"{name} changed in a save/load round trip")

    def round(self, r: int, ref=None) -> None:
        for kind in self.STEPS:
            with self.ops.op(f"{kind} phase, round {r}") as bad:
                steps, losses, model = self._phase(kind)
                digest = sha256_arrays(t.data for _, t in model.named_params())
                if not np.all(np.isfinite(losses)):
                    bad.append("non-finite loss")
                elif _last_tenth_mean(losses) >= _first_tenth_mean(losses):
                    bad.append(f"loss did not fall: {_first_tenth_mean(losses):.5f} -> {_last_tenth_mean(losses):.5f}")
                if kind in self.first:
                    if (losses, digest) != self.first[kind]:
                        bad.append("a repeat with the same seed gave other losses or parameters")
                else:
                    self._round_trip(kind, model, bad)
                    self.first[kind] = (losses, digest)
                if not bad:
                    self.step_s[kind].extend(steps)
            if ref is not None:
                ref()

    def finish(self) -> None:
        """Every check of train runs inside its rounds."""

    def metrics(self) -> dict[str, float]:
        """One operation is one training step of each of the three models."""
        out = {"peak_rss_mib": _peak_rss_mib()}
        if all(self.step_s.values()):
            out["op_ms"] = 1e3 * sum(float(np.median(steps)) for steps in self.step_s.values())
        if len(self.first) == len(self.STEPS):
            out["error_ratio"] = float(np.mean([_last_tenth_mean(v[0]) / _first_tenth_mean(v[0])
                                                for v in self.first.values()]))
        return out

    def figures(self) -> dict[str, float]:
        """Each phase's own step rate and losses, for the details."""
        out = {}
        for kind, steps in self.step_s.items():
            out[f"{kind}_steps_timed"] = len(steps)
            if steps:
                out[f"{kind}_steps_per_s"] = 1.0 / float(np.median(steps))
            if kind in self.first:
                out[f"{kind}_loss"] = _last_tenth_mean(self.first[kind][0])
                out[f"{kind}_loss_first_tenth"] = _first_tenth_mean(self.first[kind][0])
        return out

    def hashes(self) -> dict[str, str]:
        return {f"{k}_params": v[1] for k, v in self.first.items()}

    def checks(self) -> list[str]:
        return [f"{k} phase never succeeded" for k in self.STEPS if k not in self.first]


# ---------------------------------------------------------------- upsample


class _Upsample:
    """What both upsample workloads share: output checks, quality and rtf bookkeeping.

    Sampler seeds alternate 0, 1, 0, ... by round, so round 2 repeats round 0.
    Outputs are keyed (clip, sampler seed).
    """

    MIN_ROUNDS = 3
    CLIPS = 1
    CALLS = 1  # upsample calls per round
    RUSAGE = resource.RUSAGE_SELF

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.ops = Ops()
        self.call_s: list[float] = []  # wall seconds per call
        self.outputs: dict[tuple[int, int], str] = {}
        self.pending: dict[tuple[int, int], tuple] = {}
        self.scores: dict[tuple[int, int], tuple[float, float, float]] = {}  # lsd, lsd_hf, sinc lsd

    def _judge(self, key, digest: str, ref: np.ndarray, y: np.ndarray, x: np.ndarray, rate: int,
               cutoff: float, bad: list[str]) -> None:
        """A repeat must give the same bytes; a first output is kept for `finish` to score."""
        if key in self.outputs:
            if digest != self.outputs[key]:
                bad.append("the same seed gave other output bytes")
            return
        if len(y) != len(ref) or not np.all(np.isfinite(y)):
            bad.append(f"output of {len(y)} samples, finite={np.all(np.isfinite(y))}")
        if not bad:
            self.outputs[key] = digest
            self.pending[key] = (ref, y, x, rate, cutoff)

    def finish(self) -> None:
        """Score the first output of each key, outside the timed rounds; it must beat sinc interpolation."""
        for key, (ref, y, x, rate, cutoff) in self.pending.items():
            base = quality.lsd(ref, signal.resample_poly(x, 2, 1), rate)  # both workloads double the rate
            score = (quality.lsd(ref, y, rate), quality.lsd(ref, y, rate, cutoff), base)
            self.scores[key] = score
            if score[0] >= base:
                self.ops.failed += 1
                self.ops.errors.append(f"clip {key[0]} seed {key[1]}: LSD {score[0]:.4f} does not beat sinc ({base:.4f})")
        self.pending.clear()

    def metrics(self) -> dict[str, float]:
        """One operation is one upsample call."""
        out = {"peak_rss_mib": _peak_rss_mib(self.RUSAGE)}
        if self.call_s:
            out["op_ms"] = 1e3 * float(np.median(self.call_s))
        if self.scores:
            out["error_ratio"] = float(np.mean([s[0] / s[2] for s in self.scores.values()]))
        return out

    def figures(self) -> dict[str, float]:
        """Real-time factor and raw LSDs, for the details."""
        out = {"calls_timed": len(self.call_s)}
        if self.call_s:
            out["rtf"] = float(np.median(self.call_s)) / (self.out_seconds / self.CALLS)
        if self.scores:
            for i, name in enumerate(("lsd", "lsd_hf", "lsd_sinc")):
                out[name] = float(np.mean([s[i] for s in self.scores.values()]))
        return out

    def hashes(self) -> dict[str, str]:
        return {f"clip{k}_seed{p}": h for (k, p), h in sorted(self.outputs.items())}

    def checks(self) -> list[str]:
        out = []
        for k in range(self.CLIPS):
            a, b = self.outputs.get((k, 0)), self.outputs.get((k, 1))
            if a is None or b is None:
                out.append(f"clip {k}: fewer than two sampler seeds ran")
            elif a == b:
                out.append(f"clip {k}: two sampler seeds gave the same output bytes")
        return out


class UpsampleLong(_Upsample):
    """One 20 s clip cut at 2 kHz, given at 4 kHz, first stage to 8 kHz at 50 steps, in process."""

    name = "upsample_long"
    N_STEPS = 50
    CUTOFF = 2000.0

    def setup(self) -> None:
        from wavebridge.config import parse_stage_config
        from wavebridge.pipeline import Stage

        self.ref, self.x = inputs.long_case(self.seed)
        self.stage = Stage.load(parse_stage_config(STAGE1_INI)[0])
        self.out_seconds = len(self.ref) / 8000

    def round(self, r: int, ref=None) -> None:
        from wavebridge import pipeline
        from wavebridge.dsp import Waveform

        parity = r % 2
        with self.ops.op(f"upsample round {r}") as bad:
            t0 = time.perf_counter()
            out = pipeline.upsample(Waveform(self.x, 4000), [self.stage], n_steps=self.N_STEPS,
                                    rng=np.random.default_rng(parity))
            dt = time.perf_counter() - t0
            if out.sample_rate != 8000:
                bad.append(f"output at {out.sample_rate} Hz")
            self._judge((0, parity), sha256_arrays([out.samples]), self.ref, out.samples, self.x, 8000,
                        self.CUTOFF, bad)
            if not bad:
                self.call_s.append(dt)
        if ref is not None:
            ref()


class UpsampleCli(_Upsample):
    """1 s clips at 8 kHz cut near 2 kHz, one `python -m wavebridge upsample` call each, to 16 kHz."""

    name = "upsample_cli"
    CLIPS = CALLS = 4
    N_STEPS = 10
    RUSAGE = resource.RUSAGE_CHILDREN  # peak RSS of the largest child
    in_process = False  # the traced run calls cli.main in this process instead

    def setup(self) -> None:
        self.cases = inputs.cli_cases(self.seed, self.CLIPS)
        for k, (_, x, _) in enumerate(self.cases):
            wavfile.write(os.path.join(self.out_dir, f"in_{k}.wav"), 8000, x.astype(np.float32))
        self.out_seconds = sum(len(ref) for ref, _, _ in self.cases) / 16000

    def _argv(self, k: int, parity: int) -> list[str]:
        return ["upsample", f"in_{k}.wav", f"out_{k}_{parity}.wav", "--stage", STAGE1_INI, "--stage", STAGE2_INI,
                "--steps", str(self.N_STEPS), "--seed", str(parity)]

    def _call(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            from wavebridge import cli

            cwd = os.getcwd()
            os.chdir(self.out_dir)
            try:
                return cli.main(argv), ""
            finally:
                os.chdir(cwd)
        proc = subprocess.run([sys.executable, "-m", "wavebridge", *argv], cwd=self.out_dir, env=child_env(),
                              capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stderr[-2000:]

    def round(self, r: int, ref=None) -> None:
        parity = r % 2
        for k, (ref_wav, x, cutoff) in enumerate(self.cases):
            with self.ops.op(f"cli call {k}, round {r}") as bad:
                argv = self._argv(k, parity)
                t0 = time.perf_counter()
                code, err = self._call(argv)
                dt = time.perf_counter() - t0
                if code != 0:
                    bad.append(f"exit {code}: {err}")
                    continue
                out_path = os.path.join(self.out_dir, argv[2])
                with open(out_path, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                rate, y = wavfile.read(out_path)
                if rate != 16000:
                    bad.append(f"output at {rate} Hz")
                with open(out_path + ".json") as f:
                    manifest = json.load(f)
                if manifest.get("inputs") != [argv[1]] or manifest.get("seed") != parity:
                    bad.append(f"manifest names {manifest.get('inputs')} seed {manifest.get('seed')}")
                self._judge((k, parity), digest, ref_wav, y.astype(np.float64), x, 16000, cutoff, bad)
                if not bad:
                    self.call_s.append(dt)
            if ref is not None:
                ref()


WORKLOADS = {w.name: w for w in (Train, UpsampleLong, UpsampleCli)}
