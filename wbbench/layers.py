"""Which program functions the traced run wraps, and how spans become figures.

Span names are `<module>.<layer>`. Every workload reports the same per-layer
metrics (`op_layers`): self time per program module and call counts, per
operation of the workload, from the layers all three workloads run, plus
fixed-shape timings that do not depend on the workload (`kernel_shape_ms`,
`codec_step_ms`, `cli_import_ms`). The finer breakdown -- per layer, per
training step of each phase on train (`train_layers`), per second of output
audio on the upsample workloads (`upsample_layers`) -- goes to the run's
details, since most of those layers run on one workload only.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import inputs
from common import child_env
from tracer import Tracer, coverage, group_calls, group_self_ms, self_times


class Probe:
    """State the span tags write: designs seen so far, the largest predictor call."""

    def __init__(self):
        self.designed: set = set()
        self.big_call = None
        self.big_size = -1

    def design(self, args, kwargs, result):
        spec, rate = args[0], args[1] if len(args) > 1 else kwargs["sample_rate"]
        key = (spec.family, spec.order, spec.cutoff_hz, rate)
        repeat = key in self.designed
        self.designed.add(key)
        return repeat

    @staticmethod
    def pair(args, kwargs, result):
        return result is None

    def forward(self, args, kwargs, result):
        _, z_t, cond, z_cond = args
        n, _, length = z_t.shape
        if n * length > self.big_size:
            self.big_size = n * length
            self.big_call = (args[0], z_t, cond, z_cond)
        return n


def targets(probe: Probe) -> list[tuple]:
    from wavebridge import bandwidth, bridge, checkpoint, cli, codec, config, dsp, kernels, nn, pipeline, predictor, wavio

    out = [(kernels, f, "kernels.fwd") for f in ("conv1d_fwd", "convt1d_fwd")]
    out += [(kernels, f, "kernels.grad") for f in ("conv1d_grad_x", "conv1d_grad_w", "convt1d_grad_x", "convt1d_grad_w")]
    out += [
        (nn, "backward", "nn.backward"),
        (nn.Adam, "step", "nn.adam"),
        (nn, "stft_mag", "nn.stft_mag"),
        (codec, "train_codec", "codec.train"),
        (codec, "vae_loss", "codec.loss"),
        (codec.Codec, "encode", "codec.encode"),
        (codec.Codec, "encode_dist", "codec.encode"),
        (codec.Codec, "decode", "codec.decode"),
        (codec.Codec, "decode_graph", "codec.decode"),
        (pipeline, "train_stage", "pipeline.train_stage"),
        (pipeline, "prepare_anytoany_pair", "pipeline.pair", Probe.pair),
        (pipeline, "augment_prior", "pipeline.augment"),
        (pipeline, "blur_latent", "pipeline.blur"),
        (pipeline, "upsample", "pipeline.stitch"),
        (pipeline, "load_codec", "checkpoint.load"),
        (pipeline, "load_predictor", "checkpoint.load"),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
        (dsp, "design_lowpass", "dsp.design", probe.design),
        (dsp, "apply_filter", "dsp.filter"),
        (dsp, "resample", "dsp.resample"),
        (bandwidth, "estimate_f_eff", "bandwidth.estimate"),
        (predictor.Predictor, "forward", "predictor.forward", probe.forward),
        (config, "parse_stage_config", "config.parse"),
        (wavio, "read_wav", "wavio.read"),
        (wavio, "write_wav", "wavio.write"),
        (cli, "main", "cli.main"),
    ]
    out += [(bridge, f, "bridge") for f in ("forward_sample", "loss_target", "estimate_z0", "sde_step")]
    return out


def traced(fn, probe: Probe | None = None):
    """Run fn() once with every target wrapped; returns (spans, t0, t1, probe)."""
    probe = probe or Probe()
    tr = Tracer()
    tr.install(targets(probe))
    try:
        tr.active = True
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
    finally:
        tr.active = False
        tr.uninstall()
    return tr.spans, t0, t1, probe


CALL_COUNTS = {"dsp.design": "dsp.design_calls", "predictor.forward": "predictor.calls", "bridge": "bridge.calls"}
TAG_SUMS = {"dsp.design": "dsp.design_repeats", "pipeline.pair": "pipeline.pair_rejects", "predictor.forward": "predictor.windows"}


def _layer_figures(spans, keep, denom: float, rename=None) -> dict[str, float]:
    """Self ms, call counts and tag sums per layer, each divided by denom."""
    out = {}
    for name, ms in group_self_ms(spans, keep, rename).items():
        out[name + (".ms" if name == "bridge" else "_ms")] = ms / denom
    for name, n in group_calls(spans, keep).items():
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] = n / denom
    for name, metric in TAG_SUMS.items():
        tags = [s.tag for s in spans if keep(s) and s.name == name]
        if tags:
            out[metric] = sum(int(t) for t in tags) / denom
    return out


# Modules every workload runs; the others (nn, checkpoint, config, wavio, cli) only reach the details.
OP_MODULES = ("kernels", "codec", "pipeline", "dsp", "predictor", "bridge", "bandwidth")
OP_COUNTS = {"predictor.calls": ("predictor.forward",), "bridge.calls": ("bridge",),
             "dsp.calls": ("dsp.design", "dsp.filter", "dsp.resample")}


def op_layers(spans, weight_of_top: dict[int, float]) -> dict[str, float]:
    """Self ms per module and call counts per operation.

    A span counts weight_of_top[its top-level span]: 1 / steps for a training
    phase, so on train a figure is the sum over the three phases of its
    per-step value; 1 / calls on the upsample workloads, whose top-level spans
    are one call each, so there a figure is the mean per call.
    """
    raw: dict[int, dict[str, float]] = {}  # per top-level span: summed ms and counts
    for s, st in zip(spans, self_times(spans)):
        acc = raw.setdefault(s.top, defaultdict(float))
        module = s.name.split(".")[0]
        if module in OP_MODULES:
            acc[f"{module}_ms"] += 1e3 * st
        for metric, names in OP_COUNTS.items():
            if s.name in names:
                acc[metric] += 1
        if s.name == "predictor.forward":
            acc["predictor.windows"] += int(s.tag)
    names = [f"{m}_ms" for m in OP_MODULES] + [*OP_COUNTS, "predictor.windows"]
    return {k: sum(acc[k] * weight_of_top[top] for top, acc in raw.items()) for k in names}


def train_layers(spans, phase_steps: dict[int, tuple[str, int]]) -> dict[str, float]:
    """Per-step figures for each phase; phase_steps maps a top-level span index to (prefix, steps)."""
    out = {}
    for top, (prefix, steps) in phase_steps.items():
        rename = {spans[top].name: "other"}
        if prefix == "codec_step":
            rename.update({"codec.encode": "codec.loss", "codec.decode": "codec.loss"})
        figs = _layer_figures(spans, lambda s, top=top: s.top == top, steps, rename)
        out.update({f"{prefix}.{k}": v for k, v in figs.items()})
    return out


def upsample_layers(spans, out_seconds: float) -> dict[str, float]:
    """Figures per second of output audio over the whole traced round."""
    return _layer_figures(spans, lambda s: True, out_seconds)


def predictor_peak_mib(probe: Probe) -> float:
    """Peak traced allocation of the largest predictor call seen, rerun under tracemalloc."""
    import tracemalloc

    pred, z_t, cond, z_cond = probe.big_call
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        pred.forward(z_t, cond, z_cond)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


KERNEL_SHAPES = {
    # name: (x shape, w shape, stride, dilation, transposed) -- benchmarks/bench_kernels.py at batch 8
    "pred_d1": ((8, 32, 512), (32, 32, 3), 1, 1, False),
    "pred_d8": ((8, 32, 512), (32, 32, 3), 1, 8, False),
    "enc_s2": ((8, 16, 2048), (24, 16, 4), 2, 1, False),
    "dec_s2": ((8, 24, 1024), (24, 16, 4), 2, 1, True),
}


def kernel_shape_ms(reps: int = 15) -> dict[str, float]:
    """Median ms per call of each kernel op on the fixed shapes."""
    from wavebridge import kernels

    rng = np.random.default_rng(42)
    out = {}
    for name, (xs, ws, stride, dil, transposed) in KERNEL_SHAPES.items():
        x, w = rng.standard_normal(xs), rng.standard_normal(ws)
        if transposed:
            gy = rng.standard_normal(kernels.convt1d_fwd(x, w, stride).shape)
            calls = {
                "fwd": lambda: kernels.convt1d_fwd(x, w, stride),
                "grad_x": lambda: kernels.convt1d_grad_x(gy, w, stride),
                "grad_w": lambda: kernels.convt1d_grad_w(x, gy, stride, ws[2]),
            }
        else:
            gy = rng.standard_normal(kernels.conv1d_fwd(x, w, stride, dil).shape)
            calls = {
                "fwd": lambda: kernels.conv1d_fwd(x, w, stride, dil),
                "grad_x": lambda: kernels.conv1d_grad_x(gy, w, stride, dil, xs[2]),
                "grad_w": lambda: kernels.conv1d_grad_w(x, gy, stride, dil, ws[2]),
            }
        for op, call in calls.items():
            call()
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"kernels.{name}.{op}_ms"] = 1e3 * float(np.median(times))
    return out


def codec_step_ms(reps: int = 9) -> dict[str, float]:
    """Median ms of the parts of one 8 kHz codec training step on a fixed batch (4 x 2048)."""
    from wavebridge import codec, nn
    from wavebridge.metrics import MrStftConfig

    rng = np.random.default_rng(42)
    model = codec.Codec(codec.CodecConfig(sample_rate=8000), rng)
    opt = nn.Adam(model.params(), lr=1e-3)
    batch = np.stack([x[:2048] for x in inputs.make_corpus(0, 8000, 4)])
    mr_cfg = MrStftConfig()
    times: dict[str, list[float]] = {"loss": [], "backward": [], "adam": []}
    for i in range(reps + 1):  # the first step warms up
        gc.collect()
        opt.zero_grad()
        t0 = time.perf_counter()
        loss, _, _ = codec.vae_loss(model, batch, rng, mr_cfg)
        t1 = time.perf_counter()
        nn.backward(loss)
        t2 = time.perf_counter()
        opt.step()
        t3 = time.perf_counter()
        if i:
            for part, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
                times[part].append(dt)
    return {f"codec_step.{part}_ms": 1e3 * float(np.median(t)) for part, t in times.items()}


def cli_import_ms(reps: int = 3) -> float:
    """Median ms of a fresh interpreter running `import wavebridge.cli`, start-up included."""
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wavebridge.cli"], env=child_env(), check=True, timeout=60)
        out.append(time.perf_counter() - t)
    return 1e3 * float(np.median(out))


def trace_figures(spans, t0: float, t1: float, untraced_s: float) -> dict[str, float]:
    return {"trace.coverage": coverage(spans, t0, t1), "trace.overhead": (t1 - t0) / untraced_s}
