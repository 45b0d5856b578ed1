"""Benchmark entry point.

    python3 wbbench/run.py --workload train --seed 1 --seconds 20 --trace 0

With --trace 0 it repeats whole rounds of the workload for --seconds and
prints the end-to-end metrics; with --trace 1 it runs a warm-up round, an
untraced round and the same round traced, and prints the per-layer metrics.
The last line of stdout is the result object; the line before it holds the
run's details (environment, raw timings, output hashes, errors), which are
also written to .bench_out/<workload>-s<seed>-t<trace>/details.json. A traced
run also writes its spans there, as spans.json: [name, start s, end s, parent
index] each, times from the start of the traced round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, import_program, pin_threads  # noqa: E402

SETUP_REPEATS = 3
REFERENCE_SHARE = 0.1  # reference-loop seconds per second of operations
SCALED = ("op_ms", "setup_s")  # reported at quiet-host speed; the wall figures go to the details


def timed_run(wl, seconds: float, ref_loop, import_s: float) -> tuple[dict, dict]:
    import numpy as np

    import envinfo

    host = envinfo.HostClock(ref_loop, REFERENCE_SHARE)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    host()
    start = time.perf_counter()
    rounds = 0
    while rounds < wl.MIN_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()
        host.mark()
        wl.round(rounds, ref=host)
        rounds += 1
    measure_s = time.perf_counter() - start
    wl.finish()
    metrics = wl.metrics()
    metrics["setup_s"] = import_s + float(np.median(setup_s))
    wall = {k: metrics[k] for k in SCALED if k in metrics}
    metrics.update({k: v * host.scale() for k, v in wall.items()})
    details = {
        "rounds": rounds,
        "measure_s": measure_s,
        "setup_repeats_s": setup_s,
        "wall": wall,
        "host_scale": host.scale(),
        "reference_pass_s": host.passes,
    }
    return metrics, details


def traced_run(wl, details: dict, out_dir: str) -> dict:
    import layers

    wl.setup()
    gc.collect()
    wl.round(0)
    gc.collect()
    t0 = time.perf_counter()
    wl.round(1)
    untraced_s = time.perf_counter() - t0
    gc.collect()
    spans, t0, t1, probe = layers.traced(lambda: wl.round(1))  # the untraced round again
    wl.finish()
    tops = [i for i, s in enumerate(spans) if s.parent < 0]
    if wl.name == "train":
        prefixes = iter(["codec_step", "bridge_step", "cascade_step"])
        steps = iter(wl.STEPS.values())
        phases = {i: (next(prefixes), next(steps)) for i in tops}
        details["layers"] = layers.train_layers(spans, phases)
        weights = {i: 1.0 / n for i, (_, n) in phases.items()}
    else:
        details["layers"] = layers.upsample_layers(spans, wl.out_seconds)
        weights = dict.fromkeys(tops, 1.0 / len(tops))  # one top-level span per upsample call
    metrics = layers.op_layers(spans, weights)
    metrics.update(layers.trace_figures(spans, t0, t1, untraced_s))
    metrics["predictor.peak_mib"] = layers.predictor_peak_mib(probe)
    gc.collect()
    metrics.update(layers.kernel_shape_ms())
    metrics.update(layers.codec_step_ms())
    metrics["cli.import_ms"] = layers.cli_import_ms()
    with open(os.path.join(out_dir, "spans.json"), "w") as f:
        json.dump([[s.name, s.start - t0, s.end - t0, s.parent] for s in spans], f)
    details.update({"untraced_round_s": untraced_s, "traced_round_s": t1 - t0, "spans": len(spans)})
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="wavebridge benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    t_start = time.perf_counter()
    wavebridge = import_program()
    from wavebridge import kernels

    import envinfo
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t_start
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    steal0 = envinfo.steal_seconds()
    ref_loop = envinfo.ReferenceLoop()
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    details = {"environment": envinfo.environment(kernels.BACKEND), "version": wavebridge.__version__}
    if args.trace:
        if args.workload == "upsample_cli":
            wl.in_process = True
        metrics = traced_run(wl, details, out_dir)
        details["reference_loop_s"] = [ref_loop.run() for _ in range(3)]
        declared = spec["per_layer"]
    else:
        metrics, timing = timed_run(wl, args.seconds, ref_loop, import_s)
        details.update(timing, import_s=import_s, figures=wl.figures())
        declared = spec["end_to_end"]
    steal1 = envinfo.steal_seconds()
    units = {m["name"]: m["unit"] for m in declared}
    checks = wl.checks()
    missing = sorted(set(units) - set(metrics))
    if missing:
        checks.append(f"no figure for {missing}")
    details.update({
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "metrics": metrics,
        "undeclared": sorted(set(metrics) - set(units)),
        "hashes": wl.hashes(),
        "errors": wl.ops.errors + checks,
    })
    with open(os.path.join(out_dir, "details.json"), "w") as f:
        json.dump(details, f, indent=1, sort_keys=True)
    result = {
        "correct": wl.ops.failed == 0 and not checks,
        "attempted": wl.ops.attempted,
        "failed": wl.ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items()) if k in units},
    }
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
