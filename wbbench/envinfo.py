"""Environment record, host steal time and the reference loop.

The reference loop uses numpy and scipy only, never the program, so its time
tracks how fast the host runs at the moment and nothing a change to the
program can do.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time

import numpy as np
import scipy
from scipy import signal


def steal_seconds() -> float | None:
    """Host steal time so far, summed over CPUs, from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _blas() -> dict:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": None}


def environment(backend: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernels_backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "machine": platform.machine(),
    }


class ReferenceLoop:
    """Fixed numpy/scipy work: small matmuls, einsum, IIR, FFT and a Python loop.

    The large arrays are written in place, so the loop's speed does not depend
    on what the allocator did before it. `run` times five repeats and returns
    the median repeat times five, about 0.1 s on a 2-vCPU x86 host.
    """

    REPEATS = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((8, 32, 512))
        self.w = rng.standard_normal((32, 32)) / 8.0
        self.y = np.empty_like(self.x)
        self.g = np.empty((32, 32))
        self.a = rng.standard_normal(4096)
        self.sos = signal.cheby1(8, 1.0, 0.25, output="sos")
        self.small = [np.full(4, i / 600.0) for i in range(600)]

    def _once(self) -> None:
        for _ in range(10):
            np.matmul(self.w, self.x, out=self.y)
            np.tanh(self.y, out=self.y)
            np.einsum("nol,ncl->oc", self.y, self.x, out=self.g)
            signal.sosfilt(self.sos, self.a)
            np.fft.rfft(self.a.reshape(2, 2048), axis=1)
            acc = 0.0
            for v in self.small:
                acc += float((v * 0.5).sum())

    def once(self) -> float:
        """Seconds for one pass of the loop (about 0.02 s on a quiet 2-vCPU x86 host)."""
        t0 = time.perf_counter()
        self._once()
        return time.perf_counter() - t0

    def run(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t0)
        return float(np.median(times)) * self.REPEATS


def sha256_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class HostClock:
    """Host speed over a run, read by the reference loop between operations.

    After each operation `__call__` runs whole passes of the reference loop
    for `share` of the wall time since the previous call (at least
    MIN_PASSES), so the passes sample every stretch of the run in proportion
    to its length. `scale` is the quiet-host pass time over the run's mean
    pass time: multiplying a wall time by it gives the time at quiet-host speed.
    """

    QUIET_PASS_S = 0.02  # mean pass time on a quiet 2-vCPU x86 host
    MIN_PASSES = 5

    def __init__(self, loop: ReferenceLoop, share: float):
        self.loop, self.share = loop, share
        self.passes: list[float] = []
        self.last = time.perf_counter()

    def mark(self) -> None:
        """Start the next operation's time from now."""
        self.last = time.perf_counter()

    def __call__(self) -> None:
        budget = self.share * (time.perf_counter() - self.last)
        spent, n = 0.0, 0
        while n < self.MIN_PASSES or spent < budget:
            dt = self.loop.once()
            self.passes.append(dt)
            spent, n = spent + dt, n + 1
        self.last = time.perf_counter()

    def scale(self) -> float:
        return self.QUIET_PASS_S * len(self.passes) / sum(self.passes)
