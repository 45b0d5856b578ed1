"""Paths and process settings shared by the benchmark's entry points.

`pin_threads` must run before numpy is imported: it fixes BLAS/OpenMP to one
thread and the hash seed to 0, for this process and every child it starts.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CKPT = os.path.join(HERE, "ckpt")
STAGE1_INI = os.path.join(CKPT, "stage1.ini")
STAGE2_INI = os.path.join(CKPT, "stage2.ini")

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_threads() -> None:
    """Pin threads and the hash seed; re-exec once if the hash seed was not 0."""
    need_exec = os.environ.get("PYTHONHASHSEED") != "0"
    os.environ.update(PINNED_ENV)
    if need_exec:
        os.execv(sys.executable, [sys.executable, *sys.argv])


def child_env() -> dict:
    """Environment for a `python -m wavebridge` child: pinned, importing this checkout's src."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Put this checkout's src first on sys.path and import wavebridge."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import wavebridge  # fails here when the program is absent

    if not os.path.abspath(wavebridge.__file__).startswith(SRC + os.sep):
        raise ImportError(f"imported {wavebridge.__file__}, not the program under {SRC}")
    return wavebridge
