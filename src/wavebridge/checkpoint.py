"""Deterministic checkpoint container.

Plain flat binary: magic line, a length-prefixed JSON header (sorted keys, so
identical content gives identical bytes), then raw float32 tensor payloads in
header order. Zip-based formats stamp timestamps into the archive, which
breaks byte-for-byte reproducibility of training runs; this one does not.

Writes are atomic (temp file + rename) so a crash can't leave a half-written
checkpoint behind.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

MAGIC = b"WBCKPT1\n"


class CheckpointError(ValueError):
    pass


def atomic_write_bytes(path: str, payload: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path: str, kind: str, config: dict, tensors: dict, extra: dict | None = None) -> None:
    """Write {name: float array} plus config/extra metadata to `path`."""
    names = sorted(tensors)
    table = []
    blobs = []
    for name in names:
        # asarray keeps zero-dim shapes; ascontiguousarray would promote to 1-d
        arr = np.asarray(tensors[name], dtype=np.float32, order="C")
        table.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    meta = {
        "format": "wavebridge-checkpoint",
        "version": 1,
        "kind": kind,
        "config": config,
        "extra": extra or {},
        "tensors": table,
    }
    head = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, np.uint64(len(head)).tobytes(), head]
    parts += blobs
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str) -> tuple[str, dict, dict, dict]:
    """Read back (kind, config, tensors {name: float64 array}, extra)."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    ofs = len(MAGIC)
    if len(raw) < ofs + 8:
        raise CheckpointError(f"{path}: truncated header length")
    head_len = int(np.frombuffer(raw, dtype=np.uint64, count=1, offset=ofs)[0])
    ofs += 8
    try:
        meta = json.loads(raw[ofs : ofs + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header ({e})") from e
    ofs += head_len
    if meta.get("format") != "wavebridge-checkpoint":
        raise CheckpointError(f"{path}: unknown format {meta.get('format')!r}")
    tensors = {}
    for row in meta["tensors"]:
        shape = tuple(row["shape"])
        count = int(np.prod(shape)) if shape else 1
        try:
            arr = np.frombuffer(raw, dtype=np.float32, count=count, offset=ofs)
        except ValueError as e:
            raise CheckpointError(f"{path}: truncated payload for tensor {row['name']!r}") from e
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: tensor {row['name']!r} holds NaN or inf")
        tensors[row["name"]] = arr.reshape(shape).astype(np.float64)
        ofs += count * 4
    return meta["kind"], meta["config"], tensors, meta.get("extra", {})
