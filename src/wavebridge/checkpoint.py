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
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".wavebridge-tmp-")
    except OSError as e:  # name the destination, not the temp file
        raise type(e)(e.errno, e.strerror, path) from e
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
    """Read back (kind, config, tensors {name: writable float32 array as stored}, extra)."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    ofs = len(MAGIC)
    if len(raw) < ofs + 8:
        raise CheckpointError(f"{path}: truncated header length")
    head_len = int(np.frombuffer(raw, dtype=np.uint64, count=1, offset=ofs)[0])
    ofs += 8
    if len(raw) < ofs + head_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        meta = json.loads(raw[ofs : ofs + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header ({e})") from e
    ofs += head_len
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if meta.get("format") != "wavebridge-checkpoint":
        raise CheckpointError(f"{path}: unknown format {meta.get('format')!r}")
    kind, config, extra = meta.get("kind"), meta.get("config"), meta.get("extra", {})
    if not (isinstance(kind, str) and isinstance(config, dict) and isinstance(extra, dict)):
        raise CheckpointError(f"{path}: header lacks a string kind or a config or extra object")
    tensors = {}
    for name, shape in _tensor_table(path, meta):
        count = int(np.prod(shape)) if shape else 1
        try:
            arr = np.frombuffer(raw, dtype=np.float32, count=count, offset=ofs)
        except ValueError as e:
            raise CheckpointError(f"{path}: truncated payload for tensor {name!r}") from e
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or inf")
        tensors[name] = arr.reshape(shape).copy()
        ofs += count * 4
    if ofs != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - ofs} bytes follow the last tensor")
    return kind, config, tensors, extra


def _tensor_table(path: str, meta: dict) -> list[tuple[str, tuple]]:
    """The header's tensor rows as (name, shape), or a CheckpointError naming the file."""
    rows = meta.get("tensors")
    if not isinstance(rows, list):
        raise CheckpointError(f"{path}: header has no tensors list")
    table = []
    for i, row in enumerate(rows):
        row = row if isinstance(row, dict) else {}
        name, shape = row.get("name"), row.get("shape")
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: tensor row {i} has no string name")
        # bool is an int subclass, so JSON true/false would pass an isinstance check
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: tensor {name!r} has no shape of non-negative ints")
        table.append((name, tuple(shape)))
    return table
