"""Minimal RIFF/WAV reader and writer.

Supports exactly what the rest of the package needs: mono files, PCM 16-bit,
PCM 24-bit, and IEEE float32, sample rates 8 kHz to 192 kHz. scipy's wavfile
module cannot write 24-bit PCM, hence the hand-rolled subset. Output bytes are
deterministic (no timestamps or incidental metadata), which the reproducibility
tests rely on.

Samples are exchanged as float64 arrays. Integer formats use a symmetric
full-scale factor on both paths (32768 for pcm16, 8388608 for pcm24) with
clipping on write, so a round trip costs at most half an LSB away from
positive full scale.
"""

from __future__ import annotations

import struct

import numpy as np

from .checkpoint import atomic_write_bytes

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE

VALID_ENCODINGS = ("pcm16", "pcm24", "float32")


class WavFormatError(ValueError):
    """Raised for files or arguments this reader/writer does not handle."""


def read_wav(path: str) -> tuple[np.ndarray, int]:
    """Read a mono WAV file. Returns (samples as float64, sample_rate)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (csize,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + csize]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + csize + (csize & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise WavFormatError(f"{path}: truncated fmt chunk")

    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == _FMT_EXTENSIBLE:
        if len(fmt) < 26:
            raise WavFormatError(f"{path}: truncated extensible fmt chunk")
        (tag,) = struct.unpack_from("<H", fmt, 24)  # first 2 bytes of SubFormat
    if channels != 1:
        raise WavFormatError(f"{path}: expected mono, got {channels} channels")

    if (tag, bits) not in ((_FMT_PCM, 16), (_FMT_PCM, 24), (_FMT_FLOAT, 32)):
        raise WavFormatError(f"{path}: unsupported format tag={tag} bits={bits}")
    if len(data) % (bits // 8):
        raise WavFormatError(f"{path}: data chunk of {len(data)} bytes is not a whole number of {bits}-bit samples")

    if bits == 16:
        x = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        val = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        val = np.where(val >= 1 << 23, val - (1 << 24), val)  # sign extend
        x = val.astype(np.float64) / 8388608.0
    else:
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)
    return x, int(rate)


def write_wav(path: str, samples: np.ndarray, sample_rate: int, encoding: str = "pcm16") -> None:
    """Write a mono WAV file atomically (temp file + rename)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise WavFormatError(f"expected 1-D mono samples, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise WavFormatError("samples contain NaN or inf")
    if not (8000 <= int(sample_rate) <= 192000):
        raise WavFormatError(f"sample rate {sample_rate} outside 8000..192000")
    if encoding not in VALID_ENCODINGS:
        raise WavFormatError(f"unknown encoding {encoding!r}; pick from {VALID_ENCODINGS}")

    if encoding == "pcm16":
        tag, bits = _FMT_PCM, 16
        q = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
        payload = q.tobytes()
    elif encoding == "pcm24":
        tag, bits = _FMT_PCM, 24
        q = np.clip(np.rint(x * 8388608.0), -(1 << 23), (1 << 23) - 1).astype(np.int64)
        q = np.where(q < 0, q + (1 << 24), q)
        b = np.empty((len(q), 3), dtype=np.uint8)
        b[:, 0] = q & 0xFF
        b[:, 1] = (q >> 8) & 0xFF
        b[:, 2] = (q >> 16) & 0xFF
        payload = b.tobytes()
    else:
        tag, bits = _FMT_FLOAT, 32
        payload = x.astype("<f4").tobytes()

    block_align = bits // 8
    byte_rate = int(sample_rate) * block_align
    fmt = struct.pack("<HHIIHH", tag, 1, int(sample_rate), byte_rate, block_align, bits)
    pad = b"\x00" if len(payload) & 1 else b""
    riff_size = 4 + (8 + len(fmt)) + (8 + len(payload) + len(pad))
    out = b"".join(
        [
            b"RIFF",
            struct.pack("<I", riff_size),
            b"WAVE",
            b"fmt ",
            struct.pack("<I", len(fmt)),
            fmt,
            b"data",
            struct.pack("<I", len(payload)),
            payload,
            pad,
        ]
    )
    atomic_write_bytes(path, out)
