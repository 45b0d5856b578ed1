"""Checkpoint container: byte determinism, round trips, corruption handling."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebridge.checkpoint import (
    MAGIC,
    CheckpointError,
    atomic_write_bytes,
    load_checkpoint,
    save_checkpoint,
)


def _sample_tensors(rng):
    return {
        "enc.w": rng.standard_normal((3, 2, 5)),
        "enc.b": rng.standard_normal(3),
        "gain": np.array(1.5),  # zero-dim
    }


def test_round_trip(tmp_path, rng):
    path = str(tmp_path / "m.ckpt")
    tensors = _sample_tensors(rng)
    save_checkpoint(path, "codec", {"sample_rate": 8000}, tensors, extra={"scale": 2.0})
    kind, config, loaded, extra = load_checkpoint(path)
    assert kind == "codec"
    assert config == {"sample_rate": 8000}
    assert extra == {"scale": 2.0}
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].dtype == np.float64
        # storage is float32, so equality holds exactly at that precision
        assert np.array_equal(loaded[name].astype(np.float32), arr.astype(np.float32))


def test_bytes_deterministic(tmp_path, rng):
    tensors = _sample_tensors(rng)
    pa, pb = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(pa, "codec", {"x": 1}, tensors)
    save_checkpoint(pb, "codec", {"x": 1}, tensors)
    with open(pa, "rb") as f:
        a = f.read()
    with open(pb, "rb") as f:
        b = f.read()
    assert a == b


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    with open(path, "wb") as f:
        f.write(b"RIFFnothing")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_corrupt_header_rejected(tmp_path):
    path = str(tmp_path / "hdr.ckpt")
    bad = b"{not json"
    with open(path, "wb") as f:
        f.write(MAGIC + np.uint64(len(bad)).tobytes() + bad)
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(path)


def test_unknown_format_rejected(tmp_path):
    path = str(tmp_path / "fmt.ckpt")
    head = json.dumps({"format": "other", "tensors": []}).encode()
    with open(path, "wb") as f:
        f.write(MAGIC + np.uint64(len(head)).tobytes() + head)
    with pytest.raises(CheckpointError, match="unknown format"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path, rng):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(path, "codec", {}, {"w": rng.standard_normal(100)})
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[:-40])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_cut_inside_header_length_rejected(tmp_path, rng):
    path = str(tmp_path / "h.ckpt")
    save_checkpoint(path, "codec", {}, _sample_tensors(rng))
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[: len(MAGIC) + 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_non_finite_payload_rejected(tmp_path, rng):
    for bad in (np.nan, np.inf, -np.inf):
        tensors = _sample_tensors(rng)
        tensors["enc.w"][1, 0, 2] = bad
        path = str(tmp_path / "nan.ckpt")
        save_checkpoint(path, "codec", {}, tensors)
        with pytest.raises(CheckpointError, match=r"nan\.ckpt.*'enc\.w'.*NaN or inf"):
            load_checkpoint(path)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_file_loads_or_raises_named_error(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("cut") / "m.ckpt")
    save_checkpoint(path, "codec", {"sample_rate": 8000}, _sample_tensors(np.random.default_rng(0)))
    with open(path, "rb") as f:
        raw = f.read()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
    with open(path, "wb") as f:
        f.write(raw[:cut])
    try:
        kind, _, tensors, _ = load_checkpoint(path)
    except CheckpointError:
        return
    assert kind == "codec" and sorted(tensors) == ["enc.b", "enc.w", "gain"]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.bin")
    atomic_write_bytes(path, b"payload")
    with open(path, "rb") as f:
        assert f.read() == b"payload"
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".ckpt-")]
    assert leftovers == []


def test_atomic_write_replaces_existing(tmp_path):
    path = str(tmp_path / "out.bin")
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    with open(path, "rb") as f:
        assert f.read() == b"second"


# Metadata a loader cannot build from: the file is well formed, its config or
# extra entry is not, and the error must name the file, not be a bare KeyError.
MALFORMED = [
    pytest.param("codec", {}, {"scale": 1.0}, "KeyError: 'strides'", id="codec-no-strides"),
    pytest.param("codec", {"sample_rate": 8000, "strides": [2, 2], "widths": [8, 8]}, {}, "KeyError: 'scale'",
                 id="codec-no-scale"),
    pytest.param("codec", {"sample_rate": 8000, "ratio": 16, "strides": [2, 2], "widths": [8, 8]}, {"scale": 1.0},
                 "stored ratio 16", id="codec-ratio-off-the-strides"),
    pytest.param("predictor", {"latent_channels": 8}, {"schedule": {}}, "KeyError: 'dilations'",
                 id="predictor-no-dilations"),
    pytest.param("predictor", {"latent_channels": 8, "dilations": [1]}, {"schedule": {"g_max": 1.0}}, "TypeError",
                 id="predictor-unknown-schedule-key"),
    pytest.param("predictor", {"latent_channels": 8, "dilations": [1]}, {}, "KeyError: 'schedule'",
                 id="predictor-no-schedule"),
]


@pytest.mark.parametrize("kind, config, extra, why", MALFORMED)
def test_malformed_metadata_is_a_checkpoint_error(tmp_path, kind, config, extra, why):
    from wavebridge.pipeline import load_codec, load_predictor

    path = str(tmp_path / f"{kind}.ckpt")
    save_checkpoint(path, kind, config, {}, extra)
    load = load_codec if kind == "codec" else load_predictor
    with pytest.raises(CheckpointError, match="malformed checkpoint metadata") as err:
        load(path)
    assert path in str(err.value) and why in str(err.value)


def test_upsample_with_malformed_codec_metadata_exits_one(tmp_path, capsys):
    from wavebridge.cli import main
    from wavebridge.wavio import write_wav

    save_checkpoint(str(tmp_path / "codec.ckpt"), "codec", {}, {}, {"scale": 1.0})
    (tmp_path / "stage.ini").write_text("[stage]\ntarget_sr = 8000\ncodec = codec.ckpt\npredictor = p.ckpt\n")
    write_wav(str(tmp_path / "in.wav"), np.zeros(8000), 8000, encoding="float32")
    rc = main(["upsample", str(tmp_path / "in.wav"), str(tmp_path / "o.wav"), "--stage", str(tmp_path / "stage.ini")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "codec.ckpt" in err and "'strides'" in err
    assert not (tmp_path / "o.wav").exists()



def _write_raw(path, head, payload=b""):
    """A file with good magic and the given JSON header, bypassing save_checkpoint's checks."""
    blob = json.dumps(head).encode()
    with open(path, "wb") as f:
        f.write(MAGIC + np.uint64(len(blob)).tobytes() + blob + payload)


def _head(tensors):
    return {"format": "wavebridge-checkpoint", "version": 1, "kind": "codec", "config": {}, "extra": {},
            "tensors": tensors}


# Headers a loader cannot read a tensor table from; each must be a CheckpointError naming the file.
MALFORMED_HEADERS = [
    pytest.param([1, 2], b"", "not a JSON object", id="list-header"),
    pytest.param({k: v for k, v in _head([]).items() if k != "tensors"}, b"", "no tensors list", id="no-tensors"),
    pytest.param(_head({"w": [1]}), b"", "no tensors list", id="tensors-not-a-list"),
    pytest.param(_head(["w"]), b"", "row 0 has no string name", id="row-not-an-object"),
    pytest.param(_head([{"shape": [1]}]), b"\0" * 4, "row 0 has no string name", id="row-without-name"),
    pytest.param(_head([{"name": 3, "shape": [1]}]), b"\0" * 4, "row 0 has no string name", id="name-not-a-string"),
    pytest.param(_head([{"name": "w"}]), b"\0" * 4, "'w' has no shape", id="row-without-shape"),
    pytest.param(_head([{"name": "w", "shape": 1}]), b"\0" * 4, "'w' has no shape", id="shape-not-a-list"),
    pytest.param(_head([{"name": "w", "shape": [-1]}]), b"", "'w' has no shape", id="negative-dim"),
    pytest.param(_head([{"name": "w", "shape": [1.5]}]), b"\0" * 4, "'w' has no shape", id="float-dim"),
    pytest.param(_head([{"name": "w", "shape": [True]}]), b"\0" * 4, "'w' has no shape", id="bool-dim"),
    pytest.param(_head([{"name": "w", "shape": [1]}]), b"\0" * 8, "4 bytes follow the last tensor",
                 id="trailing-bytes"),
    pytest.param({k: v for k, v in _head([]).items() if k != "kind"}, b"", "string kind", id="no-kind"),
]


@pytest.mark.parametrize("head, payload, why", MALFORMED_HEADERS)
def test_malformed_header_is_a_checkpoint_error(tmp_path, head, payload, why):
    from wavebridge.pipeline import load_codec

    path = str(tmp_path / "codec.ckpt")
    _write_raw(path, head, payload)
    for load in (load_checkpoint, load_codec):
        with pytest.raises(CheckpointError, match=why) as err:
            load(path)
        assert str(err.value).startswith(path)


def test_header_length_past_the_file_end_rejected(tmp_path):
    path = str(tmp_path / "long.ckpt")
    blob = json.dumps(_head([])).encode()
    with open(path, "wb") as f:
        f.write(MAGIC + np.uint64(len(blob) + 5).tobytes() + blob)
    with pytest.raises(CheckpointError, match="truncated header"):
        load_checkpoint(path)


def test_trailing_bytes_after_a_saved_checkpoint_rejected(tmp_path, rng):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "codec", {}, _sample_tensors(rng))
    with open(path, "ab") as f:
        f.write(b"\0")
    with pytest.raises(CheckpointError, match="1 bytes follow the last tensor"):
        load_checkpoint(path)


@pytest.mark.parametrize("head, payload, why", MALFORMED_HEADERS[:3])
def test_upsample_with_malformed_header_exits_one(tmp_path, capsys, head, payload, why):
    from wavebridge.cli import main
    from wavebridge.wavio import write_wav

    _write_raw(str(tmp_path / "codec.ckpt"), head, payload)
    (tmp_path / "stage.ini").write_text("[stage]\ntarget_sr = 8000\ncodec = codec.ckpt\npredictor = p.ckpt\n")
    write_wav(str(tmp_path / "in.wav"), np.zeros(8000), 8000, encoding="float32")
    rc = main(["upsample", str(tmp_path / "in.wav"), str(tmp_path / "o.wav"), "--stage", str(tmp_path / "stage.ini")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "codec.ckpt" in err and why in err
    assert not (tmp_path / "o.wav").exists()
