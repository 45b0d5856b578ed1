import os
from pathlib import Path

import numpy as np
import pytest

import wavebridge
from wavebridge import toydata
from wavebridge.dsp import Waveform


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def toy_clips():
    """Small shared synthetic corpus at 8 kHz (full band by construction)."""
    return toydata.make_corpus(6, toydata.ToyConfig(), np.random.default_rng(42))


@pytest.fixture
def noise_wav(rng):
    return Waveform(rng.standard_normal(8192) * 0.2, 8000)


@pytest.fixture(scope="session")
def child_env():
    """Return a builder of environments for child `python` processes.

    The child must import the same wavebridge as this process, installed or
    not, from any cwd, so the absolute source root of the imported package
    goes first on PYTHONPATH (a relative `PYTHONPATH=src` stops resolving once
    the child runs elsewhere). The rest of os.environ is kept, and the keyword
    overrides, e.g. `PYTHONHASHSEED="0"`, are applied last.
    """
    src_root = str(Path(wavebridge.__file__).resolve().parents[1])

    def build(**overrides):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
        env.update(overrides)
        return env

    return build
