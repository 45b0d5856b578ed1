"""Tests of the benchmark's own code: LSD, input generator, self-time arithmetic.

    python3 -m pytest -q wbbench/tests
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import layers  # noqa: E402
import quality  # noqa: E402
from tracer import Span, Tracer, coverage, group_self_ms, self_times  # noqa: E402


def _brute_lsd(ref, est, keep):
    total = 0.0
    for f in range(ref.shape[0]):
        acc, n = 0.0, 0
        for b in range(ref.shape[1]):
            if keep[b]:
                s = max(ref[f, b], 1e-8) ** 2
                s_hat = max(est[f, b], 1e-8) ** 2
                acc += (np.log10(s) - np.log10(s_hat)) ** 2
                n += 1
        total += np.sqrt(acc / n)
    return total / ref.shape[0]


def test_lsd_matches_brute_force_loop():
    rng = np.random.default_rng(0)
    for _ in range(5):
        ref = np.abs(rng.standard_normal((6, 9)))
        est = np.abs(rng.standard_normal((6, 9)))
        est[0, 0] = 0.0  # exercises the floor
        keep = rng.random(9) < 0.6
        keep[0] = True
        assert np.isclose(quality.lsd_from_mags(ref, est), _brute_lsd(ref, est, np.ones(9, bool)), rtol=1e-12)
        assert np.isclose(quality.lsd_from_mags(ref, est, keep), _brute_lsd(ref, est, keep), rtol=1e-12)


def test_lsd_of_identical_signals_is_zero_and_band_split_works():
    x = inputs.make_clip(np.random.default_rng(1), 8000, 1.0)
    assert quality.lsd(x, x, 8000) == 0.0
    cut = inputs.band_limit(x, 8000, 2000.0)
    assert quality.lsd(x, cut, 8000, above_hz=2500.0) > quality.lsd(x, cut, 8000)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = inputs.make_corpus(3, 8000, 4), inputs.make_corpus(3, 8000, 4), inputs.make_corpus(4, 8000, 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, y) for x, y in zip(a, c))
    for case_a, case_b in zip(inputs.cli_cases(5, 2), inputs.cli_cases(5, 2)):
        assert all(np.array_equal(p, q) for p, q in zip(case_a[:2], case_b[:2])) and case_a[2] == case_b[2]
    (ref_a, x_a), (ref_b, x_b) = inputs.long_case(7), inputs.long_case(7)
    assert np.array_equal(ref_a, ref_b) and np.array_equal(x_a, x_b)
    assert len(ref_a) == 160000 and len(x_a) == 80000


def test_inputs_have_the_promised_shape_and_band():
    x = inputs.make_corpus(0, 16000, 1)[0]
    assert len(x) == round(inputs.CLIP_SECONDS * 16000) and np.isclose(np.max(np.abs(x)), inputs.PEAK)
    ref, lr, cutoff = inputs.cli_cases(0, 1)[0]
    assert len(ref) == 16000 and len(lr) == 8000 and 1800.0 <= cutoff <= 2200.0
    spec = np.abs(np.fft.rfft(lr))
    freqs = np.fft.rfftfreq(len(lr), 1 / 8000)
    assert spec[freqs > cutoff + 600].max() < 1e-3 * spec.max()


def test_self_time_is_span_minus_children():
    # root [0, 10] -> a [1, 4] (-> a1 [2, 3]), b [5, 9]; then a second root [11, 12]
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("a", 11.0, 12.0, -1, 4),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert group_self_ms(spans) == {"root": 3000.0, "a": 3000.0, "a1": 1000.0, "b": 4000.0}
    assert group_self_ms(spans, keep=lambda s: s.top == 0, rename={"a1": "a"}) == {"root": 3000.0, "a": 3000.0, "b": 4000.0}
    assert coverage(spans, 0.0, 20.0) == 11.0 / 20.0


def test_tracer_wraps_from_imported_names_and_restores_them():
    import types

    def leaf(x):
        return x + 1

    mod = types.ModuleType("wavebridge_fake")
    mod.leaf = leaf
    user = types.ModuleType("wavebridge_fake.user")
    user.leaf = leaf  # as `from . import leaf` would bind it
    user.outer = lambda x: user.leaf(x) * 2
    sys.modules.update({"wavebridge_fake": mod, "wavebridge_fake.user": user})
    try:
        tr = Tracer()
        tr.install([(mod, "leaf", "leaf", lambda a, k, r: r), (user, "outer", "outer")], package="wavebridge_fake")
        tr.active = True
        assert user.outer(1) == 4
        tr.active = False
        tr.uninstall()
    finally:
        del sys.modules["wavebridge_fake"], sys.modules["wavebridge_fake.user"]
    assert [(s.name, s.parent, s.top, s.tag) for s in tr.spans] == [("outer", -1, 0, None), ("leaf", 0, 0, 2)]
    assert user.leaf is leaf and mod.leaf is leaf


def test_op_layers_weight_each_span_by_its_top_level_span():
    # two top-level spans: a phase of 2 steps [0, 4] and one of 4 steps [4, 12]
    spans = [
        Span("codec.train", 0.0, 4.0, -1, 0),
        Span("kernels.fwd", 1.0, 2.0, 0, 0),
        Span("pipeline.train_stage", 4.0, 12.0, -1, 2),
        Span("predictor.forward", 5.0, 9.0, 2, 2, tag=8),
        Span("kernels.grad", 6.0, 7.0, 3, 2),
        Span("nn.backward", 10.0, 11.0, 2, 2),
    ]
    figs = layers.op_layers(spans, {0: 1 / 2, 2: 1 / 4})
    assert figs["codec_ms"] == 3000.0 / 2
    assert figs["kernels_ms"] == 1000.0 / 2 + 1000.0 / 4
    assert figs["pipeline_ms"] == 3000.0 / 4 and figs["predictor_ms"] == 3000.0 / 4
    assert figs["predictor.calls"] == 0.25 and figs["predictor.windows"] == 2.0
    assert figs["dsp_ms"] == 0.0 and "nn_ms" not in figs
