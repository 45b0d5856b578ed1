"""Noise predictor: embeddings, conditioning plumbing, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebridge import nn
from wavebridge.predictor import (
    Conditioning,
    Predictor,
    PredictorConfig,
    sinusoidal_embed,
)

SMALL = PredictorConfig(latent_channels=2, width=8, kernel=3, dilations=(1, 2), embed_dim=16)


def _make(cfg=SMALL, seed=0):
    return Predictor(cfg, np.random.default_rng(seed))


# -------------------------------------------------------------- embeddings

def test_embed_pairs_have_unit_norm():
    v = sinusoidal_embed(np.array([1234.5]), 64)[0]
    pairs = v.reshape(-1, 2)
    assert np.max(np.abs(np.sum(pairs**2, axis=1) - 1.0)) < 1e-12


def test_embed_zero_is_sin0_cos1():
    v = sinusoidal_embed(np.array([0.0]), 8)[0]
    assert np.array_equal(v[0::2], np.zeros(4))
    assert np.array_equal(v[1::2], np.ones(4))


def test_embed_distinguishes_values():
    a = sinusoidal_embed(np.array([2000.0]), 64)[0]
    b = sinusoidal_embed(np.array([4000.0]), 64)[0]
    assert np.linalg.norm(a - b) > 0.1


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 5e4, allow_nan=False), min_size=1, max_size=40),
    dim=st.sampled_from([2, 8, 16, 64]),
)
def test_embed_rows_match_per_value_formula(values, dim):
    # t * 1e3, bands in Hz and blur * 1e4 all fall in [0, 5e4]; each row must be
    # the bytes of the per-value formula the batched embedding replaced
    pairs = dim // 2
    freqs = 10.0 ** (-4.0 * (np.arange(pairs) / max(pairs - 1, 1)))
    want = np.empty((len(values), dim))
    for i, v in enumerate(values):
        ang = v * freqs
        want[i, 0::2] = np.sin(ang)
        want[i, 1::2] = np.cos(ang)
    assert np.array_equal(sinusoidal_embed(np.array(values), dim), want)


def test_embed_validation():
    with pytest.raises(ValueError):
        sinusoidal_embed(np.array([1.0]), 7)
    with pytest.raises(ValueError):
        sinusoidal_embed(np.array([1.0]), 0)


# ------------------------------------------------------------- conditioning

def test_conditioning_validation():
    with pytest.raises(ValueError):
        Conditioning(t=0.5, f_prior=0.0, f_target=4000.0)
    with pytest.raises(ValueError):
        Conditioning(t=0.5, f_prior=5000.0, f_target=4000.0)
    with pytest.raises(ValueError):
        Conditioning(t=0.5, f_prior=2000.0, f_target=4000.0, blur_ratio=-0.1)
    c = Conditioning(t=0.5, f_prior=2000.0, f_target=4000.0)
    assert c.t.shape == (1,)


def test_config_validation_and_tokens():
    assert SMALL.n_tokens == 3
    cfg = PredictorConfig(latent_channels=2, width=8, kernel=3, dilations=(1,), embed_dim=16, use_blur_token=True)
    assert cfg.n_tokens == 4
    with pytest.raises(ValueError):
        PredictorConfig(embed_dim=15)
    with pytest.raises(ValueError):
        PredictorConfig(width=0)
    assert PredictorConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------- the model

def test_forward_shape_and_zero_init(rng):
    p = _make()
    z = nn.Tensor(rng.standard_normal((3, 2, 12)))
    zc = nn.Tensor(rng.standard_normal((3, 2, 12)))
    cond = Conditioning(t=np.full(3, 0.5), f_prior=np.full(3, 2000.0), f_target=np.full(3, 4000.0))
    out = p.forward(z, cond, zc)
    assert out.shape == (3, 2, 12)
    assert np.all(out.data == 0.0)  # zero-initialized output projection


def test_forward_shape_validation(rng):
    p = _make()
    cond = Conditioning(t=0.5, f_prior=2000.0, f_target=4000.0)
    with pytest.raises(ValueError):
        p.forward(nn.Tensor(np.zeros((1, 2, 8))), cond, nn.Tensor(np.zeros((1, 2, 9))))
    with pytest.raises(ValueError):
        p.forward(nn.Tensor(np.zeros((1, 3, 8))), cond, nn.Tensor(np.zeros((1, 3, 8))))


def test_blur_token_arity(rng):
    plain = _make()
    cond_blur = Conditioning(t=0.5, f_prior=2000.0, f_target=4000.0, blur_ratio=0.3)
    z = nn.Tensor(np.zeros((1, 2, 8)))
    with pytest.raises(ValueError):
        plain.forward(z, cond_blur, z)
    blurry = _make(PredictorConfig(latent_channels=2, width=8, kernel=3, dilations=(1,), embed_dim=16, use_blur_token=True))
    cond_plain = Conditioning(t=0.5, f_prior=2000.0, f_target=4000.0)
    with pytest.raises(ValueError):
        blurry.forward(z, cond_plain, z)
    out = blurry.forward(z, cond_blur, z)
    assert out.shape == (1, 2, 8)


def _nudge(p, seed=1):
    # zero-init makes the output (and most gradients) identically zero; give
    # the projection real weights before probing behaviour
    r = np.random.default_rng(seed)
    p.out_proj.w.data = r.standard_normal(p.out_proj.w.data.shape) * 0.1
    return p


def test_forward_depends_on_conditioning(rng):
    p = _nudge(_make())
    z = nn.Tensor(rng.standard_normal((1, 2, 16)))
    zc = nn.Tensor(rng.standard_normal((1, 2, 16)))
    base = p.forward(z, Conditioning(t=0.5, f_prior=2000.0, f_target=4000.0), zc).data
    other_t = p.forward(z, Conditioning(t=0.9, f_prior=2000.0, f_target=4000.0), zc).data
    other_ft = p.forward(z, Conditioning(t=0.5, f_prior=2000.0, f_target=6000.0), zc).data
    other_fp = p.forward(z, Conditioning(t=0.5, f_prior=1000.0, f_target=4000.0), zc).data
    assert np.max(np.abs(base - other_t)) > 1e-8
    assert np.max(np.abs(base - other_ft)) > 1e-8
    assert np.max(np.abs(base - other_fp)) > 1e-8


def test_forward_is_deterministic(rng):
    p = _nudge(_make())
    z = rng.standard_normal((2, 16))
    zc = rng.standard_normal((2, 16))
    cond = Conditioning(t=0.5, f_prior=2000.0, f_target=4000.0)
    with nn.no_grad():
        a = p.forward(nn.Tensor(z[None]), cond, nn.Tensor(zc[None])).data
        b = p.forward(nn.Tensor(z[None]), cond, nn.Tensor(zc[None])).data
    assert np.array_equal(a, b)
    assert a.shape == (1, 2, 16)


def test_forward_windows_are_batch_independent(rng):
    # the stitched sampler predicts its windows in groups: a batch must give
    # the bytes of its sub-batches concatenated
    p = _nudge(_make())
    n, cut = 150, 64
    z = rng.standard_normal((n, 2, 20))
    zc = rng.standard_normal((n, 2, 20))
    t = rng.uniform(0.1, 1.0, n)

    def run(sl):
        cond = Conditioning(t=t[sl], f_prior=np.full(len(t[sl]), 2000.0), f_target=np.full(len(t[sl]), 4000.0))
        return p.forward(nn.Tensor(z[sl]), cond, nn.Tensor(zc[sl])).data

    with nn.no_grad():
        whole = run(slice(None))
        parts = np.concatenate([run(slice(None, cut)), run(slice(cut, None))])
    assert np.array_equal(whole, parts)


def test_forward_without_graph_is_the_graph_forward(rng):
    # no_grad only drops the graph: a constructor-built float64 predictor gives
    # the bytes of its graph forward. Cast to float32, over 20 seeded models of
    # this shape it deviated by at most 2.1e-7 of the largest absolute output.
    p = _nudge(_make(PredictorConfig(latent_channels=2, width=8, kernel=3, dilations=(1, 2), embed_dim=16, use_blur_token=True)))
    z = nn.Tensor(rng.standard_normal((3, 2, 12)))
    zc = nn.Tensor(rng.standard_normal((3, 2, 12)))
    cond = Conditioning(t=[0.1, 0.5, 0.9], f_prior=[1000.0, 2000.0, 3000.0], f_target=np.full(3, 4000.0), blur_ratio=[0.0, 0.3, 1.0])
    with_graph = p.forward(z, cond, zc)
    with nn.no_grad():
        without = p.forward(z, cond, zc)
    assert with_graph.requires_grad and not without.requires_grad
    assert without.data.dtype == np.float64 and without.data.tobytes() == with_graph.data.tobytes()
    nn.to_float32(p.params())
    with nn.no_grad():
        out32 = p.forward(z, cond, zc)
    assert out32.data.dtype == np.float32
    assert np.max(np.abs(out32.data - with_graph.data)) <= 2e-6 * np.max(np.abs(with_graph.data))


def test_param_count_and_names(rng):
    p = _make()
    names = [n for n, _ in p.named_params()]
    assert len(names) == len(set(names))
    assert "out_proj.w" in names and "in_proj.w" in names and "tok_t.w" in names
    assert p.param_count() == sum(t.data.size for t in p.params())


def test_adam_error_names_the_predictor_parameter():
    p = _make()
    for _, t in p.named_params():
        t.grad = np.zeros_like(t.data)
    dict(p.named_params())["block1.conv.w"].grad.flat[0] = np.inf
    with pytest.raises(FloatingPointError, match=r"block1\.conv\.w"):
        nn.Adam(p.params(), lr=1e-3).step()


def test_gradients_match_finite_differences(rng):
    p = _nudge(_make(), seed=3)
    z_t = nn.Tensor(rng.standard_normal((2, 2, 10)))
    z_cond = nn.Tensor(rng.standard_normal((2, 2, 10)))
    target = nn.Tensor(rng.standard_normal((2, 2, 10)))
    cond = Conditioning(
        t=np.array([0.3, 0.8]), f_prior=np.array([2000.0, 1500.0]), f_target=np.array([4000.0, 4000.0])
    )
    def loss():
        return nn.mse(p.forward(z_t, cond, z_cond), target)
    worst = nn.grad_check(loss, p.params(), rng, n_samples=120)
    assert worst < 1e-4, f"max rel grad error {worst:.3e}"
