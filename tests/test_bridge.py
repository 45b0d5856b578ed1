"""Bridge process: schedule closed forms, marginal statistics, sampler algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebridge.bridge import (
    T_MIN_TRAIN,
    BridgeSchedule,
    estimate_z0,
    forward_sample,
    loss_target,
    sample,
    sde_step,
    time_grid,
)

TRI = BridgeSchedule(0.001, 1.0, "triangular")
CONST = BridgeSchedule(0.001, 1.0, "constant")


# ------------------------------------------------------------------ schedule

def test_schedule_validation():
    with pytest.raises(ValueError):
        BridgeSchedule(0.5, 0.1)
    with pytest.raises(ValueError):
        BridgeSchedule(-0.1, 1.0)
    with pytest.raises(ValueError):
        BridgeSchedule(0.0, 0.0)
    with pytest.raises(ValueError):
        BridgeSchedule(0.001, 1.0, "cosine")
    with pytest.raises(ValueError):
        TRI.var_fwd(1.5)
    with pytest.raises(ValueError):
        TRI.g_sq(-0.1)


def test_schedule_boundaries_exact():
    for sched in (TRI, CONST):
        assert sched.var_fwd(0.0) == 0.0
        assert abs(sched.var_fwd(1.0) - sched.var_total) < 1e-12
        assert sched.std_rev(1.0) == 0.0
        assert abs(sched.std_rev(0.0) - sched.std_total) < 1e-12
    assert TRI.g_sq(0.0) == pytest.approx(0.001, abs=1e-15)
    assert TRI.g_sq(0.5) == pytest.approx(1.0, abs=1e-15)
    assert TRI.g_sq(1.0) == pytest.approx(0.001, abs=1e-15)
    assert TRI.var_total == pytest.approx(0.5005, abs=1e-15)
    assert CONST.var_total == 1.0


def test_var_fwd_integrates_g_sq():
    # g_sq is piecewise linear with its only kink at t = 0.5, so a trapezoid
    # rule whose grid contains 0.5 is exact; the closed form must match it.
    ts = np.linspace(0.0, 1.0, 2001)
    for sched in (TRI, CONST):
        g = np.array([sched.g_sq(t) for t in ts])
        cum = np.concatenate([[0.0], np.cumsum((g[1:] + g[:-1]) * 0.5 * np.diff(ts))])
        closed = np.array([sched.var_fwd(t) for t in ts])
        assert np.max(np.abs(cum - closed)) < 1e-12


def test_variance_partition_identity():
    for sched in (TRI, CONST):
        for t in np.linspace(0.0, 1.0, 777):
            fwd = sched.std_fwd(t) ** 2
            rev = sched.std_rev(t) ** 2
            assert abs(fwd + rev - sched.var_total) < 1e-12


def test_var_fwd_strictly_increasing():
    ts = np.linspace(0.0, 1.0, 501)
    for sched in (TRI, CONST):
        v = np.array([sched.var_fwd(t) for t in ts])
        assert np.all(np.diff(v) > 0.0)


@given(t1=st.floats(min_value=0.0, max_value=1.0), t2=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_var_fwd_monotone_property(t1, t2):
    lo, hi = sorted((t1, t2))
    for sched in (TRI, CONST):
        assert sched.var_fwd(lo) <= sched.var_fwd(hi) + 1e-15
        assert 0.0 <= sched.var_fwd(t1) <= sched.var_total + 1e-15


# ----------------------------------------------------------- forward marginal

def test_forward_sample_endpoints_exact(rng):
    z0 = rng.standard_normal(32)
    zT = rng.standard_normal(32)
    eps = rng.standard_normal(32)
    assert np.array_equal(forward_sample(z0, zT, 0.0, eps, TRI), z0)
    at_one = forward_sample(z0, zT, 1.0, eps, TRI)
    assert np.max(np.abs(at_one - zT)) < 1e-12


def test_forward_sample_closed_form_weights(rng):
    z0 = rng.standard_normal(8)
    zT = rng.standard_normal(8)
    t = 0.37
    var_t, var_tot = TRI.var_fwd(t), TRI.var_total
    want = ((var_tot - var_t) / var_tot) * z0 + (var_t / var_tot) * zT
    got = forward_sample(z0, zT, t, np.zeros(8), TRI)
    assert np.max(np.abs(got - want)) < 1e-15


def test_forward_sample_marginal_statistics():
    rng = np.random.default_rng(77)
    n = 200_000
    z0, zT = 2.0, -1.0
    for t in (0.25, 0.5, 0.75):
        draws = forward_sample(np.full(n, z0), np.full(n, zT), t, rng.standard_normal(n), TRI)
        var_t, var_tot = TRI.var_fwd(t), TRI.var_total
        mean = ((var_tot - var_t) / var_tot) * z0 + (var_t / var_tot) * zT
        std = np.sqrt((var_tot - var_t) * var_t / var_tot)
        se = std / np.sqrt(n)
        assert abs(draws.mean() - mean) < 5 * se
        assert abs(draws.std() - std) < 0.02 * std


def test_forward_sample_shape_checks(rng):
    with pytest.raises(ValueError):
        forward_sample(np.zeros(3), np.zeros(4), 0.5, np.zeros(3), TRI)
    with pytest.raises(ValueError):
        forward_sample(np.zeros(3), np.zeros(3), 0.5, np.zeros(4), TRI)
    z = np.zeros((3, 4))
    for t in (np.full(2, 0.5), np.full(4, 0.5), np.full((3, 1), 0.5)):
        with pytest.raises(ValueError, match="time shape"):
            forward_sample(z, z, t, z, TRI)


# ------------------------------------------------------------- per-item time

@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ts=st.lists(st.floats(min_value=T_MIN_TRAIN, max_value=1.0), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_per_item_time_equals_per_item_calls(seed, ts):
    # one call with one time per item must give exactly the per-item scalar calls, stacked
    rng = np.random.default_rng(seed)
    t = np.array(ts)
    n = len(t)
    z0, zT, eps = (rng.standard_normal((n, 3, 16)) for _ in range(3))
    for sched in (TRI, CONST):
        z_t = forward_sample(z0, zT, t, eps, sched)
        target = loss_target(z_t, z0, t, sched)
        z0_hat = estimate_z0(z_t, eps, t, sched)
        for i in range(n):
            ti = float(t[i])
            assert np.array_equal(z_t[i], forward_sample(z0[i], zT[i], ti, eps[i], sched))
            assert np.array_equal(target[i], loss_target(z_t[i], z0[i], ti, sched))
            assert np.array_equal(z0_hat[i], estimate_z0(z_t[i], eps[i], ti, sched))
        for name in ("g_sq", "var_fwd", "std_fwd", "std_rev"):
            f = getattr(sched, name)
            assert np.array_equal(f(t), [f(float(ti)) for ti in t])


@pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5])
def test_per_item_time_rejects_bad_entry(bad):
    t = np.array([0.2, bad, 0.7])
    z = np.zeros((3, 4))
    for sched in (TRI, CONST):
        with pytest.raises(ValueError, match=f"time {bad} outside"):
            sched.var_fwd(t)
        with pytest.raises(ValueError, match=f"time {bad} outside"):
            forward_sample(z, z, t, z, sched)
        with pytest.raises(ValueError, match=f"time {bad} outside"):
            loss_target(z, z, t, sched)
        with pytest.raises(ValueError, match=f"time {bad} outside"):
            estimate_z0(z, z, t, sched)
    with pytest.raises(ValueError, match="t=0.0"):
        loss_target(z, z, np.array([0.2, 0.0, 0.7]), TRI)


# --------------------------------------------------- target/estimate inversion

def test_loss_target_inverts_through_estimate(rng):
    for t in (T_MIN_TRAIN, 0.1, 0.5, 0.9, 1.0):
        z0 = rng.standard_normal((4, 16))
        zT = rng.standard_normal((4, 16))
        z_t = forward_sample(z0, zT, t, rng.standard_normal((4, 16)), TRI)
        eps_star = loss_target(z_t, z0, t, TRI)
        back = estimate_z0(z_t, eps_star, t, TRI)
        assert np.max(np.abs(back - z0)) < 1e-10


def test_loss_target_rejects_t_zero(rng):
    with pytest.raises(ValueError):
        loss_target(np.zeros(4), np.zeros(4), 0.0, TRI)


# ------------------------------------------------------------------- sampler

def test_sde_step_time_validation(rng):
    z = np.zeros(4)
    with pytest.raises(ValueError):
        sde_step(z, z, 0.5, 0.5, z, TRI)
    with pytest.raises(ValueError):
        sde_step(z, z, 0.3, 0.5, z, TRI)


def test_sde_step_collapses_to_estimate_at_zero(rng):
    z_s = rng.standard_normal(16)
    z0_hat = rng.standard_normal(16)
    out = sde_step(z_s, z0_hat, 0.4, 0.0, rng.standard_normal(16), TRI)
    assert np.array_equal(out, z0_hat)


def test_sde_step_preserves_marginal_with_true_z0():
    # With the exact endpoint, one transition from the marginal at s must land
    # on the marginal at t: the sampler algebra has no other degrees of freedom.
    rng = np.random.default_rng(5)
    n = 200_000
    z0, zT = 1.5, -0.5
    s, t = 0.7, 0.3
    z_s = forward_sample(np.full(n, z0), np.full(n, zT), s, rng.standard_normal(n), TRI)
    z_t = sde_step(z_s, np.full(n, z0), s, t, rng.standard_normal(n), TRI)
    var_t, var_tot = TRI.var_fwd(t), TRI.var_total
    mean = ((var_tot - var_t) / var_tot) * z0 + (var_t / var_tot) * zT
    std = np.sqrt((var_tot - var_t) * var_t / var_tot)
    se = std / np.sqrt(n)
    assert abs(z_t.mean() - mean) < 5 * se
    assert abs(z_t.std() - std) < 0.02 * std


def test_time_grid():
    g = time_grid(4)
    assert g[0] == 1.0 and g[-1] == 0.0 and len(g) == 5
    assert np.max(np.abs(np.diff(g) + 0.25)) < 1e-15
    with pytest.raises(ValueError):
        time_grid(0)


def test_sample_exact_with_perfect_predictor(rng):
    # A predictor that knows z0 makes every z0_hat exact, so the final step
    # (t = 0) lands on z0 no matter how many steps are used.
    z0 = rng.standard_normal((2, 8))
    zT = rng.standard_normal((2, 8))
    for n_steps in (1, 3, 17):
        def predict(z, s):
            return loss_target(z, z0, s, TRI)
        out = sample(predict, zT, n_steps, np.random.default_rng(0), TRI)
        assert np.max(np.abs(out - z0)) < 1e-10


def test_sample_one_step_with_zero_predictor(rng):
    # n_steps=1 goes straight from s=1 to t=0: var ratio r=0, noise scale 0,
    # so the output is exactly the z0 estimate at the prior point.
    zT = rng.standard_normal(16)
    out = sample(lambda z, s: np.zeros_like(z), zT, 1, np.random.default_rng(0), TRI)
    assert np.array_equal(out, zT)  # estimate_z0(zT, 0, 1) = zT


def test_sample_seed_determinism(rng):
    zT = rng.standard_normal((2, 8))
    def predict(z, s):
        return 0.1 * z
    a = sample(predict, zT, 10, np.random.default_rng(42), TRI)
    b = sample(predict, zT, 10, np.random.default_rng(42), TRI)
    c = sample(predict, zT, 10, np.random.default_rng(43), TRI)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_aborts_on_nonfinite(rng):
    zT = rng.standard_normal(4)
    def predict(z, s):
        return np.full_like(z, np.inf)
    with pytest.raises(RuntimeError, match="non-finite"):
        sample(predict, zT, 3, np.random.default_rng(0), TRI)
