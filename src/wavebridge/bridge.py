"""Bridge-process numerics: noise schedule, forward marginal, training target,
endpoint estimate, and the first-order SDE sampler loop that every sampler
(bridge.sample, the stitched sampler in pipeline) runs.

The process runs on [0, 1] between fixed endpoints z0 (target) and zT (prior)
with zero drift, so both drift scalings are identically 1 and the marginal at
time t is the Gaussian

    z_t ~ N( (rev_t^2/total^2) z0 + (fwd_t^2/total^2) zT,  (rev_t fwd_t/total)^2 )

where fwd_t^2 accumulates diffusion from 0 to t, rev_t^2 from t to 1, and
total^2 = fwd_1^2. The default diffusion profile is triangular: g^2 rises
linearly from g_min^2 to g_max^2 over [0, 0.5] and falls back symmetrically,
giving piecewise-quadratic closed forms for the variances. A constant profile
(g^2 = g_max^2) is available for comparison runs. All schedule invariants
(fwd_0 = 0, rev_1 = 0, fwd^2 + rev^2 = total^2, strict monotonicity) are
profile-independent and covered by tests.

Time t is one value or one per item. The schedule maps an array t
elementwise; forward_sample, loss_target and estimate_z0 broadcast a (N,) t
over the leading axis of their (N, ...) latents, bit for bit equal to the
per-item calls stacked. A NaN or out-of-range entry raises, naming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEDULE_PROFILES = ("triangular", "constant")

# Training never samples t below this: the noise target divides by fwd std.
T_MIN_TRAIN = 1e-4


@dataclass
class BridgeSchedule:
    g_min_sq: float = 0.001
    g_max_sq: float = 1.0
    profile: str = "triangular"

    def __post_init__(self):
        if not (0.0 <= self.g_min_sq <= self.g_max_sq):
            raise ValueError(f"need 0 <= g_min_sq <= g_max_sq, got {self.g_min_sq}, {self.g_max_sq}")
        if self.g_max_sq <= 0.0:
            raise ValueError("g_max_sq must be positive")
        if self.profile not in SCHEDULE_PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; choices {SCHEDULE_PROFILES}")

    def _check_t(self, t: float | np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        bad = ~((t >= 0.0) & (t <= 1.0))
        if np.any(bad):
            raise ValueError(f"time {t[bad].flat[0]} outside [0, 1]")
        return t

    def g_sq(self, t: float | np.ndarray) -> float | np.ndarray:
        """Squared diffusion coefficient at time t."""
        t = self._check_t(t)
        if self.profile == "constant":
            return np.full(t.shape, self.g_max_sq)[()]
        lo, hi = self.g_min_sq, self.g_max_sq
        return np.where(t <= 0.5, lo + (hi - lo) * (2.0 * t), lo + (hi - lo) * (2.0 * (1.0 - t)))[()]

    def var_fwd(self, t: float | np.ndarray) -> float | np.ndarray:
        """Integral of g_sq from 0 to t (variance accumulated from the start)."""
        t = self._check_t(t)
        lo, hi = self.g_min_sq, self.g_max_sq
        if self.profile == "constant":
            return (hi * t)[()]
        half = lo * 0.5 + (hi - lo) * 0.25
        u = 1.0 - t
        return np.where(t <= 0.5, lo * t + (hi - lo) * t * t, half + lo * (t - 0.5) + (hi - lo) * (0.25 - u * u))[()]

    @property
    def var_total(self) -> float:
        if self.profile == "constant":
            return self.g_max_sq
        return self.g_min_sq + 0.5 * (self.g_max_sq - self.g_min_sq)

    def std_fwd(self, t: float | np.ndarray) -> float | np.ndarray:
        return np.sqrt(self.var_fwd(t))

    def std_rev(self, t: float | np.ndarray) -> float | np.ndarray:
        return np.sqrt(np.maximum(self.var_total - self.var_fwd(t), 0.0))

    @property
    def std_total(self) -> float:
        return float(np.sqrt(self.var_total))


def _same_shape(what: str, *arrays) -> list[np.ndarray]:
    """The arrays as float64; raises unless they all have one shape."""
    out = [np.asarray(a, dtype=np.float64) for a in arrays]
    shapes = [a.shape for a in out]
    if len(set(shapes)) > 1:
        raise ValueError(f"{what}: shapes differ {' vs '.join(map(str, shapes))}")
    return out


def _per_item(t: float | np.ndarray, z: np.ndarray) -> np.ndarray:
    """t as an array that broadcasts over z: one time, or one per leading item."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1 or t.shape != z.shape[: t.ndim]:
        raise ValueError(f"time shape {t.shape} is neither scalar nor one per item of {z.shape}")
    return t.reshape(t.shape + (1,) * (z.ndim - t.ndim))


def forward_sample(z0: np.ndarray, zT: np.ndarray, t: float | np.ndarray, eps: np.ndarray, sched: BridgeSchedule) -> np.ndarray:
    """Draw z_t given both endpoints and a standard-normal eps (deterministic in eps)."""
    z0, zT, eps = _same_shape("forward_sample", z0, zT, eps)
    var_t = sched.var_fwd(_per_item(t, z0))
    var_total = sched.var_total
    w0 = (var_total - var_t) / var_total
    wT = var_t / var_total
    noise_std = np.sqrt(np.maximum(var_total - var_t, 0.0) * var_t / var_total)
    return w0 * z0 + wT * zT + noise_std * eps


def loss_target(z_t: np.ndarray, z0: np.ndarray, t: float | np.ndarray, sched: BridgeSchedule) -> np.ndarray:
    """Noise-prediction training target (z_t - z0) / fwd_std(t). Needs t > 0."""
    z_t, z0 = _same_shape("loss_target", z_t, z0)
    t = _per_item(t, z_t)
    std = sched.std_fwd(t)
    if np.any(std <= 0.0):
        raise ValueError(f"loss target undefined at t={t[std <= 0.0].flat[0]}: forward std is zero")
    return (z_t - z0) / std


def estimate_z0(z_t: np.ndarray, eps_hat: np.ndarray, t: float | np.ndarray, sched: BridgeSchedule) -> np.ndarray:
    """Invert the noise parameterization: z0_hat = z_t - fwd_std(t) * eps_hat."""
    z_t, eps_hat = _same_shape("estimate_z0", z_t, eps_hat)
    return z_t - sched.std_fwd(_per_item(t, z_t)) * eps_hat


def sde_step(z_s: np.ndarray, z0_hat: np.ndarray, s: float, t: float, eps: np.ndarray, sched: BridgeSchedule) -> np.ndarray:
    """One first-order sampler step from time s down to t < s.

    z_t = (var_t/var_s) z_s + (1 - var_t/var_s) z0_hat
          + fwd_std(t) sqrt(1 - var_t/var_s) eps

    With the true z0 this is exactly the bridge transition kernel; t = 0
    collapses onto z0_hat.
    """
    if not (0.0 <= t < s <= 1.0):
        raise ValueError(f"need 0 <= t < s <= 1, got s={s}, t={t}")
    var_s = sched.var_fwd(s)
    if var_s <= 0.0:
        raise ValueError(f"sde_step undefined from s={s}: forward variance is zero")
    z_s, z0_hat, eps = _same_shape("sde_step", z_s, z0_hat, eps)
    var_t = sched.var_fwd(t)
    r = var_t / var_s
    return r * z_s + (1.0 - r) * z0_hat + np.sqrt(var_t) * np.sqrt(1.0 - r) * eps


def time_grid(n_steps: int) -> np.ndarray:
    """Uniform sampling grid 1 -> 0 with n_steps intervals."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return np.linspace(1.0, 0.0, n_steps + 1)


def run_sampler(estimate, zT: np.ndarray, n_steps: int, rng: np.random.Generator, sched: BridgeSchedule) -> np.ndarray:
    """The sampler loop: from the prior endpoint down to time 0.

    estimate(z_s, s, i) -> z0_hat gives the endpoint estimate at step i, time
    s. Each step draws one z-shaped standard-normal array from rng and takes
    one sde_step, so a fixed seed gives a bit-identical trajectory. Raises on
    non-finite states, naming the step.
    """
    grid = time_grid(n_steps)
    z = np.asarray(zT, dtype=np.float64).copy()
    for i in range(n_steps):
        s, t = float(grid[i]), float(grid[i + 1])
        z0_hat = estimate(z, s, i)
        noise = rng.standard_normal(z.shape)
        z = sde_step(z, z0_hat, s, t, noise, sched)
        if not np.all(np.isfinite(z)):
            raise RuntimeError(f"sampler produced non-finite state at step {i} (t={t:.4f})")
    return z


def sample(predict_eps, zT: np.ndarray, n_steps: int, rng: np.random.Generator, sched: BridgeSchedule) -> np.ndarray:
    """run_sampler with a noise predictor.

    predict_eps(z_t, t) -> eps_hat must be a pure function (any conditioning
    is bound by the caller).
    """
    return run_sampler(lambda z, s, i: estimate_z0(z, predict_eps(z, s), s, sched), zT, n_steps, rng, sched)
