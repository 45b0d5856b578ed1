"""Deterministic signal-processing primitives.

Everything here is a pure function in numpy: IIR low-pass design (four
classic families, second-order sections), zero-phase application, polyphase
resampling, a zero-padded Hann STFT for spectral metrics, and spectral
low-band replacement. The contracts (stability margin, -3 dB points,
reconstruction error) are enforced by tests, which also hold the filters,
the zero-phase pass and the resampler to scipy.signal as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FILTER_FAMILIES = ("butterworth", "cheby1", "bessel", "elliptic")
# The highest filter order a FilterSpec or a degradation policy accepts.
MAX_ORDER = 16

# Poles of every designed cascade must sit inside this radius.
STABILITY_MARGIN = 1e-9


@dataclass
class Waveform:
    """Mono audio buffer: float64 samples at a positive integer sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains NaN or inf")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0


@dataclass
class FilterSpec:
    """Low-pass IIR description: family, order, cutoff, ripple parameters.

    ripple_db applies to cheby1 and elliptic passbands; stop_atten_db to the
    elliptic stopband. Bessel designs are magnitude-normalized so cutoff_hz is
    the -3 dB point like the other families.
    """

    family: str
    order: int
    cutoff_hz: float
    ripple_db: float = 1.0
    stop_atten_db: float = 60.0

    def validate(self, sample_rate: int) -> None:
        if self.family not in FILTER_FAMILIES:
            raise ValueError(f"unknown filter family {self.family!r}; expected one of {FILTER_FAMILIES}")
        if not (1 <= self.order <= MAX_ORDER):
            raise ValueError(f"filter order {self.order} outside [1, {MAX_ORDER}]")
        if not (0.0 < self.cutoff_hz < sample_rate / 2.0):
            raise ValueError(
                f"cutoff {self.cutoff_hz} Hz must lie strictly inside (0, Nyquist={sample_rate / 2.0})"
            )
        if self.family == "elliptic" and not (0.0 < self.ripple_db < self.stop_atten_db):
            raise ValueError(
                f"elliptic needs 0 < ripple_db < stop_atten_db, got {self.ripple_db} and {self.stop_atten_db}"
            )


def _ellipk(m_comp: float) -> float:
    """Complete elliptic integral K(m) by the AGM, from m_comp = 1 - m so that m near 1 keeps its digits."""
    a, b = 1.0, math.sqrt(m_comp)
    for _ in range(64):
        if abs(a - b) <= 1e-15 * a:
            break
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _ellipj(u, m: float):
    """Jacobi sn, cn and dn of u at parameter 0 <= m < 1, by the descending AGM."""
    a, b, c = [1.0], math.sqrt(1.0 - m), [math.sqrt(m)]
    while len(a) == 1 or abs(c[-1]) > 1e-16 * a[-1]:
        prev = a[-1]
        c.append((prev - b) / 2.0)
        a.append((prev + b) / 2.0)
        b = math.sqrt(prev * b)
    phi = 2.0 ** (len(a) - 1) * a[-1] * np.asarray(u, dtype=np.float64)
    for ai, ci in zip(a[:0:-1], c[:0:-1]):
        prev, phi = phi, (np.arcsin(ci * np.sin(phi) / ai) + phi) / 2.0
    return np.sin(phi), np.cos(phi), np.cos(phi) / np.cos(prev - phi)


def _elliptic(n: int, eps2: float, stop_atten_db: float) -> tuple[np.ndarray, np.ndarray]:
    """Elliptic prototype zeros and poles by the nome method (Orfanidis, Lecture Notes on Elliptic Filter Design)."""
    if n == 1:
        return np.empty(0), np.array([-1.0 / math.sqrt(eps2) + 0j])
    m1 = eps2 / math.expm1(0.1 * math.log(10.0) * stop_atten_db)
    k1, k1_comp = _ellipk(1.0 - m1), _ellipk(m1)
    q = math.exp(-math.pi * k1_comp / k1 / n)  # nome of the selectivity modulus, from the degree equation
    j = np.arange(8)
    m = 16.0 * q * (np.sum(q ** (j * (j + 1))) / (1.0 + 2.0 * np.sum(q ** ((j + 1) ** 2)))) ** 4
    cap_k = _ellipk(1.0 - m)
    # v0: the inverse of sc(., 1 - m1) at 1/eps by descending Landen, scaled to the degree-n modulus
    ks, y = [math.sqrt(m1)], 1.0 / math.sqrt(eps2)
    while ks[-1] > 0.0:
        kp = math.sqrt((1.0 - ks[-1]) * (1.0 + ks[-1]))
        ks.append((1.0 - kp) / (1.0 + kp))
    for kn, knext in zip(ks[:-1], ks[1:]):
        y = 2.0 * y / ((1.0 + knext) * (1.0 + math.sqrt(1.0 + (kn * y) ** 2)))
    v0 = cap_k * np.prod(1.0 + np.array(ks[1:])) * math.asinh(y) / (n * k1)
    s, c, d = _ellipj(np.arange(1 - n % 2, n, 2) * cap_k / n, m)
    sv, cv, dv = _ellipj(v0, 1.0 - m)
    poles = (-(c * d * sv * cv) + 1j * s * dv) / (1.0 - (d * sv) ** 2)
    return 1j / (math.sqrt(m) * s[n % 2 :]), poles


def _bessel(n: int) -> np.ndarray:
    """Bessel prototype poles (all n), scaled so that |H(j)| = 1/sqrt(2)."""
    coef = np.array([math.factorial(2 * n - k) / (2 ** (n - k) * math.factorial(k) * math.factorial(n - k))
                     for k in range(n, -1, -1)])  # the reverse Bessel polynomial, highest power first
    p = np.roots(coef)
    for _ in range(3):
        p = p - np.polyval(coef, p) / np.polyval(np.polyder(coef), p)
    w = math.sqrt((2 * n - 1) * math.log(2.0))  # near the -3 dB frequency of the delay-normalised filter
    for _ in range(50):
        d2 = (w - p.imag) ** 2 + p.real**2  # |jw - p|^2
        step = (np.sum(np.log(d2 / np.abs(p) ** 2)) - math.log(2.0)) / np.sum(2.0 * (w - p.imag) / d2)
        w -= step
        if abs(step) <= 1e-15 * w:
            break
    return p / w


def _prototype(spec: FilterSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Analog low-pass prototype, band edge at 1 rad/s: (zeros, poles, DC gain).

    Each conjugate pair keeps its root with a positive imaginary part; the
    real pole of an odd order has an imaginary part of exactly 0.
    """
    n = spec.order
    eps2 = math.expm1(0.1 * math.log(10.0) * spec.ripple_db)
    ripple_dc = 1.0 if n % 2 else 1.0 / math.sqrt(1.0 + eps2)
    phi = np.pi * np.arange(n - 1, -1, -2) / (2 * n)
    if spec.family == "butterworth":
        return np.empty(0), -np.exp(-1j * phi), 1.0
    if spec.family == "cheby1":
        return np.empty(0), -np.sinh(math.asinh(1.0 / math.sqrt(eps2)) / n - 1j * phi), ripple_dc
    if spec.family == "bessel":
        p = _bessel(n)
        p = p[np.argsort(p.imag)][n // 2 :]
        if n % 2:
            p[0] = p[0].real
        return np.empty(0), p, 1.0
    zeros, poles = _elliptic(n, eps2, spec.stop_atten_db)
    return zeros, poles, ripple_dc


def design_lowpass(spec: FilterSpec, sample_rate: int) -> np.ndarray:
    """Design a stable low-pass biquad cascade, shape (n, 6), rows [b0, b1, b2, 1, a1, a2].

    The analog prototype is pre-warped to the cutoff and mapped by the
    bilinear transform; zeros the prototype lacks land at z = -1. Each
    conjugate pole pair makes one section with its nearest zero pair; the pole
    nearest the unit circle goes in the last section, the gain in the first.
    """
    spec.validate(sample_rate)
    zeros, poles, dc_gain = _prototype(spec)
    t = math.tan(math.pi * spec.cutoff_hz / sample_rate)
    za, pa = zeros * t, poles * t
    # H(z=1) = H(s=0); each root with a positive imaginary part stands for its conjugate pair too
    pair = np.where(poles.imag > 0, 2, 1)
    gain = dc_gain * np.prod(np.abs(pa / (pa - 1.0)) ** pair) * np.prod(np.abs((za - 1.0) / za) ** 2)
    pd, zd = (1.0 + pa) / (1.0 - pa), list((1.0 + za) / (1.0 - za))
    pd = pd[np.argsort(-np.abs(1.0 - np.abs(pd)), kind="stable")]
    sos = np.zeros((len(pd), 6))
    for i in range(len(pd) - 1, -1, -1):  # nearest the unit circle first: it takes the nearest zeros
        p = pd[i]
        if p.imag == 0:
            sos[i] = [1.0, 1.0, 0.0, 1.0, -p.real, 0.0]
            continue
        z = zd.pop(int(np.argmin(np.abs(np.array(zd) - p)))) if zd else -1.0 + 0j
        sos[i] = [1.0, -2.0 * z.real, abs(z) ** 2, 1.0, -2.0 * p.real, abs(p) ** 2]
    sos[0, :3] *= gain
    a0, a1, a2 = sos[:, 3], sos[:, 4], sos[:, 5]
    root = np.sqrt((a1 * a1 - 4.0 * a0 * a2).astype(np.complex128))
    radius = np.maximum(np.abs(-a1 + root), np.abs(-a1 - root)) / (2.0 * np.abs(a0))
    if np.max(radius) >= 1.0 - STABILITY_MARGIN:
        raise RuntimeError(f"designed section is not safely stable: {spec} at fs={sample_rate}")
    return sos


# ---------------------------------------------------------------- filtering

BLOCK = 64  # samples per step of the blocked recursion


def _block_operators(sos: np.ndarray) -> tuple[np.ndarray, ...]:
    """Matrices that run a biquad cascade BLOCK samples at a time, and its settled unit-step state.

    Each section becomes H(z) = d + c (zI - R)^-1 g with g = [1, 0]: R is the
    scaled rotation [[re, -im], [im, re]] for a complex pole pair and a
    lower-bidiagonal chain for real poles, so no power of R grows, as powers
    of the transposed-direct-form state matrix do for poles near z = 1. The
    cascade is then one state-space system x' = A x + B u, y = C x + D u. Over
    one block its outputs are `toeplitz @ u` (the impulse response) plus
    `obs @ x`, and the state after it is `trans @ x + ctrl.T @ u`.
    """
    b0, b1, b2, _, a1, a2 = sos.T
    r0, r1 = b1 - a1 * b0, b2 - a2 * b0  # H(z) - b0 = (r0 z + r1) / (z^2 + a1 z + a2)
    disc = a1 * a1 - 4.0 * a2
    cplx = disc < 0
    re, im = -a1 / 2.0, np.sqrt(np.abs(disc)) / 2.0
    p1 = re - np.copysign(im, a1)  # the real roots, the larger one first
    p2 = np.divide(a2, p1, out=np.zeros_like(p1), where=p1 != 0)
    rot = np.zeros((len(sos), 2, 2))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = (
        np.where(cplx, re, p1), np.where(cplx, -im, 0.0), np.where(cplx, im, 1.0), np.where(cplx, re, p2))
    c = np.stack([r0, np.where(cplx, (r1 + r0 * re) / np.where(cplx, im, 1.0), r1 + r0 * p2)], axis=1)
    settled = np.linalg.solve(np.eye(2) - rot, np.broadcast_to([[1.0], [0.0]], (len(sos), 2, 1)))[..., 0]
    dc = b0 + np.sum(c * settled, axis=1)
    zi = (settled * np.cumprod(np.concatenate([[1.0], dc[:-1]]))[:, None]).ravel()

    ns = 2 * len(sos)
    ab = np.zeros((ns, ns + 1))  # each state's next value as a function of [state, input]
    v = np.zeros(ns + 1)  # the current section's input
    v[ns] = 1.0
    for s in range(len(sos)):
        ab[2 * s] = v
        ab[2 * s : 2 * s + 2, 2 * s : 2 * s + 2] += rot[s]
        v = b0[s] * v
        v[2 * s : 2 * s + 2] += c[s]
    a, b = ab[:, :ns], ab[:, ns]
    pw = np.empty((BLOCK + 1, ns, ns))  # A^0 .. A^BLOCK, by doubling
    pw[0], pw[1] = np.eye(ns), a
    k = 2
    while k <= BLOCK:
        cnt = min(k - 1, BLOCK + 1 - k)
        pw[k : k + cnt] = pw[1 : 1 + cnt] @ pw[k - 1]
        k += cnt
    obs = v[:ns] @ pw[:BLOCK]  # row i: C A^i
    h = np.concatenate([[v[ns]], obs[:-1] @ b])
    lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
    toeplitz = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    ctrl = pw[BLOCK - 1 :: -1] @ b  # row j: A^(BLOCK-1-j) B
    return (toeplitz, obs, ctrl, pw[BLOCK]), zi


def _run_blocks(x: np.ndarray, x0: np.ndarray, ops: tuple[np.ndarray, ...]) -> np.ndarray:
    """Filter x from state x0 with `_block_operators` matrices."""
    toeplitz, obs, ctrl, trans = ops
    n = len(x)
    nb = -(-n // BLOCK)
    u = np.zeros(nb * BLOCK)
    u[:n] = x
    u = u.reshape(nb, BLOCK)
    # the state at each block start, x_{b+1} = trans x_b + ctrl.T u_b, summed by doubling
    st = np.empty((nb, len(x0)))
    st[0], st[1:] = x0, u[:-1] @ ctrl
    k, tk = 1, trans
    while k < nb:
        st[k:] += st[:-k] @ tk.T
        k, tk = 2 * k, tk @ tk
    return (u @ toeplitz.T + st @ obs.T).ravel()[:n]


def apply_filter(wav: Waveform, sections: np.ndarray | None) -> Waveform:
    """Run a biquad cascade over a waveform. None/empty sections = identity.

    Zero-phase: filters forward and backward (no group delay, squared
    magnitude response). Each pass starts in the steady state of the first
    sample it sees, over an odd extension of up to 3 * (2 * sections + 1)
    samples per end (one less per end for an odd order, and never the whole
    buffer), cut off again afterwards.
    """
    if sections is None or len(sections) == 0:
        return Waveform(wav.samples.copy(), wav.sample_rate)
    x = wav.samples
    if len(x) == 0:
        return Waveform(x.copy(), wav.sample_rate)
    default_padlen = 3 * (2 * len(sections) + 1 - min((sections[:, 2] == 0).sum(), (sections[:, 5] == 0).sum()))
    padlen = min(int(default_padlen), len(x) - 1)
    if padlen:
        x = np.concatenate([2.0 * x[0] - x[padlen:0:-1], x, 2.0 * x[-1] - x[-2 : -padlen - 2 : -1]])
    ops, zi = _block_operators(sections)
    y = _run_blocks(x, zi * x[0], ops)[::-1]
    y = _run_blocks(y, zi * y[0], ops)[::-1]
    return Waveform(y[padlen : len(y) - padlen], wav.sample_rate)


def lowpass(wav: Waveform, cutoff_hz: float, family: str = "cheby1", order: int = 8) -> Waveform:
    """Convenience: design + apply in one call (the package-default degrader)."""
    sos = design_lowpass(FilterSpec(family, order, cutoff_hz), wav.sample_rate)
    return apply_filter(wav, sos)


def resample(wav: Waveform, target_sr: int) -> Waveform:
    """Polyphase windowed-sinc resampling to target_sr.

    The anti-alias filter is a Kaiser (beta 5) windowed sinc with its cutoff
    at the lower of the two Nyquist rates, 10 * max(up, down) taps either side
    of its centre and a DC gain of `up`. Output length is
    round(L * target_sr / source_sr); a same-rate call returns an identical copy.
    """
    if target_sr <= 0:
        raise ValueError(f"target sample rate must be positive, got {target_sr}")
    if target_sr == wav.sample_rate:
        return Waveform(wav.samples.copy(), wav.sample_rate)
    g = math.gcd(int(target_sr), int(wav.sample_rate))
    up, down = int(target_sr) // g, int(wav.sample_rate) // g
    half = 10 * max(up, down)
    h = np.sinc(np.arange(-half, half + 1) / max(up, down)) * np.kaiser(2 * half + 1, 5.0)
    h *= up / h.sum()
    # y[i] = sum_j x[j] h[i*down + half - j*up], the input zero-stuffed by `up`. The outputs
    # i0, i0 + up, ... all use the taps h[phase::up], on input windows `down` apart.
    n_out = int(round(len(wav) * target_sr / wav.sample_rate))
    pad = -(-len(h) // up) + 1
    x = np.concatenate([np.zeros(pad), wav.samples, np.zeros(pad)])
    y = np.zeros(n_out)
    for i0 in range(min(up, n_out)):
        taps = h[(i0 * down + half) % up :: up][::-1]
        first = pad + (i0 * down + half) // up - len(taps) + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, len(taps))[first::down]
        y[i0::up] = windows[: len(range(i0, n_out, up))] @ taps
    return Waveform(y, target_sr)


@dataclass
class StftParams:
    """STFT analysis parameters. Hann window only; fft_size a power of two."""

    fft_size: int = 2048
    hop: int = 512

    def __post_init__(self):
        if self.fft_size <= 0 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ValueError(f"fft_size must be a positive power of two, got {self.fft_size}")
        if not (0 < self.hop <= self.fft_size):
            raise ValueError(f"hop must be in (0, fft_size], got {self.hop}")

    def window_values(self) -> np.ndarray:
        # Periodic Hann: the right choice for overlap-add analysis.
        n = np.arange(self.fft_size)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.fft_size)


@dataclass
class Spectrogram:
    """Complex STFT matrix, F x T, with the parameters that produced it."""

    bins: np.ndarray
    params: StftParams
    sample_rate: int

    def __post_init__(self):
        self.bins = np.asarray(self.bins)
        if self.bins.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D (freq x time), got shape {self.bins.shape}")
        want_f = self.params.fft_size // 2 + 1
        if self.bins.shape[0] != want_f:
            raise ValueError(f"expected {want_f} frequency bins for fft_size {self.params.fft_size}, got {self.bins.shape[0]}")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.bins)

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.params.fft_size


def stft(wav: Waveform, params: StftParams) -> Spectrogram:
    """Hann STFT of a zero-padded signal, the framing every spectral metric uses.

    The pad of fft_size zeros on each side puts every original sample, the
    first and last included, under as many full windows as an interior one,
    so spectral distances weigh the clip edges like the middle. A hop above
    fft_size/2 is rejected: Hann frames that sparse leave the samples between
    two window centres with uneven, partly near-zero weight.
    """
    n, h = params.fft_size, params.hop
    if h > n // 2:
        raise ValueError(f"hop {h} > fft_size/2 = {n // 2}: Hann frames would weigh samples unevenly")
    x = wav.samples
    pad = n
    covered = len(x) + 2 * pad - n
    nframes = max(1, -(-covered // h) + 1)
    total = n + (nframes - 1) * h
    buf = np.zeros(total)
    buf[pad : pad + len(x)] = x
    idx = np.arange(n)[None, :] + (h * np.arange(nframes))[:, None]
    frames = buf[idx] * params.window_values()[None, :]
    bins = np.fft.rfft(frames, axis=1).T  # F x T
    return Spectrogram(bins, params, wav.sample_rate)


def replace_low_band(generated: Waveform, reference: Waveform, cutoff_hz: float) -> Waveform:
    """Splice the reference's low band (f <= cutoff) under the generated highs.

    Works on the full-signal rFFT, so the operation is linear and exactly
    idempotent: the ref/generated handoff completes within one frequency bin,
    replace(x, x, c) == x to roundoff, and repeated application is a no-op.
    """
    if generated.sample_rate != reference.sample_rate:
        raise ValueError(
            f"sample rates differ: generated {generated.sample_rate}, reference {reference.sample_rate}"
        )
    if len(generated) != len(reference):
        raise ValueError(f"lengths differ: generated {len(generated)}, reference {len(reference)}")
    if not (0.0 < cutoff_hz < reference.nyquist):
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, Nyquist={reference.nyquist})")
    n = len(generated)
    if n == 0:
        return Waveform(generated.samples.copy(), generated.sample_rate)
    gen_f = np.fft.rfft(generated.samples)
    ref_f = np.fft.rfft(reference.samples)
    freqs = np.fft.rfftfreq(n, d=1.0 / generated.sample_rate)
    low = freqs <= cutoff_hz
    out_f = np.where(low, ref_f, gen_f)
    return Waveform(np.fft.irfft(out_f, n=n), generated.sample_rate)
