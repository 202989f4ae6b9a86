"""Synthetic designs: a sinusoid plus AR(1) or 1/f**beta noise at exact SNR.

All generators are pure functions of their parameters and a seed; replica
streams are derived from a master seed by a counter-based key so they are
independent and insensitive to evaluation order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .core import TimeSeries

__all__ = [
    "SignalSpec",
    "NoiseSpec",
    "sample_count",
    "derive_seed",
    "derive_rng",
    "calibrate_amplitude",
    "gen_sine",
    "gen_ar1",
    "gen_powerlaw",
    "gen_design",
    "DESIGNS",
    "design_noise",
]

AR1_BURN_IN = 1000
SIGNAL_FREQ_HZ = 50.0
_IRFFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"  # np.fft.irfft takes out=


def derive_seed(master: int, *key: int) -> int:
    """64-bit stream seed derived from a master seed and an integer key path."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def derive_rng(master: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (master, *key)."""
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key)))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return derive_rng(int(seed))


def sample_count(duration_s: float, rate_hz: float) -> int:
    """Samples in ``duration_s`` seconds at ``rate_hz``: their product, which
    must be a positive integer to within 1e-6, so no length is rounded silently."""
    nf = duration_s * rate_hz
    if not (math.isfinite(nf) and nf >= 1 and abs(nf - round(nf)) < 1e-6):
        raise ValueError(f"duration*rate must be a positive integer, got {nf}")
    return int(round(nf))


@dataclass(frozen=True)
class SignalSpec:
    """Deterministic sinusoid: amplitude, frequency, rate, and duration."""

    amplitude: float
    frequency_hz: float
    sample_rate_hz: float
    duration_s: float

    def __post_init__(self):
        if not (0 < self.frequency_hz < self.sample_rate_hz / 2):
            raise ValueError(
                f"frequency {self.frequency_hz} Hz violates Nyquist at rate {self.sample_rate_hz} Hz"
            )
        sample_count(self.duration_s, self.sample_rate_hz)

    @property
    def n(self) -> int:
        return sample_count(self.duration_s, self.sample_rate_hz)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise process with a target stationary variance.

    ``kind`` is one of 'white', 'ar1' (coefficient ``phi``) or 'powerlaw'
    (spectral exponent ``beta``).  White and AR(1) accept variance 0 as the
    noiseless degenerate case; the power-law synthesis rescales to an exact
    sample variance, so it needs a positive target.
    """

    kind: str
    variance: float = 1.0
    phi: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("white", "ar1", "powerlaw"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.variance < 0 or (self.kind == "powerlaw" and self.variance == 0):
            raise ValueError(f"invalid variance {self.variance} for {self.kind} noise")
        if self.kind == "ar1" and not abs(self.phi) < 1:
            raise ValueError(f"ar1 coefficient must satisfy |phi| < 1, got {self.phi}")
        if self.kind == "powerlaw" and not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"spectral exponent must lie in [0, 1], got {self.beta}")

    @classmethod
    def white(cls, variance: float) -> "NoiseSpec":
        return cls("white", variance)

    @classmethod
    def ar1(cls, phi: float, variance: float) -> "NoiseSpec":
        return cls("ar1", variance, phi=phi)

    @classmethod
    def powerlaw(cls, beta: float, variance: float) -> "NoiseSpec":
        return cls("powerlaw", variance, beta=beta)

    @property
    def ar1_innovation_sd(self) -> float:
        if self.kind != "ar1":
            raise ValueError("innovation sd only defined for ar1 noise")
        return math.sqrt(self.variance * (1.0 - self.phi * self.phi))

    def sample(self, n: int, seed) -> np.ndarray:
        rng = _as_rng(seed)
        if self.kind == "white":
            return rng.normal(0.0, math.sqrt(self.variance), size=n)
        if self.kind == "ar1":
            return gen_ar1(self.phi, self.variance, n, rng)
        return gen_powerlaw(self.beta, self.variance, n, rng)

    def sample_rows(self, rows: int, n: int, seed) -> np.ndarray:
        """(rows, n) array whose rows equal ``rows`` consecutive ``sample(n, rng)``
        calls on one generator, bit for bit: ``slabs`` with one slab."""
        slab = next(self.slabs(rows, n, max(rows, 1), seed), np.empty((0, n)))
        return np.ascontiguousarray(slab)  # an AR(1) slab is a strided view

    def slabs(self, count: int, n: int, slab: int, seed) -> Iterator[np.ndarray]:
        """The rows of ``sample_rows(count, n, seed)``, ``slab`` rows at a time.

        Each slab is a (rows, n) view of one work buffer, allocated once and
        overwritten when the iteration resumes, so copy what must outlive it.
        Its rows are contiguous, but an AR(1) slab is not.
        """
        rng = _as_rng(seed)
        if self.kind == "white":
            return _white_slabs(math.sqrt(self.variance), count, n, slab, rng)
        if self.kind == "ar1":
            return _ar1_slabs(self.phi, self.variance, count, n, slab, rng)
        return _powerlaw_slabs(self.beta, self.variance, count, n, slab, rng)

    def describe(self) -> dict:
        """Kind, variance and the kind's own parameter, as a manifest records them."""
        out = {"kind": self.kind, "variance": self.variance}
        if self.kind == "ar1":
            out["phi"] = self.phi
        elif self.kind == "powerlaw":
            out["beta"] = self.beta
        return out


# The noise of each synthetic design at unit variance: 'ar' is AR(1) with
# phi = -0.7 (short-range dependence); 'p1' and 'p2' are 1/f**beta noise with
# beta = 0.2 and 0.6 (moderate and strong long-range dependence).
DESIGNS = {
    "ar": NoiseSpec.ar1(-0.7, 1.0),
    "p1": NoiseSpec.powerlaw(0.2, 1.0),
    "p2": NoiseSpec.powerlaw(0.6, 1.0),
}


def design_noise(design: str, variance: float) -> NoiseSpec:
    """The noise process of ``design`` at the given stationary variance."""
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {sorted(DESIGNS)}")
    return replace(DESIGNS[design], variance=variance)


def calibrate_amplitude(target_snr_db: float, noise_variance: float) -> float:
    """Sine amplitude whose power A**2/2 hits the target SNR over the noise;
    an SNR with no positive finite amplitude fails here, before any draw."""
    if not noise_variance > 0:
        raise ValueError(f"noise variance must be positive, got {noise_variance}")
    try:
        amp = math.sqrt(2.0 * noise_variance * 10.0 ** (target_snr_db / 10.0))
    except OverflowError:  # 10.0 ** x above the float range
        amp = math.inf
    if not 0.0 < amp < math.inf:
        raise ValueError(f"SNR {target_snr_db} dB gives no positive finite amplitude, got {amp}")
    return amp


def gen_sine(spec: SignalSpec) -> TimeSeries:
    """Sampled sinusoid A*sin(2*pi*f*t) at t = (i-1)/rate, i = 1..n."""
    return TimeSeries(_sine_samples(spec), spec.sample_rate_hz)


def _sine_samples(spec: SignalSpec) -> np.ndarray:
    """The samples of ``gen_sine``, computed in place on one array with the
    bits of ``A * sin(2*pi*f * (arange(n) / rate))``."""
    x = np.arange(spec.n, dtype=np.float64)
    x /= spec.sample_rate_hz
    x *= 2.0 * np.pi * spec.frequency_hz
    np.sin(x, out=x)
    x *= spec.amplitude
    return x


def gen_ar1(phi: float, target_variance: float, n: int, seed) -> np.ndarray:
    """Gaussian AR(1) with stationary variance ``target_variance``.

    The innovation sd is sqrt(target_variance * (1 - phi**2)); a 1000-sample
    burn-in is generated and discarded to wash out the zero initial state.
    x_t = u_t + phi * x_{t-1} runs as ``_ar1_scan``, bit-identical to
    ``scipy.signal.lfilter([1], [1, -phi], u)``.
    """
    if not abs(phi) < 1:
        raise ValueError(f"|phi| must be < 1, got {phi}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = _as_rng(seed)
    sd = math.sqrt(target_variance * (1.0 - phi * phi))
    return _ar1_scan(rng.normal(0.0, sd, size=n + AR1_BURN_IN), phi)[AR1_BURN_IN:]


def _ar1_steps(x: np.ndarray, phi: float) -> None:
    """x[t] += phi * x[t-1] along axis 0, in place, from a zero state; each
    step rounds the product and then the sum, as lfilter does."""
    y = np.zeros(x.shape[1:])
    for xt in x:
        xt += phi * y
        y = xt


def _ar1_warmup(phi: float) -> int:
    """Warm-up steps after which a chunk has forgotten its zero start:
    |phi|**steps < 2**-80."""
    return 1 if phi == 0 else math.ceil(-80.0 / math.log2(abs(phi)))


def _ar1_chunk_length(size: int, warmup: int) -> int:
    """2*sqrt(size) balances the loop's steps against the chunks per step; at
    least the warm-up, so the warm-up at most doubles the work."""
    return max(2 * math.isqrt(size), warmup)


def _ar1_scan(u: np.ndarray, phi: float) -> np.ndarray:
    """The AR(1) recursion of ``u``, in place, bit-identical to the sequential one.

    Row c of the chunk matrix holds u[c*length - warmup:(c + 1)*length], zero
    before u starts, and runs from a zero state; all rows step together in
    one ``_ar1_steps`` loop over the time-major view.  Row 0 starts at the
    true zero state and the recursion is deterministic, so when every row
    equals its predecessor at its last warm-up step, every row is exact;
    otherwise the warm-up doubles and the scan reruns.  One chunk is the
    sequential recursion itself.
    """
    warmup = _ar1_warmup(phi)
    while True:
        length = _ar1_chunk_length(u.size, warmup)
        if length >= u.size:
            _ar1_steps(u[:, None], phi)
            return u
        m = np.zeros((-(-u.size // length), warmup + length))
        for c, row in enumerate(m):
            seg = u[max(c * length - warmup, 0):(c + 1) * length]
            row[max(warmup - c * length, 0):][:seg.size] = seg
        _ar1_steps(m.T, phi)
        if np.array_equal(m[1:, warmup - 1], m[:-1, -1], equal_nan=True):
            for c, row in enumerate(m):
                out = u[c * length:(c + 1) * length]
                out[:] = row[warmup:warmup + out.size]
            return u
        warmup *= 2


def gen_powerlaw(beta: float, target_variance: float, n: int, seed) -> np.ndarray:
    """Colored noise whose expected periodogram follows f**(-beta).

    Spectral synthesis: for each positive frequency bin draw real and
    imaginary parts as Normal(0, P(f_k)/2) with P proportional to k**(-beta),
    force the Nyquist bin real, zero the DC bin, and invert.  The result is
    recentered and rescaled so the sample variance equals the target exactly,
    making the realized noise power a constant of the design.
    """
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return next(_powerlaw_slabs(beta, target_variance, 1, n, 1, _as_rng(seed)))[0]


def _normal_into(rng: np.random.Generator, sd: float, out: np.ndarray) -> None:
    """Fill ``out`` with the bits of ``rng.normal(0.0, sd, out.shape)``:
    numpy draws that as 0.0 + sd * z from the stream ``standard_normal``
    draws, so the same sum, -0.0 turned to 0.0 included, is made in place."""
    rng.standard_normal(out=out)
    out *= sd
    out += 0.0


def _white_slabs(sd: float, count: int, n: int, slab: int,
                 rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``count`` rows of Normal(0, sd**2) noise, ``slab`` rows at a time."""
    x = np.empty((min(slab, count), n))
    for lo in range(0, count, slab):
        rows = x[:min(slab, count - lo)]
        _normal_into(rng, sd, rows)
        yield rows


def _powerlaw_slabs(beta: float, target_variance: float, count: int, n: int, slab: int,
                    rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``count`` consecutive ``gen_powerlaw`` series from one generator, bit
    for bit, ``slab`` rows at a time.

    A slab is a (rows, n) view of one series buffer, whose flat prefix first
    holds the slab's normals: one (rows, 2, n//2) draw, the stream of ``rows``
    draws of (2, n//2).  The coefficients are built from them and the inverse
    FFT overwrites them; it and the row-wise mean and scaling round as the
    one-row calls do.  Each row's sum of squares stays its own dot product,
    since a row-wise einsum rounds differently.
    """
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")
    nf = n // 2 + 1
    scale = np.arange(1, nf, dtype=np.float64)
    scale **= -beta  # the spectrum p = k**(-beta), then sqrt(0.5 * p), in place
    nyquist = np.sqrt(scale[-1])
    scale *= 0.5
    np.sqrt(scale, out=scale)
    first = min(slab, count)
    x = np.empty((first, n))
    coef = np.zeros((first, nf), dtype=np.complex128)
    for lo in range(0, count, slab):
        rows = min(slab, count - lo)
        g = x.reshape(-1)[:rows * 2 * (nf - 1)].reshape(rows, 2, nf - 1)
        _normal_into(rng, 1.0, g)
        # the real and imaginary parts written in place: the same bits as
        # scale * (g0 + 1j * g1), without its three complex temporaries
        np.multiply(scale, g[:, 0], out=coef.real[:rows, 1:])
        np.multiply(scale, g[:, 1], out=coef.imag[:rows, 1:])
        if n % 2 == 0:
            coef[:rows, -1] = nyquist * g[:, 0, -1]
        if lo + rows == count:
            del scale  # a single series does not hold it through the inverse FFT
        xs = _irfft_rows(coef[:rows], n, x[:rows])
        xs -= xs.mean(axis=1, keepdims=True)
        for r in xs:
            r *= math.sqrt(target_variance * n / float(r @ r))
        yield xs


def _irfft_rows(coef: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """``np.fft.irfft(coef, n, axis=-1)`` written into ``out``: in place from
    NumPy 2.0, which added the argument, and copied on NumPy 1.x."""
    if _IRFFT_OUT:
        return np.fft.irfft(coef, n, axis=-1, out=out)
    out[...] = np.fft.irfft(coef, n, axis=-1)
    return out


def _ar1_slabs(phi: float, target_variance: float, count: int, n: int, slab: int,
               rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``count`` consecutive ``gen_ar1`` series from one generator, bit for
    bit, ``slab`` rows at a time.

    A slab is the (rows, n) view past the burn-in of one buffer of innovations,
    turned into the series in place by one ``_ar1_steps`` loop over its columns.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sd = math.sqrt(target_variance * (1.0 - phi * phi))
    u = np.empty((min(slab, count), n + AR1_BURN_IN))
    for lo in range(0, count, slab):
        ur = u[:min(slab, count - lo)]
        _normal_into(rng, sd, ur)
        _ar1_steps(ur.T, phi)
        yield ur[:, AR1_BURN_IN:]


def gen_design(design: str, target_snr_db: float, fs_hz: float, duration_s: float,
               seed, noise_variance: float = 1.0) -> TimeSeries:
    """Sine at 50 Hz plus the noise of ``design`` (a key of ``DESIGNS``),
    calibrated to the exact target SNR.

    The sine amplitude is tuned against the noise target variance, so the
    true SNR is a constant of the construction.  The sine is added into the
    noise array in place.
    """
    amp = calibrate_amplitude(target_snr_db, noise_variance)
    noise = design_noise(design, noise_variance)
    spec = SignalSpec(amp, SIGNAL_FREQ_HZ, fs_hz, duration_s)
    samples = noise.sample(spec.n, seed)
    samples += _sine_samples(spec)
    return TimeSeries(samples, fs_hz)
