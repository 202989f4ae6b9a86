"""Domain types and scalar math shared by every other module.

Decibel conversion, signal power, the dependence-regime scaling sequences
that set bandwidth ranges and convergence rates, the lower-order-statistic
empirical quantile, and reads of a series' samples from the file it maps.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeSeries",
    "DependenceRegime",
    "SRD",
    "lrd",
    "snr_db",
    "lambda_n",
    "tau_n",
    "empirical_quantile",
    "signal_power",
    "mapped_file",
    "sample_reader",
]

# float64 samples (2 MB) any chunked loop holds at once, whatever n or K is;
# every such loop gives the same result at any chunk size.  CV batches of
# 2**16 samples were slower per block at b = 44100 (BENCH_15.json)
CHUNK_SAMPLES = 1 << 18


def mapped_file(samples) -> tuple[str, int] | None:
    """(path, byte offset) of ``samples`` if it is a 1-D float64 ``np.memmap``
    as ``np.memmap`` returns it, else None.  A view or copy of one does not
    count: only the array made over the file knows where it starts."""
    if (isinstance(samples, np.memmap) and isinstance(samples.base, mmap.mmap)
            and samples.filename is not None and samples.dtype == np.float64
            and samples.ndim == 1):
        return os.fspath(samples.filename), samples.offset
    return None


@contextlib.contextmanager
def sample_reader(samples: np.ndarray):
    """Yields ``read(i, m, out=None)``: the m samples from 0-based position i.

    For a file-backed ``samples`` (``mapped_file``) each call is one
    positioned read from the file, opened here once, into ``out`` or a new
    array; the mapping itself is never touched, so no page of the file
    becomes resident in the process.  Otherwise ``read`` returns a view.
    """
    source = mapped_file(samples)
    if source is None:
        yield lambda i, m, out=None: samples[i:i + m]
        return
    path, offset = source
    with open(path, "rb") as f:
        def read(i: int, m: int, out: np.ndarray | None = None) -> np.ndarray:
            out = np.empty(m) if out is None else out[:m]
            got = os.preadv(f.fileno(), [out], offset + 8 * i)
            if got != out.nbytes:
                raise OSError(f"{path}: {got} of {out.nbytes} bytes read at sample {i}; "
                              "the file changed while it was in use")
            return out
        yield read


def _all_finite(samples: np.ndarray) -> bool:
    """Whether every sample is finite, read CHUNK_SAMPLES at a time into one
    buffer, so that the check holds one chunk however long the series."""
    buf = np.empty(min(CHUNK_SAMPLES, samples.size))
    with sample_reader(samples) as read:
        return all(np.isfinite(read(i, min(CHUNK_SAMPLES, samples.size - i), buf)).all()
                   for i in range(0, samples.size, CHUNK_SAMPLES))


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued signal.

    ``samples`` are dimensionless amplitudes observed at a fixed rate of
    ``sample_rate_hz``.  For estimation the sample positions are treated as
    the logical times i/n on the unit interval, so all bandwidths and block
    statistics are independent of the physical rate; the rate is kept for
    unit conversions (ms <-> samples) and file I/O.

    A float64 ``np.memmap`` over a file (``mapped_file``; ``cli.read_input``
    gives one for raw input) is kept mapped and never read whole: the
    finiteness check reads it ``CHUNK_SAMPLES`` at a time, and the block fits
    a block at a time, both through ``sample_reader``.  The file must not
    change while the series is in use.  Any other ``samples`` is taken as
    ``np.ascontiguousarray(samples, np.float64)``, so a memmap of another
    dtype is copied into memory.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = (self.samples if mapped_file(self.samples)
               else np.ascontiguousarray(self.samples, dtype=np.float64))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not _all_finite(arr):
            raise ValueError("samples contain non-finite values")
        if not (self.sample_rate_hz > 0 and math.isfinite(self.sample_rate_hz)):
            raise ValueError(f"sample_rate_hz must be positive and finite, "
                             f"got {self.sample_rate_hz}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.n / self.sample_rate_hz


@dataclass(frozen=True)
class DependenceRegime:
    """Declared dependence structure of the noise: short- or long-range.

    Regimes are declared by the caller, never estimated from data.  For the
    long-range case ``gamma1`` in (0, 1] controls how slowly correlations
    decay (smaller = longer memory); it drives :func:`lambda_n` and
    :func:`tau_n`.
    """

    kind: str  # "srd" | "lrd"
    gamma1: float | None = field(default=None)

    def __post_init__(self):
        if self.kind not in ("srd", "lrd"):
            raise ValueError(f"kind must be 'srd' or 'lrd', got {self.kind!r}")
        if self.kind == "lrd":
            if self.gamma1 is None or not (0.0 < self.gamma1 <= 1.0):
                raise ValueError(f"lrd regime needs gamma1 in (0, 1], got {self.gamma1}")
        elif self.gamma1 is not None:
            raise ValueError("srd regime takes no gamma1")


SRD = DependenceRegime("srd")


def lrd(gamma1: float) -> DependenceRegime:
    """Long-range-dependent regime with decay exponent ``gamma1``."""
    return DependenceRegime("lrd", float(gamma1))


def snr_db(p_signal: float, p_noise: float) -> float:
    """Signal-to-noise ratio 10*log10(p_signal/p_noise) in decibels.

    Both powers must be strictly positive.
    """
    if not (p_signal > 0) or not (p_noise > 0):
        raise ValueError(f"powers must be positive, got ({p_signal}, {p_noise})")
    return 10.0 * math.log10(p_signal / p_noise)


def lambda_n(n: float, regime: DependenceRegime) -> float:
    """Effective sample size governing the optimal bandwidth scale.

    Returns n under short-range dependence, n/log(n) for long-range
    dependence with gamma1 = 1, and n**gamma1 for 0 < gamma1 < 1.  The
    optimal bandwidth shrinks like ``lambda_n(n, regime) ** (-1/5)``.
    """
    if not (n >= 2):
        raise ValueError(f"n must be >= 2, got {n}")
    if regime.kind == "srd":
        return float(n)
    if regime.gamma1 == 1.0:
        return n / math.log(n)
    return float(n) ** regime.gamma1


def tau_n(n: float, regime: DependenceRegime) -> float:
    """Convergence-rate sequence of the centered variance/SNR statistics.

    sqrt(n) under short-range dependence and for long-range dependence with
    gamma1 > 1/2; (n/log n)**(1/2) exactly at gamma1 = 1/2; n**gamma1 below
    it.  Branches dispatch on exact comparison of the declared gamma1.
    """
    if not (n >= 2):
        raise ValueError(f"n must be >= 2, got {n}")
    if regime.kind == "srd" or regime.gamma1 > 0.5:
        return math.sqrt(n)
    if regime.gamma1 == 0.5:
        return math.sqrt(n / math.log(n))
    return float(n) ** regime.gamma1


def empirical_quantile(values, gamma2: float) -> float:
    """Lower-order-statistic empirical quantile.

    Returns inf{x in values : F_hat(x) >= gamma2}, i.e. the
    ceil(gamma2 * K)-th order statistic of the K values.  No interpolation;
    the result is always a member of the input.
    """
    if not (0.0 < gamma2 < 1.0):
        raise ValueError(f"quantile level must lie in (0, 1), got {gamma2}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empirical_quantile of empty collection")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values contain non-finite entries")
    srt = np.sort(arr)
    # first rank i/K (1-based) reaching gamma2, compared in float like the
    # inf-definition itself
    ranks = np.arange(1, srt.size + 1) / srt.size
    idx = int(np.searchsorted(ranks, gamma2, side="left"))
    return float(srt[min(idx, srt.size - 1)])


def signal_power(signal_values) -> float:
    """Mean squared value, the discrete average power on the unit interval."""
    arr = np.asarray(signal_values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("signal_power of empty sequence")
    return float(np.mean(arr * arr))
