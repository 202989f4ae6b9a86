"""Randomized block subsampling of the SNR statistic.

Draws K block starts uniformly without replacement, smooths each block on
its own local time grid, forms the per-block SNR from the fitted signal
power and the residual variance over a short secondary window, and exposes
the K values as an empirical distribution with quantile and confidence
interval accessors.  No step ever computes over the full series, so cost is
governed by the block length rather than the sample size.  A series over a
file is read only block by block through ``core.sample_reader``:
``estimate_blocks`` reads each block as it is fitted, so memory follows the
block length, not the sample size or K.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .core import CHUNK_SAMPLES, TimeSeries, empirical_quantile, sample_reader
from .simgen import derive_rng, derive_seed
from .smoother import (
    MIN_BLOCK_SAMPLES,
    BandwidthGrid,
    pow2_scaled,
    priestley_chao_fit,
    select_bandwidth,
)

__all__ = [
    "SubsampleConfig",
    "SubsampleEstimate",
    "SnrDistribution",
    "BlockSizeSelection",
    "ExcessiveSkipsError",
    "KTooLargeError",
    "default_b1",
    "admissible_starts",
    "draw_blocks",
    "cut_block",
    "block_estimate",
    "estimate_blocks",
    "estimate_snr_distribution",
    "confidence_interval",
    "select_block_size",
]

# at or below this fraction of the signal power the residual variance is
# treated as degenerate and the block is skipped (the dB statistic is
# undefined at 0); relative, so the floor does not depend on the input's scale
VARIANCE_FLOOR = 1e-12
SKIP_BUDGET = 0.10
MIN_B1 = 4  # the shortest secondary window, so its variance stays meaningful
MIN_CANDIDATES = 5  # the fewest block lengths select_block_size takes: 3 interior ones to score


class ExcessiveSkipsError(RuntimeError):
    """More than the tolerated share of blocks had degenerate noise variance."""

    def __init__(self, skipped: int, total: int):
        self.skipped = skipped
        self.total = total
        super().__init__(
            f"{skipped} of {total} blocks skipped (budget {SKIP_BUDGET:.0%}); "
            "quantiles would be biased by silent mass-skipping"
        )

    def __reduce__(self):  # pickle rebuilds from (skipped, total), not from the message
        return type(self), (self.skipped, self.total)


class KTooLargeError(ValueError):
    """More distinct blocks requested than a series has admissible starts."""


def default_b1(b: int) -> int:
    """Secondary window floor(b**(2/5)), floored at ``MIN_B1``."""
    return max(MIN_B1, int(math.floor(b ** 0.4 + 1e-9)))


@dataclass(frozen=True)
class SubsampleConfig:
    """Block-subsampling parameters.

    ``b`` is the primary block length in samples (at least
    ``MIN_BLOCK_SAMPLES`` so the smoother has a workable window), ``b1`` the
    secondary window for the noise variance (defaults to floor(b**(2/5)),
    never below ``MIN_B1``), ``k_blocks`` the number of random blocks, and ``seed``
    the master seed.  With ``shared_bandwidth`` the cross-validation runs
    once on the first drawn block and its bandwidth is reused everywhere;
    this is an approximation that trades the per-block adaptation for speed.
    """

    b: int
    k_blocks: int
    seed: int = 0
    b1: int | None = None
    grid: BandwidthGrid = field(default=BandwidthGrid())
    workers: int = 1
    shared_bandwidth: bool = False

    def __post_init__(self):
        if self.b < MIN_BLOCK_SAMPLES:
            raise ValueError(f"block length must be >= {MIN_BLOCK_SAMPLES} samples, got {self.b}")
        if self.k_blocks < 1:
            raise ValueError(f"k_blocks must be >= 1, got {self.k_blocks}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        b1 = default_b1(self.b) if self.b1 is None else int(self.b1)
        if not (MIN_B1 <= b1 < self.b):
            raise ValueError(f"need {MIN_B1} <= b1 < b, got b1={b1}, b={self.b}")
        object.__setattr__(self, "b1", b1)


@dataclass(frozen=True)
class SubsampleEstimate:
    """One block's statistics.

    ``start`` is the 1-based position of the first sample of the block;
    ``signal_power`` the mean squared fitted signal over the block;
    ``noise_variance`` the variance with divisor b1 of the residuals over
    the first b1 block points; ``snr_db`` their ratio in decibels (NaN when
    skipped).
    """

    start: int
    signal_power: float
    noise_variance: float
    snr_db: float
    h_hat: float
    skipped: bool = False


@dataclass(frozen=True)
class SnrDistribution:
    """Per-block results as columns in draw order, with quantile accessors.

    Row i of the columns is block i, as in ``SubsampleEstimate``; ``kept``
    is False where the block was skipped and its ``snr_db`` is NaN.
    """

    starts: np.ndarray
    signal_power: np.ndarray
    noise_variance: np.ndarray
    snr_db: np.ndarray
    h_hat: np.ndarray
    kept: np.ndarray
    config: SubsampleConfig

    @cached_property
    def snr_values(self) -> np.ndarray:
        """The retained SNR values in ascending order."""
        return np.sort(self.snr_db[self.kept])

    @property
    def estimates(self) -> tuple[SubsampleEstimate, ...]:
        """The rows as ``SubsampleEstimate`` objects, built on each access."""
        rows = zip(self.starts.tolist(), self.signal_power.tolist(),
                   self.noise_variance.tolist(), self.snr_db.tolist(),
                   self.h_hat.tolist(), (~self.kept).tolist())
        return tuple(SubsampleEstimate(*row) for row in rows)

    @property
    def skipped(self) -> int:
        return int(self.kept.size - np.count_nonzero(self.kept))

    @property
    def count(self) -> int:
        return int(self.snr_values.size)

    def quantile(self, gamma2: float) -> float:
        return empirical_quantile(self.snr_values, gamma2)


def admissible_starts(n: int, b: int, k: int = 1) -> int:
    """The n - b + 1 starts of a length-b block in n samples, checked to hold
    ``k`` distinct blocks (``KTooLargeError`` if they cannot)."""
    if b > n:
        raise ValueError(f"block length {b} exceeds series length {n}")
    if b < 1 or k < 1:
        raise ValueError(f"need b >= 1 and k >= 1, got b={b}, k={k}")
    n_starts = n - b + 1
    if k > n_starts:
        raise KTooLargeError(f"k={k} exceeds the {n_starts} admissible block starts")
    return n_starts


def draw_blocks(n: int, b: int, k: int, seed: int) -> np.ndarray:
    """K distinct block starts drawn uniformly from {1, ..., n-b+1}.

    Starts are 1-based sample positions, returned in draw order; the draw is
    a pure function of the seed.
    """
    n_starts = admissible_starts(n, b, k)
    rng = derive_rng(seed)
    return rng.choice(n_starts, size=k, replace=False).astype(np.int64) + 1


def _check_block(series: TimeSeries, start: int, b: int) -> None:
    if not (1 <= start <= start + b - 1 <= series.n):
        raise ValueError(f"block [{start}, {start + b - 1}] outside series of length {series.n}")


def cut_block(series: TimeSeries, start: int, b: int) -> np.ndarray:
    """The b samples of ``series`` from 1-based position ``start`` on; raises
    unless the block holds at least one sample and lies inside the series.

    An in-memory series gives a view.  A series over a file (see
    ``TimeSeries``) gives a new array, filled by one positioned read through
    a ``core.sample_reader`` opened for this block alone.
    """
    _check_block(series, start, b)
    with sample_reader(series.samples) as read:
        return read(start - 1, b)


def _block_values(block: np.ndarray, b1: int, grid: BandwidthGrid,
                  shared_h: float | None):
    """Per-block statistics from raw block samples.

    Returns (signal_power, noise_variance, snr_db, h_hat); snr_db is NaN
    when the block is skipped.  The powers are computed on
    ``pow2_scaled(block)`` and scaled back exactly, so the statistics do not
    depend on the input's scale.
    """
    block, e = pow2_scaled(block)
    if shared_h is None:
        fit = select_bandwidth(block, grid=grid)
        fitted, h = fit.fitted, fit.h_hat
    else:
        fitted, h = priestley_chao_fit(block, shared_h), shared_h
    u = float(fitted @ fitted) / fitted.size
    v = float(np.var(block[:b1] - fitted[:b1]))
    with np.errstate(over="ignore"):  # a power past the float range reads inf
        power, variance = np.ldexp([u, v], 2 * e).tolist()
    if not v > VARIANCE_FLOOR * u:
        return power, variance, math.nan, h
    return power, variance, 10.0 * math.log10(u / v), h


def call(fn, args: tuple):
    """fn(*args): runs (fn, args) jobs of different functions through one ``parallel_imap``."""
    return fn(*args)


def _call_chunk(fn, chunk: list[tuple]) -> list:
    """[fn(*args) for args in chunk]: one task of ``parallel_imap``'s pool."""
    return [fn(*args) for args in chunk]


_POOLS: dict = {}  # worker count -> ProcessPoolExecutor of an open ``_shared_pool``


@contextlib.contextmanager
def _shared_pool(workers: int):
    """Within the block, every ``parallel_imap`` over ``workers`` processes
    runs on one pool, started here unless an enclosing block already has one."""
    if workers <= 1 or workers in _POOLS:
        yield
        return
    # imported here, not at module load: about 20 ms that serial runs never need
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        _POOLS[workers] = pool
        try:
            yield
        finally:
            del _POOLS[workers]


def parallel_imap(fn, arg_tuples: Iterable[tuple], workers: int, chunk: int = 1) -> Iterator:
    """fn(*args) for each tuple of the iterable ``arg_tuples``, yielded lazily
    in input order, over ``workers`` processes if > 1.

    Serially each tuple is read just before its call.  A pool gets tasks of
    ``chunk`` tuples, and a task is read only once fewer than 2 * ``workers``
    are submitted and not yet collected, so at most that many are read ahead
    of the caller whatever the length of ``arg_tuples``.  Results never
    depend on the worker count; ``fn`` and its arguments must be picklable.
    No more processes start than there are calls.  Each tuple is passed
    whole, so tuples of different lengths work as they do serially.  If
    reading ``arg_tuples`` or a call raises, the tasks not yet started are
    cancelled, and the running ones waited for, before the exception reaches
    the caller.
    """
    args = iter(arg_tuples)
    head = list(itertools.islice(args, workers)) if workers > 1 else []
    if len(head) <= 1:
        for a in itertools.chain(head, args):
            yield fn(*a)
        return
    from concurrent.futures import wait
    workers = len(head)
    items = itertools.chain(head, args)
    with _shared_pool(workers):
        pool = _POOLS[workers]
        pending = collections.deque()
        try:
            for part in iter(lambda: list(itertools.islice(items, chunk)), []):
                pending.append(pool.submit(_call_chunk, fn, part))
                if len(pending) == 2 * workers:
                    yield from pending.popleft().result()
            while pending:
                yield from pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()
            wait(pending)


def block_estimate(series: TimeSeries, start: int, cfg: SubsampleConfig) -> SubsampleEstimate:
    """Estimate one block starting at 1-based position ``start``.

    The block is smoothed on its local grid (i - start + 1)/b with a
    CV-selected bandwidth; the residuals feeding the noise variance come from
    the first b1 points of the block.
    """
    return estimate_blocks(series, [start], cfg).estimates[0]


def estimate_blocks(series: TimeSeries, starts, cfg: SubsampleConfig) -> SnrDistribution:
    """Estimate the blocks at the 1-based ``starts``, in their order.

    Blocks run over ``cfg.workers`` processes; with ``cfg.shared_bandwidth``
    the bandwidth cross-validated on the first block serves every block.
    Each block is read as it is fitted, so the blocks held at once do not
    depend on K: a series over a file is read from one open
    ``core.sample_reader``, serially into one reused buffer, and over a pool
    in chunks of at most ``core.CHUNK_SAMPLES`` samples, at most 2 * workers
    chunks at a time.
    Every start is checked before any block is fitted.  No starts give
    empty columns.  No skip budget is applied.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size:  # every block lies inside if the first and the last do
        _check_block(series, int(starts.min()), cfg.b)
        _check_block(series, int(starts.max()), cfg.b)
    columns = np.empty((4, starts.size))
    with sample_reader(series.samples) as read:
        if cfg.workers == 1:  # each block is fitted before the next is read
            read = partial(read, out=np.empty(cfg.b))
        shared_h = (select_bandwidth(read(int(starts[0]) - 1, cfg.b), grid=cfg.grid).h_hat
                    if cfg.shared_bandwidth and starts.size else None)
        args = ((read(t - 1, cfg.b), cfg.b1, cfg.grid, shared_h) for t in starts.tolist())
        chunk = max(1, min(starts.size // (4 * cfg.workers), CHUNK_SAMPLES // cfg.b))
        for i, values in enumerate(parallel_imap(_block_values, args, cfg.workers, chunk)):
            columns[:, i] = values
    u, v, snr, h = columns
    return SnrDistribution(starts, u, v, snr, h, ~np.isnan(snr), cfg)


def estimate_snr_distribution(series: TimeSeries, cfg: SubsampleConfig) -> SnrDistribution:
    """Run the full randomized subsampling pass and collect the SNR values.

    Starts are drawn from the seeded generator before any parallel work, so
    the result is a pure function of (series, cfg) regardless of worker
    count.  Fails if more than 10% of blocks are skipped.
    """
    dist = estimate_blocks(series, draw_blocks(series.n, cfg.b, cfg.k_blocks, cfg.seed), cfg)
    if dist.skipped > SKIP_BUDGET * cfg.k_blocks:
        raise ExcessiveSkipsError(dist.skipped, cfg.k_blocks)
    return dist


def confidence_interval(dist: SnrDistribution, level: float) -> tuple[float, float]:
    """Equal-tailed interval [q(alpha/2), q(1 - alpha/2)] at coverage ``level``.

    The endpoints are raw empirical quantiles of the subsample SNR values;
    no centering statistic over the full series is involved.
    """
    if not (0.0 < level < 1.0):
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    if dist.count == 0:
        raise ValueError("confidence interval of an empty distribution")
    alpha = 1.0 - level
    return dist.quantile(alpha / 2.0), dist.quantile(1.0 - alpha / 2.0)


@dataclass(frozen=True)
class BlockSizeSelection:
    """Chosen block length plus the per-candidate quantile/volatility table."""

    chosen_b: int
    candidates: tuple[int, ...]
    q_low: tuple[float, ...]
    q_high: tuple[float, ...]
    volatility: tuple[float, ...]  # NaN at the two endpoints
    levels: tuple[float, float]


def select_block_size(series: TimeSeries, candidates, cfg_template: SubsampleConfig,
                      levels: tuple[float, float] = (0.05, 0.95)) -> BlockSizeSelection:
    """Pick the block length where the target quantiles are most stable.

    Runs the subsample estimation at every candidate b, on one process pool
    (``_shared_pool``) when ``cfg_template.workers`` > 1, computes the two
    target quantiles, and scores each interior candidate by the summed
    standard deviation of each quantile over the three-candidate window
    centered there.  Returns the interior candidate with minimal volatility,
    ties toward the smaller b.  The secondary window follows the default
    b1 rule at every candidate.
    """
    cand = [int(b) for b in candidates]
    if len(cand) < MIN_CANDIDATES:
        raise ValueError(f"need at least {MIN_CANDIDATES} candidate block lengths, got {len(cand)}")
    if any(b2 <= b1 for b1, b2 in zip(cand, cand[1:])):
        raise ValueError("candidate block lengths must be strictly increasing")
    if not 0.0 < levels[0] < levels[1] < 1.0:
        raise ValueError(f"levels must satisfy 0 < low < high < 1, got {tuple(levels)}")
    admissible_starts(series.n, cand[-1], cfg_template.k_blocks)

    q_low, q_high = [], []
    with _shared_pool(cfg_template.workers):
        for b in cand:
            cfg = replace(cfg_template, b=b, seed=derive_seed(cfg_template.seed, b), b1=None)
            dist = estimate_snr_distribution(series, cfg)
            q_low.append(dist.quantile(levels[0]))
            q_high.append(dist.quantile(levels[1]))

    vol = [math.nan] * len(cand)
    for j in range(1, len(cand) - 1):
        vol[j] = float(np.std(q_low[j - 1:j + 2], ddof=1)
                       + np.std(q_high[j - 1:j + 2], ddof=1))
    interior = vol[1:-1]
    chosen = cand[1 + int(np.argmin(interior))]
    return BlockSizeSelection(
        chosen_b=chosen,
        candidates=tuple(cand),
        q_low=tuple(q_low),
        q_high=tuple(q_high),
        volatility=tuple(vol),
        levels=(float(levels[0]), float(levels[1])),
    )
