"""Monte Carlo experiment driver for the synthetic designs.

Reproduces, at desk scale, the evaluation summaries for the subsampled SNR
method: the mean squared error of each block's estimated signal power against
that block's true signal power (or the series power A**2/2), per block length;
oracle quantiles of the per-block SNR statistic with known signal and noise;
and the absolute deviation of estimated quantiles from the oracle.  Replicas
own derived seed streams keyed by replica index, so execution order and
scheduling never change a reported number.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import CHUNK_SAMPLES, DependenceRegime, TimeSeries, empirical_quantile
from .simgen import (
    AR1_BURN_IN,
    SIGNAL_FREQ_HZ,
    SignalSpec,
    calibrate_amplitude,
    derive_rng,
    derive_seed,
    design_noise,
    gen_design,
    sample_count,
)
from .smoother import select_bandwidth
from .subsample import (
    ExcessiveSkipsError,
    SnrDistribution,
    SubsampleConfig,
    admissible_starts,
    default_b1,
    estimate_blocks,
    call,
    estimate_snr_distribution,
    parallel_imap,
)

__all__ = [
    "ExperimentSpec",
    "McCell",
    "McReport",
    "mse_signal_power",
    "mc_reports",
    "mise_probe",
    "oracle_draws",
    "oracle_quantiles",
    "quantile_mae",
    "exhaustive_subsample_check",
    "ExhaustiveComparison",
    "replica_distribution",
    "ks_distance",
]

# seed stream tags: master seed splits into (tag, ...) keyed streams
_STREAM_SERIES = 0
_STREAM_BLOCKS = 1
_STREAM_ORACLE = 2

ORACLE_NOISE_LEN = 4096  # synthesis length from which oracle noise windows are cut
MSE_TARGETS = ("block", "global")
SCHEMA_VERSION = 1  # of every JSON object the package writes: reports and CLI errors
ORACLE_REPLICAS = 4000  # default oracle draws; like ExperimentSpec's field defaults, also the CLI's


def dump_json(payload: dict) -> str:
    """Canonical JSON text of ``payload`` with its ``schema_version``: sorted
    keys, compact separators, one newline; a NaN or infinity raises ValueError."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **payload},
                      sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def dump_csv(header, rows) -> str:
    """Canonical CSV text: the header, then one line per row, one newline at
    the end.  A float cell is ``repr(float(v))``, None an empty cell, and any
    other value ``str(v)``."""
    return "".join(",".join("" if v is None else repr(float(v)) if isinstance(v, float)
                            else str(v) for v in row) + "\n" for row in (header, *rows))


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo experiment cell family.

    Desk-scale defaults: 3 s at 44.1 kHz (n = 132,300), 100 replicas, K = 200
    blocks, block lengths 10 ms and 15 ms in samples.  The run shape (the
    50 Hz sine against the rate, n, and each block length against n and K)
    is checked here, before any work.
    """

    design: str
    true_snr_db: float
    fs_hz: float = 44100.0
    duration_s: float = 3.0
    block_lengths: tuple[int, ...] = (441, 662)
    k_blocks: int = 200
    replicas: int = 100
    seed: int = 0
    levels: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        lv = tuple(float(g) for g in self.levels)
        if any(not (0.0 < g < 1.0) for g in lv) or any(a >= b for a, b in zip(lv, lv[1:])):
            raise ValueError(f"levels must be strictly increasing in (0, 1), got {lv}")
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "true_snr_db", float(self.true_snr_db))
        bs = tuple(int(b) for b in self.block_lengths)
        if len(set(bs)) < len(bs):
            raise ValueError(f"block lengths must be distinct, got {bs}")
        # a finite sine amplitude, below Nyquist at fs_hz, over a whole number of samples
        n = SignalSpec(calibrate_amplitude(self.true_snr_db, self.noise_variance),
                       SIGNAL_FREQ_HZ, self.fs_hz, self.duration_s).n
        for b in bs:
            SubsampleConfig(b=b, k_blocks=self.k_blocks)  # its own checks of b and k_blocks
            admissible_starts(n, b, self.k_blocks)
        object.__setattr__(self, "block_lengths", bs)


@dataclass(frozen=True)
class McCell:
    """One reported cell: a metric at (design, snr, b[, level])."""

    design: str
    true_snr_db: float
    b: int
    metric: str
    level: float | None
    mean: float | None
    se: float | None
    replicas: int
    failures: int = 0
    values: tuple[float, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class McReport:
    """Cells plus an echo of the producing experiment spec."""

    spec: ExperimentSpec
    cells: tuple[McCell, ...]

    @property
    def payload(self) -> dict:
        """The report as a JSON object; cells leave out their per-replica values."""
        return {
            "schema_version": SCHEMA_VERSION,
            "spec": asdict(self.spec),
            "cells": [
                {k: v for k, v in asdict(c).items() if k != "values"}
                for c in self.cells
            ],
        }

    def to_json(self) -> str:
        return dump_json(self.payload)

    def to_csv(self) -> str:
        return dump_csv(
            ("design", "snr_db", "b", "metric", "level", "mean", "se", "replicas", "failures"),
            ((c.design, c.true_snr_db, c.b, c.metric, c.level, c.mean, c.se, c.replicas,
              c.failures) for c in self.cells))


def _replica_series(spec: ExperimentSpec, r: int) -> TimeSeries:
    return gen_design(spec.design, spec.true_snr_db, spec.fs_hz, spec.duration_s,
                      derive_seed(spec.seed, _STREAM_SERIES, r), spec.noise_variance)


def _replica_config(spec: ExperimentSpec, r: int, b: int) -> SubsampleConfig:
    return SubsampleConfig(b=b, k_blocks=spec.k_blocks,
                           seed=derive_seed(spec.seed, _STREAM_BLOCKS, r, b))


def replica_distribution(spec: ExperimentSpec, b: int, replica: int) -> SnrDistribution:
    """Subsample SNR distribution for one replica at block length b."""
    series = _replica_series(spec, replica)
    return estimate_snr_distribution(series, _replica_config(spec, replica, b))


def _true_block_power(amp: float, starts: np.ndarray, b: int, fs_hz: float) -> np.ndarray:
    """True signal power mean(s**2) over each block of the design sine.

    ``starts`` is an integer array of 1-based block starts.  Sample i of the
    sine is amp * sin(2*pi*50 * (i - 1) / fs), multiplied before it is
    divided, where ``simgen.gen_sine`` divides first: the two round
    differently, and 48,034 of the 132,300 samples of a 3 s unit sine differ
    in their last bits.  Do not merge them into one helper, which would move
    every MSE and oracle value.  A block spanning a whole number of periods
    of sin**2 has power A**2/2 at every start; any other block length has a
    power that depends on the phase at which the block starts.

    The expression is evaluated in place, on one buffer of about
    ``core.CHUNK_SAMPLES`` samples, a chunk of whole blocks at a time.
    """
    offsets = np.arange(b)
    rows = max(1, CHUNK_SAMPLES // b)
    buf = np.empty((min(rows, starts.size), b))
    out = np.empty(starts.size)
    for lo in range(0, starts.size, rows):
        s = buf[:min(rows, starts.size - lo)]
        np.add(starts[lo:lo + rows, None] - 1, offsets, out=s)
        s *= 2.0 * np.pi * SIGNAL_FREQ_HZ
        s /= fs_hz
        np.sin(s, out=s)
        s *= amp
        np.square(s, out=s)
        np.mean(s, axis=1, out=out[lo:lo + s.shape[0]])
    return out


def _replica(spec: ExperimentSpec, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, failed) for replica r, estimated once per block length.

    Row j, for the j-th block length, holds the signal-power MSE against each
    of MSE_TARGETS, then the quantile at each spec level.  ``failed[j]`` marks
    a block length where estimation aborts on excessive skips; its row is 0.
    """
    series = _replica_series(spec, r)
    amp = calibrate_amplitude(spec.true_snr_db, spec.noise_variance)
    rows = np.zeros((len(spec.block_lengths), len(MSE_TARGETS) + len(spec.levels)))
    failed = np.zeros(len(spec.block_lengths), dtype=bool)
    for j, b in enumerate(spec.block_lengths):
        try:
            dist = estimate_snr_distribution(series, _replica_config(spec, r, b))
        except ExcessiveSkipsError:
            failed[j] = True
            continue
        power = dist.signal_power[dist.kept]
        truth = {
            "block": _true_block_power(amp, dist.starts[dist.kept], b, spec.fs_hz),
            "global": amp ** 2 / 2.0,
        }
        with np.errstate(over="ignore"):  # an error too large to square gives an inf MSE
            errs = [power - truth[name] for name in MSE_TARGETS]
            rows[j] = [e @ e / e.size for e in errs] + [dist.quantile(g) for g in spec.levels]
    return rows, failed


def _oracle(spec: ExperimentSpec, b: int, oracle_replicas: int) -> dict[float, float]:
    """Oracle quantiles at block length b, on b's own derived seed stream."""
    return oracle_quantiles(spec.design, spec.true_snr_db, b, None, spec.levels,
                            oracle_replicas, derive_seed(spec.seed, _STREAM_ORACLE, b),
                            spec.fs_hz, spec.duration_s, spec.noise_variance)


def _run_replicas(spec: ExperimentSpec, workers: int, oracle_replicas: int = 0
                  ) -> tuple[np.ndarray, np.ndarray, dict[int, dict]]:
    """(values, failed, ``_oracle`` per block length when ``oracle_replicas``
    >= 1): ``values[r, j]`` and ``failed[r, j]`` are ``_replica``'s row and
    failure mark for replica r at the j-th block length.

    Replicas and oracles run as jobs of one pool, oracles first, since each
    takes about as long as several replicas.  Every job draws from its own
    derived seed stream, so no result depends on the worker count.
    """
    oracle_b = spec.block_lengths if oracle_replicas >= 1 else ()
    jobs = [(_oracle, (spec, b, oracle_replicas)) for b in oracle_b]
    jobs += [(_replica, (spec, r)) for r in range(spec.replicas)]
    out = list(parallel_imap(call, jobs, workers))
    values, failed = (np.stack(col) for col in zip(*out[len(oracle_b):]))
    return values, failed, dict(zip(oracle_b, out))


def _report(spec: ExperimentSpec, metric: str, scores: np.ndarray, failed: np.ndarray,
            levels=(None,)) -> McReport:
    """One cell per block length and level: the mean and se of ``scores[:, j, i]``
    over the replicas not ``failed[:, j]``, summed in replica order; an infinite
    score gives an infinite mean and a NaN se, which ``dump_json`` refuses."""
    cells = []
    for j, b in enumerate(spec.block_lengths):
        for i, level in enumerate(levels):
            vals = scores[~failed[:, j], j, i]
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(vals.sum() / vals.size) if vals.size else None
                se = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else None
            cells.append(McCell(spec.design, spec.true_snr_db, b, metric, level, mean, se,
                                spec.replicas, int(failed[:, j].sum()), tuple(vals.tolist())))
    return McReport(spec, tuple(cells))


def mse_signal_power(spec: ExperimentSpec, workers: int = 1,
                     target: str = "block") -> McReport:
    """Monte Carlo MSE of the per-block signal power.

    The paper summary (PAPER.md) defines each block's statistic as

        SNR_block = 10 * log10( mean(fitted_signal^2)  /
                                variance(residuals over the first b1 points) )

    so a block's signal power mean(fitted_signal^2) averages over that
    block's own samples and estimates mean(s**2) of the noiseless sine over
    the same samples, the truth ``oracle_quantiles`` uses for the statistic
    with known signal.  ``target="block"`` (the default, metric
    ``mse_signal_power``) scores each block against that value.
    ``target="global"`` (metric ``mse_signal_power_global``) scores against
    the series power A**2/2.  The two agree for a block covering a whole
    number of periods of sin**2; for any other block length the global
    target adds the phase variation of the true block power, which no
    estimator can remove.

    Per replica the squared error is averaged over the retained blocks;
    cells report the replica average with its standard error.  Replicas
    where estimation aborts on excessive skips are counted as failures and
    excluded.
    """
    if target not in MSE_TARGETS:
        raise ValueError(f"target must be one of {MSE_TARGETS}, got {target!r}")
    values, failed, _ = _run_replicas(spec, workers)
    col = MSE_TARGETS.index(target)
    return _report(spec, "mse_signal_power" if target == "block" else f"mse_signal_power_{target}",
                   values[:, :, col:col + 1], failed)


def oracle_draws(design: str, true_snr_db: float, b: int, b1: int | None,
                 replicas: int, seed: int,
                 fs_hz: float = ExperimentSpec.fs_hz, duration_s: float = ExperimentSpec.duration_s,
                 noise_variance: float = 1.0) -> np.ndarray:
    """Draws of the per-block SNR statistic, in dB, with known signal and noise.

    Each draw places a block uniformly on the sample index range, computes
    the true signal power over the block and the sample variance of freshly
    generated design noise over the first b1 points, and takes their ratio
    in dB.  AR(1) noise is drawn b1 points long after its burn-in; power-law
    noise, whose synthesis rescales to an exact sample variance, is cut from
    the start of an ``ORACLE_NOISE_LEN``-point synthesis.  The generator
    yields the starts first, then the noise of each draw in turn; the noise
    is generated a slab of draws at a time, on work arrays allocated once
    per call, with the values one draw at a time would give.
    """
    _check_oracle_replicas(replicas)
    if b1 is None:
        b1 = default_b1(b)
    amp = calibrate_amplitude(true_snr_db, noise_variance)
    noise = design_noise(design, noise_variance)
    n_starts = admissible_starts(sample_count(duration_s, fs_hz), b)
    rng = derive_rng(seed)
    starts = rng.integers(1, n_starts + 1, size=replicas)
    u = _true_block_power(amp, starts, b, fs_hz)
    draw_len, slab = _oracle_slab(noise.kind, b1)
    v = np.concatenate([np.var(rows[:, :b1], axis=1)
                        for rows in noise.slabs(replicas, draw_len, slab, rng)])
    return 10.0 * np.log10(u / v)


def _oracle_slab(kind: str, b1: int) -> tuple[int, int]:
    """(noise length per oracle draw, draws per slab) for noise of ``kind``.

    A slab generates at most ``core.CHUNK_SAMPLES`` noise samples, AR(1)
    burn-in included: 64 power-law draws, or 259 AR(1) draws at b1 = 11.
    """
    if kind == "ar1":
        return b1, max(1, CHUNK_SAMPLES // (b1 + AR1_BURN_IN))
    return ORACLE_NOISE_LEN, max(1, CHUNK_SAMPLES // ORACLE_NOISE_LEN)


def _check_oracle_replicas(oracle_replicas: int) -> None:
    if oracle_replicas < 1:
        raise ValueError(f"oracle_replicas must be >= 1, got {oracle_replicas}")


def oracle_quantiles(design: str, true_snr_db: float, b: int, b1: int | None,
                     levels, replicas: int, seed: int, fs_hz: float = ExperimentSpec.fs_hz,
                     duration_s: float = ExperimentSpec.duration_s,
                     noise_variance: float = 1.0) -> dict[float, float]:
    """Quantiles of ``oracle_draws``: the ground truth the estimated quantiles
    are compared against."""
    snr = oracle_draws(design, true_snr_db, b, b1, replicas, seed,
                       fs_hz, duration_s, noise_variance)
    return {float(g): empirical_quantile(snr, g) for g in levels}


def quantile_mae(spec: ExperimentSpec, oracle_replicas: int = ORACLE_REPLICAS,
                 workers: int = 1) -> McReport:
    """Mean absolute deviation of estimated quantiles from the oracle, in dB.

    One cell per (block length, level); the oracle for each block length is
    computed once on its own derived seed stream.
    """
    return mc_reports(spec, ("qmae",), oracle_replicas, workers)["qmae"]


def mc_reports(spec: ExperimentSpec, metrics, oracle_replicas: int = ORACLE_REPLICAS,
               workers: int = 1) -> dict[str, McReport]:
    """The 'mse' and/or 'qmae' reports from a single pass over the replicas.

    Each replica is estimated once per block length, and the oracles run in
    the same pool as the replicas; every report equals the one
    ``mse_signal_power`` or ``quantile_mae`` gives alone.
    """
    if not set(metrics) <= {"mse", "qmae"}:
        raise ValueError(f"metrics must be 'mse' and/or 'qmae', got {metrics!r}")
    if "qmae" in metrics:
        _check_oracle_replicas(oracle_replicas)
    values, failed, oracles = _run_replicas(spec, workers,
                                            oracle_replicas if "qmae" in metrics else 0)
    oracle = [[oracles[b][g] for g in spec.levels] for b in oracles]  # [block length][level]
    build = {"mse": lambda: _report(spec, "mse_signal_power", values[:, :, :1], failed),
             "qmae": lambda: _report(spec, "quantile_mae",
                                     np.abs(values[:, :, len(MSE_TARGETS):] - oracle),
                                     failed, spec.levels)}
    return {m: build[m]() for m in metrics}


def mise_probe(s_true, noise, n_list, replicas: int, seed: int = 0,
               regime: DependenceRegime | None = None) -> dict[int, float]:
    """Empirical mean integrated squared error of the fit per sample size.

    For each n, generates ``replicas`` series s_true(i/n) + noise, fits with
    the CV-selected bandwidth, and averages the squared error over the
    interior points h < i/n < 1 - h.  Useful to check the error decay rate
    against the n**(-4/5)-type theory without touching any asymptotics.
    """
    if replicas < 10:
        raise ValueError(f"need at least 10 replicas, got {replicas}")
    out = {}
    for n in n_list:
        grid_t = np.arange(1, n + 1) / n
        s = np.asarray([s_true(t) for t in grid_t], dtype=np.float64)
        acc = 0.0
        for r in range(replicas):
            rng = derive_rng(seed, n, r)
            yrep = s + noise.sample(n, rng)
            fit = select_bandwidth(yrep, regime=regime)
            interior = (grid_t > fit.h_hat) & (grid_t < 1.0 - fit.h_hat)
            err = fit.fitted[interior] - s[interior]
            acc += float(err @ err) / max(int(interior.sum()), 1)
        out[int(n)] = acc / replicas
    return out


def ks_distance(a, b) -> float:
    """Kolmogorov-Smirnov distance between two empirical distributions."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


@dataclass(frozen=True)
class ExhaustiveComparison:
    """Randomized vs exhaustive subsample SNR distributions on a small series."""

    randomized: np.ndarray
    exhaustive: np.ndarray
    ks: float
    k: int
    n_starts: int


def exhaustive_subsample_check(series: TimeSeries, b: int, b1: int | None = None,
                               k: int | None = None, seed: int = 0) -> ExhaustiveComparison:
    """Compare the randomized draw against enumeration of every block start.

    With k equal to the number of admissible starts the randomized multiset
    must equal the exhaustive one exactly; with smaller k it subsamples it.
    Only practical at small n (the exhaustive side smooths every block).
    """
    n_starts = admissible_starts(series.n, b)
    if k is None:
        k = n_starts
    cfg = SubsampleConfig(b=b, k_blocks=k, seed=seed, b1=b1)
    dist = estimate_snr_distribution(series, cfg)
    ex_values = estimate_blocks(series, np.arange(1, n_starts + 1), cfg).snr_values
    return ExhaustiveComparison(
        randomized=dist.snr_values,
        exhaustive=ex_values,
        ks=ks_distance(dist.snr_values, ex_values),
        k=k,
        n_starts=n_starts,
    )
