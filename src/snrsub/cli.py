"""Command-line surface: simulate, estimate, select-block, mc, bandwidth.

Primary outputs are deterministic given --seed: JSON reports carry a
schema_version, echo the resolved statistical config, and never include
wall-clock or thread-count information unless --timings is passed, so
identical seeds produce byte-identical output at any --threads value.
Operational failures print a single machine-readable JSON object with a
stable error code on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import math
import os
import sys
import time
import wave
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries
from .harness import ORACLE_REPLICAS, ExperimentSpec, McReport, dump_csv, dump_json, mc_reports
from .simgen import (
    DESIGNS,
    SIGNAL_FREQ_HZ,
    NoiseSpec,
    NyquistError,
    SignalSpec,
    calibrate_amplitude,
    design_noise,
    gen_design,
    gen_sine,
    sample_count,
)
from .smoother import MIN_BLOCK_SAMPLES, select_bandwidth
from .subsample import (
    MIN_CANDIDATES,
    ExcessiveSkipsError,
    KTooLargeError,
    SubsampleConfig,
    admissible_starts,
    confidence_interval,
    cut_block,
    estimate_snr_distribution,
    select_block_size,
)

THREADS_ENV = "SNRSUB_THREADS"

DEFAULT_LEVELS = ",".join(f"{g:g}" for g in ExperimentSpec.levels)
DEFAULT_CI = "0.9,0.95"
# samples per chunk of a WAV write (512 KB of float64), bounds its working memory
WAV_CHUNK_SAMPLES = 1 << 16
PCM16_FULL_SCALE = 32768.0  # a PCM16 value v is the amplitude v / PCM16_FULL_SCALE


class CliError(Exception):
    """Operational failure with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


@dataclass(frozen=True)
class InputDescriptor:
    """Where and how to read a series: path, format, rate override, channel."""

    path: str
    format: str  # a key of _READERS
    sample_rate_hz: float | None = None
    channel: int = 0


# ---------------------------------------------------------------- file I/O

def read_input(desc: InputDescriptor) -> TimeSeries:
    """Load a series from WAV (PCM 16-bit), CSV (last column), or raw float64.

    WAV amplitudes are scaled to [-1, 1) by 1/32768 and the header rate is
    used unless overridden; CSV and raw files require an explicit rate.
    WAV and CSV are loaded whole; a raw file is memory-mapped and read only
    in chunks and blocks (see ``TimeSeries``), so it must not change while
    the series is in use.  ``desc.channel`` must be one the file has: a WAV
    file has the channels its header declares, a CSV or raw file one.
    """
    if desc.format not in _READERS:
        raise ValueError(f"unknown input format {desc.format!r}")
    channels, series = _READERS[desc.format](desc)
    if not 0 <= desc.channel < channels:
        raise ValueError(f"{desc.path} has {channels} channel(s), no channel {desc.channel}")
    return series(desc.channel)


def _read_wav16(desc: InputDescriptor):
    try:
        with wave.open(desc.path, "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise ValueError(f"wav: compressed encoding {wf.getcomptype()!r} not supported")
            if wf.getsampwidth() != 2:
                raise ValueError(f"wav: only PCM 16-bit supported, got {8 * wf.getsampwidth()}-bit")
            nch = wf.getnchannels()
            fs = float(wf.getframerate())
            declared = wf.getnframes()
            frames = wf.readframes(declared)
    except (wave.Error, EOFError) as e:  # wave raises a bare EOFError for a short file
        raise ValueError(f"wav: malformed header in {desc.path}: "
                         f"{str(e) or 'the file is empty or truncated'}") from e
    if len(frames) % (2 * nch):
        raise ValueError(f"wav: truncated data in {desc.path}: the data ends inside a frame")
    # a writer that cannot seek leaves the data size at its 0xFFFFFFFF placeholder
    if len(frames) < declared * 2 * nch and declared != 0xFFFFFFFF // (2 * nch):
        raise ValueError(f"wav: truncated data in {desc.path}: the header declares "
                         f"{declared} frames, the file holds {len(frames) // (2 * nch)}")
    data = np.frombuffer(frames, dtype="<i2")
    if data.size == 0:
        raise ValueError(f"wav: zero samples in {desc.path}")
    data = data.reshape(-1, nch)
    rate = fs if desc.sample_rate_hz is None else desc.sample_rate_hz
    return nch, lambda c: TimeSeries(data[:, c].astype(np.float64) / PCM16_FULL_SCALE, rate)


def _read_csv(desc: InputDescriptor):
    if desc.sample_rate_hz is None:
        raise ValueError("csv input requires an explicit sample rate (--fs)")
    values = []
    with open(desc.path, newline="") as f:
        for rownum, row in enumerate(csv_mod.reader(f), start=1):
            if not row:
                continue
            cell = row[-1].strip()
            try:
                v = float(cell)
            except ValueError:
                if rownum == 1 and not values:
                    continue  # header row
                raise ValueError(f"csv: non-numeric cell {cell!r} at row {rownum}") from None
            if not math.isfinite(v):
                raise ValueError(f"csv: non-finite value at row {rownum}")
            values.append(v)
    if not values:
        raise ValueError(f"csv: zero samples in {desc.path}")
    return 1, lambda _: TimeSeries(np.array(values), desc.sample_rate_hz)


def _read_raw(desc: InputDescriptor):
    if desc.sample_rate_hz is None:
        raise ValueError("raw input requires an explicit sample rate (--fs)")
    size = os.path.getsize(desc.path)
    if size % 8:
        raise ValueError(f"raw: {size} bytes in {desc.path} is not a whole number of float64 samples")
    if size == 0:  # checked here: np.memmap refuses an empty file
        raise ValueError(f"raw: zero samples in {desc.path}")
    return 1, lambda _: TimeSeries(np.memmap(desc.path, dtype="<f8", mode="r"), desc.sample_rate_hz)


# the input formats, in the order --help lists them, each with its reader: it checks
# the file and returns (channels, series), series(c) the TimeSeries of channel c
_READERS = {"wav16": _read_wav16, "csv": _read_csv, "raw_f64le": _read_raw}


def write_raw_f64le(path: str, samples: np.ndarray) -> None:
    np.ascontiguousarray(samples, dtype="<f8").tofile(path)


def write_wav16(path: str, samples: np.ndarray, fs_hz: float) -> float:
    """Write mono PCM 16-bit; returns the gain applied to avoid clipping.

    The peak and the PCM are computed ``WAV_CHUNK_SAMPLES`` at a time, so the
    working memory does not grow with the series.
    """
    limit = (PCM16_FULL_SCALE - 1.0) / PCM16_FULL_SCALE
    chunks = range(0, samples.size, WAV_CHUNK_SAMPLES)
    peak = float(np.max([np.max(np.abs(samples[lo:lo + WAV_CHUNK_SAMPLES])) for lo in chunks],
                        initial=0.0))
    gain = 1.0 if peak <= limit else limit / peak
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(round(fs_hz)))
        for lo in chunks:  # close() writes the header's final sizes
            pcm = samples[lo:lo + WAV_CHUNK_SAMPLES] * gain
            pcm *= PCM16_FULL_SCALE
            np.clip(np.rint(pcm, out=pcm), -PCM16_FULL_SCALE, PCM16_FULL_SCALE - 1.0, out=pcm)
            wf.writeframesraw(pcm.astype("<i2").tobytes())
    return gain


# ---------------------------------------------------------------- helpers

def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise CliError("invalid-config", f"{name}: cannot parse {text!r}") from None


def _parse_levels(text: str, name: str) -> tuple[float, ...]:
    levels = _parse_floats(text, name)
    if any(not (0.0 < g < 1.0) for g in levels):
        raise CliError("invalid-config", f"{name}: levels must lie in (0, 1)")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise CliError("invalid-config", f"{name}: levels must be strictly increasing")
    return levels


def _threads(args) -> int:
    if args.threads is not None:
        threads, source = args.threads, "--threads"
    else:
        env = os.environ.get(THREADS_ENV)
        if not env:
            return 1
        try:
            threads, source = int(env), THREADS_ENV
        except ValueError:
            raise CliError("invalid-config", f"{THREADS_ENV}={env!r} is not an integer") from None
    if threads < 1:
        raise CliError("invalid-config", f"{source} must be at least 1, got {threads}")
    return threads


def _block_samples(flag: str, value: float, unit: str, fs_hz: float) -> int:
    """``value`` in ``unit`` ('samples', 'ms' or 's') as the nearest whole
    number of samples at ``fs_hz``; ``flag`` names a value that gives none.
    An int number of samples is taken as it is, with no float round trip."""
    samples = value if unit == "samples" else value * fs_hz / (1000.0 if unit == "ms" else 1.0)
    try:
        finite = math.isfinite(samples)
    except OverflowError:  # an int that no float holds
        raise CliError("invalid-config", f"{flag} gives no finite block length: "
                       "an integer beyond the float range") from None
    if not finite:
        raise CliError("invalid-config", f"{flag} gives no finite block length: {value:g}")
    return int(round(samples))


def _resolve_block_samples(args, fs_hz: float) -> int:
    flags = (("--block-samples", args.block_samples, "samples"),
             ("--block-ms", args.block_ms, "ms"),
             ("--block-s", args.block_s, "s"))
    given = [flag for flag in flags if flag[1] is not None]
    if len(given) != 1:
        raise CliError("config-conflict",
                       "exactly one of --block-samples/--block-ms/--block-s required, "
                       f"got {[name for name, _, _ in given] or 'none'}")
    return _block_samples(*given[0], fs_hz)


def _block_fits(n: int, b: int, k: int) -> bool:
    try:
        admissible_starts(n, b, k)
    except ValueError:
        return False
    return True


def _load_series(args) -> tuple[TimeSeries, InputDescriptor]:
    fmt = args.format
    if fmt is None:
        ext = os.path.splitext(args.input)[1].lower()
        fmt = {"wav": "wav16", "csv": "csv"}.get(ext.lstrip("."), "raw")
    desc = InputDescriptor(args.input, "raw_f64le" if fmt == "raw" else fmt, args.fs, args.channel)
    try:
        return read_input(desc), desc
    except ValueError as e:
        raise CliError("bad-input", str(e)) from e


# ---------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    fs = args.fs
    seed = args.seed
    design = args.design
    noise_var = args.noise_variance
    manifest: dict = {
        "command": "simulate",
        "config": {
            "design": design,
            "snr_db": args.snr,
            "fs_hz": fs,
            "duration_s": args.duration,
            "seed": seed,
            "format": args.format,
            "noise_variance": noise_var,
            "amplitude": args.amplitude,
            "noise": args.noise,
            "out": args.out,
        },
    }
    if design in DESIGNS:
        series = gen_design(design, args.snr, fs, args.duration, seed, noise_var)
        amp = calibrate_amplitude(args.snr, noise_var)
        derived = {"amplitude": amp, "signal_power": amp * amp / 2.0,
                   "noise": design_noise(design, noise_var).describe(),
                   "true_snr_db": args.snr}
    elif design == "sine-only":
        try:
            power = args.amplitude ** 2 / 2.0
        except OverflowError:  # a float's ** raises past the float range
            raise CliError("invalid-config",
                           f"--amplitude {args.amplitude:g} gives no finite signal power") from None
        series = gen_sine(SignalSpec(args.amplitude, SIGNAL_FREQ_HZ, fs, args.duration))
        derived = {"amplitude": args.amplitude, "signal_power": power,
                   "noise": None, "true_snr_db": None}
    else:  # noise-only; argparse admits no other design
        noise = (NoiseSpec.white(noise_var) if args.noise == "white"
                 else design_noise(args.noise, noise_var))
        n = sample_count(args.duration, fs)
        series = TimeSeries(noise.sample(n, seed), fs)
        derived = {"amplitude": 0.0, "signal_power": 0.0,
                   "noise": noise.describe(), "true_snr_db": None}

    try:
        if args.format == "wav16":
            gain = write_wav16(args.out, series.samples, fs)
            derived["wav_gain"] = gain
        else:
            write_raw_f64le(args.out, series.samples)
    except OSError as e:
        raise CliError("io-error", f"cannot write {args.out}: {e}") from e

    derived["n"] = series.n
    manifest["derived"] = derived
    text = dump_json(manifest)
    manifest_path = args.manifest or (args.out + ".manifest.json")
    try:
        with open(manifest_path, "w") as f:
            f.write(text)
    except OSError as e:
        raise CliError("io-error", f"cannot write {manifest_path}: {e}") from e
    sys.stdout.write(text)
    return 0


def cmd_estimate(args) -> int:
    levels = _parse_levels(args.levels, "--levels")
    ci_levels = _parse_levels(args.ci, "--ci")
    threads = _threads(args)
    t0 = time.perf_counter()
    series, desc = _load_series(args)
    read_s = time.perf_counter() - t0
    b = _resolve_block_samples(args, series.sample_rate_hz)
    cfg = SubsampleConfig(b=b, k_blocks=args.k, seed=args.seed, b1=args.b1,
                          workers=threads, shared_bandwidth=args.shared_bandwidth)

    t0 = time.perf_counter()
    dist = estimate_snr_distribution(series, cfg)
    elapsed = time.perf_counter() - t0

    hs = np.sort(dist.h_hat[dist.kept])
    mid = hs.size // 2  # the middle value, or the mean of the middle two, as np.median
    report = {
        "command": "estimate",
        "config": {
            "input": desc.path,
            "format": desc.format,
            "channel": desc.channel,
            "fs_hz": series.sample_rate_hz,
            "n": series.n,
            "b": cfg.b,
            "b1": cfg.b1,
            "k": cfg.k_blocks,
            "seed": cfg.seed,
            "shared_bandwidth": cfg.shared_bandwidth,
            "grid": {"c1": cfg.grid.c1, "c2": cfg.grid.c2, "points": cfg.grid.points},
            "levels": list(levels),
            "ci_levels": list(ci_levels),
        },
        "results": {
            "retained": dist.count,
            "skipped": dist.skipped,
            "bandwidth_summary": {
                "median_h": float(hs[mid] if hs.size % 2 else (hs[mid - 1] + hs[mid]) / 2.0),
                "min_h": float(hs[0]),
                "max_h": float(hs[-1]),
            },
            "quantiles_db": {repr(g): dist.quantile(g) for g in levels},
            "ci_db": {repr(lv): list(confidence_interval(dist, lv)) for lv in ci_levels},
        },
    }
    if args.timings:  # wall-clock only on request, so the default report is reproducible
        report["timings"] = {"read_s": read_s, "estimate_s": elapsed, "threads": threads}
    _emit(dump_json(report), args.out)
    if args.snr_csv:
        _emit(dump_csv(("snr_db",), ((v,) for v in dist.snr_values)), args.snr_csv)
    return 0


def cmd_select_block(args) -> int:
    threads = _threads(args)
    if args.grid_steps < 0:
        raise CliError("invalid-config", f"--grid-steps must be non-negative, got {args.grid_steps}")
    series, desc = _load_series(args)
    fs = series.sample_rate_hz
    raw = np.linspace(args.grid_min, args.grid_max, args.grid_steps)
    # k is checked before the screen; select_block_size sets b per candidate
    cfg = SubsampleConfig(b=MIN_BLOCK_SAMPLES, k_blocks=args.k, seed=args.seed, workers=threads)
    cand = sorted({_block_samples("--grid-min/--grid-max", float(v), args.grid_unit, fs)
                   for v in raw})
    cand = [b for b in cand if b >= MIN_BLOCK_SAMPLES and _block_fits(series.n, b, args.k)]
    if len(cand) < MIN_CANDIDATES:
        raise CliError("grid-infeasible", f"grid reduces to {len(cand)} feasible candidates; "
                       f"need at least {MIN_CANDIDATES}")
    sel = select_block_size(series, cand, cfg)

    table = [
        {
            "b": b,
            "b_ms": b / fs * 1000.0,
            "q_low": sel.q_low[i],
            "q_high": sel.q_high[i],
            "volatility": None if math.isnan(sel.volatility[i]) else sel.volatility[i],
        }
        for i, b in enumerate(sel.candidates)
    ]
    report = {
        "command": "select-block",
        "config": {
            "input": desc.path,
            "format": desc.format,
            "fs_hz": fs,
            "n": series.n,
            "grid_min": args.grid_min,
            "grid_max": args.grid_max,
            "grid_unit": args.grid_unit,
            "grid_steps": args.grid_steps,
            "k": args.k,
            "seed": args.seed,
            "levels": list(sel.levels),
        },
        "results": {
            "chosen_b_samples": sel.chosen_b,
            "chosen_b_ms": sel.chosen_b / fs * 1000.0,
            "table": table,
        },
    }
    _emit(dump_json(report), args.out)
    if args.table_csv:  # the columns of results.table, in its key order
        _emit(dump_csv(table[0], (row.values() for row in table)), args.table_csv)
    return 0


def cmd_mc(args) -> int:
    threads = _threads(args)
    replicas = args.replicas
    duration = args.duration
    k = args.k
    oracle_replicas = args.oracle_replicas
    if args.quick:
        replicas, duration, k, oracle_replicas = 3, 0.5, 48, 500
    levels = _parse_levels(args.levels, "--levels")
    blocks = tuple(_block_samples("--b-ms", ms, "ms", args.fs)
                   for ms in _parse_floats(args.b_ms, "--b-ms"))
    spec = ExperimentSpec(
        design=args.design,
        true_snr_db=args.snr,
        fs_hz=args.fs,
        duration_s=duration,
        block_lengths=blocks,
        k_blocks=k,
        replicas=replicas,
        seed=args.seed,
        levels=levels,
    )

    metrics = ("mse", "qmae") if args.metric == "both" else (args.metric,)
    reports = mc_reports(spec, metrics, oracle_replicas=oracle_replicas, workers=threads)

    payload = {
        "command": "mc",
        "config": {
            "design": spec.design,
            "snr_db": spec.true_snr_db,
            "fs_hz": spec.fs_hz,
            "duration_s": spec.duration_s,
            "block_lengths": list(spec.block_lengths),
            "k": spec.k_blocks,
            "replicas": spec.replicas,
            "seed": spec.seed,
            "levels": list(spec.levels),
            "metric": args.metric,
            "quick": args.quick,
            "oracle_replicas": oracle_replicas,
        },
        "reports": {name: rep.payload for name, rep in reports.items()},
    }
    _emit(dump_json(payload), args.out)
    if args.csv:  # one table: the cells of each report, reports in name order
        cells = tuple(c for name in sorted(reports) for c in reports[name].cells)
        _emit(McReport(spec, cells).to_csv(), args.csv)
    return 0


def cmd_bandwidth(args) -> int:
    series, _ = _load_series(args)
    b = _resolve_block_samples(args, series.sample_rate_hz)
    fit = select_bandwidth(cut_block(series, args.start, b))
    _emit(dump_csv(("h", "cv", "selected"),
                   ((h, cv, int(h == fit.h_hat)) for h, cv in fit.cv_curve)), args.out)
    return 0


# ---------------------------------------------------------------- parser

def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input data file")
    p.add_argument("--format", choices=[*_READERS, "raw"],
                   help="input format (default: by extension, else raw float64)")
    p.add_argument("--fs", type=float, help="sample rate in Hz (required for csv/raw)")
    p.add_argument("--channel", type=int, default=0, help="wav channel index")


def _add_block_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--block-ms", type=float, help="block length in milliseconds")
    p.add_argument("--block-samples", type=int, help="block length in samples")
    p.add_argument("--block-s", type=float, help="block length in seconds")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=ExperimentSpec.k_blocks, help="number of blocks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker processes (default: ${THREADS_ENV} or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snrsub",
        description="Subsampled SNR distribution estimation for long uniformly sampled series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic design data")
    p.add_argument("--design", required=True,
                   choices=[*DESIGNS, "sine-only", "noise-only"])
    p.add_argument("--snr", type=float, default=10.0, help="target SNR in dB")
    p.add_argument("--fs", type=float, default=ExperimentSpec.fs_hz)
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["raw", "wav16"], default="raw")
    p.add_argument("--amplitude", type=float, default=1.0, help="sine-only amplitude")
    p.add_argument("--noise", choices=["white", *DESIGNS], default="white",
                   help="noise-only process")
    p.add_argument("--noise-variance", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output data file")
    p.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate the subsample SNR distribution")
    _add_input_flags(p)
    _add_block_flags(p)
    _add_run_flags(p)
    p.add_argument("--b1", type=int, help="secondary window (default: floor(b**0.4))")
    p.add_argument("--levels", default=DEFAULT_LEVELS, help="quantile levels, comma-separated")
    p.add_argument("--ci", default=DEFAULT_CI, help="confidence levels, comma-separated")
    p.add_argument("--shared-bandwidth", action="store_true",
                   help="cross-validate once on the first block (approximation)")
    p.add_argument("--timings", action="store_true", help="include wall-clock in the report")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--snr-csv", help="write sorted subsample SNR values as CSV")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select-block", help="data-driven block length selection")
    _add_input_flags(p)
    p.add_argument("--grid-min", type=float, default=2.0)
    p.add_argument("--grid-max", type=float, default=20.0)
    p.add_argument("--grid-steps", type=int, default=10)
    p.add_argument("--grid-unit", choices=["ms", "s", "samples"], default="ms")
    _add_run_flags(p)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--table-csv", help="write candidate quantile/volatility table as CSV")
    p.set_defaults(func=cmd_select_block)

    p = sub.add_parser("mc", help="Monte Carlo experiment tables at desk scale")
    p.add_argument("--design", required=True, choices=list(DESIGNS))
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--metric", choices=["mse", "qmae", "both"], default="both")
    p.add_argument("--fs", type=float, default=ExperimentSpec.fs_hz)
    p.add_argument("--duration", type=float, default=ExperimentSpec.duration_s)
    p.add_argument("--b-ms", default="10,15", help="block lengths in ms, comma-separated")
    _add_run_flags(p)
    p.add_argument("--replicas", type=int, default=ExperimentSpec.replicas)
    p.add_argument("--oracle-replicas", type=int, default=ORACLE_REPLICAS)
    p.add_argument("--levels", default=DEFAULT_LEVELS)
    p.add_argument("--quick", action="store_true",
                   help="tiny smoke configuration (3 replicas, 0.5 s)")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--csv", help="write cells as CSV")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("bandwidth", help="dump the CV curve for one block")
    _add_input_flags(p)
    _add_block_flags(p)
    p.add_argument("--start", type=int, default=1, help="1-based block start")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bandwidth)

    return parser


# the code of each exception that reaches main, in README's order; the first
# match wins, so KTooLargeError and NyquistError come before ValueError, their base class
_ERROR_CODES = {KTooLargeError: "k-too-large", ExcessiveSkipsError: "excessive-skips",
                NyquistError: "nyquist", OSError: "io-error", ValueError: "invalid-config"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, v in vars(args).items():  # every float flag, before any work
            if isinstance(v, float) and not math.isfinite(v):
                raise CliError("invalid-config",
                               f"--{dest.replace('_', '-')} must be finite, got {v:g}")
        if args.fs is not None and not args.fs > 0:  # every command takes --fs
            raise CliError("invalid-config", f"--fs must be positive, got {args.fs:g}")
        return args.func(args)
    except (CliError, *_ERROR_CODES) as e:
        code = e.code if isinstance(e, CliError) else next(
            c for kind, c in _ERROR_CODES.items() if isinstance(e, kind))
        sys.stderr.write(dump_json({"error": {"code": code, "message": str(e)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
