"""Output checks for the benchmark, computed apart from the program.

Every check returns a list of problems; an empty list means it passed.  The
reference computations here (lower-order-statistic quantiles, the kernel
smoother, the corrected cross-validation, the block SNR, the closed-form
block power of the design sine, block-size volatility) follow the method's
definitions in PAPER.md and the package docstrings, written out plainly with
numpy so that none of them calls into ``snrsub``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

SIGNAL_FREQ_HZ = 50.0  # the designs' sine
GRID_C1, GRID_C2, GRID_POINTS = 0.05, 1.0, 25  # default bandwidth grid
CORRECTION_FLOOR = 0.05  # candidates below it are rejected (infinite CV)
CENTRE_BOUND_DB = 1.5  # acceptance criterion 5
REL_TOL = 1e-9  # reference vs program, different summation order


# ---------------------------------------------------------------- quantiles

def lower_order_quantile(values, level: float) -> float:
    """inf{x : F_hat(x) >= level}: the smallest i with i/K >= level, i-th order statistic."""
    srt = sorted(values)
    k = len(srt)
    i = next(i for i in range(1, k + 1) if i / k >= level)
    return srt[i - 1]


def check_estimate_report(report: dict, snr_values, true_snr_db: float) -> list[str]:
    """An `estimate` report against the per-block SNR values it came from."""
    problems = []
    cfg, res = report["config"], report["results"]
    if res["retained"] + res["skipped"] != cfg["k"]:
        problems.append(f"retained {res['retained']} + skipped {res['skipped']} != k {cfg['k']}")
    if len(snr_values) != res["retained"]:
        problems.append(f"{len(snr_values)} SNR values for {res['retained']} retained blocks")
        return problems
    for level in cfg["levels"]:
        got = res["quantiles_db"][f"{level:g}"]
        want = lower_order_quantile(snr_values, level)
        if got != want:
            problems.append(f"quantile {level:g}: reported {got!r}, order statistic {want!r}")
    for level in cfg["ci_levels"]:
        alpha = 1.0 - level
        want = [lower_order_quantile(snr_values, alpha / 2.0),
                lower_order_quantile(snr_values, 1.0 - alpha / 2.0)]
        got = res["ci_db"][f"{level:g}"]
        if got != want:
            problems.append(f"CI {level:g}: reported {got!r}, order statistics {want!r}")
    median = res["quantiles_db"].get("0.5")
    if median is None or not abs(median - true_snr_db) <= CENTRE_BOUND_DB:
        problems.append(f"median {median!r} dB is more than {CENTRE_BOUND_DB} dB from {true_snr_db} dB")
    return problems


def check_same_quantiles(report: dict, reference: dict) -> list[str]:
    """Two `estimate` reports give the same quantiles and intervals."""
    return [f"{key} differ: {report['results'][key]!r} vs {reference['results'][key]!r}"
            for key in ("quantiles_db", "ci_db")
            if report["results"][key] != reference["results"][key]]


def check_identical(a: bytes, b: bytes, what: str) -> list[str]:
    if a == b:
        return []
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"{what}: outputs differ at byte {at} ({len(a)} vs {len(b)} bytes)"]


# ---------------------------------------------------------------- smoother and CV

def default_b1(b: int) -> int:
    return max(4, int(math.floor(b ** 0.4 + 1e-9)))


def bandwidth_grid(n: int) -> np.ndarray:
    scale = float(n) ** (-0.2)
    hi = min(GRID_C2 * scale, 0.5)
    lo = min(GRID_C1 * scale, hi)
    return np.geomspace(lo, hi, GRID_POINTS)


def epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def reference_fit(y: np.ndarray, h: float, rows: int = 256) -> np.ndarray:
    """Weight-normalized kernel fit at every sample, one dense weight matrix
    per slab of rows (columns beyond the kernel radius are all-zero and left out)."""
    n = y.size
    nh = n * h
    radius = int(math.floor(nh))
    out = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        c0, c1 = max(0, lo - radius), min(n, hi + radius + 1)
        offsets = np.arange(lo, hi)[:, None] - np.arange(c0, c1)[None, :]
        w = epanechnikov(offsets / nh)
        out[lo:hi] = (w @ y[c0:c1]) / w.sum(axis=1)
    return out


def reference_cv(y: np.ndarray, h: float) -> tuple[float, np.ndarray | None]:
    """Corrected CV value at h and the fit it came from.

    CV(h) = mean(e**2) / [1 - (1/(nh)) sum_{|j|<=M} K(j/(nh)) rho(j)]**2 with
    M = min(max(1, floor(sqrt(nh))), n//4); infinite when the window holds no
    neighbor or the correction falls below the floor.
    """
    n = y.size
    nh = n * h
    if int(nh) < 1:
        return math.inf, None
    fitted = reference_fit(y, h)
    e = y - fitted
    g0 = float(np.dot(e, e)) / n
    if g0 == 0.0:
        return 0.0, fitted
    m = min(max(1, int(math.floor(math.sqrt(nh)))), n // 4)
    acc = 0.75
    for j in range(1, m + 1):
        rho = (float(np.dot(e[:n - j], e[j:])) / n) / g0
        acc += 2.0 * float(epanechnikov(np.float64(j / nh))) * rho
    factor = 1.0 - acc / nh
    if factor < CORRECTION_FLOOR:
        return math.inf, fitted
    return g0 / (factor * factor), fitted


def reference_selection(y: np.ndarray):
    """(grid, CV curve, index of the selected h, fit at it); ties go to the smaller h."""
    hs = bandwidth_grid(y.size)
    curve, fits = [], []
    for h in hs:
        cv, fitted = reference_cv(y, float(h))
        curve.append(cv)
        fits.append(fitted)
    finite = [i for i, cv in enumerate(curve) if math.isfinite(cv)]
    best = min(finite, key=lambda i: (curve[i], i))
    return hs, curve, best, fits[best]


def reference_block_snr(y: np.ndarray) -> tuple[float, float]:
    """(SNR in dB, selected h) of one block: mean(fit**2) over the residual
    variance of its first b1 points."""
    hs, _, best, fitted = reference_selection(y)
    resid = (y - fitted)[:default_b1(y.size)]
    u = float(np.mean(fitted * fitted))
    v = float(np.mean((resid - resid.mean()) ** 2))
    return 10.0 * math.log10(u / v), float(hs[best])


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_cv_curve(curve, h_hat: float, y: np.ndarray) -> list[str]:
    """The program's (h, CV) curve and choice for block y against the reference."""
    hs, ref_curve, best, _ = reference_selection(y)
    problems = []
    if len(curve) != len(hs):
        return [f"CV curve has {len(curve)} points, grid has {len(hs)}"]
    for (h, cv), rh, rcv in zip(curve, hs, ref_curve):
        if not close(h, float(rh), 1e-12) or not close(cv, rcv):
            problems.append(f"CV at h={h!r}: program {cv!r}, reference {rcv!r} (h {rh!r})")
    if not close(h_hat, float(hs[best]), 1e-12):
        problems.append(f"selected h {h_hat!r}, reference selects {float(hs[best])!r}")
    return problems


# ---------------------------------------------------------------- Monte Carlo

def sine_amplitude(snr_db: float, noise_variance: float = 1.0) -> float:
    """A with (A**2/2) / noise_variance = 10**(snr_db/10)."""
    return math.sqrt(2.0 * noise_variance * 10.0 ** (snr_db / 10.0))


def block_power(amp: float, starts, b: int, fs_hz: float) -> np.ndarray:
    """mean(s**2) of A*sin(2*pi*f*(i-1)/fs) over i = t..t+b-1, in closed form.

    sin**2 = (1 - cos(2x))/2 and sum_{k<b} cos(a + k*d) =
    sin(b*d/2) * cos(a + (b-1)*d/2) / sin(d/2).
    """
    t = np.asarray(starts, dtype=np.float64)
    d = 4.0 * math.pi * SIGNAL_FREQ_HZ / fs_hz
    a = d * (t - 1.0)
    cos_sum = math.sin(b * d / 2.0) * np.cos(a + (b - 1) * d / 2.0) / math.sin(d / 2.0)
    return 0.5 * amp * amp * (1.0 - cos_sum / b)


def replica_mse(starts, powers, amp: float, b: int, fs_hz: float) -> float:
    err = np.asarray(powers, dtype=np.float64) - block_power(amp, starts, b, fs_hz)
    return float(np.mean(err * err))


def mc_cells(report: dict, metric: str) -> list[dict]:
    return [c for rep in report["reports"].values() for c in rep["cells"] if c["metric"] == metric]


def check_mc_reports(reports: dict[str, dict]) -> list[str]:
    """No replica failures, every cell finite, and MSE(ar) < MSE(p2) at each b."""
    problems = []
    for design, report in reports.items():
        for rep in report["reports"].values():
            for c in rep["cells"]:
                where = f"{design} b={c['b']} {c['metric']} level={c['level']}"
                if c["failures"]:
                    problems.append(f"{where}: {c['failures']} replica failures")
                values = [c["mean"]] + ([c["se"]] if c["replicas"] > 1 else [])
                if any(v is None or not math.isfinite(v) for v in values):
                    problems.append(f"{where}: non-finite cell {values!r}")
    if {"ar", "p2"} <= reports.keys():
        ar = {c["b"]: c["mean"] for c in mc_cells(reports["ar"], "mse_signal_power")}
        p2 = {c["b"]: c["mean"] for c in mc_cells(reports["p2"], "mse_signal_power")}
        for b in sorted(ar):
            if not (ar[b] is not None and p2.get(b) is not None and ar[b] < p2[b]):
                problems.append(f"b={b}: mse_signal_power ar {ar[b]!r} not below p2 {p2.get(b)!r}")
    return problems


def check_mse_cells(report: dict, per_replica: dict[int, list[tuple]]) -> list[str]:
    """Each mse_signal_power cell against the mean of per-replica MSEs.

    ``per_replica[b]`` holds, per replica, (starts, estimated signal powers)
    of the retained blocks.
    """
    spec = report["reports"]["mse"]["spec"]
    amp = sine_amplitude(spec["true_snr_db"], spec["noise_variance"])
    problems = []
    for c in mc_cells(report, "mse_signal_power"):
        b = c["b"]
        mses = [replica_mse(s, p, amp, b, spec["fs_hz"]) for s, p in per_replica[b]]
        want = sum(mses) / len(mses)
        if not close(c["mean"], want):
            problems.append(f"{spec['design']} b={b}: mse_signal_power {c['mean']!r}, recomputed {want!r}")
    return problems


# ---------------------------------------------------------------- block-size selection

def volatility(q_low, q_high) -> list[float]:
    vol = [math.nan] * len(q_low)
    for j in range(1, len(q_low) - 1):
        vol[j] = float(np.std(q_low[j - 1:j + 2], ddof=1) + np.std(q_high[j - 1:j + 2], ddof=1))
    return vol


def check_select_block(report: dict) -> list[str]:
    """chosen_b_samples is the interior argmin of the recomputed volatility,
    ties (to 1e-12) going to the smaller b."""
    table = report["results"]["table"]
    vol = volatility([r["q_low"] for r in table], [r["q_high"] for r in table])
    interior = vol[1:-1]
    lowest = min(interior)
    pick = next(j for j, v in enumerate(interior) if v <= lowest + 1e-12 * abs(lowest))
    want = table[1 + pick]["b"]
    got = report["results"]["chosen_b_samples"]
    if got != want:
        return [f"chosen_b_samples {got}, volatility argmin is b={want}"]
    return []


# ---------------------------------------------------------------- digest

def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
