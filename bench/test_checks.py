"""The benchmark's output checks must reject wrong outputs.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import math

import numpy as np
import pytest

import checks

LEVELS = [0.1, 0.25, 0.5, 0.75, 0.9]
# 1-based ranks ceil(level * 200) of the lower order statistics
RANKS = {0.1: 20, 0.25: 50, 0.5: 100, 0.75: 150, 0.9: 180}
# alpha = 1 - level in floating point: at 0.95, alpha/2 = 0.025000000000000022 > 5/200,
# so the lower endpoint is the 6th order statistic
CI_RANKS = {0.9: (10, 190), 0.95: (6, 195)}


@pytest.fixture
def estimate():
    values = sorted(np.random.default_rng(0).normal(10.0, 2.0, 200).tolist())
    report = {
        "config": {"k": 200, "levels": LEVELS, "ci_levels": [0.9, 0.95]},
        "results": {
            "retained": 200,
            "skipped": 0,
            "quantiles_db": {f"{g:g}": values[RANKS[g] - 1] for g in LEVELS},
            "ci_db": {f"{lv:g}": [values[lo - 1], values[hi - 1]] for lv, (lo, hi) in CI_RANKS.items()},
        },
    }
    return report, values


def test_estimate_report_consistent(estimate):
    report, values = estimate
    assert checks.check_estimate_report(report, values, 10.0) == []


@pytest.mark.parametrize("level", ["0.1", "0.5", "0.9"])
def test_one_altered_quantile_fails(estimate, level):
    report, values = estimate
    report["results"]["quantiles_db"][level] = math.nextafter(report["results"]["quantiles_db"][level], 99)
    assert checks.check_estimate_report(report, values, 10.0)


def test_altered_ci_endpoint_fails(estimate):
    report, values = estimate
    report["results"]["ci_db"]["0.95"][1] += 0.01
    assert checks.check_estimate_report(report, values, 10.0)


def test_block_count_mismatch_fails(estimate):
    report, values = estimate
    report["results"]["skipped"] = 1
    assert checks.check_estimate_report(report, values, 10.0)


def test_off_centre_median_fails(estimate):
    report, values = estimate
    shifted = [v + 1.6 for v in values]
    moved = copy.deepcopy(report)
    moved["results"]["quantiles_db"] = {k: v + 1.6 for k, v in report["results"]["quantiles_db"].items()}
    moved["results"]["ci_db"] = {k: [a + 1.6, b + 1.6] for k, (a, b) in report["results"]["ci_db"].items()}
    problems = checks.check_estimate_report(moved, shifted, 10.0)
    assert any("dB from" in p for p in problems)


def test_threads_output_one_byte_differs():
    a = json.dumps({"results": {"q": 10.123456789}}).encode()
    b = bytearray(a)
    b[-3] ^= 1
    assert checks.check_identical(a, a, "t1 vs t2") == []
    assert checks.check_identical(a, bytes(b), "t1 vs t2")
    assert checks.check_identical(a, a + b"\n", "t1 vs t2")


def select_block_report(q_low, q_high, chosen):
    table = [{"b": 441 * (i + 1), "q_low": lo, "q_high": hi} for i, (lo, hi) in enumerate(zip(q_low, q_high))]
    return {"results": {"chosen_b_samples": chosen, "table": table}}


def test_select_block_argmin():
    q_low = [9.0, 9.5, 9.4, 9.45, 9.3, 8.0]
    q_high = [15.0, 14.0, 14.1, 14.05, 14.2, 16.0]
    vol = checks.volatility(q_low, q_high)
    want = 441 * (1 + int(np.argmin(vol[1:-1])) + 1)
    assert checks.check_select_block(select_block_report(q_low, q_high, want)) == []
    assert checks.check_select_block(select_block_report(q_low, q_high, want + 441))


def test_select_block_tie_goes_to_smaller_b():
    q_low = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    q_high = [2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    assert checks.check_select_block(select_block_report(q_low, q_high, 882)) == []
    assert checks.check_select_block(select_block_report(q_low, q_high, 1323))


def test_reference_fit_matches_pointwise_sum():
    y = np.random.default_rng(1).normal(size=97)
    h = 0.07
    fit = checks.reference_fit(y, h, rows=16)
    t = np.arange(1, y.size + 1) / y.size
    for j in (0, 5, 48, 96):
        w = np.array([0.75 * (1 - ((t[j] - s) / h) ** 2) if abs(t[j] - s) <= h else 0.0 for s in t])
        assert fit[j] == pytest.approx(w @ y / w.sum(), rel=1e-12)


def test_cv_curve_mismatch_fails():
    y = np.sin(np.linspace(0, 6, 300)) + np.random.default_rng(2).normal(0, 0.3, 300)
    hs, curve, best, _ = checks.reference_selection(y)
    program = list(zip(hs.tolist(), curve))
    assert checks.check_cv_curve(program, float(hs[best]), y) == []
    altered = list(program)
    j = next(i for i, (_, cv) in enumerate(program) if math.isfinite(cv))
    altered[j] = (altered[j][0], altered[j][1] * (1 + 1e-6))
    assert checks.check_cv_curve(altered, float(hs[best]), y)
    other = float(hs[(best + 1) % len(hs)])
    assert checks.check_cv_curve(program, other, y)


def test_block_power_closed_form():
    amp, fs = 2.5, 44100.0
    for b in (441, 662):
        for start in (1, 17, 300):
            i = np.arange(start, start + b)
            direct = np.mean((amp * np.sin(2 * np.pi * 50.0 * (i - 1) / fs)) ** 2)
            assert checks.block_power(amp, [start], b, fs)[0] == pytest.approx(direct, rel=1e-12)


def mc_report(design, mse_by_b, failures=0):
    cells = [{"b": b, "metric": "mse_signal_power", "level": None, "mean": m, "se": 0.01,
              "replicas": 2, "failures": failures} for b, m in mse_by_b.items()]
    spec = {"design": design, "true_snr_db": 6.0, "noise_variance": 1.0, "fs_hz": 44100.0}
    return {"reports": {"mse": {"cells": cells, "spec": spec}}}


def test_mc_ordering_and_failures():
    ok = {"ar": mc_report("ar", {441: 0.006, 662: 0.004}), "p2": mc_report("p2", {441: 0.9, 662: 0.5})}
    assert checks.check_mc_reports(ok) == []
    flipped = {"ar": mc_report("ar", {441: 0.006, 662: 0.6}), "p2": ok["p2"]}
    assert checks.check_mc_reports(flipped)
    failing = {"ar": mc_report("ar", {441: 0.006, 662: 0.004}, failures=1), "p2": ok["p2"]}
    assert checks.check_mc_reports(failing)
    nan = {"ar": mc_report("ar", {441: math.nan, 662: 0.004}), "p2": ok["p2"]}
    assert checks.check_mc_reports(nan)


def test_mse_cell_recomputed():
    amp = checks.sine_amplitude(6.0)
    starts = [[5, 900, 1200], [33, 77, 4000]]
    truth = [checks.block_power(amp, s, 662, 44100.0) for s in starts]
    powers = [t + np.array([0.1, -0.2, 0.05]) for t in truth]
    per_replica = {662: list(zip(starts, powers))}
    mean = float(np.mean([np.mean((p - t) ** 2) for p, t in zip(powers, truth)]))
    report = mc_report("ar", {662: mean})
    assert checks.check_mse_cells(report, per_replica) == []
    report["reports"]["mse"]["cells"][0]["mean"] = mean * (1 + 1e-6)
    assert checks.check_mse_cells(report, per_replica)
