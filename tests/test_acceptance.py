"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5, 6 and 8 share one 100-replica desk-scale experiment (module
fixture).  Criterion 6 asks for a per-replica ordering of quantile deviations
that sampling noise at K = 200 defeats, and is expected to fail; it runs
faithfully and reports the measured numbers.  The analysis of criteria 6 and
7 is the decisions ledger in CHANGES.md.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from snrsub.cli import main
from snrsub.core import TimeSeries
from snrsub.harness import (
    ExperimentSpec,
    exhaustive_subsample_check,
    mise_probe,
    mse_signal_power,
    oracle_quantiles,
    replica_distribution,
)
from snrsub.simgen import NoiseSpec, derive_seed, gen_ar1, gen_powerlaw
from snrsub.smoother import (
    BandwidthGrid,
    cv_objective,
    epanechnikov,
    priestley_chao_fit,
    select_bandwidth,
)
from snrsub.subsample import confidence_interval, parallel_imap

from conftest import periodogram_slope

SEED = 20240501
DESK = dict(fs_hz=44100.0, duration_s=3.0)  # n = 132,300
# the Monte Carlo criteria run on up to two processes; no result depends on
# the worker count (test_mapped_series_gives_the_same_bytes,
# test_worker_pool_changes_no_cell)
WORKERS = min(2, os.cpu_count() or 1)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def cv_bruteforce_matrix(y, h, M):
    """Independent CV oracle built from the full weight matrix."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    t = np.arange(1, n + 1) / n
    u = (t[:, None] - t[None, :]) / h
    w = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    fitted = (w @ y) / w.sum(axis=1)
    e = y - fitted
    mse = float(np.mean(e * e))
    g0 = float(e @ e) / n
    acc = 0.75
    for j in range(1, M + 1):
        acc += 2.0 * float(epanechnikov(j / (n * h))) * (float(e[:n - j] @ e[j:]) / n) / g0
    factor = 1.0 - acc / (n * h)
    return factor ** (-2.0) * mse


@pytest.fixture(scope="module")
def ar10_experiment():
    """100 desk-scale replicas of the AR design at 10 dB, b=441, K=200."""
    spec = ExperimentSpec("ar", 10.0, block_lengths=(441,), k_blocks=200,
                          replicas=100, seed=SEED, **DESK)
    t0 = time.perf_counter()
    dists = list(parallel_imap(replica_distribution,
                               ((spec, 441, r) for r in range(spec.replicas)), WORKERS))
    elapsed = time.perf_counter() - t0
    return spec, dists, elapsed


def test_criterion_1_kernel_correctness(rng):
    t0 = time.perf_counter()
    # epanechnikov point values, exact
    assert epanechnikov(0.0) == 0.75
    assert epanechnikov(1.0) == 0.0 == epanechnikov(-1.0)
    assert epanechnikov(0.5) == 0.5625
    # constant reproduction at every grid bandwidth
    y = np.full(200, -4.2)
    for h in BandwidthGrid().values(200):
        np.testing.assert_allclose(priestley_chao_fit(y, float(h)), -4.2, atol=1e-12)
    # linearity
    ya, yb = rng.normal(size=200), rng.normal(size=200)
    lhs = priestley_chao_fit(3.0 * ya - 0.5 * yb, 0.1)
    rhs = 3.0 * priestley_chao_fit(ya, 0.1) - 0.5 * priestley_chao_fit(yb, 0.1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    # CV equals the straight-line oracle to 1e-12 relative on n <= 256
    worst = 0.0
    for n in (64, 256):
        data = np.sin(2 * np.pi * np.arange(1, n + 1) / n) + gen_ar1(-0.5, 0.04, n, 7)
        for h in BandwidthGrid(points=10).values(n):
            h = float(h)
            if int(n * h) < 1:
                continue
            m = max(1, int(math.sqrt(n * h)))
            got = cv_objective(data, h, m)
            want = cv_bruteforce_matrix(data, h, m)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    report(1, "kernel-correctness", worst < 1e-12 and elapsed < 1.0,
           f"max relative CV deviation {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_bandwidth_optimality():
    t0 = time.perf_counter()
    n = 2048
    t = np.arange(1, n + 1) / n
    s = np.sin(2 * np.pi * t)
    ok = 0
    for r in range(50):
        y = s + NoiseSpec.white(0.01).sample(n, derive_seed(SEED, 2, r))
        fit = select_bandwidth(y)
        rmse_sel = float(np.sqrt(np.mean((fit.fitted - s) ** 2)))
        rmse_best = min(
            float(np.sqrt(np.mean((priestley_chao_fit(y, h) - s) ** 2)))
            for h, _ in fit.cv_curve
        )
        ok += rmse_sel <= 2.0 * rmse_best
    elapsed = time.perf_counter() - t0
    report(2, "bandwidth-optimality", ok >= 45 and elapsed < 30.0,
           f"{ok}/50 replicas within 2x the oracle RMSE, runtime {elapsed:.1f}s")


def test_criterion_3_mise_rate():
    t0 = time.perf_counter()
    m = mise_probe(lambda t: math.sin(2 * math.pi * t), NoiseSpec.white(0.01),
                   [1024, 4096], replicas=50, seed=derive_seed(SEED, 3))
    ratio = m[1024] / m[4096]
    floor = 2 ** 1.2  # two doublings at >= 2**0.6 each
    elapsed = time.perf_counter() - t0
    report(3, "mise-rate", ratio >= floor and elapsed < 60.0,
           f"MISE(1024)/MISE(4096) = {ratio:.2f} (floor {floor:.2f}, theory {2**1.6:.2f}), "
           f"runtime {elapsed:.1f}s")


def test_criterion_4_generator_fidelity():
    slopes = {}
    for beta in (0.0, 0.2, 0.6):
        x = gen_powerlaw(beta, 1.0, 2 ** 16, derive_seed(SEED, 4, int(beta * 10)))
        slopes[beta] = periodogram_slope(x)
    slope_ok = all(abs(slopes[b] + b) <= 0.1 for b in slopes)
    ar = gen_ar1(-0.7, 1.0, 10 ** 5, derive_seed(SEED, 4, 99))
    r1 = float(ar[:-1] @ ar[1:]) / float(ar @ ar)
    ar_ok = abs(r1 + 0.7) <= 0.03
    report(4, "generator-fidelity", slope_ok and ar_ok,
           f"slopes {{{', '.join(f'{b}: {s:.3f}' for b, s in slopes.items())}}}, "
           f"AR lag-1 {r1:.3f}")


@pytest.mark.slow
def test_criterion_5_distribution_center(ar10_experiment):
    spec, dists, fixture_elapsed = ar10_experiment
    t0 = time.perf_counter()
    devs = [abs(d.quantile(0.5) - 10.0) for d in dists]
    mean_dev = float(np.mean(devs))
    elapsed = fixture_elapsed + (time.perf_counter() - t0)
    report(5, "distribution-center", mean_dev <= 1.5 and elapsed < 300.0,
           f"mean |median - 10 dB| = {mean_dev:.2f} dB over 100 replicas "
           f"(full-scale reference 0.28), runtime {elapsed:.0f}s")


def test_criterion_6_tail_asymmetry(ar10_experiment):
    spec, dists, _ = ar10_experiment
    levels = (0.1, 0.5, 0.9)
    oracle = oracle_quantiles("ar", 10.0, 441, None, levels, 4000,
                              derive_seed(SEED, 6), **{"fs_hz": DESK["fs_hz"],
                                                       "duration_s": DESK["duration_s"]})
    joint = 0
    maes = {g: [] for g in levels}
    for d in dists:
        mae = {g: abs(d.quantile(g) - oracle[g]) for g in levels}
        for g in levels:
            maes[g].append(mae[g])
        joint += (mae[0.1] > mae[0.5]) and (mae[0.9] <= mae[0.1])
    agg = {g: float(np.mean(maes[g])) for g in levels}
    report(6, "tail-asymmetry", joint >= 80,
           f"joint tail condition in {joint}/100 replicas (need >= 80); "
           f"aggregate MAE dB {{0.1: {agg[0.1]:.2f}, 0.5: {agg[0.5]:.2f}, 0.9: {agg[0.9]:.2f}}} "
           "(estimates track the per-block oracle at all levels, so per-replica "
           "orderings are sampling noise; see decisions ledger)")


@pytest.mark.slow
def test_criterion_7_mse_ordering():
    specs = {
        design: ExperimentSpec(design, 6.0, block_lengths=(441, 662), k_blocks=200,
                               replicas=100, seed=derive_seed(SEED, 7, i), **DESK)
        for i, design in enumerate(("ar", "p1", "p2"))
    }
    mse = {}
    for design, spec in specs.items():
        cells = mse_signal_power(spec, workers=WORKERS).cells
        mse[design] = {c.b: c.mean for c in cells}
    ordering_ok = all(
        mse["ar"][b] <= mse["p1"][b] <= mse["p2"][b] for b in (441, 662)
    )
    b_ok = mse["ar"][662] < mse["ar"][441]
    detail = (
        f"AR {{441: {mse['ar'][441]:.4f}, 662: {mse['ar'][662]:.4f}}}, "
        f"P1 {{441: {mse['p1'][441]:.4f}, 662: {mse['p1'][662]:.4f}}}, "
        f"P2 {{441: {mse['p2'][441]:.4f}, 662: {mse['p2'][662]:.4f}}}; "
        f"AR<=P1<=P2 {'holds' if ordering_ok else 'violated'}, "
        f"AR/6 b=662 < b=441 {'holds' if b_ok else 'violated'} "
        "(each block scored against its own true signal power; see the "
        "decisions ledger in CHANGES.md)"
    )
    report(7, "mse-ordering", ordering_ok and b_ok, detail)


def test_criterion_8_ci_sanity(ar10_experiment):
    spec, dists, _ = ar10_experiment
    covered = 0
    nested = 0
    for d in dists:
        lo, hi = confidence_interval(d, 0.90)
        covered += lo <= 10.0 <= hi
        lo2, hi2 = confidence_interval(d, 0.95)
        nested += lo2 <= lo and hi <= hi2
    report(8, "ci-sanity", covered >= 70 and nested == 100,
           f"90% CI covered the true SNR in {covered}/100 replicas; "
           f"95% contained 90% in {nested}/100")


def test_criterion_9_exhaustive_equivalence():
    rng = np.random.default_rng(SEED)
    y = np.sin(2 * np.pi * 3 * np.arange(1, 65) / 64) + rng.normal(0, 0.3, 64)
    cmp = exhaustive_subsample_check(TimeSeries(y, 64.0), b=16, seed=SEED)
    equal = cmp.k == 49 and np.array_equal(cmp.randomized, cmp.exhaustive)
    report(9, "exhaustive-equivalence", equal,
           f"randomized multiset of {len(cmp.randomized)} values "
           f"{'equals' if equal else 'differs from'} the exhaustive enumeration")


def test_criterion_10_determinism_and_scaling(tmp_path, capsys):
    data = str(tmp_path / "long.raw")
    code = main(["simulate", "--design", "ar", "--snr", "10", "--duration", "100",
                 "--seed", "77", "--out", data])
    capsys.readouterr()
    assert code == 0
    outputs = []
    elapsed4 = None
    for threads in ("1", "4", "8"):
        t0 = time.perf_counter()
        code = main(["estimate", "--input", data, "--fs", "44100",
                     "--block-samples", "662", "--k", "200", "--seed", "5",
                     "--threads", threads])
        dt = time.perf_counter() - t0
        assert code == 0
        outputs.append(capsys.readouterr().out)
        if threads == "4":
            elapsed4 = dt
    identical = outputs[0] == outputs[1] == outputs[2]
    n = json.loads(outputs[0])["config"]["n"]
    report(10, "determinism-and-scaling",
           identical and n == 4_410_000 and elapsed4 < 60.0,
           f"byte-identical JSON across 1/4/8 workers: {identical}; "
           f"n={n:,}, 4-worker estimate took {elapsed4:.1f}s (< 60s)")
