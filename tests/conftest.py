"""Shared test helpers: independent brute-force oracles kept deliberately dumb."""

import tracemalloc

import numpy as np
import pytest


def epan(u):
    return 0.75 * (1.0 - u * u) if abs(u) <= 1.0 else 0.0


def pc_fit_bruteforce(y, h, t_points):
    """Straight-line weight-normalized kernel regression, double loop."""
    n = len(y)
    out = []
    for t in t_points:
        num = 0.0
        den = 0.0
        for i in range(1, n + 1):
            w = epan((t - i / n) / h)
            num += w * y[i - 1]
            den += w
        out.append(num / den)
    return np.array(out)


def cv_bruteforce(y, h, M):
    """Straight-line reimplementation of the corrected CV objective."""
    n = len(y)
    grid = [j / n for j in range(1, n + 1)]
    shat = pc_fit_bruteforce(y, h, grid)
    e = np.asarray(y) - shat
    mse = sum(v * v for v in e) / n
    gamma = [sum(e[t] * e[t + j] for t in range(n - j)) / n for j in range(M + 1)]
    rho = [g / gamma[0] for g in gamma]
    acc = epan(0.0) * rho[0]
    for j in range(1, M + 1):
        acc += 2.0 * epan(j / (n * h)) * rho[j]
    factor = 1.0 - acc / (n * h)
    return factor ** (-2.0) * mse


def quantile_bruteforce(values, gamma2):
    """Scan of the inf-definition over the empirical CDF."""
    srt = sorted(values)
    k = len(srt)
    for x in srt:
        if sum(v <= x for v in srt) / k >= gamma2:
            return x
    return srt[-1]


def periodogram_slope(x, kmin=8):
    """Log-log slope of the bin-averaged periodogram."""
    n = x.size
    p = np.abs(np.fft.rfft(x)) ** 2
    k = np.arange(1, n // 2 + 1)
    p = p[1:n // 2 + 1]
    edges = np.unique(np.geomspace(kmin, k[-1] + 1, 40).astype(int))
    lx, ly = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (k >= lo) & (k < hi)
        if m.any():
            lx.append(np.mean(np.log(k[m])))
            ly.append(np.log(np.mean(p[m])))
    a = np.vstack([lx, np.ones(len(lx))]).T
    return float(np.linalg.lstsq(a, np.array(ly), rcond=None)[0][0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced by tracemalloc while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
