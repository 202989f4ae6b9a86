"""Kernel regression on a uniform design with a dependence-aware bandwidth.

The fit is a weight-normalized local average with the Epanechnikov kernel
(the raw unnormalized form is biased at the window edges and does not
reproduce constants; normalizing by the weight sum fixes both, which matters
because the subsampling layer applies the smoother to short blocks where
edges are a large fraction of the window).  The bandwidth is chosen by
minimizing a cross-validation objective whose correction factor accounts for
serial correlation of the errors through their estimated autocorrelations up
to a lag cutoff that grows like sqrt(n*h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DependenceRegime, lambda_n

__all__ = [
    "BandwidthGrid",
    "KernelFit",
    "epanechnikov",
    "priestley_chao_fit",
    "autocovariance",
    "cv_objective",
    "select_bandwidth",
]

# below this the squared-reciprocal correction factor explodes and the
# candidate bandwidth is discarded
CORRECTION_FLOOR = 0.05


def epanechnikov(u):
    """Epanechnikov kernel 0.75*(1 - u^2) on [-1, 1], zero outside."""
    u = np.asarray(u, dtype=np.float64)
    out = 0.75 * (1.0 - u * u)
    out = np.where(np.abs(u) <= 1.0, out, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class BandwidthGrid:
    """Log-spaced candidate bandwidths spanning [c1, c2] * Lambda**(-1/5).

    ``c1`` small and ``c2`` large make the grid wide enough to cover the
    optimal scale under any dependence regime; candidates are clipped to the
    half-interval (no h above 0.5).
    """

    c1: float = 0.05
    c2: float = 1.0
    points: int = 25

    def __post_init__(self):
        if not (0 < self.c1 < self.c2):
            raise ValueError(f"need 0 < c1 < c2, got ({self.c1}, {self.c2})")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")

    def values(self, n: int, regime: DependenceRegime | None = None) -> np.ndarray:
        """Concrete h values for a series of length n.

        Without a regime hint the short-range branch (Lambda = n) is used;
        its scale Lambda**(-1/5) is the smallest, and the wide [c1, c2]
        multipliers keep the long-range-optimal scales inside the grid.
        """
        lam = lambda_n(n, regime) if regime is not None else float(n)
        scale = lam ** (-0.2)
        hi = min(self.c2 * scale, 0.5)
        lo = min(self.c1 * scale, hi)
        return np.geomspace(lo, hi, self.points)


@dataclass(frozen=True)
class KernelFit:
    """Result of a bandwidth-selected kernel fit.

    ``fitted`` and ``residuals`` are aligned with the input samples; ``h_hat``
    is the selected bandwidth (a member of the evaluated grid), ``cv_curve``
    the evaluated (h, CV(h)) pairs, and ``m_lags`` the autocorrelation cutoff
    used at ``h_hat``.
    """

    fitted: np.ndarray
    residuals: np.ndarray
    h_hat: float
    cv_curve: tuple[tuple[float, float], ...]
    m_lags: int


@lru_cache(maxsize=512)
def _stencil(n: int, h: float):
    """Kernel weights on grid offsets and boundary weight sums for (n, h).

    On the uniform design the weight of sample i at evaluation point j/n
    depends only on the offset j - i, so one stencil serves every point.
    """
    radius = int(math.floor(n * h))
    offs = np.arange(-radius, radius + 1)
    w = epanechnikov(offs / (n * h))
    den = np.convolve(np.ones(n), w, mode="full")[radius:radius + n]
    w.flags.writeable = False
    den.flags.writeable = False
    return w, den, radius


def priestley_chao_fit(y, h: float) -> np.ndarray:
    """Weight-normalized kernel regression of samples on the grid i/n.

    Evaluates sum_i K((t - i/n)/h) * y_i / sum_i K((t - i/n)/h) at every
    sample position t = j/n.  Only samples within distance h of the
    evaluation point contribute; summation is a direct sliding window, so
    the boundary normalization is exact.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if not (0.0 < h <= 0.5):
        raise ValueError(f"bandwidth must lie in (0, 0.5], got {h}")
    w, den, radius = _stencil(n, float(h))
    num = np.convolve(y, w, mode="full")[radius:radius + n]
    return num / den


def autocovariance(residuals, j: int) -> float:
    """Lag-j autocovariance (1/n) * sum_t e_t * e_{t+j}, no mean subtraction."""
    e = np.asarray(residuals, dtype=np.float64)
    n = e.size
    if not (0 <= j < n):
        raise ValueError(f"lag must satisfy 0 <= j < {n}, got {j}")
    return float(e[:n - j] @ e[j:]) / n


def _correction_factor(e: np.ndarray, n: int, h: float, M: int) -> float:
    """1 - (1/(nh)) * sum_{|j|<=M} K(j/(nh)) * rho_hat(j) from residuals e.

    K vanishes past the stencil radius floor(nh), so lags stop at min(M, radius).
    """
    w, _, radius = _stencil(n, float(h))
    m = min(M, radius)
    g = np.correlate(np.concatenate([e, np.zeros(m)]), e, "valid")  # g[j] = sum_t e_t e_{t+j}
    acc = w[radius] + 2.0 * (w[radius + 1:radius + 1 + m] @ (g[1:] / g[0]))
    return 1.0 - float(acc) / (n * h)


def _cv_eval(y: np.ndarray, h: float, M: int):
    """CV value plus the fit it was computed from: (cv, fitted, residuals)."""
    if int(y.size * h) < 1:
        # window holds no neighbor: the fit degenerates to the identity
        return math.inf, None, None
    fitted = priestley_chao_fit(y, h)
    e = y - fitted
    mse = float(e @ e) / y.size
    if mse == 0.0:
        return 0.0, fitted, e
    factor = _correction_factor(e, y.size, h, M)
    if factor < CORRECTION_FLOOR:
        return math.inf, fitted, e
    return mse / (factor * factor), fitted, e


def cv_objective(y, h: float, M: int) -> float:
    """Correlation-corrected cross-validation objective at bandwidth h.

    Computes [1 - (1/(nh)) * sum_{j=-M..M} K(j/(nh)) * rho_hat(j)]**(-2)
    times the mean squared residual of the fit at h, with the residual
    autocorrelations rho_hat taken from this same fit.  Candidates whose
    correction factor falls below the guard threshold are invalid and get an
    infinite objective, as do bandwidths so small that the kernel window
    holds no neighbor (the fit would be the identity).
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if not (1 <= M <= n // 4):
        raise ValueError(f"lag cutoff must satisfy 1 <= M <= n/4, got M={M} at n={n}")
    return _cv_eval(y, h, M)[0]


def _lag_cutoff(n: int, h: float) -> int:
    return min(max(1, int(math.floor(math.sqrt(n * h)))), n // 4)


def select_bandwidth(
    y,
    regime: DependenceRegime | None = None,
    grid: BandwidthGrid | None = None,
) -> KernelFit:
    """Fit with the bandwidth minimizing the corrected CV over the grid.

    The lag cutoff is M = max(1, floor(sqrt(n*h))) per candidate, capped at
    n/4.  Ties in the argmin break toward the smaller h.  Raises if every
    candidate is rejected by the correction-factor guard.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n < 16:
        raise ValueError(f"need at least 16 samples, got {n}")
    if grid is None:
        grid = BandwidthGrid()
    hs = grid.values(n, regime)
    best = None
    curve = []
    for h in hs:
        h = float(h)
        M = _lag_cutoff(n, h)
        cv, fitted, e = _cv_eval(y, h, M)
        curve.append((h, cv))
        if math.isfinite(cv) and (best is None or cv < best[0]):
            best = (cv, h, fitted, e, M)
    if best is None:
        raise ValueError("correction factor degenerate across grid")
    _, h_hat, fitted, e, M = best
    return KernelFit(
        fitted=fitted,
        residuals=e,
        h_hat=h_hat,
        cv_curve=tuple(curve),
        m_lags=M,
    )

