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

from .core import CHUNK_SAMPLES, DependenceRegime, lambda_n

__all__ = [
    "BandwidthGrid",
    "KernelFit",
    "epanechnikov",
    "priestley_chao_fit",
    "pow2_scaled",
    "autocovariance",
    "cv_objective",
    "select_bandwidth",
]

# below this the squared-reciprocal correction factor explodes and the
# candidate bandwidth is discarded
CORRECTION_FLOOR = 0.05
# the shortest series ``select_bandwidth`` fits, and so the shortest block
MIN_BLOCK_SAMPLES = 16


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
    used at ``h_hat``.  ``fitted`` and ``residuals`` are those of the direct
    fit at ``h_hat``; a CV value in ``cv_curve`` is the direct one for the
    candidates ``select_bandwidth`` evaluated directly (``h_hat`` among
    them) and the FFT one otherwise, which may differ from the direct value
    in its last digits.
    """

    fitted: np.ndarray
    residuals: np.ndarray
    h_hat: float
    cv_curve: tuple[tuple[float, float], ...]
    m_lags: int


def _holds_neighbor(n: int, h: float) -> bool:
    """Whether the window at (n, h) holds a neighbor; else the fit is the identity."""
    return int(n * h) >= 1


def _kernel_stencil(n: int, h: float) -> tuple[np.ndarray, int]:
    """(w, r): read-only K(j/(nh)) at the offsets j = -r..r, r = floor(nh).  On the
    uniform design a weight depends only on the offset, so one stencil serves every point."""
    radius = int(math.floor(n * h))
    w = epanechnikov(np.arange(-radius, radius + 1) / (n * h))
    w.flags.writeable = False
    return w, radius


def _lag_weights(w: np.ndarray, radius: int, M: int) -> np.ndarray:
    """K(j/(nh)) for j = 1..min(M, radius), a view of ``w``: K is 0 past the radius."""
    return w[radius + 1:radius + 1 + min(M, radius)]


@lru_cache(maxsize=512)
def _stencil(n: int, h: float):
    """``_kernel_stencil`` and its boundary weight sums: (w, den, radius)."""
    w, radius = _kernel_stencil(n, h)
    den = np.convolve(np.ones(n), w, mode="full")[radius:radius + n]
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


def pow2_scaled(y: np.ndarray) -> tuple[np.ndarray, int]:
    """(y * 2**-e, e), e the binary exponent of max|y|: an exact rescale to
    magnitudes near 1, where sums of squares neither overflow nor underflow.
    ``np.ldexp(x, e)`` scales a fitted value back, ``np.ldexp(x, 2*e)`` a power."""
    e = int(np.frexp(np.max(np.abs(y)))[1])
    return np.ldexp(y, -e), e


def autocovariance(residuals, j: int) -> float:
    """Lag-j autocovariance (1/n) * sum_t e_t * e_{t+j}, no mean subtraction."""
    e = np.asarray(residuals, dtype=np.float64)
    n = e.size
    if not (0 <= j < n):
        raise ValueError(f"lag must satisfy 0 <= j < {n}, got {j}")
    return float(e[:n - j] @ e[j:]) / n


def _correction_factor(padded: np.ndarray, lag_weights: np.ndarray, nh: float) -> float:
    """1 - (1/(nh)) * sum_{|j|<=m} K(j/(nh)) * rho_hat(j) from residuals e.

    ``padded`` is e followed by m zeros and ``lag_weights`` holds K(j/(nh)) for
    j = 1..m; the autocovariances of lags 0..m are direct lag products of e.
    """
    g = np.correlate(padded, padded[:padded.size - lag_weights.size], "valid")  # sum_t e_t e_{t+j}
    rho = g[1:]
    rho /= g[0]
    return 1.0 - (_K0 + 2.0 * float(lag_weights.dot(rho))) / nh


def _cv_eval(y: np.ndarray, h: float, M: int):
    """CV value plus the fit it was computed from: (cv, fitted, residuals)."""
    if not _holds_neighbor(y.size, h):
        return math.inf, None, None
    fitted = priestley_chao_fit(y, h)
    e = y - fitted
    mse = float(e @ e) / y.size
    if mse == 0.0:
        return 0.0, fitted, e
    w, _, radius = _stencil(y.size, float(h))
    lags = _lag_weights(w, radius, M)
    factor = _correction_factor(np.concatenate([e, np.zeros(lags.size)]), lags, y.size * h)
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


_K0 = epanechnikov(0.0)  # K(0), the centre weight of every stencil and correction factor
# FFT CV values within this share of (min CV + mean(y**2)) of the minimum, and
# correction factors within CV_GUARD_BAND of CORRECTION_FLOOR, are decided by
# the direct fit, so rounding in the FFT arithmetic cannot move the argmin
CV_TIE_BAND = 1e-12
CV_GUARD_BAND = 1e-9
# the FFT fit's rounding is relative to the block's scale, so its CV has a
# relative error of about 1e-16 * sqrt(mean(y**2) / mse); below this share of
# mean(y**2) the residual energy is evaluated directly, which keeps every
# reported CV within 1e-12 of the direct value (and covers zero residuals)
CV_RESIDUAL_FLOOR = 1e-6


def _smooth_length(target: int) -> int:
    """Smallest 2**a * 3**b * 5**c at or above ``target``."""
    best = 1 << max(0, (target - 1).bit_length())
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < target:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class _CvPlan:
    """Per-(n, grid, regime) arrays of the batched CV engine.

    ``hs`` are the grid values.  Row k belongs to candidate ``index[k]``
    (candidates whose window holds no neighbor have no row).  ``spectra``
    holds the real rfft of each kernel stencil placed circularly at offset 0
    in ``length`` samples, ``length`` >= n + the largest radius, so the
    circular convolution equals the linear one on the n fitted points;
    ``den`` the boundary weight sums (cumulative, not ``_stencil``'s, which
    round apart); ``lag_weights`` views of each row's ``_kernel_stencil``.
    """

    hs: tuple[float, ...]
    index: np.ndarray
    spectra: np.ndarray
    den: np.ndarray
    lag_weights: tuple[np.ndarray, ...]
    length: int


@lru_cache(maxsize=1)
def _cv_plan(n: int, grid: BandwidthGrid, regime: DependenceRegime | None) -> _CvPlan:
    hs = tuple(grid.values(n, regime).tolist())
    index = [i for i, h in enumerate(hs) if _holds_neighbor(n, h)]
    stencils = [_kernel_stencil(n, hs[i]) for i in index]
    length = _smooth_length(n + max((r for _, r in stencils), default=0))
    spectra = np.empty((len(index), length // 2 + 1))
    den = np.empty((len(index), n))
    kern = np.zeros(length)
    pos = np.arange(n)
    for k, (w, r) in enumerate(stencils):
        kern[:] = 0.0
        kern[:r + 1] = w[r:]
        kern[length - r:] = w[:r]
        spectra[k] = np.fft.rfft(kern).real  # w is symmetric, so its spectrum is real
        csum = np.concatenate(([0.0], np.cumsum(w)))
        den[k] = csum[np.minimum(2 * r, r + pos) + 1] - csum[np.maximum(0, r + pos - n + 1)]
    lags = tuple(_lag_weights(w, r, _lag_cutoff(n, hs[i])) for i, (w, r) in zip(index, stencils))
    return _CvPlan(hs, np.array(index, dtype=np.int64), spectra, den, lags, length)


def _fft_cv(y: np.ndarray, plan: _CvPlan):
    """(cv, mse, factor) of every plan row from FFT fits of y.

    One rfft of y serves every row; rows are fitted ``core.CHUNK_SAMPLES``
    padded samples at a time (the cached plan holds every row), and
    each row's correction factor comes from direct lag products of its
    residuals, by the rule the direct fit uses.
    """
    n, rows = y.size, plan.index.size
    nh = [n * plan.hs[i] for i in plan.index.tolist()]
    mse, factor = np.empty(rows), np.zeros(rows)
    spec_y = np.fft.rfft(y, plan.length)
    batch = max(1, CHUNK_SAMPLES // plan.length)
    for lo in range(0, rows, batch):
        sl = slice(lo, min(lo + batch, rows))
        padded = np.fft.irfft(plan.spectra[sl] * spec_y, plan.length, axis=1)
        e = padded[:, :n]
        e /= plan.den[sl]
        np.subtract(y, e, out=e)
        padded[:, n:] = 0.0
        energy = np.einsum("ij,ij->i", e, e)
        mse[sl] = energy / n
        for k, (en, lags) in enumerate(zip(energy.tolist(), plan.lag_weights[sl]), lo):
            if en > 0.0:  # else the factor is undefined; CV_RESIDUAL_FLOOR sends the row direct
                factor[k] = _correction_factor(padded[k - lo, :n + lags.size], lags, nh[k])
    cv = np.full(rows, math.inf)
    valid = factor >= CORRECTION_FLOOR
    cv[valid] = mse[valid] / (factor[valid] * factor[valid])
    return cv, mse, factor


def select_bandwidth(
    y,
    regime: DependenceRegime | None = None,
    grid: BandwidthGrid | None = None,
) -> KernelFit:
    """Fit with the bandwidth minimizing the corrected CV over the grid.

    The lag cutoff is M = max(1, floor(sqrt(n*h))) per candidate, capped at
    n/4.  Ties in the argmin break toward the smaller h.  Raises if every
    candidate is rejected by the correction-factor guard.

    Every candidate's CV comes from FFT arithmetic.  The candidates that
    could be the minimum (within the tie band of it, or at the guard) and
    those whose residual energy is too small for the FFT's rounding (every
    candidate of a constant block) are evaluated again with the direct fit,
    and the first minimum among them wins; a zero block has no finite FFT
    value and takes the direct rule.  The selected h, its fit and its
    residuals are therefore those of the direct per-candidate rule.

    It runs on ``pow2_scaled(y)``; the fit, the residuals and the CV values
    are scaled back exactly, so nothing depends on the scale of y (a CV value
    past the float range reads inf).
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n < MIN_BLOCK_SAMPLES:
        raise ValueError(f"need at least {MIN_BLOCK_SAMPLES} samples, got {n}")
    y, e = pow2_scaled(y)
    if grid is None:
        grid = BandwidthGrid()
    plan = _cv_plan(n, grid, regime)
    curve = [math.inf] * len(plan.hs)
    best = _fft_guided_minimum(y, plan, curve)
    if best is None:
        best = _first_minimum(y, plan.hs, range(len(plan.hs)), curve)
    if best is None:
        raise ValueError("correction factor degenerate across grid")
    _, h_hat, fitted, residuals, M = best
    with np.errstate(over="ignore"):
        fitted, residuals = np.ldexp(fitted, e), np.ldexp(residuals, e)
        curve = np.ldexp(curve, 2 * e).tolist()
    return KernelFit(fitted=fitted, residuals=residuals, h_hat=h_hat,
                     cv_curve=tuple(zip(plan.hs, curve)), m_lags=M)


def _fft_guided_minimum(y: np.ndarray, plan: _CvPlan, curve: list):
    """``_first_minimum`` over the candidates the FFT values cannot rule out.

    Writes every FFT CV value into ``curve``, then the direct value of each
    candidate evaluated again.  Returns None when the FFT values cannot rank
    this block: none is finite, or the FFT minimum's direct value lies
    outside the tie band.
    """
    cv, mse, factor = _fft_cv(y, plan)
    for i, c in zip(plan.index.tolist(), cv.tolist()):
        curve[i] = c
    finite = np.isfinite(cv)
    if not finite.any():
        return None
    lowest = int(np.argmin(np.where(finite, cv, math.inf)))
    cv_min = float(cv[lowest])
    mean_sq = float(y @ y) / y.size
    tol = CV_TIE_BAND * (cv_min + mean_sq)
    direct = ((finite & (cv <= cv_min + tol)) | (mse <= CV_RESIDUAL_FLOOR * mean_sq)
              | (np.abs(factor - CORRECTION_FLOOR) <= CV_GUARD_BAND))
    best = _first_minimum(y, plan.hs, plan.index[direct].tolist(), curve)
    if abs(curve[plan.index[lowest]] - cv_min) > tol:
        return None
    return best


def _first_minimum(y: np.ndarray, hs, candidates, curve: list):
    """Direct ``_cv_eval`` of the listed candidates, in grid order.

    Writes each value into ``curve`` and returns the first finite minimum as
    (cv, h, fitted, residuals, M), or None.
    """
    best = None
    for i in candidates:
        h = hs[i]
        M = _lag_cutoff(y.size, h)
        cv, fitted, e = _cv_eval(y, h, M)
        curve[i] = cv
        if math.isfinite(cv) and (best is None or cv < best[0]):
            best = (cv, h, fitted, e, M)
    return best
