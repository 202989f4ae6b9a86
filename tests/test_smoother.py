import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import snrsub.smoother as smoother
from snrsub.core import TimeSeries, lrd
from snrsub.harness import mise_probe
from snrsub.simgen import NoiseSpec, gen_ar1
from snrsub.subsample import SubsampleConfig, estimate_blocks
from snrsub.smoother import (
    BandwidthGrid,
    autocovariance,
    cv_objective,
    epanechnikov,
    priestley_chao_fit,
    select_bandwidth,
)

from conftest import cv_bruteforce, pc_fit_bruteforce


class TestEpanechnikov:
    def test_point_values(self):
        assert epanechnikov(0.0) == 0.75
        assert epanechnikov(1.0) == 0.0
        assert epanechnikov(-1.0) == 0.0
        assert epanechnikov(0.5) == 0.5625
        assert epanechnikov(2.0) == 0.0
        assert epanechnikov(-3.7) == 0.0

    def test_vectorized(self):
        u = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
        np.testing.assert_allclose(epanechnikov(u), [0.0, 0.0, 0.75, 0.5625, 0.0, 0.0])


class TestPriestleyChaoFit:
    @pytest.mark.parametrize("h", [0.02, 0.1, 0.3, 0.5])
    def test_constant_reproduction(self, h):
        y = np.full(128, 3.25)
        np.testing.assert_allclose(priestley_chao_fit(y, h), 3.25, rtol=0, atol=1e-12)

    def test_linearity(self, rng):
        y = rng.normal(size=100)
        z = rng.normal(size=100)
        a, b = 2.5, -1.25
        lhs = priestley_chao_fit(a * y + b * z, 0.08)
        rhs = a * priestley_chao_fit(y, 0.08) + b * priestley_chao_fit(z, 0.08)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_small_grid_against_bruteforce(self):
        y = [0.0, 1.0, 0.0, 1.0, 0.0]
        got = priestley_chao_fit(y, 0.25)[2]  # grid point 3/5
        want = pc_fit_bruteforce(y, 0.25, [3.0 / 5.0])
        assert got == pytest.approx(want[0], rel=1e-14)
        # direct hand evaluation: weights 0.27, 0.75, 0.27 on y2..y4
        assert got == pytest.approx(0.54 / 1.29, rel=1e-12)

    def test_grid_eval_matches_bruteforce(self, rng):
        y = rng.normal(size=64)
        grid = [j / 64 for j in range(1, 65)]
        for h in (0.05, 0.17, 0.5):
            np.testing.assert_allclose(
                priestley_chao_fit(y, h),
                pc_fit_bruteforce(y, h, grid),
                rtol=1e-12,
            )

    def test_bandwidth_bounds(self):
        y = np.ones(32)
        for h in (0.0, -0.1, 0.6):
            with pytest.raises(ValueError):
                priestley_chao_fit(y, h)
        with pytest.raises(ValueError):
            priestley_chao_fit(np.ones(2), 0.2)

    def test_interior_error_order_h_squared(self):
        # noiseless smooth signal: interior error scale err/h^2 stable across n
        h = 0.05
        cs = []
        for n in (512, 1024, 2048):
            t = np.arange(1, n + 1) / n
            s = np.sin(2 * np.pi * t)
            fit = priestley_chao_fit(s, h)
            interior = (t > h) & (t < 1 - h)
            cs.append(np.max(np.abs(fit[interior] - s[interior])) / h**2)
        assert max(cs) / min(cs) < 1.5

    def test_interior_error_decreases_with_h(self):
        n = 1024
        t = np.arange(1, n + 1) / n
        s = np.sin(2 * np.pi * t)
        errs = []
        for h in np.geomspace(0.3, 0.03, 8):
            fit = priestley_chao_fit(s, h)
            interior = (t > 0.3) & (t < 0.7)
            errs.append(np.max(np.abs(fit[interior] - s[interior])))
        assert all(b <= a * 1.05 for a, b in zip(errs, errs[1:]))


class TestAutocovariance:
    def test_hand_values(self):
        e = [1.0, -1.0, 1.0, -1.0]
        assert autocovariance(e, 0) == pytest.approx(1.0, rel=1e-15)
        assert autocovariance(e, 1) == pytest.approx(-0.75, rel=1e-15)

    def test_last_lag_single_term(self, rng):
        e = rng.normal(size=9)
        assert autocovariance(e, 8) == pytest.approx(e[0] * e[8] / 9, rel=1e-12)

    def test_lag_bounds(self):
        with pytest.raises(ValueError):
            autocovariance([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            autocovariance([1.0, 2.0], -1)

    def test_rho0_is_one(self, rng):
        e = rng.normal(size=40)
        assert autocovariance(e, 0) / autocovariance(e, 0) == 1.0


class TestCvObjective:
    def test_zero_residuals(self):
        y = np.full(64, 1.5)
        assert cv_objective(y, 0.2, 3) == 0.0

    def test_iid_limit_close_to_white_correction(self, rng):
        n = 4096
        y = rng.normal(size=n)
        h = 0.05
        cv = cv_objective(y, h, 1)
        fitted = priestley_chao_fit(y, h)
        e = y - fitted
        mse = float(e @ e) / n
        white = (1 - 0.75 / (n * h)) ** (-2) * mse
        assert cv == pytest.approx(white, rel=0.02)

    def test_matches_bruteforce(self, rng):
        n = 64
        y = np.sin(2 * np.pi * np.arange(1, n + 1) / n) + gen_ar1(0.5, 0.09, n, rng)
        cases = [(float(h), max(1, int(math.sqrt(n * h))))
                 for h in BandwidthGrid(points=10).values(n) if int(n * h) >= 1]
        # lag cutoffs past the kernel radius floor(n*h) = 12, up to n//4
        cases += [(0.2, 13), (0.2, 16)]
        for h, m in cases:
            got = cv_objective(y, h, m)
            want = cv_bruteforce(y, h, m)
            assert got == pytest.approx(want, rel=1e-12)

    def test_lag_cutoff_validated(self):
        y = np.ones(64)
        with pytest.raises(ValueError):
            cv_objective(y, 0.2, 0)
        with pytest.raises(ValueError):
            cv_objective(y, 0.2, 17)

    def test_tiny_window_invalid(self, rng):
        y = rng.normal(size=100)
        assert cv_objective(y, 0.005, 1) == math.inf


class TestBandwidthGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthGrid(c1=1.0, c2=0.5)
        with pytest.raises(ValueError):
            BandwidthGrid(points=1)

    def test_values_in_range(self):
        for n in (16, 64, 441, 10**5):
            vals = BandwidthGrid().values(n)
            assert len(vals) == 25
            assert np.all(vals > 0) and np.all(vals <= 0.5)
            assert np.all(np.diff(vals) > 0)

    def test_regime_scales(self):
        srd = BandwidthGrid().values(4096)
        long = BandwidthGrid().values(4096, lrd(0.4))
        assert long[-1] > srd[-1]  # long-memory scale is wider


class TestSelectBandwidth:
    def test_hat_in_grid_and_argmin(self, rng):
        y = np.sin(2 * np.pi * np.arange(1, 257) / 256) + rng.normal(0, 0.3, 256)
        fit = select_bandwidth(y)
        hs = [h for h, _ in fit.cv_curve]
        cvs = [cv for _, cv in fit.cv_curve]
        assert fit.h_hat in hs
        finite = [c for c in cvs if math.isfinite(c)]
        assert cvs[hs.index(fit.h_hat)] == min(finite)
        assert len(fit.fitted) == len(y) == len(fit.residuals)
        np.testing.assert_allclose(fit.residuals, y - fit.fitted, atol=0)

    def test_constant_series_ties_break_small(self):
        fit = select_bandwidth(np.full(64, 2.0))
        valid = [h for h, cv in fit.cv_curve if math.isfinite(cv)]
        assert fit.h_hat == min(valid)

    def test_noiseless_limit(self):
        n = 512
        t = np.arange(1, n + 1) / n
        s = np.sin(2 * np.pi * t)
        rmses = []
        for sd in (0.1, 1e-3, 1e-6):
            y = s + np.random.default_rng(5).normal(0, sd, n)
            fit = select_bandwidth(y)
            rmses.append(float(np.sqrt(np.mean((fit.fitted - s) ** 2))))
        # decreases to the bias floor of the smallest admissible bandwidth
        assert rmses[2] <= rmses[1] <= rmses[0]
        assert rmses[2] < rmses[0] / 10
        assert rmses[2] < 5e-3

    def test_rmse_within_twice_oracle(self, rng):
        n = 2048
        t = np.arange(1, n + 1) / n
        s = np.sin(2 * np.pi * t)
        y = s + rng.normal(0, 0.1, n)
        fit = select_bandwidth(y)
        oracle = min(
            np.sqrt(np.mean((priestley_chao_fit(y, h) - s) ** 2))
            for h, _ in fit.cv_curve
        )
        assert np.sqrt(np.mean((fit.fitted - s) ** 2)) <= 2.0 * oracle

    def test_correction_changes_selection_vs_uncorrected(self):
        # anti-correlated noise: the independence-assuming objective picks a
        # different bandwidth on a majority of replicas
        rng = np.random.default_rng(7)
        n = 256
        t = np.arange(1, n + 1) / n
        differs = 0
        for _ in range(50):
            y = np.sin(2 * np.pi * t) + gen_ar1(-0.7, 0.09, n, rng)
            fit = select_bandwidth(y)
            best = None
            for h, _ in fit.cv_curve:
                if int(n * h) < 1:
                    continue
                e = y - priestley_chao_fit(y, h)
                factor = 1 - 0.75 / (n * h)
                if factor < 0.05:
                    continue
                cv = (float(e @ e) / n) / factor**2
                if best is None or cv < best[0]:
                    best = (cv, h)
            differs += best[1] != fit.h_hat
        assert differs > 25

    def test_degenerate_grid_raises(self, rng):
        # grid below the sample spacing: every window is neighborless
        y = rng.normal(size=100)
        with pytest.raises(ValueError, match="degenerate"):
            select_bandwidth(y, grid=BandwidthGrid(c1=0.001, c2=0.01, points=5))

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            select_bandwidth(np.ones(15))


BLOCK_KINDS = ("white", "ar1", "powerlaw", "zero", "constant", "impulse",
               "clipped_sine", "alternating", "outlier")


def make_block(kind: str, n: int, seed: int) -> np.ndarray:
    """A test block of ``kind``: noise with a sine in it, or an adversarial shape."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1) / n
    sine = rng.uniform(0.1, 3.0) * np.sin(2 * np.pi * rng.uniform(0.2, 4.0) * t)
    noise = {"white": NoiseSpec.white(0.3), "ar1": NoiseSpec.ar1(0.6, 0.3),
             "powerlaw": NoiseSpec.powerlaw(0.7, 0.3)}
    if kind in noise:
        return sine + noise[kind].sample(n, rng)
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.uniform(-5.0, 5.0))
    if kind == "impulse":
        y = np.zeros(n)
        y[rng.integers(n)] = rng.uniform(0.5, 2.0)
        return y
    if kind == "clipped_sine":
        return np.clip(sine, -0.5, 0.5)
    if kind == "alternating":
        return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    y = NoiseSpec.white(1.0).sample(n, rng)  # outlier
    y[rng.integers(n)] = 1e6
    return y


def direct_selection(y):
    """Per-candidate ``cv_objective`` over the default grid and the first minimum."""
    n = y.size
    hs = BandwidthGrid().values(n).tolist()
    cvs = [cv_objective(y, h, min(max(1, int(math.floor(math.sqrt(n * h)))), n // 4))
           for h in hs]
    finite = [(cv, i) for i, cv in enumerate(cvs) if math.isfinite(cv)]
    return hs, cvs, hs[min(finite)[1]]


@pytest.fixture
def direct_calls(monkeypatch):
    """The h of every direct ``_cv_eval`` call, in call order."""
    calls = []
    original = smoother._cv_eval

    def counted(y, h, M):
        calls.append(h)
        return original(y, h, M)

    monkeypatch.setattr(smoother, "_cv_eval", counted)
    return calls


class TestBatchedCv:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(16, 5000), kind=st.sampled_from(BLOCK_KINDS),
           seed=st.integers(0, 2**32 - 1), k=st.integers(-40, 40))
    @example(n=5000, kind="clipped_sine", seed=1, k=0)
    @example(n=4410, kind="powerlaw", seed=2, k=-3)
    @example(n=16, kind="constant", seed=3, k=40)
    def test_equals_the_direct_rule(self, n, kind, seed, k):
        y = np.ldexp(make_block(kind, n, seed), k)
        fit = select_bandwidth(y)
        hs, cvs, h_hat = direct_selection(y)
        assert fit.h_hat == h_hat
        assert [h for h, _ in fit.cv_curve] == hs
        for (_, got), want in zip(fit.cv_curve, cvs):
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-12 * abs(want)
        assert fit.fitted.tobytes() == priestley_chao_fit(y, h_hat).tobytes()
        assert fit.residuals.tobytes() == (y - fit.fitted).tobytes()

    @settings(max_examples=15, deadline=None)
    @given(kinds=st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=6),
           b=st.integers(16, 600), seed=st.integers(0, 2**32 - 1))
    def test_adversarial_blocks_never_raise(self, kinds, b, seed):
        series = TimeSeries(np.concatenate([make_block(kind, b, seed + i)
                                            for i, kind in enumerate(kinds)]), 1000.0)
        starts = np.arange(len(kinds)) * b + 1
        dist = estimate_blocks(series, starts, SubsampleConfig(b=b, k_blocks=len(kinds)))
        assert dist.kept.size == len(kinds)
        assert np.all(np.isfinite(dist.snr_db[dist.kept]))
        assert not any(dist.kept[i] for i, kind in enumerate(kinds) if kind in ("zero", "constant"))

    @pytest.mark.parametrize("kind", ["white", "ar1", "powerlaw"])
    @pytest.mark.parametrize("n", [16, 441, 4410])
    def test_noisy_block_refits_only_the_winner(self, direct_calls, kind, n):
        fit = select_bandwidth(make_block(kind, n, 11))
        assert direct_calls == [fit.h_hat]

    def test_wrong_fft_values_fall_back_to_the_direct_rule(self, monkeypatch):
        original = smoother._fft_cv

        def reversed_cv(y, plan):  # the FFT minimum lands on another candidate
            cv, mse, factor = original(y, plan)
            return cv[::-1].copy(), mse, factor

        monkeypatch.setattr(smoother, "_fft_cv", reversed_cv)
        y = make_block("ar1", 441, 4)
        fit = select_bandwidth(y)
        hs, cvs, h_hat = direct_selection(y)
        assert fit.h_hat == h_hat
        assert [cv for _, cv in fit.cv_curve] == cvs

    @pytest.mark.parametrize("value", [0.0, 2.0, -0.5, 3.1])
    @pytest.mark.parametrize("n", [64, 441, 2205])
    def test_constant_block_takes_the_direct_rule(self, direct_calls, n, value):
        y = np.full(n, value)
        fit = select_bandwidth(y)
        assert len(direct_calls) == len(fit.cv_curve)
        hs, cvs, h_hat = direct_selection(y)
        assert fit.h_hat == h_hat
        assert [cv for _, cv in fit.cv_curve] == cvs
        if value in (0.0, 2.0, -0.5):  # every direct CV is exactly 0: the smallest h wins
            assert h_hat == min(h for h, cv in zip(hs, cvs) if math.isfinite(cv))

    @pytest.mark.parametrize("n", [64, 441, 2205])
    def test_near_constant_block_takes_the_tie_fallback(self, direct_calls, n):
        y = np.full(n, 3.1)
        y[n // 3] = np.nextafter(3.1, 4.0)
        fit = select_bandwidth(y)
        assert len(direct_calls) > 1  # more than the winner's refit
        hs, cvs, h_hat = direct_selection(y)
        assert fit.h_hat == h_hat
        assert [cv for _, cv in fit.cv_curve] == cvs

    @pytest.mark.parametrize("kind", ["zero", "constant", "impulse"])
    def test_degenerate_blocks_warn_nothing(self, kind):
        y = make_block(kind, 441, 3)
        series = TimeSeries(np.concatenate([y, y]), 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            select_bandwidth(y)
            estimate_blocks(series, [1, 442], SubsampleConfig(b=441, k_blocks=2))

    def test_plan_is_one_entry_and_batches_are_bounded(self, monkeypatch):
        monkeypatch.setattr(smoother, "CHUNK_SAMPLES", 1)  # one candidate per batch
        y = make_block("ar1", 700, 5)
        fit = select_bandwidth(y)
        assert fit.h_hat == direct_selection(y)[2]
        select_bandwidth(make_block("white", 300, 5))
        assert smoother._cv_plan.cache_info().currsize == 1

    @pytest.mark.parametrize("batch", [None, 1])
    @pytest.mark.parametrize("n", [16, 17, 64, 441, 4410])
    def test_fft_factor_is_the_lag_rule_on_fft_residuals(self, monkeypatch, n, batch):
        if batch is not None:
            monkeypatch.setattr(smoother, "CHUNK_SAMPLES", batch)  # one candidate per batch
        y = smoother.pow2_scaled(make_block("ar1", n, 8))[0]
        plan = smoother._cv_plan(n, BandwidthGrid(), None)
        _, _, factor = smoother._fft_cv(y, plan)
        spec_y = np.fft.rfft(y, plan.length)
        at_radius = 0
        for k, i in enumerate(plan.index.tolist()):
            h = plan.hs[i]
            radius = int(math.floor(n * h))
            lags = plan.lag_weights[k]
            assert lags.size == min(smoother._lag_cutoff(n, h), radius)
            at_radius += lags.size == radius
            fit = np.fft.irfft(plan.spectra[k] * spec_y, plan.length)[:n] / plan.den[k]
            e = np.concatenate([y - fit, np.zeros(lags.size)])
            assert factor[k] == smoother._correction_factor(e, lags, n * h)
        if n <= 64:  # short blocks have candidates whose lags reach the stencil radius
            assert at_radius > 0
        assert "lag_spectra" not in {f.name for f in dataclasses.fields(smoother._CvPlan)}

    @pytest.mark.parametrize("n", [16, 17, 64, 441, 4410])
    def test_plan_takes_its_lag_weights_from_the_stencil_rule(self, n):
        # both engines build their stencils by one rule, and K(0) is one constant
        plan = smoother._cv_plan(n, BandwidthGrid(), None)
        assert plan.index.size > 0
        for k, i in enumerate(plan.index.tolist()):
            h = plan.hs[i]
            w, _, radius = smoother._stencil(n, h)
            lags = plan.lag_weights[k]
            expected = w[radius + 1:radius + 1 + min(smoother._lag_cutoff(n, h), radius)]
            assert (lags.dtype, lags.shape) == (expected.dtype, expected.shape)
            assert lags.tobytes() == expected.tobytes()
            assert not lags.flags.owndata  # a view of the row's stencil, not a copy
        assert "centre" not in {f.name for f in dataclasses.fields(smoother._CvPlan)}
        assert smoother._K0 == w[radius] == 0.75

    @pytest.mark.parametrize("n", [16, 64, 441, 4410])
    def test_direct_factor_keeps_its_arithmetic(self, n):
        y = make_block("powerlaw", n, 9)
        for h in BandwidthGrid().values(n).tolist():
            M = smoother._lag_cutoff(n, h)
            cv, fitted, e = smoother._cv_eval(y, h, M)
            if fitted is None or not math.isfinite(cv):
                continue
            w, _, radius = smoother._stencil(n, h)
            m = min(M, radius)  # reference: the direct rule's lag sum written out in full
            g = np.correlate(np.concatenate([e, np.zeros(m)]), e, "valid")
            acc = w[radius] + 2.0 * (w[radius + 1:radius + 1 + m] @ (g[1:] / g[0]))
            factor = 1.0 - float(acc) / (n * h)
            assert cv == float(e @ e) / n / (factor * factor)

    def test_smooth_lengths(self):
        assert [smoother._smooth_length(t) for t in (1, 7, 17, 31, 5234, 5401)] == [
            1, 8, 18, 32, 5400, 5625]

    @pytest.mark.parametrize("k", [530, -530, -1000])
    @pytest.mark.parametrize("kind", ["white", "ar1", "powerlaw"])
    def test_selection_does_not_depend_on_scale(self, kind, k):
        # whole multiples of 2**-20, so even 2**-1000 times the block is exact
        y = np.round(make_block(kind, 441, 17) * 2.0**20) / 2.0**20
        unit = select_bandwidth(y)
        fit = select_bandwidth(np.ldexp(y, k))
        assert fit.h_hat == unit.h_hat
        assert fit.fitted.tobytes() == np.ldexp(unit.fitted, k).tobytes()
        assert fit.residuals.tobytes() == np.ldexp(unit.residuals, k).tobytes()


class TestMiseProbe:
    def test_rate_under_srd(self):
        m = mise_probe(lambda t: math.sin(2 * math.pi * t), NoiseSpec.white(0.01),
                       [1024, 2048], replicas=15, seed=3)
        ratio = m[1024] / m[2048]
        assert 2**0.6 <= ratio <= 2**1.0 * 1.35  # selection noise widens the bracket top

    def test_noiseless_bias_only(self):
        m = mise_probe(lambda t: math.sin(2 * math.pi * t), NoiseSpec.white(0.0),
                       [512, 1024], replicas=10, seed=1)
        assert m[1024] < m[512] < 1e-5

    def test_long_memory_decays_slower_than_ar(self):
        s = lambda t: math.sin(2 * math.pi * t)
        m_ar = mise_probe(s, NoiseSpec.ar1(-0.5, 0.01), [512, 1024], replicas=10, seed=2)
        m_p2 = mise_probe(s, NoiseSpec.powerlaw(0.6, 0.01), [512, 1024], replicas=10, seed=2)
        assert m_p2[512] / m_p2[1024] < m_ar[512] / m_ar[1024]
        assert m_p2[1024] > m_ar[1024]

    def test_replica_floor(self):
        with pytest.raises(ValueError):
            mise_probe(lambda t: 0.0, NoiseSpec.white(1.0), [64], replicas=5)
