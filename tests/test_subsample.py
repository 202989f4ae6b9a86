import math
import multiprocessing
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snrsub.core as core
from snrsub.core import CHUNK_SAMPLES, TimeSeries, mapped_file
from snrsub.simgen import derive_seed, gen_design
from snrsub.subsample import (
    ExcessiveSkipsError,
    KTooLargeError,
    SubsampleConfig,
    block_estimate,
    confidence_interval,
    cut_block,
    default_b1,
    draw_blocks,
    estimate_blocks,
    estimate_snr_distribution,
    parallel_imap,
    select_block_size,
)

from conftest import traced_peak


def ar_series(duration=0.25, snr=10.0, seed=3, fs=44100.0):
    return gen_design("ar", snr, fs, duration, seed=seed)


def mapped(series, path):
    """The same series, read from a raw float64 file at ``path``."""
    series.samples.tofile(path)
    return TimeSeries(np.memmap(path, dtype="<f8", mode="r"), series.sample_rate_hz)


class TestConfig:
    def test_default_b1_rule(self):
        assert default_b1(441) == 11
        assert default_b1(662) == 13
        assert default_b1(16) == 4  # floored
        assert SubsampleConfig(b=441, k_blocks=10).b1 == 11
        assert SubsampleConfig(b=662, k_blocks=10).b1 == 13

    def test_b1_override_and_bounds(self):
        assert SubsampleConfig(b=100, k_blocks=5, b1=7).b1 == 7
        with pytest.raises(ValueError):
            SubsampleConfig(b=100, k_blocks=5, b1=3)
        with pytest.raises(ValueError):
            SubsampleConfig(b=100, k_blocks=5, b1=100)
        with pytest.raises(ValueError):
            SubsampleConfig(b=15, k_blocks=5)
        with pytest.raises(ValueError):
            SubsampleConfig(b=100, k_blocks=0)


class TestDrawBlocks:
    def test_single_admissible_start(self):
        assert list(draw_blocks(10, 10, 1, seed=0)) == [1]

    def test_exhaustive_draw(self):
        starts = draw_blocks(100, 10, 91, seed=5)
        assert sorted(starts) == list(range(1, 92))

    def test_distinct_in_range_reproducible(self):
        a = draw_blocks(10**5, 441, 200, seed=9)
        b = draw_blocks(10**5, 441, 200, seed=9)
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == 200
        assert a.min() >= 1 and a.max() <= 10**5 - 441 + 1
        c = draw_blocks(10**5, 441, 200, seed=10)
        assert not np.array_equal(a, c)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            draw_blocks(100, 10, 92, seed=0)

    def test_k_too_large_error_survives_pickling(self):
        # raised in a pool worker, it must reach the parent intact
        with pytest.raises(KTooLargeError) as info:
            draw_blocks(100, 10, 92, seed=0)
        back = pickle.loads(pickle.dumps(info.value))
        assert isinstance(back, ValueError) and type(back) is KTooLargeError
        assert str(back) == str(info.value) == "k=92 exceeds the 91 admissible block starts"

    def test_excessive_skips_error_survives_pickling(self):
        back = pickle.loads(pickle.dumps(ExcessiveSkipsError(3, 8)))
        assert type(back) is ExcessiveSkipsError
        assert (back.skipped, back.total) == (3, 8)
        assert str(back) == str(ExcessiveSkipsError(3, 8))


class TestBlockRange:
    @pytest.mark.parametrize("start, message", [
        (0, "block [0, 440] outside series of length 11025"),
        (10925, "block [10925, 11365] outside series of length 11025"),
    ])
    def test_estimate_blocks_rejects_a_block_outside_the_series(self, start, message):
        ts = ar_series()
        with pytest.raises(ValueError) as info:
            estimate_blocks(ts, [1, start], SubsampleConfig(b=441, k_blocks=2))
        assert str(info.value) == message

    def test_last_block_is_accepted(self):
        ts = ar_series()
        dist = estimate_blocks(ts, [ts.n - 440], SubsampleConfig(b=441, k_blocks=1))
        assert dist.kept.tolist() == [True]

    @pytest.mark.parametrize("b", [0, -5])
    def test_cut_block_rejects_an_empty_block(self, b):
        with pytest.raises(ValueError, match="outside series of length 11025"):
            cut_block(ar_series(), 1, b)

    # the check-chunk size the cases and their ids were made for; patched in
    CASE_CHUNK = 1 << 16

    @pytest.mark.parametrize("start, b", [
        (1, 441),  # the first block
        (CASE_CHUNK - 200, 441),  # across the first check-chunk boundary
        (2 * CASE_CHUNK + 17 - 441 + 1, 441),  # the last block
        (1, 2 * CASE_CHUNK + 17),  # the whole series
    ])
    def test_mapped_block_equals_the_slice(self, monkeypatch, tmp_path, start, b):
        monkeypatch.setattr(core, "CHUNK_SAMPLES", self.CASE_CHUNK)
        ts = TimeSeries(np.random.default_rng(1).normal(size=2 * self.CASE_CHUNK + 17), 1.0)
        ms = mapped(ts, tmp_path / "x.f64")
        assert mapped_file(ms.samples) is not None
        want = ts.samples[start - 1:start - 1 + b].tobytes()
        block = cut_block(ms, start, b)
        assert type(block) is np.ndarray and block.tobytes() == want
        assert cut_block(ts, start, b).tobytes() == want

    def test_mapped_block_from_a_shrunken_file_raises(self, tmp_path):
        ms = mapped(ar_series(), tmp_path / "x.f64")
        with open(tmp_path / "x.f64", "r+b") as f:
            f.truncate(8 * (ms.n - 100))
        assert cut_block(ms, 1, 441).size == 441
        with pytest.raises(OSError, match="the file changed while it was in use"):
            cut_block(ms, ms.n - 440, 441)


class TestEstimateBlocks:
    @pytest.mark.parametrize("shared", [False, True])
    def test_no_starts_give_empty_columns(self, shared):
        dist = estimate_blocks(ar_series(), [], SubsampleConfig(b=441, k_blocks=1,
                                                                shared_bandwidth=shared))
        columns = (dist.starts, dist.signal_power, dist.noise_variance, dist.snr_db,
                   dist.h_hat, dist.kept)
        assert [c.shape for c in columns] == [(0,)] * 6
        assert (dist.starts.dtype, dist.kept.dtype) == (np.int64, bool)
        assert (dist.count, dist.skipped, dist.estimates) == (0, 0, ())

    def test_every_start_is_checked_before_any_block_is_fitted(self, monkeypatch):
        import snrsub.subsample as sub

        def no_fit(*args):
            raise AssertionError("a block was fitted")

        monkeypatch.setattr(sub, "_block_values", no_fit)
        ts = ar_series()
        with pytest.raises(ValueError, match="outside series"):
            estimate_blocks(ts, [1, 500, ts.n - 439], SubsampleConfig(b=441, k_blocks=3))

    @pytest.mark.parametrize("shared", [False, True])
    def test_serial_selector_and_fit_calls_go_through_the_module_names(
            self, monkeypatch, shared):
        # the benchmark's spans wrap these two names in this module and count
        # one selection per block, or one in total plus one fit per block
        import snrsub.subsample as sub

        calls = {"select_bandwidth": 0, "priestley_chao_fit": 0}

        def counted(name):
            fn = getattr(sub, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sub, name, counted(name))
        k = 12
        cfg = SubsampleConfig(b=441, k_blocks=k, seed=5, shared_bandwidth=shared)
        estimate_snr_distribution(ar_series(), cfg)
        want = ({"select_bandwidth": 1, "priestley_chao_fit": k} if shared
                else {"select_bandwidth": k, "priestley_chao_fit": 0})
        assert calls == want

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mapped_series_gives_the_same_bytes(self, tmp_path, shared, workers):
        ts = ar_series(duration=1.0)
        cfg = SubsampleConfig(b=441, k_blocks=24, seed=6, workers=workers,
                              shared_bandwidth=shared)
        want = estimate_snr_distribution(ts, cfg)
        got = estimate_snr_distribution(mapped(ts, tmp_path / "x.f64"), cfg)
        for name in ("starts", "signal_power", "noise_variance", "snr_db", "h_hat", "kept"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_block_memory_does_not_grow_with_k(self, tmp_path):
        b = 4410
        ms = mapped(ar_series(duration=2.0, seed=11), tmp_path / "x.f64")
        starts = draw_blocks(ms.n, b, 400, seed=4)
        peak = {}
        for workers in (1, 2):
            cfg = SubsampleConfig(b=b, k_blocks=400, workers=workers)
            estimate_blocks(ms, starts, cfg)  # fills the plan and stencil caches first
            for k in (20, 400):
                peak[workers, k] = traced_peak(estimate_blocks, ms, starts[:k], cfg)[1]
        # serially one block is resident whatever K is: less than one block apart
        assert abs(peak[1, 400] - peak[1, 20]) < 8 * b, peak
        # a pool holds at most 2 * workers chunks, plus the pickled copy of one
        # being sent, which may transiently be twice its size
        window = (2 * 2 + 2) * CHUNK_SAMPLES * 8
        assert peak[2, 20] < window and peak[2, 400] < window, peak


class TestBlockEstimate:
    def test_signal_power_is_bruteforce_mean_of_squares(self):
        ts = ar_series()
        cfg = SubsampleConfig(b=441, k_blocks=1, seed=0)
        est = block_estimate(ts, 1000, cfg)
        from snrsub.smoother import select_bandwidth

        block = ts.samples[999:999 + 441]
        fit = select_bandwidth(block, grid=cfg.grid)
        brute_u = sum(v * v for v in fit.fitted) / 441
        assert est.signal_power == pytest.approx(brute_u, rel=1e-12)

    def test_noise_variance_is_two_pass_over_first_b1(self):
        ts = ar_series()
        cfg = SubsampleConfig(b=441, k_blocks=1, seed=0)
        est = block_estimate(ts, 777, cfg)
        from snrsub.smoother import select_bandwidth

        block = ts.samples[776:776 + 441]
        fit = select_bandwidth(block, grid=cfg.grid)
        window = fit.residuals[:11]
        mean = sum(window) / 11
        brute_v = sum((v - mean) ** 2 for v in window) / 11
        assert est.noise_variance == pytest.approx(brute_v, rel=1e-12)
        assert est.snr_db == pytest.approx(
            10 * math.log10(est.signal_power / est.noise_variance), rel=1e-12
        )

    def test_constant_block_skipped(self):
        ts = TimeSeries(np.ones(2000), 1000.0)
        cfg = SubsampleConfig(b=441, k_blocks=1, seed=0)
        est = block_estimate(ts, 5, cfg)
        assert est.skipped
        assert math.isnan(est.snr_db)

    def test_noiseless_sine_not_skipped_but_huge(self):
        from snrsub.simgen import SignalSpec, gen_sine

        ts = gen_sine(SignalSpec(1.0, 50.0, 44100.0, 0.1))
        cfg = SubsampleConfig(b=441, k_blocks=1, seed=0)
        est = block_estimate(ts, 100, cfg)
        assert not est.skipped
        assert est.snr_db > 40.0
        assert est.signal_power == pytest.approx(0.5, rel=0.05)

    def test_out_of_range_start(self):
        ts = ar_series(duration=0.05)
        cfg = SubsampleConfig(b=441, k_blocks=1, seed=0)
        with pytest.raises(ValueError):
            block_estimate(ts, ts.n - 100, cfg)


class TestEstimateDistribution:
    def test_single_block(self):
        ts = ar_series()
        cfg = SubsampleConfig(b=441, k_blocks=1, seed=4)
        dist = estimate_snr_distribution(ts, cfg)
        assert dist.count == 1
        v = dist.snr_values[0]
        for g in (0.05, 0.5, 0.95):
            assert dist.quantile(g) == v

    def test_sorted_and_consistent(self):
        ts = ar_series()
        dist = estimate_snr_distribution(ts, SubsampleConfig(b=441, k_blocks=64, seed=4))
        assert np.all(np.diff(dist.snr_values) >= 0)
        assert dist.count + dist.skipped == 64
        retained = sorted(e.snr_db for e in dist.estimates if not e.skipped)
        np.testing.assert_array_equal(dist.snr_values, retained)

    def test_columns_agree_with_the_estimates_view(self):
        ts = TimeSeries(np.concatenate([np.ones(200), ar_series(duration=0.05).samples]), 44100.0)
        dist = estimate_snr_distribution(ts, SubsampleConfig(b=64, k_blocks=80, seed=1))
        assert 0 < dist.skipped  # some blocks fall in the constant stretch
        ests = dist.estimates
        assert [e.start for e in ests] == dist.starts.tolist()
        assert [e.signal_power for e in ests] == dist.signal_power.tolist()
        assert [e.noise_variance for e in ests] == dist.noise_variance.tolist()
        assert [e.h_hat for e in ests] == dist.h_hat.tolist()
        assert [not e.skipped for e in ests] == dist.kept.tolist()
        np.testing.assert_array_equal([e.snr_db for e in ests], dist.snr_db)
        assert dist.skipped == sum(e.skipped for e in ests)
        np.testing.assert_array_equal(dist.snr_values, np.sort(dist.snr_db[dist.kept]))
        assert np.isnan(dist.snr_db[~dist.kept]).all()

    def test_worker_count_never_changes_results(self):
        ts = ar_series()
        base = estimate_snr_distribution(ts, SubsampleConfig(b=441, k_blocks=32, seed=7))
        for workers in (4, 8):
            alt = estimate_snr_distribution(
                ts, SubsampleConfig(b=441, k_blocks=32, seed=7, workers=workers)
            )
            np.testing.assert_array_equal(base.snr_values, alt.snr_values)
            assert [e.start for e in base.estimates] == [e.start for e in alt.estimates]

    def test_shared_bandwidth_mode(self):
        ts = ar_series()
        dist = estimate_snr_distribution(
            ts, SubsampleConfig(b=441, k_blocks=16, seed=7, shared_bandwidth=True)
        )
        hs = {e.h_hat for e in dist.estimates}
        assert len(hs) == 1

    def test_never_reads_outside_drawn_blocks(self):
        ts = ar_series()
        cfg = SubsampleConfig(b=441, k_blocks=24, seed=13)
        expected = estimate_snr_distribution(ts, cfg)
        starts = draw_blocks(ts.n, cfg.b, cfg.k_blocks, cfg.seed)
        poisoned = np.full(ts.n, 1e300)
        for t in starts:
            poisoned[t - 1:t - 1 + cfg.b] = ts.samples[t - 1:t - 1 + cfg.b]
        alt = estimate_snr_distribution(TimeSeries(poisoned, ts.sample_rate_hz), cfg)
        np.testing.assert_array_equal(expected.snr_values, alt.snr_values)

    def test_excessive_skips(self):
        ts = TimeSeries(np.ones(5000), 1000.0)
        with pytest.raises(ExcessiveSkipsError) as exc:
            estimate_snr_distribution(ts, SubsampleConfig(b=441, k_blocks=20, seed=1))
        assert exc.value.skipped == 20
        assert exc.value.total == 20

    def test_k_too_large(self):
        ts = ar_series(duration=0.02)
        with pytest.raises(ValueError):
            estimate_snr_distribution(ts, SubsampleConfig(b=441, k_blocks=10**6, seed=1))


class TestScaleInvariance:
    SERIES = gen_design("p2", 6.0, 4410.0, 1.0, seed=19)
    CFG = SubsampleConfig(b=64, k_blocks=24, seed=5)
    BASE = estimate_snr_distribution(SERIES, CFG)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-500, 500))
    def test_power_of_two_scale_changes_nothing(self, k):
        ts = TimeSeries(np.ldexp(self.SERIES.samples, k), self.SERIES.sample_rate_hz)
        dist = estimate_snr_distribution(ts, self.CFG)
        assert dist.snr_values.tobytes() == self.BASE.snr_values.tobytes()
        for a, b in zip(dist.estimates, self.BASE.estimates):
            assert (a.h_hat, a.skipped) == (b.h_hat, b.skipped)
            assert a.signal_power == math.ldexp(b.signal_power, 2 * k)
            assert a.noise_variance == math.ldexp(b.noise_variance, 2 * k)

    @pytest.mark.parametrize("scale", [1e-7, 1e-150, 1e160])
    def test_extreme_amplitudes_keep_the_quantiles(self, scale):
        # 1e-7 used to under-floor every block, 1e160 to overflow the CV
        ts = TimeSeries(self.SERIES.samples * scale, self.SERIES.sample_rate_hz)
        dist = estimate_snr_distribution(ts, self.CFG)
        assert dist.skipped == self.BASE.skipped
        np.testing.assert_allclose(dist.snr_values, self.BASE.snr_values, rtol=1e-9)

    @pytest.mark.parametrize("value", [0.0, 1.0, -3.5, 2.0 ** -600, 1e300])
    def test_zero_and_constant_blocks_still_skipped(self, value):
        est = block_estimate(TimeSeries(np.full(200, value), 1000.0), 10,
                             SubsampleConfig(b=64, k_blocks=1, seed=0))
        assert est.skipped
        assert math.isnan(est.snr_db)


class TestParallelMap:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tuples_of_different_lengths_are_passed_whole(self, workers):
        # a transposed pool.map would cut (2, 10, 1000) to pow(2, 10)
        got = list(parallel_imap(pow, [(2, 10), (2, 10, 1000), (3, 4)], workers))
        assert got == [1024, 24, 81]

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_generator_comes_back_in_input_order(self, workers, chunk):
        got = list(parallel_imap(pow, ((i, 2) for i in range(20)), workers, chunk))
        assert got == [i * i for i in range(20)]

    def test_serial_path_reads_each_item_just_before_its_call(self):
        events = []

        def items():
            for i in range(5):
                events.append(("read", i))
                yield (i,)

        def fn(i):
            events.append(("call", i))
            return i

        assert list(parallel_imap(fn, items(), 1, chunk=4)) == list(range(5))
        assert events == [(kind, i) for i in range(5) for kind in ("read", "call")]

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_pool_path_reads_at_most_the_window_ahead(self, chunk):
        read = []

        def items():
            for i in range(30):
                read.append(i)
                yield (i, 2)

        results = parallel_imap(pow, items(), 2, chunk)
        assert next(results) == 0
        assert len(read) == 2 * 2 * chunk  # 2 * workers tasks, the first one collected
        assert [0, *results] == [i * i for i in range(30)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_exception_reaches_the_caller_and_leaves_no_worker(self, tmp_path, workers):
        import snrsub.subsample as sub

        def items():
            yield from ((i, 2) for i in range(6))
            raise OSError("the file changed while it was in use")

        with pytest.raises(OSError, match="the file changed"):
            list(parallel_imap(pow, items(), workers))
        with pytest.raises(ValueError, match="not invertible"):  # raised in a call
            list(parallel_imap(pow, [(3, 2)] * 6 + [(2, -1, 4)] + [(3, 2)] * 6, workers))
        ms = mapped(ar_series(), tmp_path / "x.f64")
        with open(tmp_path / "x.f64", "r+b") as f:
            f.truncate(8 * (ms.n - 100))
        starts = np.arange(1, ms.n - 440, 250)  # the last start is past the new end
        with pytest.raises(OSError, match="the file changed while it was in use"):
            estimate_blocks(ms, starts, SubsampleConfig(b=441, k_blocks=1, workers=workers))
        assert multiprocessing.active_children() == [] and not sub._POOLS


class TestConfidenceInterval:
    def test_order_statistics_example(self):
        vals = np.arange(1.0, 101.0)
        dist = _dist_from_values(vals)
        assert confidence_interval(dist, 0.90) == (5.0, 95.0)

    @pytest.mark.xfail(strict=True, reason=(
        "alpha = 1.0 - level is 0.050000000000000044 at 0.95, so the lower end is "
        "the 6th order statistic; bench/checks.py:51 mirrors the same arithmetic, "
        "so the fix must land together with the benchmark's"))
    def test_lower_end_is_the_intended_order_statistic(self):
        dist = _dist_from_values(np.arange(1.0, 201.0))
        assert confidence_interval(dist, 0.95) == (5.0, 195.0)

    def test_single_value_zero_width(self):
        dist = _dist_from_values(np.array([3.3]))
        lo, hi = confidence_interval(dist, 0.9)
        assert lo == hi == 3.3

    def test_ordering_and_nesting(self, rng):
        for _ in range(20):
            vals = np.sort(rng.normal(size=rng.integers(5, 60)))
            dist = _dist_from_values(vals)
            lo, hi = confidence_interval(dist, 0.9)
            med = dist.quantile(0.5)
            assert lo <= med <= hi
            lo2, hi2 = confidence_interval(dist, 0.95)
            assert lo2 <= lo and hi <= hi2

    def test_level_bounds(self):
        dist = _dist_from_values(np.arange(1.0, 11.0))
        for level in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                confidence_interval(dist, level)


def _dist_from_values(values):
    from snrsub.subsample import SnrDistribution

    k = len(values)
    cfg = SubsampleConfig(b=16, k_blocks=max(1, k), seed=0)
    ones = np.ones(k)
    return SnrDistribution(starts=np.arange(1, k + 1), signal_power=ones, noise_variance=ones,
                           snr_db=np.asarray(values, dtype=np.float64), h_hat=ones,
                           kept=np.ones(k, dtype=bool), config=cfg)


class TestSelectBlockSize:
    def test_constant_quantiles_tie_to_smallest_interior(self, monkeypatch):
        import snrsub.subsample as sub

        fixed = _dist_from_values(np.arange(0.0, 40.0))

        monkeypatch.setattr(sub, "estimate_snr_distribution", lambda ts, cfg: fixed)
        ts = ar_series(duration=0.1)
        cand = [20, 30, 40, 50, 60]
        sel = sub.select_block_size(ts, cand, SubsampleConfig(b=20, k_blocks=8, seed=0))
        assert sel.chosen_b == 30  # smallest interior candidate
        interior = [v for v in sel.volatility if not math.isnan(v)]
        assert len(interior) == 3
        assert all(v == 0.0 for v in interior)
        assert math.isnan(sel.volatility[0]) and math.isnan(sel.volatility[-1])

    def test_end_to_end_choice_in_grid(self):
        ts = ar_series(duration=0.3, seed=8)
        cand = [int(round(ms * 44.1)) for ms in (4, 8, 12, 16, 20)]
        sel = select_block_size(ts, cand, SubsampleConfig(b=100, k_blocks=48, seed=5))
        assert sel.chosen_b in cand[1:-1]
        assert len(sel.q_low) == len(cand) == len(sel.q_high)

    def test_one_pool_for_all_candidates(self, monkeypatch):
        import concurrent.futures

        import snrsub.subsample as sub

        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        ts = ar_series(duration=0.3, seed=8)
        cand = [int(round(ms * 44.1)) for ms in (4, 8, 12, 16, 20)]
        cfg = SubsampleConfig(b=100, k_blocks=24, seed=5)
        want = select_block_size(ts, cand, cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        assert select_block_size(ts, cand, replace(cfg, workers=2)) == want
        assert started == [2] and not sub._POOLS

    def test_first_candidate_over_the_skip_budget_raises(self):
        import snrsub.subsample as sub

        samples = ar_series(duration=0.3, seed=8).samples.copy()
        samples[:9000] = 1.0  # blocks inside the constant stretch are skipped
        ts = TimeSeries(samples, 44100.0)
        cand = [64, 128, 256, 512, 1024]
        cfg = SubsampleConfig(b=64, k_blocks=40, seed=2)
        over = []
        for b in cand:
            try:
                estimate_snr_distribution(ts, replace(cfg, b=b, seed=derive_seed(cfg.seed, b)))
            except ExcessiveSkipsError as e:
                over.append((e.skipped, e.total))
        assert len(set(over)) >= 2  # candidates over budget, told apart by their counts
        for workers in (1, 2):
            with pytest.raises(ExcessiveSkipsError) as exc:
                select_block_size(ts, cand, replace(cfg, workers=workers))
            assert (exc.value.skipped, exc.value.total) == over[0]
        assert not sub._POOLS

    def test_grid_validation(self):
        ts = ar_series(duration=0.1)
        cfg = SubsampleConfig(b=100, k_blocks=8, seed=0)
        with pytest.raises(ValueError):
            select_block_size(ts, [100, 200, 300, 400], cfg)
        with pytest.raises(ValueError):
            select_block_size(ts, [100, 200, 200, 300, 400], cfg)
        with pytest.raises(ValueError):
            select_block_size(ts, [100, 200, 300, 400, 10**6], cfg)

    def test_infeasible_largest_candidate_reports_the_fit_rule(self):
        ts = ar_series(duration=0.1)  # 4410 samples
        cfg = SubsampleConfig(b=100, k_blocks=8, seed=0)
        with pytest.raises(ValueError, match="^block length 5000 exceeds series length 4410$"):
            select_block_size(ts, [100, 200, 300, 400, 5000], cfg)
        with pytest.raises(KTooLargeError, match="^k=8 exceeds the 4 admissible block starts$"):
            select_block_size(ts, [100, 200, 300, 400, 4407], cfg)
