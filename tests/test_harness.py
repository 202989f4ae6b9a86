import json
import math
import os

import numpy as np
import pytest

from snrsub.core import TimeSeries, empirical_quantile
from snrsub.harness import (
    ExperimentSpec,
    dump_csv,
    dump_json,
    exhaustive_subsample_check,
    ks_distance,
    mc_reports,
    mse_signal_power,
    oracle_draws,
    oracle_quantiles,
    quantile_mae,
)
from snrsub.simgen import AR1_BURN_IN, NyquistError, calibrate_amplitude, derive_rng, design_noise, gen_design
from snrsub.subsample import ExcessiveSkipsError, KTooLargeError, default_b1

from conftest import traced_peak


def tiny_spec(**kw):
    defaults = dict(
        design="ar",
        true_snr_db=10.0,
        duration_s=0.25,
        block_lengths=(441,),
        k_blocks=48,
        replicas=4,
        seed=17,
        levels=(0.1, 0.5, 0.9),
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(replicas=0)
        with pytest.raises(ValueError):
            tiny_spec(levels=(0.5, 0.1))
        with pytest.raises(ValueError):
            tiny_spec(levels=(0.0, 0.5))
        with pytest.raises(ValueError, match="distinct, got \\(441, 441\\)"):
            tiny_spec(block_lengths=(441, 441))
        with pytest.raises(ValueError, match="must be >= 16 samples, got 13"):
            tiny_spec(block_lengths=(441, 13))
        for snr in (math.nan, math.inf, 1e5):
            with pytest.raises(ValueError, match="gives no positive finite amplitude"):
                tiny_spec(true_snr_db=snr)

    def test_run_shape_checked_against_n(self):
        # n = 0.25 s * 44.1 kHz = 11025 samples
        with pytest.raises(ValueError, match="positive integer, got 11025.441"):
            tiny_spec(duration_s=0.25001)
        with pytest.raises(ValueError, match="block length 11026 exceeds series length 11025"):
            tiny_spec(block_lengths=(441, 11026))
        with pytest.raises(KTooLargeError, match="k=10586 exceeds the 10585 admissible"):
            tiny_spec(k_blocks=10586)
        with pytest.raises(ValueError, match="k_blocks must be >= 1, got 0"):
            tiny_spec(k_blocks=0)
        assert tiny_spec(block_lengths=(11025,), k_blocks=1).block_lengths == (11025,)

    def test_rate_below_nyquist_rejected(self):
        # 80 Hz cannot carry the 50 Hz sine; 60 s gives 4800 samples, so the
        # block lengths of 24 and 32 samples would fit
        with pytest.raises(NyquistError, match="^50 Hz signal violates Nyquist at rate 80 Hz$"):
            tiny_spec(fs_hz=80, duration_s=60, block_lengths=(24, 32), k_blocks=20)


class TestDump:
    def test_csv_cells(self):
        text = dump_csv(("a", "b", "c"), [(1.0, None, 441), (np.float64(0.1), 2, "ar")])
        assert text == "a,b,c\n1.0,,441\n0.1,2,ar\n"
        assert dump_csv(("a",), []) == "a\n"

    def test_json_carries_the_schema_version(self):
        assert dump_json({"b": [1.5, None], "a": 1}) == '{"a":1,"b":[1.5,null],"schema_version":1}\n'

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_rejects_non_finite_floats(self, value):
        # NaN and Infinity are not JSON (RFC 8259), so no report may hold one
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json({"x": value})


class TestOracleQuantiles:
    def test_median_self_consistency(self):
        q = oracle_quantiles("ar", 10.0, 441, None, (0.5,), 2000, seed=1)
        assert abs(q[0.5] - 10.0) < 1.0

    def test_monotone_levels(self):
        q = oracle_quantiles("p1", 6.0, 441, None, (0.1, 0.5, 0.9), 800, seed=2)
        assert q[0.1] < q[0.5] < q[0.9]

    def test_vanishing_noise_pushes_all_mass_up(self):
        # amplitude fixed by a huge target SNR stands in for noise variance -> 0
        q = oracle_quantiles("ar", 120.0, 441, None, (0.05, 0.5), 500, seed=3)
        assert q[0.05] > 60.0

    def test_tails_asymmetric_for_strong_long_memory(self):
        # the per-block dB statistic is skewed: the two tail widths differ by
        # a stable margin (the log of a few-point variance is not symmetric)
        q = oracle_quantiles("p2", 6.0, 441, None, (0.1, 0.5, 0.9), 4000, seed=4)
        left = q[0.5] - q[0.1]
        right = q[0.9] - q[0.5]
        assert abs(right - left) > 0.2
        assert right > left  # direction observed consistently across seeds

    def test_deterministic(self):
        a = oracle_quantiles("p2", 6.0, 441, None, (0.5,), 200, seed=5)
        b = oracle_quantiles("p2", 6.0, 441, None, (0.5,), 200, seed=5)
        assert a == b

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            oracle_quantiles("x", 6.0, 441, None, (0.5,), 10, seed=0)

    @pytest.mark.parametrize("design", ["ar", "p1", "p2"])
    @pytest.mark.parametrize("b", [441, 662])
    def test_draws_equal_one_draw_at_a_time(self, design, b):
        import snrsub.harness as harness

        b1 = default_b1(b)
        _, slab = harness._oracle_slab(design_noise(design, 1.0).kind, b1)
        for count in (1, slab - 1, slab, slab + 1, 4000):
            got = oracle_draws(design, 6.0, b, None, count, seed=count)
            assert got.tobytes() == reference_oracle_draws(design, 6.0, b, count, count).tobytes()

    @pytest.mark.parametrize("design", ["ar", "p2"])
    def test_working_memory_is_one_slab_and_one_power_chunk(self, design):
        _, peak = traced_peak(oracle_draws, design, 6.0, 662, None, 4000, 9)
        assert peak <= 10 * 2**20

    @pytest.mark.parametrize("design,bound_mib", [("ar", 3), ("p2", 5)])
    def test_one_work_buffer_per_slab(self, design, bound_mib):
        # an AR(1) slab steps its innovations in place, and power-law normals
        # are drawn into the series buffer (4.16 and 6.31 MiB with separate
        # arrays); the first call warms numpy's caches, which are not the slab's
        oracle_draws(design, 6.0, 662, None, 4000, 9)
        _, peak = traced_peak(oracle_draws, design, 6.0, 662, None, 4000, 9)
        assert peak < bound_mib * 2**20

    def test_slab_sizes(self):
        import snrsub.harness as harness

        assert harness._oracle_slab("powerlaw", 11) == (harness.ORACLE_NOISE_LEN, 64)
        assert harness._oracle_slab("ar1", 11) == (11, 259)

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_draws_rejected(self, count):
        with pytest.raises(ValueError, match="oracle_replicas must be >= 1"):
            oracle_draws("ar", 10.0, 441, None, count, seed=0)

    def test_fractional_duration_rejected(self):
        with pytest.raises(ValueError, match="duration\\*rate must be a positive integer"):
            oracle_draws("ar", 10.0, 441, None, 10, seed=0, duration_s=0.10001)

    def test_quantiles_of_the_draws(self):
        draws = oracle_draws("ar", 10.0, 441, None, 300, seed=6)
        assert draws.shape == (300,)
        q = oracle_quantiles("ar", 10.0, 441, None, (0.1, 0.9), 300, seed=6)
        assert q == {g: empirical_quantile(draws, g) for g in (0.1, 0.9)}


def reference_block_power(amp, starts, b, fs):
    """Each block's mean(s**2), one whole-array expression per block."""
    out = np.empty(len(starts))
    for j, start in enumerate(starts):
        s = amp * np.sin(2.0 * np.pi * 50.0 * (start + np.arange(b)[None, :] - 1) / fs)
        out[j] = np.mean(s * s, axis=1)[0]
    return out


def reference_noise(noise, n, rng):
    """One draw of ``noise``; AR(1) noise is ``scipy.signal.lfilter`` on the
    same innovations, so it does not run the slab synthesis under test."""
    if noise.kind != "ar1":
        return noise.sample(n, rng)
    from scipy.signal import lfilter

    u = rng.normal(0.0, math.sqrt(noise.variance * (1.0 - noise.phi ** 2)), size=n + AR1_BURN_IN)
    return lfilter([1.0], [1.0, -noise.phi], u)[AR1_BURN_IN:]


def reference_oracle_draws(design, snr, b, replicas, seed, fs=44100.0, duration=3.0):
    """The oracle one draw at a time: all starts first, then each draw's noise."""
    noise = design_noise(design, 1.0)
    b1 = default_b1(b)
    draw_len = b1 if noise.kind == "ar1" else 4096
    rng = derive_rng(seed)
    starts = rng.integers(1, int(round(duration * fs)) - b + 2, size=replicas)
    u = reference_block_power(calibrate_amplitude(snr, 1.0), starts, b, fs)
    v = np.array([np.var(reference_noise(noise, draw_len, rng)[:b1]) for _ in range(replicas)])
    return 10.0 * np.log10(u / v)


class TestTrueBlockPower:
    N = 132_300  # a 3 s series at 44.1 kHz

    @pytest.mark.parametrize("b,count", [
        (441, 200),      # 74 blocks per chunk: 200 is not a multiple
        (662, 4000),
        (16, 5000),      # the shortest block
        (40_000, 3),     # a block longer than one chunk
        (441, 0),        # no starts
    ])
    def test_bits_of_the_whole_array_expression(self, monkeypatch, b, count):
        import snrsub.harness as harness

        monkeypatch.setattr(harness, "CHUNK_SAMPLES", 1 << 15)  # the cases are sized for it
        starts = derive_rng(b).integers(1, self.N - b + 2, size=count)
        if count:
            starts[0], starts[-1] = 1, self.N - b + 1  # first and last admissible start
        for amp in (1.0, calibrate_amplitude(6.0, 1.0)):
            got = harness._true_block_power(amp, starts, b, 44100.0)
            assert got.shape == (count,)
            assert got.tobytes() == reference_block_power(amp, starts, b, 44100.0).tobytes()


class TestMseReport:
    def test_cells_and_se_formula(self):
        rep = mse_signal_power(tiny_spec())
        assert len(rep.cells) == 1
        cell = rep.cells[0]
        assert cell.metric == "mse_signal_power"
        assert cell.b == 441
        assert cell.failures == 0
        vals = np.array(cell.values)
        assert len(vals) == 4
        assert cell.mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
        assert cell.se == pytest.approx(
            float(np.std(vals, ddof=1) / math.sqrt(len(vals))), rel=1e-12
        )

    def test_target_is_each_blocks_own_power(self):
        # a 662-sample block spans 1.5 periods of sin**2 at 50 Hz and 44.1 kHz,
        # so its true power is A**2 * (1/2 + sin(theta) / (3*pi)); scoring
        # against A**2/2 alone leaves a phase floor of A**4 / (18*pi**2)
        spec = tiny_spec(block_lengths=(662,))
        amp = calibrate_amplitude(spec.true_snr_db, spec.noise_variance)
        cell = mse_signal_power(spec).cells[0]
        assert cell.failures == 0
        assert cell.mean < 0.1 * amp ** 4 / (18 * math.pi ** 2)

    def test_global_target_keeps_phase_floor(self):
        # against A**2/2 a 662-sample block carries the phase floor; a
        # 441-sample block spans one period of sin**2, so both targets agree
        spec = tiny_spec(block_lengths=(441, 662))
        amp = calibrate_amplitude(spec.true_snr_db, spec.noise_variance)
        block = {c.b: c for c in mse_signal_power(spec).cells}
        glob = {c.b: c for c in mse_signal_power(spec, target="global").cells}
        assert {c.metric for c in glob.values()} == {"mse_signal_power_global"}
        assert glob[441].mean == pytest.approx(block[441].mean, rel=1e-9)
        assert glob[662].mean > 0.5 * amp ** 4 / (18 * math.pi ** 2)
        assert glob[662].mean > 10 * block[662].mean

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            mse_signal_power(tiny_spec(), target="series")

    def test_single_replica_has_no_se(self):
        rep = mse_signal_power(tiny_spec(replicas=1))
        assert rep.cells[0].se is None
        assert rep.cells[0].mean is not None

    def test_degenerate_noise_reports_invalid_cell(self, monkeypatch):
        import snrsub.harness as harness

        def all_skipped(series, cfg):
            raise ExcessiveSkipsError(cfg.k_blocks, cfg.k_blocks)

        monkeypatch.setattr(harness, "estimate_snr_distribution", all_skipped)
        rep = mse_signal_power(tiny_spec(replicas=2))
        cell = rep.cells[0]
        assert cell.failures == 2
        assert cell.mean is None and cell.se is None

    def test_failures_marked_per_block_length(self, monkeypatch):
        import snrsub.harness as harness

        real = harness.estimate_snr_distribution

        def skips_at_662(series, cfg):
            if cfg.b == 662:
                raise ExcessiveSkipsError(cfg.k_blocks, cfg.k_blocks)
            return real(series, cfg)

        monkeypatch.setattr(harness, "estimate_snr_distribution", skips_at_662)
        reports = mc_reports(tiny_spec(replicas=2, block_lengths=(441, 662)), ("mse", "qmae"),
                             oracle_replicas=100)
        cells = reports["mse"].cells + reports["qmae"].cells
        assert [(c.b, c.failures, c.mean is None) for c in cells] == (
            [(441, 0, False), (662, 2, True)] + [(441, 0, False)] * 3 + [(662, 2, True)] * 3)
        monkeypatch.setattr(harness, "estimate_snr_distribution", real)
        assert reports["mse"].cells[0] == mse_signal_power(tiny_spec(replicas=2)).cells[0]

    def test_tiny_noise_variance_scales_exactly(self):
        # variance 2**-100 scales the whole series by exactly 2**-50, so the
        # powers, and their squared errors, scale by powers of two
        unit = mse_signal_power(tiny_spec(replicas=2)).cells[0]
        tiny = mse_signal_power(tiny_spec(replicas=2, noise_variance=2.0 ** -100)).cells[0]
        assert tiny.failures == 0
        assert tiny.values == tuple(math.ldexp(v, -200) for v in unit.values)

    def test_overflowing_errors_give_an_infinite_mean_quietly(self):
        rep = mse_signal_power(tiny_spec(true_snr_db=3000, replicas=2))
        assert rep.cells[0].mean == math.inf
        with pytest.raises(ValueError, match="not JSON compliant"):
            rep.to_json()

    def test_serialization(self):
        rep = mse_signal_power(tiny_spec(replicas=2))
        payload = json.loads(rep.to_json())
        assert payload["schema_version"] == 1
        assert payload["spec"]["design"] == "ar"
        assert "values" not in payload["cells"][0]
        csv_text = rep.to_csv()
        assert csv_text.splitlines()[0] == "design,snr_db,b,metric,level,mean,se,replicas,failures"
        assert len(csv_text.splitlines()) == 2

    def test_int_snr_reads_the_same_in_both_formats(self):
        # the spec coerces the SNR to float, as it does the levels
        rep = mse_signal_power(tiny_spec(true_snr_db=6, replicas=2))
        payload = json.loads(rep.to_json())
        snrs = [payload["spec"]["true_snr_db"], payload["cells"][0]["true_snr_db"]]
        assert [repr(v) for v in snrs] == ["6.0", "6.0"]
        assert rep.to_csv().splitlines()[1].split(",")[1] == "6.0"


class TestQuantileMae:
    def test_cells_per_level(self):
        rep = quantile_mae(tiny_spec(replicas=3), oracle_replicas=400)
        assert len(rep.cells) == 3  # one per level
        for cell in rep.cells:
            assert cell.metric == "quantile_mae"
            assert cell.level in (0.1, 0.5, 0.9)
            assert cell.mean >= 0.0
            assert cell.failures == 0

    def test_zero_oracle_draws_fail_before_the_replicas(self, monkeypatch):
        import snrsub.harness as harness

        def no_replicas(*args):
            raise AssertionError("replica pass ran")

        monkeypatch.setattr(harness, "_run_replicas", no_replicas)
        with pytest.raises(ValueError, match="oracle_replicas must be >= 1, got 0"):
            quantile_mae(tiny_spec(replicas=2), oracle_replicas=0)

    def test_deterministic(self):
        a = quantile_mae(tiny_spec(replicas=2), oracle_replicas=300)
        b = quantile_mae(tiny_spec(replicas=2), oracle_replicas=300)
        assert [c.mean for c in a.cells] == [c.mean for c in b.cells]


class TestMcReports:
    def test_single_pass_equals_the_one_metric_reports(self):
        spec = tiny_spec(design="p2", replicas=2, block_lengths=(441, 662))
        both = mc_reports(spec, ("mse", "qmae"), oracle_replicas=300)
        assert both["mse"].to_json() == mse_signal_power(spec).to_json()
        assert both["qmae"].to_json() == quantile_mae(spec, oracle_replicas=300).to_json()

    def test_each_replica_estimated_once_per_block_length(self, monkeypatch):
        import snrsub.harness as harness

        calls = []
        real = harness.estimate_snr_distribution

        def counting(series, cfg):
            calls.append(cfg.b)
            return real(series, cfg)

        monkeypatch.setattr(harness, "estimate_snr_distribution", counting)
        spec = tiny_spec(replicas=3, block_lengths=(441, 662))
        mc_reports(spec, ("mse", "qmae"), oracle_replicas=100)
        assert len(calls) == spec.replicas * len(spec.block_lengths)

    def test_worker_pool_changes_no_cell(self):
        spec = tiny_spec(replicas=3)
        serial = mc_reports(spec, ("mse", "qmae"), oracle_replicas=200, workers=1)
        pooled = mc_reports(spec, ("mse", "qmae"), oracle_replicas=200, workers=2)
        for name in ("mse", "qmae"):
            assert pooled[name].cells == serial[name].cells  # values included

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            mc_reports(tiny_spec(replicas=1), ("mse", "rmse"))

    def test_oracles_run_in_the_worker_pool(self, monkeypatch):
        import snrsub.harness as harness

        parent, original = os.getpid(), harness.oracle_quantiles

        def workers_only(*args):
            if os.getpid() == parent:
                raise AssertionError("oracle drawn in the parent process")
            return original(*args)

        spec = tiny_spec(replicas=2, block_lengths=(441, 662))
        serial = mc_reports(spec, ("qmae",), oracle_replicas=200, workers=1)["qmae"]
        monkeypatch.setattr(harness, "oracle_quantiles", workers_only)
        pooled = mc_reports(spec, ("qmae",), oracle_replicas=200, workers=2)["qmae"]
        assert pooled.cells == serial.cells


class TestExhaustive:
    def _series(self, seed=11):
        rng = np.random.default_rng(seed)
        y = np.sin(2 * np.pi * 3 * np.arange(1, 65) / 64) + rng.normal(0, 0.3, 64)
        return TimeSeries(y, 64.0)

    def test_full_draw_equals_enumeration(self):
        cmp = exhaustive_subsample_check(self._series(), b=16, seed=5)
        assert cmp.k == cmp.n_starts == 49
        np.testing.assert_array_equal(cmp.randomized, cmp.exhaustive)
        assert cmp.ks == 0.0

    def test_two_seeds_same_multiset(self):
        a = exhaustive_subsample_check(self._series(), b=16, seed=1)
        b = exhaustive_subsample_check(self._series(), b=16, seed=2)
        np.testing.assert_array_equal(a.randomized, b.randomized)

    def test_partial_draw_contained_in_envelope(self):
        cmp = exhaustive_subsample_check(self._series(), b=16, k=25, seed=3)
        assert len(cmp.randomized) <= 25
        ex = list(cmp.exhaustive)
        for v in cmp.randomized:
            assert v in ex
            ex.remove(v)  # multiset containment
        assert cmp.randomized.min() >= cmp.exhaustive.min()
        assert cmp.randomized.max() <= cmp.exhaustive.max()

    def test_block_longer_than_series_is_rejected_by_the_fit_rule(self):
        with pytest.raises(ValueError, match="^block length 74 exceeds series length 64$"):
            exhaustive_subsample_check(self._series(), b=74)

    def test_ks_decreases_with_k(self):
        small, large = [], []
        for trial in range(20):
            series = self._series(seed=100 + trial)
            small.append(exhaustive_subsample_check(series, b=16, k=10, seed=trial).ks)
            large.append(exhaustive_subsample_check(series, b=16, k=40, seed=trial).ks)
        assert np.mean(large) < np.mean(small)


class TestKsDistance:
    def test_identical_and_disjoint(self):
        assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0
        assert ks_distance([0, 1], [5, 6]) == 1.0

    def test_symmetry(self, rng):
        a, b = rng.normal(size=30), rng.normal(size=50)
        assert ks_distance(a, b) == ks_distance(b, a)
