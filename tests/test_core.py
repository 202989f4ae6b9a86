import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snrsub.core as core
from snrsub.core import (
    CHUNK_SAMPLES,
    SRD,
    DependenceRegime,
    TimeSeries,
    empirical_quantile,
    lambda_n,
    lrd,
    mapped_file,
    signal_power,
    snr_db,
    tau_n,
)
from snrsub.simgen import calibrate_amplitude

from conftest import quantile_bruteforce

positive = st.floats(min_value=1e-8, max_value=1e8)


class TestSnrDb:
    def test_examples(self):
        assert snr_db(1.0, 0.1) == pytest.approx(10.0, abs=1e-12)
        assert snr_db(0.5, 0.5) == 0.0

    def test_calibration_roundtrip(self):
        amp = calibrate_amplitude(6.0, 1.0)
        assert snr_db(amp * amp / 2.0, 1.0) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("ps,pn", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_nonpositive_power_rejected(self, ps, pn):
        with pytest.raises(ValueError):
            snr_db(ps, pn)

    @settings(max_examples=60, deadline=None)
    @given(p=positive, q=positive, a=positive)
    def test_scale_invariance(self, p, q, a):
        assert snr_db(a * p, a * q) == pytest.approx(snr_db(p, q), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(p=positive, q=positive)
    def test_antisymmetry(self, p, q):
        assert snr_db(p, q) == pytest.approx(-snr_db(q, p), abs=1e-9)


class TestScalingSequences:
    def test_lambda_branches(self):
        assert lambda_n(1000, SRD) == 1000.0
        e2 = math.e ** 2
        assert lambda_n(e2, lrd(1.0)) == pytest.approx(e2 / 2.0, rel=1e-12)
        assert lambda_n(e2, lrd(1.0)) == pytest.approx(3.69452804946533, rel=1e-10)
        assert lambda_n(100, lrd(0.4)) == pytest.approx(100 ** 0.4, rel=1e-12)
        assert lambda_n(100, lrd(0.4)) == pytest.approx(6.309573444801933, rel=1e-10)

    def test_tau_branches(self):
        assert tau_n(100, SRD) == pytest.approx(10.0, abs=1e-12)
        assert tau_n(100, lrd(0.4)) == pytest.approx(100 ** 0.4, rel=1e-12)
        assert tau_n(100, lrd(0.5)) == pytest.approx(math.sqrt(100 / math.log(100)), rel=1e-12)
        assert tau_n(100, lrd(0.5)) == pytest.approx(4.659905159, rel=1e-6)
        # above 1/2 the short-range rate applies
        assert tau_n(100, lrd(0.7)) == pytest.approx(10.0, abs=1e-12)
        assert tau_n(100, lrd(1.0)) == pytest.approx(10.0, abs=1e-12)

    def test_precondition(self):
        for fn in (lambda_n, tau_n):
            with pytest.raises(ValueError):
                fn(1, SRD)

    @pytest.mark.parametrize("regime", [SRD, lrd(0.3), lrd(0.5), lrd(0.8), lrd(1.0)])
    def test_nondecreasing_in_n(self, regime):
        ns = [2, 5, 10, 100, 1000, 10**6]
        for fn in (lambda_n, tau_n):
            vals = [fn(n, regime) for n in ns]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_tau_is_sqrt_lambda_under_srd(self):
        for n in (2, 17, 441, 10**5):
            assert tau_n(n, SRD) == pytest.approx(math.sqrt(lambda_n(n, SRD)), rel=1e-12)


class TestDependenceRegime:
    def test_lrd_gamma_required(self):
        with pytest.raises(ValueError):
            DependenceRegime("lrd")
        with pytest.raises(ValueError):
            lrd(0.0)
        with pytest.raises(ValueError):
            lrd(1.5)
        assert lrd(1.0).gamma1 == 1.0

    def test_srd_takes_no_gamma(self):
        with pytest.raises(ValueError):
            DependenceRegime("srd", 0.5)
        with pytest.raises(ValueError):
            DependenceRegime("mixed")


class TestEmpiricalQuantile:
    def test_examples(self):
        assert empirical_quantile([1, 2, 3, 4], 0.5) == 2
        assert empirical_quantile([7], 0.01) == 7
        assert empirical_quantile([7], 0.99) == 7

    def test_matches_bruteforce_scan(self, rng):
        values = rng.normal(size=100).tolist()
        assert empirical_quantile(values, 0.37) == quantile_bruteforce(values, 0.37)
        for g in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999):
            assert empirical_quantile(values, g) == quantile_bruteforce(values, g)

    def test_ties(self):
        assert empirical_quantile([1, 1, 2], 0.3) == 1
        assert empirical_quantile([1, 1, 2], 0.9) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        g1=st.floats(0.01, 0.99),
        g2=st.floats(0.01, 0.99),
    )
    def test_monotone_and_member(self, values, g1, g2):
        lo, hi = sorted((g1, g2))
        qlo = empirical_quantile(values, lo)
        qhi = empirical_quantile(values, hi)
        assert qlo <= qhi
        assert qlo in values and qhi in values

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0, math.nan], 0.5)


class TestSignalPower:
    def test_examples(self):
        assert signal_power([1, 1, 1, 1]) == 1.0
        assert signal_power([0, 0, 0]) == 0.0

    def test_sine_whole_periods(self):
        n = 44100
        t = np.arange(n) / 44100.0
        s = 2.0 * np.sin(2 * np.pi * 50.0 * t)  # 50 whole periods
        assert signal_power(s) == pytest.approx(2.0, abs=1e-9)

    def test_sign_flip_invariance(self, rng):
        x = rng.normal(size=64)
        assert signal_power(-x) == signal_power(x)

    def test_empty(self):
        with pytest.raises(ValueError):
            signal_power([])


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]), 1.0)
        with pytest.raises(ValueError):
            TimeSeries([1.0, math.nan], 1.0)
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], 0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            TimeSeries([1.0, 2.0], rate)

    def test_properties(self):
        ts = TimeSeries([0.5, 1.0, 1.5, 2.0], 2.0)
        assert ts.n == 4
        assert ts.duration_s == 2.0
        assert ts.samples.dtype == np.float64
        assert not ts.samples.flags.writeable

    # the check-chunk size the cases and their ids were made for; patched in
    CASE_CHUNK = 1 << 16

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, CASE_CHUNK - 1, CASE_CHUNK, -1])
    def test_non_finite_sample_found_in_any_check_chunk(self, monkeypatch, tmp_path, mapped,
                                                        bad, where):
        # two whole check chunks and a partial one; the bad sample sits on either
        # side of the first chunk boundary, or first or last in the series
        monkeypatch.setattr(core, "CHUNK_SAMPLES", self.CASE_CHUNK)
        self.assert_rejected(tmp_path, mapped, 2 * self.CASE_CHUNK + 5, where, bad)

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("where", [CHUNK_SAMPLES - 1, CHUNK_SAMPLES])
    def test_non_finite_sample_found_across_the_chunk_bound(self, tmp_path, mapped, where):
        # the same check at the bound itself, on either side of its first boundary
        self.assert_rejected(tmp_path, mapped, 2 * CHUNK_SAMPLES + 5, where, math.nan)

    @staticmethod
    def assert_rejected(tmp_path, mapped, n, where, bad):
        samples = np.linspace(-1.0, 1.0, n)
        samples[where] = bad
        if mapped:
            samples.tofile(tmp_path / "x.f64")
            samples = np.memmap(tmp_path / "x.f64", dtype="<f8", mode="r")
        with pytest.raises(ValueError, match="^samples contain non-finite values$"):
            TimeSeries(samples, 1.0)

    def test_float64_memmap_stays_mapped(self, tmp_path):
        np.arange(5.0).tofile(tmp_path / "x.f64")
        mm = np.memmap(tmp_path / "x.f64", dtype="<f8", mode="r")
        ts = TimeSeries(mm, 1.0)
        assert ts.samples is mm
        assert mapped_file(ts.samples) == (str(tmp_path / "x.f64"), 0)

    @pytest.mark.parametrize("dtype", [">f8", "<f4", "<i2"])
    def test_memmap_of_another_dtype_is_converted(self, tmp_path, dtype):
        np.arange(-2, 3).astype(dtype).tofile(tmp_path / "x.bin")
        ts = TimeSeries(np.memmap(tmp_path / "x.bin", dtype=dtype, mode="r"), 1.0)
        assert type(ts.samples) is np.ndarray and ts.samples.dtype == np.float64
        assert mapped_file(ts.samples) is None
        assert ts.samples.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_view_of_a_memmap_is_not_read_from_the_file(self, tmp_path):
        # a view does not know its place in the file, so it is never read from there
        np.arange(6.0).tofile(tmp_path / "x.f64")
        view = np.memmap(tmp_path / "x.f64", dtype="<f8", mode="r")[2:]
        assert mapped_file(view) is None
        assert TimeSeries(view, 1.0).samples.tolist() == [2.0, 3.0, 4.0, 5.0]
