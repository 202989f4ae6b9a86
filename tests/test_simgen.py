import hashlib
import math

import numpy as np
import pytest

from snrsub import simgen
from snrsub.core import signal_power, snr_db
from snrsub.simgen import (
    AR1_BURN_IN,
    DESIGNS,
    SIGNAL_FREQ_HZ,
    NoiseSpec,
    NyquistError,
    SignalSpec,
    calibrate_amplitude,
    derive_rng,
    derive_seed,
    design_noise,
    gen_ar1,
    gen_design,
    gen_powerlaw,
    gen_sine,
)

from conftest import periodogram_slope, traced_peak


class TestCalibrateAmplitude:
    def test_zero_db_half_variance(self):
        assert calibrate_amplitude(0.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_six_db(self):
        assert calibrate_amplitude(6.0, 1.0) == pytest.approx(
            math.sqrt(2.0 * 10.0**0.6), rel=1e-14
        )
        assert calibrate_amplitude(6.0, 1.0) == pytest.approx(2.8217271, rel=1e-7)

    def test_ten_db(self):
        assert calibrate_amplitude(10.0, 1.0) == pytest.approx(math.sqrt(20.0), rel=1e-14)

    def test_roundtrip_is_exact(self):
        for target in (-3.0, 0.0, 6.0, 10.0, 25.0):
            amp = calibrate_amplitude(target, 2.7)
            assert snr_db(amp * amp / 2.0, 2.7) == pytest.approx(target, abs=1e-12)

    def test_requires_positive_variance(self):
        with pytest.raises(ValueError):
            calibrate_amplitude(6.0, 0.0)

    @pytest.mark.parametrize("snr,variance", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                              (1e5, 1.0), (-1e5, 1.0), (6.0, math.inf)])
    def test_requires_positive_finite_amplitude(self, snr, variance):
        # 10 ** (snr / 10) overflows at 1e5 dB and underflows to 0 at -1e5 dB
        with pytest.raises(ValueError, match="gives no positive finite amplitude"):
            calibrate_amplitude(snr, variance)


class TestGenSine:
    def test_power_over_whole_periods(self):
        ts = gen_sine(SignalSpec(1.0, 50.0, 44100.0, 1.0))
        assert signal_power(ts.samples) == pytest.approx(0.5, abs=1e-6)

    def test_zero_amplitude(self):
        ts = gen_sine(SignalSpec(0.0, 50.0, 1000.0, 0.1))
        assert np.all(ts.samples == 0.0)

    @pytest.mark.parametrize("amp,f,fs,dur", [(2.3, 50.0, 44100.0, 3.0), (1.0, 1000.0, 8000.0, 0.5)])
    def test_bits_of_the_whole_array_expression(self, amp, f, fs, dur):
        t = np.arange(simgen.sample_count(dur, fs)) / fs
        want = amp * np.sin(2.0 * np.pi * f * t)
        assert gen_sine(SignalSpec(amp, f, fs, dur)).samples.tobytes() == want.tobytes()

    def test_first_sample_is_zero(self):
        ts = gen_sine(SignalSpec(2.0, 50.0, 44100.0, 0.01))
        assert ts.samples[0] == 0.0

    def test_nyquist_guard(self):
        with pytest.raises(NyquistError, match="^600 Hz signal violates Nyquist at rate 1000.0 Hz$"):
            SignalSpec(1.0, 600.0, 1000.0, 1.0)
        for f in (0.0, -50.0):  # a bad frequency, not a Nyquist violation
            with pytest.raises(ValueError, match="frequency must be positive") as info:
                SignalSpec(1.0, f, 1000.0, 1.0)
            assert not isinstance(info.value, NyquistError)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude(self, amp):
        with pytest.raises(ValueError, match="^amplitude must be finite, got "):
            SignalSpec(amp, 50.0, 1000.0, 1.0)

    @pytest.mark.parametrize("fs", [-100.0, 0.0, math.nan, math.inf])
    def test_rate_not_positive_and_finite(self, fs):
        # a bad rate, not a Nyquist violation
        with pytest.raises(ValueError, match="^sample rate must be positive and finite") as info:
            SignalSpec(1.0, 50.0, fs, 1.0)
        assert not isinstance(info.value, NyquistError)

    def test_integer_sample_count(self):
        with pytest.raises(ValueError):
            SignalSpec(1.0, 50.0, 1000.0, 0.0005)
        assert SignalSpec(1.0, 50.0, 44100.0, 30.0).n == 1_323_000

    @pytest.mark.parametrize("duration", [0.100001, 0.0, math.inf, math.nan])
    def test_sample_count_rejects_non_whole_lengths(self, duration):
        with pytest.raises(ValueError, match="duration\\*rate must be a positive integer"):
            simgen.sample_count(duration, 44100.0)
        assert simgen.sample_count(0.1, 44100.0) == 4410


def lfilter_ar1(phi, variance, n, seed):
    """gen_ar1's series as scipy.signal.lfilter computes it from the same innovations."""
    from scipy.signal import lfilter

    u = derive_rng(seed).normal(0.0, math.sqrt(variance * (1.0 - phi * phi)), size=n + AR1_BURN_IN)
    return lfilter([1.0], [1.0, -phi], u)[AR1_BURN_IN:]


def lfilter_ar1_rows(phi, variance, rows, n, rng):
    """``rows`` consecutive ``lfilter_ar1`` series, each from the next
    innovations of ``rng``."""
    from scipy.signal import lfilter

    sd = math.sqrt(variance * (1.0 - phi * phi))
    return np.array([lfilter([1.0], [1.0, -phi], rng.normal(0.0, sd, size=n + AR1_BURN_IN))[AR1_BURN_IN:]
                     for _ in range(rows)])


def chunk_edges(phi):
    """Lengths n around two changes of the scan's chunk count, the first
    from the burn-in on and the first from 300 000 samples on (burn-in
    included): the last n before each change, the first after, the next."""
    warmup = simgen._ar1_warmup(phi)

    def chunks(size):
        return -(-size // simgen._ar1_chunk_length(size, warmup))

    edges = []
    for size in (AR1_BURN_IN + 1, 300_000):
        while chunks(size + 1) == chunks(size):
            size += 1
        edges += [size - AR1_BURN_IN, size + 1 - AR1_BURN_IN, size + 2 - AR1_BURN_IN]
    return edges


AR1_CASES = [(-0.7, 64), (-0.999, 5000)] + [
    (phi, n) for phi in (-0.9999, -0.999, -0.7, 0.0, 0.5, 0.99, 0.9999)
    for n in sorted({1, 16, 1011, 300_000, *chunk_edges(phi)})
]


class TestGenAr1:
    def test_phi_zero_is_white(self):
        x = gen_ar1(0.0, 1.0, 10**5, 11)
        assert np.var(x) == pytest.approx(1.0, abs=0.05)
        r1 = (x[:-1] @ x[1:]) / (x @ x)
        assert abs(r1) < 0.02

    def test_lag_one_autocorrelation(self):
        x = gen_ar1(-0.7, 1.0, 10**5, 12)
        r1 = (x[:-1] @ x[1:]) / (x @ x)
        assert r1 == pytest.approx(-0.7, abs=0.03)

    def test_stationary_variance(self):
        x = gen_ar1(-0.7, 1.0, 10**5, 13)
        assert np.var(x) == pytest.approx(1.0, abs=0.05)

    def test_lag_k_geometric(self):
        x = gen_ar1(-0.7, 1.0, 10**5, 14)
        denom = float(x @ x)
        for k in range(1, 6):
            rk = float(x[:-k] @ x[k:]) / denom
            assert rk == pytest.approx((-0.7) ** k, abs=0.05)

    def test_deterministic(self):
        a = gen_ar1(-0.7, 2.0, 500, 99)
        b = gen_ar1(-0.7, 2.0, 500, 99)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("phi,n", AR1_CASES)
    def test_python_recursion_is_bit_identical_to_lfilter(self, phi, n):
        assert gen_ar1(phi, 2.0, n, derive_rng(4)).tobytes() == lfilter_ar1(phi, 2.0, n, 4).tobytes()

    def test_design_length_is_bit_identical_to_lfilter(self):
        n = 4_410_000  # a 100 s recording at 44.1 kHz
        assert gen_ar1(-0.7, 1.0, n, derive_rng(5)).tobytes() == lfilter_ar1(-0.7, 1.0, n, 5).tobytes()

    def test_scan_doubles_a_warmup_too_short_to_coalesce(self, monkeypatch):
        shapes, steps = [], simgen._ar1_steps

        def spy(x, phi):
            shapes.append(x.shape)
            steps(x, phi)

        monkeypatch.setattr(simgen, "_ar1_warmup", lambda phi: 1)
        monkeypatch.setattr(simgen, "_ar1_steps", spy)
        got = gen_ar1(-0.7, 2.0, 300_000, derive_rng(4))
        assert len(shapes) > 1 and shapes[1][0] == shapes[0][0] + 1  # warm-up 1, then 2, ...
        assert got.tobytes() == lfilter_ar1(-0.7, 2.0, 300_000, 4).tobytes()

    def test_invalid_phi(self):
        with pytest.raises(ValueError):
            gen_ar1(1.0, 1.0, 10, 0)


class TestGenPowerlaw:
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.6])
    def test_spectrum_slope(self, beta):
        x = gen_powerlaw(beta, 1.0, 2**16, 123)
        assert periodogram_slope(x) == pytest.approx(-beta, abs=0.1)

    def test_zero_mean_and_exact_variance(self):
        for n in (2**10, 2**10 + 1):  # even and odd lengths
            x = gen_powerlaw(0.6, 3.0, n, 5)
            assert abs(np.mean(x)) < 1e-12
            assert np.var(x) == pytest.approx(3.0, rel=1e-12)

    def test_deterministic(self):
        a = gen_powerlaw(0.2, 1.0, 1024, 3)
        b = gen_powerlaw(0.2, 1.0, 1024, 3)
        np.testing.assert_array_equal(a, b)

    def test_bounds(self):
        with pytest.raises(ValueError, match="^spectral exponent must lie in \\[0, 1\\], got 1.5$"):
            gen_powerlaw(1.5, 1.0, 64, 0)
        with pytest.raises(ValueError):
            gen_powerlaw(0.5, 1.0, 8, 0)

    @pytest.mark.parametrize("variance", [-1.0, 0.0, math.nan])
    def test_invalid_variance(self, variance):
        with pytest.raises(ValueError, match=f"^invalid variance {variance} for powerlaw noise$"):
            gen_powerlaw(0.6, variance, 64, 1)

    # sha256 prefixes of the series the one-draw-at-a-time synthesis wrote,
    # before the synthesis became the one-row case of the row-batched one
    @pytest.mark.parametrize("n,beta,variance,seed,sha", [
        (16, 0.6, 3.0, 5, "d51d567ec1b6b3cd3bc64767ce7b9d03"),
        (17, 0.2, 1.0, 6, "a0fe0ca9352e27d978b14aef51b35f61"),
        (4096, 0.6, 1.0, 7, "475b706c3ad19af7960607764178e4df"),
        (132300, 0.2, 2.5, 8, "5ef9b62c495b9ebb8533c3ba9026ff02"),
    ])
    def test_values_pinned(self, n, beta, variance, seed, sha):
        x = gen_powerlaw(beta, variance, n, seed)
        assert x.shape == (n,)
        assert hashlib.sha256(x.tobytes()).hexdigest()[:32] == sha

    # sha256 prefixes of multi-row slabs as the per-row rescale loop wrote
    # them, which pin the row-wise rescale independently of the one-row calls:
    # 65 rows in one slab, and 130 rows in slabs of 64, 64 and an uneven 2
    def test_rows_pinned(self):
        x = NoiseSpec.powerlaw(0.6, 1.0).sample_rows(65, 4096, 7)
        assert hashlib.sha256(x.tobytes()).hexdigest()[:32] == "daee724e702d272a8c58849f20093e86"

    def test_uneven_slabs_pinned(self):
        slabs = [rows.copy() for rows in NoiseSpec.powerlaw(0.2, 2.5).slabs(130, 4096, 64, 8)]
        assert [rows.shape[0] for rows in slabs] == [64, 64, 2]
        x = np.concatenate(slabs)
        assert hashlib.sha256(x.tobytes()).hexdigest()[:32] == "223fa52b533b095777da4e382f477d15"


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("pink")
        with pytest.raises(ValueError):
            NoiseSpec.ar1(1.2, 1.0)
        with pytest.raises(ValueError):
            NoiseSpec.powerlaw(0.2, 0.0)
        assert NoiseSpec.white(0.0).variance == 0.0

    @pytest.mark.parametrize("kind", ["white", "ar1", "powerlaw"])
    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
    def test_non_finite_variance(self, kind, variance):
        with pytest.raises(ValueError, match=f"^invalid variance {variance} for {kind} noise$"):
            NoiseSpec(kind, variance)

    def test_innovation_sd(self):
        spec = NoiseSpec.ar1(-0.7, 1.0)
        assert spec.ar1_innovation_sd == pytest.approx(math.sqrt(1 - 0.49), rel=1e-12)
        with pytest.raises(ValueError):
            NoiseSpec.white(1.0).ar1_innovation_sd

    def test_sample_dispatch(self):
        for spec in (NoiseSpec.white(1.0), NoiseSpec.ar1(0.5, 1.0), NoiseSpec.powerlaw(0.2, 1.0)):
            x = spec.sample(256, 7)
            assert x.shape == (256,)

    @pytest.mark.parametrize("spec", [NoiseSpec.white(2.0), NoiseSpec.ar1(-0.7, 1.5),
                                      NoiseSpec.ar1(0.9, 1.0), NoiseSpec.powerlaw(0.2, 1.0),
                                      NoiseSpec.powerlaw(0.6, 3.0)])
    @pytest.mark.parametrize("rows,n", [(1, 16), (5, 17), (3, 64), (7, 1024)])
    def test_sample_rows_equal_consecutive_samples(self, spec, rows, n):
        rng = derive_rng(12)
        want = np.array([spec.sample(n, rng) for _ in range(rows)])
        got = spec.sample_rows(rows, n, derive_rng(12))
        assert got.shape == (rows, n) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variance", [2.0, 0.0])
    @pytest.mark.parametrize("n", [1, 17, 1024])
    def test_white_sample_equals_rng_normal(self, variance, n):
        # sample and sample_rows both draw white noise through the slabs, so
        # the reference is numpy's own draw; at variance 0 every value is +0.0
        got = NoiseSpec.white(variance).sample(n, derive_rng(8))
        want = derive_rng(8).normal(0.0, math.sqrt(variance), size=n)
        assert got.tobytes() == want.tobytes()
        if variance == 0.0:
            assert got.tobytes() == np.zeros(n).tobytes()

    @pytest.mark.parametrize("spec", [NoiseSpec.white(2.0), NoiseSpec.ar1(-0.7, 1.0),
                                      NoiseSpec.powerlaw(0.6, 1.0)])
    @pytest.mark.parametrize("count,slab", [(0, 4), (1, 4), (7, 3), (8, 4), (5, 8)])
    def test_slabs_cut_sample_rows(self, spec, count, slab):
        got = [rows.copy() for rows in spec.slabs(count, 64, slab, derive_rng(4))]
        assert [r.shape[0] for r in got] == [min(slab, count - lo) for lo in range(0, count, slab)]
        want = spec.sample_rows(count, 64, derive_rng(4))
        assert np.concatenate(got or [np.empty((0, 64))]).tobytes() == want.tobytes()

    # sample and sample_rows both run the AR(1) slabs, so rows are checked
    # against lfilter: (3, 300 000) chunks its rows, and (259, 11) and
    # (115, 11) are the oracle's full and last slabs at 4000 draws
    @pytest.mark.parametrize("phi", [-0.7, 0.999])
    @pytest.mark.parametrize("rows,n", [(3, 300_000), (259, 11), (115, 11)])
    def test_ar1_rows_are_bit_identical_to_lfilter(self, phi, rows, n):
        got = NoiseSpec.ar1(phi, 2.0).sample_rows(rows, n, derive_rng(6))
        assert got.tobytes() == lfilter_ar1_rows(phi, 2.0, rows, n, derive_rng(6)).tobytes()

    @pytest.mark.parametrize("phi", [-0.7, 0.999])
    def test_ar1_uneven_slabs_are_bit_identical_to_lfilter(self, phi):
        got = [rows.copy() for rows in NoiseSpec.ar1(phi, 2.0).slabs(5, 300_000, 2, derive_rng(7))]
        assert [r.shape[0] for r in got] == [2, 2, 1]
        want = lfilter_ar1_rows(phi, 2.0, 5, 300_000, derive_rng(7))
        assert np.concatenate(got).tobytes() == want.tobytes()

    def test_sample_rows_bounds(self):
        with pytest.raises(ValueError):
            NoiseSpec.powerlaw(0.2, 1.0).sample_rows(2, 8, 0)
        with pytest.raises(ValueError):
            NoiseSpec.ar1(0.5, 1.0).sample_rows(2, 0, 0)


class TestGenDesign:
    def test_paper_scale_sample_count(self):
        ts = gen_design("ar", 10.0, 44100.0, 30.0, seed=1)
        assert ts.n == 1_323_000

    def test_realized_snr(self):
        ts = gen_design("p2", 6.0, 44100.0, 3.0, seed=4)
        amp = calibrate_amplitude(6.0, 1.0)
        sine = gen_sine(SignalSpec(amp, 50.0, 44100.0, 3.0)).samples
        noise = ts.samples - sine
        realized = snr_db(float(np.mean(sine**2)), float(np.var(noise)))
        assert realized == pytest.approx(6.0, abs=0.3)

    def test_construction_snr_is_exact(self):
        for snr in (6.0, 10.0):
            amp = calibrate_amplitude(snr, 1.0)
            assert snr_db(amp * amp / 2.0, 1.0) == pytest.approx(snr, abs=1e-12)

    def test_bit_identical_given_seed(self):
        a = gen_design("ar", 10.0, 44100.0, 0.1, seed=21)
        b = gen_design("ar", 10.0, 44100.0, 0.1, seed=21)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = gen_design("ar", 10.0, 44100.0, 0.1, seed=22)
        assert not np.array_equal(a.samples, c.samples)

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            gen_design("arma", 10.0, 44100.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            design_noise("arma", 1.0)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_noise_is_the_registry_process(self, design):
        ts = gen_design(design, 6.0, 44100.0, 0.1, seed=derive_rng(8))
        sine = gen_sine(SignalSpec(calibrate_amplitude(6.0, 1.0), SIGNAL_FREQ_HZ, 44100.0, 0.1))
        noise = DESIGNS[design].sample(ts.n, derive_rng(8))
        np.testing.assert_array_equal(ts.samples, sine.samples + noise)
        assert design_noise(design, 2.5) == NoiseSpec(
            DESIGNS[design].kind, 2.5, DESIGNS[design].phi, DESIGNS[design].beta)

    def test_registry_holds_the_paper_designs(self):
        assert DESIGNS == {"ar": NoiseSpec.ar1(-0.7, 1.0),
                           "p1": NoiseSpec.powerlaw(0.2, 1.0),
                           "p2": NoiseSpec.powerlaw(0.6, 1.0)}

    def test_nyquist(self):
        with pytest.raises(ValueError):
            gen_design("ar", 10.0, 80.0, 1.0, seed=0)

    @pytest.mark.parametrize("design", ["ar", "p2"])
    def test_working_memory_is_a_few_series(self, design):
        # the sine is built in place and added into the noise, and the
        # power-law synthesis frees its draws before the inverse FFT
        ts, peak = traced_peak(gen_design, design, 6.0, 44100.0, 30.0, 3)
        assert peak <= 3.5 * ts.samples.nbytes


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
        assert derive_seed(5, 1) != derive_seed(6, 1)

    def test_rng_streams_independent_of_order(self):
        a = derive_rng(9, 3).normal(size=4)
        _ = derive_rng(9, 1).normal(size=100)
        b = derive_rng(9, 3).normal(size=4)
        np.testing.assert_array_equal(a, b)
