"""Subsampled estimation of the SNR statistic's sampling distribution.

Long uniformly sampled series are never processed whole: K random blocks are
smoothed independently, each yields a signal-power/noise-variance SNR in dB,
and the empirical distribution of those K values provides quantiles and
confidence intervals for the underlying SNR.
"""

from .core import (
    SRD,
    DependenceRegime,
    TimeSeries,
    empirical_quantile,
    lambda_n,
    lrd,
    signal_power,
    snr_db,
    tau_n,
)
from .harness import (
    ExperimentSpec,
    McCell,
    McReport,
    exhaustive_subsample_check,
    ks_distance,
    mc_reports,
    mise_probe,
    mse_signal_power,
    oracle_draws,
    oracle_quantiles,
    quantile_mae,
)
from .simgen import (
    DESIGNS,
    NoiseSpec,
    NyquistError,
    SignalSpec,
    calibrate_amplitude,
    derive_rng,
    derive_seed,
    gen_ar1,
    gen_design,
    gen_powerlaw,
    gen_sine,
)
from .smoother import (
    BandwidthGrid,
    KernelFit,
    autocovariance,
    cv_objective,
    epanechnikov,
    priestley_chao_fit,
    select_bandwidth,
)
from .subsample import (
    ExcessiveSkipsError,
    KTooLargeError,
    SnrDistribution,
    SubsampleConfig,
    SubsampleEstimate,
    block_estimate,
    confidence_interval,
    default_b1,
    draw_blocks,
    estimate_snr_distribution,
    select_block_size,
)

__version__ = "0.1.0"
