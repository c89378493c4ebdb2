"""Leakage analysis for artificial-noise massive-MIMO downlinks.

Compute, bound and Monte Carlo-validate the information an eavesdropper
can extract from a zero-forcing downlink that fills its spare spatial
dimensions with artificial noise.  See the individual modules:

* :mod:`anleak.channel` — system configuration and channel sampling;
* :mod:`anleak.montecarlo` — deterministic sampled estimators (`MonteCarlo`)
  and its subclass `ExactFirst`, which computes those with a known law exactly;
* :mod:`anleak.bounds` — closed-form high-SNR bounds and secrecy rates;
* :mod:`anleak.special` — digamma / manifold-volume building blocks;
* :mod:`anleak.planner` — antenna counts that saturate coherence blocks;
* :mod:`anleak.cli` — sweeps, validation and planning from the shell.
"""

from .bounds import (
    LeakageBounds,
    LeakagePair,
    SaturatedBound,
    SecrecyRates,
    coherent_data_leakage,
    entropy_gap,
    ergodic_highsnr,
    leakage_pair,
    legitimate_rate,
    noncoherent_bounds,
    partial_coherent_bounds,
    saturated_upper,
    secrecy_from_config,
    secrecy_rates,
    universal_upper,
)
from .channel import (
    ChannelRealization,
    DistributionReport,
    SystemConfig,
    average_transmit_power,
    balanced_config,
    check_effective_distributions,
    exact_transmit_power,
    sample_realization,
    single_stream_view,
    transmit_signal,
)
from .errors import AnleakError, ConfigError, DegenerateChannelError, NotApplicable
from .montecarlo import (
    ExactFirst,
    McEstimate,
    MonteCarlo,
    SplitCheckReport,
    SvKind,
    ergodic_constant,
    ergodic_leakage,
    expected_log_sv_sum,
    sv_split_check,
    universal_constant,
)
from .planner import (
    DeploymentParams,
    coherence_symbols,
    coherence_time,
    doppler_shift,
    required_antennas,
)
from .special import (
    EULER_GAMMA,
    digamma,
    expected_logdet_wishart,
    log_grassmann_volume,
    log_stiefel_volume,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "AnleakError",
    "ConfigError",
    "DegenerateChannelError",
    "NotApplicable",
    # channel
    "SystemConfig",
    "balanced_config",
    "single_stream_view",
    "ChannelRealization",
    "sample_realization",
    "transmit_signal",
    "exact_transmit_power",
    "average_transmit_power",
    "DistributionReport",
    "check_effective_distributions",
    # montecarlo
    "McEstimate",
    "MonteCarlo",
    "ExactFirst",
    "SvKind",
    "expected_log_sv_sum",
    "ergodic_leakage",
    "ergodic_constant",
    "universal_constant",
    "SplitCheckReport",
    "sv_split_check",
    # bounds
    "LeakageBounds",
    "LeakagePair",
    "SaturatedBound",
    "SecrecyRates",
    "ergodic_highsnr",
    "noncoherent_bounds",
    "entropy_gap",
    "saturated_upper",
    "universal_upper",
    "coherent_data_leakage",
    "partial_coherent_bounds",
    "leakage_pair",
    "legitimate_rate",
    "secrecy_rates",
    "secrecy_from_config",
    # special
    "EULER_GAMMA",
    "digamma",
    "log_stiefel_volume",
    "log_grassmann_volume",
    "expected_logdet_wishart",
    # planner
    "DeploymentParams",
    "doppler_shift",
    "coherence_time",
    "coherence_symbols",
    "required_antennas",
]
