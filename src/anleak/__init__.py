"""Leakage analysis for artificial-noise massive-MIMO downlinks.

Compute, bound and Monte Carlo-validate the information an eavesdropper
can extract from a zero-forcing downlink that fills its spare spatial
dimensions with artificial noise.  See the individual modules:

* :mod:`anleak.channel` — system configuration and channel sampling;
* :mod:`anleak.laws` — exact eigenvalue laws and `ExactFirst`, which
  answers every estimated quantity from them and draws nothing;
* :mod:`anleak.twopower` — the exact ergodic leakage at two powers, loaded by
  `ExactFirst` only where it is needed;
* :mod:`anleak.montecarlo` — deterministic sampled estimators (`MonteCarlo`),
  the cross-check of every law, loaded only where something is drawn;
* :mod:`anleak.bounds` — closed-form high-SNR bounds and secrecy rates;
* :mod:`anleak.special` — digamma / manifold-volume building blocks;
* :mod:`anleak.planner` — antenna counts that saturate coherence blocks;
* :mod:`anleak.cli` — sweeps, validation and planning from the shell.

Each module loads on first use, so a command loads only what it runs.
``sweep`` and ``bounds`` load `cli`, `bounds`, `channel`, `laws`,
`special` and `errors`, plus `twopower` and `decimal` at two powers;
``plan`` loads `planner` too.  Only ``validate`` draws, so only it loads
the sampler (`montecarlo`, `linalg`, ``numpy.random``) and a thread pool.
No command loads ``numpy.polynomial``.
"""

import sys

__version__ = "0.1.0"

# Each module and the names the package exports from it.  A name, or the
# module itself as ``anleak.<module>``, is imported on first use (PEP 562),
# so ``import anleak`` loads no module of its own.
_EXPORTS = {
    "errors": ("AnleakError", "ConfigError", "DegenerateChannelError", "NotApplicable"),
    "channel": (
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
    ),
    "montecarlo": (
        "MonteCarlo",
        "expected_log_sv_sum",
        "ergodic_leakage",
        "ergodic_constant",
        "universal_constant",
        "SplitCheckReport",
        "sv_split_check",
    ),
    "bounds": (
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
    ),
    "special": (
        "EULER_GAMMA",
        "digamma",
        "log_stiefel_volume",
        "log_grassmann_volume",
        "expected_logdet_wishart",
    ),
    "planner": (
        "DeploymentParams",
        "doppler_shift",
        "coherence_time",
        "coherence_symbols",
        "required_antennas",
    ),
    "laws": ("McEstimate", "ExactFirst", "SvKind"),
    "linalg": (),
    "twopower": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__`, unlike `importlib.import_module`, shows in `-X importtime`.
    __import__(f"{__name__}.{module}")
    found = sys.modules[f"{__name__}.{module}"]
    return found if module == name else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
