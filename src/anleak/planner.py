"""Antenna planning from mobility: how many antennas force saturation.

The leakage of a channel-ignorant eavesdropper vanishes when the signal
dimensions fill the whole coherence block (``K + N_J >= T``).  Since the
noise dimensions are limited by the antenna count, a base station can
*choose* to saturate every block by deploying at least as many antennas
as there are coherence symbols.  This module turns carrier frequency and
user mobility into that antenna count.

Coherence time follows the rule of thumb ``0.423 / f_D`` with Doppler
``f_D = v * f_c / c`` (speed ``v``, carrier ``f_c``, light speed
``c = 3e8 m/s``), and is divided by the OFDM symbol duration (default
72.4 us, an LTE-like extended-prefix symbol) to get symbols per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SPEED_OF_LIGHT",
    "DEFAULT_SYMBOL_DURATION",
    "DeploymentParams",
    "doppler_shift",
    "coherence_time",
    "coherence_symbols",
    "required_antennas",
]

SPEED_OF_LIGHT = 3.0e8
DEFAULT_SYMBOL_DURATION = 72.4e-6
_COHERENCE_FACTOR = 0.423


@dataclass(frozen=True)
class DeploymentParams:
    """Carrier, mobility and waveform numerology for one deployment.

    Attributes
    ----------
    carrier_hz : float
        Carrier frequency in Hz, ``> 0``.
    speed_mps : float
        Worst-case user speed in m/s, ``> 0`` (zero speed would mean an
        infinite coherence block, which no antenna count can saturate).
    symbol_duration_s : float
        OFDM symbol duration in seconds, ``> 0``.
    """

    carrier_hz: float
    speed_mps: float
    symbol_duration_s: float = DEFAULT_SYMBOL_DURATION

    def __post_init__(self) -> None:
        for name in ("carrier_hz", "speed_mps", "symbol_duration_s"):
            _positive(name, getattr(self, name))


def _positive(name: str, value: float) -> float:
    """``value`` if finite and > 0, else `ValueError`: valid inputs can still
    under- or overflow a step of the Doppler chain."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def doppler_shift(params: DeploymentParams) -> float:
    """Maximum Doppler shift ``v * f_c / c`` in Hz."""
    return _positive("Doppler shift", params.speed_mps * params.carrier_hz / SPEED_OF_LIGHT)


def coherence_time(params: DeploymentParams) -> float:
    """Channel coherence time ``0.423 / f_D`` in seconds."""
    return _positive("coherence time", _COHERENCE_FACTOR / doppler_shift(params))


def coherence_symbols(params: DeploymentParams) -> float:
    """Coherence block length in symbols (not rounded)."""
    return _positive("coherence block", coherence_time(params) / params.symbol_duration_s)


def required_antennas(params: DeploymentParams) -> int:
    """Smallest antenna count that can saturate every coherence block.

    The signal dimensions ``K + N_J`` are at most the antenna count, so
    ``ceil(coherence_symbols)`` antennas suffice to cover ``T`` and no
    smaller count can.
    """
    return math.ceil(coherence_symbols(params))
