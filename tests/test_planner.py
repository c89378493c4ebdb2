"""Mobility-to-antenna planning: Doppler chain and ceiling behaviour."""

import math

import pytest

from anleak import (
    DeploymentParams,
    MonteCarlo,
    SystemConfig,
    coherence_symbols,
    coherence_time,
    doppler_shift,
    noncoherent_bounds,
    required_antennas,
)
from anleak.planner import DEFAULT_SYMBOL_DURATION


def test_pedestrian_chain_values():
    p = DeploymentParams(carrier_hz=10e9, speed_mps=1.3)
    assert doppler_shift(p) == pytest.approx(43.3333333, abs=1e-6)
    assert coherence_time(p) == pytest.approx(9.7615384615e-3, rel=1e-9)
    assert coherence_symbols(p) == pytest.approx(134.827, abs=1e-3)
    assert required_antennas(p) == 135


def test_vehicular_and_low_band_counts():
    assert required_antennas(DeploymentParams(5e9, 0.8)) == 439
    # Sanity on scaling: both the carrier and the speed enter linearly.
    assert required_antennas(DeploymentParams(10e9, 0.8)) == 220
    assert required_antennas(DeploymentParams(5e9, 1.6)) == 220


def test_ceiling_is_minimal():
    for carrier, speed in ((10e9, 1.3), (5e9, 0.8), (28e9, 30.0), (2.4e9, 5.0)):
        p = DeploymentParams(carrier, speed)
        n = required_antennas(p)
        assert n - 1 < coherence_symbols(p) <= n


def test_doubling_mobility_halves_the_block():
    base = DeploymentParams(6e9, 3.0)
    fast = DeploymentParams(6e9, 6.0)
    high = DeploymentParams(12e9, 3.0)
    assert coherence_symbols(fast) == pytest.approx(
        coherence_symbols(base) / 2.0, rel=1e-12
    )
    assert coherence_time(high) == pytest.approx(
        coherence_time(base) / 2.0, rel=1e-12
    )


def test_integer_block_needs_exactly_that_many():
    # Choose a symbol duration that divides the coherence time exactly so
    # the ceiling sits on the boundary.
    p0 = DeploymentParams(6e9, 3.0)
    dur = coherence_time(p0) / 128.0
    p = DeploymentParams(6e9, 3.0, symbol_duration_s=dur)
    assert coherence_symbols(p) == 128.0
    assert required_antennas(p) == 128


def test_parameter_validation():
    for kwargs in (
        dict(carrier_hz=0.0, speed_mps=1.0),
        dict(carrier_hz=-1e9, speed_mps=1.0),
        dict(carrier_hz=1e9, speed_mps=0.0),
        dict(carrier_hz=1e9, speed_mps=math.inf),
        dict(carrier_hz=1e9, speed_mps=1.0, symbol_duration_s=0.0),
        dict(carrier_hz=math.nan, speed_mps=1.0),
    ):
        with pytest.raises(ValueError):
            DeploymentParams(**kwargs)


@pytest.mark.parametrize(
    ("params", "step"),
    [
        (DeploymentParams(1e-300, 1e-30), doppler_shift),
        (DeploymentParams(1e300, 1e300), doppler_shift),
        (DeploymentParams(1e-300, 1e-10), coherence_time),
        (DeploymentParams(1e9, 1.0, symbol_duration_s=1e-320), coherence_symbols),
    ],
    ids=["doppler-zero", "doppler-inf", "time-inf", "block-inf"],
)
def test_a_chain_step_out_of_range_raises(params, step):
    # Each input is finite and positive, yet one step of the chain leaves
    # (0, inf); that step and every later one raise ValueError.
    chain = (doppler_shift, coherence_time, coherence_symbols, required_antennas)
    for later in chain[chain.index(step):]:
        with pytest.raises(ValueError):
            later(params)


def test_default_symbol_duration_is_extended_prefix_lte():
    assert DEFAULT_SYMBOL_DURATION == pytest.approx(72.4e-6)
    p = DeploymentParams(10e9, 1.3)
    assert p.symbol_duration_s == DEFAULT_SYMBOL_DURATION


def test_planned_count_saturates_the_block():
    # An array sized by the planner drives the channel-ignorant slope to
    # zero for the block it was planned against, and one symbol more of
    # coherence would reopen it.
    n = required_antennas(DeploymentParams(10e9, 1.3))
    mc = MonteCarlo(trials=20, seed=0)
    cfg = SystemConfig(n, 1, n, n - 1, n, 1.0, 1.0)
    assert noncoherent_bounds(cfg, mc).dof == 0.0
    longer = SystemConfig(n, 1, n, n - 1, n + 1, 1.0, 1.0)
    assert noncoherent_bounds(longer, mc).dof > 0.0
