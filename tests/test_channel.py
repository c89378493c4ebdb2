"""Scenario configuration and channel-block sampling."""

import dataclasses
import math

import numpy as np
import pytest

from anleak import (
    DistributionReport,
    SystemConfig,
    average_transmit_power,
    balanced_config,
    check_effective_distributions,
    exact_transmit_power,
    montecarlo,
    sample_realization,
    single_stream_view,
    transmit_signal,
)
from anleak.linalg import sample_gaussian


@pytest.fixture
def cfg():
    return balanced_config(M=16, K=4, N_E=8, N_J=12, T=48)


# ---------------------------------------------------------------------------
# SystemConfig
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(K=0),
        dict(M=4, K=4),
        dict(N_J=13),
        dict(N_E=0),
        dict(T=0),
        dict(alpha2=0.0),
        dict(beta2=-1.0),
        dict(N_J=0, beta2=1.0),
        dict(N_J=2, beta2=0.0),
        dict(snr_e_db=math.inf),
        dict(snr_l_db=math.nan),
        dict(t_prime_override=0),
        dict(M=16.0),
        dict(T=True),
    ],
)
def test_config_rejects_bad_fields(kwargs):
    base = dict(M=16, K=4, N_E=8, N_J=12, T=48, alpha2=1.0, beta2=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SystemConfig(**base)


def test_config_derived_properties():
    cfg = SystemConfig(12, 3, 5, 4, 20, 2.0, 1.5, snr_e_db=10.0, snr_l_db=20.0)
    assert cfg.mbar == 7
    assert cfg.t_prime == 17
    assert cfg.sigma_z2 == pytest.approx(0.1)
    assert cfg.sigma_w2 == pytest.approx(0.01)
    assert cfg.total_power == pytest.approx(12.0)
    assert cfg.is_balanced
    pinned = dataclasses.replace(cfg, t_prime_override=9)
    assert pinned.t_prime == 9


def test_balanced_config_solves_each_power():
    default = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8)
    assert default.alpha2 == 1.0
    assert default.beta2 == pytest.approx(9 / 4)
    assert default.is_balanced

    from_alpha = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8, alpha2=2.0)
    assert from_alpha.beta2 == pytest.approx(1.5)

    from_beta = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8, beta2=1.0)
    assert from_beta.alpha2 == pytest.approx(8 / 3)

    both = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8, alpha2=2.0, beta2=1.5)
    assert (both.alpha2, both.beta2) == (2.0, 1.5)

    no_noise = balanced_config(M=12, K=3, N_E=2, N_J=0, T=8)
    assert (no_noise.alpha2, no_noise.beta2) == (4.0, 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha2=2.0, beta2=2.0),  # does not balance
        dict(alpha2=5.0),  # alpha2 * K >= M
        dict(beta2=4.0),  # solved alpha2 would be negative
        dict(N_J=0, beta2=0.5),
        dict(N_J=0, alpha2=1.0),  # N_J=0 forces alpha2 = M/K
    ],
)
def test_balanced_config_rejects_unsolvable(kwargs):
    base = dict(M=12, K=3, N_E=2, N_J=4, T=8)
    base.update(kwargs)
    with pytest.raises(ValueError):
        balanced_config(**base)


def test_single_stream_view_keeps_parent_overhead():
    parent = balanced_config(M=64, K=16, N_E=64, N_J=48, T=320)
    view = single_stream_view(parent)
    assert view.K == 1
    assert view.T == 320
    assert view.mbar == 49
    assert view.t_prime == parent.t_prime == 304
    assert (view.alpha2, view.beta2) == (parent.alpha2, parent.beta2)
    # One stream at the parent's per-stream power no longer fills the
    # antenna budget; the constructor must accept that.
    assert not view.is_balanced
    assert single_stream_view(view).t_prime == 304


# ---------------------------------------------------------------------------
# Realizations and signals
# ---------------------------------------------------------------------------


def test_realization_geometry(cfg, rng):
    real = sample_realization(cfg, rng)
    assert real.h.shape == (4, 16)
    assert real.g.shape == (8, 16)
    assert real.precoder.shape == (16, 4)
    assert real.an_basis.shape == (16, 12)
    assert real.g_data.shape == (8, 4)
    assert real.g_an.shape == (8, 12)
    assert real.h @ real.precoder == pytest.approx(4.0 * np.eye(4), abs=1e-9)
    assert real.an_basis.conj().T @ real.an_basis == pytest.approx(
        np.eye(12), abs=1e-12
    )
    assert np.abs(real.h @ real.an_basis).max() <= 1e-10 * np.linalg.norm(real.h)
    assert real.g_data == pytest.approx(
        math.sqrt(cfg.alpha2) * real.g @ real.precoder
    )
    assert real.g_an == pytest.approx(math.sqrt(cfg.beta2) * real.g @ real.an_basis)


def test_realization_without_noise_dimensions(rng):
    cfg = balanced_config(M=16, K=4, N_E=8, N_J=0, T=48)
    real = sample_realization(cfg, rng)
    assert real.an_basis.shape == (16, 0)
    assert real.g_an.shape == (8, 0)


def test_realization_determinism(cfg):
    a = sample_realization(cfg, np.random.default_rng(7))
    b = sample_realization(cfg, np.random.default_rng(7))
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.g_an, b.g_an)


def test_transmit_signal_reaches_users_cleanly(cfg, rng):
    s = sample_gaussian(4, 10, 1.0, rng)
    n = sample_gaussian(12, 10, 1.0, rng)
    real = sample_realization(cfg, rng)
    x = transmit_signal(cfg, real, s, n)
    assert x.shape == (16, 10)
    # The noise part lands in the user channel's null space, so each user
    # sees only its own stream, scaled by sqrt(alpha2 * M).
    assert real.h @ x == pytest.approx(math.sqrt(cfg.alpha2 * 16) * s, abs=1e-9)


def test_transmit_signal_validates_symbol_blocks(cfg, rng):
    real = sample_realization(cfg, rng)
    s = sample_gaussian(4, 10, 1.0, rng)
    with pytest.raises(ValueError):
        transmit_signal(cfg, real, s, None)  # N_J > 0 needs noise symbols
    with pytest.raises(ValueError):
        transmit_signal(cfg, real, s[:3], sample_gaussian(12, 10, 1.0, rng))
    with pytest.raises(ValueError):
        transmit_signal(cfg, real, s, sample_gaussian(11, 10, 1.0, rng))


# ---------------------------------------------------------------------------
# Transmit power
# ---------------------------------------------------------------------------


def test_exact_vs_average_transmit_power():
    cfg = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8)
    assert exact_transmit_power(cfg) == pytest.approx(13.0)
    mean, se = average_transmit_power(cfg, trials=1500, seed=0)
    assert abs(mean - 13.0) <= 4.0 * se


def test_transmit_power_approaches_antenna_budget():
    cfg = balanced_config(M=128, K=4, N_E=2, N_J=124, T=256)
    exact = exact_transmit_power(cfg)
    assert exact > cfg.total_power  # inversion overhead is strictly positive
    assert exact / cfg.M == pytest.approx(1.0, abs=0.005)


def test_average_transmit_power_keeps_its_stream_across_batch_edges():
    # Reference: a plain per-trial loop on the same generators.  130 trials
    # span two full 64-trial batches of `_run_trials` and a partial one.
    cfg = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8)
    trials, seed = 130, 2
    vals = np.empty(trials)
    for i in range(trials):
        rng = montecarlo._trial_rng(seed, montecarlo._TAG_TRANSMIT_POWER, i)
        real = sample_realization(cfg, rng)
        s = sample_gaussian(cfg.K, 16, 1.0, rng)
        n = sample_gaussian(cfg.N_J, 16, 1.0, rng)
        vals[i] = np.linalg.norm(transmit_signal(cfg, real, s, n)) ** 2 / 16
    expected = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))
    assert average_transmit_power(cfg, trials=trials, seed=seed) == expected


def test_average_transmit_power_rejects_tiny_runs():
    cfg = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8)
    with pytest.raises(ValueError):
        average_transmit_power(cfg, trials=1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        average_transmit_power(cfg, seed=-1)


# ---------------------------------------------------------------------------
# Effective-channel distribution checks
# ---------------------------------------------------------------------------


def test_effective_distributions_pass_and_repeat(cfg):
    report = check_effective_distributions(cfg, trials=2000, seed=0)
    assert report.passed
    assert report.failures == ()
    assert report.g_an_var == pytest.approx(cfg.beta2, rel=0.05)
    # The data-part variance carries the finite-antenna factor M/(M-K),
    # not the naive per-stream power.
    assert report.g_data_var_finite == pytest.approx(cfg.alpha2 * 16 / 12)
    assert report.g_data_var == pytest.approx(report.g_data_var_finite, rel=0.05)
    assert report == check_effective_distributions(cfg, trials=2000, seed=0)


def test_distribution_report_flags_bad_stats():
    good = dict(
        trials=1000,
        g_an_var=1.0,
        g_an_var_expected=1.0,
        g_an_var_tol=0.02,
        g_data_var=1.335,
        g_data_var_finite=1.333,
        g_data_var_asymptotic=1.0,
        g_data_var_tol=0.05,
        max_abs_corr=0.01,
        corr_threshold=0.16,
        ks_stat=0.02,
        ks_threshold=0.05,
    )
    assert DistributionReport(**good).passed

    bad_corr = DistributionReport(**{**good, "max_abs_corr": 0.5})
    assert not bad_corr.passed
    assert any("correlation" in f for f in bad_corr.failures)

    bad_var = DistributionReport(**{**good, "g_an_var": 1.5})
    assert any("variance" in f for f in bad_var.failures)

    bad_ks = DistributionReport(**{**good, "ks_stat": 0.2})
    assert any("KS" in f for f in bad_ks.failures)


def test_effective_distributions_add_variances_in_trial_order(cfg):
    # Reference: a running total over the realizations in trial order; a
    # pairwise sum would differ in the last bits.
    trials, seed = 130, 1
    data_sq_sum = an_sq_sum = 0.0
    for i in range(trials):
        rng = montecarlo._trial_rng(seed, montecarlo._TAG_DISTRIBUTIONS, i)
        real = sample_realization(cfg, rng)
        data_sq_sum += float(np.sum(np.abs(real.g_data) ** 2))
        an_sq_sum += float(np.sum(np.abs(real.g_an) ** 2))
    report = check_effective_distributions(cfg, trials=trials, seed=seed)
    assert report.g_data_var == data_sq_sum / (trials * cfg.N_E * cfg.K)
    assert report.g_an_var == an_sq_sum / (trials * cfg.N_E * cfg.N_J)


def test_effective_distributions_rejects_tiny_runs(cfg):
    with pytest.raises(ValueError):
        check_effective_distributions(cfg, trials=50)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        check_effective_distributions(cfg, seed=-1)
