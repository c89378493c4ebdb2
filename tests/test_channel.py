"""Scenario configuration and channel-block sampling."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from anleak import (
    DegenerateChannelError,
    DistributionReport,
    SystemConfig,
    average_transmit_power,
    balanced_config,
    channel,
    check_effective_distributions,
    exact_transmit_power,
    linalg,
    montecarlo,
    sample_realization,
    single_stream_view,
    transmit_signal,
)
from anleak.laws import McEstimate
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


@pytest.mark.parametrize("field", ["snr_e_db", "snr_l_db"])
def test_config_keeps_every_noise_floor_usable(field):
    # The estimators take their noise floor from the config, so the config
    # rejects what they once rejected as an argument: beyond +-3000 dB a
    # floor underflows to 0.0 or overflows, NaN and inf are no SNR, and no
    # SNR gives a negative floor.
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16)
    assert 10.0 ** (-4000.0 / 10.0) == 0.0
    for snr in (4000.0, -4000.0, 3000.5, -3000.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, **{field: snr})
    # Within the limit both floors and their reciprocals are normal positive floats.
    for snr in (-3000.0, 0.0, 3000.0):
        at = dataclasses.replace(cfg, **{field: snr})
        for floor in (at.sigma_z2, at.sigma_w2):
            assert sys.float_info.min <= min(floor, 1.0 / floor)
            assert max(floor, 1.0 / floor) <= sys.float_info.max


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
        dict(K=0, N_J=0),  # no power divides by K = 0
        dict(K=0, beta2=2.0),
    ],
)
def test_balanced_config_rejects_unsolvable(kwargs):
    base = dict(M=12, K=3, N_E=2, N_J=4, T=8)
    base.update(kwargs)
    with pytest.raises(ValueError):
        balanced_config(**base)


@pytest.mark.parametrize("rel", [5e-10, -5e-10, 2e-9, -2e-9])
def test_balanced_config_accepts_exactly_what_is_balanced(rel):
    # Powers `rel` off the budget M = 12: an explicit pair, and an alpha2
    # with N_J = 0.  Within 1e-9 both are accepted, beyond it both raise,
    # and `SystemConfig.is_balanced` agrees each time.
    dims = dict(M=12, K=3, N_E=2, T=8)
    for powers in (
        dict(N_J=4, alpha2=2.0, beta2=1.5 * (1.0 + 2.0 * rel)),
        dict(N_J=0, alpha2=4.0 * (1.0 + rel), beta2=0.0),
    ):
        plain = SystemConfig(**dims, **powers)
        assert plain.total_power / 12.0 - 1.0 == pytest.approx(rel, rel=1e-6)
        assert plain.is_balanced == (abs(rel) < 1e-9)
        if plain.is_balanced:
            cfg = balanced_config(**dims, **powers)
            assert cfg.beta2 == powers["beta2"]
            assert cfg.alpha2 == (2.0 if powers["N_J"] else 12 / 3)  # N_J = 0: exactly M/K
        else:
            with pytest.raises(ValueError, match="does not balance"):
                balanced_config(**dims, **powers)


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
    # The precoder columns live in h's row space, the basis in its
    # orthogonal complement, so the two blocks are mutually orthogonal.
    orth = np.abs(real.an_basis.conj().T @ real.precoder).max()
    assert orth <= 1e-10 * np.linalg.norm(real.precoder)
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


def test_realization_checks_h_once_and_builds_what_the_public_builders_do(cfg, monkeypatch):
    calls = []

    def counted(h, n):
        calls.append((h.shape, n))
        return linalg.zero_forcing(h, n)

    monkeypatch.setattr(channel, "zero_forcing", counted)
    real = sample_realization(cfg, np.random.default_rng(11))
    assert calls == [((cfg.K, cfg.M), cfg.N_J)]
    # Rebuilt through the public, fully checked builder: the same arrays.
    precoder, an_basis = linalg.zero_forcing(real.h, cfg.N_J)
    assert np.array_equal(real.precoder, precoder)
    assert np.array_equal(real.an_basis, an_basis)
    assert np.array_equal(real.g_data, math.sqrt(cfg.alpha2) * (real.g @ real.precoder))
    assert np.array_equal(real.g_an, math.sqrt(cfg.beta2) * (real.g @ real.an_basis))


def test_realization_rejects_a_rank_deficient_user_channel(cfg, monkeypatch):
    def deficient_h(rows, cols, variance, rng):
        z = sample_gaussian(rows, cols, variance, rng)
        if rows == cfg.K:  # h is drawn first: make its last row repeat the first
            z[-1] = z[0]
        return z

    monkeypatch.setattr(channel, "sample_gaussian", deficient_h)
    with pytest.raises(DegenerateChannelError, match="rank deficient"):
        sample_realization(cfg, np.random.default_rng(11))


def test_transmit_signal_reaches_users_cleanly(cfg, rng):
    s = sample_gaussian(4, 10, 1.0, rng)
    n = sample_gaussian(12, 10, 1.0, rng)
    real = sample_realization(cfg, rng)
    x = transmit_signal(cfg, real, s, n)
    assert x.shape == (16, 10)
    # The noise part lands in the user channel's null space, so each user
    # sees only its own stream, scaled by sqrt(alpha2 * M).
    assert real.h @ x == pytest.approx(math.sqrt(cfg.alpha2 * 16) * s, abs=1e-9)
    # Without noise dimensions the noise block is 0 x n and adds nothing.
    bare = balanced_config(M=16, K=4, N_E=8, N_J=0, T=48)
    real = sample_realization(bare, rng)
    x = transmit_signal(bare, real, s, sample_gaussian(0, 10, 1.0, rng))
    assert real.h @ x == pytest.approx(math.sqrt(bare.alpha2 * 16) * s, abs=1e-9)


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
    est = average_transmit_power(cfg, trials=1500, seed=0)
    assert (est.trials, est.excluded) == (1500, 0)
    assert abs(est.mean - 13.0) <= 4.0 * est.std_error


def test_transmit_power_approaches_antenna_budget():
    cfg = balanced_config(M=128, K=4, N_E=2, N_J=124, T=256)
    exact = exact_transmit_power(cfg)
    assert exact > cfg.total_power  # inversion overhead is strictly positive
    assert exact / cfg.M == pytest.approx(1.0, abs=0.005)


def _batch_rng(seed: int, tag: int, trial: int) -> np.random.Generator:
    """The generator of the `_run_trials` batch that holds ``trial``."""
    return np.random.default_rng(np.random.SeedSequence((seed, tag, trial // montecarlo._BATCH)))


def test_average_transmit_power_keeps_its_stream_across_batch_edges():
    # Reference: a plain loop over the trials, which starts each batch's
    # generator at its first trial.  The trials span two full batches of
    # `_run_trials` and a partial one.
    cfg = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8)
    trials, seed, tag = 2 * montecarlo._BATCH + 2, 2, montecarlo._TAG_TRANSMIT_POWER
    vals = np.empty(trials)
    for i in range(trials):
        if i % montecarlo._BATCH == 0:
            rng = _batch_rng(seed, tag, i)
        real = sample_realization(cfg, rng)
        s = sample_gaussian(cfg.K, 16, 1.0, rng)
        n = sample_gaussian(cfg.N_J, 16, 1.0, rng)
        vals[i] = np.linalg.norm(transmit_signal(cfg, real, s, n)) ** 2 / 16
    expected = McEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials)), trials)
    assert average_transmit_power(cfg, trials=trials, seed=seed) == expected
    # The batch draw is the same loop on the batch's generator.
    first = channel._power_draw(cfg, _batch_rng(seed, tag, 0), montecarlo._BATCH)[0]
    assert np.array_equal(first, vals[: montecarlo._BATCH])


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
    sums = []
    for i in range(trials):
        if i % montecarlo._BATCH == 0:
            rng = _batch_rng(seed, montecarlo._TAG_DISTRIBUTIONS, i)
        real = sample_realization(cfg, rng)
        sums.append([np.sum(np.abs(real.g_data) ** 2), np.sum(np.abs(real.g_an) ** 2)])
        data_sq_sum += float(sums[-1][0])
        an_sq_sum += float(sums[-1][1])
    report = check_effective_distributions(cfg, trials=trials, seed=seed)
    assert report.g_data_var == data_sq_sum / (trials * cfg.N_E * cfg.K)
    assert report.g_an_var == an_sq_sum / (trials * cfg.N_E * cfg.N_J)
    # The batch draw is the same loop on the batch's generator.
    batch, rng = montecarlo._BATCH, _batch_rng(seed, montecarlo._TAG_DISTRIBUTIONS, 0)
    assert np.array_equal(channel._probe_draw(cfg, rng, batch)[0], sums[:batch])


def test_effective_distributions_rejects_tiny_runs(cfg):
    with pytest.raises(ValueError):
        check_effective_distributions(cfg, trials=50)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        check_effective_distributions(cfg, seed=-1)
