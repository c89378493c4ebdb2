"""Monte Carlo spectrum estimators against closed forms and direct sampling."""

import dataclasses
import math
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.special import exp1

from anleak import (
    EULER_GAMMA,
    ExactFirst,
    McEstimate,
    MonteCarlo,
    SvKind,
    SystemConfig,
    balanced_config,
    ergodic_constant,
    ergodic_leakage,
    expected_log_sv_sum,
    expected_logdet_wishart,
    montecarlo,
    sv_split_check,
    universal_constant,
)
from anleak.linalg import sample_gaussian, squared_singular_values
from anleak.montecarlo import _log_sv_values, _summarize

ONE_STREAM = SystemConfig(M=2, K=1, N_E=1, N_J=0, T=2, alpha2=1.0, beta2=0.0)


def _direct_log_sv_sum(products, r):
    """Reference estimator: explicit products, top-r squared singular values."""
    vals = [float(np.sum(np.log(squared_singular_values(p)[:r]))) for p in products]
    n = len(vals)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n))


# ---------------------------------------------------------------------------
# McEstimate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(trials=0),
        dict(std_error=-1.0),
        dict(std_error=math.nan),
        dict(mean=math.inf),
        dict(excluded=-1),
    ],
)
def test_mcestimate_rejects_bad_fields(kwargs):
    base = dict(mean=1.0, std_error=0.1, trials=10, excluded=0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        McEstimate(**base)


# ---------------------------------------------------------------------------
# Frozen small-case oracles
# ---------------------------------------------------------------------------


def test_data_spectrum_single_entry_oracle():
    # E[ln |g|^2] for one CN(0,1) entry is -gamma.
    est = expected_log_sv_sum(SvKind.DATA, ONE_STREAM, trials=20000, seed=0)
    assert abs(est.mean - (-EULER_GAMMA)) <= 4.0 * est.std_error


def test_joint_spectrum_single_entry_oracle():
    # Scalar product of two independent factors: E[ln |g|^2] + E[ln chi^2]
    # with two complex degrees of freedom: -gamma + psi(2) = 1 - 2 gamma.
    est = expected_log_sv_sum(SvKind.JOINT, ONE_STREAM, trials=20000, seed=0)
    assert abs(est.mean - (1.0 - 2.0 * EULER_GAMMA)) <= 4.0 * est.std_error


def test_data_spectrum_scales_with_power():
    cfg = SystemConfig(M=8, K=2, N_E=4, N_J=0, T=8, alpha2=4.0, beta2=0.0)
    est = expected_log_sv_sum(SvKind.DATA, cfg, trials=20000, seed=0)
    target = expected_logdet_wishart(2, 4) + 2.0 * math.log(4.0)
    assert abs(est.mean - target) <= 4.0 * est.std_error


def test_an_tail_matches_wishart_product():
    # With N_E = N_J both factors are square, so the log sum splits into
    # two independent Wishart log-determinants plus the power scale.
    cfg = balanced_config(M=8, K=2, N_E=2, N_J=2, T=8)
    est = expected_log_sv_sum(SvKind.AN_TAIL, cfg, trials=8000, seed=0)
    target = (
        2.0 * math.log(cfg.beta2)
        + expected_logdet_wishart(2, 2)
        + expected_logdet_wishart(2, 6)
    )
    assert abs(est.mean - target) <= 4.0 * est.std_error


def test_ergodic_leakage_single_entry_oracle():
    # E[log2(1 + |g|^2)] with |g|^2 ~ Exp(1) equals e * E1(1) * log2(e).
    est = ergodic_leakage(ONE_STREAM, 1.0, trials=20000, seed=0)
    oracle = math.e * float(exp1(1.0)) / math.log(2.0)
    assert abs(est.mean - oracle) <= 4.0 * est.std_error


def test_ergodic_constant_single_entry_oracle():
    est = ergodic_constant(ONE_STREAM, trials=20000, seed=0)
    oracle = -EULER_GAMMA / math.log(2.0)
    assert abs(est.mean - oracle) <= 4.0 * est.std_error


# ---------------------------------------------------------------------------
# Factorized sampling against direct products
# ---------------------------------------------------------------------------


def test_joint_matches_direct_product_sampling(rng):
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=2, T=6)
    est = expected_log_sv_sum(SvKind.JOINT, cfg, trials=8000, seed=0)
    products = []
    for _ in range(8000):
        left = np.concatenate(
            [
                math.sqrt(cfg.alpha2) * sample_gaussian(3, 2, 1.0, rng),
                math.sqrt(cfg.beta2) * sample_gaussian(3, 2, 1.0, rng),
            ],
            axis=1,
        )
        products.append(left @ sample_gaussian(4, 6, 1.0, rng))
    direct, direct_se = _direct_log_sv_sum(products, 3)
    assert abs(est.mean - direct) <= 4.0 * math.hypot(est.std_error, direct_se)


def test_an_post_matches_direct_product_sampling(rng):
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=2, T=6)  # t_prime = 4
    est = expected_log_sv_sum(SvKind.AN_POST, cfg, trials=8000, seed=0)
    products = []
    for _ in range(8000):
        left = math.sqrt(cfg.beta2) * sample_gaussian(3, 2, 1.0, rng)
        products.append(left @ sample_gaussian(2, 4, 1.0, rng))
    direct, direct_se = _direct_log_sv_sum(products, 2)
    assert abs(est.mean - direct) <= 4.0 * math.hypot(est.std_error, direct_se)


# ---------------------------------------------------------------------------
# Determinism and argument checking
# ---------------------------------------------------------------------------


def test_worker_count_is_invisible():
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16)
    serial = ergodic_leakage(cfg, 0.1, trials=600, seed=5, workers=1)
    threaded = ergodic_leakage(cfg, 0.1, trials=600, seed=5, workers=3)
    assert serial == threaded
    a = expected_log_sv_sum(SvKind.JOINT, cfg, trials=600, seed=5, workers=1)
    b = expected_log_sv_sum(SvKind.JOINT, cfg, trials=600, seed=5, workers=4)
    assert a == b
    for estimate in (partial(universal_constant, sigma_z2=0.1), ergodic_constant):
        serial = estimate(cfg, trials=600, seed=5, workers=1)
        assert estimate(cfg, trials=600, seed=5, workers=3) == serial


def test_seed_selects_the_stream():
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16)
    assert ergodic_leakage(cfg, 0.1, trials=400, seed=0) != ergodic_leakage(
        cfg, 0.1, trials=400, seed=1
    )


def test_monte_carlo_bundle_forwards_parameters():
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16)
    mc = MonteCarlo(trials=500, seed=3)
    assert mc.ergodic_leakage(cfg, 0.1) == ergodic_leakage(
        cfg, 0.1, trials=500, seed=3
    )
    assert mc.log_sv_sum(SvKind.DATA, cfg) == expected_log_sv_sum(
        SvKind.DATA, cfg, trials=500, seed=3
    )


# ---------------------------------------------------------------------------
# MonteCarlo's draw cache
# ---------------------------------------------------------------------------

# Valid for every SvKind and for the universal constant (T >= K + N_J,
# t' >= N_J, N_E > K), with unequal powers so neither drops out of a key.
CACHE_CFG = SystemConfig(M=8, K=2, N_E=4, N_J=3, T=12, alpha2=1.5, beta2=0.7)
CACHE_RUN = dict(trials=150, seed=4)  # three batches, the last one short


def _through(mc, cfg, s2):
    """Every cached estimate of ``mc`` at ``cfg`` and noise floor ``s2``."""
    out = {kind: mc.log_sv_sum(kind, cfg) for kind in SvKind}
    out["ergodic"] = mc.ergodic_leakage(cfg, s2)
    out["universal"] = mc.universal_constant(cfg, s2)
    return out


def _uncached(cfg, s2, workers):
    out = {
        kind: expected_log_sv_sum(kind, cfg, workers=workers, **CACHE_RUN)
        for kind in SvKind
    }
    out["ergodic"] = ergodic_leakage(cfg, s2, workers=workers, **CACHE_RUN)
    out["universal"] = universal_constant(cfg, s2, workers=workers, **CACHE_RUN)
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_cached_estimates_equal_the_module_functions(workers):
    mc = MonteCarlo(workers=workers, **CACHE_RUN)
    first = _through(mc, CACHE_CFG, 1.0)
    assert first == _uncached(CACHE_CFG, 1.0, workers)
    assert _through(mc, CACHE_CFG, 1.0) == first
    snrs = (-20.0, 10.0, 40.0)
    for order in (snrs, snrs[::-1]):
        mc = MonteCarlo(workers=workers, **CACHE_RUN)
        for snr in order:
            cfg = dataclasses.replace(CACHE_CFG, snr_e_db=snr)
            assert _through(mc, cfg, cfg.sigma_z2) == _uncached(
                cfg, cfg.sigma_z2, workers
            )


@pytest.mark.parametrize(
    "change",
    [
        dict(N_E=5),
        dict(K=1),
        dict(N_J=2),
        dict(T=14),
        dict(t_prime_override=7),
        dict(alpha2=1.2),
        dict(beta2=0.9),
    ],
    ids=lambda change: next(iter(change)),
)
def test_cache_key_covers_every_field_a_draw_reads(change):
    # A field missing from a key would hand back the first configuration's
    # numbers for the second.
    mc = MonteCarlo(**CACHE_RUN)
    before = _through(mc, CACHE_CFG, 1.0)
    cfg = dataclasses.replace(CACHE_CFG, **change)
    after = _through(mc, cfg, 1.0)
    assert after == _through(MonteCarlo(**CACHE_RUN), cfg, 1.0)
    assert after != before


def test_snr_changes_reuse_the_cached_draws(draw_counts):
    mc = MonteCarlo(**CACHE_RUN)
    for snr_e, snr_l in ((30.0, 30.0), (-20.0, 30.0), (40.0, 10.0)):
        cfg = dataclasses.replace(CACHE_CFG, snr_e_db=snr_e, snr_l_db=snr_l)
        _through(mc, cfg, cfg.sigma_z2)
    assert draw_counts == {"log_sv": len(SvKind), "ergodic": 1, "universal": 1}


def test_rank_zero_spectra_short_circuit():
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=0, T=16)
    for kind in (SvKind.AN_TAIL, SvKind.AN_POST, SvKind.AN_EXCESS):
        est = expected_log_sv_sum(kind, cfg, trials=250, seed=0)
        assert est == McEstimate(0.0, 0.0, 250, 0)


@pytest.mark.parametrize(
    ("kind", "cfg"),
    [
        (SvKind.JOINT, balanced_config(M=8, K=2, N_E=3, N_J=4, T=5)),
        (SvKind.AN_TAIL, balanced_config(M=8, K=2, N_E=3, N_J=4, T=5)),
        (SvKind.AN_EXCESS, balanced_config(M=8, K=3, N_E=3, N_J=4, T=32)),
        (SvKind.AN_EXCESS, balanced_config(M=8, K=2, N_E=6, N_J=4, T=5)),
        (SvKind.AN_POST, balanced_config(M=8, K=2, N_E=3, N_J=4, T=5)),
    ],
)
def test_block_length_preconditions(kind, cfg):
    with pytest.raises(ValueError):
        expected_log_sv_sum(kind, cfg, trials=100, seed=0)


def test_run_argument_validation():
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16)
    with pytest.raises(ValueError):
        expected_log_sv_sum(SvKind.DATA, cfg, trials=1)
    with pytest.raises(ValueError):
        expected_log_sv_sum(SvKind.DATA, cfg, trials=100, seed=-1)
    with pytest.raises(ValueError):
        expected_log_sv_sum(SvKind.DATA, cfg, trials=100, workers=0)
    with pytest.raises(ValueError):
        expected_log_sv_sum("data", cfg, trials=100)
    with pytest.raises(ValueError):
        MonteCarlo(trials=100).log_sv_sum("data", cfg)
    with pytest.raises(ValueError):
        ergodic_leakage(cfg, 0.0, trials=100)
    with pytest.raises(ValueError):
        universal_constant(cfg, -1.0, trials=100)
    # An estimator object rejects its run arguments when it is built.
    for bad in (
        partial(MonteCarlo, trials=1),
        partial(ExactFirst, seed=-1),
        partial(MonteCarlo, workers=0),
        partial(ExactFirst, trials=2.5),
    ):
        with pytest.raises(ValueError):
            bad()
    # Every stream tag of the package is distinct, and tag 6 stays retired.
    tags = [kind.value for kind in SvKind]
    tags += [v for name, v in vars(montecarlo).items() if name.startswith("_TAG_")]
    assert len(set(tags)) == len(tags) > len(SvKind)
    assert 6 not in tags
    assert (montecarlo._TAG_DISTRIBUTIONS, montecarlo._TAG_TRANSMIT_POWER) == (100, 101)


def test_degenerate_rows_become_nan():
    sq = np.array(
        [
            [4.0, 1.0],
            [4.0, 0.0],
            [2.0, 1.0],
        ]
    )
    vals = _log_sv_values(sq, 2)
    assert vals[0] == pytest.approx(math.log(4.0))
    assert math.isnan(vals[1])
    assert vals[2] == pytest.approx(math.log(2.0))


def test_roundoff_level_spectra_are_excluded():
    # This product is exact in floating point and its true squared
    # singular-value ratio is 3.1e-33, far below what the Gram route
    # resolves: it returns roundoff for the small value, not zero, and that
    # roundoff must be excluded rather than averaged as a log.
    near = np.array([[1.0, 0.0], [1.0, 1.0]]) @ np.array([[1.0, 1.0], [0.0, 2.0**-52]])
    true = mpmath.svd_r(mpmath.matrix(near.tolist()), compute_uv=False)
    assert float((true[1] / true[0]) ** 2) < 1e-32
    sq = squared_singular_values(np.stack([np.eye(2), near, 2.0 * np.eye(2)]))
    assert 0.0 < sq[1, 1] / sq[1, 0] < 1e-12
    est = _summarize([_log_sv_values(sq, 2)])
    assert (est.trials, est.excluded) == (2, 1)


# ---------------------------------------------------------------------------
# ExactFirst: closed forms against the sampled estimators
# ---------------------------------------------------------------------------

EXACT_CFGS = {
    # rows >= K + N_J for every kind, at unequal powers (DATA: dof None).
    "tall-unequal": SystemConfig(M=8, K=2, N_E=6, N_J=3, T=12, alpha2=1.5, beta2=0.7),
    # rows < K + N_J for JOINT, AN_TAIL, AN_EXCESS, AN_POST and Gbar, at one power.
    "wide-equal": SystemConfig(M=8, K=2, N_E=3, N_J=4, T=12, alpha2=1.3, beta2=1.3),
    # No noise columns: rank-zero AN kinds, and a wide DATA block (N_E < K).
    "no-noise": SystemConfig(M=8, K=4, N_E=2, N_J=0, T=12, alpha2=1.7, beta2=0.0),
}
# JOINT and Gbar with two powers on fewer rows than columns: sampled.
WIDE_UNEQUAL = SystemConfig(M=8, K=2, N_E=3, N_J=4, T=12, alpha2=1.5, beta2=0.7)
EXACT_RUN = dict(trials=4000, seed=2)


@pytest.mark.parametrize("name", list(EXACT_CFGS))
def test_exact_values_agree_with_sampling(name):
    cfg = EXACT_CFGS[name]
    exact = ExactFirst(**EXACT_RUN)
    pairs = [
        (exact.log_sv_sum(kind, cfg), expected_log_sv_sum(kind, cfg, **EXACT_RUN))
        for kind in SvKind
    ]
    pairs.append((exact.ergodic_constant(cfg), ergodic_constant(cfg, **EXACT_RUN)))
    for law, sampled in pairs:
        assert (law.std_error, law.trials, law.excluded) == (0.0, 4000, 0)
        assert abs(law.mean - sampled.mean) <= 4.0 * sampled.std_error, (law, sampled)


def test_exact_first_samples_what_has_no_known_law():
    mc = MonteCarlo(**EXACT_RUN)
    exact = ExactFirst(**EXACT_RUN)
    cfg = WIDE_UNEQUAL
    assert exact.log_sv_sum(SvKind.JOINT, cfg) == mc.log_sv_sum(SvKind.JOINT, cfg)
    assert exact.log_sv_sum(SvKind.JOINT, cfg).std_error > 0.0
    assert exact.ergodic_constant(cfg) == mc.ergodic_constant(cfg)
    assert exact.ergodic_leakage(cfg, 0.1) == mc.ergodic_leakage(cfg, 0.1)
    assert exact.universal_constant(cfg, 0.1) == mc.universal_constant(cfg, 0.1)
    assert exact.log_sv_sum(SvKind.AN_TAIL, cfg).std_error == 0.0


@pytest.mark.parametrize(
    ("kind", "cfg"),
    [
        (SvKind.JOINT, balanced_config(M=8, K=2, N_E=3, N_J=4, T=5)),  # T < K + N_J
        (SvKind.AN_EXCESS, balanced_config(M=8, K=3, N_E=3, N_J=4, T=32)),  # no rows
    ],
)
def test_exact_first_rejects_what_sampling_rejects(kind, cfg):
    with pytest.raises(ValueError) as sampled:
        expected_log_sv_sum(kind, cfg, trials=100, seed=0)
    with pytest.raises(ValueError) as exact:
        ExactFirst(trials=100).log_sv_sum(kind, cfg)
    assert str(exact.value) == str(sampled.value)


# ---------------------------------------------------------------------------
# Universal constant and the spectrum split
# ---------------------------------------------------------------------------


def test_universal_constant_noise_dominated_limit():
    # With sigma^2 far above every channel gain the constant collapses to
    # the deterministic floor (1 - N_J/t') * K * log2(sigma^2).
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=2, T=6)  # t_prime 4, weight 1/2
    s2 = 1e12
    est = universal_constant(cfg, s2, trials=400, seed=0)
    assert est.mean == pytest.approx(0.5 * 2 * math.log2(s2), abs=1e-6)


def test_sv_split_separates_signal_and_noise():
    cfg = balanced_config(M=8, K=2, N_E=6, N_J=2, T=12)
    report = sv_split_check(cfg, 1e-8, trials=300, seed=0)
    assert report.xi == 4
    assert report.omega == 6
    assert report.top_rel_dev_median < 1e-4
    assert report.top_rel_dev_max < 0.1
    assert report.trailing_energy_ratio == pytest.approx(1.0, abs=0.1)
    assert report.trailing_ks < 0.12


def test_sv_split_without_trailing_part():
    cfg = balanced_config(M=8, K=2, N_E=4, N_J=2, T=12)
    report = sv_split_check(cfg, 1e-8, trials=50, seed=0)
    assert report.xi == report.omega == 4
    assert math.isnan(report.trailing_energy_ratio)
    assert report.trailing_ks == 0.0


def test_sv_split_keeps_its_stream_across_batch_edges():
    # Reference: a plain per-trial loop on the same generators.  70 trials
    # span a full 64-trial batch of `_run_trials` and a partial one.
    cfg = balanced_config(M=8, K=2, N_E=6, N_J=2, T=12)
    s2, trials, seed = 1e-3, 70, 3
    xi, omega = 4, 6
    top_devs, trailing, reference = [], [], []
    for i in range(trials):
        rng = montecarlo._trial_rng(seed, montecarlo._TAG_SPLIT, i)
        gbar = montecarlo._product(*montecarlo._gbar_args(cfg), rng)
        prod = gbar @ sample_gaussian(cfg.mbar, cfg.T, 1.0, rng)
        z = sample_gaussian(cfg.N_E, cfg.T, s2, rng)
        sp = np.sqrt(squared_singular_values(prod))
        sy = np.sqrt(squared_singular_values(prod + z))
        top_devs.append(np.abs(sy[:xi] - sp[:xi]) / sp[:xi])
        trailing.append(sy[xi:omega])
        ref = math.sqrt(s2) * sample_gaussian(cfg.N_E - xi, cfg.T - xi, 1.0, rng)
        reference.append(np.sqrt(squared_singular_values(ref)))
    devs, tail = np.concatenate(top_devs), np.concatenate(trailing)
    expected = montecarlo.SplitCheckReport(
        trials=trials,
        xi=xi,
        omega=omega,
        top_rel_dev_median=float(np.median(devs)),
        top_rel_dev_max=float(np.max(devs)),
        trailing_energy_ratio=float(
            np.sum(tail**2) / (trials * s2 * (cfg.N_E - xi) * (cfg.T - xi))
        ),
        trailing_ks=montecarlo._two_sample_ks(tail, np.concatenate(reference)),
    )
    assert sv_split_check(cfg, s2, trials=trials, seed=seed) == expected


def test_sv_split_argument_validation():
    cfg = balanced_config(M=8, K=2, N_E=4, N_J=2, T=3)
    with pytest.raises(ValueError):
        sv_split_check(cfg, 1e-8, trials=50, seed=0)  # T < K + N_J
    long_cfg = balanced_config(M=8, K=2, N_E=4, N_J=2, T=12)
    with pytest.raises(ValueError):
        sv_split_check(long_cfg, 0.0, trials=50, seed=0)
    with pytest.raises(ValueError):
        sv_split_check(long_cfg, 1e-8, trials=1, seed=0)
    with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
        sv_split_check(long_cfg, 1e-8, trials=2.5, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sv_split_check(long_cfg, 1e-8, trials=50, seed=-1)
