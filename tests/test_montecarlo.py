"""Monte Carlo spectrum estimators against closed forms and direct sampling."""

import dataclasses
import math
import sys
import threading
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.special import exp1
from scipy.stats import kstest

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
from anleak.montecarlo import _in_order, _log_sv_values, _summarize

ONE_STREAM = SystemConfig(M=2, K=1, N_E=1, N_J=0, T=2, alpha2=1.0, beta2=0.0)


def _at(cfg, s2):
    """``cfg`` at the eavesdropper SNR whose noise floor is exactly ``s2``."""
    at = dataclasses.replace(cfg, snr_e_db=-10.0 * math.log10(s2))
    assert at.sigma_z2 == s2
    return at


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
        dict(trials=-1),
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
    # 0 trials means an exact value, which has no standard error.
    assert McEstimate(1.0, 0.0, 0).trials == 0


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
    est = ergodic_leakage(dataclasses.replace(ONE_STREAM, snr_e_db=0.0), trials=20000, seed=0)
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


@pytest.fixture
def fresh_blas_lookup():
    """Forget the process's OpenBLAS lookup before and after the test."""
    montecarlo._openblas.cache_clear()
    yield
    montecarlo._openblas.cache_clear()


@pytest.fixture
def openblas():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, set to 2 for
    the test (a count a hold must change) and restored after it."""
    blas = montecarlo._openblas()
    if blas is None:
        pytest.skip("numpy does not use a bundled OpenBLAS here")
    get, put = blas
    before = get()
    put(2)
    yield get, put
    put(before)


def test_the_pool_holds_openblas_to_one_thread_and_restores_it(openblas):
    get, _ = openblas
    assert _in_order(lambda _: get(), range(4), 2) == [1, 1, 1, 1]
    assert get() == 2
    with pytest.raises(ZeroDivisionError):
        _in_order(lambda x: 1 / x, [1, 0, 2], 2)
    assert get() == 2
    with montecarlo._one_blas_thread():  # a nested hold restores nothing
        assert _in_order(lambda _: get(), range(2), 2) == [1, 1]
        assert get() == 1
    assert get() == 2


def test_concurrent_pools_restore_openblas_when_the_last_one_ends(openblas):
    get, _ = openblas
    seen = []

    def pool_reads():
        seen.extend(_in_order(lambda _: get(), range(4), 3))

    threads = [threading.Thread(target=pool_reads) for _ in range(6)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # interleave the holds' bookkeeping
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [1] * 24
    assert get() == 2  # a lost update would restore 1, or nothing


def test_a_missing_openblas_is_a_silent_no_op(monkeypatch, fresh_blas_lookup):
    monkeypatch.setattr(montecarlo, "_find_openblas", lambda: None)
    assert _in_order(abs, [-1, 2, -3], 2) == [1, 2, 3]


def test_openblas_is_looked_up_once_per_process(monkeypatch, fresh_blas_lookup):
    calls = []
    find = montecarlo._find_openblas
    monkeypatch.setattr(montecarlo, "_find_openblas", lambda: calls.append(1) or find())
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16, snr_e_db=10.0)
    ergodic_leakage(cfg, trials=100, seed=5)
    assert calls == []  # a serial estimator never looks the library up
    for _ in range(3):
        _in_order(abs, [-1, 2], 2)
    assert calls == [1]


def test_the_pool_keeps_item_order_whatever_the_start_order():
    assert _in_order(str, [3, 1, 2], 2, start=(2, 0, 1)) == ["3", "1", "2"]
    calls = []

    def fail(x):
        calls.append(x)
        raise ValueError(str(x))

    # Started last, the first item's error is still the one raised.
    with pytest.raises(ValueError, match="^0$"):
        _in_order(fail, [0, 1, 2], 1, start=(2, 1, 0))
    assert calls == [2, 1, 0]


def test_seed_selects_the_stream():
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16, snr_e_db=10.0)
    assert ergodic_leakage(cfg, trials=400, seed=0) != ergodic_leakage(cfg, trials=400, seed=1)


def test_monte_carlo_bundle_forwards_parameters():
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16, snr_e_db=10.0)
    mc = MonteCarlo(trials=500, seed=3)
    assert mc.ergodic_leakage(cfg) == ergodic_leakage(cfg, trials=500, seed=3)
    assert mc.log_sv_sum(SvKind.DATA, cfg) == expected_log_sv_sum(
        SvKind.DATA, cfg, trials=500, seed=3
    )


# ---------------------------------------------------------------------------
# MonteCarlo's draw cache
# ---------------------------------------------------------------------------

# Valid for every SvKind and for the universal constant (T >= K + N_J,
# t' >= N_J, N_E > K), with unequal powers so neither drops out of a key;
# at 0 dB, a noise floor of 1.
CACHE_CFG = SystemConfig(M=8, K=2, N_E=4, N_J=3, T=12, alpha2=1.5, beta2=0.7, snr_e_db=0.0)
# Two full batches of `_run_trials` and a short one.
CACHE_RUN = dict(trials=2 * montecarlo._BATCH + 6, seed=4)


def _through(mc, cfg):
    """Every cached estimate of ``mc`` at ``cfg``."""
    out = {kind: mc.log_sv_sum(kind, cfg) for kind in SvKind}
    out["ergodic"] = mc.ergodic_leakage(cfg)
    out["universal"] = mc.universal_constant(cfg)
    return out


def _uncached(cfg):
    out = {kind: expected_log_sv_sum(kind, cfg, **CACHE_RUN) for kind in SvKind}
    out["ergodic"] = ergodic_leakage(cfg, **CACHE_RUN)
    out["universal"] = universal_constant(cfg, **CACHE_RUN)
    return out


def test_cached_estimates_equal_the_module_functions():
    mc = MonteCarlo(**CACHE_RUN)
    first = _through(mc, CACHE_CFG)
    assert first == _uncached(CACHE_CFG)
    assert _through(mc, CACHE_CFG) == first
    snrs = (-20.0, 10.0, 40.0)
    for order in (snrs, snrs[::-1]):
        mc = MonteCarlo(**CACHE_RUN)
        for snr in order:
            cfg = dataclasses.replace(CACHE_CFG, snr_e_db=snr)
            assert _through(mc, cfg) == _uncached(cfg)


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
    before = _through(mc, CACHE_CFG)
    cfg = dataclasses.replace(CACHE_CFG, **change)
    after = _through(mc, cfg)
    assert after == _through(MonteCarlo(**CACHE_RUN), cfg)
    assert after != before


def test_snr_changes_reuse_the_cached_draws(draw_counts):
    mc = MonteCarlo(**CACHE_RUN)
    for snr_e, snr_l in ((30.0, 30.0), (-20.0, 30.0), (40.0, 10.0)):
        cfg = dataclasses.replace(CACHE_CFG, snr_e_db=snr_e, snr_l_db=snr_l)
        _through(mc, cfg)
    # Only the ergodic draw is kept; the others are drawn at every SNR.
    assert draw_counts == {"log_sv": 3 * len(SvKind), "ergodic": 1, "universal": 3}


def test_ergodic_constant_and_leakage_share_one_draw(draw_counts):
    mc = MonteCarlo(**CACHE_RUN)
    mc.ergodic_constant(CACHE_CFG)
    mc.ergodic_leakage(dataclasses.replace(CACHE_CFG, snr_e_db=10.0))
    assert draw_counts == {"ergodic": 1}


def test_ergodic_constant_is_the_mean_of_the_first_control():
    # The plain constant averages, over the kept draw, the per-trial high-SNR
    # log-determinant differences of `_ergodic_constant_values`.
    mc = MonteCarlo(**CACHE_RUN)
    constant = mc.ergodic_constant(CACHE_CFG)
    batches = mc._cache[montecarlo._gbar_args(CACHE_CFG)]
    values = np.concatenate([montecarlo._ergodic_constant_values(*b) for b in batches])
    trials = CACHE_RUN["trials"]
    assert constant == McEstimate(values.mean(), constant.std_error, trials, 0)


def test_rank_zero_spectra_short_circuit():
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=0, T=16)
    for kind in (SvKind.AN_TAIL, SvKind.AN_POST, SvKind.AN_EXCESS):
        est = expected_log_sv_sum(kind, cfg, trials=250, seed=0)
        assert est == McEstimate(0.0, 0.0, 0, 0)  # exact: no trial entered


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
        expected_log_sv_sum("data", cfg, trials=100)
    with pytest.raises(ValueError):
        MonteCarlo(trials=100).log_sv_sum("data", cfg)
    # An estimator object rejects its run arguments when it is built.
    for bad in (
        partial(MonteCarlo, trials=1),
        partial(MonteCarlo, seed=-1),
        partial(MonteCarlo, workers=0),
        partial(MonteCarlo, trials=2.5),
        partial(MonteCarlo, seed=True),
        partial(MonteCarlo, workers=np.True_),
        partial(MonteCarlo, trials="100"),
    ):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(ValueError):
        expected_log_sv_sum(SvKind.DATA, cfg, trials=100, seed=False)
    # Every stream tag of the package is distinct, and tags 6 and 8 stay retired.
    tags = [kind.value for kind in SvKind]
    tags += [v for name, v in vars(montecarlo).items() if name.startswith("_TAG_")]
    assert len(set(tags)) == len(tags) > len(SvKind)
    assert not {6, 8} & set(tags)
    assert (montecarlo._TAG_DISTRIBUTIONS, montecarlo._TAG_TRANSMIT_POWER) == (100, 101)


def test_run_arguments_may_be_numpy_integers():
    # Any integer type is an integer (numpy's through `operator.index`), and
    # is kept as a plain int.
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=4, T=16, snr_e_db=10.0)
    mc = MonteCarlo(trials=np.int64(100), seed=np.uint8(3), workers=np.int32(2))
    assert (mc.trials, mc.seed) == (100, 3)
    assert all(type(v) is int for v in (mc.trials, mc.seed))
    assert mc == MonteCarlo(trials=100, seed=3)
    assert mc.ergodic_leakage(cfg) == MonteCarlo(trials=100, seed=3).ergodic_leakage(cfg)
    numpy_run = expected_log_sv_sum(SvKind.DATA, cfg, trials=np.int16(50), seed=np.int64(1))
    assert numpy_run == expected_log_sv_sum(SvKind.DATA, cfg, trials=50, seed=1)


def test_degenerate_rows_become_nan():
    sq = np.array(
        [
            [4.0, 1.0],
            [4.0, 0.0],
            [2.0, 1.0],
        ]
    )
    vals = _log_sv_values(sq)
    assert vals[0] == pytest.approx(math.log(4.0))
    assert math.isnan(vals[1])
    assert vals[2] == pytest.approx(math.log(2.0))


def test_summarize_excludes_nans_and_needs_two_trials():
    vals = np.array([1.0, 2.0, 4.0, 8.0, np.nan])
    se = float(np.std(vals[:4], ddof=1) / 2.0)
    assert _summarize([vals[:2], vals[2:]]) == McEstimate(3.75, se, 4, 1)
    with pytest.raises(ValueError, match="only 1 valid trials"):
        _summarize([vals[3:]])


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
    est = _summarize([_log_sv_values(sq)])
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
    # JOINT and Gbar with two powers on fewer rows than columns: the Jacobi law.
    "wide-unequal": SystemConfig(M=8, K=2, N_E=3, N_J=4, T=12, alpha2=1.5, beta2=0.7),
    # The same with N_J < N_E < K + N_J: N_E - N_J eigenvalues of the beta
    # matrix sit at 1, and the Jacobi exponents swap ends.
    "wide-unequal-few-noise": SystemConfig(M=8, K=4, N_E=5, N_J=3, T=12, alpha2=1.5, beta2=0.7),
}
WIDE_UNEQUAL = EXACT_CFGS["wide-unequal"]
EXACT_RUN = dict(trials=4000, seed=2)


# A 48-column wide block at powers 1e-4 apart, below the hand-over of
# `twopower`'s near-equal expansion (n = 32: delta* = 2.1e-4).
NEAR_EQUAL = SystemConfig(M=64, K=8, N_E=32, N_J=40, T=192, alpha2=1.0001, beta2=1.0)


@pytest.mark.parametrize("name", list(EXACT_CFGS))
def test_exact_values_agree_with_sampling(name):
    cfg = EXACT_CFGS[name]
    exact = ExactFirst()
    pairs = [
        (exact.log_sv_sum(kind, cfg), expected_log_sv_sum(kind, cfg, **EXACT_RUN))
        for kind in SvKind
    ]
    pairs.append((exact.ergodic_constant(cfg), ergodic_constant(cfg, **EXACT_RUN)))
    for law, sampled in pairs:
        assert (law.std_error, law.trials, law.excluded) == (0.0, 0, 0)
        assert abs(law.mean - sampled.mean) <= 4.0 * sampled.std_error, (law, sampled)


def test_exact_first_answers_near_equal_powers_without_sampling(draw_counts):
    # Every quantity has a known law, so nothing is sampled: the ergodic
    # leakage at powers 1e-4 apart (the near-equal expansion) lies within 4
    # SE of a plain MonteCarlo with SE 0.  (The two-power wide JOINT, the
    # ergodic constant and the universal constant are checked over `EXACT_CFGS`.)
    near = _at(NEAR_EQUAL, 0.1)
    law = ExactFirst().ergodic_leakage(near)
    assert law.std_error == 0.0 and draw_counts == {}
    plain = MonteCarlo(trials=400, seed=2).ergodic_leakage(near)
    assert abs(law.mean - plain.mean) <= 4.0 * plain.std_error, (law, plain)


@pytest.mark.parametrize("name", list(EXACT_CFGS))
def test_exact_first_ergodic_leakage_agrees_with_sampling(name):
    # Each configuration and its data-only view (no noise columns), from
    # the noise-dominated regime to high SNR.  One power (every data-only
    # view, and wide-equal) is the Laguerre law, two powers the
    # polynomial-ensemble law of `twopower`: SE 0 either way, within 4 SE
    # of plain sampling.
    exact, plain = ExactFirst(), MonteCarlo(**EXACT_RUN)
    cfg = EXACT_CFGS[name]
    for view in (cfg, dataclasses.replace(cfg, N_J=0, beta2=0.0)):
        for at in (_at(view, s2) for s2 in (100.0, 1.0, 1e-2, 1e-5)):
            law, sampled = exact.ergodic_leakage(at), plain.ergodic_leakage(at)
            band = 4.0 * math.hypot(law.std_error, sampled.std_error)
            assert abs(law.mean - sampled.mean) <= band, (at, law, sampled)
            assert (law.std_error, law.trials, law.excluded) == (0.0, 0, 0)


TWO_POWER_SHAPES = {
    # N_E = K + N_J: the hardest fit, where ln lambda_min has a heavy tail.
    "square": SystemConfig(M=8, K=2, N_E=5, N_J=3, T=12, alpha2=1.5, beta2=0.7),
    # One row fewer than columns: J, the beta-matrix control, enters.
    "wide-by-one": SystemConfig(M=8, K=2, N_E=4, N_J=3, T=12, alpha2=1.5, beta2=0.7),
    # Four rows more than columns.
    "tall-by-four": SystemConfig(M=8, K=2, N_E=9, N_J=3, T=12, alpha2=1.5, beta2=0.7),
}


@pytest.mark.parametrize("s2", [1.0, 1e-3])
@pytest.mark.parametrize("name", list(TWO_POWER_SHAPES))
def test_two_power_ergodic_leakage_agrees_with_sampling(name, s2):
    # The law against plain sampling, in a 4 hypot(SE) band.
    cfg = _at(TWO_POWER_SHAPES[name], s2)
    law = ExactFirst().ergodic_leakage(cfg)
    sampled = MonteCarlo(trials=EXACT_RUN["trials"], seed=3).ergodic_leakage(cfg)
    band = 4.0 * math.hypot(law.std_error, sampled.std_error)
    assert abs(law.mean - sampled.mean) <= band, (law, sampled)
    assert law.std_error == 0.0


def test_two_power_ergodic_leakage_on_a_tall_block_at_high_snr():
    # At 60 dB on a 64 x 5 block, within 4 SE of plain sampling.
    cfg = SystemConfig(M=8, K=2, N_E=64, N_J=3, T=12, alpha2=1.5, beta2=0.7, snr_e_db=60.0)
    law = ExactFirst().ergodic_leakage(cfg)
    sampled = MonteCarlo(trials=2000, seed=1).ergodic_leakage(cfg)
    assert abs(law.mean - sampled.mean) <= 4.0 * sampled.std_error, (law, sampled)
    assert law.std_error == 0.0


def test_product_draws_each_batch_from_one_generator():
    # Reference: the batch draw written out on its one generator: every
    # trial's Gaussian block (each entry's real part, then its imaginary
    # part), then every trial's Bartlett diagonal (Gamma magnitudes), then
    # every trial's strict lower triangle, row by row.
    args, n = (4, 2, 1.5, 3, 0.7, 9), 6

    def rng():
        return np.random.default_rng(np.random.SeedSequence((3, SvKind.JOINT.value, 0)))

    batch = montecarlo._product(*args, rng(), n)
    ref = rng()
    z = ref.standard_normal((n, 4, 10))
    left = (z[:, :, 0::2] + 1j * z[:, :, 1::2]) * math.sqrt(0.5)
    left *= np.sqrt([1.5, 1.5, 0.7, 0.7, 0.7])
    diag = np.sqrt(ref.gamma(9 - np.arange(5), size=(n, 5)))
    z = ref.standard_normal((n, 20))
    lower = (z[:, 0::2] + 1j * z[:, 1::2]) * math.sqrt(0.5)
    for i in range(n):
        factor = np.diag(diag[i]).astype(complex)
        factor[np.tril_indices(5, k=-1)] = lower[i]
        assert np.array_equal(batch[i], left[i] @ factor)


@pytest.mark.parametrize(
    ("cfg", "s2", "mean", "std_error"),
    [
        (EXACT_CFGS["wide-equal"], 0.1, 2.5281332720033816, 0.0077123523090337305),
        (EXACT_CFGS["wide-equal"], 1e-3, 2.691064520952153, 0.00014996290387881686),
        (
            SystemConfig(M=8, K=2, N_E=6, N_J=3, T=12, alpha2=1.6, beta2=1.6),
            0.1,
            10.236406262527025,
            0.011207448792698877,
        ),
        (
            SystemConfig(M=8, K=2, N_E=6, N_J=3, T=12, alpha2=1.6, beta2=1.6),
            1e-3,
            23.232676713688583,
            0.00024132776180781513,
        ),
    ],
)
def test_one_power_ergodic_leakage_keeps_its_two_control_fit(cfg, s2, mean, std_error):
    # Pinned values of a sampled second route: a two-control fit of the
    # ergodic leakage at 200 trials, seed 5 (controls: the trial's high-SNR
    # log-determinant difference and |G1|_F^2, each less its exact mean).
    # The one-power law must lie within 4 of its standard errors.
    est = ExactFirst().ergodic_leakage(_at(cfg, s2))
    assert abs(est.mean - mean) <= 4.0 * std_error, (est, mean, std_error)
    assert (est.std_error, est.trials, est.excluded) == (0.0, 0, 0)


def test_exact_first_snr_sweep_draws_the_ergodic_channel_once(draw_counts):
    # A plain MonteCarlo draws the ergodic channel once for every SNR;
    # ExactFirst draws nothing, at near-equal powers as elsewhere.
    for cfg in (NEAR_EQUAL, CACHE_CFG):
        runs = ((MonteCarlo(**CACHE_RUN), {"ergodic": 1}), (ExactFirst(), {}))
        for mc, drawn in runs:
            draw_counts.clear()
            for snr in (-20.0, 10.0, 40.0):
                mc.ergodic_leakage(dataclasses.replace(cfg, snr_e_db=snr))
            assert draw_counts == drawn


@pytest.mark.parametrize("n_e", [8, 64])
def test_smallest_eigenvalue_of_a_square_gbar_is_exponential(n_e):
    # N_E lambda_min of a square CN(0, 1) block is exactly Exp(1) (Edelman
    # 1988): the law behind the mean of validate's ergodic-slope control h.
    cfg = balanced_config(M=n_e, K=n_e // 4, N_E=n_e, N_J=n_e - n_e // 4, T=2 * n_e)
    assert (cfg.alpha2, cfg.beta2) == (1.0, 1.0)
    spectra = MonteCarlo(trials=4096 if n_e == 8 else 512, seed=3)._ergodic_spectra(cfg)
    scaled = n_e * np.concatenate([full[:, -1] for full, _ in spectra])
    assert kstest(scaled, "expon").pvalue > 0.01


UNIVERSAL_CFGS = {
    **EXACT_CFGS,
    # Square data block (N_E = K) and square noise block (N_J = t').
    "square": SystemConfig(M=8, K=2, N_E=2, N_J=4, T=6, alpha2=1.5, beta2=0.7),
}


@pytest.mark.parametrize("name", list(UNIVERSAL_CFGS))
def test_exact_universal_constant_agrees_with_sampling(name):
    cfg = UNIVERSAL_CFGS[name]
    exact = ExactFirst()
    for at in (_at(cfg, s2) for s2 in (10.0, 1.0, 1e-2, 1e-4)):
        law = exact.universal_constant(at)
        sampled = universal_constant(at, **EXACT_RUN)
        assert (law.std_error, law.trials, law.excluded) == (0.0, 0, 0)
        assert abs(law.mean - sampled.mean) <= 4.0 * sampled.std_error, (at, law, sampled)


def test_exact_universal_constant_rejects_what_sampling_rejects():
    # A zero or NaN noise floor is no longer an argument: `SystemConfig`
    # rejects the SNR behind it (tests/test_channel.py).
    short = SystemConfig(M=8, K=2, N_E=3, N_J=4, T=2, alpha2=1.5, beta2=0.7)  # t' = 0
    with pytest.raises(ValueError) as sampled:
        universal_constant(short, trials=100)
    with pytest.raises(ValueError) as exact:
        ExactFirst().universal_constant(short)
    assert str(exact.value) == str(sampled.value)


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
        ExactFirst().log_sv_sum(kind, cfg)
    assert str(exact.value) == str(sampled.value)


# ---------------------------------------------------------------------------
# Universal constant and the spectrum split
# ---------------------------------------------------------------------------


def test_universal_constant_noise_dominated_limit():
    # With sigma^2 far above every channel gain the constant collapses to
    # the deterministic floor (1 - N_J/t') * K * log2(sigma^2).
    cfg = balanced_config(M=8, K=2, N_E=3, N_J=2, T=6, snr_e_db=-120.0)  # t_prime 4, weight 1/2
    s2 = cfg.sigma_z2
    assert s2 == 1e12
    est = universal_constant(cfg, trials=400, seed=0)
    assert est.mean == pytest.approx(0.5 * 2 * math.log2(s2), abs=1e-6)


def test_sv_split_separates_signal_and_noise():
    cfg = balanced_config(M=8, K=2, N_E=6, N_J=2, T=12, snr_e_db=80.0)
    report = sv_split_check(cfg, trials=300, seed=0)
    assert report.xi == 4
    assert report.omega == 6
    assert report.top_rel_dev_median < 1e-4
    assert report.top_rel_dev_max < 0.1
    assert report.trailing_energy_ratio == pytest.approx(1.0, abs=0.1)
    assert report.trailing_ks < 0.12


def test_sv_split_without_trailing_part():
    cfg = balanced_config(M=8, K=2, N_E=4, N_J=2, T=12, snr_e_db=80.0)
    report = sv_split_check(cfg, trials=50, seed=0)
    assert report.xi == report.omega == 4
    assert math.isnan(report.trailing_energy_ratio)
    assert report.trailing_ks == 0.0


def test_sv_split_keeps_its_stream_across_batch_edges():
    # Reference: a plain loop over the trials, which starts each batch's
    # generator at its first trial.  The trials span a full batch of
    # `_run_trials` and a partial one.
    cfg = balanced_config(M=8, K=2, N_E=6, N_J=2, T=12, snr_e_db=30.0)
    s2, trials, seed = 1e-3, montecarlo._BATCH + 6, 3
    assert cfg.sigma_z2 == s2
    xi, omega = 4, 6
    top_devs, trailing, reference = [], [], []
    for i in range(trials):
        if i % montecarlo._BATCH == 0:
            batch = (seed, montecarlo._TAG_SPLIT, i // montecarlo._BATCH)
            rng = np.random.default_rng(np.random.SeedSequence(batch))
        gbar = montecarlo._product(*montecarlo._gbar_args(cfg), rng, 1)[0]
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
    assert sv_split_check(cfg, trials=trials, seed=seed) == expected


def test_sv_split_argument_validation():
    cfg = balanced_config(M=8, K=2, N_E=4, N_J=2, T=3, snr_e_db=80.0)
    with pytest.raises(ValueError):
        sv_split_check(cfg, trials=50, seed=0)  # T < K + N_J
    # A zero noise floor is rejected where its SNR is set (tests/test_channel.py).
    long_cfg = balanced_config(M=8, K=2, N_E=4, N_J=2, T=12, snr_e_db=80.0)
    with pytest.raises(ValueError):
        sv_split_check(long_cfg, trials=1, seed=0)
    with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
        sv_split_check(long_cfg, trials=2.5, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sv_split_check(long_cfg, trials=50, seed=-1)
