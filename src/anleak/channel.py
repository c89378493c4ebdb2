"""Downlink system model: configuration, channel sampling, precoding.

A base station with ``m_bs`` antennas serves ``k_users`` single-antenna
users with zero-forcing precoding while filling ``n_an`` spare spatial
dimensions with artificial noise; a passive eavesdropper listens with
``n_eve`` antennas.  The transmitted block is::

    X = sqrt(alpha2) * P @ S + sqrt(beta2) * V @ N

where ``P`` is the scaled zero-forcing pseudo-inverse of the user channel
``H`` (so ``H @ P = sqrt(M) I``), ``V`` is an orthonormal basis of the
null space of ``H``, ``S`` holds unit-variance data symbols and ``N``
unit-variance noise symbols.  The effective eavesdropper channels are

* data part: ``sqrt(alpha2) * G @ P`` -- rows i.i.d., entries of exact
  per-entry variance ``alpha2 * M / (M - K)``, converging to i.i.d.
  ``CN(0, alpha2)`` as ``M / K`` grows;
* noise part: ``sqrt(beta2) * G @ V`` -- exactly i.i.d. ``CN(0, beta2)``
  and independent of the data part.

``check_effective_distributions`` measures both claims empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .laws import McEstimate, _check_run_args

if TYPE_CHECKING:  # the sampler is imported only where something is drawn
    from .linalg import CMatrix

__all__ = [
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
]

_BALANCE_RTOL = 1e-9
_SNR_DB_LIMIT = 3000.0  # largest |snr| in dB: 10**(-snr/10) stays in [1e-300, 1e300]
_POWER_BLOCK_LEN = 16  # symbols per trial of `average_transmit_power`


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one downlink scenario.

    Attributes
    ----------
    M : int
        Base-station antennas.
    K : int
        Single-antenna users (data streams), ``1 <= K < M``.
    N_E : int
        Eavesdropper antennas.
    N_J : int
        Artificial-noise dimensions, ``0 <= N_J <= M - K``.
    T : int
        Coherence block length in symbols.
    alpha2, beta2 : float
        Per-stream data power and per-dimension noise power.  ``beta2``
        must be 0 exactly when ``N_J`` is 0.
    snr_e_db, snr_l_db : float
        Eavesdropper / legitimate-user SNR in dB, within +-3000 dB
        (``_SNR_DB_LIMIT``).  Every estimator and bound reads their noise
        variances ``sigma_z2``/``sigma_w2`` = ``10**(-snr/10)`` from here.
    t_prime_override : int or None
        Pin the post-training block length instead of the default
        ``T - K``; used by reduced views that must keep a parent's value.

    Notes
    -----
    The constructor checks dimensions, signs and the SNR range only; the
    range keeps both noise variances and their reciprocals normal floats.
    The power balance ``alpha2*K + beta2*N_J = M`` (`is_balanced`) is required
    by `balanced_config`, not by this type: reduced single-stream views and
    calibration scenarios legitimately break it.
    """

    M: int
    K: int
    N_E: int
    N_J: int
    T: int
    alpha2: float
    beta2: float
    snr_e_db: float = 30.0
    snr_l_db: float = 30.0
    t_prime_override: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        _check_counts(self.M, self.K, self.N_E, self.N_J, self.T)
        if not (math.isfinite(self.alpha2) and self.alpha2 > 0.0):
            raise ValueError(f"alpha2 must be finite and > 0, got {self.alpha2!r}")
        if not (math.isfinite(self.beta2) and self.beta2 >= 0.0):
            raise ValueError(f"beta2 must be finite and >= 0, got {self.beta2!r}")
        if (self.N_J == 0) != (self.beta2 == 0.0):
            raise ValueError(
                f"beta2 must be zero exactly when N_J is zero, "
                f"got N_J={self.N_J}, beta2={self.beta2}"
            )
        for name in ("snr_e_db", "snr_l_db"):
            snr = getattr(self, name)
            if not abs(snr) <= _SNR_DB_LIMIT:  # a NaN fails the comparison too
                raise ValueError(
                    f"{name} must lie in [-{_SNR_DB_LIMIT:g}, {_SNR_DB_LIMIT:g}] dB, got {snr!r}"
                )
        if self.t_prime_override is not None and self.t_prime_override < 1:
            raise ValueError(
                f"t_prime_override must be >= 1, got {self.t_prime_override}"
            )

    @property
    def mbar(self) -> int:
        """Total signalling dimensions ``K + N_J``."""
        return self.K + self.N_J

    @property
    def t_prime(self) -> int:
        """Post-training block length: override if set, else ``T - K``."""
        if self.t_prime_override is not None:
            return self.t_prime_override
        return self.T - self.K

    @property
    def sigma_z2(self) -> float:
        """Eavesdropper noise variance ``10**(-snr_e_db/10)``."""
        return 10.0 ** (-self.snr_e_db / 10.0)

    @property
    def sigma_w2(self) -> float:
        """Legitimate-user noise variance ``10**(-snr_l_db/10)``."""
        return 10.0 ** (-self.snr_l_db / 10.0)

    @property
    def total_power(self) -> float:
        """``alpha2 * K + beta2 * N_J``."""
        return self.alpha2 * self.K + self.beta2 * self.N_J

    @property
    def is_balanced(self) -> bool:
        """Whether the power identity ``total_power = M`` holds, to rtol ``_BALANCE_RTOL``."""
        return abs(self.total_power - self.M) <= _BALANCE_RTOL * self.M


def _check_counts(M: int, K: int, N_E: int, N_J: int, T: int) -> None:
    """`SystemConfig`'s rule for its five counts, which `balanced_config`
    also applies before it divides by ``K`` or ``N_J``."""
    for name, v in zip(("M", "K", "N_E", "N_J", "T"), (M, K, N_E, N_J, T)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if K < 1:
        raise ValueError(f"need K >= 1, got K={K}")
    if M <= K:
        raise ValueError(f"need M > K, got M={M}, K={K}")
    if not 0 <= N_J <= M - K:
        raise ValueError(f"need 0 <= N_J <= M - K = {M - K}, got N_J={N_J}")
    if N_E < 1:
        raise ValueError(f"need N_E >= 1, got N_E={N_E}")
    if T < 1:
        raise ValueError(f"need T >= 1, got T={T}")


def balanced_config(
    M: int,
    K: int,
    N_E: int,
    N_J: int,
    T: int,
    *,
    alpha2: float | None = None,
    beta2: float | None = None,
    snr_e_db: float = 30.0,
    snr_l_db: float = 30.0,
) -> SystemConfig:
    """Build a configuration satisfying ``alpha2*K + beta2*N_J = M``.

    Give at most one of ``alpha2``/``beta2``; the other is solved from the
    balance.  With neither given, ``alpha2 = 1`` (so ``beta2 = (M-K)/N_J``).
    Giving both is accepted only if they balance (`SystemConfig.is_balanced`).
    With ``N_J = 0`` the one balanced power is ``alpha2 = M/K``, returned
    exactly, and ``beta2 = 0``.

    Raises
    ------
    ValueError
        If the counts break `SystemConfig`'s rule (checked first, so that
        ``K = 0`` is no division by zero), `SystemConfig` rejects the
        solved powers (e.g. ``alpha2*K >= M`` with ``N_J > 0``) or they do
        not balance (an explicit pair).
    """
    _check_counts(M, K, N_E, N_J, T)
    if beta2 is None:
        if alpha2 is None:
            alpha2 = 1.0 if N_J else M / K
        beta2 = (M - alpha2 * K) / N_J if N_J else 0.0
    elif alpha2 is None:
        alpha2 = (M - beta2 * N_J) / K
    cfg = SystemConfig(M, K, N_E, N_J, T, alpha2, beta2, snr_e_db, snr_l_db)
    if not cfg.is_balanced:
        raise ValueError(
            f"alpha2*K + beta2*N_J = {cfg.total_power!r} does not balance to M = {M}"
        )
    return cfg if N_J else replace(cfg, alpha2=M / K)


def single_stream_view(cfg: SystemConfig) -> SystemConfig:
    """Reduce a configuration to one data stream, keeping everything else.

    The per-stream powers, noise dimensions and coherence length carry
    over unchanged, and the post-training length is pinned to the parent's
    ``T - K`` so per-stream analyses of a multi-stream system see the
    training overhead of the full system.
    """
    return replace(
        cfg,
        K=1,
        t_prime_override=cfg.t_prime,
    )


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the user and eavesdropper channels plus derived blocks.

    Attributes
    ----------
    h : CMatrix
        User channel, ``K x M``, i.i.d. ``CN(0, 1)``.
    g : CMatrix
        Eavesdropper channel, ``N_E x M``, i.i.d. ``CN(0, 1)``.
    precoder : CMatrix
        ``M x K`` scaled zero-forcing matrix with ``h @ precoder = sqrt(M) I``.
    an_basis : CMatrix
        ``M x N_J`` orthonormal null-space basis of ``h``.
    g_data : CMatrix
        Effective data channel ``sqrt(alpha2) * g @ precoder`` (``N_E x K``).
    g_an : CMatrix
        Effective noise channel ``sqrt(beta2) * g @ an_basis`` (``N_E x N_J``).
    """

    h: CMatrix
    g: CMatrix
    precoder: CMatrix
    an_basis: CMatrix
    g_data: CMatrix
    g_an: CMatrix


def sample_realization(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization (``h`` first, then ``g``).

    Raises `DegenerateChannelError` if ``h`` is rank deficient; the
    precoder and the null-space basis come from one QR factorization of
    ``h^H`` (`zero_forcing`), which checks ``h`` once.
    """
    from .linalg import sample_gaussian, zero_forcing  # here: only a draw needs them

    h = sample_gaussian(cfg.K, cfg.M, 1.0, rng)
    g = sample_gaussian(cfg.N_E, cfg.M, 1.0, rng)
    precoder, an_basis = zero_forcing(h, cfg.N_J)
    g_data = math.sqrt(cfg.alpha2) * (g @ precoder)
    g_an = math.sqrt(cfg.beta2) * (g @ an_basis) if cfg.N_J else np.zeros(
        (cfg.N_E, 0), dtype=np.complex128
    )
    return ChannelRealization(h, g, precoder, an_basis, g_data, g_an)


def transmit_signal(
    cfg: SystemConfig,
    real: ChannelRealization,
    symbols,
    an_symbols,
) -> CMatrix:
    """Form the transmitted block for given data and noise symbols.

    Parameters
    ----------
    symbols : array_like
        ``K x n`` data symbols.
    an_symbols : array_like
        ``N_J x n`` artificial-noise symbols (``0 x n`` when ``N_J = 0``).

    Returns
    -------
    CMatrix
        ``M x n`` transmit block.  Noiselessly, the user channel output
        row ``k`` is exactly ``sqrt(alpha2 * M)`` times data stream ``k``.
    """
    s, n = _check_symbols(cfg, symbols, an_symbols)
    x = math.sqrt(cfg.alpha2) * (real.precoder @ s)
    return x + math.sqrt(cfg.beta2) * (real.an_basis @ n)


def exact_transmit_power(cfg: SystemConfig) -> float:
    """Exact mean transmit power per symbol.

    ``E[tr(X X^H)] / n = alpha2 * M * K / (M - K) + beta2 * N_J`` using the
    mean of the inverse Wishart matrix ``(H H^H)^{-1}``; approaches the
    antenna budget ``M`` for balanced powers as ``M/K`` grows.
    """
    return cfg.alpha2 * cfg.M * cfg.K / (cfg.M - cfg.K) + cfg.beta2 * cfg.N_J


def average_transmit_power(
    cfg: SystemConfig,
    trials: int = 1000,
    seed: int = 0,
) -> McEstimate:
    """Monte Carlo mean transmit power per symbol over blocks of
    ``_POWER_BLOCK_LEN`` symbols: the sampled route to
    `exact_transmit_power`, one `_power_draw` per trial of `_run_trials`."""
    from .montecarlo import _summarize

    return _summarize([_transmit_power_parts(cfg, trials, seed)[0]])


def _transmit_power_parts(cfg: SystemConfig, trials: int, seed: int) -> tuple:
    """`average_transmit_power`'s trials, each a `_power_draw`, joined in
    trial order."""
    from .montecarlo import _TAG_TRANSMIT_POWER, _per_trial, _stacked

    return _stacked(_TAG_TRANSMIT_POWER, _per_trial(_power_draw), (cfg,), trials, seed)


def _power_draw(cfg: SystemConfig, rng: np.random.Generator) -> tuple:
    """One trial, a realization and then symbols: its transmit power, data
    symbol energy and noise symbol energy, each per symbol."""
    from .linalg import sample_gaussian

    real = sample_realization(cfg, rng)
    s = sample_gaussian(cfg.K, _POWER_BLOCK_LEN, 1.0, rng)
    n = sample_gaussian(cfg.N_J, _POWER_BLOCK_LEN, 1.0, rng)
    energies = (transmit_signal(cfg, real, s, n), s, n)
    return tuple(np.linalg.norm(x) ** 2 / _POWER_BLOCK_LEN for x in energies)


# ---------------------------------------------------------------------------
# Empirical distribution checks for the effective eavesdropper channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionReport:
    """Empirical summary of the effective-channel distribution checks.

    All thresholds scale with the trial count; ``failures`` lists the
    checks that missed, so ``passed`` is ``not failures``.
    """

    trials: int
    g_an_var: float
    g_an_var_expected: float
    g_an_var_tol: float
    g_data_var: float
    g_data_var_finite: float
    g_data_var_asymptotic: float
    g_data_var_tol: float
    max_abs_corr: float
    corr_threshold: float
    ks_stat: float
    ks_threshold: float

    @property
    def failures(self) -> tuple[str, ...]:
        out = []
        if self.g_an_var_expected > 0 and (
            abs(self.g_an_var / self.g_an_var_expected - 1.0) > self.g_an_var_tol
        ):
            out.append(
                f"noise-part variance {self.g_an_var:.6g} vs expected "
                f"{self.g_an_var_expected:.6g} (tol {self.g_an_var_tol:.3g})"
            )
        if abs(self.g_data_var / self.g_data_var_finite - 1.0) > self.g_data_var_tol:
            out.append(
                f"data-part variance {self.g_data_var:.6g} vs exact "
                f"{self.g_data_var_finite:.6g} (tol {self.g_data_var_tol:.3g})"
            )
        if self.max_abs_corr > self.corr_threshold:
            out.append(
                f"cross-correlation {self.max_abs_corr:.4f} exceeds "
                f"{self.corr_threshold:.4f}"
            )
        if self.ks_stat > self.ks_threshold:
            out.append(
                f"KS statistic {self.ks_stat:.4f} exceeds {self.ks_threshold:.4f}"
            )
        return tuple(out)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_effective_distributions(
    cfg: SystemConfig, trials: int = 10000, seed: int = 0
) -> DistributionReport:
    """Sample realizations and test the effective-channel claims.

    Checks over ``trials >= 100`` realizations, each a `_probe_draw` (``seed`` obeys the run rule):

    * per-entry variance of the noise part equals ``beta2`` (exact claim);
    * per-entry variance of the data part equals the finite-antenna value
      ``alpha2 * M / (M - K)`` (the report also carries the asymptotic
      target ``alpha2`` for convergence studies);
    * cross-correlations between data-part and noise-part entries vanish
      (checked over a fixed grid of up to 16 entry pairs, threshold
      ``5 / sqrt(trials)``);
    * the standardized real part of one data-part entry is Gaussian
      (one-sample Kolmogorov-Smirnov against the normal CDF, threshold
      ``1.63 / sqrt(trials)``, about the 1% level).
    """
    from .montecarlo import _TAG_DISTRIBUTIONS, _per_trial, _stacked

    _check_distribution_run(trials, seed)
    ne, k, nj = cfg.N_E, cfg.K, cfg.N_J
    draw = _per_trial(_probe_draw)
    sums, data_probe, an_probe = _stacked(_TAG_DISTRIBUTIONS, draw, (cfg,), trials, seed)
    # Add the per-trial sums in trial order, as a running total would.
    data_sq_sum, an_sq_sum = np.cumsum(sums, axis=0)[-1].tolist()

    g_data_var = data_sq_sum / (trials * ne * k)
    g_an_var = an_sq_sum / (trials * ne * nj) if nj else 0.0
    finite_var = cfg.alpha2 * cfg.M / (cfg.M - cfg.K)

    max_corr = 0.0
    if nj and an_probe.shape[1]:
        d = data_probe - data_probe.mean(axis=0)
        a = an_probe - an_probe.mean(axis=0)
        d_std = np.sqrt((np.abs(d) ** 2).mean(axis=0))
        a_std = np.sqrt((np.abs(a) ** 2).mean(axis=0))
        cross = np.abs((d[:, :, None] * a[:, None, :].conj()).mean(axis=0))
        max_corr = float(np.max(cross / np.outer(d_std, a_std)))

    samples = data_probe[:, 0].real
    std = samples.std()
    ks = _ks_normal((samples - samples.mean()) / std)

    n_an_entries = trials * ne * nj if nj else 1
    return DistributionReport(
        trials=trials,
        g_an_var=g_an_var,
        g_an_var_expected=cfg.beta2,
        g_an_var_tol=max(0.01, 20.0 / math.sqrt(n_an_entries)),
        g_data_var=g_data_var,
        g_data_var_finite=finite_var,
        g_data_var_asymptotic=cfg.alpha2,
        g_data_var_tol=0.05,
        max_abs_corr=max_corr,
        corr_threshold=5.0 / math.sqrt(trials),
        ks_stat=ks,
        ks_threshold=1.63 / math.sqrt(trials),
    )


def _check_distribution_run(trials: int, seed: int) -> None:
    """`check_effective_distributions`'s run rule: the package's, then ``trials >= 100``."""
    _check_run_args(trials, seed)
    if trials < 100:
        raise ValueError(f"need trials >= 100, got {trials}")


def _probe_draw(cfg: SystemConfig, rng: np.random.Generator) -> tuple:
    """A realization's ``[sum |g_data|^2, sum |g_an|^2]``, then each part's top-left 2 x 2."""
    real = sample_realization(cfg, rng)
    sums = np.array([np.sum(np.abs(g) ** 2) for g in (real.g_data, real.g_an)])
    return sums, real.g_data[:2, :2].ravel(), real.g_an[:2, :2].ravel()


def _ks_normal(standardized: np.ndarray) -> float:
    """One-sample KS distance of standardized data from the normal CDF."""
    x = np.sort(np.asarray(standardized, dtype=float))
    n = x.size
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n))))


def _check_symbols(cfg, symbols, an_symbols):
    s = np.asarray(symbols, dtype=np.complex128)
    if s.ndim != 2 or s.shape[0] != cfg.K:
        raise ValueError(f"symbols must be K x n with K={cfg.K}, got {s.shape}")
    n = np.asarray(an_symbols, dtype=np.complex128)
    if n.ndim != 2 or n.shape[0] != cfg.N_J:
        raise ValueError(
            f"an_symbols must be N_J x n with N_J={cfg.N_J}, got {n.shape}"
        )
    if n.shape[1] != s.shape[1]:
        raise ValueError(
            f"symbol blocks disagree: {s.shape[1]} vs {n.shape[1]} columns"
        )
    return s, n
