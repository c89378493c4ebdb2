"""Leakage bounds and secrecy rates for the artificial-noise downlink.

Three regimes of eavesdropper knowledge are covered, each yielding a
high-SNR expansion ``leakage ~ dof * log2(SNR_E) + c`` in bits per symbol:

* **ergodic** — the eavesdropper knows its channel perfectly; ``dof``
  saturates at ``min((N_E - N_J)^+, K)`` with no coherence-time penalty.
* **noncoherent** — no channel knowledge at all; both a lower and an
  upper constant are produced around
  ``dof = min((N_E - N_J)^+, K) (1 - (K + N_J)/T)``.
* **partial** — data-part channel known, noise part unknown (e.g. the
  eavesdropper heard the training phase); constants around
  ``dof = K (1 - N_J/t')``.

A separate coherence-free ("universal") upper bound is the exact leakage
to an eavesdropper that knows the data-part channel ``G1`` and the
artificial-noise symbols but not the artificial-noise channel, at any SNR.
It therefore bounds the blind and partial-knowledge regimes, which know
less, but not the known-channel ``ergodic_leakage``, which it can lie
below (8.55 vs 8.78 bits at ``T = 64`` and -20 dB on the flagship
dimensions).  It tends to the known-channel data-part rate only in the
limit of low eavesdropper SNR.

Every applicability rule lives in one table, `_RULES`; a bound whose rule
fails at a configuration raises `NotApplicable` carrying the rule's code.

The operating point (``snr_e_db``, ``snr_l_db`` and their noise variances
``sigma_z2``, ``sigma_w2``) is read from the `SystemConfig`, here and by the
estimators the bounds call; pass ``dataclasses.replace(cfg, snr_e_db=...)``
for another.  Only `LeakageBounds.rate_at` takes an SNR, because an
envelope's constants do not depend on it.

The expectation terms shared by an upper/lower constant pair come from the
*same* law or draws, so the pair's gap is deterministic.  It need not be a
bracket: at two powers the noncoherent pair crosses at ordinary splits
(flagship ``alpha2 = 2``), and `LeakageBounds` raises ``bracket_inverted``.

All public outputs are in bits; assembly is in nats internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

from .channel import SystemConfig, single_stream_view
from .errors import NotApplicable
from .laws import McEstimate, SvKind
from .special import EULER_GAMMA, expected_logdet_wishart, log_grassmann_volume

if TYPE_CHECKING:  # the estimator a bound takes: a law, or the sampled cross-check
    from .laws import ExactFirst
    from .montecarlo import MonteCarlo

__all__ = [
    "LeakageBounds",
    "SaturatedBound",
    "LeakagePair",
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
    "require_applicable",
    "joint_secrecy",
    "stream_secrecy",
    "secrecy_rates",
    "secrecy_from_config",
]

_LN2 = math.log(2.0)
_LN_PI_E = math.log(math.pi) + 1.0
_BALANCE_TOL = 1e-9

# Applicability rules, checked in order so the first failure names the code:
# (reason code, fails(cfg), what is needed, formatted with the config as c).
_TPRIME = ("precondition:Tprime<1", lambda c: c.t_prime < 1, "t' >= 1, got {c.t_prime}")
_LOADED = (
    ("precondition:Mbar!=M", lambda c: c.mbar != c.M, "K + N_J = M = {c.M}, got {c.mbar}"),
    (
        "precondition:power!=1",
        lambda c: abs(c.alpha2 - 1.0) > _BALANCE_TOL
        or (c.N_J and abs(c.beta2 - 1.0) > _BALANCE_TOL),
        "unit powers alpha2 = beta2 = 1",
    ),
)
# `SystemConfig` pairs ``beta2 > 0`` with ``N_J >= 1``, so one test covers both.
_NOISE = ("precondition:beta2=0", lambda c: not c.N_J, "N_J >= 1, beta2 > 0")
_RULES = {
    "noncoherent": (
        _NOISE,
        ("precondition:T<Mbar", lambda c: c.T < c.mbar, "T >= K + N_J = {c.mbar}, got {c.T}"),
    ),
    "saturated_fallback": (_NOISE,),  # noncoherent_bounds(..., saturated_fallback=True)
    "partial": (
        ("precondition:NE<Mbar", lambda c: c.N_E < c.mbar, "N_E >= {c.mbar}, got {c.N_E}"),
        _TPRIME,
        ("precondition:Tprime<NJ", lambda c: c.t_prime < c.N_J, "t' >= N_J, got {c.t_prime}"),
    ),
    "universal": (_TPRIME,),
    "entropy_gap": (*_LOADED, ("precondition:T<M", lambda c: c.T < c.M, "T >= M, got {c.T}")),
    "saturated_upper": (*_LOADED, ("precondition:T!=M", lambda c: c.T != c.M, "T = M, got {c.T}")),
}


@dataclass(frozen=True)
class LeakageBounds:
    """High-SNR leakage expansion ``dof * log2(SNR) + c`` for one regime.

    ``c_lower``/``c_upper`` are the lower and upper constants in bits, equal
    in the ergodic regime.  A crossed pair raises ``bracket_inverted``; an
    uncrossed one is not thereby a bracket of the constant term.
    ``c_std_error`` is the Monte Carlo standard error of the sampled part,
    shared by both constants; 0 when every term is exact, as with
    `laws.ExactFirst`, which computes each expectation from its law; a
    `montecarlo.MonteCarlo` samples them.
    """

    dof: float
    c_lower: float
    c_upper: float
    regime: str
    cfg: SystemConfig
    c_std_error: float = 0.0

    def __post_init__(self) -> None:
        if self.regime not in ("ergodic", "noncoherent", "partial"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.dof < 0:
            raise ValueError(f"dof must be >= 0, got {self.dof}")
        if not (
            math.isfinite(self.c_lower)
            and math.isfinite(self.c_upper)
            and math.isfinite(self.c_std_error)
        ):
            raise ValueError("constants must be finite")
        tol = 1e-9 * max(1.0, abs(self.c_upper))
        if self.c_lower > self.c_upper + tol:
            raise NotApplicable(
                "bracket_inverted",
                f"c_lower={self.c_lower!r} exceeds c_upper={self.c_upper!r}",
            )
        if self.c_std_error < 0:
            raise ValueError("c_std_error must be >= 0")

    def rate_at(self, snr_db: float, which: str = "upper") -> float:
        """Evaluate the expansion at an SNR, clamped below at zero bits."""
        if which == "upper":
            c = self.c_upper
        elif which == "lower":
            c = self.c_lower
        else:
            raise ValueError(f"which must be 'upper' or 'lower', got {which!r}")
        return max(0.0, self.dof * (snr_db / 10.0) * math.log2(10.0) + c)


class SaturatedBound(NamedTuple):
    """Exact and relaxed forms of the zero-dof saturation upper bound (bits)."""

    exact: float
    relaxed: float


@dataclass(frozen=True)
class LeakagePair:
    """Non-coherent and partial-coherent bounds for one configuration."""

    noncoherent: LeakageBounds
    partial: LeakageBounds


@dataclass(frozen=True)
class SecrecyRates:
    """Achievable secrecy sum rates (bits per symbol), clamped at zero.

    ``su_*`` treat the block as one joint codeword across users;
    ``mu_*`` charge every user the single-stream leakage separately.
    """

    su_noncoherent: float
    su_partial: float
    mu_noncoherent: float
    mu_partial: float


# ---------------------------------------------------------------------------
# Regime bounds
# ---------------------------------------------------------------------------


def require_applicable(regime: str, cfg: SystemConfig) -> None:
    """Raise `NotApplicable` at the first rule of ``regime`` (``noncoherent``,
    ``partial``, ``universal``, ``entropy_gap``, ``saturated_upper``) that
    ``cfg`` fails; the bounds check themselves, so call this only to test
    a configuration without evaluating at it."""
    for code, fails, need in _RULES[regime]:
        if fails(cfg):
            raise NotApplicable(code, f"{regime} needs {need.format(c=cfg)}")


def ergodic_highsnr(cfg: SystemConfig, mc: ExactFirst | MonteCarlo) -> LeakageBounds:
    """High-SNR expansion of the known-channel (ergodic) leakage."""
    c = mc.ergodic_constant(cfg)
    return LeakageBounds(
        dof=float(_ergodic_prelog(cfg)),
        c_lower=c.mean,
        c_upper=c.mean,
        regime="ergodic",
        cfg=cfg,
        c_std_error=c.std_error,
    )


def noncoherent_bounds(
    cfg: SystemConfig,
    mc: ExactFirst | MonteCarlo,
    *,
    saturated_fallback: bool = False,
) -> LeakageBounds:
    """Upper/lower expansion constants for the channel-ignorant eavesdropper.

    Requires ``T >= K + N_J`` and both powers positive.  With
    ``saturated_fallback=True`` a short block ``T < K + N_J`` instead
    produces ``dof = 0`` with the saturation-regime constant (evaluated at
    the effective dimension ``T``) as ``c_upper`` and the trivial 0 as
    ``c_lower``.

    ``beta2 != 1`` is handled by exact rescaling: dividing the received
    block by ``beta`` maps the problem onto ``(alpha2/beta2, 1)`` with the
    noise floor scaled the same way, so the constants are those of the
    normalized configuration shifted by ``dof * log2(beta2)``.

    Raises
    ------
    NotApplicable
        ``precondition:beta2=0`` if there is no noise subspace (the
        regime's premise needs one), ``precondition:T<Mbar`` if
        ``T < K + N_J`` without the fallback, ``bracket_inverted`` if
        ``c_lower`` exceeds ``c_upper``.  At two powers that happens at
        ordinary power splits: after the rescaling, ``c_lower`` carries
        ``ln alpha2`` where ``c_upper`` carries ``ln t``, so the gap falls
        by ``(N_E K / T) log2(alpha2 / beta2)`` bits, and on the flagship
        (``M=64 K=16 N_E=64 N_J=48 T=320``) the pair inverts at
        ``alpha2 = 2`` (``beta2 = 2/3``).
    """
    ne, k, nj, mbar, t = cfg.N_E, cfg.K, cfg.N_J, cfg.mbar, cfg.T
    require_applicable("saturated_fallback" if saturated_fallback else "noncoherent", cfg)
    if cfg.beta2 != 1.0:
        norm = replace(cfg, alpha2=cfg.alpha2 / cfg.beta2, beta2=1.0)
        base = noncoherent_bounds(norm, mc, saturated_fallback=saturated_fallback)
        shift = base.dof * math.log2(cfg.beta2)
        return replace(
            base, c_lower=base.c_lower + shift, c_upper=base.c_upper + shift, cfg=cfg
        )
    if t < mbar:
        return LeakageBounds(
            dof=0.0,
            c_lower=0.0,
            c_upper=_saturated_pair(ne, t).exact,
            regime="noncoherent",
            cfg=cfg,
        )
    slope_units = _ergodic_prelog(cfg)
    w = 1.0 - mbar / t
    e_joint = mc.log_sv_sum(SvKind.JOINT, cfg)
    e_tail = mc.log_sv_sum(SvKind.AN_TAIL, cfg)
    log_vol = (
        log_grassmann_volume(t, min(mbar, ne))
        - log_grassmann_volume(max(mbar, ne), ne)
        + log_grassmann_volume(max(nj, ne), ne)
        - log_grassmann_volume(t - k, min(nj, ne))
    )
    d = (
        w * (e_joint.mean - e_tail.mean)
        - (ne / t) * expected_logdet_wishart(k, t)
        + log_vol / t
        - slope_units * w * _LN_PI_E
        - (k * ne / t) * (_LN_PI_E + math.log(cfg.alpha2))
    )
    # Unit noise power from here on (``beta2 = 1``, by the rescale above):
    # the ``nj`` terms below hold only in that frame, not for general beta2.
    c_upper = (ne / t) * (
        k * (_LN_PI_E + math.log(t))
        + nj * math.log(t)
        - (expected_logdet_wishart(mbar, t) - expected_logdet_wishart(k, t))
    ) + d
    c_lower = (ne / t) * (
        k * (_LN_PI_E + math.log(cfg.alpha2))
        + nj * math.log(1.0 / (t - k))
        + expected_logdet_wishart(mbar, t)
    ) + d
    se = w * math.hypot(e_joint.std_error, e_tail.std_error)
    return LeakageBounds(
        dof=slope_units * w,
        c_lower=c_lower / _LN2,
        c_upper=c_upper / _LN2,
        regime="noncoherent",
        cfg=cfg,
        c_std_error=se / _LN2,
    )


def entropy_gap(cfg: SystemConfig) -> float:
    """Closed-form gap ``c_upper - c_lower`` of the non-coherent pair, bits.

    Valid for fully-loaded unit-power configurations
    (``K + N_J = M``, ``alpha2 = beta2 = 1``) with ``T >= M``; the sampled
    terms cancel between the two constants, leaving only digamma sums::

        (N_E/T) [ M log2 T - sum_{i=1}^{M} psi(T-i+1) log2 e ]
      + (N_E/T) [ N_J log2(T-K) - sum_{i=1}^{N_J} psi(T-K-i+1) log2 e ]

    Decreases toward zero as ``T`` grows at fixed dimensions.
    """
    require_applicable("entropy_gap", cfg)
    ne, k, nj, m, t = cfg.N_E, cfg.K, cfg.N_J, cfg.M, cfg.T
    gap = (ne / t) * (m * math.log(t) - expected_logdet_wishart(m, t))
    if nj:
        gap += (ne / t) * (nj * math.log(t - k) - expected_logdet_wishart(nj, t - k))
    return gap / _LN2


def saturated_upper(cfg: SystemConfig) -> SaturatedBound:
    """Leakage cap in the fully-saturated block ``K + N_J = M = T``.

    Returns the exact cap ``N_E log2 T - (N_E/T) sum_i psi(T-i+1) log2 e``
    and its relaxation ``N_E log2(e^gamma T)``; they agree only at
    ``T = 1`` and the exact form is always the smaller.
    """
    require_applicable("saturated_upper", cfg)
    return _saturated_pair(cfg.N_E, cfg.T)


def universal_upper(cfg: SystemConfig, mc: ExactFirst | MonteCarlo) -> McEstimate:
    """Coherence-free leakage upper bound at ``cfg.snr_e_db``, bits.

    ``min(N_E, K) (1 - N_J/t')^+ log2(SNR) + c(sigma^2)`` with the
    constant ``mc.universal_constant`` at ``sigma^2 = cfg.sigma_z2``:
    exact for `laws.ExactFirst`, sampled for a `MonteCarlo`.  Covers an
    eavesdropper that knows ``G1`` and the artificial-noise symbols but not
    the artificial-noise channel (so also the blind and partial regimes);
    it does not bound the known-channel `ergodic_leakage`.  It never
    exceeds `coherent_data_leakage` (strictly below when ``N_J beta2 > 0``)
    and reaches it only in the low-SNR limit, the gap closing like
    ``K N_E alpha2 beta2 N_J / (sigma^4 ln 2)``.  Needs ``t' >= 1``.
    Clamped below at zero bits, as `LeakageBounds.rate_at` is: at very low
    SNR the slope term and the constant cancel to rounding.
    """
    require_applicable("universal", cfg)
    c = mc.universal_constant(cfg)
    slope = min(cfg.N_E, cfg.K) * max(0.0, 1.0 - cfg.N_J / cfg.t_prime)
    value = max(0.0, slope * (cfg.snr_e_db / 10.0) * math.log2(10.0) + c.mean)
    return McEstimate(value, c.std_error, c.trials, c.excluded)


def coherent_data_leakage(cfg: SystemConfig, mc: ExactFirst | MonteCarlo) -> McEstimate:
    """Known-channel leakage of the data part alone at ``cfg.snr_e_db``, bits.

    ``E[logdet(I + SNR * G1^H G1)]`` — the classical pilot-aided
    eavesdropper rate and the low-SNR limit of `universal_upper`, which
    stays below it by ``K N_E alpha2 beta2 N_J / (sigma^4 ln 2)`` to
    leading order in ``1/sigma^2``.
    """
    return mc.ergodic_leakage(replace(cfg, N_J=0, beta2=0.0))


def partial_coherent_bounds(cfg: SystemConfig, mc: ExactFirst | MonteCarlo) -> LeakageBounds:
    """Expansion constants when only the noise-part channel is unknown.

    Models an eavesdropper that learned the data-part channel during
    training and faces ``t_prime`` artificial-noise symbols per block.
    Requires ``N_E >= K + N_J`` and ``t_prime >= max(N_J, 1)``.
    """
    require_applicable("partial", cfg)
    ne, k, nj, tp = cfg.N_E, cfg.K, cfg.N_J, cfg.t_prime
    w = 1.0 - nj / tp
    if nj:
        e_excess = mc.log_sv_sum(SvKind.AN_EXCESS, cfg)
        e_post = mc.log_sv_sum(SvKind.AN_POST, cfg)
        sampled = e_excess.mean - e_post.mean
        se = w * math.hypot(e_excess.std_error, e_post.std_error)
    else:
        sampled = 0.0
        se = 0.0
    d = (
        w * (sampled - k * _LN_PI_E)
        + expected_logdet_wishart(k, ne)
        + k * (_LN_PI_E + math.log(cfg.alpha2))
    )
    if nj:
        psi_tp = expected_logdet_wishart(nj, tp)
        c_upper = (
            nj * ne * math.log(tp)
            - k * nj * (_LN_PI_E + math.log(tp * cfg.beta2))
            - ne * psi_tp
        ) / tp + d
        c_lower = (
            (ne - k) * psi_tp
            - ne * nj * math.log(tp)
            - k * nj * (_LN_PI_E + math.log(cfg.beta2))
        ) / tp + d
    else:
        c_upper = c_lower = d
    return LeakageBounds(
        dof=k * w,
        c_lower=c_lower / _LN2,
        c_upper=c_upper / _LN2,
        regime="partial",
        cfg=cfg,
        c_std_error=se / _LN2,
    )


# ---------------------------------------------------------------------------
# Secrecy rates
# ---------------------------------------------------------------------------


def leakage_pair(cfg: SystemConfig, mc: ExactFirst | MonteCarlo) -> LeakagePair:
    """Non-coherent and partial-coherent bounds for one configuration."""
    return LeakagePair(
        noncoherent=noncoherent_bounds(cfg, mc),
        partial=partial_coherent_bounds(cfg, mc),
    )


def legitimate_rate(cfg: SystemConfig) -> float:
    """Per-user rate ``log2(1 + M alpha2 / sigma_w2)`` of the zero-forced
    downlink at ``cfg.snr_l_db``, bits."""
    return math.log2(1.0 + cfg.M * cfg.alpha2 / cfg.sigma_w2)


def joint_secrecy(cfg: SystemConfig, leak: LeakageBounds) -> float:
    """Secrecy sum rate ``(K C - L)^+`` of the block as one joint codeword, at
    ``cfg``'s SNRs: ``C`` is `legitimate_rate`, ``L`` the upper leakage."""
    return max(0.0, cfg.K * legitimate_rate(cfg) - leak.rate_at(cfg.snr_e_db))


def stream_secrecy(cfg: SystemConfig, leak: LeakageBounds) -> float:
    """Per-user secrecy rate ``(C - L)^+`` at ``cfg``'s SNRs, ``L`` a
    single-stream leakage."""
    return max(0.0, legitimate_rate(cfg) - leak.rate_at(cfg.snr_e_db))


def secrecy_rates(
    cfg: SystemConfig, leakage_su: LeakagePair, leakage_mu: LeakagePair
) -> SecrecyRates:
    """Secrecy sum rates from joint (``su``) and per-stream (``mu``) leakage.

    The leakage is charged at its upper constant, both rates at ``cfg``'s
    operating point ``snr_e_db``/``snr_l_db``.  ``leakage_su`` must be
    for ``cfg`` itself and ``leakage_mu`` for its single-stream view (one
    data stream, parent powers and post-training length).  The
    partial-coherent rates carry the training-overhead prefactor
    ``t_prime / T``.
    """
    if leakage_su.noncoherent.cfg.K != cfg.K:
        raise ValueError("leakage_su must be computed for cfg itself")
    mu_cfg = leakage_mu.noncoherent.cfg
    if mu_cfg.K != 1:
        raise ValueError("leakage_mu must be a single-stream view (K = 1)")
    if (mu_cfg.M, mu_cfg.N_E, mu_cfg.N_J, mu_cfg.T) != (cfg.M, cfg.N_E, cfg.N_J, cfg.T):
        raise ValueError("leakage_mu dimensions disagree with cfg")
    k, t, tp = cfg.K, cfg.T, cfg.t_prime
    return SecrecyRates(
        su_noncoherent=joint_secrecy(cfg, leakage_su.noncoherent),
        su_partial=(tp / t) * joint_secrecy(cfg, leakage_su.partial),
        mu_noncoherent=k * stream_secrecy(cfg, leakage_mu.noncoherent),
        mu_partial=(k * tp / t) * stream_secrecy(cfg, leakage_mu.partial),
    )


def secrecy_from_config(cfg: SystemConfig, mc: ExactFirst | MonteCarlo) -> SecrecyRates:
    """`secrecy_rates` at ``cfg`` from both leakage pairs, built with ``mc``."""
    return secrecy_rates(cfg, leakage_pair(cfg, mc), leakage_pair(single_stream_view(cfg), mc))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _ergodic_prelog(cfg: SystemConfig) -> int:
    """The known-channel pre-log ``min((N_E - N_J)^+, K)``."""
    return min(max(cfg.N_E - cfg.N_J, 0), cfg.K)


def _saturated_pair(ne: int, t: int) -> SaturatedBound:
    exact = ne * math.log(t) - (ne / t) * expected_logdet_wishart(t, t)
    relaxed = ne * (EULER_GAMMA + math.log(t))
    return SaturatedBound(exact=exact / _LN2, relaxed=relaxed / _LN2)
