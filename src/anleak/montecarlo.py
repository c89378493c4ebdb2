"""Deterministic Monte Carlo estimators for leakage quantities.

Every sampled estimator here reduces to sample means of functionals of
random matrix spectra.  Determinism contract: a result depends only on the
arguments ``(..., trials, seed)`` — never on the worker count.  This
module owns it for the package: `_check_run_args` judges ``trials``,
``seed`` and ``workers``, and every seeded draw of the package goes through
`_run_trials`, which seeds trial ``i`` from ``(seed, stream_tag, i)``.
Trials run in fixed-size batches and reduce in trial order; workers only
partition batches, so 1 and 8 workers produce bit-identical numbers.

Sampling notes
--------------
Product spectra ``L @ R`` with ``R`` a unit complex-Gaussian block of
``t`` columns are sampled through the Bartlett factorization of
``R @ R^H``: a lower-triangular ``A`` with ``|A_jj|^2 ~ Gamma(t - j + 1)``
and strict lower triangle i.i.d. ``CN(0, 1)`` satisfies
``A A^H =d R R^H`` exactly, so ``L @ A`` has exactly the squared singular
values of ``L @ R``.  This is an equality in distribution, not an
approximation; it cuts the dominant matrix product from ``O(m^2 t)`` to
``O(m^3)``.  The split check below deliberately forms explicit products
instead, so the two routes cross-validate.

Squared singular values come from ``eigvalsh`` of the Gram matrix, which
resolves them only to about ``n * eps`` of the largest (``n`` the matrix
dimension, ``eps = 2.2e-16``); below that a value is roundoff.  Trials
whose required smallest one falls below ``1e-12`` of the largest, above
that floor for ``n`` up to a few thousand, are excluded from the mean and
counted in ``McEstimate.excluded`` (a square ``64 x 64`` Gaussian block
falls that low with probability about ``2e-8``).

A draw is a stream tag plus a tuple of plain arguments, mostly those of
the one product sampler `_product`.  Estimators evaluate a functional such
as ``log1p(lambda / s2)`` on the spectra of each batch, which no noise
floor enters.  The module functions reduce each batch to per-trial values
as it is drawn; `MonteCarlo` keeps the spectra under ``(tag, args)``
instead, so an SNR sweep samples each once.

Where a high-SNR expectation has a known law, a digamma sum (see
`_log_sv_law`), the `MonteCarlo` subclass `ExactFirst` answers in closed
form with standard error 0 and samples the rest as its parent does;
``sweep`` and ``bounds`` use it.  A plain `MonteCarlo` and the module
functions always sample, so they stay the cross-check of every closed form.

Units: ``expected_log_sv_sum`` returns nats (it is compared against
digamma identities); the leakage-level estimators return bits.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .linalg import sample_gaussian, squared_singular_values
from .special import expected_logdet_wishart

if TYPE_CHECKING:  # channel imports this module's run rule and trial loop
    from .channel import SystemConfig

__all__ = [
    "McEstimate",
    "SvKind",
    "MonteCarlo",
    "ExactFirst",
    "expected_log_sv_sum",
    "ergodic_leakage",
    "ergodic_constant",
    "universal_constant",
    "SplitCheckReport",
    "sv_split_check",
]

_LN2 = math.log(2.0)
_BATCH = 64
_SQ_FLAG_RTOL = 1e-12  # relative squared-singular-value floor of the Gram route

# Every stream tag of the package: part of the determinism contract, never
# renumber.  1-5 are the `SvKind` values and 6 is retired.
_TAG_ERGODIC = 7
_TAG_ERGODIC_CONST = 8
_TAG_UNIVERSAL = 9
_TAG_SPLIT = 10
_TAG_DISTRIBUTIONS = 100  # channel.check_effective_distributions
_TAG_TRANSMIT_POWER = 101  # channel.average_transmit_power


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo sample mean with its standard error.

    Attributes
    ----------
    mean : float
        Sample mean over the valid trials.
    std_error : float
        Sample standard deviation divided by ``sqrt(trials)``.
    trials : int
        Number of valid trials that entered the mean.
    excluded : int
        Trials dropped by the degenerate-spectrum guard.
    """

    mean: float
    std_error: float
    trials: int
    excluded: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if not (math.isfinite(self.std_error) and self.std_error >= 0.0):
            raise ValueError(f"std_error must be finite and >= 0, got {self.std_error!r}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if self.excluded < 0:
            raise ValueError(f"excluded must be >= 0, got {self.excluded}")


class SvKind(Enum):
    """Which product spectrum ``expected_log_sv_sum`` averages.

    Members name the matrices by role in the transmission model:

    * ``JOINT`` — full effective channel (data and noise columns) times a
      unit-Gaussian block of ``T`` symbols; ``N_E x (K + N_J)`` by
      ``(K + N_J) x T``.
    * ``AN_TAIL`` — noise-part channel times the post-training unit block
      of ``T - K`` symbols.
    * ``AN_POST`` — noise-part channel times a unit block of ``t_prime``
      symbols.
    * ``AN_EXCESS`` — the last ``N_E - K`` rows of the noise-part channel
      times a unit block of ``t_prime`` symbols.
    * ``DATA`` — the effective data channel alone (``N_E x K``, variance
      ``alpha2``).

    A member's value is its stream tag, part of the determinism contract:
    never renumber.  Tag 6 is retired; it drew the unit noise block alone.
    """

    JOINT = 1
    AN_TAIL = 2
    AN_EXCESS = 3
    AN_POST = 4
    DATA = 5


# Each kind's `_product` arguments ``(rows, k, alpha2, nj, beta2, dof)``.
_SV_ARGS = {
    SvKind.JOINT: lambda c: (c.N_E, c.K, c.alpha2, c.N_J, c.beta2, c.T),
    SvKind.AN_TAIL: lambda c: (c.N_E, 0, 0.0, c.N_J, c.beta2, c.T - c.K),
    SvKind.AN_EXCESS: lambda c: (c.N_E - c.K, 0, 0.0, c.N_J, c.beta2, c.t_prime),
    SvKind.AN_POST: lambda c: (c.N_E, 0, 0.0, c.N_J, c.beta2, c.t_prime),
    SvKind.DATA: lambda c: (c.N_E, c.K, c.alpha2, 0, 0.0, None),
}


def _sv_args(kind: SvKind, cfg: SystemConfig) -> tuple:
    if not isinstance(kind, SvKind):
        raise ValueError(f"kind must be an SvKind, got {kind!r}")
    return _SV_ARGS[kind](cfg)


def _sv_rank(kind: SvKind, args: tuple) -> int:
    """Generic rank ``min(rows, cols)`` of a kind's `_product` draw; raises
    `ValueError` when it has columns but no rows or too short a unit block."""
    rows, k, _, nj, _, dof = args
    cols = k + nj
    if cols == 0:
        return 0
    if rows < 1 or (dof is not None and dof < cols):
        raise ValueError(
            f"{kind.name} needs rows >= 1 and a unit block of >= {cols} symbols, "
            f"got {rows} rows and {dof} symbols"
        )
    return min(rows, cols)


def _log_sv_law(
    rows: int, k: int, alpha2: float, nj: int, beta2: float, dof: int | None
) -> float | None:
    """``E sum ln lambda^2`` of a `_product` draw in nats, or None if unknown.

    The draw is ``Z D A`` with ``Z`` a ``rows x m`` CN(0, 1) block,
    ``m = k + nj``, ``D`` the diagonal of column scales and ``A A^H`` a
    complex Wishart ``W_m(dof)``.  For ``rows >= m`` the determinant splits
    into ``det D^2 det(Z^H Z) det(A A^H)``; for ``rows < m`` with one power
    ``d^2`` the LQ split of ``Z`` gives ``d^(2 rows)`` times a
    ``W_rows(m)`` and a ``W_rows(dof)`` determinant (Goodman 1963).  Two
    distinct powers on a wide block have no such law.
    """
    m = k + nj

    def logdet(p: int, t: int | None) -> float:
        return 0.0 if t is None else expected_logdet_wishart(p, t)

    if m == 0:
        return 0.0
    if rows >= m:
        scale = sum(n * math.log(d2) for n, d2 in ((k, alpha2), (nj, beta2)) if n)
        return scale + logdet(m, rows) + logdet(m, dof)
    if k == 0 or nj == 0 or alpha2 == beta2:
        d2 = alpha2 if k else beta2
        return rows * math.log(d2) + logdet(rows, m) + logdet(rows, dof)
    return None


@dataclass(frozen=True)
class MonteCarlo:
    """Bundle of sampling parameters reused across estimator calls.

    ``trials``, ``seed`` and ``workers`` are checked once, at construction.
    An instance caches its draws for its lifetime: ``log_sv_sum`` keeps its
    `McEstimate`, ``ergodic_leakage`` and ``universal_constant`` keep their
    per-batch spectra and apply ``sigma_z2`` on each call.  A key is the
    stream tag plus the argument tuple the draw itself is called with, so
    it holds every value the draw reads and never the SNRs, ``M`` or
    ``workers``; a hit returns the module function's numbers.
    ``ergodic_constant`` is drawn once per command and not cached.
    """

    trials: int = 20000
    seed: int = 0
    workers: int = 1
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_run_args(*self._run)

    @property
    def _run(self) -> tuple:
        return self.trials, self.seed, self.workers

    def _memo(self, tag: int, args: tuple, compute):
        key = (tag, args)
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _estimate(self, tag: int, draw, args: tuple, spectra, values) -> McEstimate:
        compute = partial(_run_trials, tag, draw, args, spectra, *self._run)
        return _summarize([values(*b) for b in self._memo(tag, args, compute)])

    def log_sv_sum(self, kind: SvKind, cfg: SystemConfig) -> McEstimate:
        args = _sv_args(kind, cfg)
        compute = partial(expected_log_sv_sum, kind, cfg, *self._run)
        return self._memo(kind.value, args, compute)

    def ergodic_leakage(self, cfg: SystemConfig, sigma_z2: float) -> McEstimate:
        return self._estimate(*_ergodic(cfg, _check_sigma(sigma_z2)))

    def ergodic_constant(self, cfg: SystemConfig) -> McEstimate:
        return ergodic_constant(cfg, *self._run)

    def universal_constant(self, cfg: SystemConfig, sigma_z2: float) -> McEstimate:
        return self._estimate(*_universal(cfg, _check_sigma(sigma_z2)))


class ExactFirst(MonteCarlo):
    """A `MonteCarlo` that answers in closed form wherever the law is known.

    ``log_sv_sum`` and ``ergodic_constant`` come from `_log_sv_law` as
    ``McEstimate(mean, 0.0, trials, 0)`` unless a spectrum has two distinct
    powers on fewer rows than columns; that draw, ``ergodic_leakage`` and
    ``universal_constant`` are the sampled answers of `MonteCarlo`.
    """

    def log_sv_sum(self, kind: SvKind, cfg: SystemConfig) -> McEstimate:
        args = _sv_args(kind, cfg)
        _sv_rank(kind, args)
        mean = _log_sv_law(*args)
        if mean is None:
            return super().log_sv_sum(kind, cfg)
        return McEstimate(mean, 0.0, self.trials, 0)

    def ergodic_constant(self, cfg: SystemConfig) -> McEstimate:
        full = _log_sv_law(*_gbar_args(cfg))
        if full is None:
            return super().ergodic_constant(cfg)
        # G2 has one power, so its law is always known.
        an = _log_sv_law(cfg.N_E, 0, 0.0, cfg.N_J, cfg.beta2, None)
        return McEstimate((full - an) / _LN2, 0.0, self.trials, 0)


# ---------------------------------------------------------------------------
# Core engine
# ---------------------------------------------------------------------------


def _trial_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag, index)))


def _check_run_args(trials: int, seed: int, workers: int = 1) -> None:
    """The package's one run rule: integer ``trials >= 2``, ``seed >= 0``, ``workers >= 1``."""
    rules = (("trials", trials, 2), ("seed", seed, 0), ("workers", workers, 1))
    for name, value, low in rules:
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _run_trials(
    tag: int, draw, args: tuple, reduce, trials: int, seed: int, workers: int
) -> list:
    """Draw seeded trials and reduce them batch by batch, in trial order.

    Trial ``i`` is ``draw(*args, _trial_rng(seed, tag, i))``: one array or
    a tuple of arrays, 0-d ones too.  Each batch of ``_BATCH`` trials is
    stacked array by array (written straight into preallocated stacks, so a
    batch is held once), and the list of ``reduce(*stacks)`` results,
    per-trial values or spectra, is returned; workers only partition them.
    """
    _check_run_args(trials, seed, workers)

    def batch(start: int) -> np.ndarray:
        count = min(_BATCH, trials - start)
        stacks = None
        for j in range(count):
            parts = draw(*args, _trial_rng(seed, tag, start + j))
            if not isinstance(parts, tuple):
                parts = (parts,)
            if stacks is None:
                stacks = [np.empty((count,) + p.shape, dtype=p.dtype) for p in parts]
            for stack, part in zip(stacks, parts):
                stack[j] = part
        return reduce(*stacks)

    starts = range(0, trials, _BATCH)
    if workers == 1:
        return [batch(s) for s in starts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(batch, starts))


def _stacked(tag: int, draw, args: tuple, trials: int, seed: int) -> tuple:
    """Each part of the trials ``draw(*args, rng)``, stacked in trial order."""
    batches = _run_trials(tag, draw, args, lambda *stacks: stacks, trials, seed, 1)
    return tuple(np.concatenate(part) for part in zip(*batches))


def _summarize(batches: list[np.ndarray]) -> McEstimate:
    """Mean and standard error of per-batch trial values, NaNs excluded."""
    values = np.concatenate(batches)
    bad = ~np.isfinite(values)
    excluded = int(bad.sum())
    vals = values[~bad]
    if vals.size < 2:
        raise ValueError(
            f"only {vals.size} valid trials after excluding {excluded}; "
            "cannot form an estimate"
        )
    return McEstimate(
        mean=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / math.sqrt(vals.size)),
        trials=int(vals.size),
        excluded=excluded,
    )


def _estimate(
    tag: int, draw, args: tuple, spectra, values, trials: int, seed: int, workers: int
) -> McEstimate:
    """Mean of ``values(*spectra(*batch))`` over the draws ``draw(*args, rng)``,
    each batch reduced to per-trial values as it is drawn."""

    def reduce(*stacks: np.ndarray) -> np.ndarray:
        return values(*spectra(*stacks))

    return _summarize(_run_trials(tag, draw, args, reduce, trials, seed, workers))


def _spectra(*stacks: np.ndarray) -> tuple:
    """Squared singular values of each stacked part of a batch."""
    return tuple(squared_singular_values(stack) for stack in stacks)


def _bartlett_factor(m: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular ``A`` with ``A A^H`` complex-Wishart(m, dof).

    Requires ``dof >= m``.  Diagonal magnitudes are drawn first (one
    vectorized Gamma draw), then the strict lower triangle.
    """
    shapes = dof - np.arange(m)
    diag = np.sqrt(rng.gamma(shape=shapes))
    a = np.zeros((m, m), dtype=np.complex128)
    np.fill_diagonal(a, diag)
    if m > 1:
        lower = sample_gaussian(m, m, 1.0, rng)
        idx = np.tril_indices(m, k=-1)
        a[idx] = lower[idx]
    return a


def _product(
    rows: int,
    k: int,
    alpha2: float,
    nj: int,
    beta2: float,
    dof: int | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """``rows x (k + nj)`` CN(0, 1) block, its first ``k`` columns scaled by
    ``sqrt(alpha2)`` and the other ``nj`` by ``sqrt(beta2)``; unless ``dof``
    is None, times the `_bartlett_factor` of a unit block of ``dof`` symbols.
    """
    scales = np.repeat([math.sqrt(alpha2), math.sqrt(beta2)], [k, nj])
    left = sample_gaussian(rows, k + nj, 1.0, rng) * scales
    return left if dof is None else left @ _bartlett_factor(k + nj, dof, rng)


def _log_sv_values(sq: np.ndarray, r: int) -> np.ndarray:
    """Per-trial ``sum log`` of the top ``r`` squared singular values.

    Rows whose ``r``-th value falls below the relative degeneracy
    threshold come back NaN (excluded upstream).
    """
    top = sq[:, :r]
    bad = top[:, -1] <= _SQ_FLAG_RTOL * sq[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sum(np.log(top), axis=1)
    vals[bad] = np.nan
    return vals


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def expected_log_sv_sum(
    kind: SvKind,
    cfg: SystemConfig,
    trials: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Estimate ``E[sum_i ln lambda_i^2]`` for the chosen spectrum, in nats.

    The sum runs over the full generic rank of the matrix (the minimum of
    its dimensions).  Degenerate trials are excluded per the module policy.

    Raises
    ------
    ValueError
        If the kind's block-length precondition fails (``T >= K + N_J``
        for ``JOINT``/``AN_TAIL``, ``t_prime >= N_J`` for
        ``AN_EXCESS``/``AN_POST``, ``N_E > K`` for ``AN_EXCESS``).
    """
    _check_run_args(trials, seed, workers)
    args = _sv_args(kind, cfg)
    rank = _sv_rank(kind, args)
    if rank == 0:
        return McEstimate(0.0, 0.0, trials, 0)
    values = partial(_log_sv_values, r=rank)
    return _estimate(kind.value, _product, args, _spectra, values, trials, seed, workers)


def _gbar_args(cfg: SystemConfig) -> tuple:
    """`_product` arguments of the ``N_E x (K + N_J)`` effective channel alone."""
    return cfg.N_E, cfg.K, cfg.alpha2, cfg.N_J, cfg.beta2, None


def _gbar_spectra(k: int, gbar: np.ndarray) -> tuple:
    """Per-batch ``(sq_full, sq_an)``, the squared singular values of ``Gbar``
    and of ``G2``, its noise-part columns from column ``k`` on."""
    return squared_singular_values(gbar), squared_singular_values(gbar[:, :, k:])


def ergodic_leakage(
    cfg: SystemConfig,
    sigma_z2: float,
    trials: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Per-block information rate to the eavesdropper who knows its channel.

    Estimates, in bits per symbol,
    ``E[logdet(Gbar Gbar^H + s2 I) - logdet(G2 G2^H + s2 I)]`` with
    ``Gbar`` the ``N_E x (K + N_J)`` effective channel and ``G2`` its
    noise-part columns.  ``T`` plays no role here.
    """
    return _estimate(*_ergodic(cfg, _check_sigma(sigma_z2)), trials, seed, workers)


def _ergodic(cfg: SystemConfig, s2: float) -> tuple:
    """``(tag, draw, args, spectra, values)`` of the ergodic leakage."""
    spectra = partial(_gbar_spectra, cfg.K)
    return _TAG_ERGODIC, _product, _gbar_args(cfg), spectra, partial(_ergodic_values, s2)


def _ergodic_values(s2: float, sq_full: np.ndarray, sq_an: np.ndarray) -> np.ndarray:
    """Per-trial ergodic leakage in bits from one batch of spectra."""
    full = np.sum(np.log1p(sq_full / s2), axis=1)
    an = np.sum(np.log1p(sq_an / s2), axis=1) if sq_an.shape[1] else 0.0
    return (full - an) / _LN2


def ergodic_constant(
    cfg: SystemConfig,
    trials: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """High-SNR offset of the ergodic leakage, in bits.

    Estimates ``E[sum ln lambda^2(Gbar) - sum ln lambda^2(G2)] / ln 2``
    with the sums over the full generic ranks; the pair of spectra comes
    from one realization, so the difference is estimated at its natural
    (low) variance.
    """
    r_full = min(cfg.mbar, cfg.N_E)
    r_an = min(cfg.N_J, cfg.N_E)

    def values(sq_full: np.ndarray, sq_an: np.ndarray) -> np.ndarray:
        full = _log_sv_values(sq_full, r_full)
        if r_an:
            full = full - _log_sv_values(sq_an, r_an)
        return full / _LN2

    spectra = partial(_gbar_spectra, cfg.K)
    args = _gbar_args(cfg)
    return _estimate(_TAG_ERGODIC_CONST, _product, args, spectra, values, trials, seed, workers)


def universal_constant(
    cfg: SystemConfig,
    sigma_z2: float,
    trials: int = 20000,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Constant term of the coherence-free leakage upper bound, in bits.

    Per trial, with ``lam_g`` the squared singular values of the data-part
    channel and ``lam_n`` those of the unit noise block of ``t_prime``
    columns::

        (1/t') sum_{i,j} log2(1 + lam_g[j] / (beta2 lam_n[i] + s2))
        + (1 - N_J/t')^+ sum_j log2(lam_g[j] + s2)

    The data-part channel is drawn before the noise-block factor.
    """
    return _estimate(*_universal(cfg, _check_sigma(sigma_z2)), trials, seed, workers)


def _universal(cfg: SystemConfig, s2: float) -> tuple:
    """``(tag, draw, args, spectra, values)`` of the universal constant; the
    noise factor's args are its size and degrees of freedom."""
    nj, tp = cfg.N_J, cfg.t_prime
    if tp < 1:
        raise ValueError(f"universal constant needs t_prime >= 1, got {tp}")
    args = _sv_args(SvKind.DATA, cfg), (min(nj, tp), max(nj, tp))
    return _TAG_UNIVERSAL, _universal_draw, args, _spectra, partial(_universal_values, cfg, s2)


def _universal_draw(data: tuple, noise: tuple, rng: np.random.Generator):
    """The data-part channel, then the noise block's factor unless it is empty."""
    g1 = _product(*data, rng)
    return (g1, _bartlett_factor(*noise, rng)) if noise[0] else g1


def _universal_values(
    cfg: SystemConfig, s2: float, sq_g: np.ndarray, sq_n: np.ndarray | None = None
) -> np.ndarray:
    """Per-trial universal constant in bits from one batch of spectra (no
    ``sq_n`` when ``N_J = 0``)."""
    tp = cfg.t_prime
    vals = max(0.0, 1.0 - cfg.N_J / tp) * np.sum(np.log(sq_g + s2), axis=1)
    if sq_n is not None:
        denom = cfg.beta2 * sq_n[:, :, None] + s2
        vals = vals + np.sum(np.log1p(sq_g[:, None, :] / denom), axis=(1, 2)) / tp
    return vals / _LN2


# ---------------------------------------------------------------------------
# Singular-value split check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitCheckReport:
    """How well a noisy product's spectrum splits into signal and noise parts.

    For ``Y = Gbar @ Xbar + Z`` the top ``xi = min(K + N_J, N_E, T)``
    singular values of ``Y`` should track those of the noiseless product,
    and the trailing ``omega - xi`` should look like the spectrum of an
    independent ``(N_E - xi) x (T - xi)`` noise block.

    Attributes
    ----------
    top_rel_dev_median, top_rel_dev_max : float
        Median / max over all trials and all top positions of the relative
        deviation ``|sv(Y) - sv(product)| / sv(product)``.
    trailing_energy_ratio : float
        Total trailing energy over its expectation for the reference noise
        block (1.0 when the split is ideal; NaN if there is no trailing part).
    trailing_ks : float
        Two-sample KS distance between pooled trailing singular values and
        pooled reference-block singular values.
    """

    trials: int
    xi: int
    omega: int
    top_rel_dev_median: float
    top_rel_dev_max: float
    trailing_energy_ratio: float
    trailing_ks: float


def sv_split_check(
    cfg: SystemConfig,
    sigma_z2: float,
    trials: int = 200,
    seed: int = 0,
) -> SplitCheckReport:
    """Compare spectra of noisy and noiseless channel-block products.

    Forms explicit products (no factorization shortcuts), so this check
    also cross-validates the sampling used by the estimators above.  Each
    trial is one `_split_draw`, drawn through `_run_trials`.
    """
    s2 = _check_sigma(sigma_z2)
    ne, mbar, t = cfg.N_E, cfg.mbar, cfg.T
    if t < mbar:
        raise ValueError(f"split check needs T >= K + N_J = {mbar}, got T={t}")
    xi, omega = min(mbar, ne, t), min(ne, t)
    parts = _stacked(_TAG_SPLIT, _split_draw, (cfg, s2, xi, omega), trials, seed)
    devs, *trailing = (part.ravel() for part in parts)  # pooled over trials
    if trailing:
        tail, ref = trailing
        energy = float(np.sum(tail**2) / (trials * s2 * (ne - xi) * (t - xi)))
        ks = _two_sample_ks(tail, ref)
    else:
        energy = float("nan")
        ks = 0.0
    return SplitCheckReport(
        trials=trials,
        xi=xi,
        omega=omega,
        top_rel_dev_median=float(np.median(devs)),
        top_rel_dev_max=float(np.max(devs)),
        trailing_energy_ratio=energy,
        trailing_ks=ks,
    )


def _split_draw(cfg: SystemConfig, s2: float, xi: int, omega: int, rng: np.random.Generator):
    """One trial: the top-``xi`` deviations, then any trailing and reference values."""
    ne, t = cfg.N_E, cfg.T
    prod = _product(*_gbar_args(cfg), rng) @ sample_gaussian(cfg.mbar, t, 1.0, rng)
    z = sample_gaussian(ne, t, s2, rng)
    sp = np.sqrt(squared_singular_values(prod))
    sy = np.sqrt(squared_singular_values(prod + z))
    devs = np.abs(sy[:xi] - sp[:xi]) / sp[:xi]
    if omega == xi:
        return (devs,)
    ref = math.sqrt(s2) * sample_gaussian(ne - xi, t - xi, 1.0, rng)
    return devs, sy[xi:omega], np.sqrt(squared_singular_values(ref))


def _two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _check_sigma(sigma_z2: float) -> float:
    s2 = float(sigma_z2)
    if not (math.isfinite(s2) and s2 > 0.0):
        raise ValueError(f"sigma_z2 must be finite and > 0, got {sigma_z2!r}")
    return s2
