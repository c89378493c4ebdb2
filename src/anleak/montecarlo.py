"""Deterministic Monte Carlo estimators for leakage quantities.

Every sampled estimator here reduces to sample means of functionals of
random matrix spectra.  Determinism contract, stream ``_STREAM`` (2): a
sampled result depends only on its arguments, ``trials`` and ``seed`` —
never on the order of earlier calls.  This module owns it for the
package: `_check_run_args` judges ``trials`` and ``seed`` (and the
``workers`` still accepted, which selects nothing), and every seeded draw
of the package goes through `_run_trials`, on the caller's thread.
Trials run in batches of ``_BATCH``, which is part of the contract: batch
``b`` draws its trials in trial order from one generator seeded from
``(seed, stream_tag, b)``, and batches reduce in trial order.
This module also owns the package's threads: `_in_order` is its one pool,
used by ``validate`` to run its sampled checks side by side, and numpy's
bundled OpenBLAS runs one thread while it does.

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
the one product sampler `_product`, and is batch-shaped: it takes a
batch's generator and trial count and returns the batch's parts stacked.
`_product` draws the batch's normals in one call and its Bartlett
magnitudes in another, then scales and multiplies the whole batch at
once, so a batch drops the interpreter lock a few times, not a few times
per trial.  The channel draws and the split check's draw run trial by
trial on the batch's generator (`_per_trial`).  Every estimator reads its
noise floor ``s2`` from the config, as ``cfg.sigma_z2``, and evaluates a
functional such as ``log1p(lambda / s2)`` on the spectra of each batch,
which no noise floor enters.  `expected_log_sv_sum` and
`universal_constant` reduce each batch to per-trial values as it is
drawn.  The ergodic draw of ``Gbar`` is one stream per geometry, whose
spectra a `MonteCarlo` keeps: the ergodic leakage at any noise floor and
its high-SNR constant both read them.  Of the commands, only
``validate``'s ergodic-slope check re-reads them; ``sweep`` and
``bounds`` evaluate with `laws.ExactFirst`, which draws nothing.  The
module functions `ergodic_leakage` and `ergodic_constant` are each one
call of a `MonteCarlo`.  `SvKind` and each kind's `_product` arguments
come from `anleak.laws`, which its laws share.

Units: ``expected_log_sv_sum`` returns nats (it is compared against
digamma identities); the leakage-level estimators return bits.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .laws import McEstimate, SvKind, _check_universal, _gbar_args, _sv_args, _sv_rank
from .linalg import _sample_gaussians, sample_gaussian, squared_singular_values

if TYPE_CHECKING:  # channel imports this module's run rule and trial loop
    from .channel import SystemConfig

__all__ = [
    "MonteCarlo",
    "expected_log_sv_sum",
    "ergodic_leakage",
    "ergodic_constant",
    "universal_constant",
    "SplitCheckReport",
    "sv_split_check",
]

_LN2 = math.log(2.0)
_BATCH = 16  # trials per batch and generator: part of the stream contract
_SQ_FLAG_RTOL = 1e-12  # relative squared-singular-value floor of the Gram route

_STREAM = 2  # version of the sampled stream: raised whenever a sampled value moves

# Every stream tag of the package: part of the determinism contract, never
# renumber.  1-5 are the `SvKind` values; 6 and 8 are retired.
_TAG_ERGODIC = 7
_TAG_UNIVERSAL = 9
_TAG_SPLIT = 10
_TAG_DISTRIBUTIONS = 100  # channel.check_effective_distributions
_TAG_TRANSMIT_POWER = 101  # channel.average_transmit_power


@dataclass(frozen=True, init=False)
class MonteCarlo:
    """Bundle of sampling parameters reused across estimator calls.

    ``trials`` and ``seed`` are checked once, at construction.
    ``log_sv_sum`` and ``universal_constant`` are their module functions
    with these two.  ``ergodic_leakage`` and ``ergodic_constant`` read one
    kept draw, the per-batch ``(sq_full, sq_an)``, drawn on first use and
    kept for the instance's lifetime; ``ergodic_leakage`` evaluates it at
    ``cfg.sigma_z2`` on each call, so configs that differ only in
    ``snr_e_db`` or ``T`` share one draw.  The key is the draw's own
    argument tuple, so it holds every value the draw reads and never the
    SNRs, ``T`` or ``M``.
    """

    trials: int
    seed: int
    _cache: dict = field(init=False, repr=False, compare=False)

    def __init__(self, trials: int = 20000, seed: int = 0, workers: int = 1) -> None:
        # ``workers`` is checked and selects nothing, and no attribute keeps
        # it: perfbench/make_reference.py still passes ``workers=1``, until
        # the benchmark is next redefined (ROADMAP item 1).
        trials, seed, _ = _check_run_args(trials, seed, workers)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "_cache", {})

    @property
    def _run(self) -> tuple:
        return self.trials, self.seed

    def log_sv_sum(self, kind: SvKind, cfg: SystemConfig) -> McEstimate:
        return expected_log_sv_sum(kind, cfg, *self._run)

    def ergodic_leakage(self, cfg: SystemConfig) -> McEstimate:
        return _summarize([_ergodic_values(cfg.sigma_z2, *b) for b in self._ergodic_spectra(cfg)])

    def _ergodic_spectra(self, cfg: SystemConfig) -> list:
        """The kept per-batch spectra ``(sq_full, sq_an)`` of the ergodic
        draw, drawn on first use under the draw's arguments."""
        args = _gbar_args(cfg)
        if args not in self._cache:
            spectra = partial(_gbar_spectra, cfg.K)
            self._cache[args] = _run_trials(_TAG_ERGODIC, _product, args, spectra, *self._run)
        return self._cache[args]

    def ergodic_constant(self, cfg: SystemConfig) -> McEstimate:
        return _summarize([_ergodic_constant_values(*b) for b in self._ergodic_spectra(cfg)])

    def universal_constant(self, cfg: SystemConfig) -> McEstimate:
        return universal_constant(cfg, *self._run)


# ---------------------------------------------------------------------------
# Core engine
# ---------------------------------------------------------------------------


def _check_run_args(trials: int, seed: int, workers: int = 1) -> tuple[int, int, int]:
    """The package's one run rule: integer ``trials >= 2``, ``seed >= 0``,
    ``workers >= 1``, returned as ``int``.  Any integer type counts (numpy's
    too, through `operator.index`); a bool does not."""
    rules = (("trials", trials, 2), ("seed", seed, 0), ("workers", workers, 1))
    out = []
    for name, value, low in rules:
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            number = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if number < low:
            raise ValueError(f"{name} must be >= {low}, got {number}")
        out.append(number)
    return tuple(out)


def _run_trials(tag: int, draw, args: tuple, reduce, trials: int, seed: int) -> list:
    """Draw ``trials`` seeded trials and reduce them batch by batch, in
    trial order, on the caller's thread.

    Batch ``b`` holds trials ``b _BATCH`` up to ``min((b + 1) _BATCH,
    trials)`` and is one call ``draw(*args, rng, n)``: ``rng`` the batch's
    generator, seeded from ``(seed, tag, b)``, and ``n`` its trial count.
    It returns the batch's parts stacked along a leading trial axis: one
    array or a tuple of arrays.  The list of ``reduce(*parts)`` results,
    per-trial values or spectra, is returned.
    """
    trials, seed, _ = _check_run_args(trials, seed)
    out = []
    for b in range(-(-trials // _BATCH)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, tag, b)))
        parts = draw(*args, rng, min(_BATCH, trials - b * _BATCH))
        out.append(reduce(*parts) if isinstance(parts, tuple) else reduce(parts))
    return out


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(fn, items, workers: int, start=None) -> list:
    """``[fn(item) for item in items]`` on a pool of ``workers`` threads.

    The package's one thread pool, on which ``validate`` runs its sampled
    checks; each check's draws stay on its own thread (`_run_trials`).
    Items are submitted in ``start`` order (indices into ``items``; default
    their own order), but results, and the first exception raised, follow
    the order of ``items``.  While the pool runs, numpy's bundled OpenBLAS
    is held to one thread (`_one_blas_thread`), so the pool's threads do
    not each spawn a BLAS team on the same cores.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: only a pool needs it

    items = list(items)
    order = range(len(items)) if start is None else start
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(fn, items[i]) for i in order}
        return [futures[i].result() for i in range(len(items))]


@functools.cache
def _openblas():
    """`_find_openblas`'s answer, looked up once per process."""
    return _find_openblas()


def _find_openblas():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or
    None where numpy uses another BLAS or the library cannot be loaded.

    numpy's wheels ship OpenBLAS in ``numpy.libs`` (``numpy/.dylibs`` on
    macOS): ``scipy_openblas64_`` with ``scipy_openblas_*_num_threads64_``
    since numpy 2, ``openblas64_`` with ``openblas_*_num_threads64_`` before.
    Loading it again by path returns the copy numpy already loaded.
    """
    import ctypes  # here, not at import: only a pool needs it
    import glob

    here = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(here, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            put = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


# Process-wide, as the OpenBLAS thread count they guard is: the holds now
# open, and the count to restore when the last one closes.
_blas_lock = threading.Lock()
_blas_hold = {"open": 0, "restore": None}


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread; on leaving the last of
    any nested or concurrent holds, restore the count the first one found.
    Does nothing where `_openblas` finds no such library."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    with _blas_lock:
        if _blas_hold["open"] == 0:
            _blas_hold["restore"] = get()
            put(1)
        _blas_hold["open"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_hold["open"] -= 1
            if _blas_hold["open"] == 0:
                put(_blas_hold["restore"])


def _stacked(tag: int, draw, args: tuple, trials: int, seed: int) -> tuple:
    """Each part of the batch draw ``draw(*args, rng, n)``, joined in trial order."""
    batches = _run_trials(tag, draw, args, lambda *parts: parts, trials, seed)
    return tuple(np.concatenate(part) for part in zip(*batches))


def _per_trial(one):
    """The batch draw of a per-trial one: ``one(*args, rng)``'s tuple of
    parts for each of the batch's ``n`` trials, in order on the batch's
    generator, stacked."""

    @functools.wraps(one)
    def draw(*args) -> tuple:
        *args, rng, n = args
        return tuple(np.stack(part) for part in zip(*(one(*args, rng) for _ in range(n))))

    return draw


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


def _bartlett_factor(m: int, dof: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` stacked lower-triangular ``A`` with ``A A^H`` complex-Wishart(m, dof).

    Requires ``dof >= m``.  The batch's diagonal magnitudes come first (one
    Gamma draw), then the normals of its strict lower triangles (one draw).
    """
    a = np.zeros((n, m, m), dtype=np.complex128)
    a[:, range(m), range(m)] = np.sqrt(rng.gamma(dof - np.arange(m), size=(n, m)))
    rows, cols = np.tril_indices(m, k=-1)
    a[:, rows, cols] = _sample_gaussians(1, rows.size, 1.0, rng, n)[:, 0]
    return a


def _product(
    rows: int,
    k: int,
    alpha2: float,
    nj: int,
    beta2: float,
    dof: int | None,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """``n`` stacked: a ``rows x (k + nj)`` CN(0, 1) block, its first ``k``
    columns scaled by ``sqrt(alpha2)`` and the other ``nj`` by
    ``sqrt(beta2)``; unless ``dof`` is None, times the `_bartlett_factor`
    of a unit block of ``dof`` symbols.  The batch's blocks are drawn
    first, then its factors."""
    left = _sample_gaussians(rows, k + nj, 1.0, rng, n)
    scales = np.repeat([math.sqrt(alpha2), math.sqrt(beta2)], [k, nj])
    if (scales != 1.0).any():
        left *= scales
    return left if dof is None else left @ _bartlett_factor(k + nj, dof, rng, n)


def _log_sv_values(sq: np.ndarray) -> np.ndarray:
    """Per-trial ``sum log`` of the squared singular values, of which each
    draw has exactly as many as its rank.

    Rows whose last value falls below the relative degeneracy threshold
    come back NaN (excluded upstream).
    """
    bad = sq[:, -1] <= _SQ_FLAG_RTOL * sq[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sum(np.log(sq), axis=1)
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
    _check_run_args(trials, seed)
    args = _sv_args(kind, cfg)
    if _sv_rank(kind, args) == 0:
        return McEstimate(0.0, 0.0, 0)

    def reduce(stack: np.ndarray) -> np.ndarray:
        return _log_sv_values(squared_singular_values(stack))

    return _summarize(_run_trials(kind.value, _product, args, reduce, trials, seed))


def _gbar_spectra(k: int, gbar: np.ndarray) -> tuple:
    """Per-batch ``(sq_full, sq_an)``, the squared singular values of ``Gbar``
    and of ``G2``, its noise-part columns from column ``k`` on."""
    return squared_singular_values(gbar), squared_singular_values(gbar[:, :, k:])


def ergodic_leakage(
    cfg: SystemConfig,
    trials: int = 20000,
    seed: int = 0,
) -> McEstimate:
    """Per-block information rate to the eavesdropper who knows its channel.

    Estimates, in bits per symbol,
    ``E[logdet(Gbar Gbar^H + s2 I) - logdet(G2 G2^H + s2 I)]`` with
    ``Gbar`` the ``N_E x (K + N_J)`` effective channel and ``G2`` its
    noise-part columns.  ``T`` plays no role here.
    """
    return MonteCarlo(trials, seed).ergodic_leakage(cfg)


def _ergodic_values(s2: float, sq_full: np.ndarray, sq_an: np.ndarray) -> np.ndarray:
    """Per-trial ergodic leakage in bits from one batch of spectra."""
    full = np.sum(np.log1p(sq_full / s2), axis=1)
    an = np.sum(np.log1p(sq_an / s2), axis=1) if sq_an.shape[1] else 0.0
    return (full - an) / _LN2


def ergodic_constant(
    cfg: SystemConfig,
    trials: int = 20000,
    seed: int = 0,
) -> McEstimate:
    """High-SNR offset of the ergodic leakage, in bits.

    Estimates ``E[sum ln lambda^2(Gbar) - sum ln lambda^2(G2)] / ln 2``
    with the sums over the full generic ranks; the pair of spectra comes
    from one realization, so the difference is estimated at its natural
    (low) variance.  It reads the same draw as `ergodic_leakage`.
    """
    return MonteCarlo(trials, seed).ergodic_constant(cfg)


def _ergodic_constant_values(sq_full: np.ndarray, sq_an: np.ndarray) -> np.ndarray:
    """Per-trial ``sum ln lambda^2(Gbar) - sum ln lambda^2(G2)`` in bits over
    the generic ranks; NaN where the degeneracy guard trips."""
    full = _log_sv_values(sq_full)
    if sq_an.shape[1]:
        full = full - _log_sv_values(sq_an)
    return full / _LN2


def universal_constant(
    cfg: SystemConfig,
    trials: int = 20000,
    seed: int = 0,
) -> McEstimate:
    """Constant term of the coherence-free leakage upper bound, in bits.

    Per trial, with ``lam_g`` the squared singular values of the data-part
    channel and ``lam_n`` those of the unit noise block of ``t_prime``
    columns::

        (1/t') sum_{i,j} log2(1 + lam_g[j] / (beta2 lam_n[i] + s2))
        + (1 - N_J/t')^+ sum_j log2(lam_g[j] + s2)

    The data-part channel is drawn before the noise-block factor.
    """
    return _summarize(_run_trials(*_universal(cfg), trials, seed))


def _universal(cfg: SystemConfig) -> tuple:
    """``(tag, draw, args, reduce)`` of the universal constant; the noise
    factor's args are its size and degrees of freedom."""
    _check_universal(cfg)
    nj, tp = cfg.N_J, cfg.t_prime
    args = _sv_args(SvKind.DATA, cfg), (min(nj, tp), max(nj, tp))
    return _TAG_UNIVERSAL, _universal_draw, args, partial(_universal_values, cfg)


def _universal_draw(data: tuple, noise: tuple, rng: np.random.Generator, n: int):
    """The data-part channels, then the noise blocks' factors unless they are empty."""
    g1 = _product(*data, rng, n)
    return (g1, _bartlett_factor(*noise, rng, n)) if noise[0] else g1


def _universal_values(
    cfg: SystemConfig, g1: np.ndarray, noise: np.ndarray | None = None
) -> np.ndarray:
    """Per-trial universal constant in bits from one batch of draws (no
    ``noise`` factors when ``N_J = 0``)."""
    tp, s2 = cfg.t_prime, cfg.sigma_z2
    sq_g = squared_singular_values(g1)
    vals = max(0.0, 1.0 - cfg.N_J / tp) * np.sum(np.log(sq_g + s2), axis=1)
    if noise is not None:
        denom = cfg.beta2 * squared_singular_values(noise)[:, :, None] + s2
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
    trials: int = 200,
    seed: int = 0,
) -> SplitCheckReport:
    """Compare spectra of noisy and noiseless channel-block products.

    Forms explicit products (no factorization shortcuts), so this check
    also cross-validates the sampling used by the estimators above.  Each
    trial is one `_split_draw`, drawn through `_run_trials`, with noise of
    variance ``cfg.sigma_z2``.
    """
    ne, mbar, t, s2 = cfg.N_E, cfg.mbar, cfg.T, cfg.sigma_z2
    if t < mbar:
        raise ValueError(f"split check needs T >= K + N_J = {mbar}, got T={t}")
    xi, omega = min(mbar, ne, t), min(ne, t)
    parts = _stacked(_TAG_SPLIT, _split_draw, (cfg, xi, omega), trials, seed)
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


@_per_trial
def _split_draw(cfg: SystemConfig, xi: int, omega: int, rng: np.random.Generator):
    """One trial: the top-``xi`` deviations, then any trailing and reference values."""
    ne, t, s2 = cfg.N_E, cfg.T, cfg.sigma_z2
    prod = _product(*_gbar_args(cfg), rng, 1)[0] @ sample_gaussian(cfg.mbar, t, 1.0, rng)
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
