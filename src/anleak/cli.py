"""Command-line interface: sweeps, single-point bounds, planning, validation.

Subcommands
-----------
``sweep``
    Read a key=value config file describing a scenario, an axis to sweep
    and a list of metrics; write one CSV with a row per (axis value,
    metric).
``bounds``
    Evaluate every regime at a single configuration and print
    ``key=value`` lines after a ``# anleak bounds`` header.  It reads the
    same point evaluator as ``sweep``, so a regime whose rule fails prints
    ``KEY_skipped=CODE`` with the code of the `NotApplicable` that
    `anleak.bounds` raised.
``plan``
    Antenna planning from carrier frequency and user speed.
``validate``
    Run the built-in statistical self-checks; exit 1 if any fails.  The
    first line, ``# anleak validate stream=2 trials=N seed=N``, names the
    sampled stream.  The sampled checks run concurrently, one thread per
    usable core, and print the same bytes on any number of cores.

Exit codes: 0 success, 1 validation failure, 2 configuration/usage error.

Config files are plain ``key=value`` lines (``#`` comments and blank
lines ignored; a UTF-8 byte-order mark is skipped).  Recognized keys: the
scenario fields ``M K N_E N_J T alpha2 beta2 snr_e_db snr_l_db``, the
sweep fields ``axis values metrics``, and the run fields ``trials seed
workers output``.  Command line flags override file values.  ``sweep``
and ``bounds`` answer every quantity from a known law (`laws.ExactFirst`,
which holds no run) and draw nothing, so their output depends only on the
scenario.  They still accept ``--trials``, ``--seed`` and ``--workers``
and the config keys ``trials``, ``seed`` and ``workers`` until the
benchmark stops passing them: each value given (flag, else config key) is
checked by the package's run rule, `laws._check_run_args`, and a bad one
is rejected before any output, but none selects anything and none is
printed.  Neither command, nor ``plan``, loads the sampler
(`anleak.montecarlo`, `anleak.linalg`): only the validation suite imports
it.  A closed stdout (``anleak bounds cfg | head -1``) ends the command
with exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import special
from .bounds import (
    entropy_gap,
    ergodic_highsnr,
    joint_secrecy,
    noncoherent_bounds,
    partial_coherent_bounds,
    require_applicable,
    stream_secrecy,
    universal_upper,
)
from .channel import (
    SystemConfig,
    _check_distribution_run,
    _transmit_power_parts,
    balanced_config,
    check_effective_distributions,
    exact_transmit_power,
    single_stream_view,
)
from .errors import ConfigError, NotApplicable
from .laws import _LN2, ExactFirst, McEstimate, SvKind, _check_run_args, _sv_args

__all__ = [
    "METRICS",
    "AXES",
    "SweepSpec",
    "SweepRow",
    "parse_config_file",
    "build_sweep_spec",
    "run_sweep",
    "write_sweep_csv",
    "CheckResult",
    "ValidationReport",
    "run_validation",
    "main",
]

METRICS = (
    "ergodic",
    "noncoh_lb",
    "noncoh_ub",
    "partial_lb",
    "partial_ub",
    "universal",
    "secrecy_su",
    "secrecy_mu",
)

AXES = ("snr_e_db", "T_gamma", "N_E", "N_J")

_CONFIG_KEYS = frozenset(
    {
        "M",
        "K",
        "N_E",
        "N_J",
        "T",
        "alpha2",
        "beta2",
        "snr_e_db",
        "snr_l_db",
        "axis",
        "values",
        "metrics",
        "trials",
        "seed",
        "workers",
        "output",
    }
)


@dataclass(frozen=True)
class SweepSpec:
    """A fully-resolved sweep request: the scenario, the axis and its
    values, and the metrics.  It holds no run, since a sweep draws nothing."""

    cfg: SystemConfig
    axis: str
    values: tuple[float, ...]
    metrics: tuple[str, ...]


@dataclass(frozen=True)
class SweepRow:
    """One CSV row: metric evaluated at one axis value.

    ``value``/``std_error`` are None when the metric's precondition fails
    at this point; ``reason`` then carries a stable reason code.
    """

    axis_value: float
    metric: str
    value: float | None
    std_error: float | None
    reason: str = ""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def parse_config_file(path: str) -> dict[str, str]:
    """Read a key=value config file into a dict (strict keys, no dupes)."""
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = _split_entry(line, f"{path}:{lineno}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _split_entry(item: str, where: str) -> tuple[str, str]:
    """``(key, value)`` of one ``key=value`` entry whose key is known;
    ``where`` prefixes the `ConfigError` message."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    key, _, value = item.partition("=")
    key = key.strip()
    if key not in _CONFIG_KEYS:
        raise ConfigError(
            f"{where}: unknown key {key!r} (known: {', '.join(sorted(_CONFIG_KEYS))})"
        )
    return key, value.strip()


def _get_int(entries: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(entries[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {entries[key]!r}") from exc


def _get_float(
    entries: dict[str, str], key: str, default: float | None = None
) -> float | None:
    if key not in entries:
        return default
    try:
        return float(entries[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {entries[key]!r}") from exc


def build_system_config(entries: dict[str, str]) -> SystemConfig:
    """Build a power-balanced configuration from config entries."""
    try:
        return balanced_config(
            M=_get_int(entries, "M"),
            K=_get_int(entries, "K"),
            N_E=_get_int(entries, "N_E"),
            N_J=_get_int(entries, "N_J"),
            T=_get_int(entries, "T"),
            alpha2=_get_float(entries, "alpha2"),
            beta2=_get_float(entries, "beta2"),
            snr_e_db=_get_float(entries, "snr_e_db", 30.0),
            snr_l_db=_get_float(entries, "snr_l_db", 30.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_sweep_spec(
    entries: dict[str, str],
    *,
    trials: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> SweepSpec:
    """Resolve a sweep spec from config entries.  ``trials``, ``seed`` and
    ``workers`` are only checked (`_check_run`)."""
    cfg = build_system_config(entries)
    axis = entries.get("axis")
    if axis is None:
        raise ConfigError("missing required key 'axis'")
    if axis not in AXES:
        raise ConfigError(f"unknown axis {axis!r} (known: {', '.join(AXES)})")
    if "values" not in entries:
        raise ConfigError("missing required key 'values'")
    try:
        values = tuple(float(v) for v in entries["values"].split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"key 'values': {exc}") from exc
    if not values:
        raise ConfigError("key 'values': need at least one value")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"axis {axis}: values must be finite")
    if axis in ("N_E", "N_J") and any(not v.is_integer() or v < 0 for v in values):
        raise ConfigError(f"axis {axis}: values must be nonnegative integers")
    metrics_str = entries.get("metrics", ",".join(METRICS))
    metrics = tuple(m.strip() for m in metrics_str.split(",") if m.strip())
    for m in metrics:
        if m not in METRICS:
            raise ConfigError(f"unknown metric {m!r} (known: {', '.join(METRICS)})")
    if not metrics:
        raise ConfigError("key 'metrics': need at least one metric")

    _check_run(entries, trials=trials, seed=seed, workers=workers)
    return SweepSpec(cfg, axis, values, metrics)


def _check_run(entries: dict[str, str], **flags: int | None) -> None:
    """Check the run that ``sweep`` and ``bounds`` accept but never use.

    Each of ``trials``, ``seed`` and ``workers`` given (its flag, else its
    config key) must pass the run rule, `laws._check_run_args`, whose
    message a bad value raises as a `ConfigError`; an absent one stands in
    as the rule's least valid value.  Nothing is kept: neither command
    draws.
    """
    least = {"trials": 2, "seed": 0, "workers": 1}
    run = {
        key: _get_int(entries, key, low) if flags[key] is None else flags[key]
        for key, low in least.items()
    }
    try:
        _check_run_args(**run)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Metric evaluation
# ---------------------------------------------------------------------------


class _Point:
    """One configuration's regime results, each built at most once.

    ``sweep`` and ``bounds`` evaluate through it, with `ExactFirst`, and
    `evaluate_metric`; a regime that does not apply keeps the reason code
    of the `NotApplicable` its `anleak.bounds` function raised.
    """

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        self.mc = ExactFirst()
        self.regime = functools.cache(self._build)

    def _build(self, name: str) -> tuple:
        """``(result, "")`` or ``(None, reason)`` for ``noncoh``, ``noncoh_mu``
        (the single-stream view, under the parent's rules) or ``partial``,
        whose results are `LeakageBounds`, or ``universal`` (`McEstimate`)."""
        cfg, mc = self.cfg, self.mc
        try:
            if name == "partial":
                return partial_coherent_bounds(cfg, mc), ""
            if name == "universal":
                return universal_upper(cfg, mc), ""
            if name == "noncoh_mu":
                require_applicable("noncoherent", cfg)
                cfg = single_stream_view(cfg)
            return noncoherent_bounds(cfg, mc), ""
        except NotApplicable as exc:
            return None, exc.code


# Regime behind each metric but ``ergodic``.
_METRIC_REGIMES = {
    "noncoh_lb": "noncoh",
    "noncoh_ub": "noncoh",
    "partial_lb": "partial",
    "partial_ub": "partial",
    "universal": "universal",
    "secrecy_su": "noncoh",
    "secrecy_mu": "noncoh_mu",
}


def evaluate_metric(point: _Point, metric: str) -> tuple[float | None, float | None, str]:
    """Evaluate one metric at one point: ``(value, std_error, reason)``."""
    cfg = point.cfg
    if metric == "ergodic":
        est = point.mc.ergodic_leakage(cfg)
        return est.mean, est.std_error, ""
    if metric not in _METRIC_REGIMES:
        raise ConfigError(f"unknown metric {metric!r}")
    b, reason = point.regime(_METRIC_REGIMES[metric])
    if reason:
        return None, None, reason
    if metric == "universal":
        return b.mean, b.std_error, ""
    if metric == "secrecy_su":
        return joint_secrecy(cfg, b), b.c_std_error, ""
    if metric == "secrecy_mu":
        return cfg.K * stream_secrecy(cfg, b), cfg.K * b.c_std_error, ""
    which = "lower" if metric.endswith("_lb") else "upper"
    return b.rate_at(cfg.snr_e_db, which), b.c_std_error, ""


def _derive_config(cfg: SystemConfig, axis: str, value: float) -> SystemConfig:
    if axis == "snr_e_db":
        return replace(cfg, snr_e_db=value)
    if axis == "T_gamma":
        return replace(cfg, T=round(value * cfg.M))  # SystemConfig rejects T < 1
    if axis == "N_E":
        return replace(cfg, N_E=int(value))
    if axis == "N_J":
        nj = int(value)
        # A base without noise spends all power on data: no split to keep.
        alpha2 = cfg.alpha2 if nj and cfg.N_J else None
        snrs = dict(snr_e_db=cfg.snr_e_db, snr_l_db=cfg.snr_l_db)
        return balanced_config(cfg.M, cfg.K, cfg.N_E, nj, cfg.T, alpha2=alpha2, **snrs)
    raise ConfigError(f"unknown axis {axis!r}")


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every (axis value, metric) cell, in the given order."""
    rows: list[SweepRow] = []
    for value in spec.values:
        try:
            cfg = _derive_config(spec.cfg, spec.axis, value)
        except ValueError:
            rows.extend(
                SweepRow(value, m, None, None, "invalid_config") for m in spec.metrics
            )
            continue
        point = _Point(cfg)
        for metric in spec.metrics:
            val, se, reason = evaluate_metric(point, metric)
            rows.append(SweepRow(value, metric, val, se, reason))
    return rows


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.9g}"


def write_sweep_csv(spec: SweepSpec, rows: list[SweepRow], stream) -> None:
    """Write the sweep CSV (LF line endings, 9 significant digits) after a
    ``# anleak sweep`` line.  No run is echoed: a sweep draws nothing."""
    stream.write("# anleak sweep\n")
    stream.write("axis,metric,value,std_error,reason\n")
    for row in rows:
        stream.write(
            f"{row.axis_value:.9g},{row.metric},{_fmt(row.value)},"
            f"{_fmt(row.std_error)},{row.reason}\n"
        )


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ergodic-slope's trial count at every --trials: 16 batches.  With its two
# control variates it passed seeds 0-599 at 256 trials (bands < 0.001 bit);
# at 128 one seed of the 600 failed.
_SLOPE_TRIALS = 256


def run_validation(seed: int = 0, trials: int = 4000) -> ValidationReport:
    """Statistical and identity self-checks of the numerical core.

    ``trials`` is the distribution check's count, and the wishart,
    transmit-power and split checks scale theirs from it; ergodic-slope
    draws its fixed ``_SLOPE_TRIALS`` at every ``trials``.  Every
    statistical threshold scales as ``1/sqrt(n)`` or is an N-sigma band,
    so reduced-trial runs stay meaningful.  The two closed-form checks run
    first; the five sampled ones then run on a pool of one thread per
    usable core (at most five), the longest started first.  Each draws its
    own seeded stream, and the report keeps its fixed order, so no result
    depends on the core count.
    """
    # The sampler loads here, on the main thread before the pool starts, so
    # no pool thread is the first to import it; no other command loads it.
    from .montecarlo import _in_order, _usable_cores

    _check_distribution_run(trials, seed)  # before any sampled check
    scale = trials / 4000.0
    sampled = [  # in report order; each draws its own stream
        functools.partial(_check_wishart_identity, seed, max(1000, int(30000 * scale))),
        functools.partial(_check_power_identity, seed, max(200, int(1500 * scale))),
        functools.partial(_check_effective_distributions, seed, trials),
        functools.partial(_check_ergodic_slope, seed, _SLOPE_TRIALS),
        functools.partial(_check_sv_split, seed, max(10, int(40 * scale))),
    ]
    threads = min(len(sampled), _usable_cores())
    # Longest first, by their times run alone (2-vCPU Xeon, one-thread BLAS,
    # stream 2) at default trials: effective-distributions 2.0-2.6 s,
    # wishart-identity 0.37-0.39 s, ergodic-slope 0.31 s, transmit-power
    # 0.16 s, sv-split 0.09-0.12 s.  Even so ergodic-slope starts second:
    # at --trials 400 it (0.34 s) is as long as effective-distributions
    # (0.33 s) and the others take 0.03-0.04 s, while at default trials
    # both orders end long before effective-distributions.
    longest_first = (2, 3, 0, 1, 4)
    checks = [_check_digamma_recurrence(), _check_volume_symmetry()]
    checks += _in_order(lambda check: check(), sampled, threads, start=longest_first)
    return ValidationReport(tuple(checks))


def _check_digamma_recurrence() -> CheckResult:
    xs = np.linspace(0.1, 50.0, 499)
    dev = max(
        abs(special.digamma(x + 1.0) - special.digamma(x) - 1.0 / x) for x in xs
    )
    ok = bool(dev <= 1e-11)  # dev is a numpy float
    return CheckResult(
        "digamma-recurrence", ok, f"max |psi(x+1)-psi(x)-1/x| = {dev:.3e}"
    )


def _check_volume_symmetry() -> CheckResult:
    dev = max(
        abs(special.log_grassmann_volume(t, m) - special.log_grassmann_volume(t, t - m))
        for t in (2, 3, 5, 8, 13, 21, 64)
        for m in range(t + 1)
    )
    frozen = abs(special.log_stiefel_volume(1, 1) - math.log(2 * math.pi))
    ok = dev <= 1e-10 and frozen <= 1e-12
    return CheckResult(
        "grassmann-symmetry", ok, f"max asymmetry {dev:.3e}, anchor dev {frozen:.3e}"
    )


def _within_4se(label: str, pairs: list[tuple[McEstimate, float]]) -> tuple[bool, str]:
    """The rule of every sampled check: each estimate's mean lies within 4 SE
    of its exact value.  Returns whether all do, and the detail
    ``|mc - LABEL| = dev, ..., 4*SE = band, ...``, each number to 3
    significant digits (so a band of 0.0003 does not print as 0)."""
    devs = [abs(est.mean - exact) for est, exact in pairs]
    bands = [4.0 * est.std_error for est, _ in pairs]
    ok = all(dev <= band for dev, band in zip(devs, bands))
    devs_text, bands_text = (", ".join(f"{x:.3g}" for x in xs) for xs in (devs, bands))
    return ok, f"|mc - {label}| = {devs_text}, 4*SE = {bands_text}"


def _check_wishart_identity(seed: int, trials: int) -> CheckResult:
    """``E sum ln lambda(H H^H)`` of a 4 x 8 CN(0, 1) block ``H`` within
    4 SE of its digamma sum, on `expected_log_sv_sum`'s ``DATA`` stream.

    Each trial's ``f = sum ln lambda`` less an exact mean-zero control,
    `_bartlett_control`, is averaged.  The control's coefficients and means
    are fixed numbers that read no digamma, so a biased `special.digamma`
    still fails this check.  Trials that the degeneracy guard flags are
    NaN in ``f``, so they are excluded once.
    """
    from .linalg import squared_singular_values
    from .montecarlo import _log_sv_values, _product, _run_trials, _summarize

    cfg = SystemConfig(M=16, K=8, N_E=4, N_J=0, T=16, alpha2=1.0, beta2=0.0)
    args = _sv_args(SvKind.DATA, cfg)

    def reduce(h: np.ndarray) -> np.ndarray:
        return _log_sv_values(squared_singular_values(h)) - _bartlett_control(h)

    batches = _run_trials(SvKind.DATA.value, _product, args, reduce, trials, seed)
    est = _summarize(batches)
    target = ExactFirst().log_sv_sum(SvKind.DATA, cfg).mean
    ok, detail = _within_4se("closed form", [(est, target)])
    return CheckResult("wishart-identity", ok, f"trials={trials}, control=bartlett, {detail}")


def _bartlett_control(h: np.ndarray) -> np.ndarray:
    """Per-trial mean-zero control of ``sum ln lambda(H H^H)`` for stacked
    wide blocks ``H`` (``m x n``, ``m <= n``), in nats.

    With ``H^H = Q R``, ``H H^H = R^H R``, and by Bartlett (Goodman 1963)
    the ``x_j = |R_jj|^2`` are independent ``Gamma(k_j)``, ``k_j = n - j``
    for ``j`` from 0, with ``sum ln x_j`` the log-determinant.  Each ``ln x_j`` is regressed
    on ``x_j - k`` and ``(x_j - k)^2 - k``, both of mean 0, with the exact
    coefficients ``b1 = (k + 2) / (k (k + 1))`` and ``b2 = -1 / (2 k (k +
    1))``: they follow from ``Cov(ln X, X) = Cov(ln X, (X - k)^2) = 1``,
    ``Var X = k``, ``Cov(X, (X - k)^2) = 2k`` and ``Var (X - k)^2 = 2k^2 +
    6k``.  Glasserman (2003, ch. 4) for control variates.
    """
    r = np.linalg.qr(h.conj().swapaxes(-1, -2), mode="r")
    x = np.abs(np.diagonal(r, axis1=-2, axis2=-1)) ** 2
    k = h.shape[-1] - np.arange(h.shape[-2])
    b1, b2 = (k + 2) / (k * (k + 1)), -1.0 / (2 * k * (k + 1))
    return np.sum(b1 * (x - k) + b2 * ((x - k) ** 2 - k), axis=-1)


def _check_power_identity(seed: int, trials: int) -> CheckResult:
    """The mean transmit power per symbol within 4 SE of its closed form.

    Each trial's power less ``alpha2 (|S|^2/n - K) + beta2 (|N|^2/n -
    N_J)`` is averaged, ``S`` and ``N`` its data and noise symbols over
    ``n`` symbols: both controls have exact means, and the noise part
    cancels, since the precoder's columns are orthogonal to the orthonormal
    noise basis ``V`` and ``|V N| = |N|``.  So a basis that is not
    orthonormal still moves the mean.  The coefficients are the powers,
    so no control reads `exact_transmit_power`.
    """
    from .montecarlo import _summarize

    cfg = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8)
    power, data, noise = _transmit_power_parts(cfg, trials, seed)
    controlled = power - cfg.alpha2 * (data - cfg.K) - cfg.beta2 * (noise - cfg.N_J)
    est = _summarize([controlled])
    ok, detail = _within_4se("closed form", [(est, exact_transmit_power(cfg))])
    return CheckResult("transmit-power", ok, f"trials={trials}, control=symbols, {detail}")


def _check_effective_distributions(seed: int, trials: int) -> CheckResult:
    cfg = balanced_config(M=64, K=16, N_E=64, N_J=48, T=320)
    report = check_effective_distributions(cfg, trials=trials, seed=seed)
    detail = (
        f"corr {report.max_abs_corr:.4f}/{report.corr_threshold:.4f}, "
        f"KS {report.ks_stat:.4f}/{report.ks_threshold:.4f}"
    )
    if report.failures:
        detail = "; ".join(report.failures)
    return CheckResult("effective-distributions", report.passed, f"trials={trials}, {detail}")


def _check_ergodic_slope(seed: int, trials: int) -> CheckResult:
    """The flagship ergodic leakage at 40 and 43 dB: each within 4 SE of its
    one-power Laguerre law, and their slope within 0.15 of the dof.

    Both leakages read one ergodic draw.  Each is the mean over trials of
    ``y = f - (c - E c) - (h - E h)``, in bits: ``f`` the trial's leakage,
    ``c`` its high-SNR constant (`montecarlo._ergodic_constant_values`)
    and ``h = log2(1 + s2 / lambda_min(Gbar))``.  ``Gbar`` is square with
    unit powers, so ``N_E lambda_min`` is exactly ``Exp(1)`` (Edelman
    1988); ``E h`` is `special._log1p_over_exp_mean` at ``a = N_E s2`` and
    ``E c`` is `ExactFirst.ergodic_constant`, digamma sums.  Without ``h``
    the rare tiny ``lambda_min`` leaves the residual so skewed (skewness
    17 at 40 dB, 24 at 43 dB) that a 4-SE band misfires.  Neither mean
    reads the Laguerre law, so a biased law fails this check, and so does
    a biased `special.digamma`, through ``E c``.  Trials that the
    degeneracy guard flags are NaN in ``c``, so ``y`` excludes them once.
    """
    from .montecarlo import MonteCarlo

    cfg = balanced_config(M=64, K=16, N_E=64, N_J=48, T=320)
    assert cfg.N_E == cfg.mbar and cfg.alpha2 == cfg.beta2 == 1.0  # square, unit power
    law = ExactFirst()
    spectra = MonteCarlo(trials=trials, seed=seed)._ergodic_spectra(cfg)
    c_mean = law.ergodic_constant(cfg).mean
    points = [replace(cfg, snr_e_db=snr) for snr in (40.0, 43.0)]
    lo, hi = (_ergodic_controlled(spectra, at.sigma_z2, c_mean) for at in points)
    exact = [law.ergodic_leakage(at).mean for at in points]
    on_law, detail = _within_4se("law", list(zip((lo, hi), exact)))
    slope = (hi.mean - lo.mean) / (0.3 * math.log2(10.0))
    expected = ergodic_highsnr(cfg, law).dof
    return CheckResult(
        "ergodic-slope",
        abs(slope - expected) <= 0.15 and on_law,
        f"trials={trials}, slope {slope:.3f} vs dof {expected:g}; {detail}",
    )


def _ergodic_controlled(spectra: list, s2: float, c_mean: float) -> McEstimate:
    """`_check_ergodic_slope`'s estimate at noise floor ``s2``: the mean of
    ``y`` over the batches of square ``(sq_full, sq_an)`` spectra."""
    from .montecarlo import _ergodic_constant_values, _ergodic_values, _summarize

    n_e = spectra[0][0].shape[1]
    h_mean = special._log1p_over_exp_mean(n_e * s2) / _LN2
    return _summarize([
        _ergodic_values(s2, full, an)
        - (_ergodic_constant_values(full, an) - c_mean)
        - (np.log1p(s2 / full[:, -1]) / _LN2 - h_mean)
        for full, an in spectra
    ])


def _check_sv_split(seed: int, trials: int) -> CheckResult:
    from .montecarlo import sv_split_check

    cfg = balanced_config(M=64, K=16, N_E=64, N_J=48, T=128, snr_e_db=80.0)
    report = sv_split_check(cfg, trials=trials, seed=seed)
    return CheckResult(
        "sv-split",
        report.top_rel_dev_median <= 1e-3,
        f"trials={trials}, median rel dev {report.top_rel_dev_median:.2e}",
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _apply_overrides(entries: dict[str, str], overrides: list[str]) -> dict[str, str]:
    out = dict(entries)
    for item in overrides or []:
        key, value = _split_entry(item, "--set")
        out[key] = value
    return out


def _cmd_sweep(args) -> int:
    entries = _apply_overrides(parse_config_file(args.config), args.set)
    if args.output is None and "output" in entries:
        args.output = entries["output"]
    spec = build_sweep_spec(
        entries, trials=args.trials, seed=args.seed, workers=args.workers
    )
    try:  # before evaluating, so a bad path costs no sweep
        fh = open(args.output, "w", encoding="utf-8", newline="") if args.output else None
    except OSError as exc:
        raise ConfigError(f"cannot write {args.output!r}: {exc}") from exc
    with fh or contextlib.nullcontext(sys.stdout) as out:
        write_sweep_csv(spec, run_sweep(spec), out)
    return 0


def _cmd_bounds(args) -> int:
    entries = _apply_overrides(parse_config_file(args.config), args.set)
    cfg = build_system_config(entries)
    _check_run(entries, trials=args.trials, seed=args.seed, workers=args.workers)
    point = _Point(cfg)

    def report(metric: str, key: str = "", with_se: bool = False) -> None:
        key = key or metric
        value, se, reason = evaluate_metric(point, metric)
        if reason:
            print(f"{key}_skipped={reason}")
            return
        print(f"{key}={value:.9g}")
        if with_se:
            print(f"{key}_se={se:.9g}")

    print("# anleak bounds")
    print(f"# config M={cfg.M} K={cfg.K} N_E={cfg.N_E} N_J={cfg.N_J} T={cfg.T}")
    print(f"alpha2={cfg.alpha2:.9g}")
    print(f"beta2={cfg.beta2:.9g}")
    print(f"t_prime={cfg.t_prime}")
    print(f"exact_transmit_power={exact_transmit_power(cfg):.9g}")
    erg = ergodic_highsnr(cfg, point.mc)
    print(f"ergodic_dof={erg.dof:.9g}")
    print(f"ergodic_constant={erg.c_upper:.9g}")
    report("ergodic", "ergodic_leakage", with_se=True)
    for regime in ("noncoh", "partial"):
        b, reason = point.regime(regime)
        if reason:
            print(f"{regime}_skipped={reason}")
            continue
        print(f"{regime}_dof={b.dof:.9g}")
        print(f"{regime}_c_lower={b.c_lower:.9g}")
        print(f"{regime}_c_upper={b.c_upper:.9g}")
        print(f"{regime}_c_se={b.c_std_error:.9g}")
        report(f"{regime}_lb")
        report(f"{regime}_ub")
    report("universal", with_se=True)
    report("secrecy_su")
    report("secrecy_mu")
    with contextlib.suppress(NotApplicable):
        print(f"entropy_gap={entropy_gap(cfg):.9g}")
    return 0


def _cmd_plan(args) -> int:
    from .planner import (  # here, not at import: only plan needs it
        DEFAULT_SYMBOL_DURATION,
        DeploymentParams,
        coherence_symbols,
        coherence_time,
        doppler_shift,
        required_antennas,
    )

    duration = args.symbol_duration_s
    params = DeploymentParams(
        carrier_hz=args.carrier_hz,
        speed_mps=args.speed_mps,
        symbol_duration_s=DEFAULT_SYMBOL_DURATION if duration is None else duration,
    )
    antennas = required_antennas(params)  # raises before anything is printed
    print(f"doppler_hz={doppler_shift(params):.9g}")
    print(f"coherence_time_s={coherence_time(params):.9g}")
    print(f"coherence_symbols={coherence_symbols(params):.9g}")
    print(f"required_antennas={antennas}")
    return 0


def _cmd_validate(args) -> int:
    from .montecarlo import _STREAM

    report = run_validation(seed=args.seed, trials=args.trials)
    print(f"# anleak validate stream={_STREAM} trials={args.trials} seed={args.seed}")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"check {check.name}: {status} ({check.detail})")
    n_fail = sum(not c.passed for c in report.checks)
    if n_fail:
        print(f"{n_fail} of {len(report.checks)} checks failed")
        return 1
    print(f"all {len(report.checks)} checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anleak",
        description="Leakage bounds for artificial-noise massive-MIMO downlinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)  # shared by sweep and bounds
    run.add_argument("config", help="key=value config file")
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a config entry"
    )

    p_sweep = sub.add_parser(
        "sweep", parents=[run], help="evaluate metrics along an axis, write CSV"
    )
    p_sweep.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser(
        "bounds", parents=[run], help="single-point evaluation of all regimes"
    )
    p_bounds.set_defaults(func=_cmd_bounds)

    p_plan = sub.add_parser("plan", help="antennas needed to saturate coherence blocks")
    p_plan.add_argument("--carrier-hz", type=float, required=True)
    p_plan.add_argument("--speed-mps", type=float, required=True)
    p_plan.add_argument("--symbol-duration-s", type=float, default=None)
    p_plan.set_defaults(func=_cmd_plan)

    p_val = sub.add_parser("validate", help="run statistical self-checks")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--trials", type=int, default=4000)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return code
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull, so the interpreter's
        # flush at exit does not raise again, and fail without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
