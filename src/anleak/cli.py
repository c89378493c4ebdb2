"""Command-line interface: sweeps, single-point bounds, planning, validation.

Subcommands
-----------
``sweep``
    Read a key=value config file describing a scenario, an axis to sweep
    and a list of metrics; write one CSV with a row per (axis value,
    metric).  Output is byte-identical for equal (config, seed) no matter
    how many workers run the sampling.
``bounds``
    Evaluate every regime at a single configuration and print
    ``key=value`` lines after a ``# anleak bounds trials=N
    trials_source=S seed=N`` header.  It reads the same point evaluator
    as ``sweep``, so a regime whose rule fails prints ``KEY_skipped=CODE``
    with the code of the `NotApplicable` that `anleak.bounds` raised.
``plan``
    Antenna planning from carrier frequency and user speed.
``validate``
    Run the built-in statistical self-checks; exit 1 if any fails.

Exit codes: 0 success, 1 validation failure, 2 configuration/usage error.

Config files are plain ``key=value`` lines (``#`` comments and blank
lines ignored).  Recognized keys: the scenario fields ``M K N_E N_J T
alpha2 beta2 snr_e_db snr_l_db``, the sweep fields ``axis values
metrics``, and the run fields ``trials seed workers output``.  Command
line flags override file values.  For ``sweep`` and ``bounds`` the trial
count comes from ``--trials``, else the config file, else the environment
variable ``ANLEAK_TRIALS``, else the command's default (2000 for
``sweep``, 20000 for ``bounds``); the chosen value and its source are
echoed in the leading comment line.  Bad trials, seed or workers values
are rejected before any output.
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
    average_transmit_power,
    balanced_config,
    check_effective_distributions,
    exact_transmit_power,
    single_stream_view,
)
from .errors import ConfigError, NotApplicable
from .montecarlo import (
    ExactFirst,
    MonteCarlo,
    SvKind,
    _check_run_args,
    expected_log_sv_sum,
    sv_split_check,
)
from .planner import (
    DEFAULT_SYMBOL_DURATION,
    DeploymentParams,
    coherence_symbols,
    coherence_time,
    doppler_shift,
    required_antennas,
)

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

DEFAULT_SWEEP_TRIALS = 2000
DEFAULT_POINT_TRIALS = 20000
TRIALS_ENV_VAR = "ANLEAK_TRIALS"

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
    """A fully-resolved sweep request."""

    cfg: SystemConfig
    axis: str
    values: tuple[float, ...]
    metrics: tuple[str, ...]
    trials: int
    seed: int
    workers: int = 1
    trials_source: str = "default"


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
        with open(path, encoding="utf-8") as fh:
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
    """Resolve a sweep spec from config entries plus flag overrides."""
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
    if axis in ("N_E", "N_J") and any(not v.is_integer() or v < 0 for v in values):
        raise ConfigError(f"axis {axis}: values must be nonnegative integers")
    metrics_str = entries.get("metrics", ",".join(METRICS))
    metrics = tuple(m.strip() for m in metrics_str.split(",") if m.strip())
    for m in metrics:
        if m not in METRICS:
            raise ConfigError(f"unknown metric {m!r} (known: {', '.join(METRICS)})")
    if not metrics:
        raise ConfigError("key 'metrics': need at least one metric")

    resolved_trials, source, resolved_seed, resolved_workers = _resolve_run_args(
        entries, trials, seed, workers, DEFAULT_SWEEP_TRIALS
    )
    return SweepSpec(
        cfg=cfg,
        axis=axis,
        values=values,
        metrics=metrics,
        trials=resolved_trials,
        seed=resolved_seed,
        workers=resolved_workers,
        trials_source=source,
    )


def _resolve_run_args(
    entries: dict[str, str],
    trials: int | None,
    seed: int | None,
    workers: int | None,
    default_trials: int,
) -> tuple[int, str, int, int]:
    """Resolve ``(trials, trials_source, seed, workers)`` for a command.

    Each value comes from its flag, else the config file; trials then fall
    back to ``ANLEAK_TRIALS`` and the command's default.  Values that break
    `montecarlo`'s run rule raise its message as a `ConfigError`.
    """
    if trials is not None:
        resolved_trials, source = trials, "flag"
    elif "trials" in entries:
        resolved_trials, source = _get_int(entries, "trials"), "config"
    elif os.environ.get(TRIALS_ENV_VAR):
        try:
            resolved_trials = int(os.environ[TRIALS_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(
                f"environment variable {TRIALS_ENV_VAR} is not an integer"
            ) from exc
        source = f"env:{TRIALS_ENV_VAR}"
    else:
        resolved_trials, source = default_trials, "default"
    resolved_seed = seed if seed is not None else _get_int(entries, "seed", 0)
    resolved_workers = workers if workers is not None else _get_int(entries, "workers", 1)
    try:
        _check_run_args(resolved_trials, resolved_seed, resolved_workers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return resolved_trials, source, resolved_seed, resolved_workers


# ---------------------------------------------------------------------------
# Metric evaluation
# ---------------------------------------------------------------------------


class _Point:
    """One configuration's regime results, each built at most once.

    Both ``sweep`` and ``bounds`` evaluate through this class and
    `evaluate_metric`; a regime that does not apply keeps the reason code
    of the `NotApplicable` its `anleak.bounds` function raised.
    """

    def __init__(self, cfg: SystemConfig, mc: MonteCarlo):
        self.cfg = cfg
        self.mc = mc
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
                return universal_upper(cfg, cfg.snr_e_db, mc), ""
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
        est = point.mc.ergodic_leakage(cfg, cfg.sigma_z2)
        return est.mean, est.std_error, ""
    if metric not in _METRIC_REGIMES:
        raise ConfigError(f"unknown metric {metric!r}")
    b, reason = point.regime(_METRIC_REGIMES[metric])
    if reason:
        return None, None, reason
    if metric == "universal":
        return b.mean, b.std_error, ""
    snrs = cfg.snr_e_db, cfg.snr_l_db
    if metric == "secrecy_su":
        return joint_secrecy(cfg, b, *snrs), b.c_std_error, ""
    if metric == "secrecy_mu":
        return cfg.K * stream_secrecy(cfg, b, *snrs), cfg.K * b.c_std_error, ""
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
    mc = ExactFirst(trials=spec.trials, seed=spec.seed, workers=spec.workers)
    rows: list[SweepRow] = []
    for value in spec.values:
        try:
            cfg = _derive_config(spec.cfg, spec.axis, value)
        except ValueError:
            rows.extend(
                SweepRow(value, m, None, None, "invalid_config") for m in spec.metrics
            )
            continue
        point = _Point(cfg, mc)
        for metric in spec.metrics:
            val, se, reason = evaluate_metric(point, metric)
            rows.append(SweepRow(value, metric, val, se, reason))
    return rows


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.9g}"


def write_sweep_csv(spec: SweepSpec, rows: list[SweepRow], stream) -> None:
    """Write the sweep CSV (LF line endings, 9 significant digits).

    The worker count is deliberately not echoed: output bytes depend only
    on the spec's deterministic fields and the seed.
    """
    stream.write(
        f"# anleak sweep trials={spec.trials} "
        f"trials_source={spec.trials_source} seed={spec.seed}\n"
    )
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


def run_validation(seed: int = 0, trials: int | None = None) -> ValidationReport:
    """Statistical and identity self-checks of the numerical core.

    ``trials`` scales the whole suite (default 4000 for the distribution
    check); every statistical threshold scales as ``1/sqrt(n)`` or is an
    N-sigma band, so reduced-trial runs stay meaningful.
    """
    base = 4000 if trials is None else trials
    _check_distribution_run(base, seed)  # before any sampled check
    scale = base / 4000.0
    checks = [
        _check_digamma_recurrence(),
        _check_volume_symmetry(),
        _check_wishart_identity(seed, max(1000, int(30000 * scale))),
        _check_power_identity(seed, max(200, int(1500 * scale))),
        _check_effective_distributions(seed, base),
        _check_ergodic_slope(seed, max(500, int(4000 * scale))),
        _check_sv_split(seed, max(10, int(40 * scale))),
    ]
    return ValidationReport(tuple(checks))


def _check_digamma_recurrence() -> CheckResult:
    xs = np.linspace(0.1, 50.0, 499)
    dev = max(
        abs(special.digamma(x + 1.0) - special.digamma(x) - 1.0 / x) for x in xs
    )
    ok = dev <= 1e-11
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


def _check_wishart_identity(seed: int, trials: int) -> CheckResult:
    cfg = SystemConfig(M=16, K=8, N_E=4, N_J=0, T=16, alpha2=1.0, beta2=0.0)
    est = expected_log_sv_sum(SvKind.DATA, cfg, trials=trials, seed=seed)
    target = ExactFirst(trials=trials, seed=seed).log_sv_sum(SvKind.DATA, cfg).mean
    dev = abs(est.mean - target)
    band = 4.0 * est.std_error
    return CheckResult(
        "wishart-identity",
        dev <= band,
        f"|mc - closed form| = {dev:.4f}, 4*SE = {band:.4f}",
    )


def _check_power_identity(seed: int, trials: int) -> CheckResult:
    cfg = balanced_config(M=12, K=3, N_E=2, N_J=4, T=8)
    mean, se = average_transmit_power(cfg, trials=trials, seed=seed)
    target = exact_transmit_power(cfg)
    dev = abs(mean - target)
    band = 4.0 * se
    return CheckResult(
        "transmit-power",
        dev <= band,
        f"mc {mean:.4f} vs exact {target:.4f}, 4*SE = {band:.4f}",
    )


def _check_effective_distributions(seed: int, trials: int) -> CheckResult:
    cfg = balanced_config(M=64, K=16, N_E=64, N_J=48, T=320)
    report = check_effective_distributions(cfg, trials=trials, seed=seed)
    detail = (
        f"corr {report.max_abs_corr:.4f}/{report.corr_threshold:.4f}, "
        f"KS {report.ks_stat:.4f}/{report.ks_threshold:.4f}"
    )
    if report.failures:
        detail = "; ".join(report.failures)
    return CheckResult("effective-distributions", report.passed, detail)


def _check_ergodic_slope(seed: int, trials: int) -> CheckResult:
    cfg = balanced_config(M=64, K=16, N_E=64, N_J=48, T=320)
    mc = MonteCarlo(trials=trials, seed=seed)  # one draw for both noise floors
    lo = mc.ergodic_leakage(cfg, 10.0 ** (-4.0))
    hi = mc.ergodic_leakage(cfg, 10.0 ** (-4.3))
    slope = (hi.mean - lo.mean) / (0.3 * math.log2(10.0))
    expected = min(max(cfg.N_E - cfg.N_J, 0), cfg.K)
    dev = abs(slope - expected)
    return CheckResult(
        "ergodic-slope", dev <= 0.15, f"slope {slope:.3f} vs dof {expected}"
    )


def _check_sv_split(seed: int, trials: int) -> CheckResult:
    cfg = balanced_config(M=64, K=16, N_E=64, N_J=48, T=128)
    report = sv_split_check(cfg, 1e-8, trials=trials, seed=seed)
    return CheckResult(
        "sv-split",
        report.top_rel_dev_median <= 1e-3,
        f"median rel dev {report.top_rel_dev_median:.2e}",
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
    try:  # before sampling, so a bad path costs no sweep
        fh = open(args.output, "w", encoding="utf-8", newline="") if args.output else None
    except OSError as exc:
        raise ConfigError(f"cannot write {args.output!r}: {exc}") from exc
    with fh or contextlib.nullcontext(sys.stdout) as out:
        write_sweep_csv(spec, run_sweep(spec), out)
    return 0


def _cmd_bounds(args) -> int:
    entries = _apply_overrides(parse_config_file(args.config), args.set)
    cfg = build_system_config(entries)
    trials, source, seed, workers = _resolve_run_args(
        entries, args.trials, args.seed, args.workers, DEFAULT_POINT_TRIALS
    )
    mc = ExactFirst(trials=trials, seed=seed, workers=workers)
    point = _Point(cfg, mc)

    def report(metric: str, key: str = "", with_se: bool = False) -> None:
        key = key or metric
        value, se, reason = evaluate_metric(point, metric)
        if reason:
            print(f"{key}_skipped={reason}")
            return
        print(f"{key}={value:.9g}")
        if with_se:
            print(f"{key}_se={se:.9g}")

    print(f"# anleak bounds trials={trials} trials_source={source} seed={seed}")
    print(f"# config M={cfg.M} K={cfg.K} N_E={cfg.N_E} N_J={cfg.N_J} T={cfg.T}")
    print(f"alpha2={cfg.alpha2:.9g}")
    print(f"beta2={cfg.beta2:.9g}")
    print(f"t_prime={cfg.t_prime}")
    print(f"exact_transmit_power={exact_transmit_power(cfg):.9g}")
    erg = ergodic_highsnr(cfg, mc)
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
    params = DeploymentParams(
        carrier_hz=args.carrier_hz,
        speed_mps=args.speed_mps,
        symbol_duration_s=args.symbol_duration_s,
    )
    print(f"doppler_hz={doppler_shift(params):.9g}")
    print(f"coherence_time_s={coherence_time(params):.9g}")
    print(f"coherence_symbols={coherence_symbols(params):.9g}")
    print(f"required_antennas={required_antennas(params)}")
    return 0


def _cmd_validate(args) -> int:
    report = run_validation(seed=args.seed, trials=args.trials)
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
    p_plan.add_argument(
        "--symbol-duration-s",
        type=float,
        default=DEFAULT_SYMBOL_DURATION,
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_val = sub.add_parser("validate", help="run statistical self-checks")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--trials", type=int, default=None)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
