"""Reference bands behind the benchmark's pass ratio.

An *operation* is one sweep CSV cell, one ``bounds`` value or one
``validate`` check.  It fails when:

* a sampled value lies outside ``|v - v_ref| <= 4 * hypot(se, se_ref)``;
* an exact value differs from the reference by more than its printing
  precision (``1e-8`` relative);
* a skip reason code differs from the reference's;
* a ``validate`` check reports anything but ``PASS``, or is missing;
* the command exited non-zero (every operation of the run fails).

Bytes are never compared with the reference: values may move inside
their bands when the estimators change.  The references were generated
once, at the benchmark's default seed, by ``make_reference.py``.

``bounds`` prints no standard error for ``ergodic_constant`` and
``secrecy_mu``; their reference files carry one computed from the library
at the same trials and seed, and the candidate is assumed to have the
same standard error (band ``4 * sqrt(2) * se_ref``).
"""

from __future__ import annotations

import math
import re

BAND_SIGMAS = 4.0
EXACT_RTOL = 1e-8

_CHECK_RE = re.compile(r"^check (\S+): (\S+)")
_WISHART_SE_RE = re.compile(r"4\*SE = ([-+0-9.eE]+)")
_LN2 = math.log(2.0)


def in_band(value: float, se: float, ref: float, se_ref: float) -> bool:
    """Whether ``value`` agrees with ``ref`` within the comparison band."""
    band = BAND_SIGMAS * math.hypot(se, se_ref) + EXACT_RTOL * abs(ref)
    return abs(value - ref) <= band


# ---------------------------------------------------------------------------
# Parsers (one per command's output format)
# ---------------------------------------------------------------------------


def parse_sweep(text: str) -> dict[tuple[str, str], tuple]:
    """``{(axis, metric): (value|None, se|None, reason)}`` from a sweep CSV."""
    rows = {}
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for line in lines[1:]:
        axis, metric, value, se, reason = line.split(",")
        rows[(axis, metric)] = (
            float(value) if value else None,
            float(se) if se else None,
            reason,
        )
    return rows


def parse_bounds(text: str) -> dict[str, str]:
    """``{key: raw value}`` from ``bounds`` output."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def parse_validate(text: str) -> dict[str, str]:
    """``{check name: status}`` from ``validate`` output."""
    out = {}
    for line in text.splitlines():
        match = _CHECK_RE.match(line)
        if match:
            out[match.group(1)] = match.group(2)
    return out


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def check(ref: dict, text: str, returncode: int) -> tuple[int, int, list[str]]:
    """Compare one command output with its reference.

    Returns ``(attempted, failed, messages)``.
    """
    kind = ref["kind"]
    if kind == "sweep":
        ops = _check_sweep(ref, text)
    elif kind == "bounds":
        ops = _check_bounds(ref, text)
    elif kind == "validate":
        ops = _check_validate(ref, text)
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    if returncode != 0:
        ops = [f"exit code {returncode}: {name}" for name, _ in ops]
        return len(ops), len(ops), ops[:1]
    failures = [msg for _, msg in ops if msg]
    return len(ops), len(failures), failures


def _check_sweep(ref: dict, text: str) -> list[tuple[str, str]]:
    try:
        rows = parse_sweep(text)
    except ValueError:
        rows = {}
    ops = []
    for r in ref["rows"]:
        name = f"{r['axis']},{r['metric']}"
        got = rows.get((r["axis"], r["metric"]))
        if got is None:
            ops.append((name, f"{name}: missing or unparsable row"))
            continue
        value, se, reason = got
        if reason != r["reason"]:
            ops.append((name, f"{name}: reason {reason!r} != {r['reason']!r}"))
        elif r["value"] is None:
            msg = "" if value is None else f"{name}: value for a skipped cell"
            ops.append((name, msg))
        elif value is None or se is None:
            ops.append((name, f"{name}: missing value"))
        elif not in_band(value, se, r["value"], r["se"]):
            ops.append((name, f"{name}: {value} vs ref {r['value']} (se {se}/{r['se']})"))
        else:
            ops.append((name, ""))
    return ops


def _check_bounds(ref: dict, text: str) -> list[tuple[str, str]]:
    got = parse_bounds(text)
    ops = []
    for key, r in ref["values"].items():
        raw = got.get(key)
        if raw is None:
            ops.append((key, f"{key}: missing"))
        elif "reason" in r:
            msg = "" if raw == r["reason"] else f"{key}: {raw!r} != {r['reason']!r}"
            ops.append((key, msg))
        else:
            try:
                value = float(raw)
                se = float(got[r["se_key"]]) if r["se_key"] else r["se"]
            except (KeyError, ValueError) as exc:
                ops.append((key, f"{key}: unreadable value or se ({exc})"))
                continue
            if in_band(value, se, r["value"], r["se"]):
                ops.append((key, ""))
            else:
                ops.append((key, f"{key}: {value} vs ref {r['value']} (se {se}/{r['se']})"))
    return ops


def _check_validate(ref: dict, text: str) -> list[tuple[str, str]]:
    got = parse_validate(text)
    names = list(ref["checks"]) + [n for n in got if n not in ref["checks"]]
    ops = []
    for name in names:
        status = got.get(name, "missing")
        ops.append((name, "" if status == "PASS" else f"{name}: {status}"))
    return ops


# ---------------------------------------------------------------------------
# Accuracy delivered
# ---------------------------------------------------------------------------


def max_se_bits(kind: str, text: str) -> float:
    """Largest standard error, in bits, that one command output reports.

    ``validate`` prints a single sampled information quantity, the
    ``wishart-identity`` log-determinant (nats, as ``4*SE = x``); its
    standard error is converted to bits.
    """
    if kind == "sweep":
        ses = [se for _, se, _ in parse_sweep(text).values() if se is not None]
    elif kind == "bounds":
        ses = [float(v) for k, v in parse_bounds(text).items() if k.endswith("_se")]
    else:
        ses = []
        for line in text.splitlines():
            match = _WISHART_SE_RE.search(line)
            if line.startswith("check wishart-identity:") and match:
                ses.append(float(match.group(1)) / 4.0 / _LN2)
    if not ses:
        raise ValueError(f"{kind} output reports no standard error")
    return max(ses)
