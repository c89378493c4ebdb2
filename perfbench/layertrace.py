"""Per-layer spans around anleak's public functions, installed from outside.

Run as::

    python3 perfbench/layertrace.py SPANS.json ARG...

This behaves exactly like ``python3 -m anleak ARG...`` (same entry point,
same output bytes) except that the traced functions below are wrapped and
every call becomes a span ``[id, parent_id, name, start, end, attrs]``.
Spans are kept in memory and written to ``SPANS.json`` when the command
ends.  Nothing under ``src/`` is modified: each function is replaced under
every name an anleak module bound it to, so ``cli``'s direct import of
``ergodic_leakage`` and ``montecarlo``'s direct import of
``sample_gaussian`` are both traced.

Parent links follow the calling thread's span stack.  Worker threads of
``montecarlo``'s pool start with an empty stack; their spans are parented
to the main thread's innermost open span, which is the estimator that is
blocked waiting for them (the load is one closed-loop client).

`summarize` turns the span list into per-layer metrics.  Importing this
module has no side effects; only `install` patches anything.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time

# Module -> public functions wrapped in that module's layer.
TRACED = {
    "cli": ("main", "evaluate_metric", "write_sweep_csv"),
    "bounds": (
        "noncoherent_bounds",
        "partial_coherent_bounds",
        "universal_upper",
        "ergodic_highsnr",
    ),
    "montecarlo": (
        "expected_log_sv_sum",
        "ergodic_leakage",
        "universal_constant",
        "ergodic_constant",
        "sv_split_check",
    ),
    "linalg": ("sample_gaussian", "squared_singular_values"),
    "channel": (
        "sample_realization",
        "check_effective_distributions",
        "average_transmit_power",
    ),
    "special": ("digamma", "log_grassmann_volume"),
}

# Functions whose calls are keyed for repeat_ratio.  A call repeats when its
# bound arguments equal an earlier call's in the same process (= one
# benchmark iteration), ignoring ``sigma_z2`` and the config's SNR fields,
# because the drawn spectra depend on neither.
REPEAT_KEYED = frozenset(
    {
        "montecarlo.expected_log_sv_sum",
        "montecarlo.ergodic_leakage",
        "montecarlo.universal_constant",
        "bounds.noncoherent_bounds",
    }
)

# Functions with a ``trials`` argument whose requested trials are summed.
TRIAL_COUNTED = frozenset(
    {
        "montecarlo.expected_log_sv_sum",
        "montecarlo.ergodic_leakage",
        "montecarlo.universal_constant",
    }
)

_COMPLEX_BYTES = 16


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._seen: set = set()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        attrs = {}
        if name in REPEAT_KEYED or name in TRIAL_COUNTED:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            if name in TRIAL_COUNTED:
                attrs["trials"] = bound.arguments["trials"]
            if name in REPEAT_KEYED:
                key = (name,) + tuple(
                    (k, _snr_free(v))
                    for k, v in bound.arguments.items()
                    if k != "sigma_z2"
                )
                attrs["repeat"] = key in self._seen
                self._seen.add(key)
        if name == "cli.write_sweep_csv":
            counter = _CountingStream(args[2])
            args = args[:2] + (counter,) + args[3:]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if name == "montecarlo.expected_log_sv_sum":
            attrs["excluded"] = result.excluded
        elif name == "linalg.sample_gaussian":
            attrs["bytes"] = result.nbytes
        elif name == "linalg.squared_singular_values":
            attrs.update(_svd_work(args[0]))
        elif name == "cli.write_sweep_csv":
            attrs["bytes"] = counter.bytes
        self.spans.append([span_id, parent, name, start, end, attrs or None])
        return result


class _CountingStream:
    """Forwards writes and counts the UTF-8 bytes written."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self._stream.write(text)


def _snr_free(value):
    if dataclasses.is_dataclass(value) and hasattr(value, "snr_e_db"):
        return dataclasses.replace(value, snr_e_db=0.0, snr_l_db=0.0)
    return value


def _svd_work(a) -> dict:
    """Matrices and computed flops of the Gram + ``eigvalsh`` route.

    Per ``r x c`` complex matrix with ``m = min(r, c)``, ``n = max(r, c)``:
    ``8 m^2 n`` real flops for the Gram product and ``16/3 m^3`` for the
    Hermitian eigenvalue solve.  Computed from shapes, not counted.
    """
    shape = a.shape
    m, n = sorted(shape[-2:])
    mats = math.prod(shape[:-2])
    return {"matrices": mats, "gflop": mats * (8 * m * m * n + 16 * m**3 / 3) / 1e9}


def install(recorder: Recorder) -> dict:
    """Wrap every traced function under every name anleak bound it to.

    Returns ``{qualified_name: wrapper}``.
    """
    modules = {
        name: importlib.import_module(f"anleak.{name}") for name in TRACED
    }
    modules["package"] = importlib.import_module("anleak")
    wrappers = {}
    for mod_name, funcs in TRACED.items():
        for func_name in funcs:
            original = getattr(modules[mod_name], func_name)
            qualified = f"{mod_name}.{func_name}"
            wrappers[qualified] = _wrap(recorder, qualified, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrappers[qualified])
    return wrappers


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    For every traced name: ``calls``; ``total_s`` (outermost spans only, so
    recursion is not double counted); ``self_s`` (each span's time minus
    the union of its child spans' intervals); ``repeat_ratio`` and summed
    attributes (``trials``, ``excluded``, ``bytes``, ``matrices``,
    ``gflop``).
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out: dict[str, float] = {}
    repeats: dict[str, int] = {}
    for mod_name, funcs in TRACED.items():
        for func_name in funcs:
            name = f"{mod_name}.{func_name}"
            for field in ("calls", "total_s", "self_s"):
                out[f"{name}.{field}"] = 0.0
    for span_id, parent, name, start, end, attrs in spans:
        out[f"{name}.calls"] += 1
        covered = _union_length(
            [(max(c[3], start), min(c[4], end)) for c in children.get(span_id, ())]
        )
        out[f"{name}.self_s"] += (end - start) - covered
        if not _has_ancestor_named(by_id, parent, name):
            out[f"{name}.total_s"] += end - start
        for key, value in (attrs or {}).items():
            if key == "repeat":
                repeats[name] = repeats.get(name, 0) + int(value)
            else:
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    for name in REPEAT_KEYED:
        calls = out[f"{name}.calls"]
        out[f"{name}.repeats"] = repeats.get(name, 0)
        out[f"{name}.repeat_ratio"] = repeats.get(name, 0) / calls if calls else 0.0
    return out


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _has_ancestor_named(by_id, parent, name) -> bool:
    while parent is not None:
        span = by_id[parent]
        if span[2] == name:
            return True
        parent = span[1]
    return False


def _main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: layertrace.py SPANS.json ARG...", file=sys.stderr)
        return 2
    recorder = Recorder()
    wrappers = install(recorder)
    try:
        return wrappers["cli.main"](argv[1:])
    finally:
        sys.stdout.flush()
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
