"""Tests of the benchmark itself: comparator, repeat counts, trace purity.

Run from the repository root with ``python3 -m pytest perfbench``.  The
repeat-count and byte-identity tests run the real CLI at tiny trial
counts (a few seconds each).
"""

from __future__ import annotations

import json
import re
import sys

import pytest

import compare
import layertrace
import run


def _workload_run(tmp_path, name: str, trials: int, seed: int, traced: bool):
    workload = dict(run.WORKLOADS[name], trials=trials)
    config_path = tmp_path / f"{name}.cfg"
    run.write_config(workload, config_path)
    args = run.cli_args(workload, config_path, seed)
    spans_path = tmp_path / f"{name}-spans.json"
    if traced:
        argv = [sys.executable, str(run.HERE / "layertrace.py"), str(spans_path), *args]
    else:
        argv = [sys.executable, "-m", "anleak", *args]
    stem = f"{name}-{'traced' if traced else 'plain'}"
    _, _, _, rc, out = run.run_child(argv, run.child_env(), tmp_path, stem, 170.0)
    assert rc == 0, (tmp_path / f"{stem}.err").read_text()
    spans = json.loads(spans_path.read_text()) if traced else None
    return out, spans


# ---------------------------------------------------------------------------
# Comparator
# ---------------------------------------------------------------------------

SWEEP_REF = {
    "kind": "sweep",
    "rows": [
        {"axis": "32", "metric": "ergodic", "value": 19.4, "se": 0.1, "reason": ""},
        {"axis": "32", "metric": "partial_lb", "value": None, "se": None,
         "reason": "precondition:NE<Mbar"},
    ],
}
SWEEP_HEAD = "# anleak sweep trials=2 trials_source=flag seed=5\naxis,metric,value,std_error,reason\n"


def test_comparator_accepts_values_inside_the_band():
    text = SWEEP_HEAD + "32,ergodic,19.9,0.1,\n32,partial_lb,,,precondition:NE<Mbar\n"
    assert compare.check(SWEEP_REF, text, 0) == (2, 0, [])


def test_comparator_flags_an_out_of_band_value():
    # 4 * hypot(0.1, 0.1) = 0.566 < |20.0 - 19.4|
    text = SWEEP_HEAD + "32,ergodic,20.0,0.1,\n32,partial_lb,,,precondition:NE<Mbar\n"
    attempted, failed, messages = compare.check(SWEEP_REF, text, 0)
    assert (attempted, failed) == (2, 1)
    assert messages[0].startswith("32,ergodic:")


def test_comparator_flags_a_mismatched_reason_code():
    text = SWEEP_HEAD + "32,ergodic,19.4,0.1,\n32,partial_lb,,,precondition:Tprime<1\n"
    attempted, failed, messages = compare.check(SWEEP_REF, text, 0)
    assert (attempted, failed) == (2, 1)
    assert "precondition:Tprime<1" in messages[0]


def test_comparator_checks_bounds_values_and_reasons():
    ref = {
        "kind": "bounds",
        "values": {
            "alpha2": {"value": 1.0, "se": 0.0, "se_key": None},
            "noncoh_lb": {"value": 150.0, "se": 0.4, "se_key": "noncoh_c_se"},
            "ergodic_constant": {"value": 41.4, "se": 0.3, "se_key": None},
            "partial_skipped": {"reason": "precondition:NE<Mbar"},
        },
    }
    good = ("alpha2=1\nnoncoh_lb=151.5\nnoncoh_c_se=0.4\nergodic_constant=42.9\n"
            "partial_skipped=precondition:NE<Mbar\n")
    assert compare.check(ref, good, 0) == (4, 0, [])
    bad = ("alpha2=1.001\nnoncoh_lb=153\nnoncoh_c_se=0.4\nergodic_constant=43.2\n"
           "partial_skipped=precondition:Tprime<1\n")
    assert compare.check(ref, bad, 0)[:2] == (4, 4)


def test_comparator_requires_every_validate_check_to_pass():
    ref = {"kind": "validate", "checks": ["a", "b"]}
    assert compare.check(ref, "check a: PASS (x)\ncheck b: PASS (y)\n", 0)[:2] == (2, 0)
    assert compare.check(ref, "check a: PASS (x)\ncheck b: FAIL (y)\n", 1)[:2] == (2, 2)
    assert compare.check(ref, "check a: PASS (x)\ncheck c: FAIL (z)\n", 0)[:2] == (3, 2)


def test_a_failed_command_fails_every_operation():
    text = SWEEP_HEAD + "32,ergodic,19.4,0.1,\n32,partial_lb,,,precondition:NE<Mbar\n"
    assert compare.check(SWEEP_REF, text, 2)[:2] == (2, 2)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, trials, expected",
    [
        ("sweep-snr", 2, {"montecarlo.expected_log_sv_sum": (24, 30),
                          "montecarlo.ergodic_leakage": (4, 5),
                          "montecarlo.universal_constant": (4, 5)}),
        ("sweep-ne", 2, {"montecarlo.expected_log_sv_sum": (0, 22)}),
        ("bounds-point", 2, {"montecarlo.expected_log_sv_sum": (2, 8),
                             "bounds.noncoherent_bounds": (1, 3)}),
        ("validate", 100, {"montecarlo.ergodic_leakage": (1, 2)}),
    ],
)
def test_repeat_counts(tmp_path, name, trials, expected):
    _, spans = _workload_run(tmp_path, name, trials, 3, traced=True)
    layers = layertrace.summarize(spans)
    for func, (repeats, calls) in expected.items():
        assert (layers[f"{func}.repeats"], layers[f"{func}.calls"]) == (repeats, calls)


@pytest.mark.parametrize("name", ["sweep-ne", "bounds-point"])
def test_traced_and_untraced_output_are_byte_identical(tmp_path, name):
    plain, _ = _workload_run(tmp_path, name, 4, 11, traced=False)
    traced, spans = _workload_run(tmp_path, name, 4, 11, traced=True)
    assert plain == traced
    assert spans


def test_self_time_excludes_the_union_of_child_intervals():
    spans = [
        [0, None, "montecarlo.expected_log_sv_sum", 0.0, 10.0, {"trials": 4}],
        [1, 0, "linalg.sample_gaussian", 1.0, 4.0, {"bytes": 32}],
        [2, 0, "linalg.sample_gaussian", 3.0, 5.0, {"bytes": 32}],
        [3, 0, "linalg.squared_singular_values", 8.0, 9.0, None],
    ]
    layers = layertrace.summarize(spans)
    assert layers["montecarlo.expected_log_sv_sum.self_s"] == pytest.approx(5.0)
    assert layers["montecarlo.expected_log_sv_sum.total_s"] == pytest.approx(10.0)
    assert layers["linalg.sample_gaussian.self_s"] == pytest.approx(5.0)
    assert layers["linalg.sample_gaussian.bytes"] == 64


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_records_each_workloads_trials():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for entry in spec["workloads"]:
        assert re.search(rf"--trials {run.WORKLOADS[entry['name']]['trials']}\b", entry["why"])
    for ref in (run.HERE / "reference").glob("*.json"):
        assert json.loads(ref.read_text())["trials"] == run.WORKLOADS[ref.stem]["trials"]
