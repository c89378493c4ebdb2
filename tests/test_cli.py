"""CLI contract: config parsing, sweep CSV, self-checks, exit codes."""

import contextlib
import dataclasses
import io
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import anleak.cli
from anleak import ConfigError, MonteCarlo
from anleak.cli import (
    AXES,
    METRICS,
    SweepRow,
    SweepSpec,
    build_sweep_spec,
    build_system_config,
    main,
    parse_config_file,
    run_sweep,
    run_validation,
    write_sweep_csv,
)

BASE = {
    "M": "8",
    "K": "2",
    "N_E": "4",
    "N_J": "4",
    "T": "24",
    "axis": "snr_e_db",
    "values": "0,10",
    "metrics": "ergodic",
    "trials": "200",
    "seed": "1",
}


def write_config(tmp_path, entries, name="sweep.cfg"):
    path = tmp_path / name
    lines = ["# scenario under test", ""]
    lines += [f"{k} = {v}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def make_entries(**overrides):
    entries = dict(BASE)
    for key, value in overrides.items():
        if value is None:
            entries.pop(key, None)
        else:
            entries[key] = str(value)
    return entries


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------


def test_parse_config_roundtrip(tmp_path):
    path = write_config(tmp_path, BASE)
    assert parse_config_file(path) == BASE


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, {**BASE, "bogus": "1"})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(path)


def test_parse_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("M=8\nM=16\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(str(path))


def test_parse_config_rejects_bare_line(tmp_path):
    path = tmp_path / "bare.cfg"
    path.write_text("M=8\njust words\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(str(path))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file("/no/such/file.cfg")


def test_build_system_config_errors():
    with pytest.raises(ConfigError, match="missing required key 'M'"):
        build_system_config(make_entries(M=None))
    with pytest.raises(ConfigError, match="not an integer"):
        build_system_config(make_entries(M="eight"))
    with pytest.raises(ConfigError):  # powers that cannot balance
        build_system_config(make_entries(alpha2="5.0"))


# ---------------------------------------------------------------------------
# Trials precedence and spec validation
# ---------------------------------------------------------------------------


def test_trials_precedence(monkeypatch):
    monkeypatch.delenv("ANLEAK_TRIALS", raising=False)
    spec = build_sweep_spec(make_entries(trials=None))
    assert (spec.trials, spec.trials_source) == (2000, "default")

    monkeypatch.setenv("ANLEAK_TRIALS", "777")
    spec = build_sweep_spec(make_entries(trials=None))
    assert (spec.trials, spec.trials_source) == (777, "env:ANLEAK_TRIALS")

    spec = build_sweep_spec(make_entries())  # config still has trials=200
    assert (spec.trials, spec.trials_source) == (200, "config")

    spec = build_sweep_spec(make_entries(), trials=50)
    assert (spec.trials, spec.trials_source) == (50, "flag")


def test_bad_env_trials_is_a_config_error(monkeypatch):
    monkeypatch.setenv("ANLEAK_TRIALS", "lots")
    with pytest.raises(ConfigError, match="ANLEAK_TRIALS"):
        build_sweep_spec(make_entries(trials=None))


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(axis="bandwidth"), "unknown axis"),
        (dict(axis=None), "missing required key 'axis'"),
        (dict(values=None), "missing required key 'values'"),
        (dict(values=" , "), "at least one value"),
        (dict(values="a,b"), "values"),
        (dict(axis="N_E", values="2.5,4"), "nonnegative integers"),
        (dict(axis="N_J", values="-1"), "nonnegative integers"),
        (dict(metrics="ergodic,entropy"), "unknown metric"),
        (dict(metrics=" , "), "at least one metric"),
        (dict(trials="1"), "trials must be >= 2"),
        (dict(seed="-1"), "seed must be >= 0"),
        (dict(workers="0"), "workers must be >= 1"),
    ],
)
def test_spec_validation_errors(overrides, match, monkeypatch):
    monkeypatch.delenv("ANLEAK_TRIALS", raising=False)
    with pytest.raises(ConfigError, match=match) as err:
        build_sweep_spec(make_entries(**overrides))
    run_args = {k: int(v) for k, v in overrides.items() if k in ("trials", "seed", "workers")}
    if run_args:  # a bad run argument reads as the estimator's own rule says
        with pytest.raises(ValueError) as rule:
            MonteCarlo(**run_args)
        assert str(err.value) == str(rule.value)
        with pytest.raises(ConfigError) as flag_err:  # the same value as a flag
            build_sweep_spec(make_entries(), **run_args)
        assert str(flag_err.value) == str(rule.value)


def test_metrics_default_to_all(monkeypatch):
    monkeypatch.delenv("ANLEAK_TRIALS", raising=False)
    spec = build_sweep_spec(make_entries(metrics=None))
    assert spec.metrics == METRICS
    assert spec.axis in AXES


# ---------------------------------------------------------------------------
# Sweeps: reason codes, CSV format, worker invariance
# ---------------------------------------------------------------------------


def _rows_by_metric(rows, value):
    return {r.metric: r for r in rows if r.axis_value == value}


def test_short_block_reason_codes():
    spec = build_sweep_spec(
        make_entries(
            axis="T_gamma",
            values="0.5,3",
            metrics="ergodic,noncoh_ub,secrecy_su,secrecy_mu",
            trials="50",
        )
    )
    rows = _rows_by_metric(run_sweep(spec), 0.5)  # T = 4 < K + N_J = 6
    assert rows["ergodic"].reason == ""
    for name in ("noncoh_ub", "secrecy_su", "secrecy_mu"):
        assert rows[name].reason == "precondition:T<Mbar"
        assert rows[name].value is None and rows[name].std_error is None
    long_rows = _rows_by_metric(run_sweep(spec), 3)  # T = 24 is fine
    assert all(r.reason == "" for r in long_rows.values())


def test_small_eavesdropper_blocks_partial():
    spec = build_sweep_spec(
        make_entries(axis="N_E", values="2,8", metrics="partial_lb,partial_ub", trials="50")
    )
    rows = run_sweep(spec)
    small = [r for r in rows if r.axis_value == 2]
    large = [r for r in rows if r.axis_value == 8]
    assert all(r.reason == "precondition:NE<Mbar" for r in small)
    assert all(r.reason == "" for r in large)


def test_no_noise_reason_code():
    spec = build_sweep_spec(
        make_entries(axis="N_J", values="0,4", metrics="noncoh_lb,ergodic", trials="50")
    )
    rows = _rows_by_metric(run_sweep(spec), 0)
    assert rows["noncoh_lb"].reason == "precondition:beta2=0"
    assert rows["ergodic"].reason == ""


def test_nj_sweep_does_not_depend_on_base_noise():
    # A base with N_J = 0 has alpha2 = M/K and no power left for noise; the
    # points with noise must re-balance as if the base had noise.
    def rows(base_nj):
        entries = make_entries(N_J=base_nj, axis="N_J", values="0,2,6", metrics=None)
        return run_sweep(build_sweep_spec(entries, trials=50, seed=0))

    from_none = rows(0)
    assert all(r.reason != "invalid_config" for r in from_none)
    assert from_none == rows(6)


def test_no_excess_block_reason_code():
    spec = build_sweep_spec(
        make_entries(axis="T_gamma", values="0.25", metrics="universal", trials="50")
    )
    (row,) = run_sweep(spec)  # T = 2 = K, so t' = 0
    assert row.reason == "precondition:Tprime<1"


def test_short_training_blocks_partial():
    spec = build_sweep_spec(
        make_entries(
            N_E="8", N_J="6", axis="T_gamma", values="0.5", metrics="partial_ub", trials="50"
        )
    )
    (row,) = run_sweep(spec)  # T = 4, t' = 2 < N_J = 6
    assert row.reason == "precondition:Tprime<NJ"


def test_crossed_bounds_get_a_reason_code():
    # alpha2=2 balances with beta2=1 here, and at that power ratio the
    # non-coherent relaxations cross; the cell is skipped, not fatal.
    spec = build_sweep_spec(
        make_entries(alpha2="2", values="30", metrics="noncoh_ub,secrecy_su", trials="50")
    )
    rows = run_sweep(spec)
    assert [r.reason for r in rows] == ["bracket_inverted", "bracket_inverted"]


def test_unexpected_errors_are_not_reason_codes(monkeypatch):
    # Only NotApplicable carries a reason code; any other ValueError from a
    # bound (a failed estimate, say) is a fault and must surface.
    def broken(cfg, mc, **kwargs):
        raise ValueError("only 1 valid trials after excluding 49")

    monkeypatch.setattr(anleak.cli, "noncoherent_bounds", broken)
    spec = build_sweep_spec(make_entries(values="30", metrics="noncoh_ub", trials="50"))
    with pytest.raises(ValueError, match="only 1 valid trials"):
        run_sweep(spec)


def test_unbuildable_point_is_flagged_not_fatal():
    spec = build_sweep_spec(
        make_entries(axis="T_gamma", values="0.05,3", metrics="ergodic,universal", trials="50")
    )
    rows = run_sweep(spec)
    bad = [r for r in rows if r.axis_value == 0.05]  # T would round to 0
    good = [r for r in rows if r.axis_value == 3]
    assert [r.reason for r in bad] == ["invalid_config", "invalid_config"]
    assert all(r.value is not None for r in good)


def test_csv_format_is_stable():
    spec = SweepSpec(
        cfg=build_system_config(BASE),
        axis="snr_e_db",
        values=(0.0, 10.0),
        metrics=("ergodic", "noncoh_ub"),
        trials=200,
        seed=1,
        workers=4,
        trials_source="config",
    )
    rows = [
        SweepRow(0.0, "ergodic", 1.234567891234, 0.05, ""),
        SweepRow(0.0, "noncoh_ub", None, None, "precondition:T<Mbar"),
        SweepRow(10.0, "ergodic", -2.5, 0.125, ""),
    ]
    buf = io.StringIO()
    write_sweep_csv(spec, rows, buf)
    assert buf.getvalue() == (
        "# anleak sweep trials=200 trials_source=config seed=1\n"
        "axis,metric,value,std_error,reason\n"
        "0,ergodic,1.23456789,0.05,\n"
        "0,noncoh_ub,,,precondition:T<Mbar\n"
        "10,ergodic,-2.5,0.125,\n"
    )
    assert "workers" not in buf.getvalue()
    assert "\r" not in buf.getvalue()


def test_worker_count_never_changes_the_rows():
    spec = build_sweep_spec(
        make_entries(values="0,10", metrics="ergodic,noncoh_ub,universal", trials="120")
    )
    rows_1 = run_sweep(spec)
    rows_4 = run_sweep(dataclasses.replace(spec, workers=4))
    assert rows_1 == rows_4
    one, four = io.StringIO(), io.StringIO()
    write_sweep_csv(spec, rows_1, one)
    write_sweep_csv(dataclasses.replace(spec, workers=4), rows_4, four)
    assert one.getvalue() == four.getvalue()


FLAGSHIP = {"M": "64", "K": "16", "N_E": "64", "N_J": "48", "T": "320"}


def test_snr_sweep_draws_each_spectrum_once(draw_counts):
    # No draw reads the SNR, so one MonteCarlo per sweep samples the ergodic
    # channel and the universal pair once, not once per point.  The
    # flagship's six log-spectrum expectations have closed forms and draw
    # nothing.
    entries = {**FLAGSHIP, "axis": "snr_e_db", "values": "0,10,20,30,40"}
    rows = run_sweep(build_sweep_spec(entries, trials=4))
    assert len(rows) == 5 * len(METRICS)
    assert draw_counts == {"ergodic": 1, "universal": 1}


@pytest.mark.parametrize(
    ("entries", "expected"),
    [
        (FLAGSHIP, {"ergodic": 1, "universal": 1}),
        # N_E < K + N_J at unequal powers: JOINT of the joint and of the
        # single-stream view has no closed form and is sampled.
        (
            {"M": "64", "K": "8", "N_E": "32", "N_J": "40", "T": "192", "alpha2": "2"},
            {"log_sv": 2, "ergodic": 1, "universal": 1},
        ),
    ],
    ids=["flagship", "wide-unequal"],
)
def test_bounds_draws_each_spectrum_once(entries, expected, tmp_path, capsys, draw_counts):
    path = write_config(tmp_path, entries)
    assert main(["bounds", path, "--trials", "4"]) == 0
    assert "universal=" in capsys.readouterr().out
    assert draw_counts == expected


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------


def test_validation_passes_and_is_reproducible(draw_counts):
    report = run_validation(trials=300)
    names = [c.name for c in report.checks]
    assert names == [
        "digamma-recurrence",
        "grassmann-symmetry",
        "wishart-identity",
        "transmit-power",
        "effective-distributions",
        "ergodic-slope",
        "sv-split",
    ]
    assert report.passed, [c.detail for c in report.checks if not c.passed]
    assert run_validation(trials=300) == report
    # The slope check reads both noise floors off one channel draw per run.
    assert draw_counts["ergodic"] == 2


def test_validation_rejects_tiny_runs():
    with pytest.raises(ValueError):
        run_validation(trials=50)


def test_validation_states_the_distribution_trials_rule_once(monkeypatch):
    cfg = build_system_config(FLAGSHIP)
    with pytest.raises(ValueError) as lib:
        anleak.channel.check_effective_distributions(cfg, trials=50)

    def no_draws(*args):
        raise AssertionError("a sampled check ran before the trials rule")

    # Every seeded draw of the package seeds its trials here.
    monkeypatch.setattr(anleak.montecarlo, "_trial_rng", no_draws)
    with pytest.raises(ValueError) as cli:
        run_validation(trials=50)
    assert str(cli.value) == str(lib.value) == "need trials >= 100, got 50"


def test_validation_catches_a_biased_digamma(monkeypatch):
    import anleak.special

    true_digamma = anleak.special.digamma

    def biased(x):
        return true_digamma(x) + 0.1

    monkeypatch.setattr(anleak.special, "digamma", biased)
    report = run_validation(trials=300)
    failing = [c.name for c in report.checks if not c.passed]
    # The shift cancels in the recurrence but not against sampled spectra.
    assert failing == ["wishart-identity"]
    assert main(["validate", "--trials", "300"]) == 1


def test_validate_command_reports_all_clear(capsys):
    assert main(["validate", "--trials", "300"]) == 0
    out = capsys.readouterr().out
    assert "all 7 checks passed" in out
    assert out.count("PASS") == 7


# ---------------------------------------------------------------------------
# Command wiring and exit codes
# ---------------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_config_file_exits_2(capsys):
    assert main(["sweep", "/no/such/file.cfg"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_override_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["sweep", path, "--set", "bogus=1"]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert main(["sweep", path, "--set", "novalue"]) == 2
    assert "expected key=value" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/dir/out.csv", "."], ids=["no-dir", "is-dir"])
def test_sweep_rejects_an_unwritable_output_before_sampling(
    target, tmp_path, capsys, draw_counts
):
    path = write_config(tmp_path, BASE)
    assert main(["sweep", path, "-o", str(tmp_path / target)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert not draw_counts


def test_sweep_command_writes_csv(tmp_path):
    path = write_config(tmp_path, make_entries(metrics="ergodic", trials="120"))
    out = tmp_path / "out.csv"
    assert main(["sweep", path, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "# anleak sweep trials=120 trials_source=config seed=1"
    assert lines[1] == "axis,metric,value,std_error,reason"
    assert len(lines) == 4
    for line in lines[2:]:
        axis_value, metric, value, std_error, reason = line.split(",")
        assert metric == "ergodic"
        assert reason == ""
        assert float(std_error) > 0.0
        float(value)


def test_sweep_set_overrides_config(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out.csv"
    assert main(["sweep", path, "--set", "trials=150", "-o", str(out)]) == 0
    assert "trials=150 trials_source=config" in out.read_text(encoding="utf-8")


def test_bounds_command_prints_the_point(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["bounds", path, "--trials", "150"]) == 0
    out = capsys.readouterr().out
    assert "ergodic_dof=0" in out
    assert "noncoh_c_upper=" in out
    assert "partial_skipped=precondition:NE<Mbar" in out
    assert "secrecy_su=" in out
    assert "entropy_gap" not in out  # not a fully-loaded unit-power point


def test_bounds_header_names_the_trials_source_and_seed(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, make_entries(trials=None))
    assert main(["bounds", path, "--trials", "150"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "# anleak bounds trials=150 trials_source=flag seed=1"
    monkeypatch.setenv("ANLEAK_TRIALS", "120")
    assert main(["bounds", path, "--seed", "4"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "# anleak bounds trials=120 trials_source=env:ANLEAK_TRIALS seed=4"


def test_bounds_reports_a_short_block_like_the_sweep(tmp_path, capsys):
    # T = 2 leaves t' = 0 post-training symbols; the sweep codes this
    # point as precondition:Tprime<1, and bounds must not abort on it.
    path = write_config(tmp_path, make_entries(T="2"))
    assert main(["bounds", path, "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "universal_skipped=precondition:Tprime<1" in out
    assert "partial_skipped=precondition:NE<Mbar" in out
    assert "secrecy_su_skipped=precondition:T<Mbar" in out
    spec = build_sweep_spec(make_entries(T="2", metrics="universal"), trials=50)
    assert run_sweep(spec)[0].reason == "precondition:Tprime<1"


@pytest.mark.parametrize(
    "flags", [["--trials", "1"], ["--seed", "-1"], ["--workers", "0"]]
)
def test_bounds_rejects_bad_run_args_before_printing(tmp_path, capsys, flags):
    path = write_config(tmp_path, BASE)
    assert main(["bounds", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_bounds_command_reports_gap_when_fully_loaded(tmp_path, capsys):
    entries = make_entries(M="6", K="2", N_E="3", N_J="4", T="12", alpha2="1.0")
    path = write_config(tmp_path, entries)
    assert main(["bounds", path, "--trials", "150"]) == 0
    assert "entropy_gap=" in capsys.readouterr().out


# alpha2 lies within 1e-9 of 1 but the balanced beta2 = 0.999999997 does not.
OFF_UNIT_BETA2 = {
    "M": "4", "K": "3", "N_E": "2", "N_J": "1", "T": "8", "alpha2": "1.0000000009"
}


def test_bounds_omits_the_gap_when_beta2_is_off_unit(tmp_path, capsys):
    # The closed-form gap needs both powers at 1, so it is left out.
    path = write_config(tmp_path, OFF_UNIT_BETA2)
    assert main(["bounds", path, "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "beta2=0.999999997" in out
    assert "entropy_gap" not in out


@st.composite
def small_configs(draw):
    """Config entries for ``M <= 8`` that `build_system_config` accepts."""
    m = draw(st.integers(2, 8))
    k = draw(st.integers(1, m - 1))
    nj = draw(st.integers(0, m - k))
    entries = {"M": m, "K": k, "N_E": draw(st.integers(1, 10)), "N_J": nj,
               "T": draw(st.integers(1, 3 * m))}
    if nj:
        power = draw(st.sampled_from(["balanced", "unit", "fraction"]))
        if power == "unit":
            entries["alpha2"] = 1.0
        elif power == "fraction":
            entries["alpha2"] = draw(st.floats(0.02, 0.98)) * m / k
    entries = {key: str(value) for key, value in entries.items()}
    try:
        build_system_config(entries)
    except ConfigError:
        assume(False)
    return entries


_BOUNDS_KEYS = {
    "noncoh": "noncoh_ub",
    "partial": "partial_ub",
    "universal": "universal",
    "secrecy_su": "secrecy_su",
    "secrecy_mu": "secrecy_mu",
}


@settings(max_examples=100)
@example(entries=OFF_UNIT_BETA2)
@given(entries=small_configs())
def test_bounds_prints_the_sweep_reason_codes(entries, tmp_path_factory):
    path = write_config(tmp_path_factory.mktemp("point"), entries)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bounds", path, "--trials", "20"]) == 0
    printed = dict(
        line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line
        and not line.startswith("#")
    )
    spec = build_sweep_spec(
        {**entries, "axis": "snr_e_db", "values": "30",
         "metrics": ",".join(_BOUNDS_KEYS.values())},
        trials=20,
    )
    reasons = {row.metric: row.reason for row in run_sweep(spec)}
    for key, metric in _BOUNDS_KEYS.items():
        value_key = f"{key}_dof" if key in ("noncoh", "partial") else key
        if reasons[metric]:
            assert printed.get(f"{key}_skipped") == reasons[metric]
            assert value_key not in printed
        else:
            assert f"{key}_skipped" not in printed
            float(printed[value_key])


def test_plan_command_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "anleak", "plan", "--carrier-hz", "1e10",
         "--speed-mps", "1.3"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "required_antennas=135" in proc.stdout


def test_sweep_subprocess_is_worker_invariant(tmp_path):
    path = write_config(
        tmp_path, make_entries(values="10,30", metrics="ergodic,universal", trials="80")
    )
    outputs = []
    for workers, name in ((1, "w1.csv"), (3, "w3.csv")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "anleak", "sweep", path,
             "--workers", str(workers), "-o", str(out)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
