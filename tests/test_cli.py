"""CLI contract: config parsing, sweep CSV, self-checks, exit codes."""

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import anleak.cli
from anleak import ConfigError, ExactFirst, MonteCarlo, balanced_config
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


# The N_E = 32 point of the benchmark's N_E sweep at powers 1.33334 and
# 1.333332, a ratio of 1 + 6e-6: the ergodic cells are `twopower`'s
# near-equal expansion, which once needed a sampled fit.
NEAR_EQUAL = {"M": "64", "K": "8", "N_E": "32", "N_J": "40", "T": "192", "alpha2": "1.33334"}


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


def test_parse_config_skips_a_byte_order_mark(tmp_path):
    # A config saved as UTF-8 with a byte-order mark reads as one without:
    # the mark is not part of the first key.
    path = tmp_path / "bom.cfg"
    path.write_text("M=8\nK=2\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfM=8\n")
    assert parse_config_file(str(path)) == {"M": "8", "K": "2"}


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
# Run flags and spec validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, keys",
    [
        ([], {}),
        (["--trials", "7", "--seed", "3", "--workers", "2"], {}),
        ([], {"trials": "500", "seed": "7", "workers": "3"}),
    ],
    ids=["no-run", "flags", "config"],
)
def test_sweep_and_bounds_output_depends_only_on_the_scenario(tmp_path, capsys, flags, keys):
    # Both commands answer from laws and draw nothing, so the run flags and
    # keys are checked but select nothing: every byte, header included, is
    # the output without them.
    scenario = {**FLAGSHIP, "axis": "snr_e_db", "values": "10,30"}

    def outputs(entries, argv):
        path = write_config(tmp_path, entries)
        out = tmp_path / "out.csv"
        assert main(["sweep", path, *argv, "-o", str(out)]) == 0
        assert main(["bounds", path, *argv]) == 0
        return out.read_bytes(), capsys.readouterr().out

    plain = outputs(scenario, [])
    assert outputs({**scenario, **keys}, flags) == plain
    assert plain[0].startswith(b"# anleak sweep\naxis,")
    assert plain[1].startswith("# anleak bounds\n# config ")


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
        # A non-finite value is rejected on every axis, not only as a count.
        (dict(axis="T_gamma", values="5,inf"), "axis T_gamma: values must be finite"),
        (dict(axis="snr_e_db", values="nan"), "axis snr_e_db: values must be finite"),
        (dict(axis="N_E", values="-inf"), "axis N_E: values must be finite"),
        (dict(axis="N_J", values="inf,2"), "axis N_J: values must be finite"),
    ],
)
def test_spec_validation_errors(overrides, match):
    with pytest.raises(ConfigError, match=match) as err:
        build_sweep_spec(make_entries(**overrides))
    run_args = {k: int(v) for k, v in overrides.items() if k in ("trials", "seed", "workers")}
    if run_args:  # a bad run argument reads as the sampler's run rule says
        with pytest.raises(ValueError) as rule:
            MonteCarlo(**run_args)
        assert str(err.value) == str(rule.value)
        with pytest.raises(ConfigError) as flag_err:  # the same value as a flag
            build_sweep_spec(make_entries(), **run_args)
        assert str(flag_err.value) == str(rule.value)


def test_metrics_default_to_all():
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


def test_an_unusable_snr_is_flagged_like_any_unbuildable_point(tmp_path):
    # Past +-3000 dB the noise floor is no normal float: the config rejects
    # the SNR, so those rows read invalid_config and the 30 dB rows are
    # those of a sweep of 30 dB alone.
    metrics = ",".join(METRICS)
    out = tmp_path / "out.csv"
    path = write_config(tmp_path, make_entries(values="30,-4000,4000", metrics=metrics))
    assert main(["sweep", path, "-o", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[2:]
    alone, spec = io.StringIO(), build_sweep_spec(make_entries(values="30", metrics=metrics))
    write_sweep_csv(spec, run_sweep(spec), alone)
    assert rows[: len(METRICS)] == alone.getvalue().splitlines()[2:]
    assert rows[len(METRICS) :] == [
        f"{snr},{m},,,invalid_config" for snr in (-4000, 4000) for m in METRICS
    ]


def test_csv_format_is_stable():
    spec = SweepSpec(
        cfg=build_system_config(BASE),
        axis="snr_e_db",
        values=(0.0, 10.0),
        metrics=("ergodic", "noncoh_ub"),
    )
    # A sweep draws nothing, so the spec holds no run.
    assert [f.name for f in dataclasses.fields(SweepSpec)] == ["cfg", "axis", "values", "metrics"]
    rows = [
        SweepRow(0.0, "ergodic", 1.234567891234, 0.05, ""),
        SweepRow(0.0, "noncoh_ub", None, None, "precondition:T<Mbar"),
        SweepRow(10.0, "ergodic", -2.5, 0.125, ""),
    ]
    buf = io.StringIO()
    write_sweep_csv(spec, rows, buf)
    assert buf.getvalue() == (
        "# anleak sweep\n"
        "axis,metric,value,std_error,reason\n"
        "0,ergodic,1.23456789,0.05,\n"
        "0,noncoh_ub,,,precondition:T<Mbar\n"
        "10,ergodic,-2.5,0.125,\n"
    )
    assert "workers" not in buf.getvalue()
    assert "\r" not in buf.getvalue()


FLAGSHIP = {"M": "64", "K": "16", "N_E": "64", "N_J": "48", "T": "320"}


def test_snr_sweep_draws_nothing(draw_counts):
    # The flagship has one power, so its log-spectrum expectations, its
    # universal constant and its ergodic leakage all have exact laws: the
    # sweep draws nothing, and its ergodic cells print SE 0.
    entries = {**FLAGSHIP, "axis": "snr_e_db", "values": "0,10,20,30,40"}
    rows = run_sweep(build_sweep_spec(entries, trials=4))
    assert len(rows) == 5 * len(METRICS)
    assert draw_counts == {}
    assert {row.std_error for row in rows if row.metric == "ergodic"} == {0.0}


def test_block_length_sweep_draws_nothing_and_keeps_one_ergodic_cell(draw_counts):
    # The ergodic leakage does not read T, so its cells agree at every
    # block length.  At the flagship's one power, at two distinct powers and
    # at powers 1.00001 and 0.9999967 (the near-equal expansion) it is a
    # law, not a draw.
    two_power = {**FLAGSHIP, "N_E": "32", "alpha2": "2"}
    near = {**FLAGSHIP, "N_E": "32", "alpha2": "1.00001"}
    for base, drawn in ((FLAGSHIP, {}), (two_power, {}), (near, {})):
        draw_counts.clear()
        entries = {**base, "axis": "T_gamma", "values": "1.5,2,5,10"}
        rows = run_sweep(build_sweep_spec(entries, trials=4))
        assert len(rows) == 4 * len(METRICS)
        assert draw_counts == drawn
        ergodic = {(row.value, row.std_error) for row in rows if row.metric == "ergodic"}
        assert len(ergodic) == 1


@pytest.mark.parametrize(
    ("entries", "expected"),
    [
        # One power: every quantity, the ergodic leakage included, is a law.
        (FLAGSHIP, {}),
        # N_E < K + N_J at unequal powers: JOINT of the joint and of the
        # single-stream view follow the Jacobi law, and the ergodic
        # leakage the two-power law; nothing is sampled.
        ({"M": "64", "K": "8", "N_E": "32", "N_J": "40", "T": "192", "alpha2": "2"}, {}),
        # The same at powers 1 + 6e-6 apart: the ergodic leakage is the
        # near-equal expansion; nothing is sampled.
        (NEAR_EQUAL, {}),
    ],
    ids=["flagship", "wide-unequal", "wide-near-equal"],
)
def test_bounds_draws_nothing(entries, expected, tmp_path, capsys, draw_counts):
    path = write_config(tmp_path, entries)
    assert main(["bounds", path, "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "universal=" in out
    assert float(out.partition("ergodic_leakage_se=")[2].split()[0]) == 0.0
    assert draw_counts == expected


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------


VALIDATION_CHECKS = [
    "digamma-recurrence",
    "grassmann-symmetry",
    "wishart-identity",
    "transmit-power",
    "effective-distributions",
    "ergodic-slope",
    "sv-split",
]


def test_validation_passes_and_is_reproducible(draw_counts):
    report = run_validation(trials=300)
    names = [c.name for c in report.checks]
    assert names == VALIDATION_CHECKS
    assert report.passed, [c.detail for c in report.checks if not c.passed]
    assert run_validation(trials=300) == report
    # The slope check reads both noise floors off one channel draw per run.
    assert draw_counts["ergodic"] == 2


def test_every_validation_verdict_is_a_bool(monkeypatch):
    # A biased digamma fails two checks and passes the others (see below),
    # so the report holds passing and failing verdicts alike.
    import anleak.special

    true_digamma = anleak.special.digamma
    monkeypatch.setattr(anleak.special, "digamma", lambda x: true_digamma(x) + 0.1)
    report = run_validation(trials=300)
    assert [type(c.passed) for c in report.checks] == [bool] * len(VALIDATION_CHECKS)
    assert [c.passed for c in report.checks].count(False) == 2


def test_validation_does_not_depend_on_the_pool_size(monkeypatch, draw_counts):
    pools = []
    in_order = anleak.montecarlo._in_order

    def spy(fn, items, workers, start=None):
        pools.append(workers)
        return in_order(fn, items, workers, start)

    monkeypatch.setattr(anleak.montecarlo, "_in_order", spy)
    reports = []
    for cores in (1, 3):
        monkeypatch.setattr(anleak.montecarlo, "_usable_cores", lambda: cores)
        reports.append(run_validation(trials=300))
    assert pools == [1, 3]
    assert reports[0] == reports[1]
    assert [c.name for c in reports[1].checks] == VALIDATION_CHECKS
    # Each sampled check draws its own stream once per run.
    streams = ("log_sv", "transmit_power", "distributions", "ergodic", "split")
    assert draw_counts == {stream: 2 for stream in streams}


def test_validation_raises_the_first_failing_check_in_report_order(monkeypatch):
    slope_failed = threading.Event()

    def power(seed, trials):
        assert slope_failed.wait(timeout=30)
        raise RuntimeError("transmit-power broke")

    def slope(seed, trials):
        slope_failed.set()
        raise RuntimeError("ergodic-slope broke")

    def passing(name):
        return lambda seed, trials: anleak.cli.CheckResult(name, True, "")

    # The slope check starts first and fails first, but the power check
    # comes first in the report, so its error is the one raised.
    monkeypatch.setattr(anleak.cli, "_check_power_identity", power)
    monkeypatch.setattr(anleak.cli, "_check_ergodic_slope", slope)
    for name in ("wishart_identity", "effective_distributions", "sv_split"):
        monkeypatch.setattr(anleak.cli, f"_check_{name}", passing(name))
    for cores in (1, 2):
        slope_failed.clear()
        monkeypatch.setattr(anleak.montecarlo, "_usable_cores", lambda: cores)
        with pytest.raises(RuntimeError, match="transmit-power"):
            run_validation(trials=300)


def test_validation_rejects_tiny_runs():
    with pytest.raises(ValueError):
        run_validation(trials=50)


def test_validation_states_the_distribution_trials_rule_once(monkeypatch):
    cfg = build_system_config(FLAGSHIP)
    with pytest.raises(ValueError) as lib:
        anleak.channel.check_effective_distributions(cfg, trials=50)

    def no_draws(*args):
        raise AssertionError("a sampled check ran before the trials rule")

    # Every seeded draw of the package goes through the one trial loop.
    monkeypatch.setattr(anleak.montecarlo, "_run_trials", no_draws)
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
    # The shift cancels in the recurrence but not against sampled spectra,
    # nor in the ergodic constant (16 more digamma terms in Gbar's sum than
    # in G2's), the mean of a control variate of ergodic-slope.
    assert failing == ["wishart-identity", "ergodic-slope"]
    assert main(["validate", "--trials", "300"]) == 1


def test_validation_catches_a_tenth_of_that_digamma_bias(monkeypatch):
    # 0.01 a term moves the 4-term digamma sum by 0.04 nats, inside the
    # 0.07-nat band of raw log-determinants at 2250 trials, but not inside
    # the band of the Bartlett-controlled ones, whose means read no digamma.
    import anleak.special

    true_digamma = anleak.special.digamma
    monkeypatch.setattr(anleak.special, "digamma", lambda x: true_digamma(x) + 0.01)
    report = run_validation(trials=300)
    assert [c.name for c in report.checks if not c.passed] == ["wishart-identity", "ergodic-slope"]


def test_bartlett_control_is_mean_zero_and_tracks_the_log_determinant():
    # 4 x 8 blocks, as wishart-identity draws them.  The control's mean is
    # 0, and it takes nearly all of the log-determinant's variance: 68x
    # less here with the quadratic terms, 13x with the linear ones alone.
    h = anleak.montecarlo._product(4, 8, 1.0, 0, 0.0, None, np.random.default_rng(5), 4000)
    f = np.sum(np.log(anleak.linalg.squared_singular_values(h)), axis=1)
    control = anleak.cli._bartlett_control(h)
    assert abs(control.mean()) <= 4.0 * control.std(ddof=1) / math.sqrt(control.size)
    assert np.var(f - control) < np.var(f) / 50.0


def test_transmit_power_control_still_sees_a_basis_that_is_not_orthonormal(monkeypatch):
    # The noise control cancels beta2 |V N|^2 only for |V N| = |N|: a
    # noise basis 5% too long moves the mean by beta2 N_J 0.1025 = 0.92.
    zero_forcing = anleak.linalg.zero_forcing

    def long_basis(h, n):
        precoder, basis = zero_forcing(h, n)
        return precoder, 1.05 * basis

    assert anleak.cli._check_power_identity(0, 200).passed
    monkeypatch.setattr(anleak.linalg, "zero_forcing", long_basis)
    assert not anleak.cli._check_power_identity(0, 200).passed


def _bias_the_gbar_law(monkeypatch, bits: float) -> None:
    """Shift the law of the flagship's 64-column Gbar block (not of its
    48-column noise block) by ``bits``, which leaves the sampled slope alone
    but not the sampled leakage against the law."""
    true_law = anleak.laws._laguerre_log1p

    def biased(rows, cols, p, s2):
        return true_law(rows, cols, p, s2) + (bits * math.log(2.0) if cols > 48 else 0.0)

    monkeypatch.setattr(anleak.laws, "_laguerre_log1p", biased)


def test_validation_catches_a_biased_ergodic_law(monkeypatch):
    _bias_the_gbar_law(monkeypatch, 1.0)
    report = run_validation(trials=300)
    assert [c.name for c in report.checks if not c.passed] == ["ergodic-slope"]


def test_validation_catches_a_hundredth_of_a_bit_in_the_ergodic_law(monkeypatch):
    # The control variates' means are closed forms that do not read the
    # Laguerre law, so the band is far below 0.01 bit.
    _bias_the_gbar_law(monkeypatch, 0.01)
    report = run_validation(trials=300)
    assert [c.name for c in report.checks if not c.passed] == ["ergodic-slope"]


SQUARE = balanced_config(M=8, K=2, N_E=8, N_J=6, T=16)  # unit powers


def test_controlled_ergodic_leakage_lies_on_the_law():
    law = ExactFirst()
    spectra = MonteCarlo(trials=2000, seed=2)._ergodic_spectra(SQUARE)
    c_mean = law.ergodic_constant(SQUARE).mean
    for snr in (20.0, 40.0):
        at = dataclasses.replace(SQUARE, snr_e_db=snr)
        est = anleak.cli._ergodic_controlled(spectra, at.sigma_z2, c_mean)
        assert est.trials == 2000 and est.std_error > 0.0
        assert abs(est.mean - law.ergodic_leakage(at).mean) <= 4.0 * est.std_error


def test_controlled_ergodic_leakage_excludes_each_flagged_trial_once():
    # Trial 0 trips the degeneracy guard in both spectra, trial 19 in G2's
    # only: each is NaN in the constant, so dropped once from every term.
    spectra = MonteCarlo(trials=32, seed=1)._ergodic_spectra(SQUARE)
    flagged = [(full.copy(), an.copy()) for full, an in spectra]
    for sq, trial in ((flagged[0][0], 0), (flagged[0][1], 0), (flagged[1][1], 3)):
        sq[trial, -1] = 1e-13 * sq[trial, 0]
    kept = [(full[1:], an[1:]) for full, an in spectra[:1]]
    kept += [(np.delete(full, 3, axis=0), np.delete(an, 3, axis=0)) for full, an in spectra[1:]]
    c_mean, s2 = ExactFirst().ergodic_constant(SQUARE).mean, 1e-3
    est = anleak.cli._ergodic_controlled(flagged, s2, c_mean)
    ref = anleak.cli._ergodic_controlled(kept, s2, c_mean)
    assert (est.trials, est.excluded, ref.excluded) == (30, 2, 0)
    assert est.mean == pytest.approx(ref.mean, rel=1e-14)
    assert est.std_error == pytest.approx(ref.std_error, rel=1e-12)


def test_validate_command_reports_all_clear(capsys):
    assert main(["validate", "--trials", "300"]) == 0
    out = capsys.readouterr().out
    # The first line names the sampled stream, the trial count and the seed.
    assert out.splitlines()[0] == "# anleak validate stream=2 trials=300 seed=0"
    assert "all 7 checks passed" in out
    assert out.count("PASS") == 7
    # Each sampled check names its own trial count, scaled from --trials
    # but for ergodic-slope's fixed 256.
    for name, trials in (("wishart-identity", 2250), ("transmit-power", 200), ("sv-split", 10),
                         ("effective-distributions", 300), ("ergodic-slope", 256)):
        assert f"check {name}: PASS (trials={trials}, " in out
    # Its two 4*SE bands, one per SNR, are each below 0.002 bit.
    slope_line = next(line for line in out.splitlines() if "ergodic-slope" in line)
    bands = slope_line.partition("4*SE = ")[2].rstrip(")").split(", ")
    assert len(bands) == 2 and all(0.0 < float(band) < 0.002 for band in bands)
    # wishart-identity's one band, of Bartlett-controlled log-determinants,
    # is below 0.03 nats.
    wishart_line = next(line for line in out.splitlines() if "wishart-identity" in line)
    assert "(trials=2250, control=bartlett, " in wishart_line
    assert 0.0 < float(wishart_line.partition("4*SE = ")[2].rstrip(")")) < 0.03


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
def test_sweep_rejects_an_unwritable_output_before_evaluating(
    target, tmp_path, capsys, monkeypatch
):
    evaluated, evaluate = [], anleak.cli.evaluate_metric
    monkeypatch.setattr(
        anleak.cli, "evaluate_metric", lambda *args: evaluated.append(args) or evaluate(*args)
    )
    path = write_config(tmp_path, BASE)
    assert main(["sweep", path, "-o", str(tmp_path / target)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert not evaluated


def test_sweep_command_writes_csv(tmp_path):
    path = write_config(tmp_path, make_entries(metrics="ergodic", trials="120"))
    out = tmp_path / "out.csv"
    assert main(["sweep", path, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "# anleak sweep"
    assert lines[1] == "axis,metric,value,std_error,reason"
    assert len(lines) == 4
    for line in lines[2:]:
        axis_value, metric, value, std_error, reason = line.split(",")
        assert metric == "ergodic"
        assert reason == ""
        assert float(std_error) == 0.0  # two powers (1 and 1.5): the law
        float(value)


def test_sweep_set_overrides_config(tmp_path):
    path = write_config(tmp_path, BASE)  # values=0,10
    out = tmp_path / "out.csv"
    assert main(["sweep", path, "--set", "values=5,15", "-o", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["5", "15"]


def test_bounds_command_prints_the_point(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["bounds", path, "--trials", "150"]) == 0
    out = capsys.readouterr().out
    assert "ergodic_dof=0" in out
    assert "noncoh_c_upper=" in out
    assert "partial_skipped=precondition:NE<Mbar" in out
    assert "secrecy_su=" in out
    assert "entropy_gap" not in out  # not a fully-loaded unit-power point


def test_bounds_header_names_no_run(tmp_path, capsys):
    # bounds draws nothing, so its header names no trial count or seed,
    # whether they come from a flag or from the config.
    path = write_config(tmp_path, make_entries(trials=None))
    assert main(["bounds", path, "--trials", "150"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "# anleak bounds"
    path = write_config(tmp_path, make_entries(trials="120"), name="config.cfg")
    assert main(["bounds", path, "--seed", "4"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "# anleak bounds"


def test_the_environment_never_sets_the_trials(tmp_path, capsys, monkeypatch):
    # Output depends only on the arguments: an `ANLEAK_TRIALS` in the shell
    # is not read, and the headers name no trial count.
    sweep = write_config(tmp_path, make_entries(**NEAR_EQUAL, trials=None))
    bounds = write_config(tmp_path, FLAGSHIP, name="flagship.cfg")
    out = tmp_path / "out.csv"

    def outputs():
        assert main(["sweep", sweep, "-o", str(out)]) == 0
        assert main(["bounds", bounds]) == 0
        return out.read_bytes(), capsys.readouterr().out

    monkeypatch.delenv("ANLEAK_TRIALS", raising=False)
    unset = outputs()
    monkeypatch.setenv("ANLEAK_TRIALS", "7")
    sweep_csv, printed = outputs()
    assert (sweep_csv, printed) == unset
    assert sweep_csv.startswith(b"# anleak sweep\naxis,")
    assert printed.startswith("# anleak bounds\n# config ")


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
    "flags, message",
    [
        pytest.param(["--trials", "1"], "trials must be >= 2, got 1", id="flags0"),
        pytest.param(["--seed", "-1"], "seed must be >= 0, got -1", id="flags1"),
        pytest.param(["--workers", "0"], "workers must be >= 1, got 0", id="flags2"),
        pytest.param(["--set", "trials=abc"], "key 'trials': not an integer: 'abc'", id="config"),
    ],
)
def test_bounds_rejects_bad_run_args_before_printing(tmp_path, capsys, flags, message):
    # sweep and bounds select nothing by their run, but still reject a bad one.
    path = write_config(tmp_path, BASE)
    for command in ("bounds", "sweep"):
        assert main([command, path, *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("setting", ["snr_e_db=-4000", "snr_e_db=4000", "snr_l_db=4000"])
def test_bounds_rejects_an_unusable_snr_before_printing(tmp_path, capsys, setting):
    flagship = {"M": "64", "K": "16", "N_E": "64", "N_J": "48", "T": "320"}
    path = write_config(tmp_path, flagship)
    assert main(["bounds", path, "--set", setting]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {setting.partition('=')[0]} must lie in")


@pytest.mark.parametrize("extra", [{"N_J": "0"}, {"N_J": "4", "beta2": "2"}], ids=["no-noise", "beta2"])
def test_bounds_rejects_no_users_before_solving_a_power(tmp_path, capsys, extra):
    # Each power is solved by dividing by K, so K = 0 must be rejected first.
    entries = {"M": "64", "K": "0", "N_E": "64", "T": "320", **extra}
    assert main(["bounds", write_config(tmp_path, entries)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need K >= 1, got K=0\n"


def test_bounds_command_reports_gap_when_fully_loaded(tmp_path, capsys):
    entries = make_entries(M="6", K="2", N_E="3", N_J="4", T="12", alpha2="1.0")
    path = write_config(tmp_path, entries)
    assert main(["bounds", path, "--trials", "150"]) == 0
    assert "entropy_gap=" in capsys.readouterr().out


def test_bounds_answers_exactly_at_a_near_singular_power_ratio(tmp_path, capsys):
    # alpha2 just below M / K leaves beta2 = 2e-6, a 2e6 power ratio on a
    # wide eavesdropper block: the two-power law must still answer.
    entries = make_entries(M="8", K="2", N_E="3", N_J="4", T="12", alpha2="3.999996")
    path = write_config(tmp_path, entries)
    assert main(["bounds", path, "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "beta2=2e-06" in out
    assert "universal_se=0\n" in out
    float(out.split("ergodic_constant=")[1].split()[0])


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--carrier-hz", "1e-300", "--speed-mps", "1e-30"],
        ["--carrier-hz", "1e9", "--speed-mps", "1", "--symbol-duration-s", "1e-320"],
        ["--carrier-hz", "1e300", "--speed-mps", "1e300"],
    ],
    ids=["doppler-underflow", "block-overflow", "doppler-overflow"],
)
def test_plan_rejects_inputs_that_overflow_the_doppler_chain(argv, capsys):
    assert main(["plan", *argv]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: ")


def test_a_closed_stdout_fails_without_a_traceback(tmp_path):
    # As in `anleak bounds cfg | head -1`, the reader is gone before the
    # command prints: exit 1, and nothing on stderr.  Unbuffered, a print
    # raises; buffered, the flush does.
    path = write_config(tmp_path, make_entries(values="0", metrics="universal"))
    plan = ["plan", "--carrier-hz", "2.6e9", "--speed-mps", "30"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        for argv in (["sweep", path], ["bounds", path], plan):
            proc = subprocess.Popen(
                [sys.executable, "-m", "anleak", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={**env, **unbuffered},
            )
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert (argv[0], unbuffered, proc.wait(), err) == (argv[0], unbuffered, 1, b"")


def test_sweep_subprocess_is_worker_invariant(tmp_path):
    # At near-equal powers the ergodic cells are a law: the 3-worker run
    # imports no thread pool, draws nothing and writes the 1-worker bytes.
    path = write_config(
        tmp_path,
        make_entries(**NEAR_EQUAL, values="10,30", metrics="ergodic,universal", trials="80"),
    )
    outputs = []
    for workers, name in ((1, "w1.csv"), (3, "w3.csv")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "anleak", "sweep", path,
             "--workers", str(workers), "-o", str(out)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "concurrent.futures" not in proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert {line.split(",")[3] for line in outputs[0].decode().splitlines()[2:]} == {"0"}
