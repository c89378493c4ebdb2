"""Regenerate the reference outputs under ``perfbench/reference/``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

Each workload's command runs once at the benchmark's default seed with the
benchmark's own arguments and environment.  The output is parsed into
values, standard errors and reason codes (see `compare.py`).  For the two
``bounds`` values printed without a standard error, the standard error is
computed here from the library at the same trials and seed.  References
are meant to be generated once and then kept: regenerating them from a
changed program would hide the changes the bands exist to catch.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import compare


def _bounds_reference(text: str, workload: dict, config_path) -> dict:
    from anleak import cli
    from anleak.bounds import noncoherent_bounds
    from anleak.channel import single_stream_view
    from anleak.montecarlo import MonteCarlo

    cfg = cli.build_system_config(cli.parse_config_file(str(config_path)))
    mc = MonteCarlo(trials=workload["trials"], seed=run.DEFAULT_SEED, workers=1)
    computed_se = {
        "ergodic_constant": mc.ergodic_constant(cfg).std_error,
        "secrecy_mu": cfg.K * noncoherent_bounds(single_stream_view(cfg), mc).c_std_error,
    }
    se_keys = {
        "ergodic_leakage": "ergodic_leakage_se",
        "universal": "universal_se",
        "secrecy_su": "noncoh_c_se",
    }
    for prefix in ("noncoh", "partial"):
        for suffix in ("c_lower", "c_upper", "lb", "ub"):
            se_keys[f"{prefix}_{suffix}"] = f"{prefix}_c_se"
    got = compare.parse_bounds(text)
    values = {}
    for key, raw in got.items():
        if key.endswith("_se"):
            continue
        if key.endswith("_skipped"):
            values[key] = {"reason": raw}
        elif key in se_keys:
            values[key] = {"value": float(raw), "se": float(got[se_keys[key]]),
                           "se_key": se_keys[key]}
        else:
            values[key] = {"value": float(raw), "se": computed_se.get(key, 0.0),
                           "se_key": None}
    return {"kind": "bounds", "values": values}


def main() -> int:
    out_dir = run.HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    work = run.ROOT / ".perfbench-work" / "make-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.child_env()
    for name, workload in run.WORKLOADS.items():
        config_path = work / f"{name}.cfg"
        run.write_config(workload, config_path)
        argv = [sys.executable, "-m", "anleak",
                *run.cli_args(workload, config_path, run.DEFAULT_SEED)]
        _, _, _, rc, out = run.run_child(argv, env, work, name, 600.0)
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        text = out.decode()
        if workload["command"] == "sweep":
            ref = {"kind": "sweep", "rows": [
                {"axis": a, "metric": m, "value": v, "se": se, "reason": r}
                for (a, m), (v, se, r) in compare.parse_sweep(text).items()
            ]}
        elif workload["command"] == "bounds":
            ref = _bounds_reference(text, workload, config_path)
        else:
            ref = {"kind": "validate", "checks": list(compare.parse_validate(text))}
        ref.update(seed=run.DEFAULT_SEED, trials=workload["trials"])
        (out_dir / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: wrote {len(text)} bytes of output as reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
