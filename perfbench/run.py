"""anleak benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-snr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Load is a closed loop: this one process runs one ``anleak`` command at a
time, each as a fresh ``python3 -m anleak`` child (the real CLI entry
point), and measures for ``--seconds``.  Every iteration of a run uses
the same arguments and seed, so every output must be byte-identical to
the first; the first is also compared with the stored references
(`compare.py`).

A fixed calibration child (`calibrate.py`) runs before the first timed
command and after each one, and a bare ``import numpy`` child after each
set-up probe.  Each timing is scaled by the gauges next to it, and the
run reports the median of the scaled timings, so they read as seconds at
the reference machine's speed (see ``README.md``).  Every child runs BLAS
with one thread (`BLAS_ENV`).

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced iterations (`layertrace.py`)
and prints the per-layer metrics, including the tracing overhead.  The
last stdout line is the JSON result; the lines before it give the
provenance and every metric by name with its unit.

Stdlib only.  Everything the run writes goes under ``.perfbench-work/``
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layertrace  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 7
# Median wall seconds of one `calibrate.py` child (by its thread count), and
# of one bare ``import numpy`` interpreter, on the reference machine (2 vCPUs
# of a shared Intel Xeon host, OpenBLAS 0.3.31 with one thread).  They only
# set the scale of the reported times.
CAL_REFERENCE_S = {1: 0.5, 2: 0.59}
IMPORT_REFERENCE_S = 0.19
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s

FLAGSHIP = {"M": 64, "K": 16, "N_E": 64, "N_J": 48, "T": 320}

# Trial counts are sized so one iteration takes a few seconds on a 2-core
# machine and the largest reported standard error is stable across seeds;
# they are echoed in each workload's ``why`` in BENCHMARK.json.
WORKLOADS = {
    "sweep-snr": {
        "command": "sweep",
        "config": {**FLAGSHIP, "axis": "snr_e_db", "values": "0,10,20,30,40"},
        "trials": 80,
        "workers": 1,
    },
    "sweep-ne": {
        "command": "sweep",
        "config": {
            "M": 64, "K": 8, "N_E": 64, "N_J": 40, "T": 192, "alpha2": 2,
            "axis": "N_E", "values": "32,48,64,96",
        },
        "trials": 160,
        "workers": 2,
    },
    "bounds-point": {
        "command": "bounds",
        "config": FLAGSHIP,
        "trials": 120,
        "workers": 1,
    },
    "validate": {"command": "validate", "config": None, "trials": 400, "workers": None},
}

SETUP_CODE = """
import sys
from anleak import cli
command, config = sys.argv[1], sys.argv[2]
if command == "sweep":
    cli.build_sweep_spec(cli.parse_config_file(config), trials=int(sys.argv[3]),
                         seed=int(sys.argv[4]), workers=int(sys.argv[5]))
elif command == "bounds":
    cli.build_system_config(cli.parse_config_file(config))
"""

PROVENANCE_CODE = """
import json, os, platform, numpy, anleak
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    blas = {}
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": blas.get("name", "unknown"),
    "blas_version": blas.get("version", "unknown"),
    "anleak_file": anleak.__file__,
}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed probe)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Caller's environment with the checkout's sources first on the path.

    ``ANLEAK_TRIALS`` is removed so it cannot override the explicit
    ``--trials``.  BLAS runs one thread per process (`BLAS_ENV`): with
    OpenBLAS's default of one spinning thread per core, a vCPU taken by
    another tenant stalls every BLAS call, and timings turn bimodal.
    """
    env = dict(os.environ)
    env.pop("ANLEAK_TRIALS", None)
    env.update(BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd: Path, stem: str, limit_s: float):
    """Run one child to completion.

    Returns ``(wall_s, cpu_s, peak_rss_mb, returncode, stdout_bytes)``;
    CPU is user+sys over all the child's threads.
    """
    out_path, err_path = cwd / f"{stem}.out", cwd / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(max(limit_s, 1.0), proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            timer.join()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes()


def cli_args(workload: dict, config_path: Path, seed: int) -> list[str]:
    args = [workload["command"]]
    if workload["config"] is not None:
        args.append(str(config_path))
    args += ["--seed", str(seed), "--trials", str(workload["trials"])]
    if workload["workers"] is not None:
        args += ["--workers", str(worker_count(workload))]
    return args


def worker_count(workload: dict) -> int | None:
    """The workload's ``--workers``, capped at the number of cores."""
    if workload["workers"] is None:
        return None
    return min(workload["workers"], os.cpu_count() or 1)


def write_config(workload: dict, path: Path) -> None:
    if workload["config"] is not None:
        path.write_text("".join(f"{k}={v}\n" for k, v in workload["config"].items()))


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance(env, work: Path, seed: int, workload: dict) -> dict:
    _, _, _, rc, out = run_child(
        [sys.executable, "-c", PROVENANCE_CODE], env, work, "provenance", 60.0
    )
    if rc != 0:
        raise BenchError(f"cannot import anleak: {(work / 'provenance.err').read_text()}")
    info = json.loads(out)
    if not Path(info["anleak_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"anleak imported from {info['anleak_file']}, not {ROOT / 'src'}")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    info.update(
        nproc=os.cpu_count(),
        git_commit=_git_commit(),
        src_sha256=digest.hexdigest(),
        seed=seed,
        trials=workload["trials"],
        workers=workload["workers"],
        blas_env=BLAS_ENV,
        caller_blas_env={k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    )
    return info


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def measure_setup(env, work: Path, workload: dict, config_path: Path, seed: int):
    """Wall times of fresh interpreters that import and resolve, each
    followed by a bare ``import numpy`` interpreter that gauges the speed.

    Returns ``(setup_walls, import_walls)``.
    """
    argv = [sys.executable, "-c", SETUP_CODE, workload["command"], str(config_path),
            str(workload["trials"]), str(seed), str(workload["workers"] or 1)]
    setups, imports = [], []
    for i in range(SETUP_PROBES):
        for stem, cmd, walls in ((f"setup{i}", argv, setups),
                                 (f"import{i}", [sys.executable, "-c", "import numpy"], imports)):
            wall, _, _, rc, _ = run_child(cmd, env, work, stem, 60.0)
            if rc != 0:
                raise BenchError(f"{stem} probe failed: {(work / f'{stem}.err').read_text()}")
            walls.append(wall)
    return setups, imports


def calibrate(env, work: Path, n: int, threads: int) -> float:
    """Wall seconds of one `calibrate.py` child running ``threads`` threads."""
    wall, _, _, rc, out = run_child(
        [sys.executable, str(HERE / "calibrate.py"), str(threads)], env, work, f"cal{n}", 60.0
    )
    if rc != 0 or not out.startswith(b"calibration "):
        raise BenchError(f"calibration failed: {(work / f'cal{n}.err').read_text()}")
    return wall


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, provenance)``."""
    if not (ROOT / "src" / "anleak" / "cli.py").is_file():
        raise BenchError(f"no anleak sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name]
    reference = json.loads((HERE / "reference" / f"{name}.json").read_text())
    work = ROOT / ".perfbench-work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "workload.cfg"
    write_config(workload, config_path)
    env = child_env()
    info = provenance(env, work, seed, workload)

    args = cli_args(workload, config_path, seed)
    threads = worker_count(workload) or 1
    plain = [sys.executable, "-m", "anleak", *args]
    tracer = [sys.executable, str(HERE / "layertrace.py")]
    metrics: dict[str, float] = {}
    began = time.perf_counter()
    # Raw timings; the end-to-end metrics scale their medians by the gauges'.
    raw: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "setup_s": []}
    imports: list[float] = []
    calibrations: list[float] = []
    if not trace:
        raw["setup_s"], imports = measure_setup(env, work, workload, config_path, seed)
        calibrations.append(calibrate(env, work, 0, threads))

    peak_rss: list[float] = []
    traced_walls: list[float] = []
    loop_costs: list[float] = []
    layers: list[dict] = []
    first_out = None
    attempted = failed = 0
    messages: list[str] = []  # one or more per failure, so empty means correct
    min_iterations = 2 if trace else 3
    i = 0
    while True:
        elapsed = time.perf_counter() - began
        next_cost = max(loop_costs, default=0.0)
        if len(loop_costs) >= min_iterations and elapsed + next_cost > seconds:
            break
        if loop_costs and elapsed + next_cost > RUN_LIMIT_S - 10:
            break
        loop_began = time.perf_counter()
        for with_trace in ((False, True) if trace else (False,)):
            limit = RUN_LIMIT_S - (time.perf_counter() - began)
            if with_trace:
                spans_path = work / f"spans{i}.json"
                argv = [*tracer, str(spans_path), *args]
            else:
                argv = plain
            wall, cpu, rss, rc, out = run_child(argv, env, work, f"iter{i}", limit)
            i += 1
            a, f, msgs = compare.check(reference, out.decode("utf-8", "replace"), rc)
            attempted, failed = attempted + a, failed + f
            messages += msgs
            if first_out is None:
                first_out = out
                try:
                    metrics["max_se_bits"] = compare.max_se_bits(
                        reference["kind"], out.decode("utf-8", "replace")
                    )
                except ValueError as exc:
                    messages.append(str(exc))
            elif out != first_out:
                messages.append(f"iteration {i - 1} output differs from the first")
            if with_trace:
                traced_walls.append(wall)
                layers.append(layertrace.summarize(json.loads(spans_path.read_text())))
            else:
                raw["wall_s"].append(wall)
                raw["cpu_s"].append(cpu)
                peak_rss.append(rss)
        if not trace:
            calibrations.append(calibrate(env, work, len(calibrations), threads))
        loop_costs.append(time.perf_counter() - loop_began)

    if trace:
        keys = set().union(*layers)
        metrics = {k: statistics.median(d.get(k, 0.0) for d in layers) for k in keys}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
            raw["wall_s"]
        )
    else:
        # Each command is scaled by the mean wall time of the calibrations
        # just before and after it (CPU time too: it follows the machine's
        # speed as wall time does), each set-up probe by the import after it.
        around = [(a + b) / 2 for a, b in zip(calibrations, calibrations[1:])]
        for key in ("wall_s", "cpu_s"):
            metrics[key] = CAL_REFERENCE_S[threads] * statistics.median(
                t / c for t, c in zip(raw[key], around)
            )
        metrics["setup_s"] = IMPORT_REFERENCE_S * statistics.median(
            t / c for t, c in zip(raw["setup_s"], imports)
        )
        metrics["peak_rss_mb"] = statistics.median(peak_rss)
        metrics["pass_ratio"] = (attempted - failed) / attempted
        info["gauges"] = {
            "calibrate_s": statistics.median(calibrations),
            "import_numpy_s": statistics.median(imports),
        }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    info["iterations"] = len(raw["wall_s"])
    info["traced_iterations"] = len(traced_walls)
    info["raw_medians"] = {k: statistics.median(v) for k, v in raw.items() if v}
    info["raw_wall_s_samples"] = raw["wall_s"]
    info["calibrate_s_samples"] = calibrations
    info["failures"] = messages[:20]
    (work / "result.json").write_text(json.dumps({"provenance": info, "result": result}, indent=1))
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or all of them in turn (metrics named WORKLOAD.METRIC)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, info = run(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, OSError, KeyError, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print("provenance " + json.dumps(info, sort_keys=True))
        for msg in info["failures"]:
            print(f"failure {name} {msg}")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(result if len(names) == 1 else combined))
    return 0

if __name__ == "__main__":
    sys.exit(main())
