"""Package hygiene: the modules export nothing the package never calls but
a commented allowlist, only `anleak.bounds` spells a reason code, the
bounds and estimators read their operating point from the config, the
laws and bounds import nothing from the sampler, every seeded trial is
drawn by `montecarlo._run_trials` on the caller's thread, every thread
pool is `montecarlo._in_order` and only `validate` runs it, no command reads the environment, the CLI imports
no test-only library, and the package's exports load on first use."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anleak
from anleak import bounds, channel, laws, linalg, montecarlo, planner, special, twopower

SRC = Path(anleak.__file__).resolve().parent


def _names_loaded_by_the_package() -> set[str]:
    """Names read anywhere in ``src/anleak`` outside their own definition.

    A name counts whether it is read bare or as ``module.name``.
    ``__init__.py`` is skipped, because re-exporting a name is not a use
    of it, and so are reads inside the top-level ``def``/``class`` of the
    same name, so recursion does not count either.
    """
    loaded = set()
    modules = {path.stem for path in SRC.glob("*.py")}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    name = node.attr
                else:
                    continue
                if name != own:
                    loaded.add(name)
    return loaded


# Exports the package never loads, each kept on purpose.
NEVER_LOADED = {
    # The public sampled forms of `MonteCarlo.ergodic_leakage` and
    # `.ergodic_constant`, each one call of a `MonteCarlo`; the layer tracer
    # of perfbench wraps them by name.
    "montecarlo.ergodic_leakage",
    "montecarlo.ergodic_constant",
    # The plain sampled transmit power, offered to callers; `validate` reads
    # the same trials through `channel._transmit_power_parts`, to subtract
    # its symbol-energy controls.  The layer tracer wraps it by name too.
    "channel.average_transmit_power",
    # Paper results offered to callers: the pilot-aided eavesdropper rate,
    # the low-SNR limit of `universal_upper` (criterion 06); the zero-dof
    # cap and its relaxation; the one-call secrecy rates of the README.
    "bounds.coherent_data_leakage",
    "bounds.saturated_upper",
    "bounds.secrecy_from_config",
}


@pytest.mark.parametrize(
    "module",
    [linalg, channel, special, laws, planner, montecarlo, bounds, twopower],
    ids=lambda m: m.__name__,
)
def test_every_exported_helper_is_used_by_the_package(module):
    short = module.__name__.rpartition(".")[2]
    unused = set(module.__all__) - _names_loaded_by_the_package()
    # An allowed name that is loaded after all, or no longer exported, fails too.
    allowed = {name for name in NEVER_LOADED if name.startswith(short + ".")}
    assert {f"{short}.{name}" for name in unused} == allowed


def _is_reason_code(value) -> bool:
    return isinstance(value, str) and (
        value.startswith("precondition:") or value == "bracket_inverted"
    )


def test_reason_codes_are_spelled_only_in_bounds():
    # bounds.py owns every applicability rule; a code written anywhere else
    # is a second copy of a rule that can drift from the first.
    stray = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "bounds.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and _is_reason_code(node.value)
    ]
    assert not stray, f"reason codes outside bounds.py: {stray}"


def test_bounds_read_the_operating_point_from_the_config():
    # `SystemConfig` owns snr_e_db, snr_l_db and the noise floor sigma_z2
    # derived from it, for the bounds and for the estimators (`MonteCarlo`
    # in montecarlo, `ExactFirst` in laws).  `LeakageBounds.rate_at` keeps
    # its SNR: an envelope's constants do not depend on one.
    snr_params = {"snr_e_db", "snr_l_db", "sigma_z2", "snr_db"}
    takes = set()
    for module in (bounds, montecarlo, laws):
        for name in module.__all__:
            obj = getattr(module, name)
            members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
            for attr, fn in members:
                if inspect.isfunction(fn):
                    params = inspect.signature(fn).parameters
                    where = f"{name}.{attr}".rstrip(".")
                    takes |= {(where, p) for p in snr_params & set(params)}
    assert takes == {("LeakageBounds.rate_at", "snr_db")}
    assert "MonteCarlo" in montecarlo.__all__ and "ExactFirst" in laws.__all__
    assert not hasattr(montecarlo, "_check_sigma")


def _runtime_imports(tree: ast.AST):
    """The modules that the import statements of ``tree`` read from, but
    those in an ``if TYPE_CHECKING:`` block, which only annotations read."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            continue
        if isinstance(node, ast.ImportFrom):
            yield from [node.module] if node.module else (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        yield from _runtime_imports(node)


@pytest.mark.parametrize("name", ["laws", "twopower", "bounds"])
def test_the_laws_and_the_bounds_import_nothing_that_samples(name):
    # The laws and the bounds built on them draw nothing, so they import
    # nothing from the sampler (`bounds` loads it through `channel`).
    sources = set(_runtime_imports(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))))
    assert sources and not {s for s in sources if s.rpartition(".")[2] == "montecarlo"}, sources
    if name != "bounds":
        assert "anleak.montecarlo" not in _modules_loaded_by(f"import anleak.{name}")


def _reads(names: set[str]) -> list[tuple[str, int, str, tuple[str, ...]]]:
    """``(file, line, name, enclosing defs)`` of every read of ``names`` in
    ``src/anleak``, bare or as an attribute."""
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in names and isinstance(getattr(node, "ctx", None), ast.Load):
            found.append((path.name, node.lineno, name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return found


def test_every_seeded_trial_goes_through_the_one_trial_loop():
    # `_run_trials` is the package's only trial loop and builds its only
    # generators, one per batch, so a stream change is made in one place.
    owners = {"SeedSequence": "_run_trials", "default_rng": "_run_trials"}
    reads = _reads(set(owners))
    stray = [hit for hit in reads if owners[hit[2]] not in hit[3]]
    assert not stray, f"seeded draws outside their owner: {stray}"
    assert {hit[2] for hit in reads} == set(owners)


def test_every_thread_pool_is_the_one_pool():
    # `montecarlo._in_order` is the package's only thread pool, so every
    # pool of the package holds OpenBLAS to one thread while it runs.
    reads = _reads({"ThreadPoolExecutor"})
    stray = [hit for hit in reads if "_in_order" not in hit[3]]
    assert not stray, f"thread pools outside `_in_order`: {stray}"
    assert reads


def _defs_taking(param: str) -> set[str]:
    """``module.name`` (``module.Class.name`` for a method) of every def in
    ``src/anleak`` that has a parameter ``param``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.FunctionDef):
            args = node.args
            if param in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_the_sampler_takes_no_worker_count():
    # Every seeded draw runs on the caller's thread, so neither the trial
    # loop nor a sampled estimator takes a worker count.  What still does:
    # the pool's size, the run rule, and two arguments checked that select
    # nothing, `MonteCarlo`'s and the CLI flag's, until ROADMAP item 1.
    assert _defs_taking("workers") == {
        "montecarlo._in_order",
        "montecarlo._check_run_args",
        "montecarlo.MonteCarlo.__init__",
        "cli.build_sweep_spec",
    }
    sampled = [channel.check_effective_distributions, channel.average_transmit_power]
    sampled += [montecarlo._run_trials, *(getattr(montecarlo, n) for n in montecarlo.__all__)]
    sampled += vars(montecarlo.MonteCarlo).values()
    takes = [
        fn.__qualname__
        for fn in sampled
        if inspect.isfunction(fn) and "workers" in inspect.signature(fn).parameters
    ]
    assert takes == ["MonteCarlo.__init__"]


def test_only_validate_runs_the_pool():
    # `_run_trials` reduces its batches in one loop and never loads the
    # pool; `validate` runs its sampled checks side by side on it.
    callers = {hit[3] for hit in _reads({"_in_order"})}
    assert not any("_run_trials" in scope for scope in callers)
    assert callers == {("run_validation",)}


def test_no_command_reads_the_environment():
    # Output depends only on a command's arguments and seed (ROADMAP aim 3),
    # so the package reads no environment variable.
    assert not _reads({"environ", "getenv", "environb", "getenvb"})


def _modules_loaded_by(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``statement``."""
    code = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(done.stdout.split())


SUBMODULES = {f"anleak.{path.stem}" for path in SRC.glob("*.py")} - {"anleak.__init__"}


def test_the_cli_imports_no_oracle_library(tmp_path):
    # scipy and mpmath are test extras that serve as oracles; the package
    # depends on numpy alone, and loading either would slow every start-up.
    # So would what only some commands run: a thread pool (`_in_order`), the
    # planner (`plan`) and the two-power law with its `decimal` arithmetic.
    # A bare `import anleak` loads no module of its own, and a one-power
    # flagship `bounds` run never reaches the two-power law; a two-power
    # one loads it and `decimal`, and no pool.
    config = {}
    for name, alpha2 in (("one", 1.0), ("two", 2.0)):
        config[name] = tmp_path / f"{name}.cfg"
        config[name].write_text(f"M=64\nK=16\nN_E=64\nN_J=48\nT=320\nalpha2={alpha2}\n")
    law = {"decimal", "anleak.twopower"}
    pool = {"concurrent.futures"}
    run = (
        "import contextlib, io; from anleak import cli; "
        "quiet = contextlib.redirect_stdout(io.StringIO()); quiet.__enter__(); "
        "cli.main(['bounds', {!r}]); quiet.__exit__(None, None, None)"
    )
    cases = {
        "import anleak.cli": ({"scipy", "mpmath", "anleak.planner"} | pool | law, set()),
        "import anleak": (SUBMODULES, set()),
        run.format(str(config["one"])): (law | pool, set()),
        run.format(str(config["two"])): (pool, law),
    }
    for statement, (unloaded, loaded) in cases.items():
        modules = _modules_loaded_by(statement)
        assert not unloaded & modules, statement
        assert loaded <= modules, statement


def test_every_export_is_the_object_of_its_module():
    exported = set(anleak.__all__) - {"__version__"}
    for name in exported:
        module = importlib.import_module(f"anleak.{anleak._MODULE_OF[name]}")
        assert getattr(anleak, name) is getattr(module, name), name
    assert set(anleak.__all__) <= set(dir(anleak))
    with pytest.raises(AttributeError, match="no_such_name"):
        anleak.no_such_name  # noqa: B018


def test_a_bare_import_resolves_every_module():
    # Every module but the entry points is an attribute of the package
    # without an import of its own, as when the package imported them all.
    modules = (
        "bounds", "channel", "errors", "laws", "linalg", "montecarlo", "planner", "special", "twopower"
    )
    full = {f"anleak.{m}" for m in modules}
    assert full == SUBMODULES - {"anleak.cli", "anleak.__main__"}
    statement = f"import anleak; [getattr(anleak, m) for m in {modules!r}]"
    assert full <= _modules_loaded_by(statement)
