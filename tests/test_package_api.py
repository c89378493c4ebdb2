"""Package hygiene: the helper modules export nothing the package never calls,
only `anleak.bounds` spells a reason code, and every seeded trial is drawn
by `montecarlo._run_trials`."""

import ast
from pathlib import Path

import pytest

import anleak
from anleak import channel, linalg, planner, special

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


@pytest.mark.parametrize(
    "module", [linalg, channel, special, planner], ids=lambda m: m.__name__
)
def test_every_exported_helper_is_used_by_the_package(module):
    unused = sorted(set(module.__all__) - _names_loaded_by_the_package())
    assert not unused, f"{module.__name__} exports names nothing loads: {unused}"


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
    # `_run_trials` is the package's only trial loop, and `_trial_rng` its
    # only way to build a generator, so a stream change is made in one place.
    owners = {
        "_trial_rng": "_run_trials",
        "SeedSequence": "_trial_rng",
        "default_rng": "_trial_rng",
    }
    reads = _reads(set(owners))
    stray = [hit for hit in reads if owners[hit[2]] not in hit[3]]
    assert not stray, f"seeded draws outside their owner: {stray}"
    assert {hit[2] for hit in reads} == set(owners)
