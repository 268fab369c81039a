"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import oddkh

SOURCES = sorted(Path(oddkh.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so every invariant must raise
    # explicitly to keep holding there.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert not found, f"assert statements in the package: {found}"


def test_traced_benchmark_targets_exist():
    # perfbench/probes.py wraps each target through getattr at trace
    # time, so a deleted or renamed function breaks only traced runs.
    probes = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
    tree = ast.parse(probes.read_text(), filename=str(probes))
    modules = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "oddkh"
        for alias in node.names
    }
    targets = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "targets")
    listed = next(node for node in ast.walk(targets) if isinstance(node, ast.Return)).value
    names = [(entry.elts[0].id, entry.elts[1].value) for entry in listed.elts]
    assert len(names) > 20
    for module, name in names:
        layer = importlib.import_module(f"oddkh.{modules[module]}")
        assert callable(getattr(layer, name, None)), f"oddkh.{modules[module]}.{name}"
