"""Checks on the package source itself."""

import ast
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
