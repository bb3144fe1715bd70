"""Checks on the library source and its error hierarchy."""

import ast
from pathlib import Path

import persposet
from persposet.errors import InternalError, PersistenceError


def test_no_assert_statements():
    """python -O strips assert statements, so internal checks must raise explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(persposet.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_internal_error_is_not_an_input_error():
    assert not issubclass(InternalError, PersistenceError)
