"""Checks on the library source and its error hierarchy."""

import ast
import sys
from pathlib import Path

import persposet
import persposet.cli  # noqa: F401  (not imported by the package itself)
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


def test_every_cache_is_bounded():
    """An unbounded functools cache grows for the life of the process."""
    caches = {}
    for modname, module in sorted(sys.modules.items()):
        if module is None or not modname.startswith("persposet."):
            continue
        for name, obj in vars(module).items():
            candidates = [(f"{modname}.{name}", obj)]
            if isinstance(obj, type) and obj.__module__ == modname:
                candidates += [(f"{modname}.{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)]
            for qualname, candidate in candidates:
                if hasattr(candidate, "cache_info"):
                    caches.setdefault(id(candidate), (qualname, candidate))
    assert len(caches) >= 6
    unbounded = [qualname for qualname, cache in caches.values() if cache.cache_info().maxsize is None]
    assert unbounded == []
