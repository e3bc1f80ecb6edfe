"""Library invariants must survive ``python -O``, which strips ``assert``,
and raise a named error rather than ``AssertionError``."""

from __future__ import annotations

import ast
from pathlib import Path

import nfbounds

SRC = Path(nfbounds.__file__).parent


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_bare_assert():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and node.exc is not None
                    and _raises_assertion_error(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert or raise AssertionError in the library: {found}"
