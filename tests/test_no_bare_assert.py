"""Library invariants must survive ``python -O``, which strips ``assert``."""

from __future__ import annotations

import ast
from pathlib import Path

import nfbounds

SRC = Path(nfbounds.__file__).parent


def test_library_has_no_bare_assert():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert in the library: {found}"
