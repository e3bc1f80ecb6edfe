"""Every private module-level function of the library has a caller in the
library: a `_name` helper that only tests reach is dead code kept alive
by its tests."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import nfbounds

SRC = Path(nfbounds.__file__).parent


def _private_functions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node


def _references(tree) -> Counter:
    """How often tree reads each name, as a name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_private_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    # a helper that only its own body reads (recursion) has no caller either
    found = [f"{name}:{fn.lineno} {fn.name}" for name, tree in trees.items()
             for fn in _private_functions(tree)
             if refs[fn.name] == _references(fn)[fn.name]]
    assert not found, f"private helpers that nothing else in the library reads: {found}"
