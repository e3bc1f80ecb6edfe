"""Every parameter of a library function is read: a parameter the body
never reads is a setting that cannot change a result."""

from __future__ import annotations

import ast
from pathlib import Path

import nfbounds

SRC = Path(nfbounds.__file__).parent


def _functions(tree):
    """Module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _unread(fn):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params if p not in read]


def test_library_reads_every_parameter():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in _functions(tree):
            found += [f"{path.stem}.{name}({p})" for p in _unread(fn)]
    assert not found, f"parameters no body reads: {found}"
