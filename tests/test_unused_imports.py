"""Unused-import gate: a stdlib stand-in for ruff's F401.

Every import in ``src`` and ``tests`` must be used in the scope that
imports it (the module for top-level imports, the enclosing function
otherwise), listed in a module's ``__all__``, or marked
``# noqa: F401``.  The package ``__init__.py`` façades re-export by
design and are skipped, as in ``ruff.toml``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
NOQA = re.compile(r"#\s*noqa(?::[\sA-Z0-9,]*\bF401\b|(?!:))")


def _sources():
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def _annotation_names(node: ast.expr):
    """Names in an annotation, string (forward-reference) forms included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


def _used_names(scope: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            )
    return used


def _imports(scope: ast.AST):
    """(alias, bound name) pairs imported directly in ``scope``, not in
    a nested function."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias, alias.asname or alias.name
        stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every unused import in ``source``."""
    lines = source.splitlines()
    tree = ast.parse(source)
    scopes = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found = []
    for scope in scopes:
        used = _used_names(scope)
        for alias, name in _imports(scope):
            if name not in used and not NOQA.search(lines[alias.lineno - 1]):
                found.append((alias.lineno, name))
    return sorted(found)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _sources()
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("import os  # noqa: F401\n", []),
    ("import os  # noqa: E402\n", ["os"]),
    ("from a import (\n    b,\n    c,\n)\nc()\n", ["b"]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import b\ndef f(x: 'b') -> None: ...\n", []),
    ("def f():\n    from a import b\n\ndef g():\n    b()\n", ["b"]),
    ("from a import b\ndef g():\n    b()\n", []),
], ids=["plain", "dotted", "noqa", "other-noqa", "multiline", "all",
        "string-annotation", "function-scope", "used-in-function"])
def test_detector(source, unused):
    assert [name for _, name in unused_imports(source)] == unused
