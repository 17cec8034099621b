"""The package keeps no dead code: every import in src/ucfam is used, and
every function, class and method it defines is referenced by name somewhere
in src/, tests/, bench/ or scripts/.

Both checks read the syntax trees only.  A reference is a bare name or an
attribute name; a definition's references inside its own body (recursion)
do not count, and special methods (__len__ and the like) are called by the
language, so they are exempt.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ucfam").glob("*.py"))
SEARCHED = ("src", "tests", "bench", "scripts")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(node: ast.AST) -> Counter:
    """Bare names and attribute names anywhere under node, with their counts."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _imported(tree: ast.Module) -> list[str]:
    """The names the module's import statements bind (star imports bind none)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.extend(a.asname or a.name for a in node.names if a.name != "*")
    return out


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, defs))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = _names(tree)
    assert [name for name in _imported(tree) if name not in used] == []


def test_every_definition_is_referenced():
    everywhere: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            everywhere += _names(_parse(path))
    unreferenced = []
    for path in PACKAGE:
        for node in _definitions(_parse(path)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - _names(node)[name] <= 0:
                unreferenced.append(f"{path.name}:{node.lineno} {name}")
    assert unreferenced == []
