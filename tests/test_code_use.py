"""The package keeps no dead code: every import in src/ucfam is used, and
every function, class and method it defines is referenced by name somewhere
in src/, tests/, bench/ or scripts/.  A definition that only tests reference
is named in KEPT_WITHOUT_CALLER with the reason it stays.

The checks read the syntax trees only.  A reference is a bare name or an
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

# Definitions that nothing in src/, bench/ or scripts/ references, and why each stays.
KEPT_WITHOUT_CALLER = {
    "bitops.rooted_mask": "bench/layers.py counts its calls by name",
    "colex.colex_superadditivity_slack": "the colex superadditivity lemma, as an exact slack",
    "compression.prefix_family": "the compression trace's documented query model",
    "compression.prefix_image": "the compression trace's documented query model",
    "core.shadow": "a paper notion with a DomainError contract",
    "core.cube": "a paper notion with a DomainError contract",
    "core.rooted_subfamily": "a paper notion with a DomainError contract",
    "core.empty": "a Family constructor that tests read as a literal",
    "core.powerset": "a Family constructor that tests read as a literal",
    "core.from_sets": "a Family constructor that tests read as a literal",
    "verify.excluded_fraction": "the exact test of the constant chain's threshold quadratic",
    "verify.fixpoint_constants": "the constant chain at its fixpoint, which gives the paper's c",
}


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


def _unreferenced(searched: tuple[str, ...]):
    """(path, node) for each package definition that no file under the searched
    directories references outside the definition's own body."""
    everywhere: Counter = Counter()
    for top in searched:
        for path in sorted((ROOT / top).rglob("*.py")):
            everywhere += _names(_parse(path))
    for path in PACKAGE:
        for node in _definitions(_parse(path)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - _names(node)[name] <= 0:
                yield path, node


def test_every_definition_is_referenced():
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}" for path, node in _unreferenced(SEARCHED)
    ]
    assert unreferenced == []


def test_only_kept_definitions_lack_a_caller_outside_tests():
    test_only = {
        f"{path.stem}.{node.name}" for path, node in _unreferenced(("src", "bench", "scripts"))
    }
    assert test_only == set(KEPT_WITHOUT_CALLER)
