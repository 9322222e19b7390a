"""Static guard: everything defined in src/homlab is used somewhere.

Every function and class defined in a ``src/homlab`` module must be
referenced by an identifier in ``src/homlab`` or ``perfbench/`` outside
its own definition, and no ``src/homlab`` module may import a name it
never uses.  References are matched by name (``Name`` ids, attribute
names and imported names, including the original name of an
``import x as y``), so the check is coarse but needs no linter.
Tests do not count as users: code that only a test reaches belongs in
the test.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "homlab"
USERS = (SRC, ROOT / "perfbench")
ALLOWED = {"main"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _identifiers(node):
    """Every identifier a node references, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                yield alias.name.split(".")[-1]


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced():
    trees = {path: _parse(path) for base in USERS
             for path in sorted(base.rglob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_identifiers(tree))
    unreferenced = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for node in _definitions(tree):
            if node.name in ALLOWED or _is_dunder(node.name):
                continue
            inside = Counter(_identifiers(node))
            if everywhere[node.name] - inside[node.name] <= 0:
                unreferenced.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unreferenced == []


def _bindings(tree):
    """(bound name, line) of every import at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for name, line in _bindings(tree):
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert unused == []
