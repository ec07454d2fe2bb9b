"""Source hygiene of the package, checked from its syntax trees."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "envcap"


def imported_names(tree: ast.Module) -> set:
    """The names a module's imports bind, ``from __future__`` left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def private_top_level_names(tree: ast.Module) -> set:
    """The ``_x`` names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree: ast.Module) -> set:
    """Names a module reads: loads, attribute reads and ``from ... import``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read = set().union(*map(read_names, trees.values()))
    unread = {m: sorted(private_top_level_names(t) - read) for m, t in trees.items()}
    assert {m: names for m, names in unread.items() if names} == {}


def modules_containing(text: str) -> set:
    return {p.name for p in PACKAGE.glob("*.py") if text in p.read_text(encoding="utf-8")}


def test_one_entropy_term():
    # -w log2 w and its eigenvalue floor live in linalg alone
    assert modules_containing("log2") == {"linalg.py"}


def test_no_random_generator():
    # the searches start from scored candidate inputs, not from random draws
    assert modules_containing("default_rng") == set()
