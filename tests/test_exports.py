"""Every function and class of every src/minplus module serves the package:
another src/minplus module uses it, directly or through the module's own code
that such a use reaches, or it is named as an oracle (``*_bruteforce``) or is
reached from one. Code kept only as a cross-check cannot then sit in src/
under an ordinary name. Every name a module exports in ``__all__`` is bound
at its top level."""
import ast
import functools
from pathlib import Path

import pytest

import minplus

PACKAGE = Path(minplus.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def mentioned(tree: ast.AST) -> set:
    """Every identifier a syntax tree mentions: names, attributes, imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


@functools.cache
def body(path: Path) -> list:
    return ast.parse(path.read_text()).body


def definitions(path: Path) -> dict:
    kinds = (ast.FunctionDef, ast.ClassDef)
    return {node.name: node for node in body(path) if isinstance(node, kinds)}


def bindings(path: Path) -> set:
    """Every name the module binds at its top level: functions, classes,
    constants and aliases, and the names it imports (the package's
    ``__init__`` exports what it imports)."""
    out = set(definitions(path))
    for node in body(path):
        if isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {alias.asname or alias.name for alias in node.names}
    return out


def exports(path: Path) -> list | None:
    """The names listed in the module's ``__all__``, or None without one."""
    for node in body(path):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


@functools.cache
def served(path: Path) -> set:
    """The module's definitions reached from a use in another module of the
    package or from an oracle."""
    used = set()
    for other in MODULES:
        if other != path:
            used |= mentioned(ast.parse(other.read_text()))
    defs = definitions(path)
    todo = [name for name in defs if name in used or name.endswith("_bruteforce")]
    seen = set(todo)
    while todo:
        for name in (mentioned(defs[todo.pop()]) & defs.keys()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


CASES = [(path, name) for path in MODULES for name in definitions(path)]
EXPORTING = [path for path in MODULES if exports(path) is not None]


@pytest.mark.parametrize("path, name", CASES, ids=[f"minplus.{p.stem}.{n}" for p, n in CASES])
def test_every_definition_serves_the_package(path, name):
    assert name in served(path), f"{path.stem}.{name} is used by nothing in src/minplus"


@pytest.mark.parametrize("path", EXPORTING, ids=[f"minplus.{p.stem}" for p in EXPORTING])
def test_every_export_is_defined(path):
    assert set(exports(path)) - bindings(path) == set()
